//! The closed-loop gateway workload: fig24's full setup driven through
//! the public `gateway::Gateway` API on the sharded executor.

use cluster::{ClusterConfig, ModelAvailability, ModelId, ParallelConfig, ReqState};
use gateway::{Gateway, GatewayError, Quota, RequestHandle, RequestStatus, SubmitSpec, Virtual};
use kunserve::serving::SystemKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_core::{SimDuration, SimTime};
use workload::{Dataset, Deadline, LengthSampler};

use crate::sim::{check_conservation, fingerprint, mem_stats, work_of, ReqOutcome, RunResult};
use crate::spans::SharedRecorder;

/// The chat model the operator hot-swaps.
const CHAT: ModelId = ModelId(1);
/// Mean client think time between a completion and the next request.
const THINK_MEAN_S: f64 = 2.0;
/// When the operator unloads the chat model.
pub const UNLOAD_AT: SimTime = SimTime::from_secs(30);
/// The earliest reload, once the unload has settled.
const LOAD_AT: SimTime = SimTime::from_secs(70);
/// Length of the client window.
pub const WINDOW: SimDuration = SimDuration::from_secs(120);
/// Simulated time allowed after the window to clear the backlog.
const DRAIN: SimDuration = SimDuration::from_secs(300);
/// Executor workers: no more than the two cores the benchmark assumes.
const WORKERS: usize = 2;

/// A tenant: name, API key, quota, target model and client count at load
/// multiple 1.
const TENANTS: [(&str, &str, Quota, ModelId, usize); 3] = [
    ("search", "k-search", Quota::UNLIMITED, ModelId(0), 16),
    ("chat", "k-chat", Quota::UNLIMITED, CHAT, 10),
    (
        "batch",
        "k-batch",
        Quota {
            max_requests: 80,
            max_tokens: u64::MAX,
        },
        ModelId(0),
        4,
    ),
];

/// Exact counts of the benchmark's calls into the gateway.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Calls {
    /// `submit` calls.
    pub submit: u64,
    /// Submissions refused because the tenant's quota was spent.
    pub rejected_quota: u64,
    /// Submissions bounced because the chat model was swapped out.
    pub rejected_unavailable: u64,
    /// `status` calls.
    pub status: u64,
    /// `pump_until` calls.
    pub pump: u64,
    /// `unload_model` plus `load_model` calls.
    pub model_op: u64,
}

impl std::ops::AddAssign for Calls {
    fn add_assign(&mut self, o: Calls) {
        self.submit += o.submit;
        self.rejected_quota += o.rejected_quota;
        self.rejected_unavailable += o.rejected_unavailable;
        self.status += o.status;
        self.pump += o.pump;
        self.model_op += o.model_op;
    }
}

/// One session: its reduction, its call counts and when the chat model
/// came back.
pub struct Session {
    /// The reduced run.
    pub result: RunResult,
    /// Calls made into the gateway.
    pub calls: Calls,
    /// Simulated second at which the reloaded chat model was available.
    pub reloaded_s: f64,
}

/// A logical request: it keeps its due time and lengths across bounces.
struct Logical {
    due: SimTime,
    input: u64,
    output: u64,
    handle: Option<RequestHandle>,
}

/// How a logical request ended on the client side.
enum Ended {
    /// Accepted; the engine's request table has the rest.
    Accepted(RequestHandle, SimTime),
    /// Refused by quota, or never accepted before the window closed.
    Failed(SimTime),
}

struct Client {
    key: &'static str,
    model: ModelId,
    rng: SmallRng,
    sampler: LengthSampler,
    pending: Option<Logical>,
    exhausted: bool,
}

/// Times `f` as span `name` (carrying `id`) when a recorder is given.
fn span<R>(
    rec: Option<&SharedRecorder>,
    name: &'static str,
    id: Option<u64>,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(r) => crate::spans::timed(r, name, id, f),
        None => f(),
    }
}

/// The client population of one session: the workload's generated input.
pub struct Population {
    seed: u64,
    clients: Vec<Client>,
}

impl Population {
    /// The clients for `seed`, with the unlimited tenants' client counts
    /// scaled by `mult` (the batch tenant keeps its 4 quota-capped
    /// clients). Every client draws from its own seeded stream.
    pub fn new(seed: u64, mult: f64) -> Self {
        let mut clients = Vec::new();
        for (i, &(_, key, quota, model, n)) in TENANTS.iter().enumerate() {
            let n = if quota == Quota::UNLIMITED {
                (n as f64 * mult).round() as usize
            } else {
                n
            };
            for j in 0..n {
                clients.push(Client {
                    key,
                    model,
                    rng: SmallRng::seed_from_u64(
                        seed ^ ((i as u64) << 32) ^ (j as u64).wrapping_mul(0x9E37_79B9),
                    ),
                    sampler: Dataset::BurstGpt.sampler(),
                    pending: None,
                    exhausted: false,
                });
            }
        }
        Population { seed, clients }
    }

    /// Offered load: clients over the mean think time.
    pub fn offered_rps(&self) -> f64 {
        self.clients.len() as f64 / THINK_MEAN_S
    }
}

/// Runs one closed-loop session of `pop`. With a recorder, every gateway
/// call is a span under one `bench.run` root.
pub fn run_session(pop: Population, rec: Option<&SharedRecorder>) -> Result<Session, String> {
    let Population { seed, mut clients } = pop;
    let root = rec.map(|r| r.borrow_mut().begin("bench.run", Some(seed)));
    let pcfg = ParallelConfig {
        workers: WORKERS,
        num_shards: 4,
        lookahead: None,
        speculation: false,
    };
    let mut gw = Gateway::sharded(
        SystemKind::KunServe,
        ClusterConfig::tiny_two_model(8, 4),
        pcfg,
        Virtual,
    );
    for &(name, key, quota, _, _) in &TENANTS {
        gw.register_tenant(name, key, quota);
    }

    let mut calls = Calls::default();
    let mut ended = Vec::new();
    let mut violations = Vec::new();
    let step = gw.state().cfg.monitor_interval;
    let end = SimTime::ZERO + WINDOW;
    let (mut unloaded, mut loaded, mut reloaded_at) = (false, false, None);
    let mut now = SimTime::ZERO;
    submit_ready(&mut gw, &mut clients, now, rec, &mut calls, &mut ended)?;
    while now < end {
        now += step;
        calls.pump += 1;
        span(rec, "gateway.pump_until", None, || gw.pump_until(now));
        violations.extend(gw.state().ledger().check_invariants(&now.to_string()));
        if !unloaded && now >= UNLOAD_AT {
            calls.model_op += 1;
            unloaded = span(rec, "gateway.unload_model", Some(u64::from(CHAT.0)), || {
                gw.unload_model(CHAT)
            })
            .is_ok();
        }
        if unloaded
            && !loaded
            && now >= LOAD_AT
            && gw.model_availability(CHAT) == ModelAvailability::Unloaded
        {
            calls.model_op += 1;
            span(rec, "gateway.load_model", Some(u64::from(CHAT.0)), || {
                gw.load_model(CHAT)
            })
            .map_err(|e| format!("reload of the unloaded chat model refused: {e}"))?;
            loaded = true;
        }
        if loaded
            && reloaded_at.is_none()
            && gw.model_availability(CHAT) == ModelAvailability::Available
        {
            reloaded_at = Some(now);
        }
        for c in clients.iter_mut() {
            let Some(h) = c.pending.as_ref().and_then(|l| l.handle) else {
                continue;
            };
            calls.status += 1;
            let status = span(rec, "gateway.status", Some(h.0), || gw.status(h))
                .map_err(|e| format!("status of an accepted handle failed: {e}"))?;
            if matches!(status, RequestStatus::Finished | RequestStatus::Cancelled) {
                let l = c.pending.take().expect("pending checked above");
                ended.push(Ended::Accepted(h, l.due));
            }
        }
        submit_ready(&mut gw, &mut clients, now, rec, &mut calls, &mut ended)?;
    }
    if !(unloaded && loaded) {
        return Err("the chat-model hot-swap did not run".into());
    }
    for c in clients.iter_mut() {
        match c.pending.take() {
            Some(Logical {
                handle: Some(h),
                due,
                ..
            }) => ended.push(Ended::Accepted(h, due)),
            Some(l) => ended.push(Ended::Failed(l.due)),
            None => {}
        }
    }
    let (report, state) = span(rec, "gateway.finish", None, || gw.finish(DRAIN));
    if let Some(ix) = root {
        rec.expect("root implies a recorder").borrow_mut().end(ix);
    }
    violations.extend(state.ledger().check_invariants("final"));
    if let Some(v) = violations.first() {
        return Err(format!(
            "ledger invariant broken ({} total): {v}",
            violations.len()
        ));
    }
    if state.model_availability(CHAT) != ModelAvailability::Available {
        return Err("the chat model did not end Available".into());
    }
    check_conservation(&report, &state)?;

    // Map accepted handles (the engine's wire ids) to their requests.
    let mut by_handle = vec![None; state.requests.len()];
    for req in &state.requests {
        if let Some(slot) = by_handle.get_mut(req.spec.id as usize) {
            *slot = Some(req);
        }
    }
    let mut requests = Vec::with_capacity(ended.len());
    for e in &ended {
        requests.push(match *e {
            Ended::Failed(due) => ReqOutcome {
                due_s: due.as_secs_f64(),
                ttft_s: None,
                tpot_s: None,
                finished: false,
            },
            Ended::Accepted(h, due) => {
                let req = by_handle
                    .get(h.0 as usize)
                    .copied()
                    .flatten()
                    .ok_or_else(|| format!("accepted handle {} never reached the engine", h.0))?;
                let tpot_s = match (req.first_token_at, req.finished_at) {
                    (Some(a), Some(b)) if req.spec.output_tokens > 1 => {
                        Some(b.since(a).as_secs_f64() / (req.spec.output_tokens - 1) as f64)
                    }
                    _ => None,
                };
                ReqOutcome {
                    due_s: due.as_secs_f64(),
                    ttft_s: req.first_token_at.map(|t| t.since(due).as_secs_f64()),
                    tpot_s,
                    finished: req.state == ReqState::Finished,
                }
            }
        });
    }
    requests.sort_by(|a, b| a.due_s.total_cmp(&b.due_s));
    let reloaded_s = reloaded_at.map_or(f64::INFINITY, |t| t.as_secs_f64());
    Ok(Session {
        result: RunResult {
            fingerprint: fingerprint(&report, &state),
            requests,
            work: work_of(&report, &state, 0),
            mem: mem_stats(&report, &state),
        },
        calls,
        reloaded_s,
    })
}

/// Starts a logical request for every idle client and (re)submits every
/// logical request not yet accepted. A bounce keeps the request's due
/// time; a quota refusal ends it and retires the client.
fn submit_ready(
    gw: &mut Gateway<Virtual>,
    clients: &mut [Client],
    now: SimTime,
    rec: Option<&SharedRecorder>,
    calls: &mut Calls,
    ended: &mut Vec<Ended>,
) -> Result<(), String> {
    for c in clients.iter_mut() {
        if c.exhausted || c.pending.as_ref().is_some_and(|l| l.handle.is_some()) {
            continue;
        }
        let l = match c.pending.take() {
            Some(l) => l,
            None => {
                let u: f64 = c.rng.gen_range(f64::EPSILON..1.0);
                let gap = SimDuration::from_secs_f64(-u.ln() * THINK_MEAN_S);
                let (input, output) = c.sampler.sample(&mut c.rng);
                Logical {
                    due: now + gap,
                    input,
                    output,
                    handle: None,
                }
            }
        };
        let spec = SubmitSpec::new(c.model, l.due.max(now), l.input, l.output)
            .deadline(Deadline::ttft(SimDuration::from_secs(4)));
        calls.submit += 1;
        let ix = rec.map(|r| r.borrow_mut().begin("gateway.submit", None));
        let res = gw.submit(c.key, spec);
        if let (Some(r), Some(ix)) = (rec, ix) {
            r.borrow_mut()
                .end_with_id(ix, res.as_ref().ok().map(|h| h.0));
        }
        match res {
            Ok(h) => {
                c.pending = Some(Logical {
                    handle: Some(h),
                    ..l
                })
            }
            Err(GatewayError::QuotaExhausted(_)) => {
                calls.rejected_quota += 1;
                c.exhausted = true;
                ended.push(Ended::Failed(l.due));
            }
            Err(GatewayError::ModelUnavailable(_)) => {
                // The chat model is swapped out: the client retries the
                // same request at the next boundary.
                calls.rejected_unavailable += 1;
                c.pending = Some(l);
            }
            Err(e) => return Err(format!("unexpected gateway refusal: {e}")),
        }
    }
    Ok(())
}
