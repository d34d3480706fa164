//! Regenerates Figure 24: the online serving gateway under closed-loop
//! clients. Everything below the gateway is the deterministic simulator;
//! this bin exercises the production face on top of it — API keys,
//! per-tenant quotas, incremental token streams and first-class elastic
//! model ops — and proves the bridge keeps the simulation's central
//! property: the identical submission program replayed on the sharded
//! executor at 1/2/4 workers produces byte-identical reports (the serial
//! engine runs the same program on its own discrete schedule and is
//! reported as a comparison arm).
//!
//! The scenario: three tenants drive closed-loop clients (one outstanding
//! request each, exponential think times) against a two-model cluster.
//! - "search" (unlimited quota) queries the primary model,
//! - "chat" (unlimited) talks to the co-served chat model,
//! - "batch" (a hard request quota) bulk-loads the primary model until
//!   admission control cuts it off mid-run.
//!
//! Mid-run the operator hot-swaps the chat model: `unload_model` drains
//! and merges its groups (the KunServe drop path frees the duplicate
//! parameter bytes in the memory ledger), chat clients bounce with
//! `ModelUnavailable` and retry, then `load_model` restores the parked
//! copy (ParamRestore) and chat traffic resumes. The elastic-HBM ledger
//! is audited at every pump boundary of every arm.
//!
//! Run: `cargo run --release -p bench --bin fig24_gateway`
//! Flags: `--smoke` (tiny cluster, seconds — the CI regression scenario),
//!        `--threads N` (parallel executor arms),
//!        `--json PATH` (default `target/bench-json/fig24_gateway.json`).

use bench::{harness, json_out_path, outcome_json_labeled, secs, with_exec_meta, write_json, Json};
use cluster::{ClusterConfig, ModelAvailability, ModelId, ParallelConfig};
use gateway::{Gateway, GatewayError, Quota, RequestHandle, RequestStatus, SubmitSpec, Virtual};
use kunserve::serving::{RunOutcome, SystemKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use sim_core::{SimDuration, SimTime};
use workload::{Dataset, Deadline, LengthSampler};

struct Setup {
    name: &'static str,
    cfg: ClusterConfig,
    /// (tenant name, API key, quota, model, number of closed-loop clients).
    tenants: Vec<(&'static str, &'static str, Quota, ModelId, usize)>,
    /// Mean think time between a completion and the next submission.
    think_mean: SimDuration,
    deadline: Deadline,
    /// When the operator unloads the chat model, and the earliest time the
    /// reload may start (it waits for the unload to settle first).
    unload_at: SimTime,
    load_at: SimTime,
    duration: SimDuration,
    drain: SimDuration,
    seed: u64,
}

/// The CI scenario: 4+2 instances, ~12 closed-loop clients, a quota that
/// bites mid-run, and one chat-model hot-swap inside the window.
fn smoke_setup() -> Setup {
    Setup {
        name: "tiny gateway closed loop",
        cfg: ClusterConfig::tiny_two_model(4, 2),
        tenants: vec![
            ("search", "k-search", Quota::UNLIMITED, ModelId(0), 6),
            ("chat", "k-chat", Quota::UNLIMITED, ModelId(1), 4),
            ("batch", "k-batch", Quota::requests(24), ModelId(0), 2),
        ],
        think_mean: SimDuration::from_secs(2),
        deadline: Deadline::ttft(SimDuration::from_secs(4)),
        unload_at: SimTime::from_secs(15),
        load_at: SimTime::from_secs(35),
        duration: SimDuration::from_secs(60),
        drain: SimDuration::from_secs(300),
        seed: 24,
    }
}

/// Paper-scale: a bigger cluster, more clients, a longer window.
fn full_setup() -> Setup {
    Setup {
        name: "gateway closed loop",
        cfg: ClusterConfig::tiny_two_model(8, 4),
        tenants: vec![
            ("search", "k-search", Quota::UNLIMITED, ModelId(0), 16),
            ("chat", "k-chat", Quota::UNLIMITED, ModelId(1), 10),
            ("batch", "k-batch", Quota::requests(80), ModelId(0), 4),
        ],
        think_mean: SimDuration::from_secs(2),
        deadline: Deadline::ttft(SimDuration::from_secs(4)),
        unload_at: SimTime::from_secs(30),
        load_at: SimTime::from_secs(70),
        duration: SimDuration::from_secs(120),
        drain: SimDuration::from_secs(300),
        seed: 51,
    }
}

/// One closed-loop client: one outstanding request, exponential think
/// time, resubmits on completion. All its randomness comes from a seeded
/// per-client stream, so the whole submission program is a pure function
/// of the setup — the executor arms must not perturb it.
struct Client {
    key: &'static str,
    model: ModelId,
    rng: SmallRng,
    sampler: LengthSampler,
    pending: Option<RequestHandle>,
    finished: u64,
    cancelled: u64,
    quota_rejections: u64,
    unavailable_rejections: u64,
    exhausted: bool,
}

impl Client {
    fn think_gap(&mut self, mean: SimDuration) -> SimDuration {
        let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
        SimDuration::from_secs_f64(-u.ln() * mean.as_secs_f64())
    }
}

struct ArmResult {
    outcome: RunOutcome,
    /// Byte-level identity fingerprint (report + reconfig timeline).
    fingerprint: String,
    ledger_violations: Vec<String>,
    finished: u64,
    cancelled: u64,
    quota_rejections: u64,
    unavailable_rejections: u64,
}

/// Replays the identical closed-loop submission program on one executor
/// arm. `pcfg: None` = the serial engine; `Some` = the sharded executor.
fn drive(setup: &Setup, label: &str, pcfg: Option<ParallelConfig>) -> ArmResult {
    let mut gw = match pcfg {
        None => Gateway::new(SystemKind::KunServe, setup.cfg.clone(), Virtual),
        Some(p) => Gateway::sharded(SystemKind::KunServe, setup.cfg.clone(), p, Virtual),
    };
    let mut clients = Vec::new();
    for (i, &(name, key, quota, model, n)) in setup.tenants.iter().enumerate() {
        gw.register_tenant(name, key, quota);
        for j in 0..n {
            clients.push(Client {
                key,
                model,
                rng: SmallRng::seed_from_u64(
                    setup.seed ^ ((i as u64) << 32) ^ (j as u64).wrapping_mul(0x9E37_79B9),
                ),
                sampler: Dataset::BurstGpt.sampler(),
                pending: None,
                finished: 0,
                cancelled: 0,
                quota_rejections: 0,
                unavailable_rejections: 0,
                exhausted: false,
            });
        }
    }

    let step = gw.state().cfg.monitor_interval;
    let end = SimTime::ZERO + setup.duration;
    let mut unload_requested = false;
    let mut load_requested = false;
    let mut ledger_violations = Vec::new();
    let mut now = SimTime::ZERO;
    // First submissions: staggered off the boundary grid by the think
    // stream, exactly like every follow-up.
    submit_ready(&mut gw, &mut clients, setup, now);
    while now < end {
        now += step;
        gw.pump_until(now);
        ledger_violations.extend(gw.state().ledger().check_invariants(&now.to_string()));
        // The operator's hot-swap script, driven off simulated time.
        if !unload_requested && now >= setup.unload_at {
            unload_requested = gw.unload_model(ModelId(1)).is_ok();
        }
        if unload_requested
            && !load_requested
            && now >= setup.load_at
            && gw.model_availability(ModelId(1)) == ModelAvailability::Unloaded
        {
            gw.load_model(ModelId(1))
                .expect("reload of an unloaded model");
            load_requested = true;
        }
        // Closed loop: observe completions, then resubmit.
        for c in clients.iter_mut() {
            let Some(h) = c.pending else { continue };
            match gw.status(h).expect("submitted handle stays valid") {
                RequestStatus::Finished => {
                    c.finished += 1;
                    c.pending = None;
                }
                RequestStatus::Cancelled => {
                    c.cancelled += 1;
                    c.pending = None;
                }
                RequestStatus::Pending | RequestStatus::Active => {}
            }
        }
        submit_ready(&mut gw, &mut clients, setup, now);
    }
    assert!(unload_requested, "{label}: the unload must have fired");
    assert!(load_requested, "{label}: the reload must have fired");
    let (report, state) = gw.finish(setup.drain);
    ledger_violations.extend(state.ledger().check_invariants("final"));
    assert_eq!(
        state.model_availability(ModelId(1)),
        ModelAvailability::Available,
        "{label}: the chat model must be back in service after the swap"
    );
    let fingerprint = format!("{:?}|{:?}", report, state.metrics.reconfig_events);
    let outcome = RunOutcome {
        name: label.to_string(),
        report,
        state,
        span: setup.duration + setup.drain,
        stats: None,
    };
    ArmResult {
        outcome,
        fingerprint,
        ledger_violations,
        finished: clients.iter().map(|c| c.finished).sum(),
        cancelled: clients.iter().map(|c| c.cancelled).sum(),
        quota_rejections: clients.iter().map(|c| c.quota_rejections).sum(),
        unavailable_rejections: clients.iter().map(|c| c.unavailable_rejections).sum(),
    }
}

/// Submits the next request of every idle client: arrival = now + an
/// exponential think gap (off the boundary grid), lengths from the
/// client's sampler stream. Quota exhaustion retires the client;
/// unavailability (the hot-swap window) counts a bounce and retries at
/// the next boundary with a fresh gap.
fn submit_ready<C: gateway::Clock>(
    gw: &mut Gateway<C>,
    clients: &mut [Client],
    setup: &Setup,
    now: SimTime,
) {
    for c in clients.iter_mut() {
        if c.exhausted || c.pending.is_some() {
            continue;
        }
        let gap = c.think_gap(setup.think_mean);
        let (input, output) = {
            let rng = &mut c.rng;
            c.sampler.sample(rng)
        };
        let spec = SubmitSpec::new(c.model, now + gap, input, output).deadline(setup.deadline);
        match gw.submit(c.key, spec) {
            Ok(h) => c.pending = Some(h),
            Err(GatewayError::QuotaExhausted(_)) => {
                c.quota_rejections += 1;
                c.exhausted = true;
            }
            Err(GatewayError::ModelUnavailable(_)) => c.unavailable_rejections += 1,
            Err(e) => panic!("unexpected gateway rejection: {e}"),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let threads = harness::threads_from_args(&args);
    let setup = if smoke { smoke_setup() } else { full_setup() };
    let pcfg = |workers| ParallelConfig {
        num_shards: 4,
        ..ParallelConfig::with_workers(workers)
    };
    let arms: Vec<(&str, Option<ParallelConfig>)> = vec![
        ("gateway (serial)", None),
        ("gateway (1 worker)", Some(pcfg(1))),
        ("gateway (2 workers)", Some(pcfg(2))),
        ("gateway (4 workers)", Some(pcfg(4))),
    ];
    let clients: usize = setup.tenants.iter().map(|t| t.4).sum();
    println!(
        "# Figure 24: {} ({} tenants, {} closed-loop clients, chat hot-swap {}-{}s)",
        setup.name,
        setup.tenants.len(),
        clients,
        setup.unload_at.as_secs_f64(),
        setup.load_at.as_secs_f64()
    );

    let timer = std::time::Instant::now();
    let results =
        harness::run_indexed(threads, arms.len(), |i| drive(&setup, arms[i].0, arms[i].1));
    let wall_ms = timer.elapsed().as_secs_f64() * 1e3;

    // The bridge-determinism claim: the identical submission program on
    // the sharded executor must report byte-identically at every worker
    // count. (The serial engine is reported for comparison but runs a
    // different discrete schedule — reconfig completions land on exact
    // event times rather than window boundaries.)
    for r in &results {
        assert!(
            r.ledger_violations.is_empty(),
            "{}: ledger audit failed:\n{}",
            r.outcome.name,
            r.ledger_violations.join("\n")
        );
    }
    let sharded: Vec<&ArmResult> = results
        .iter()
        .zip(&arms)
        .filter(|(_, (_, p))| p.is_some())
        .map(|(r, _)| r)
        .collect();
    for r in &sharded[1..] {
        assert_eq!(
            sharded[0].fingerprint, r.fingerprint,
            "worker counts diverged: `{}` vs `{}`",
            sharded[0].outcome.name, r.outcome.name
        );
    }
    println!(
        "# all {} sharded worker counts byte-identical",
        sharded.len()
    );

    let mut sys_jsons = Vec::new();
    for r in &results {
        let out = &r.outcome;
        println!();
        println!("## {}", out.name);
        println!(
            "summary,finished={}/{},goodput={:.3},p99={}",
            out.report.finished_requests,
            out.report.total_requests,
            out.report.goodput_frac(),
            secs(out.report.ttft.p99)
        );
        println!(
            "gateway,client_finished={},client_cancelled={},quota_rejections={},unavailable_rejections={}",
            r.finished, r.cancelled, r.quota_rejections, r.unavailable_rejections
        );
        let mut j = outcome_json_labeled(&setup.cfg, out, &out.name);
        if let Json::Obj(pairs) = &mut j {
            pairs.push(("goodput_frac".into(), Json::Num(out.report.goodput_frac())));
            pairs.push((
                "goodput_requests".into(),
                Json::Num(out.report.goodput_requests as f64),
            ));
            pairs.push((
                "deadline_misses".into(),
                Json::Num(out.report.deadline_misses as f64),
            ));
            pairs.push((
                "shed_requests".into(),
                Json::Num(out.report.shed_requests as f64),
            ));
            pairs.push((
                "abandoned_requests".into(),
                Json::Num(out.report.abandoned_requests as f64),
            ));
            pairs.push(("retries".into(), Json::Num(out.report.retries as f64)));
            // The retry-window split, keyed to the hot-swap: before the
            // unload vs from the unload to the end of the open window.
            pairs.push((
                "retries_early".into(),
                Json::Num(out.state.metrics.retries_in(SimTime::ZERO, setup.unload_at) as f64),
            ));
            pairs.push((
                "retries_late".into(),
                Json::Num(
                    out.state
                        .metrics
                        .retries_in(setup.unload_at, SimTime::ZERO + setup.duration)
                        as f64,
                ),
            ));
            pairs.push((
                "quota_rejections".into(),
                Json::Num(r.quota_rejections as f64),
            ));
            pairs.push((
                "unavailable_rejections".into(),
                Json::Num(r.unavailable_rejections as f64),
            ));
        }
        sys_jsons.push(j);
    }

    let doc = with_exec_meta(
        Json::obj([
            ("figure", Json::str("fig24_gateway")),
            ("scenario", Json::str(setup.name)),
            ("smoke", Json::Bool(smoke)),
            ("clients", Json::Num(clients as f64)),
            (
                "arms_identical",
                Json::Bool(true), // asserted above; recorded for the gate
            ),
            ("systems", Json::Arr(sys_jsons)),
        ]),
        threads,
        wall_ms,
    );
    let path = json_out_path("fig24_gateway", &args);
    write_json(&path, &doc).expect("write JSON");
    println!("json,{}", path.display());
}
