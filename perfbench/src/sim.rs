//! The open-loop workloads and the reduction of one simulated run to what
//! the benchmark reports and checks.

use cluster::{ClusterConfig, ClusterState, ParallelConfig, Policy, ReqState, RunReport};
use kunserve::serving::{Run, RunOutcome, SystemKind};
use sim_core::{SimDuration, SimTime};
use workload::{BurstTraceBuilder, Dataset, SharedPrefixTraceBuilder, Trace};

/// Simulated time allowed past the last arrival to clear the backlog.
pub const DRAIN: SimDuration = SimDuration::from_secs(300);

/// Length of every open-loop trace, in simulated seconds.
const TRACE_SECS: f64 = 120.0;

/// The burst phases of `burst`: `(start, length, rate multiplier)` in
/// simulated seconds — the paper's Cluster A BurstGPT × Qwen-2.5-14B
/// schedule (3× at 35 % of the trace, 2.5× at 68 %).
const BURSTS: [(f64, f64, f64); 2] = [(42.0, 12.0, 3.0), (81.6, 10.0, 2.5)];

/// An open-loop workload: arrivals follow a seeded schedule whatever the
/// system does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenLoop {
    /// BurstGPT at 24 rps with two bursts; memory throttles.
    Burst,
    /// About 20 rps of shared-prefix traffic, no bursts; memory never
    /// throttles.
    SteadyPrefix,
}

impl OpenLoop {
    /// The base arrival rate the rate ladder multiplies.
    pub fn base_rps(self) -> f64 {
        match self {
            OpenLoop::Burst => 24.0,
            OpenLoop::SteadyPrefix => 20.0,
        }
    }

    /// The trace for `seed` with the base rate scaled by `mult`.
    pub fn trace(self, seed: u64, mult: f64) -> Trace {
        let rps = self.base_rps() * mult;
        let duration = SimDuration::from_secs_f64(TRACE_SECS);
        match self {
            OpenLoop::Burst => {
                let mut b = BurstTraceBuilder::new(Dataset::BurstGpt)
                    .base_rps(rps)
                    .duration(duration)
                    .seed(seed);
                for (start, secs, m) in BURSTS {
                    b = b.burst(
                        SimTime::from_secs_f64(start),
                        SimDuration::from_secs_f64(secs),
                        m,
                    );
                }
                b.build()
            }
            OpenLoop::SteadyPrefix => SharedPrefixTraceBuilder::new(Dataset::BurstGpt, 24)
                .base_rps(rps)
                .duration(duration)
                .prefix_tokens(400, 1600)
                .seed(seed)
                .build(),
        }
    }

    /// Both workloads run on Cluster A serving Qwen-2.5-14B, with the KV
    /// pool provisioned at about 2.1× the average demand (paper §2.2).
    pub fn config(self) -> ClusterConfig {
        let mut cfg = ClusterConfig::qwen14b_cluster_a();
        cfg.reserve_frac = 0.55;
        cfg
    }

    /// Phase boundaries in simulated seconds: before the first burst,
    /// from its start to the end of the last burst, and after. The same
    /// windows split `steady_prefix`, which has no burst.
    pub fn phase_bounds(self) -> [f64; 2] {
        let (first, _, _) = BURSTS[0];
        let (last, secs, _) = BURSTS[BURSTS.len() - 1];
        [first, last + secs]
    }
}

/// The executor a run uses.
#[derive(Debug, Clone, Copy)]
pub enum Exec {
    /// The serial engine.
    Serial,
    /// The sharded executor with this many workers (4 lanes).
    Sharded(usize),
}

/// Runs `policy` (or plain KunServe when `None`) over `trace`, counting
/// the observer callbacks.
pub fn run_open(
    w: OpenLoop,
    trace: &Trace,
    policy: Option<(String, Box<dyn Policy>, ClusterConfig)>,
    exec: Exec,
) -> (RunOutcome, u64) {
    let mut run = match policy {
        None => Run::new(SystemKind::KunServe, w.config(), trace),
        Some((name, p, cfg)) => Run::new(SystemKind::KunServe, cfg, trace).policy(name, p),
    }
    .drain(DRAIN);
    if let Exec::Sharded(workers) = exec {
        run = run.sharded(ParallelConfig {
            workers,
            num_shards: 4,
            lookahead: None,
            speculation: false,
        });
    }
    let mut events = 0u64;
    let out = run.execute_observed(|_, _| events += 1);
    (out, events)
}

/// One logical request as its client saw it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReqOutcome {
    /// When the request was first due to be sent (simulated seconds).
    pub due_s: f64,
    /// Time to first token, measured from `due_s`.
    pub ttft_s: Option<f64>,
    /// Mean time per output token after the first.
    pub tpot_s: Option<f64>,
    /// Whether it completed its full decode budget.
    pub finished: bool,
}

impl ReqOutcome {
    /// Whether the request finished within both latency limits.
    pub fn meets(&self, slo: Slo) -> bool {
        self.finished
            && self.ttft_s.is_some_and(|t| t <= slo.ttft_s)
            && self.tpot_s.is_none_or(|t| t <= slo.tpot_s)
    }
}

/// A TTFT and a TPOT limit, both in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Slo {
    /// Time-to-first-token limit.
    pub ttft_s: f64,
    /// Time-per-output-token limit.
    pub tpot_s: f64,
}

/// Exact work counters of one run: identical for a given seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Work {
    /// `execute_observed` callbacks (0 where no observer is reachable).
    pub events: u64,
    /// Engine iterations across all groups.
    pub iterations: u64,
    /// Reconfiguration (drop/restore) events.
    pub reconfigs: u64,
    /// Recompute preemptions.
    pub preemptions: u64,
}

impl std::ops::AddAssign for Work {
    fn add_assign(&mut self, o: Work) {
        self.events += o.events;
        self.iterations += o.iterations;
        self.reconfigs += o.reconfigs;
        self.preemptions += o.preemptions;
    }
}

/// Simulated memory and prefix statistics of one run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MemStats {
    /// Sum and count of `mem_used / mem_capacity` monitor samples.
    pub used_frac_sum: f64,
    pub used_frac_n: u64,
    /// Peak `mem_demand / mem_capacity`.
    pub demand_peak_frac: f64,
    /// Sum and count of pipeline-bubble samples.
    pub bubble_sum: f64,
    pub bubble_n: u64,
    /// Peak bytes lent across models.
    pub donated_peak_bytes: u64,
    /// Shared-prefix tokens served from residency, computed once, and
    /// recomputed after eviction.
    pub prefix_saved: u64,
    pub prefix_unique: u64,
    pub prefix_recompute: u64,
}

impl MemStats {
    /// Folds another run's statistics into this one.
    pub fn absorb(&mut self, o: &MemStats) {
        self.used_frac_sum += o.used_frac_sum;
        self.used_frac_n += o.used_frac_n;
        self.demand_peak_frac = self.demand_peak_frac.max(o.demand_peak_frac);
        self.bubble_sum += o.bubble_sum;
        self.bubble_n += o.bubble_n;
        self.donated_peak_bytes = self.donated_peak_bytes.max(o.donated_peak_bytes);
        self.prefix_saved += o.prefix_saved;
        self.prefix_unique += o.prefix_unique;
        self.prefix_recompute += o.prefix_recompute;
    }
}

/// One simulated run, reduced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Hash of the report plus the reconfiguration timeline.
    pub fingerprint: u64,
    /// One entry per logical request sent.
    pub requests: Vec<ReqOutcome>,
    /// Exact work counters.
    pub work: Work,
    /// Memory and prefix statistics.
    pub mem: MemStats,
}

impl RunResult {
    /// Requests that completed.
    pub fn finished(&self) -> usize {
        self.requests.iter().filter(|r| r.finished).count()
    }

    /// Whether `other` is the same simulated run: same fingerprint and
    /// the same exact counters.
    pub fn same_run(&self, other: &RunResult) -> bool {
        self.fingerprint == other.fingerprint && self.work == other.work
    }
}

/// FNV-1a, 64-bit: a stable hash for fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The report-plus-timeline fingerprint of a finished run.
pub fn fingerprint(report: &RunReport, state: &ClusterState) -> u64 {
    fnv1a(format!("{report:?}|{:?}", state.metrics.reconfig_events).as_bytes())
}

/// Checks request conservation — every arrived request is finished,
/// shed, abandoned, cancelled or still unfinished, and the report agrees
/// with the final request table — and returns the unfinished count.
pub fn check_conservation(report: &RunReport, state: &ClusterState) -> Result<usize, String> {
    let count = |f: fn(&ReqState) -> bool| state.requests.iter().filter(|r| f(&r.state)).count();
    let finished = count(|s| *s == ReqState::Finished);
    let dropped = count(|s| *s == ReqState::Dropped);
    let unfinished = state.requests.len() - finished - dropped;
    let ended = report.shed_requests + report.abandoned_requests + report.cancelled_requests;
    let ok = report.total_requests == state.requests.len()
        && report.finished_requests == finished
        && ended == dropped as u64
        && report.total_requests == finished + dropped + unfinished;
    if ok {
        Ok(unfinished)
    } else {
        Err(format!(
            "request conservation broken: arrived {} vs table {}, finished {} vs {finished}, \
             shed+abandoned+cancelled {ended} vs dropped {dropped}",
            report.total_requests,
            state.requests.len(),
            report.finished_requests
        ))
    }
}

/// Memory statistics from a run's monitor timelines and report.
pub fn mem_stats(report: &RunReport, state: &ClusterState) -> MemStats {
    let m = &state.metrics;
    let frac = |a: f64, cap: f64| if cap > 0.0 { a / cap } else { 0.0 };
    let used: Vec<f64> = m
        .mem_used
        .points()
        .iter()
        .zip(m.mem_capacity.points())
        .map(|(u, c)| frac(u.1, c.1))
        .collect();
    let demand_peak_frac = m
        .mem_demand
        .points()
        .iter()
        .zip(m.mem_capacity.points())
        .map(|(d, c)| frac(d.1, c.1))
        .fold(0.0, f64::max);
    let bubbles = m.bubbles.points();
    MemStats {
        used_frac_sum: used.iter().sum(),
        used_frac_n: used.len() as u64,
        demand_peak_frac,
        bubble_sum: bubbles.iter().map(|p| p.1).sum(),
        bubble_n: bubbles.len() as u64,
        donated_peak_bytes: report.donated_bytes_peak,
        prefix_saved: report.prefix_saved_tokens,
        prefix_unique: report.prefix_unique_tokens,
        prefix_recompute: report.prefix_recompute_tokens,
    }
}

/// Work counters that every run exposes (`events` is filled by callers
/// that can observe events).
pub fn work_of(report: &RunReport, state: &ClusterState, events: u64) -> Work {
    Work {
        events,
        iterations: state.metrics.iterations.len() as u64,
        reconfigs: state.metrics.reconfig_events.len() as u64,
        preemptions: report.preemptions,
    }
}

/// Reduces an open-loop run: each trace request is one logical request,
/// due at its arrival.
pub fn reduce_open(trace: &Trace, out: &RunOutcome, events: u64) -> Result<RunResult, String> {
    let (report, state) = (&out.report, &out.state);
    check_conservation(report, state)?;
    if report.total_requests != trace.len() {
        return Err(format!(
            "{} of {} trace requests arrived",
            report.total_requests,
            trace.len()
        ));
    }
    let requests = state
        .metrics
        .records()
        .iter()
        .zip(&state.requests)
        .map(|(rec, req)| ReqOutcome {
            due_s: rec.arrival.as_secs_f64(),
            ttft_s: rec.ttft_secs(),
            tpot_s: rec.tpot_secs(),
            finished: req.state == ReqState::Finished,
        })
        .collect();
    Ok(RunResult {
        fingerprint: fingerprint(report, state),
        requests,
        work: work_of(report, state, events),
        mem: mem_stats(report, state),
    })
}
