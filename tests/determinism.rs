//! Determinism regression tests.
//!
//! The entire harness — trace generation, execution-time noise, policy
//! decisions, network timing — is keyed off explicit `u64` seeds. Two runs
//! with the same seed must produce *byte-identical* reports: every future
//! perf/scaling PR relies on this to compare systems run-to-run.

use kunserve::serving::Run;
use kunserve_repro::prelude::*;
use sim_core::SimTime;

fn trace_with_seed(seed: u64) -> Trace {
    BurstTraceBuilder::new(Dataset::BurstGpt)
        .base_rps(45.0)
        .duration(SimDuration::from_secs(20))
        .burst(SimTime::from_secs(6), SimDuration::from_secs(8), 2.5)
        .seed(seed)
        .build()
}

/// The full debug serialization of a run: report plus the reconfiguration
/// event log. Byte equality of this string is the determinism contract.
fn run_bytes(kind: SystemKind, seed: u64) -> String {
    let trace = trace_with_seed(seed);
    let out = Run::new(kind, ClusterConfig::tiny_test(2), &trace)
        .drain(SimDuration::from_secs(600))
        .execute();
    format!("{:?}|{:?}", out.report, out.state.metrics.reconfig_events)
}

#[test]
fn same_seed_yields_byte_identical_reports() {
    for kind in SystemKind::paper_lineup() {
        let a = run_bytes(kind, 0xD5EED);
        let b = run_bytes(kind, 0xD5EED);
        assert_eq!(
            a,
            b,
            "{}: same seed must reproduce the run exactly",
            kind.name()
        );
    }
}

/// Multi-model runs are held to the same contract: merged two-model traces
/// on a co-serving cluster must reproduce byte-identically, including the
/// per-model report breakdown and the arbitration-driven reconfig log.
fn multi_model_run_bytes(kind: SystemKind, seed: u64) -> String {
    let mk = |model: u32, rps: f64, seed: u64| {
        BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(rps)
            .duration(SimDuration::from_secs(20))
            .burst(SimTime::from_secs(6), SimDuration::from_secs(8), 2.8)
            .seed(seed)
            .model(cluster::ModelId(model))
            .build()
    };
    let trace = Trace::merge(&[mk(0, 45.0, seed), mk(1, 25.0, seed ^ 0xABCD)]);
    let mut cfg = ClusterConfig::tiny_two_model(2, 2);
    cfg.reserve_frac = 0.45;
    let out = Run::new(kind, cfg, &trace)
        .drain(SimDuration::from_secs(900))
        .execute();
    format!(
        "{:?}|{:?}|{:?}",
        out.report, out.report.per_model, out.state.metrics.reconfig_events
    )
}

#[test]
fn multi_model_same_seed_yields_byte_identical_reports() {
    for kind in [
        SystemKind::VllmDp,
        SystemKind::Llumnix,
        SystemKind::KunServe,
    ] {
        let a = multi_model_run_bytes(kind, 0xBEEF);
        let b = multi_model_run_bytes(kind, 0xBEEF);
        assert_eq!(
            a,
            b,
            "{}: same seed must reproduce the multi-model run exactly",
            kind.name()
        );
    }
    let a = multi_model_run_bytes(SystemKind::KunServe, 3);
    let b = multi_model_run_bytes(SystemKind::KunServe, 4);
    assert_ne!(a, b, "different seeds must differ");
}

/// One sharded-executor run serialized to its determinism-contract bytes.
fn sharded_run_bytes(kind: SystemKind, seed: u64, workers: usize) -> String {
    let trace = trace_with_seed(seed);
    let out = Run::new(kind, ClusterConfig::tiny_test(4), &trace)
        .drain(SimDuration::from_secs(600))
        .sharded(ParallelConfig {
            num_shards: 4,
            ..ParallelConfig::with_workers(workers)
        })
        .execute();
    format!(
        "{:?}|{:?}|{:?}",
        out.report, out.report.per_model, out.state.metrics.reconfig_events
    )
}

/// The cross-thread-count determinism matrix: the sharded executor must
/// produce byte-identical reports at 1, 2 and 4 workers — worker threads
/// decide only *where* a shard runs, never what it computes.
#[test]
fn sharded_executor_byte_identical_across_1_2_4_workers() {
    for kind in SystemKind::paper_lineup() {
        let one = sharded_run_bytes(kind, 0xD5EED, 1);
        for workers in [2usize, 4] {
            assert_eq!(
                one,
                sharded_run_bytes(kind, 0xD5EED, workers),
                "{}: sharded run must be identical at {workers} workers",
                kind.name()
            );
        }
    }
    // Seed sensitivity: the matrix must not pass vacuously.
    assert_ne!(
        sharded_run_bytes(SystemKind::KunServe, 1, 2),
        sharded_run_bytes(SystemKind::KunServe, 2, 2),
        "different seeds must produce different sharded runs"
    );
}

/// Same contract run-to-run: two sharded runs with the same seed and the
/// same worker count reproduce exactly (per-group RNG streams, barrier
/// merges and deferred policy flags are all deterministic).
#[test]
fn sharded_executor_same_seed_reproduces() {
    for kind in [SystemKind::VllmDp, SystemKind::KunServe] {
        let a = sharded_run_bytes(kind, 0xABC, 4);
        let b = sharded_run_bytes(kind, 0xABC, 4);
        assert_eq!(a, b, "{}: sharded run must reproduce", kind.name());
    }
}

/// The multi-model co-serving matrix: merged two-model traces through the
/// sharded executor must also be worker-count-invariant (arbitrated drop
/// plans run at barriers; per-model groups land on different shards).
#[test]
fn sharded_multi_model_byte_identical_across_worker_counts() {
    let run = |workers: usize| {
        let mk = |model: u32, rps: f64, seed: u64| {
            BurstTraceBuilder::new(Dataset::BurstGpt)
                .base_rps(rps)
                .duration(SimDuration::from_secs(20))
                .burst(SimTime::from_secs(6), SimDuration::from_secs(8), 2.8)
                .seed(seed)
                .model(cluster::ModelId(model))
                .build()
        };
        let trace = Trace::merge(&[mk(0, 45.0, 0xBEEF), mk(1, 25.0, 0xBEEF ^ 0xABCD)]);
        let mut cfg = ClusterConfig::tiny_two_model(2, 2);
        cfg.reserve_frac = 0.45;
        let out = Run::new(SystemKind::KunServe, cfg, &trace)
            .drain(SimDuration::from_secs(900))
            .sharded(ParallelConfig {
                num_shards: 4,
                ..ParallelConfig::with_workers(workers)
            })
            .execute();
        format!(
            "{:?}|{:?}|{:?}",
            out.report, out.report.per_model, out.state.metrics.reconfig_events
        )
    };
    let one = run(1);
    assert_eq!(one, run(2), "2 workers must match 1");
    assert_eq!(one, run(4), "4 workers must match 1");
}

/// The work-stealing matrix: a heavily skewed burst on a 4-group cluster,
/// run with `workers: 2, num_shards: 4` — lanes 2 and 3 have no homed
/// worker (worker `w` homes on lane `w % num_shards`), so every window
/// task for group slots 2 and 3 is *structurally* executed via a steal,
/// independent of thread timing. Steals must be active AND the report
/// must stay byte-identical across 1/2/4 workers.
#[test]
fn skewed_load_forces_steals_and_stays_byte_identical() {
    let trace = BurstTraceBuilder::new(Dataset::BurstGpt)
        .base_rps(50.0)
        .duration(SimDuration::from_secs(20))
        .burst(SimTime::from_secs(4), SimDuration::from_secs(10), 4.0)
        .seed(0x57EA1)
        .build();
    let run = |workers: usize| {
        let mut cfg = ClusterConfig::tiny_test(4);
        cfg.reserve_frac = 0.45;
        Run::new(SystemKind::KunServe, cfg, &trace)
            .drain(SimDuration::from_secs(600))
            .sharded(ParallelConfig {
                num_shards: 4,
                ..ParallelConfig::with_workers(workers)
            })
            .execute()
    };
    let bytes = |out: &RunOutcome| {
        format!(
            "{:?}|{:?}|{:?}",
            out.report, out.report.per_model, out.state.metrics.reconfig_events
        )
    };
    let one = run(1);
    let two = run(2);
    let four = run(4);
    // The structural guarantee: with 2 workers over 4 lanes, any task on
    // the two unhomed lanes counts as a steal — and a 4-group cluster
    // schedules tasks on every slot.
    assert!(
        two.stats.expect("sharded stats").steals > 0,
        "unhomed lanes must force steals at 2 workers over 4 lanes"
    );
    assert_eq!(
        one.stats.expect("sharded stats").steals,
        0,
        "a single worker drains lanes in order and never steals"
    );
    assert_eq!(bytes(&one), bytes(&two), "2 workers must match 1");
    assert_eq!(bytes(&one), bytes(&four), "4 workers must match 1");
}

/// The one-hot matrix (the `shard_window` bench's workload): four group
/// slots, but every request targets model 0, so each window has at most
/// one task. Such a window wakes no helper; the coordinator runs the task
/// from its own lane 0 (slot 0's home), so no worker count ever steals,
/// and the report stays byte-identical across 1/2/4 workers.
#[test]
fn one_task_windows_never_wake_a_helper_and_stay_byte_identical() {
    let trace = BurstTraceBuilder::new(Dataset::BurstGpt)
        .base_rps(25.0)
        .duration(SimDuration::from_secs(8))
        .burst(SimTime::from_secs(2), SimDuration::from_secs(2), 2.0)
        .seed(42)
        .build();
    let run = |workers: usize| {
        Run::with_policy(
            "queueing",
            Box::new(cluster::QueueingPolicy),
            ClusterConfig::tiny_many_models(1, 3),
            &trace,
        )
        .drain(SimDuration::from_secs(300))
        .sharded(ParallelConfig {
            num_shards: 4,
            ..ParallelConfig::with_workers(workers)
        })
        .execute()
    };
    let one = run(1);
    let one_bytes = format!("{:?}", one.report);
    assert!(one.report.finished_requests > 0, "the hot model serves");
    for workers in [2, 4] {
        let out = run(workers);
        assert_eq!(
            out.stats.expect("sharded stats").steals,
            0,
            "{workers} workers: a one-task window runs on the coordinator's lane"
        );
        assert_eq!(
            one_bytes,
            format!("{:?}", out.report),
            "{workers} workers must match 1"
        );
    }
}

#[test]
fn trace_generation_is_seed_deterministic() {
    let a = trace_with_seed(99);
    let b = trace_with_seed(99);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.requests.iter().zip(&b.requests) {
        assert_eq!(x.arrival, y.arrival);
        assert_eq!(x.input_tokens, y.input_tokens);
        assert_eq!(x.output_tokens, y.output_tokens);
    }
}

#[test]
fn different_seeds_actually_differ() {
    // Guards against a silently ignored seed, which would make the
    // byte-identity test above pass vacuously.
    let a = run_bytes(SystemKind::KunServe, 1);
    let b = run_bytes(SystemKind::KunServe, 2);
    assert_ne!(a, b, "different trace seeds must produce different runs");
}

/// Every scenario-matrix generator is held to the trace-level determinism
/// contract: same seed ⇒ byte-identical `Trace` (arrivals, lengths, model
/// tags and shared-prefix annotations all included via `Debug`).
#[test]
fn scenario_generators_are_seed_deterministic() {
    let diurnal = || {
        DiurnalTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(30.0)
            .period(SimDuration::from_secs(30))
            .days(2.0)
            .amplitude(0.7)
            .noise(0.2, 4)
            .seed(0xD1)
            .build()
    };
    let popularity = || {
        PopularityTraceBuilder::new(Dataset::BurstGpt, 6)
            .zipf(1.1)
            .base_rps(25.0)
            .duration(SimDuration::from_secs(25))
            .storms(0.15, 20, SimDuration::from_secs(3))
            .seed(0xB0)
            .build()
    };
    let prefix = || {
        SharedPrefixTraceBuilder::new(Dataset::BurstGpt, 8)
            .base_rps(35.0)
            .duration(SimDuration::from_secs(20))
            .burst(SimTime::from_secs(6), SimDuration::from_secs(7), 2.5)
            .prefix_tokens(200, 800)
            .seed(0x9F)
            .build()
    };
    let pairs: [(&str, Trace, Trace); 3] = [
        ("diurnal", diurnal(), diurnal()),
        ("popularity", popularity(), popularity()),
        ("shared-prefix", prefix(), prefix()),
    ];
    for (name, a, b) in &pairs {
        assert!(!a.is_empty(), "{name}: generator produced no requests");
        assert_eq!(
            format!("{:?}", a.requests),
            format!("{:?}", b.requests),
            "{name}: same seed must reproduce the trace byte-for-byte"
        );
    }
}

/// The diurnal scenario through the sharded executor: byte-identical at
/// 1, 2 and 4 workers, like every other workload shape.
#[test]
fn diurnal_scenario_byte_identical_across_worker_counts() {
    let run = |workers: usize| {
        let trace = DiurnalTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(40.0)
            .period(SimDuration::from_secs(25))
            .days(1.0)
            .amplitude(0.8)
            .noise(0.15, 3)
            .seed(0xD1D)
            .build();
        let mut cfg = ClusterConfig::tiny_test(4);
        cfg.reserve_frac = 0.45;
        let out = Run::new(SystemKind::KunServe, cfg, &trace)
            .drain(SimDuration::from_secs(600))
            .sharded(ParallelConfig {
                num_shards: 4,
                ..ParallelConfig::with_workers(workers)
            })
            .execute();
        format!(
            "{:?}|{:?}|{:?}",
            out.report, out.report.per_model, out.state.metrics.reconfig_events
        )
    };
    let one = run(1);
    assert_eq!(one, run(2), "2 workers must match 1");
    assert_eq!(one, run(4), "4 workers must match 1");
}

/// The full resilience stack at once — per-request deadlines, retry
/// re-arrivals with jittered backoff, deadline-aware shedding, a rack
/// outage *and* its recovery reload — must stay byte-identical across
/// 1/2/4 workers: the retry clock, the jitter hash and the admission
/// decision are all functions of simulated time and seeds, never of
/// thread scheduling.
#[test]
fn resilience_scenario_byte_identical_across_worker_counts() {
    use cluster::{Deadline, RetryPolicy};
    let run = |workers: usize| {
        let trace = BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(60.0)
            .duration(SimDuration::from_secs(20))
            .burst(SimTime::from_secs(5), SimDuration::from_secs(10), 3.0)
            .seed(0xFA11)
            .build()
            .with_deadline(Deadline::ttft(SimDuration::from_secs(2)));
        let mut cfg = ClusterConfig::tiny_test(4);
        cfg.reserve_frac = 0.45;
        cfg.rack_size = 2;
        cfg.retry = Some(RetryPolicy {
            max_retries: 3,
            base: SimDuration::from_millis(400),
            multiplier: 2,
            cap: SimDuration::from_secs(4),
            seed: 7,
        });
        let schedule = FailureSchedule::new()
            .rack_down(SimTime::from_secs(8), 1)
            .rack_up(SimTime::from_secs(14), 1);
        Run::new(SystemKind::KunServe, cfg, &trace)
            .drain(SimDuration::from_secs(600))
            .sharded(ParallelConfig {
                num_shards: 4,
                ..ParallelConfig::with_workers(workers)
            })
            .failures(&schedule)
            .execute()
    };
    let bytes = |out: &RunOutcome| {
        format!(
            "{:?}|{:?}|{:?}",
            out.report, out.report.per_model, out.state.metrics.reconfig_events
        )
    };
    let one = run(1);
    // The matrix must not pass vacuously: the storm has to actually
    // trip deadlines and drive the closed-loop client.
    assert!(
        one.report.deadline_misses > 0,
        "scenario must trip deadlines (misses {})",
        one.report.deadline_misses
    );
    assert!(
        one.report.retries > 0,
        "scenario must drive retry re-arrivals"
    );
    let one_bytes = bytes(&one);
    assert_eq!(one_bytes, bytes(&run(2)), "2 workers must match 1");
    assert_eq!(one_bytes, bytes(&run(4)), "4 workers must match 1");
}

/// 64-bit FNV-1a: pins a report's Debug bytes in a short constant.
fn fnv1a64(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a of a small pipelined KunServe burst's `RunReport` on the serial
/// engine and on the sharded executor (the two executors schedule decode
/// OOM differently, so each has its own constant). Any change to the
/// simulated output changes these; re-record them only for an intended
/// behaviour change.
const PIPELINED_BURST_SERIAL_FNV: u64 = 0xb35e_3302_ce25_40b3;
const PIPELINED_BURST_SHARDED_FNV: u64 = 0xf573_edfe_aec3_278b;

/// `ShardStats::windows` and the report FNV-1a of `pipelined_burst` on one
/// and on four steal lanes. With two or more lanes every window ends by
/// `barrier + lookahead`; a single lane has no peer to wait for, so its
/// windows are uncapped, it runs fewer of them, and its report differs.
/// Re-record these only for an intended change to the window rule.
const BURST_WINDOWS_1_LANE: u64 = 228;
const BURST_WINDOWS_4_LANES: u64 = 445;
const PIPELINED_BURST_1_LANE_FNV: u64 = 0x72e8_9b9e_abd9_9f36;

/// The pipelined burst on the serial engine (`None`) or on the sharded
/// executor with `(workers, num_shards)`.
fn pipelined_burst(sharded: Option<(usize, usize)>) -> RunOutcome {
    let trace = trace_with_seed(0x601D);
    // A tight KV pool so the burst throttles memory and KunServe drops.
    let mut cfg = ClusterConfig::tiny_test(4);
    cfg.reserve_frac = 0.45;
    let mut run = Run::new(SystemKind::KunServe, cfg, &trace).drain(SimDuration::from_secs(600));
    if let Some((workers, num_shards)) = sharded {
        run = run.sharded(ParallelConfig {
            num_shards,
            ..ParallelConfig::with_workers(workers)
        });
    }
    run.execute()
}

/// Output-neutrality guard for engine-iteration optimisations: the golden
/// hashes must hold on both executors and at every worker count.
#[test]
fn pipelined_burst_matches_golden_report_hash() {
    for (label, sharded, golden) in [
        ("serial", None, PIPELINED_BURST_SERIAL_FNV),
        ("sharded x1", Some((1, 4)), PIPELINED_BURST_SHARDED_FNV),
        ("sharded x2", Some((2, 4)), PIPELINED_BURST_SHARDED_FNV),
    ] {
        let out = pipelined_burst(sharded);
        assert!(
            !out.state.metrics.reconfig_events.is_empty(),
            "{label}: the burst must drive KunServe into pipelined groups"
        );
        let hash = fnv1a64(&format!("{:?}", out.report));
        assert_eq!(
            hash, golden,
            "{label}: report hash {hash:#018x} differs from the golden {golden:#018x}"
        );
    }
}

/// Pins the window rule: windows end at `barrier + lookahead` with several
/// lanes and are uncapped with one. Capping the single lane too, or
/// dropping the cap, changes the window count and the report.
#[test]
fn window_rule_matches_golden_counts_at_1_and_4_lanes() {
    for (lanes, windows, golden) in [
        (1, BURST_WINDOWS_1_LANE, PIPELINED_BURST_1_LANE_FNV),
        (4, BURST_WINDOWS_4_LANES, PIPELINED_BURST_SHARDED_FNV),
    ] {
        let out = pipelined_burst(Some((1, lanes)));
        let stats = out.stats.expect("sharded stats");
        assert_eq!(
            stats.windows, windows,
            "{lanes} lane(s): window count differs from the golden"
        );
        let hash = fnv1a64(&format!("{:?}", out.report));
        assert_eq!(
            hash, golden,
            "{lanes} lane(s): report hash {hash:#018x} differs from the golden {golden:#018x}"
        );
    }
}
