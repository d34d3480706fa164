//! Criterion benchmark for the sharded executor's barrier-loop window
//! cost, on two workloads:
//!
//! - **one-hot**: the cluster co-serves four single-instance groups but
//!   the trace pins every request to model 0, so each window has at most
//!   one task, homed on lane 0. Such a window wakes no helper thread: the
//!   coordinator runs the task itself. This case measures the fixed
//!   per-window cost — barrier bookkeeping, deque churn, merge — and
//!   should not get slower as workers are added.
//! - **balanced**: uniform load over four single-instance groups of one
//!   model, so most windows carry several tasks spread over all four
//!   lanes. This case exercises the helper hand-off (wake, steal,
//!   result channel) that one-hot windows never reach.
//!
//! Each sample runs the executor end to end at 1/2/4/8 workers; the
//! per-window cost (median wall clock of five runs / barrier windows
//! executed) tracks scheduler overhead rather than simulation throughput.
//!
//! Besides the criterion numbers, the binary emits the standard
//! bench-JSON envelope (figure `shard_window`, one worker sweep per case)
//! into `target/bench-json/` so the trajectory is recorded and the run is
//! gated by the tier-1 wall-clock budget in `ci.sh`.

use criterion::{black_box, Criterion};
use std::time::Instant;

use bench::{json_out_path, with_exec_meta, write_json, Json};
use cluster::{ClusterConfig, ParallelConfig, QueueingPolicy, ShardStats};
use kunserve::serving::{Run, RunOutcome};
use sim_core::{SimDuration, SimTime};
use workload::{BurstTraceBuilder, Dataset, Trace};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
const DRAIN: SimDuration = SimDuration::from_secs(300);

/// One benchmarked workload: a cluster and the trace it serves.
struct Case {
    name: &'static str,
    workload: &'static str,
    cluster: fn() -> ClusterConfig,
    trace: Trace,
}

/// All requests target model 0 — the single hot group on a cluster that
/// has four group slots, so three steal lanes are permanently empty.
fn one_hot_case(seconds: u64) -> Case {
    Case {
        name: "one_hot",
        workload: "one-hot group, 4 lanes, burst x2.0",
        // One instance for the hot model plus three idle tail groups:
        // four lanes, one of them carrying the entire load.
        cluster: || ClusterConfig::tiny_many_models(1, 3),
        trace: BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(25.0)
            .duration(SimDuration::from_secs(seconds))
            .burst(
                SimTime::from_secs(seconds / 3),
                SimDuration::from_secs(seconds / 4),
                2.0,
            )
            .seed(42)
            .build(),
    }
}

/// Uniform load that dispatch spreads over four groups of one model.
fn balanced_case(seconds: u64) -> Case {
    Case {
        name: "balanced",
        workload: "uniform load over 4 groups, 4 lanes, no burst",
        cluster: || ClusterConfig::tiny_test(4),
        trace: BurstTraceBuilder::new(Dataset::BurstGpt)
            .base_rps(60.0)
            .duration(SimDuration::from_secs(seconds))
            .seed(43)
            .build(),
    }
}

fn pcfg(workers: usize) -> ParallelConfig {
    ParallelConfig {
        workers,
        num_shards: 4,
        lookahead: None,
        speculation: false,
    }
}

fn run(case: &Case, workers: usize) -> RunOutcome {
    Run::with_policy(
        "queueing",
        Box::new(QueueingPolicy),
        (case.cluster)(),
        &case.trace,
    )
    .drain(DRAIN)
    .sharded(pcfg(workers))
    .execute()
}

/// Timed end-to-end runs per JSON row; the row reports their median.
const TIMED_RUNS: usize = 5;

/// `TIMED_RUNS` timed end-to-end runs; returns the median wall seconds
/// and the executor stats (windows are the same in every run).
fn timed_run(case: &Case, workers: usize) -> (f64, ShardStats) {
    let mut walls = Vec::with_capacity(TIMED_RUNS);
    let mut stats = ShardStats::default();
    for _ in 0..TIMED_RUNS {
        let start = Instant::now();
        let out = black_box(run(case, workers));
        walls.push(start.elapsed().as_secs_f64());
        stats = out.stats.expect("sharded run records stats");
    }
    walls.sort_by(f64::total_cmp);
    (walls[TIMED_RUNS / 2], stats)
}

fn bench_window_loop(c: &mut Criterion, cases: &[Case]) {
    let mut g = c.benchmark_group("shard_window");
    g.sample_size(10);
    for case in cases {
        for &workers in &WORKER_COUNTS {
            g.bench_function(&format!("{}_workers_{workers}", case.name), |b| {
                b.iter(|| black_box(run(case, workers).report))
            });
        }
    }
    g.finish();
}

/// One timed row per worker count for the JSON trajectory (the
/// criterion shim doesn't expose its timings).
fn sweep(case: &Case) -> Json {
    let mut rows = Vec::new();
    let mut baseline = 0.0;
    for &workers in &WORKER_COUNTS {
        let (wall, stats) = timed_run(case, workers);
        if workers == 1 {
            baseline = wall;
        }
        let us_per_window = wall * 1e6 / stats.windows.max(1) as f64;
        println!(
            "shard_window: case={} workers={workers} windows={} steals={} \
             {us_per_window:.1} us/window ({:.0} ms total)",
            case.name,
            stats.windows,
            stats.steals,
            wall * 1e3
        );
        rows.push(Json::obj([
            ("workers", Json::Num(workers as f64)),
            ("windows", Json::Num(stats.windows as f64)),
            ("steals", Json::Num(stats.steals as f64)),
            ("wall_clock_ms", Json::Num(wall * 1e3)),
            ("us_per_window", Json::Num(us_per_window)),
            ("speedup_vs_1", Json::Num(baseline / wall.max(1e-9))),
        ]));
    }
    Json::obj([
        ("case", Json::str(case.name)),
        ("workload", Json::str(case.workload)),
        ("worker_sweep", Json::Arr(rows)),
    ])
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Under `cargo test` the harness passes `--test`: keep the smoke run
    // short (criterion's shim already runs one iteration per bench).
    let smoke = args.iter().any(|a| a == "--test");
    let seconds = if smoke { 2 } else { 8 };
    let cases = [one_hot_case(seconds), balanced_case(seconds)];

    let mut c = Criterion::default().configure_from_args();
    bench_window_loop(&mut c, &cases);

    let total_start = Instant::now();
    let doc = Json::obj([
        ("figure", Json::str("shard_window")),
        ("cases", Json::Arr(cases.iter().map(sweep).collect())),
    ]);
    let doc = with_exec_meta(
        doc,
        *WORKER_COUNTS.iter().max().expect("non-empty"),
        total_start.elapsed().as_secs_f64() * 1e3,
    );
    // Under `cargo test` the sweep ran on the smoke trace: don't clobber
    // a real trajectory in target/bench-json/ unless a path was given.
    if !smoke || args.iter().any(|a| a == "--json") {
        let path = json_out_path("shard_window", &args);
        write_json(&path, &doc).expect("write bench JSON");
        println!("shard_window: wrote {}", path.display());
    }
}
