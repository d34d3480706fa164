//! Criterion benchmark for raw engine event throughput.
//!
//! Tracks events/sec of the serial discrete-event engine on a fixed
//! overload scenario (the hot path the sharded executor's shards run), so
//! hot-path regressions — event-queue churn, per-event allocations,
//! redundant group sweeps — show up as a drop in this number rather than
//! as silent wall-clock creep in the paper-scale runs.
//!
//! The `tiny_test(4)` cases never batch more than a few dozen requests, so
//! work that grows with batch size per iteration stays invisible there;
//! `pipelined_large_batch` runs Cluster A under a burst with pipelined
//! groups holding hundreds of running requests.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cluster::{ClusterConfig, ClusterState, QueueingPolicy};
use kunserve::serving::{Run, SystemKind};
use sim_core::{SimDuration, SimTime};
use workload::{BurstTraceBuilder, Dataset, Trace};

fn overload_trace(seconds: u64, rps: f64, seed: u64) -> Trace {
    BurstTraceBuilder::new(Dataset::BurstGpt)
        .base_rps(rps)
        .duration(SimDuration::from_secs(seconds))
        .burst(
            SimTime::from_secs(seconds / 3),
            SimDuration::from_secs(seconds / 4),
            2.5,
        )
        .seed(seed)
        .build()
}

/// Queueing policy on a tiny overloaded cluster: measures the pure engine
/// loop (admission, decode growth, batching, completion) without policy
/// work.
fn bench_engine_events(c: &mut Criterion) {
    let trace = overload_trace(10, 40.0, 11);
    let mut g = c.benchmark_group("engine_throughput");
    g.sample_size(10);
    g.bench_function("queueing_10s_x4", |b| {
        b.iter(|| {
            black_box(
                Run::with_policy(
                    "queueing",
                    Box::new(QueueingPolicy),
                    ClusterConfig::tiny_test(4),
                    &trace,
                )
                .drain(SimDuration::from_secs(300))
                .execute()
                .report,
            )
        })
    });
    g.finish();
}

/// KunServe on the same scenario: adds drop/restore reconfigurations and
/// cost-balanced batch formation to the measured path.
fn bench_engine_events_kunserve(c: &mut Criterion) {
    let trace = overload_trace(10, 50.0, 12);
    let mut cfg = ClusterConfig::tiny_test(4);
    cfg.reserve_frac = 0.45;
    let mut g = c.benchmark_group("engine_throughput");
    g.sample_size(10);
    g.bench_function("kunserve_10s_x4", |b| {
        b.iter(|| {
            black_box(
                Run::new(SystemKind::KunServe, cfg.clone(), &trace)
                    .drain(SimDuration::from_secs(300))
                    .execute(),
            )
        })
    });
    g.finish();
}

/// The largest running batch of any multi-stage group over a run.
fn peak_pipelined_batch(state: &ClusterState, peak: &mut usize) {
    for g in state.alive_group_ids() {
        let g = state.group(g);
        if g.stages() > 1 {
            *peak = (*peak).max(g.running.len());
        }
    }
}

/// Pipeline-parallel serving on Cluster A (Qwen-2.5-14B) under a BurstGPT
/// burst: groups are pipelined, and the parameter memory pipelining frees
/// lets them run batches of hundreds of requests, so per-iteration batch
/// work (collection, microbatch formation, token-progress aggregation,
/// decode-growth reservation) dominates.
fn bench_pipelined_large_batch(c: &mut Criterion) {
    let trace = overload_trace(30, 44.0, 13);
    let run = || {
        Run::new(
            SystemKind::VllmPp,
            ClusterConfig::qwen14b_cluster_a(),
            &trace,
        )
        .drain(SimDuration::from_secs(300))
    };
    let mut peak = 0;
    run().execute_observed(|state, _| peak_pipelined_batch(state, &mut peak));
    assert!(
        peak >= 256,
        "the case must build pipelined batches of >= 256 running requests (peak {peak})"
    );
    let mut g = c.benchmark_group("engine_throughput");
    g.sample_size(10);
    g.bench_function("pipelined_large_batch", |b| {
        b.iter(|| black_box(run().execute().report))
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_engine_events,
    bench_engine_events_kunserve,
    bench_pipelined_large_batch
);
criterion_main!(benches);
