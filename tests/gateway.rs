//! Gateway integration tests: the production request API over the
//! deterministic core.
//!
//! Two contracts are pinned here:
//! - **Session lifecycle**: submit → incremental stream (poll and
//!   callback agree) → cancel → quota-exhausted rejection, end to end
//!   through a real serving session.
//! - **Bridge determinism**: the gateway is a pure bridge. Replaying the
//!   same arrival sequence through `Gateway::submit` + `pump_until` must
//!   produce a report byte-identical to handing the materialized trace to
//!   the batch [`Run`] builder — on the sharded executor at 1, 2 and 4
//!   workers. The elastic hot-swap (`unload_model`/`load_model`) is held
//!   to the same worker-count invariance with the memory ledger audited
//!   at every pump boundary.

use std::cell::RefCell;
use std::rc::Rc;

use cluster::{ModelAvailability, ModelId, ParallelConfig};
use gateway::{Gateway, GatewayError, Quota, RequestStatus, SubmitSpec, Virtual};
use kunserve::serving::Run;
use kunserve_repro::prelude::*;
use sim_core::SimTime;
use workload::OpenLoopSource;

#[test]
fn session_lifecycle_submit_stream_cancel_quota() {
    let mut gw = Gateway::new(SystemKind::KunServe, ClusterConfig::tiny_test(2), Virtual);
    gw.register_tenant("acme", "k-acme", Quota::UNLIMITED);
    gw.register_tenant("capped", "k-capped", Quota::requests(1));

    // Submit: two live requests plus one that will be cancelled in the
    // inbox before it ever reaches the engine.
    let streamed = gw
        .submit(
            "k-acme",
            SubmitSpec::new(ModelId::PRIMARY, SimTime::from_millis(73), 128, 24),
        )
        .unwrap();
    let polled = gw
        .submit(
            "k-acme",
            SubmitSpec::new(ModelId::PRIMARY, SimTime::from_millis(211), 96, 16),
        )
        .unwrap();
    let doomed = gw
        .submit(
            "k-acme",
            SubmitSpec::new(ModelId::PRIMARY, SimTime::from_secs(9), 64, 8),
        )
        .unwrap();

    // Quota: the capped tenant gets exactly one submission.
    gw.submit(
        "k-capped",
        SubmitSpec::new(ModelId::PRIMARY, SimTime::from_millis(307), 32, 8),
    )
    .unwrap();
    assert_eq!(
        gw.submit(
            "k-capped",
            SubmitSpec::new(ModelId::PRIMARY, SimTime::from_millis(407), 32, 8),
        ),
        Err(GatewayError::QuotaExhausted(gateway::TenantId(1))),
        "the second submission must exceed the one-request quota"
    );

    // Stream: the callback sees every increment; the poll side of the
    // other request advances monotonically to its full output.
    let seen = Rc::new(RefCell::new(0u64));
    let sink = Rc::clone(&seen);
    gw.stream(
        streamed,
        Box::new(move |ev| {
            *sink.borrow_mut() += ev.new_tokens;
        }),
    )
    .unwrap();

    gw.cancel(doomed).unwrap();
    assert_eq!(gw.status(doomed).unwrap(), RequestStatus::Cancelled);

    let mut polled_total = 0;
    let mut last = 0;
    let mut t = SimTime::ZERO;
    while t < SimTime::from_secs(30) {
        t += SimDuration::from_secs(1);
        gw.pump_until(t);
        let ev = gw.poll(polled).unwrap();
        polled_total += ev.new_tokens;
        assert!(ev.generated >= last, "token count must be monotone");
        last = ev.generated;
    }
    assert_eq!(*seen.borrow(), 24, "callback must stream the full output");
    assert_eq!(polled_total, 16, "poll must stream the full output");
    assert_eq!(gw.status(streamed).unwrap(), RequestStatus::Finished);

    let (report, state) = gw.finish(SimDuration::from_secs(60));
    // Three live requests finished; the cancelled one never entered the
    // engine at all.
    assert_eq!(report.finished_requests, 3);
    assert_eq!(report.total_requests, 3);
    assert!(state.ledger().check_invariants("final").is_empty());
}

/// The bridge-determinism contract: gateway submissions and the batch
/// `Run` builder are two front doors to the same deterministic world.
#[test]
fn gateway_replay_is_byte_identical_to_batch_run_at_1_2_4_workers() {
    let cfg = ClusterConfig::tiny_test(2);
    let drain = SimDuration::from_secs(600);
    let horizon = SimDuration::from_secs(20);
    // A Poisson open-loop stream: arrivals are continuous, so none land
    // exactly on the 100 ms monitor grid.
    let trace = OpenLoopSource::new(Dataset::BurstGpt, 18.0, 0xB1D6E).to_trace(horizon);
    assert!(!trace.is_empty());

    let pcfg = |workers| ParallelConfig {
        num_shards: 4,
        ..ParallelConfig::with_workers(workers)
    };
    let mut fingerprints = Vec::new();
    for workers in [1, 2, 4] {
        let batch = Run::new(SystemKind::KunServe, cfg.clone(), &trace)
            .drain(drain)
            .sharded(pcfg(workers))
            .execute();

        let mut gw = Gateway::sharded(SystemKind::KunServe, cfg.clone(), pcfg(workers), Virtual);
        gw.register_tenant("replay", "k", Quota::UNLIMITED);
        for spec in &trace.requests {
            gw.submit(
                "k",
                SubmitSpec::new(
                    spec.model,
                    spec.arrival,
                    spec.input_tokens,
                    spec.output_tokens,
                ),
            )
            .unwrap();
        }
        gw.pump_until(SimTime::ZERO + horizon);
        let (report, state) = gw.finish(drain);

        let via_gateway = format!("{:?}|{:?}", report, state.metrics.reconfig_events);
        let via_batch = format!(
            "{:?}|{:?}",
            batch.report, batch.state.metrics.reconfig_events
        );
        assert_eq!(
            via_gateway, via_batch,
            "{workers} workers: gateway submissions must replay the batch run byte-for-byte"
        );
        fingerprints.push(via_gateway);
    }
    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "worker counts must agree with each other"
    );
}

/// The elastic hot-swap through the gateway: unload drains and parks the
/// chat model (its parameter bytes become lendable in the ledger), load
/// restores it — byte-identically at every worker count, with the ledger
/// invariants holding at every pump boundary.
#[test]
fn hot_swap_is_ledger_audited_and_worker_count_invariant() {
    let cfg = ClusterConfig::tiny_two_model(3, 2);
    let chat = ModelId(1);
    let pcfg = |workers| ParallelConfig {
        num_shards: 4,
        ..ParallelConfig::with_workers(workers)
    };

    let run = |workers: usize| -> String {
        let mut gw = Gateway::sharded(SystemKind::KunServe, cfg.clone(), pcfg(workers), Virtual);
        gw.register_tenant("ops", "k", Quota::UNLIMITED);
        // Light primary traffic across the whole window; chat traffic
        // only ahead of the unload, so no accepted submission targets the
        // parked model. Both streams are off the monitor grid.
        let primary =
            OpenLoopSource::new(Dataset::BurstGpt, 6.0, 7).to_trace(SimDuration::from_secs(30));
        let chat_burst = OpenLoopSource::new(Dataset::BurstGpt, 4.0, 11)
            .model(chat)
            .to_trace(SimDuration::from_secs(5));
        for spec in primary.requests.iter().chain(&chat_burst.requests) {
            gw.submit(
                "k",
                SubmitSpec::new(
                    spec.model,
                    spec.arrival,
                    spec.input_tokens,
                    spec.output_tokens,
                ),
            )
            .unwrap();
        }
        let mut swapped_out = false;
        let mut swapped_in = false;
        let mut t = SimTime::ZERO;
        while t < SimTime::from_secs(40) {
            t += SimDuration::from_millis(500);
            gw.pump_until(t);
            let audit = gw.state().ledger().check_invariants(&t.to_string());
            assert!(audit.is_empty(), "{workers} workers: {}", audit.join("\n"));
            if !swapped_out && t >= SimTime::from_secs(8) {
                gw.unload_model(chat).unwrap();
                swapped_out = true;
            }
            if swapped_out
                && !swapped_in
                && t >= SimTime::from_secs(20)
                && gw.model_availability(chat) == ModelAvailability::Unloaded
            {
                gw.load_model(chat).unwrap();
                swapped_in = true;
            }
        }
        assert!(
            swapped_out && swapped_in,
            "{workers} workers: swap must complete"
        );
        assert_eq!(gw.model_availability(chat), ModelAvailability::Available);
        let (report, state) = gw.finish(SimDuration::from_secs(300));
        assert!(state.ledger().check_invariants("final").is_empty());
        assert_eq!(state.donated_bytes_outstanding(), 0, "ledger not settled");
        let unloaded = state
            .metrics
            .reconfig_events
            .iter()
            .any(|(_, w)| w.starts_with("unload:"));
        let loaded = state
            .metrics
            .reconfig_events
            .iter()
            .any(|(_, w)| w.starts_with("load:"));
        assert!(unloaded && loaded, "the swap must be in the reconfig log");
        format!("{:?}|{:?}", report, state.metrics.reconfig_events)
    };

    let one = run(1);
    assert_eq!(one, run(2), "2 workers must match 1");
    assert_eq!(one, run(4), "4 workers must match 1");
}
