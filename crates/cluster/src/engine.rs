//! The discrete-event serving engine.
//!
//! Drives request arrivals, continuous-batching iterations (with chunked
//! prefill and pipeline execution), network transfer completions and monitor
//! ticks through one deterministic event queue. Policies are consulted at
//! the decision points described in [`crate::policy`], inline at the moment
//! they arise. The group iteration itself (admission, work collection,
//! launch, completion) is the kernel in [`crate::iteration`], shared with
//! the sharded executor; this module keeps the event loop, the policy
//! hooks around the kernel, and decode-growth reservation with its inline
//! OOM chain.

use kvcache::SeqKey;
use sim_core::{EventQueue, SimDuration, SimTime};
use workload::{RequestSpec, Trace};

use crate::batch::MicroBatch;
use crate::config::ClusterConfig;
use crate::group::GroupId;
use crate::iteration::{
    admit_fitting, collect_work, complete_iteration, decode_tokens_per_iter, launch_iteration,
    Launch,
};
use crate::policy::{OomResolution, Policy};
use crate::request::{ReqState, Request, RequestId};
use crate::state::{CancelOutcome, ClusterState};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Arrival(RequestId),
    GroupDone { group: GroupId, seq: u64 },
    MonitorTick,
    NetPoll,
}

/// The simulation engine: cluster state + policy + event queue.
pub struct Engine<P: Policy> {
    /// The cluster being simulated.
    pub state: ClusterState,
    /// The serving policy under evaluation.
    pub policy: P,
    events: EventQueue<Event>,
    now: SimTime,
    finished: usize,
    total: usize,
    /// Reused scratch buffer for group sweeps (avoids a `Vec` allocation
    /// per monitor tick / net poll).
    groups_buf: Vec<GroupId>,
    /// Reused scratch buffer for decode-growth reservation.
    decodes_buf: Vec<RequestId>,
    /// Reused position index for [`aggregate_progress`].
    progress_pos: Vec<u32>,
    /// Set while an interactive session ([`Engine::begin_session`]) is
    /// accepting injections: the monitor-tick chain stays armed through
    /// lulls and the pump never stops on `finished == total`.
    open: bool,
    /// Time past which the pump stops (batch: last arrival + drain). `None`
    /// while a session is open.
    run_stop: Option<SimTime>,
    /// Latest arrival registered so far (sets the drain anchor on close).
    last_arrival: SimTime,
    /// Cancellations deferred mid-iteration, retried at each monitor tick.
    pending_cancels: Vec<RequestId>,
}

impl<P: Policy> Engine<P> {
    /// Creates an engine over a fresh cluster.
    pub fn new(cfg: ClusterConfig, policy: P) -> Self {
        Engine {
            state: ClusterState::new(cfg),
            policy,
            events: EventQueue::new(),
            now: SimTime::ZERO,
            finished: 0,
            total: 0,
            groups_buf: Vec::new(),
            decodes_buf: Vec::new(),
            progress_pos: Vec::new(),
            open: false,
            run_stop: None,
            last_arrival: SimTime::ZERO,
            pending_cancels: Vec::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Consumes the engine, returning the final cluster state (metrics,
    /// timelines, memory layout) for post-run analysis.
    pub fn into_state(self) -> ClusterState {
        self.state
    }

    /// Runs `trace` to completion (or until `drain` past the last arrival,
    /// whichever comes first) and returns the finished-run report.
    ///
    /// The drain cap bounds runs where a policy cannot clear its backlog —
    /// the extreme-burst experiment relies on this.
    pub fn run(&mut self, trace: &Trace, drain: SimDuration) -> crate::metrics::RunReport {
        self.run_observed(trace, drain, |_, _| {})
    }

    /// Like [`Engine::run`], but invokes `observer` with the cluster state
    /// after every processed event — the hook invariant checks (HBM
    /// accounting, layer-coverage) use to inspect each simulated step.
    pub fn run_observed(
        &mut self,
        trace: &Trace,
        drain: SimDuration,
        mut observer: impl FnMut(&ClusterState, SimTime),
    ) -> crate::metrics::RunReport {
        self.total = trace.len();
        let num_models = self.state.cfg.num_models();
        for spec in &trace.requests {
            assert!(
                spec.model.0 < num_models,
                "trace references model {} but the cluster deploys {num_models}",
                spec.model
            );
            let id = RequestId(self.state.requests.len());
            self.state
                .requests
                .push(Request::new(id, *spec, GroupId(0)));
            self.events.push(spec.arrival, Event::Arrival(id));
            self.last_arrival = self.last_arrival.max(spec.arrival);
        }
        self.events.push(SimTime::ZERO, Event::MonitorTick);
        self.open = false;
        self.run_stop = Some(SimTime::ZERO + trace.duration() + drain);
        self.pump(None, &mut observer);
        self.state.metrics.report()
    }

    /// The shared event pump behind batch runs and interactive sessions:
    /// processes events up to `limit` (inclusive; unbounded when `None`),
    /// stopping at [`Engine::run_stop`] or — outside an open session — when
    /// every registered request is terminal. Batch semantics are exactly
    /// the pre-session loop: `run_observed` calls this with no limit.
    fn pump(&mut self, limit: Option<SimTime>, observer: &mut impl FnMut(&ClusterState, SimTime)) {
        while let Some(t) = self.events.peek_time() {
            if !self.open && self.finished == self.total {
                break;
            }
            if limit.is_some_and(|l| t > l) {
                break;
            }
            let (t, ev) = self.events.pop().expect("peeked above");
            // A hard assert, not a debug_assert: time running backwards
            // means event bookkeeping (e.g. a shard merge) is corrupt, and
            // that must fail loudly in release CI too — every metric
            // recorded after a regression would be silently wrong.
            assert!(
                t >= self.now,
                "event time regressed: {t} < {now} ({ev:?})",
                now = self.now
            );
            self.now = t;
            if self.run_stop.is_some_and(|hs| self.now > hs) {
                break;
            }
            match ev {
                Event::Arrival(id) => self.on_arrival(id),
                Event::GroupDone { group, seq } => self.on_group_done(group, seq),
                Event::MonitorTick => self.on_monitor_tick(),
                Event::NetPoll => {
                    self.state.net_poll_fired(t);
                    self.on_net_poll()
                }
            }
            observer(&self.state, self.now);
            if !self.open && self.finished == self.total {
                break;
            }
        }
        if let Some(l) = limit {
            self.now = self.now.max(l);
        }
    }

    // ------------------------------------------------------------------
    // Interactive sessions (the gateway's incremental step/drain API).
    // ------------------------------------------------------------------

    /// Opens an interactive session on a fresh engine: arms the monitor
    /// tick chain and accepts [`Engine::inject`] / [`Engine::step_until`]
    /// until [`Engine::end_session`]. The event order matches a batch run
    /// of the same arrivals as long as no arrival lands exactly on a
    /// monitor-tick time (continuous arrival processes make that a
    /// measure-zero event; the tick would then fire before the equal-time
    /// arrival instead of after).
    pub fn begin_session(&mut self) {
        assert!(
            !self.open && self.total == 0 && self.state.requests.is_empty(),
            "sessions must start on a fresh engine"
        );
        self.open = true;
        self.run_stop = None;
        self.events.push(SimTime::ZERO, Event::MonitorTick);
    }

    /// Registers one future request in an open session. `spec.arrival`
    /// must not precede current simulated time, and `spec.id` is kept
    /// verbatim (retry backoff keys on it, like a batch trace).
    pub fn inject(&mut self, spec: RequestSpec) -> RequestId {
        assert!(self.open, "inject requires an open session");
        assert!(
            spec.model.0 < self.state.cfg.num_models(),
            "request references model {} but the cluster deploys {}",
            spec.model,
            self.state.cfg.num_models()
        );
        assert!(
            spec.arrival >= self.now,
            "arrival {} precedes current time {}",
            spec.arrival,
            self.now
        );
        let id = RequestId(self.state.requests.len());
        self.state.requests.push(Request::new(id, spec, GroupId(0)));
        self.events.push(spec.arrival, Event::Arrival(id));
        self.total += 1;
        self.last_arrival = self.last_arrival.max(spec.arrival);
        id
    }

    /// Cancels a request on the client's behalf. Deferred outcomes (the
    /// request is mid-iteration) are retried automatically at each monitor
    /// tick; the caller may treat `Deferred` as accepted.
    pub fn cancel(&mut self, id: RequestId) -> CancelOutcome {
        let out = self.state.cancel_request(id);
        match out {
            CancelOutcome::Cancelled => self.finished += 1,
            CancelOutcome::Deferred => {
                if !self.pending_cancels.contains(&id) {
                    self.pending_cancels.push(id);
                }
            }
            CancelOutcome::AlreadyTerminal => {}
        }
        out
    }

    /// Advances an open session to `until`, processing every event at or
    /// before it; simulated time is exactly `until` afterwards.
    pub fn step_until(&mut self, until: SimTime) {
        assert!(self.open, "step_until requires an open session");
        self.pump(Some(until), &mut |_, _| {});
    }

    /// Current simulated time of an open session (alias of [`Engine::now`],
    /// named to match the sharded engine's session surface).
    pub fn session_now(&self) -> SimTime {
        assert!(self.open, "session_now requires an open session");
        self.now
    }

    /// Runs `f` against the cluster state between events of an open
    /// session — the hook elastic model load/unload operations use. The
    /// serial engine owns its state outright, so this is a plain call; the
    /// name mirrors the sharded engine, where the same operation must be
    /// fenced to a barrier.
    pub fn session_mutate(&mut self, f: impl FnOnce(&mut ClusterState, SimTime)) {
        assert!(self.open, "session_mutate requires an open session");
        f(&mut self.state, self.now);
    }

    /// Closes the session: no further injections, runs to completion (or
    /// `drain` past the last registered arrival — the same cap as a batch
    /// run) and returns the report.
    pub fn end_session(&mut self, drain: SimDuration) -> crate::metrics::RunReport {
        assert!(self.open, "end_session requires an open session");
        self.open = false;
        self.run_stop = Some(self.last_arrival + drain);
        self.pump(None, &mut |_, _| {});
        self.state.metrics.report()
    }

    fn on_arrival(&mut self, id: RequestId) {
        if self.state.requests[id.0].is_terminal() {
            return; // cancelled before its arrival event fired (session only)
        }
        let spec = self.state.requests[id.0].spec;
        self.state
            .metrics
            .on_arrival(id, spec.arrival, spec.output_tokens, spec.model);
        // Deadline-aware admission control: shed before dispatch so a
        // hopeless request never adds queue load (the default policy
        // admits everything, keeping pre-shedding runs byte-identical).
        if self.policy.should_shed(&self.state, self.now, id) {
            self.state.shed_request(id);
            self.finished += 1;
            return;
        }
        let group = self.state.dispatch(spec.model, spec.input_tokens);
        self.state.note_dispatch(id, group);
        self.state.group_mut(group).queue.push_back(id);
        self.try_start(group);
    }

    fn on_group_done(&mut self, group: GroupId, seq: u64) {
        if !self.state.group_alive(group) || self.state.group(group).iter_seq != seq {
            return; // stale event from a reconfigured group
        }
        // Metrics are recorded as the kernel emits them.
        let st = &mut self.state;
        let g = st.groups[group.0].as_mut().expect("group is alive");
        let metrics = &mut st.metrics;
        self.finished +=
            complete_iteration(g, &mut st.requests[..], self.now, |ev| metrics.record(ev));
        // The just-idled group is the window where deferred cancels of its
        // running requests can land (no-op in batch runs).
        self.retry_cancels();
        self.run_reconfigs();
        if self.state.group_alive(group) {
            self.try_start(group);
        }
        self.schedule_net_poll();
    }

    fn on_monitor_tick(&mut self) {
        let now = self.now;
        self.state.sample_memory(now);
        // The elastic-HBM safety net: params + KV + donations + reserve
        // within HBM on every device, donations reclaimed before restore.
        #[cfg(debug_assertions)]
        {
            let v = self.state.ledger().check_invariants(&now.to_string());
            assert!(v.is_empty(), "HBM ledger violated:\n{}", v.join("\n"));
        }
        self.retry_cancels();
        self.policy.on_tick(&mut self.state, now);
        self.run_reconfigs();
        self.client_sweep(now);
        self.sweep_groups();
        self.schedule_net_poll();
        let next = now + self.state.cfg.monitor_interval;
        // While a session is open the chain stays armed through lulls (the
        // batch condition `finished < total` would kill it between
        // injections); closed runs keep the exact batch condition.
        if (self.open || self.finished < self.total) && self.run_stop.is_none_or(|hs| next <= hs) {
            self.events.push(next, Event::MonitorTick);
        }
    }

    /// Retries cancellations that were deferred mid-iteration. No-op (and
    /// allocation-free) in batch runs, which never cancel.
    fn retry_cancels(&mut self) {
        if self.pending_cancels.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending_cancels);
        pending.retain(|&id| match self.state.cancel_request(id) {
            CancelOutcome::Cancelled => {
                self.finished += 1;
                false
            }
            CancelOutcome::Deferred => true,
            CancelOutcome::AlreadyTerminal => false,
        });
        self.pending_cancels = pending;
    }

    /// The closed-loop client pass (no-op without [`ClusterConfig::retry`]):
    /// aborts deadline-missed attempts into backoff, terminates exhausted
    /// requests, and re-dispatches retries whose timer expired — each
    /// re-arrival passing through the same shedding gate as a fresh one.
    fn client_sweep(&mut self, now: SimTime) {
        if self.state.cfg.retry.is_none() {
            return;
        }
        let sweep = self.state.sweep_deadlines(now);
        self.finished += sweep.abandoned.len();
        for r in sweep.due {
            if self.policy.should_shed(&self.state, now, r) {
                self.state.shed_request(r);
                self.finished += 1;
                continue;
            }
            let g = self.state.redispatch_retry(r, now, None);
            self.state.group_mut(g).queue.push_back(r);
            self.try_start(g);
        }
    }

    fn on_net_poll(&mut self) {
        let done = self.state.network.take_completions(self.now);
        for (_, job) in done {
            if let Some(event) = self.state.apply_transfer_done(job) {
                self.policy
                    .on_transfer_done(&mut self.state, self.now, &event);
            }
        }
        self.run_reconfigs();
        self.sweep_groups();
        self.schedule_net_poll();
    }

    /// Runs [`Engine::try_start`] over a snapshot of the live groups,
    /// reusing one scratch buffer across sweeps.
    fn sweep_groups(&mut self) {
        let mut groups = std::mem::take(&mut self.groups_buf);
        groups.clear();
        groups.extend(self.state.alive_group_ids());
        for &g in &groups {
            self.try_start(g);
        }
        self.groups_buf = groups;
    }

    fn run_reconfigs(&mut self) {
        if !self.state.has_pending_reconfigs() {
            return;
        }
        let created = self.state.execute_ready_reconfigs(self.now);
        for g in created {
            self.try_start(g);
        }
        self.schedule_net_poll();
    }

    fn schedule_net_poll(&mut self) {
        if let Some(at) = self.state.arm_net_poll(self.now) {
            self.events.push(at, Event::NetPoll);
        }
    }

    /// Whether `group` is alive and not frozen for a reconfiguration. A
    /// policy hook may kill or freeze the group it was called for.
    fn runnable(&self, group: GroupId) -> bool {
        self.state.group_alive(group) && !self.state.group(group).frozen
    }

    /// Starts an iteration on the group if it is idle and has work.
    pub fn try_start(&mut self, group: GroupId) {
        if !self.runnable(group) || self.state.group(group).is_busy() {
            return;
        }
        self.admit(group);
        if !self.runnable(group) {
            return;
        }
        let skipped = self.reserve_decode_growth(group);
        if !self.runnable(group) {
            return; // an OOM handler requested a reconfiguration
        }

        let work = collect_work(
            self.state.group(group),
            &self.state.requests[..],
            &self.state.cfg,
            &skipped,
        );
        if work.is_empty() {
            return;
        }
        let mbs: Vec<MicroBatch> = if self.state.group(group).stages() == 1 {
            // Single-stage groups execute the whole collection as one
            // batch; move the chunks instead of cloning them.
            vec![MicroBatch { chunks: work }]
        } else {
            self.policy.form_microbatches(&self.state, group, &work)
        };

        let overhead = self.state.take_overhead(group);
        let st = &mut self.state;
        let g = st.groups[group.0].as_mut().expect("group is alive");
        let at = Launch {
            now: self.now,
            overhead,
            rng: &mut st.rng,
            progress_pos: &mut self.progress_pos,
        };
        let network = &mut st.network;
        let finish = launch_iteration(g, mbs, &st.cfg, &st.ground_truths, at, |s, d, b, t| {
            network.interactive(t, s, d, b)
        });
        let seq = g.iter_seq;
        self.events.push(finish, Event::GroupDone { group, seq });
    }

    /// Admits queued requests while blocks allow; consults the policy once
    /// when blocked, then admits what fits after it acted.
    fn admit(&mut self, group: GroupId) {
        let admit = |st: &mut ClusterState| {
            let g = st.groups[group.0].as_mut().expect("group is alive");
            admit_fitting(g, &mut st.requests[..])
        };
        if !admit(&mut self.state) {
            return;
        }
        self.policy
            .on_admission_blocked(&mut self.state, self.now, group);
        if self.runnable(group) {
            admit(&mut self.state);
        }
    }

    /// Reserves decode slots per running in-decode request, invoking the
    /// OOM chain (policy, then vLLM-style recompute fallback) when blocks
    /// run out. Returns the requests that skip this iteration.
    fn reserve_decode_growth(&mut self, group: GroupId) -> Vec<RequestId> {
        let rounds = decode_tokens_per_iter(self.state.group(group).stages(), &self.state.cfg);
        let mut decodes = std::mem::take(&mut self.decodes_buf);
        decodes.clear();
        decodes.extend(
            self.state
                .group(group)
                .running
                .iter()
                .copied()
                .filter(|&r| self.state.requests[r.0].in_decode()),
        );
        let mut skipped = Vec::new();
        for r in decodes.drain(..) {
            if self.state.requests[r.0].state != ReqState::Running {
                continue; // preempted as an earlier victim
            }
            let want = rounds
                .min(self.state.requests[r.0].output_remaining())
                .max(1);
            let key = SeqKey(r.0 as u64);
            while self
                .state
                .group_mut(group)
                .blocks
                .append_tokens(key, want)
                .is_err()
            {
                match self
                    .policy
                    .on_decode_oom(&mut self.state, self.now, group, r)
                {
                    OomResolution::Retry => continue,
                    OomResolution::SkipIteration => {
                        skipped.push(r);
                        break;
                    }
                    OomResolution::GiveUp => {
                        // Guaranteed-progress fallback: recompute preemption.
                        match self.state.preempt_youngest(group) {
                            Some(victim) if victim != r => continue,
                            _ => break, // the request itself (or nothing) left
                        }
                    }
                }
            }
        }
        self.decodes_buf = decodes;
        skipped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::QueueingPolicy;
    use workload::{RequestSpec, Trace};

    fn small_trace(n: usize, gap_ms: u64, input: u64, output: u64) -> Trace {
        Trace::new(
            (0..n)
                .map(|i| RequestSpec {
                    id: 0,
                    model: workload::ModelId::PRIMARY,
                    arrival: SimTime::from_millis(i as u64 * gap_ms),
                    input_tokens: input,
                    output_tokens: output,
                    prefix: None,
                    deadline: None,
                })
                .collect(),
        )
    }

    #[test]
    fn single_request_completes_with_sane_latency() {
        let mut eng = Engine::new(ClusterConfig::tiny_test(1), QueueingPolicy);
        let trace = small_trace(1, 0, 256, 16);
        let report = eng.run(&trace, SimDuration::from_secs(60));
        assert_eq!(report.finished_requests, 1);
        let ttft = report.ttft.p50;
        assert!(ttft > 0.0 && ttft < 1.0, "TTFT {ttft:.3}s");
        assert_eq!(report.total_tokens, 16);
    }

    #[test]
    fn light_load_finishes_everything() {
        let mut eng = Engine::new(ClusterConfig::tiny_test(2), QueueingPolicy);
        let trace = small_trace(20, 400, 128, 12);
        let report = eng.run(&trace, SimDuration::from_secs(120));
        assert_eq!(report.finished_requests, 20);
        assert_eq!(report.total_tokens, 20 * 12);
        // Unloaded TTFT is dominated by one prefill iteration.
        assert!(report.ttft.p50 < 0.5, "p50 {}", report.ttft.p50);
    }

    #[test]
    fn decode_tpot_is_iteration_scale() {
        let mut eng = Engine::new(ClusterConfig::tiny_test(1), QueueingPolicy);
        let trace = small_trace(4, 200, 64, 50);
        let report = eng.run(&trace, SimDuration::from_secs(120));
        assert_eq!(report.finished_requests, 4);
        // TPOT should be on the order of a decode iteration (ms–tens of ms).
        assert!(
            report.tpot.p50 > 0.0005 && report.tpot.p50 < 0.2,
            "tpot {}",
            report.tpot.p50
        );
    }

    #[test]
    fn overload_causes_queuing_and_preemptions() {
        // Flood a single tiny instance: the queueing policy plus recompute
        // fallback must keep making progress, with visible TTFT tails.
        let mut eng = Engine::new(ClusterConfig::tiny_test(1), QueueingPolicy);
        let trace = small_trace(80, 5, 1024, 512);
        let report = eng.run(&trace, SimDuration::from_secs(1200));
        assert_eq!(
            report.finished_requests, 80,
            "fallback must guarantee progress"
        );
        assert!(
            report.preemptions > 0,
            "memory overload must force recompute preemptions"
        );
        assert!(
            report.ttft.p99 > 2.0 * report.ttft.p50.max(0.01),
            "overload must show tail inflation: p50 {} p99 {}",
            report.ttft.p50,
            report.ttft.p99
        );
    }

    #[test]
    fn pipeline_group_executes_with_bubbles_tracked() {
        let mut cfg = ClusterConfig::tiny_test(2);
        cfg.initial_group_size = 2; // static PP pair (vLLM-PP shape)
        let mut eng = Engine::new(cfg, QueueingPolicy);
        let trace = small_trace(12, 150, 512, 8);
        let report = eng.run(&trace, SimDuration::from_secs(300));
        assert_eq!(report.finished_requests, 12);
        assert!(
            !eng.state.metrics.bubbles.is_empty(),
            "pipelined iterations must record bubble samples"
        );
    }

    #[test]
    fn two_model_cluster_serves_both_and_isolates_dispatch() {
        let mut eng = Engine::new(ClusterConfig::tiny_two_model(2, 2), QueueingPolicy);
        let mut reqs = Vec::new();
        for i in 0..24u64 {
            reqs.push(RequestSpec {
                id: 0,
                model: workload::ModelId((i % 2) as u32),
                arrival: SimTime::from_millis(i * 150),
                input_tokens: 200,
                output_tokens: 10,
                prefix: None,
                deadline: None,
            });
        }
        let trace = Trace::new(reqs);
        let mut seen_cross_model = false;
        let report = eng.run_observed(&trace, SimDuration::from_secs(300), |state, _| {
            // Every admitted request must sit on a group of its own model.
            for g in state.alive_groups() {
                let gm = state.group(g).model;
                for r in state.group(g).admitted() {
                    if state.request(r).spec.model != gm {
                        seen_cross_model = true;
                    }
                }
            }
        });
        assert!(!seen_cross_model, "dispatch must never cross models");
        assert_eq!(report.finished_requests, 24);
        assert_eq!(report.per_model.len(), 2);
        for m in &report.per_model {
            assert_eq!(m.finished_requests, 12, "{} must finish all", m.model);
            assert!(m.ttft.p50 > 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "references model")]
    fn trace_referencing_undeployed_model_panics() {
        let mut eng = Engine::new(ClusterConfig::tiny_test(1), QueueingPolicy);
        let trace = Trace::new(vec![RequestSpec {
            id: 0,
            model: workload::ModelId(3),
            arrival: SimTime::ZERO,
            input_tokens: 10,
            output_tokens: 1,
            prefix: None,
            deadline: None,
        }]);
        eng.run(&trace, SimDuration::from_secs(10));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut eng = Engine::new(ClusterConfig::tiny_test(2), QueueingPolicy);
            let trace = small_trace(30, 50, 300, 20);
            let r = eng.run(&trace, SimDuration::from_secs(300));
            (r.finished_requests, r.ttft_samples.clone(), r.total_tokens)
        };
        assert_eq!(run(), run());
    }

    /// Arrivals off the 100 ms tick grid (sessions order the tick before
    /// an exactly-equal-time arrival; batch orders it after).
    fn offgrid_trace(n: usize) -> Trace {
        Trace::new(
            (0..n)
                .map(|i| RequestSpec {
                    id: 0,
                    model: workload::ModelId::PRIMARY,
                    arrival: SimTime::from_millis((i as u64 + 1) * 73),
                    input_tokens: 128,
                    output_tokens: 12,
                    prefix: None,
                    deadline: None,
                })
                .collect(),
        )
    }

    #[test]
    fn incremental_session_matches_batch_run_byte_for_byte() {
        let trace = offgrid_trace(20);
        let drain = SimDuration::from_secs(120);
        let mut batch = Engine::new(ClusterConfig::tiny_test(2), QueueingPolicy);
        let batch_report = batch.run(&trace, drain);

        // The same arrivals injected interval by interval.
        let mut eng = Engine::new(ClusterConfig::tiny_test(2), QueueingPolicy);
        eng.begin_session();
        let interval = eng.state.cfg.monitor_interval;
        let mut boundary = SimTime::ZERO;
        let mut cursor = 0;
        while cursor < trace.len() {
            let next = boundary + interval;
            while cursor < trace.len() && trace.requests[cursor].arrival <= next {
                eng.inject(trace.requests[cursor]);
                cursor += 1;
            }
            eng.step_until(next);
            boundary = next;
        }
        let session_report = eng.end_session(drain);
        assert_eq!(
            format!("{batch_report:?}"),
            format!("{session_report:?}"),
            "incremental injection must replay the batch run exactly"
        );
    }

    #[test]
    fn session_cancel_mid_decode_terminates_and_counts() {
        let mut eng = Engine::new(ClusterConfig::tiny_test(1), QueueingPolicy);
        eng.begin_session();
        let spec = |arr: u64| RequestSpec {
            id: 0,
            model: workload::ModelId::PRIMARY,
            arrival: SimTime::from_millis(arr),
            input_tokens: 256,
            output_tokens: 400,
            prefix: None,
            deadline: None,
        };
        let victim = eng.inject(spec(10));
        let survivor = eng.inject(spec(20));
        eng.step_until(SimTime::from_millis(250));
        assert!(
            eng.state.requests[victim.0].generated > 0,
            "mid-decode by 250ms"
        );
        // Mid-iteration cancels defer; the tick sweep settles them.
        eng.cancel(victim);
        eng.step_until(SimTime::from_millis(600));
        assert!(eng.state.requests[victim.0].is_terminal());
        let report = eng.end_session(SimDuration::from_secs(60));
        assert_eq!(report.cancelled_requests, 1);
        assert_eq!(report.finished_requests, 1, "only the survivor finishes");
        assert_eq!(
            eng.state.requests[survivor.0].state,
            ReqState::Finished,
            "cancel must not disturb the other stream"
        );
    }
}
