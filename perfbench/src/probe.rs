//! A timing [`Policy`] decorator: delegates every hook to the wrapped
//! policy and records one `core.<hook>` span per call, so policy time is
//! measured from outside the policy and the engine's share is what is left.

use cluster::{
    ClusterState, DeferredHooks, GroupId, HookPlan, MicroBatch, MicrobatchFormerSpec,
    OomResolution, Policy, RequestId, SeqChunk, SpecJob, TransferEvent,
};
use sim_core::SimTime;

use crate::spans::{timed, SharedRecorder};

/// The span names of the timed hooks; each is also the stem of its
/// `.calls` and `.ms` metrics.
pub const HOOKS: [&str; 6] = [
    "core.on_tick",
    "core.form_microbatches",
    "core.admission_blocked",
    "core.decode_oom",
    "core.should_shed",
    "core.transfer_done",
];

/// Wraps a policy; every timed hook becomes a span in `rec`.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    rec: SharedRecorder,
}

impl TimedPolicy {
    /// Decorates `inner`, recording into `rec`.
    pub fn new(inner: Box<dyn Policy>, rec: SharedRecorder) -> Self {
        TimedPolicy { inner, rec }
    }
}

fn transfer_request(event: &TransferEvent) -> Option<u64> {
    match event {
        TransferEvent::MigrationDone { request }
        | TransferEvent::SwapOutDone { request }
        | TransferEvent::SwapInDone { request } => Some(request.0 as u64),
        _ => None,
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_tick(&mut self, state: &mut ClusterState, now: SimTime) {
        timed(&self.rec, HOOKS[0], None, || self.inner.on_tick(state, now))
    }

    fn form_microbatches(
        &self,
        state: &ClusterState,
        group: GroupId,
        work: &[SeqChunk],
    ) -> Vec<MicroBatch> {
        timed(&self.rec, HOOKS[1], None, || {
            self.inner.form_microbatches(state, group, work)
        })
    }

    fn on_admission_blocked(&mut self, state: &mut ClusterState, now: SimTime, group: GroupId) {
        timed(&self.rec, HOOKS[2], None, || {
            self.inner.on_admission_blocked(state, now, group)
        })
    }

    fn on_decode_oom(
        &mut self,
        state: &mut ClusterState,
        now: SimTime,
        group: GroupId,
        request: RequestId,
    ) -> OomResolution {
        timed(&self.rec, HOOKS[3], Some(request.0 as u64), || {
            self.inner.on_decode_oom(state, now, group, request)
        })
    }

    fn should_shed(&mut self, state: &ClusterState, now: SimTime, request: RequestId) -> bool {
        timed(&self.rec, HOOKS[4], Some(request.0 as u64), || {
            self.inner.should_shed(state, now, request)
        })
    }

    fn on_transfer_done(&mut self, state: &mut ClusterState, now: SimTime, event: &TransferEvent) {
        timed(&self.rec, HOOKS[5], transfer_request(event), || {
            self.inner.on_transfer_done(state, now, event)
        })
    }

    fn microbatch_former(&self) -> MicrobatchFormerSpec {
        self.inner.microbatch_former()
    }

    fn plan_deferred(
        &mut self,
        state: &ClusterState,
        now: SimTime,
        hooks: &DeferredHooks,
    ) -> Option<SpecJob> {
        self.inner.plan_deferred(state, now, hooks)
    }

    fn commit_deferred(&mut self, state: &mut ClusterState, now: SimTime, plan: HookPlan) {
        self.inner.commit_deferred(state, now, plan)
    }
}
