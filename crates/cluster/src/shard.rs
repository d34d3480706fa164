//! The sharded parallel executor: per-group event queues advanced by a
//! work-stealing worker pool under a conservative time-sync barrier.
//!
//! # Execution model
//!
//! Each execution group slot owns a [`GroupRuntime`]: its own future-event
//! list, RNG stream, metric log and activation-link model. Since slot ids
//! are never reused, a group's runtime is fixed for its whole life.
//! Simulated time advances in *conservative windows*: during a window
//! `[B, W)` every runnable group is packaged as one **work item** (a
//! group-advance task) and processes only **group-local** events —
//! arrivals already dispatched to the group, and iteration completions —
//! mutating nothing but its own group, the requests it owns, the group's
//! RNG stream and a private metric log. All **cross-group** interactions
//! are deferred to the *barrier* at the window boundary, where the
//! coordinator holds the whole `ClusterState` exclusively and runs, in
//! order: monitor ticks (policy decisions) and network-transfer
//! completions, deferred admission-blocked / decode-OOM policy hooks,
//! reconfigurations (merge/split), and arrival dispatch for the next
//! window.
//!
//! # Work stealing
//!
//! Tasks are not pinned to workers. The coordinator pushes each task into
//! its *home lane* (`slot % num_shards`) of a [`StealDeques`]; worker `w`
//! drains lane `w % num_shards` front-to-back and, when that lane is
//! empty, steals from the backs of the other lanes. A skewed window —
//! one hot group, everything else idle — therefore keeps every worker
//! busy instead of serializing behind the hot group's home worker.
//!
//! `ParallelConfig::workers` counts the coordinator: it is worker 0 on
//! lane 0, and the pool holds `workers - 1` helper threads. A window with
//! `n` tasks wakes only `min(helpers, n - 1)` helpers — the tasks the
//! coordinator cannot cover itself — so a one-task window never touches
//! a channel. The coordinator then drains and steals like any worker and
//! waits only for the results of tasks a helper ran.
//!
//! Stealing moves only *where* a task runs, never what it computes, and
//! results are merged at the barrier in deterministic
//! `(time, home lane, slot, sequence)` order, so reports stay
//! byte-identical at any worker count. Steal counts are telemetry
//! ([`ShardedEngine::stats`]) and never feed a report.
//!
//! With two or more lanes, a window starting at barrier `B` ends no later
//! than `B + lookahead`, where the **lookahead** is the minimum simulated
//! latency of any cross-group interaction (see [`derive_lookahead`]). A
//! single lane has no peer to wait for, so its windows are uncapped. Every
//! window is additionally cut at the next scheduled global event (monitor
//! tick, earliest transfer completion). When a window has no runnable
//! group at all, the barrier jumps straight to the next global event /
//! arrival / deferred local event instead of idling through empty
//! lookahead-sized windows.
//!
//! # Determinism
//!
//! Same seed ⇒ byte-identical [`RunReport`] at any worker count. This
//! holds by construction:
//!
//! - the shard (lane) count is a pure function of the cluster
//!   configuration, *never* of the worker count;
//! - within a window, a task's work depends only on its own group state
//!   (the group, its requests, its RNG stream) — stealing merely decides
//!   *where* a task runs, not what it computes;
//! - which thread runs a task — the coordinator or a helper, home pop or
//!   steal — and how many helpers a window wakes never reach a task's
//!   inputs;
//! - at barriers, task results (metric logs, completion counts, deferred
//!   policy flags) are merged in `(time, home lane, slot, sequence)`
//!   order: a k-way merge of the per-slot logs, each already time-ordered
//!   because a task's clock never runs backwards ([`merge_slot_logs`]).
//!
//! `tests/determinism.rs` pins this with a 1/2/4-worker matrix, including
//! a skewed workload that forces steals.
//!
//! # Divergence from the serial engine
//!
//! Both executors run the same group iteration, the kernel in
//! [`crate::iteration`]: admission, work collection, launch and
//! completion. The sharded executor is still a *conservative
//! approximation* of [`crate::engine::Engine`], not a bit-equal
//! replacement. It differs in exactly three ways:
//!
//! - **Hooks deferred.** Where admission blocks, the task flags the group;
//!   where decode-growth reservation runs out of blocks, it flags the
//!   request and skips its decode this iteration. The barrier that follows
//!   runs `on_admission_blocked` and `on_decode_oom` (and the recompute
//!   fallback on `GiveUp`) serially on the coordinator; the serial engine
//!   runs them inline. Either way KunServe starts a drop round when the
//!   throttling event is observed (paper §4.1–§4.2).
//! - **Uncontended activation links.** Pipelined groups forward
//!   activations over a task-local [`LocalLinks`] model instead of sharing
//!   `netsim` links with bulk traffic.
//! - **Per-group RNG stream.** Execution-time noise comes from a stream
//!   seeded by `(seed, group id)`, not the cluster-wide RNG.
//!
//! Both executors are individually deterministic; compare like with like.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
// simlint: allow(D-MAP) — audit: every map in this module is keyed lookup
// only (see the per-site pragmas); nothing iterates one.
use std::collections::HashMap;
use std::collections::{BinaryHeap, VecDeque};
#[cfg(debug_assertions)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;

use costmodel::{CostParams, GroundTruth};
use kvcache::SeqKey;
use netsim::{LinkSpec, NodeId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sim_core::shard::StealDeques;
use sim_core::{EventQueue, SimDuration, SimTime};
use workload::Trace;

use crate::batch::MicroBatch;
use crate::config::ClusterConfig;
use crate::former::MicrobatchFormerSpec;
use crate::group::{ExecGroup, GroupId};
use crate::iteration::{
    admit_fitting, collect_work, complete_iteration, decode_tokens_per_iter, launch_iteration,
    Launch, ReqAccess,
};
use crate::metrics::{MetricEvent, RunReport};
use crate::policy::{DeferredHooks, OomResolution, Policy};
use crate::request::{ReqState, Request, RequestId};
use crate::state::{CancelOutcome, ClusterState};
use workload::RequestSpec;

/// Configuration of the sharded executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Threads advancing group tasks, counting the coordinator: the pool
    /// starts `workers - 1` helpers, and a window wakes only as many as
    /// it has tasks the coordinator cannot cover itself (1 = run every
    /// task inline on the coordinator thread). Affects wall-clock only,
    /// never results.
    pub workers: usize,
    /// Number of steal lanes (shards). `0` = auto: one lane per initial
    /// execution group, capped at 8. **Must not** be derived from
    /// `workers` — the lane count shapes results (the barrier merge
    /// order), the worker count must not.
    pub num_shards: usize,
    /// Conservative window cap. `None` = derive from the cluster
    /// configuration ([`derive_lookahead`]).
    pub lookahead: Option<SimDuration>,
    /// Must be `false`. The speculative barrier-hook path was removed;
    /// the field remains only so existing struct literals compile, and
    /// [`ShardedEngine::new`] rejects `true`.
    pub speculation: bool,
}

impl ParallelConfig {
    /// `workers` workers, auto shard count, derived lookahead.
    pub fn with_workers(workers: usize) -> Self {
        ParallelConfig {
            workers: workers.max(1),
            num_shards: 0,
            lookahead: None,
            speculation: false,
        }
    }
}

impl Default for ParallelConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ParallelConfig {
            workers,
            num_shards: 0,
            lookahead: None,
            speculation: false,
        }
    }
}

/// Derives the conservative lookahead from the cluster configuration: the
/// minimum simulated latency of any cross-group interaction.
///
/// Cross-group effects in this simulator are mediated by (a) the monitor
/// tick (policy decisions, period `monitor_interval`), (b) bulk network
/// transfers (KV migration/exchange, parameter restore), which complete at
/// chunk granularity — no earlier than one target chunk time plus the
/// fabric's base latency — and (c) reconfigurations, which themselves wait
/// for idle groups and are requested by (a). The window cap is the
/// minimum of (a) and (b); windows are *additionally* cut at the next
/// scheduled global event, so this is a ceiling, not the barrier period.
///
/// Every input is fixed once the cluster is configured, so
/// [`ShardedEngine::new`] evaluates this exactly once and caches the
/// result — the derivation never needs to run per drive, let alone per
/// window.
pub fn derive_lookahead(cfg: &ClusterConfig, target_chunk_time: SimDuration) -> SimDuration {
    let tick = cfg.monitor_interval;
    let chunk_floor = target_chunk_time + cfg.fabric.latency;
    tick.min(chunk_floor).max(SimDuration::from_micros(1000))
}

/// Events a group task processes locally within a window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LocalEvent {
    /// A dispatched request arrives at the group's queue.
    Arrival(RequestId),
    /// The group's iteration `seq` finishes.
    GroupDone { seq: u64 },
}

/// Coordinator-side (cross-group) events, processed at barriers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GlobalEvent {
    MonitorTick,
    NetPoll,
}

/// Key of one per-slot log head in the barrier merge:
/// `(time, home lane, slot, index into the slot's log)`.
type MergeKey = (SimTime, usize, usize, usize);

/// Merges one window's per-slot logs into `emit` in
/// `(time, home lane, slot, sequence)` order — the order a stable sort of
/// every entry by that key yields, without copying or sorting: each log
/// is already time-ordered (a task's clock never runs backwards), so a
/// k-way merge over the log heads suffices. `log_of(slot)` returns the
/// slot's home lane and log; `heap` is scratch, empty on entry and exit.
fn merge_slot_logs<'a, E: Copy + 'a>(
    heap: &mut BinaryHeap<Reverse<MergeKey>>,
    slots: &[usize],
    log_of: impl Fn(usize) -> (usize, &'a [(SimTime, E)]),
    mut emit: impl FnMut(E),
) {
    debug_assert!(heap.is_empty(), "merge heap is scratch");
    for &slot in slots {
        let (home, log) = log_of(slot);
        debug_assert!(
            log.windows(2).all(|w| w[0].0 <= w[1].0),
            "slot {slot}: metric log is not time-ordered"
        );
        if let Some(&(t, _)) = log.first() {
            heap.push(Reverse((t, home, slot, 0)));
        }
    }
    while let Some(mut head) = heap.peek_mut() {
        let Reverse((_, home, slot, i)) = *head;
        let (_, log) = log_of(slot);
        emit(log[i].1);
        match log.get(i + 1) {
            // Replacing the head in place sifts once instead of a
            // pop-then-push.
            Some(&(t, _)) => *head = Reverse((t, home, slot, i + 1)),
            None => {
                PeekMut::pop(head);
            }
        }
    }
}

/// Read-only context shared with every worker: configuration and the
/// fitted/ground-truth execution models, cloned once per run.
struct ReadCtx {
    cfg: ClusterConfig,
    ground_truths: Vec<GroundTruth>,
    cost_models: Vec<CostParams>,
    former: MicrobatchFormerSpec,
}

/// Uncontended intra-group activation-link model (task-local).
///
/// Pipelined groups forward activations between their own members — never
/// across groups, so these transfers are safe to simulate inside a group
/// task. Unlike [`netsim::Link`] this model does not contend with bulk
/// traffic; the serial engine remains the reference for contention
/// studies.
#[derive(Debug)]
struct LocalLinks {
    spec: LinkSpec,
    // simlint: allow(D-MAP) — audit: keyed by (src, dst) pair; entry
    // lookup only, never iterated.
    free_at: HashMap<(u32, u32), SimTime>,
}

impl LocalLinks {
    fn new(spec: LinkSpec) -> Self {
        LocalLinks {
            spec,
            // simlint: allow(D-MAP) — audit: see the field declaration.
            free_at: HashMap::new(),
        }
    }

    fn interactive(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> SimTime {
        let slot = self.free_at.entry((src.0, dst.0)).or_insert(SimTime::ZERO);
        let start = now.max(*slot);
        let end = start + self.spec.transfer_time(bytes);
        *slot = end;
        end
    }
}

/// Raw shared view over the global request table.
///
/// # Safety contract
///
/// During a parallel window, the task for group slot `s` dereferences only
/// requests whose `group` is slot `s`'s group. Exclusive ownership of
/// those requests travels *with the task* — whichever worker executes it,
/// home or stealing — and is handed over wholesale when a task is stolen.
/// This is sound because:
///
/// - a request's `group` only changes at barriers (dispatch, migration,
///   merge/split, failure recovery all run on the coordinator), and each
///   group slot is exactly one task per window;
/// - a task is popped from the steal deques by exactly one worker (the
///   lane mutex makes the pop atomic), so the ownership transfer of a
///   stolen task is exclusive — two workers can never hold the same task;
/// - at each barrier the coordinator scrubs in-flight iteration plans of
///   requests that were moved across groups, so a task never follows a
///   stale cross-group reference;
/// - the table itself (the `Vec`'s length and backing allocation) is fixed
///   for the lifetime of one window's views: views are rebuilt fresh from
///   `requests.as_mut_ptr()` at every barrier, and sessions only inject
///   (grow the `Vec`) between windows, never while one is in flight.
///
/// While a window is in flight the coordinator touches
/// `ClusterState::requests` only through the tasks it runs itself as
/// worker 0, under the same contract; it collects every helper result
/// before the barrier resumes.
///
/// Debug builds additionally *check* the contract at runtime: every
/// dereference is recorded in a shadow-ownership table
/// ([`ShadowOwners`]), and a request touched by two different slot tasks
/// within the same window panics the run (see
/// `detector_catches_cross_shard_access`).
#[derive(Clone)]
struct ReqTable {
    ptr: *mut Request,
    len: usize,
    /// Which slot task's view this is (tagged by [`ReqTable::for_slot`]).
    #[cfg(debug_assertions)]
    slot: u16,
    /// The current conservative window, bumped by the coordinator at
    /// every barrier.
    #[cfg(debug_assertions)]
    epoch: u64,
    /// The run-wide shadow-ownership table, shared by all views.
    #[cfg(debug_assertions)]
    shadow: Arc<ShadowOwners>,
}

// SAFETY: sending a `ReqTable` view to a worker thread is sound because
// each view is embedded in exactly one slot task per window, exclusive
// ownership of the slot's requests transfers wholesale with the task when
// a worker pops or steals it (the steal-deque mutex makes the hand-off
// atomic), a task dereferences only requests owned by its own group,
// group membership only changes at barriers while no window is in flight,
// and the backing `Vec`'s length and allocation are fixed while any view
// is live (views are rebuilt at every barrier; session injections grow
// the `Vec` only between windows).
unsafe impl Send for ReqTable {}

/// Debug-build shadow-ownership table: one atomic tag per request slot
/// recording which group slot's task last touched it and in which
/// conservative window. Tag layout: `(epoch + 1) << 16 | (slot + 1)`;
/// zero means "never touched". Two different slot tasks touching the same
/// request in the same window is a violated ownership contract and panics
/// — in CI this piggybacks on every debug-mode sharded test, including
/// the 1/2/4-worker byte-identity matrix and the skewed steal scenario.
#[cfg(debug_assertions)]
struct ShadowOwners {
    tags: Vec<AtomicU64>,
}

#[cfg(debug_assertions)]
impl ShadowOwners {
    fn new(len: usize) -> Self {
        ShadowOwners {
            tags: (0..len).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Request slots covered by this table (sessions grow the request
    /// vector between windows; the coordinator swaps in a larger table
    /// at the next barrier).
    fn len(&self) -> usize {
        self.tags.len()
    }

    /// Records that slot task `slot` touched request `id` during `epoch`.
    ///
    /// Relaxed ordering suffices: the tags guard no other data — they
    /// only need per-slot atomicity, and the claim CAS-loops so a
    /// concurrent conflicting claim is observed by at least one side.
    fn claim(&self, id: usize, slot: u16, epoch: u64) {
        let tag_slot = &self.tags[id];
        let tag = ((epoch + 1) << 16) | (u64::from(slot) + 1);
        let mut cur = tag_slot.load(Ordering::Relaxed);
        loop {
            let owner = cur & 0xFFFF;
            if cur >> 16 == epoch + 1 && owner != u64::from(slot) + 1 {
                panic!(
                    "cross-shard access: request {id} touched by the task for group slot \
                     {slot} but already owned by slot {}'s task in window {epoch}",
                    owner - 1
                );
            }
            match tag_slot.compare_exchange_weak(cur, tag, Ordering::Relaxed, Ordering::Relaxed) {
                Ok(_) => return,
                Err(v) => cur = v,
            }
        }
    }
}

impl ReqTable {
    /// The view embedded in slot `slot`'s task for the current window.
    fn for_slot(&self, slot: usize) -> ReqTable {
        #[cfg(not(debug_assertions))]
        {
            let _ = slot;
            self.clone()
        }
        #[cfg(debug_assertions)]
        {
            let mut t = self.clone();
            t.slot = u16::try_from(slot).expect("group slot fits in u16");
            t
        }
    }

    /// Checks that `id` is in bounds; debug builds also record the access
    /// in the shadow-ownership table.
    fn claim(&self, id: RequestId) {
        assert!(id.0 < self.len, "request id in bounds");
        #[cfg(debug_assertions)]
        self.shadow.claim(id.0, self.slot, self.epoch);
    }
}

/// Callers must uphold the [`ReqTable`] ownership contract: a slot task
/// names only requests of its own group. Within one view, `&self` /
/// `&mut self` keep references to a request from aliasing.
impl ReqAccess for ReqTable {
    fn get(&self, id: RequestId) -> &Request {
        self.claim(id);
        // SAFETY: `id` is in bounds (asserted by `claim`) and, per the
        // ownership-transfer contract, no other task touches this element
        // during the current window; this view hands out no `&mut` to it
        // while the returned reference lives.
        unsafe { &*self.ptr.add(id.0) }
    }

    fn get_mut(&mut self, id: RequestId) -> &mut Request {
        self.claim(id);
        // SAFETY: as in `get`; the exclusive borrow of this view rules out
        // any other live reference through it.
        unsafe { &mut *self.ptr.add(id.0) }
    }
}

/// Per-group-slot state that persists across windows: the work-stealing
/// executor's unit of scheduling. One runtime exists per *alive* group
/// slot; it is packaged into a [`SlotTask`] for each window in which the
/// group is runnable, and purged when the group dies (slot ids are never
/// reused).
struct GroupRuntime {
    /// The group slot this runtime advances (`GroupId(slot)`).
    slot: usize,
    /// Home steal lane (`slot % num_shards`). A merge tag and a locality
    /// preference — **not** an ownership pin: any worker may execute the
    /// task by stealing it.
    home: usize,
    queue: EventQueue<LocalEvent>,
    clock: SimTime,
    /// The group, extracted from `ClusterState` for the duration of one
    /// window and reinstalled at the barrier.
    group: Option<ExecGroup>,
    /// The group's RNG stream for execution-time noise, lazily seeded
    /// from `(seed, group id)` so sampling order inside one group is
    /// independent of every other group.
    rng: Option<SmallRng>,
    links: LocalLinks,
    /// Metric deltas recorded this window, in processing order. The
    /// buffer is drained (not dropped) at barriers, so its capacity is
    /// reused window after window.
    log: Vec<(SimTime, MetricEvent)>,
    /// Requests finished this window.
    finished: usize,
    /// Whether head-of-line admission blocked this window (deferred
    /// `Policy::on_admission_blocked`).
    blocked: bool,
    /// Decode-OOM events this window (deferred `Policy::on_decode_oom`).
    oom: Vec<RequestId>,
    /// Pending start-up overhead (VMM remap) moved in with the group.
    overhead: SimDuration,
    /// Reused position index for the kernel's progress aggregation; per
    /// runtime so concurrently running tasks never share it.
    progress_pos: Vec<u32>,
    /// Reused scratch for decode-growth reservation (the in-decode
    /// running requests, and those skipping this iteration on OOM).
    decodes: Vec<RequestId>,
    skipped: Vec<RequestId>,
}

impl GroupRuntime {
    fn new(slot: usize, num_shards: usize, fabric: LinkSpec) -> Self {
        GroupRuntime {
            slot,
            home: slot % num_shards,
            queue: EventQueue::new(),
            clock: SimTime::ZERO,
            group: None,
            rng: None,
            links: LocalLinks::new(fabric),
            log: Vec::new(),
            finished: 0,
            blocked: false,
            oom: Vec::new(),
            overhead: SimDuration::ZERO,
            progress_pos: Vec::new(),
            decodes: Vec::new(),
            skipped: Vec::new(),
        }
    }
}

/// Returns the runtime for `slot`, creating it (and growing the table) on
/// demand.
fn runtime_for(
    runtimes: &mut Vec<Option<Box<GroupRuntime>>>,
    slot: usize,
    num_shards: usize,
    fabric: LinkSpec,
) -> &mut GroupRuntime {
    if runtimes.len() <= slot {
        runtimes.resize_with(slot + 1, || None);
    }
    runtimes[slot].get_or_insert_with(|| Box::new(GroupRuntime::new(slot, num_shards, fabric)))
}

/// One window of work for one group slot: the work item workers pop (and
/// steal) from the [`StealDeques`]. Owning the task means owning the
/// group, its runtime, and — via the embedded [`ReqTable`] view — every
/// request the group holds this window.
struct SlotTask {
    rt: Box<GroupRuntime>,
    table: ReqTable,
    w_end: SimTime,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn group_rng(seed: u64, gid: GroupId) -> SmallRng {
    SmallRng::seed_from_u64(splitmix64(seed ^ splitmix64(gid.0 as u64 + 1)))
}

// ---------------------------------------------------------------------
// The in-window group-task runner.
// ---------------------------------------------------------------------

/// Advances one group through the window `[rt.clock, w_end)`: checks for a
/// startable iteration, then processes local events in time order. Pure
/// with respect to everything outside the task.
fn run_window(rt: &mut GroupRuntime, table: &mut ReqTable, ctx: &ReadCtx, w_end: SimTime) {
    // Barrier actions (arrival dispatch, unstalls, reconfigs, preemptions)
    // may have made the group startable: sweep once at window start, like
    // the serial engine does after each tick/poll.
    try_start(rt, table, ctx);
    while let Some(t) = rt.queue.peek_time() {
        if t >= w_end {
            break;
        }
        let (t, ev) = rt.queue.pop().expect("peeked");
        // Hard assert: a regression here means a task-merge / barrier
        // bookkeeping bug, and must fail loudly in release CI too.
        assert!(
            t >= rt.clock,
            "slot {}: event time regressed: {t} < {}",
            rt.slot,
            rt.clock
        );
        rt.clock = t;
        let g = rt.group.as_mut().expect("group checked out");
        match ev {
            LocalEvent::Arrival(id) => {
                // Dispatch (group choice) already happened at the barrier,
                // in the same window — so the request must belong to this
                // task's group. A mismatch is routing corruption, not
                // staleness: dropping the event would lose the request
                // silently.
                let req = table.get(id);
                if req.is_terminal() {
                    // Cancelled at a barrier between dispatch and this
                    // window processing the arrival: the event is stale.
                    continue;
                }
                assert_eq!(
                    req.group, g.id,
                    "slot {}: arrival routed to the wrong group task",
                    rt.slot
                );
                g.queue.push_back(id);
            }
            LocalEvent::GroupDone { seq } => {
                if g.iter_seq != seq {
                    continue; // superseded by a barrier-time preemption
                }
                let log = &mut rt.log;
                rt.finished += complete_iteration(g, table, t, |ev| log.push((t, ev)));
            }
        }
        try_start(rt, table, ctx);
    }
    if rt.clock < w_end {
        rt.clock = w_end;
    }
}

/// Starts an iteration on the group if it is idle and has work: the
/// kernel's steps, with the two policy hooks replaced by barrier-deferred
/// flags (see "Divergence from the serial engine").
fn try_start(rt: &mut GroupRuntime, table: &mut ReqTable, ctx: &ReadCtx) {
    let g = rt.group.as_mut().expect("group checked out");
    if g.is_busy() || g.frozen {
        return;
    }
    // Blocked admission stops for this window; requests keep queuing, as
    // in the serial engine when the policy declines to free memory.
    if admit_fitting(g, table) {
        rt.blocked = true;
    }

    // Decode-growth reservation: on OOM flag the request for the barrier
    // and skip its decode this iteration (the `SkipIteration` resolution).
    let rounds = decode_tokens_per_iter(g.stages(), &ctx.cfg);
    rt.decodes.clear();
    rt.decodes.extend(
        g.running
            .iter()
            .copied()
            .filter(|&r| table.get(r).in_decode()),
    );
    rt.skipped.clear();
    for &r in &rt.decodes {
        let req = table.get(r);
        if req.state != ReqState::Running {
            continue;
        }
        let want = rounds.min(req.output_remaining()).max(1);
        if g.blocks.append_tokens(SeqKey(r.0 as u64), want).is_err() {
            rt.oom.push(r);
            rt.skipped.push(r);
        }
    }

    let work = collect_work(g, table, &ctx.cfg, &rt.skipped);
    if work.is_empty() {
        return;
    }
    let mbs: Vec<MicroBatch> = if g.stages() == 1 {
        vec![MicroBatch { chunks: work }]
    } else {
        ctx.former.form(
            &work,
            g.stages(),
            ctx.cfg.microbatches_per_stage,
            &ctx.cost_models[g.model.0 as usize],
        )
    };
    let at = Launch {
        now: rt.clock,
        overhead: std::mem::take(&mut rt.overhead),
        rng: rt.rng.get_or_insert_with(|| group_rng(ctx.cfg.seed, g.id)),
        progress_pos: &mut rt.progress_pos,
    };
    let links = &mut rt.links;
    let finish = launch_iteration(g, mbs, &ctx.cfg, &ctx.ground_truths, at, |s, d, b, t| {
        links.interactive(t, s, d, b)
    });
    rt.queue
        .push(finish, LocalEvent::GroupDone { seq: g.iter_seq });
}

// ---------------------------------------------------------------------
// The coordinator.
// ---------------------------------------------------------------------

/// Scheduling telemetry of one [`ShardedEngine`].
/// Counters accumulate across runs on the same engine; none of them ever
/// feeds a [`RunReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Barrier windows executed (after quiescent jumps — each increment
    /// is one real pass over the window loop).
    pub windows: u64,
    /// Tasks executed by a non-home worker (work-stealing pops).
    pub steals: u64,
}

/// The helper threads of one sharded session: long-lived, parked on a
/// per-window go-channel, and joined when the session closes (or the
/// engine drops). The coordinator is worker 0 and runs window tasks
/// itself, so a pool for `workers` threads holds `workers - 1` helpers.
/// One `()` on a helper's channel means "a window's tasks are published —
/// drain your home lane, then steal".
struct WorkerPool {
    go_txs: Vec<mpsc::Sender<()>>,
    results: mpsc::Receiver<Box<GroupRuntime>>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Starts `workers - 1` helpers, helper `w` homed on lane
    /// `w % num_shards` for `w` in `1..workers`; lane 0 is the
    /// coordinator's.
    fn spawn(
        workers: usize,
        num_shards: usize,
        deques: &Arc<StealDeques<SlotTask>>,
        ctx: &Arc<ReadCtx>,
    ) -> Self {
        let (result_tx, results) = mpsc::channel::<Box<GroupRuntime>>();
        let helpers = workers.saturating_sub(1);
        let mut go_txs = Vec::with_capacity(helpers);
        let mut handles = Vec::with_capacity(helpers);
        for w in 1..workers {
            let (tx, rx) = mpsc::channel::<()>();
            go_txs.push(tx);
            let result_tx = result_tx.clone();
            let deques = Arc::clone(deques);
            let ctx = Arc::clone(ctx);
            let home = w % num_shards;
            handles.push(std::thread::spawn(move || {
                // One `()` per wake: drain the home lane, then steal from
                // the others until the window is dry. A late wake may
                // find the window already drained; it then parks again.
                while rx.recv().is_ok() {
                    while let Some((_, mut task)) = deques.pop(home) {
                        run_window(&mut task.rt, &mut task.table, &ctx, task.w_end);
                        if result_tx.send(task.rt).is_err() {
                            return;
                        }
                    }
                }
            }));
        }
        WorkerPool {
            go_txs,
            results,
            handles,
        }
    }

    /// Runs one published window of `tasks` tasks to completion and
    /// returns every runtime to `runtimes`. Wakes only the helpers the
    /// coordinator cannot cover itself (`min(helpers, tasks - 1)`), then
    /// works lane 0 as worker 0 and collects the helpers' results.
    fn run_tasks(
        &self,
        tasks: usize,
        deques: &StealDeques<SlotTask>,
        ctx: &ReadCtx,
        runtimes: &mut [Option<Box<GroupRuntime>>],
    ) {
        let wake = self.go_txs.len().min(tasks.saturating_sub(1));
        for tx in &self.go_txs[..wake] {
            tx.send(()).expect("helper alive");
        }
        let mut ran = 0;
        while let Some((_, mut task)) = deques.pop(0) {
            run_window(&mut task.rt, &mut task.table, ctx, task.w_end);
            let slot = task.rt.slot;
            runtimes[slot] = Some(task.rt);
            ran += 1;
        }
        for _ in ran..tasks {
            let rt = self.results.recv().expect("helper result");
            let slot = rt.slot;
            runtimes[slot] = Some(rt);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.go_txs.clear(); // workers exit on channel close
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// All cross-window coordinator state of one sharded run — batch or
/// incremental. A batch run ([`ShardedEngine::run`]) is a closed session
/// driven to completion in one call; an incremental session
/// ([`ShardedEngine::begin_session`]) parks this between `step_until`
/// calls with the coordinator stopped *at* a barrier — the whole
/// [`ClusterState`] reassembled, the steal deques empty, the worker pool
/// idle — which is exactly what makes `inject`, `cancel` and
/// `session_mutate` safe between steps.
struct SessionCore {
    ctx: Arc<ReadCtx>,
    deques: Arc<StealDeques<SlotTask>>,
    /// `Some` with ≥ 2 workers (the coordinator plus its helpers); `None`
    /// runs windows inline (and is the path whose results every worker
    /// count must reproduce).
    pool: Option<WorkerPool>,
    runtimes: Vec<Option<Box<GroupRuntime>>>,
    global: EventQueue<GlobalEvent>,
    /// Registered-but-undispatched requests in arrival order (the batch
    /// path pre-fills this from the trace; sessions append via `inject`).
    pending: VecDeque<RequestId>,
    finished: usize,
    total: usize,
    flags_blocked: Vec<GroupId>,
    flags_oom: Vec<(GroupId, RequestId)>,
    /// The current barrier time.
    b: SimTime,
    /// The window's runnable group slots, reused across windows.
    to_run: Vec<usize>,
    /// The k-way merge heap over per-slot logs, reused across windows.
    merge_heap: BinaryHeap<Reverse<MergeKey>>,
    /// Whether any barrier action since the last plan scrub may have
    /// moved requests across groups (ticks, hooks, transfers, reconfigs,
    /// cancels, session mutations). Windows themselves never move
    /// requests, so quiet barriers skip the scrub entirely.
    dirty: bool,
    /// Whether the session still accepts injections (`false` for batch
    /// runs and after `end_session`).
    open: bool,
    /// The drain stop (`last arrival + drain`), set once the session
    /// closes; `None` while injections may still arrive.
    run_stop: Option<SimTime>,
    last_arrival: SimTime,
    /// Client cancels deferred because the target was mid-iteration;
    /// retried at every barrier.
    pending_cancels: Vec<RequestId>,
    /// Debug builds: the shadow-ownership table behind the race
    /// detector, re-sized at barriers when injections grew the request
    /// vector.
    #[cfg(debug_assertions)]
    shadow: Arc<ShadowOwners>,
    #[cfg(debug_assertions)]
    epoch: u64,
}

/// The sharded simulation engine: cluster state + policy + a conservative
/// window loop over per-group work items.
pub struct ShardedEngine<P: Policy> {
    /// The cluster being simulated.
    pub state: ClusterState,
    /// The serving policy under evaluation (invoked at barriers only).
    pub policy: P,
    pcfg: ParallelConfig,
    /// Resolved shard (steal-lane) count — a pure function of the cluster
    /// configuration, computed once at construction.
    num_shards: usize,
    /// Resolved conservative lookahead — likewise a pure function of the
    /// configuration; [`derive_lookahead`] runs exactly once, here. Caps
    /// every window when `num_shards > 1`.
    lookahead: SimDuration,
    stats: ShardStats,
    /// The open incremental session, if any (batch runs open and close
    /// one internally).
    session: Option<SessionCore>,
}

impl<P: Policy> ShardedEngine<P> {
    /// Creates a sharded engine over a fresh cluster.
    ///
    /// The shard count and the conservative lookahead are resolved here,
    /// once: both are pure functions of the cluster configuration (the
    /// initial group layout, the monitor interval, the fabric's chunk
    /// timing), none of which changes after construction.
    ///
    /// # Panics
    ///
    /// Panics if `pcfg.speculation` is set: speculative barrier hooks
    /// were removed, and silently ignoring the flag would mislabel a run.
    pub fn new(cfg: ClusterConfig, policy: P, pcfg: ParallelConfig) -> Self {
        assert!(
            !pcfg.speculation,
            "ParallelConfig::speculation was removed: barrier hooks always run serially"
        );
        let state = ClusterState::new(cfg);
        let num_shards = if pcfg.num_shards > 0 {
            pcfg.num_shards
        } else {
            state.alive_group_ids().count().clamp(1, 8)
        };
        let lookahead = pcfg
            .lookahead
            .unwrap_or_else(|| derive_lookahead(&state.cfg, state.network.target_chunk_time()));
        ShardedEngine {
            state,
            policy,
            pcfg,
            num_shards,
            lookahead,
            stats: ShardStats::default(),
            session: None,
        }
    }

    /// The resolved shard (steal-lane) count (auto mode: one lane per
    /// initial group, capped at 8 — a pure function of the configuration).
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The resolved conservative lookahead.
    pub fn lookahead(&self) -> SimDuration {
        self.lookahead
    }

    /// Scheduling telemetry (window and steal counters). Never part of a
    /// [`RunReport`].
    pub fn stats(&self) -> ShardStats {
        self.stats
    }

    /// Consumes the engine, returning the final cluster state.
    pub fn into_state(self) -> ClusterState {
        self.state
    }

    /// The read-only context every task of a session shares.
    fn read_ctx(&self) -> ReadCtx {
        ReadCtx {
            cfg: self.state.cfg.clone(),
            ground_truths: self.state.ground_truths.clone(),
            cost_models: self.state.cost_models.clone(),
            former: self.policy.microbatch_former(),
        }
    }

    /// Runs `trace` to completion (or until `drain` past the last
    /// arrival), advancing group tasks on `workers` threads.
    pub fn run(&mut self, trace: &Trace, drain: SimDuration) -> RunReport {
        self.run_observed(trace, drain, |_, _| {})
    }

    /// Like [`ShardedEngine::run`], but invokes `observer` with the fully
    /// reassembled cluster state at every barrier (not every event — a
    /// globally consistent state only exists at barriers).
    pub fn run_observed(
        &mut self,
        trace: &Trace,
        drain: SimDuration,
        mut observer: impl FnMut(&ClusterState, SimTime),
    ) -> RunReport {
        self.begin_session();
        for spec in &trace.requests {
            self.inject(*spec);
        }
        let mut s = self.session.take().expect("session just opened");
        s.open = false;
        s.run_stop = Some(SimTime::ZERO + trace.duration() + drain);
        self.advance(&mut s, None, &mut observer);
        self.close_session(s)
    }

    /// Opens an incremental session on a fresh engine: requests arrive via
    /// [`ShardedEngine::inject`] and simulated time advances on demand via
    /// [`ShardedEngine::step_until`], until [`ShardedEngine::end_session`]
    /// drains and reports.
    ///
    /// Between steps the coordinator is parked at a barrier with the whole
    /// [`ClusterState`] reassembled; the worker pool (with ≥ 2 workers)
    /// stays up across steps. Feeding the same arrivals at the same times
    /// yields a report byte-identical to the batch [`ShardedEngine::run`]
    /// over the equivalent trace, at any worker count — the session only
    /// changes *when* the coordinator pauses, never the window structure.
    pub fn begin_session(&mut self) {
        assert!(self.session.is_none(), "a session is already open");
        assert!(
            self.state.requests.is_empty(),
            "sessions require a fresh engine"
        );
        let ctx = Arc::new(self.read_ctx());
        let deques: Arc<StealDeques<SlotTask>> = Arc::new(StealDeques::new(self.num_shards));
        let workers = self.pcfg.workers.max(1);
        let pool =
            (workers > 1).then(|| WorkerPool::spawn(workers, self.num_shards, &deques, &ctx));
        let mut global = EventQueue::new();
        global.push(SimTime::ZERO, GlobalEvent::MonitorTick);
        self.session = Some(SessionCore {
            ctx,
            deques,
            pool,
            runtimes: Vec::new(),
            global,
            pending: VecDeque::new(),
            finished: 0,
            total: 0,
            flags_blocked: Vec::new(),
            flags_oom: Vec::new(),
            b: SimTime::ZERO,
            to_run: Vec::new(),
            merge_heap: BinaryHeap::new(),
            dirty: true,
            open: true,
            run_stop: None,
            last_arrival: SimTime::ZERO,
            pending_cancels: Vec::new(),
            #[cfg(debug_assertions)]
            shadow: Arc::new(ShadowOwners::new(0)),
            #[cfg(debug_assertions)]
            epoch: 0,
        });
    }

    /// Registers one request with the open session. The spec (including
    /// its client-assigned `id`, which keys retry backoff) is kept
    /// verbatim; the returned [`RequestId`] is the engine-side handle.
    ///
    /// Arrivals must be non-decreasing and must not predate the current
    /// barrier — the session cannot rewrite simulated history.
    pub fn inject(&mut self, spec: RequestSpec) -> RequestId {
        let num_models = self.state.cfg.num_models();
        assert!(
            spec.model.0 < num_models,
            "trace references model {} but the cluster deploys {num_models}",
            spec.model
        );
        let s = self
            .session
            .as_mut()
            .expect("inject requires an open session");
        assert!(s.open, "inject after end_session");
        assert!(
            spec.arrival >= s.b,
            "injected arrival {} predates the current barrier {}",
            spec.arrival,
            s.b
        );
        if let Some(&last) = s.pending.back() {
            assert!(
                spec.arrival >= self.state.requests[last.0].spec.arrival,
                "injected arrivals must be non-decreasing"
            );
        }
        let id = RequestId(self.state.requests.len());
        self.state.requests.push(Request::new(id, spec, GroupId(0)));
        s.pending.push_back(id);
        s.total += 1;
        s.last_arrival = s.last_arrival.max(spec.arrival);
        id
    }

    /// Cancels a request from the client side. Mirrors the serial
    /// engine: requests mid-iteration (or on a frozen group) are
    /// [`CancelOutcome::Deferred`] and retried at every barrier until the
    /// group goes idle, so an in-flight window's plan is never mutated.
    pub fn cancel(&mut self, id: RequestId) -> CancelOutcome {
        let s = self
            .session
            .as_mut()
            .expect("cancel requires an open session");
        assert!(s.open, "cancel after end_session");
        let outcome = self.state.cancel_request_at_barrier(id);
        match outcome {
            CancelOutcome::Cancelled => {
                s.finished += 1;
                s.dirty = true;
            }
            CancelOutcome::Deferred => {
                if !s.pending_cancels.contains(&id) {
                    s.pending_cancels.push(id);
                }
            }
            CancelOutcome::AlreadyTerminal => {}
        }
        outcome
    }

    /// Advances the session through every window starting at or before
    /// `until`, then parks at the next barrier.
    pub fn step_until(&mut self, until: SimTime) {
        let mut s = self
            .session
            .take()
            .expect("step_until requires an open session");
        assert!(s.open, "step_until after end_session");
        self.advance(&mut s, Some(until), &mut |_, _| {});
        self.session = Some(s);
    }

    /// The current barrier time of the open session (the session's notion
    /// of "now"; injected arrivals must not predate it).
    pub fn session_now(&self) -> SimTime {
        self.session
            .as_ref()
            .expect("session_now requires an open session")
            .b
    }

    /// Runs `f` against the parked cluster state at the current barrier —
    /// the hook through which a gateway drives barrier-safe control
    /// operations (elastic model unload/load, deadline sweeps) without
    /// the engine hard-coding them.
    pub fn session_mutate(&mut self, f: impl FnOnce(&mut ClusterState, SimTime)) {
        let s = self
            .session
            .as_mut()
            .expect("session_mutate requires an open session");
        assert!(s.open, "session_mutate after end_session");
        f(&mut self.state, s.b);
        s.dirty = true;
    }

    /// Closes the session: no further injections, run the remaining
    /// events plus `drain` past the last arrival, and report. Equivalent
    /// to the batch run's drain stop.
    pub fn end_session(&mut self, drain: SimDuration) -> RunReport {
        let mut s = self
            .session
            .take()
            .expect("end_session requires an open session");
        assert!(s.open, "end_session called twice");
        s.open = false;
        s.run_stop = Some(s.last_arrival + drain);
        self.advance(&mut s, None, &mut |_, _| {});
        self.close_session(s)
    }

    /// Session epilogue shared by batch runs and `end_session`: fold
    /// telemetry into [`ShardStats`], join the worker pool, report.
    fn close_session(&mut self, s: SessionCore) -> RunReport {
        self.stats.steals += s.deques.steals();
        drop(s); // joins the worker pool
        self.state.metrics.report()
    }

    /// The barrier/window loop: advances the session until its drain
    /// stop, quiescence (closed sessions only), or past `limit`.
    ///
    /// Every window *starting* at or before `limit` runs in full (so
    /// global events at exactly `limit` are processed, matching the
    /// serial engine's `step_until`). Pausing leaves the coordinator
    /// parked at a barrier — re-entering re-runs that barrier's
    /// (idempotent) bookkeeping and picks the windows back up, with the
    /// identical window structure an uninterrupted run produces.
    fn advance(
        &mut self,
        s: &mut SessionCore,
        limit: Option<SimTime>,
        observer: &mut impl FnMut(&ClusterState, SimTime),
    ) {
        let num_shards = self.num_shards;
        let fabric = self.state.cfg.fabric;

        loop {
            if s.run_stop.is_some_and(|hs| s.b > hs) {
                break;
            }
            let b = s.b;

            // --- Barrier phase (exclusive &mut ClusterState). ---

            // 1. Global events due now.
            while let Some(t) = s.global.peek_time() {
                if t > b {
                    break;
                }
                let (t, ev) = s.global.pop().expect("peeked");
                match ev {
                    GlobalEvent::MonitorTick => {
                        s.dirty = true; // the policy may move requests
                        self.state.sample_memory(t);
                        self.policy.on_tick(&mut self.state, t);
                        // Closed-loop client pass (no-op without
                        // `cfg.retry`): ticks land on window boundaries, so
                        // every group is in its slot and idle-checkable,
                        // and re-arrivals enqueue like fresh dispatches —
                        // a local event on the target group's runtime.
                        if self.state.cfg.retry.is_some() {
                            let sweep = self.state.sweep_deadlines(t);
                            s.finished += sweep.abandoned.len();
                            for r in sweep.due {
                                if self.policy.should_shed(&self.state, t, r) {
                                    self.state.shed_request(r);
                                    s.finished += 1;
                                    continue;
                                }
                                let g = self.state.redispatch_retry(r, t, None);
                                runtime_for(&mut s.runtimes, g.0, num_shards, fabric)
                                    .queue
                                    .push(t, LocalEvent::Arrival(r));
                            }
                        }
                        let next = t + self.state.cfg.monitor_interval;
                        if (s.open || s.finished < s.total)
                            && s.run_stop.is_none_or(|hs| next <= hs)
                        {
                            s.global.push(next, GlobalEvent::MonitorTick);
                        }
                    }
                    GlobalEvent::NetPoll => {
                        self.state.net_poll_fired(t);
                        let done = self.state.network.take_completions(t);
                        if !done.is_empty() {
                            s.dirty = true;
                        }
                        for (_, job) in done {
                            if let Some(event) = self.state.apply_transfer_done(job) {
                                self.policy.on_transfer_done(&mut self.state, t, &event);
                            }
                        }
                    }
                }
            }

            // 1b. Deferred client cancels: the state is fully reassembled
            //     here, so every target's group is idle-checkable — the
            //     same conservatism as the deadline sweep. No-op for
            //     batch runs (nothing ever queues one).
            if !s.pending_cancels.is_empty() {
                let cancels = std::mem::take(&mut s.pending_cancels);
                for r in cancels {
                    match self.state.cancel_request_at_barrier(r) {
                        CancelOutcome::Cancelled => {
                            s.finished += 1;
                            s.dirty = true;
                        }
                        CancelOutcome::Deferred => s.pending_cancels.push(r),
                        CancelOutcome::AlreadyTerminal => {}
                    }
                }
            }

            // 2. The deferred policy hooks from the last window.
            s.flags_blocked.sort();
            s.flags_blocked.dedup();
            s.flags_oom.sort();
            s.flags_oom.dedup();
            if !s.flags_blocked.is_empty() || !s.flags_oom.is_empty() {
                let hooks = DeferredHooks {
                    blocked: std::mem::take(&mut s.flags_blocked),
                    oom: std::mem::take(&mut s.flags_oom),
                };
                s.dirty = true;
                self.run_hooks_serial(b, &hooks);
            }

            // 3. Reconfigurations whose groups went idle.
            if self.state.has_pending_reconfigs() {
                let created = self.state.execute_ready_reconfigs(b);
                if !created.is_empty() {
                    s.dirty = true;
                }
            }

            // 4. Purge runtimes of dead groups (their queued events are
            //    stale by definition) and scrub in-flight iteration plans
            //    of requests that moved across groups in steps 1–3 — the
            //    invariant that makes task-side request access race-free.
            //    Quiet barriers (no tick, no hook, no transfer, no
            //    reconfig) skip both: windows never move requests.
            if s.dirty {
                for (slot, rt) in s.runtimes.iter_mut().enumerate() {
                    if rt.is_some() && !self.state.group_alive(GroupId(slot)) {
                        *rt = None;
                    }
                }
                let alive: Vec<GroupId> = self.state.alive_groups();
                for g in alive {
                    let mut plan = self.state.group_mut(g).current_iter.take();
                    if let Some(plan) = plan.as_mut() {
                        plan.work
                            .retain(|&(r, _)| self.state.requests[r.0].group == g);
                    }
                    self.state.group_mut(g).current_iter = plan;
                }
                s.dirty = false;
            }

            // 4b. The elastic-HBM safety net, checked while the state is
            //     fully reassembled (groups all in their slots).
            #[cfg(debug_assertions)]
            {
                let v = self.state.ledger().check_invariants(&b.to_string());
                assert!(
                    v.is_empty(),
                    "HBM ledger violated at barrier:\n{}",
                    v.join("\n")
                );
            }

            // 5. Re-arm the transfer-completion poll (deduped).
            if let Some(at) = self.state.arm_net_poll(b) {
                s.global.push(at, GlobalEvent::NetPoll);
            }

            if !s.open && s.finished >= s.total {
                break;
            }

            // 6. Window horizon: `lookahead` past the barrier when other
            //    lanes exist (a single lane has no peer to wait for),
            //    additionally cut at the next global event and never past
            //    the drain stop.
            let mut w_end = if num_shards > 1 {
                b.saturating_add(self.lookahead)
            } else {
                SimTime::MAX
            };
            if let Some(t) = s.global.peek_time() {
                w_end = w_end.min(t);
            }
            if let Some(hs) = s.run_stop {
                w_end = w_end.min(hs + SimDuration::from_micros(1));
            }
            if w_end <= b {
                w_end = b + SimDuration::from_micros(1);
            }
            // Pause before opening a window that would cross `limit`: the
            // session parks exactly at this barrier, and resuming later
            // reproduces the identical window structure an uninterrupted
            // run yields — the invariant that keeps session-fed runs
            // byte-identical to batch trace replays.
            if limit.is_some_and(|l| w_end > l) {
                break;
            }

            // 7. Dispatch arrivals landing in this window (load-balanced
            //    against barrier-time loads plus this batch).
            // simlint: allow(D-MAP) — audit: pending-load accumulator,
            // keyed lookup by group inside dispatch; never iterated.
            let mut extra: HashMap<GroupId, u64> = HashMap::new();
            while let Some(&id) = s.pending.front() {
                let spec_req = self.state.requests[id.0].spec;
                if spec_req.arrival >= w_end {
                    break;
                }
                s.pending.pop_front();
                self.state.metrics.on_arrival(
                    id,
                    spec_req.arrival,
                    spec_req.output_tokens,
                    spec_req.model,
                );
                // Cancelled between injection and dispatch: the cancel
                // already counted it; the arrival is only bookkept.
                if self.state.requests[id.0].is_terminal() {
                    continue;
                }
                // Deadline-aware admission control (same gate as the
                // serial engine's arrival path; the default admits all).
                if self.policy.should_shed(&self.state, b, id) {
                    self.state.shed_request(id);
                    s.finished += 1;
                    continue;
                }
                let group = self.state.dispatch_with_pending(
                    spec_req.model,
                    spec_req.input_tokens,
                    Some(&extra),
                );
                self.state.note_dispatch(id, group);
                *extra.entry(group).or_insert(0) += spec_req.input_tokens;
                runtime_for(&mut s.runtimes, group.0, num_shards, fabric)
                    .queue
                    .push(spec_req.arrival, LocalEvent::Arrival(id));
            }

            observer(&self.state, b);

            // 8. Nothing left anywhere: stop early (mirrors the serial
            //    engine running out of events). Open sessions never take
            //    this exit — the next injection may land at any future
            //    barrier (and their tick chain stays armed regardless).
            let tasks_idle = s.runtimes.iter().flatten().all(|rt| rt.queue.is_empty());
            if !s.open
                && s.global.is_empty()
                && s.pending.is_empty()
                && tasks_idle
                && !self.any_startable()
            {
                break;
            }

            // --- Parallel phase. ---

            // Select runnable group slots: pending local events this
            // window or a startable group. Each becomes one work item.
            let slots = self.state.group_slots().max(s.runtimes.len());
            s.to_run.clear();
            for slot in 0..slots {
                let gid = GroupId(slot);
                if !self.state.group_alive(gid) {
                    continue;
                }
                let has_events = s
                    .runtimes
                    .get(slot)
                    .and_then(|o| o.as_ref())
                    .and_then(|rt| rt.queue.peek_time())
                    .is_some_and(|t| t < w_end);
                if has_events || self.slot_startable(gid) {
                    runtime_for(&mut s.runtimes, slot, num_shards, fabric);
                    s.to_run.push(slot);
                }
            }

            // Quiescent jump: with no runnable group at all, nothing can
            // happen before the next global event, the next arrival, or
            // the earliest deferred local event — skip the empty
            // lookahead-sized windows and move the barrier straight
            // there.
            if s.to_run.is_empty() {
                let mut jump = s
                    .run_stop
                    .map_or(SimTime::MAX, |hs| hs + SimDuration::from_micros(1));
                if let Some(t) = s.global.peek_time() {
                    jump = jump.min(t);
                }
                if let Some(&id) = s.pending.front() {
                    jump = jump.min(self.state.requests[id.0].spec.arrival);
                }
                for rt in s.runtimes.iter().flatten() {
                    if let Some(t) = rt.queue.peek_time() {
                        jump = jump.min(t);
                    }
                }
                if jump > w_end {
                    w_end = jump;
                }
                // An idle open session jumps at most to `limit`: the next
                // global event may lie beyond it, and the caller may
                // still inject arrivals before then.
                if limit.is_some_and(|l| w_end > l) {
                    break;
                }
            }

            if !s.to_run.is_empty() {
                // Check the groups (and their pending overheads) out of
                // the cluster state, into their runtimes.
                for &slot in &s.to_run {
                    let gid = GroupId(slot);
                    let rt = s.runtimes[slot].as_mut().expect("runtime ensured");
                    rt.clock = b.max(rt.clock);
                    rt.overhead += self.state.take_overhead(gid);
                    rt.group = Some(self.state.take_group(gid));
                }

                // Debug builds: re-size the shadow-ownership table when
                // session injections grew the request vector (a fresh
                // zeroed table is correct — epochs only ever grow).
                #[cfg(debug_assertions)]
                if s.shadow.len() < self.state.requests.len() {
                    s.shadow = Arc::new(ShadowOwners::new(self.state.requests.len()));
                }

                let table = ReqTable {
                    ptr: self.state.requests.as_mut_ptr(),
                    len: self.state.requests.len(),
                    #[cfg(debug_assertions)]
                    slot: u16::MAX, // base view; real views come from `for_slot`
                    #[cfg(debug_assertions)]
                    epoch: s.epoch,
                    #[cfg(debug_assertions)]
                    shadow: Arc::clone(&s.shadow),
                };
                // Publish the window's work items to their home lanes in
                // slot order, then let the workers race over them.
                for &slot in &s.to_run {
                    let rt = s.runtimes[slot].take().expect("runtime ensured");
                    let lane = rt.home;
                    s.deques.push(
                        lane,
                        SlotTask {
                            table: table.for_slot(slot),
                            w_end,
                            rt,
                        },
                    );
                }
                match &s.pool {
                    None => {
                        // Inline path: drain in deterministic lane order —
                        // by construction it never counts a steal.
                        for mut task in s.deques.drain_in_order() {
                            run_window(&mut task.rt, &mut task.table, &s.ctx, task.w_end);
                            let slot = task.rt.slot;
                            s.runtimes[slot] = Some(task.rt);
                        }
                    }
                    Some(pool) => {
                        pool.run_tasks(s.to_run.len(), &s.deques, &s.ctx, &mut s.runtimes)
                    }
                }

                // --- Merge (deterministic: `(time, home lane, slot,
                //     sequence)` order, independent of who ran what). ---
                for &slot in &s.to_run {
                    let rt = s.runtimes[slot].as_mut().expect("present");
                    self.state
                        .put_group(rt.group.take().expect("group checked out"));
                    s.finished += rt.finished;
                    rt.finished = 0;
                    if rt.blocked {
                        rt.blocked = false;
                        s.flags_blocked.push(GroupId(slot));
                    }
                    s.flags_oom
                        .extend(rt.oom.drain(..).map(|r| (GroupId(slot), r)));
                }
                let runtimes = &s.runtimes;
                let metrics = &mut self.state.metrics;
                merge_slot_logs(
                    &mut s.merge_heap,
                    &s.to_run,
                    |slot| {
                        let rt = runtimes[slot].as_deref().expect("present");
                        (rt.home, rt.log.as_slice())
                    },
                    |ev| metrics.record(ev),
                );
                for &slot in &s.to_run {
                    s.runtimes[slot].as_mut().expect("present").log.clear();
                }
            }

            // Idle runtimes observe the barrier passing. A runtime that
            // ran this window already stands at or past `w_end`, so the
            // update is a no-op for it and needs no membership test.
            for rt in s.runtimes.iter_mut().flatten() {
                rt.clock = rt.clock.max(w_end);
            }

            // New window ⇒ new detector epoch: ownership may legitimately
            // move across tasks between windows, never within one.
            #[cfg(debug_assertions)]
            {
                s.epoch += 1;
            }
            self.stats.windows += 1;
            s.b = w_end;
        }
    }

    /// The serial barrier arms for one window's deferred hooks.
    fn run_hooks_serial(&mut self, now: SimTime, hooks: &DeferredHooks) {
        for &g in &hooks.blocked {
            if self.state.group_alive(g) && !self.state.group(g).frozen {
                self.policy.on_admission_blocked(&mut self.state, now, g);
            }
        }
        for &(g, r) in &hooks.oom {
            if !self.state.group_alive(g) {
                continue;
            }
            let req = &self.state.requests[r.0];
            if req.state != ReqState::Running || req.group != g {
                continue;
            }
            match self.policy.on_decode_oom(&mut self.state, now, g, r) {
                OomResolution::Retry | OomResolution::SkipIteration => {}
                OomResolution::GiveUp => {
                    // Guaranteed-progress fallback (recompute
                    // preemption), applied at the barrier.
                    if self.state.group_alive(g) {
                        self.state.preempt_youngest(g);
                    }
                }
            }
        }
    }

    /// Whether any alive group could start an iteration at the next sweep.
    fn any_startable(&self) -> bool {
        self.state.alive_group_ids().any(|g| self.slot_startable(g))
    }

    /// Whether group `g` could start an iteration at the next sweep.
    fn slot_startable(&self, g: GroupId) -> bool {
        let gr = self.state.group(g);
        !gr.is_busy() && !gr.frozen && (!gr.queue.is_empty() || !gr.running.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::QueueingPolicy;
    use sim_core::SimTime;
    use workload::{ModelId, RequestSpec};

    fn small_trace(n: usize, gap_ms: u64, input: u64, output: u64) -> Trace {
        Trace::new(
            (0..n)
                .map(|i| RequestSpec {
                    id: 0,
                    model: ModelId::PRIMARY,
                    arrival: SimTime::from_millis(i as u64 * gap_ms),
                    input_tokens: input,
                    output_tokens: output,
                    prefix: None,
                    deadline: None,
                })
                .collect(),
        )
    }

    fn pcfg(workers: usize) -> ParallelConfig {
        ParallelConfig {
            num_shards: 4,
            ..ParallelConfig::with_workers(workers)
        }
    }

    #[test]
    fn sharded_single_request_completes() {
        let mut eng = ShardedEngine::new(ClusterConfig::tiny_test(1), QueueingPolicy, pcfg(1));
        let trace = small_trace(1, 0, 256, 16);
        let report = eng.run(&trace, SimDuration::from_secs(60));
        assert_eq!(report.finished_requests, 1);
        assert_eq!(report.total_tokens, 16);
        assert!(report.ttft.p50 > 0.0 && report.ttft.p50 < 1.0);
    }

    #[test]
    fn sharded_light_load_finishes_everything() {
        let mut eng = ShardedEngine::new(ClusterConfig::tiny_test(2), QueueingPolicy, pcfg(2));
        let trace = small_trace(20, 400, 128, 12);
        let report = eng.run(&trace, SimDuration::from_secs(120));
        assert_eq!(report.finished_requests, 20);
        assert_eq!(report.total_tokens, 20 * 12);
    }

    #[test]
    fn sharded_overload_preserves_progress() {
        // Decode OOMs are deferred to barriers; the recompute fallback
        // there must still guarantee progress through a heavy overload.
        let mut eng = ShardedEngine::new(ClusterConfig::tiny_test(1), QueueingPolicy, pcfg(2));
        let trace = small_trace(80, 5, 1024, 512);
        let report = eng.run(&trace, SimDuration::from_secs(1200));
        assert_eq!(report.finished_requests, 80, "fallback must make progress");
        assert!(report.preemptions > 0, "overload must force preemptions");
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let run = |workers: usize| {
            let mut eng =
                ShardedEngine::new(ClusterConfig::tiny_test(4), QueueingPolicy, pcfg(workers));
            let trace = small_trace(40, 40, 300, 20);
            let r = eng.run(&trace, SimDuration::from_secs(300));
            format!("{r:?}")
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
    }

    /// With 2 workers over 4 lanes, lanes 2 and 3 have no homed worker:
    /// every task on them is structurally guaranteed to be executed via
    /// a steal, independent of thread timing.
    #[test]
    fn work_stealing_reports_steals_with_unhomed_lanes() {
        let mut eng = ShardedEngine::new(ClusterConfig::tiny_test(4), QueueingPolicy, pcfg(2));
        let trace = small_trace(40, 40, 300, 20);
        let report = eng.run(&trace, SimDuration::from_secs(300));
        assert_eq!(report.finished_requests, 40);
        assert!(
            eng.stats().steals > 0,
            "lanes without a homed worker force steals"
        );
    }

    #[test]
    fn single_worker_never_steals() {
        let mut eng = ShardedEngine::new(ClusterConfig::tiny_test(4), QueueingPolicy, pcfg(1));
        let trace = small_trace(40, 40, 300, 20);
        eng.run(&trace, SimDuration::from_secs(300));
        assert_eq!(eng.stats().steals, 0, "the inline path drains in order");
    }

    #[test]
    #[should_panic(expected = "ParallelConfig::speculation was removed")]
    fn speculation_flag_is_rejected() {
        ShardedEngine::new(
            ClusterConfig::tiny_test(1),
            QueueingPolicy,
            ParallelConfig {
                speculation: true,
                ..pcfg(1)
            },
        );
    }

    #[test]
    fn shard_count_is_config_driven_not_worker_driven() {
        let mk = |workers| {
            ShardedEngine::new(
                ClusterConfig::tiny_test(4),
                QueueingPolicy,
                ParallelConfig::with_workers(workers),
            )
        };
        assert_eq!(mk(1).num_shards(), mk(16).num_shards());
    }

    #[test]
    fn lookahead_derivation_bounded_by_monitor_interval() {
        let cfg = ClusterConfig::tiny_test(2);
        let la = derive_lookahead(&cfg, SimDuration::from_millis(50));
        assert!(la <= cfg.monitor_interval);
        assert!(la >= SimDuration::from_micros(1000));
    }

    /// A deliberately seeded ownership violation: two different slot-task
    /// views touch the same request in the same window. The shadow table
    /// must catch it (debug builds only — release builds compile the
    /// detector out entirely).
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "cross-shard access")]
    fn detector_catches_cross_shard_access() {
        let spec = RequestSpec {
            id: 0,
            model: ModelId::PRIMARY,
            arrival: SimTime::ZERO,
            input_tokens: 8,
            output_tokens: 1,
            prefix: None,
            deadline: None,
        };
        let mut reqs = vec![Request::new(RequestId(0), spec, GroupId(0))];
        let base = ReqTable {
            ptr: reqs.as_mut_ptr(),
            len: reqs.len(),
            slot: u16::MAX,
            epoch: 7,
            shadow: Arc::new(ShadowOwners::new(reqs.len())),
        };
        let (a, b) = (base.for_slot(0), base.for_slot(1));
        let _ = a.get(RequestId(0)).group;
        // The *deliberate* contract violation the detector must turn
        // into a panic.
        let _ = b.get(RequestId(0)).group;
    }

    /// The detector permits repeated same-task access within a window
    /// and cross-task handover across windows (epoch bump) — exactly the
    /// ownership transfer a steal performs at a window boundary.
    #[cfg(debug_assertions)]
    #[test]
    fn detector_allows_same_task_and_new_windows() {
        let spec = RequestSpec {
            id: 0,
            model: ModelId::PRIMARY,
            arrival: SimTime::ZERO,
            input_tokens: 8,
            output_tokens: 1,
            prefix: None,
            deadline: None,
        };
        let mut reqs = vec![Request::new(RequestId(0), spec, GroupId(0))];
        let shadow = Arc::new(ShadowOwners::new(reqs.len()));
        let mut base = ReqTable {
            ptr: reqs.as_mut_ptr(),
            len: reqs.len(),
            slot: u16::MAX,
            epoch: 0,
            shadow,
        };
        let mut a = base.for_slot(0);
        let _ = a.get(RequestId(0)).group;
        // Same task, same window: allowed.
        a.get_mut(RequestId(0)).prefilled = 1;
        base.epoch = 1; // barrier: next conservative window
        let b = base.for_slot(1);
        // Different task, *new* window: a legitimate barrier-time
        // ownership handover.
        let _ = b.get(RequestId(0)).group;
    }

    #[test]
    fn observer_sees_consistent_barrier_states() {
        let mut eng = ShardedEngine::new(ClusterConfig::tiny_test(2), QueueingPolicy, pcfg(1));
        let trace = small_trace(10, 100, 128, 8);
        let mut barriers = 0usize;
        let mut last = SimTime::ZERO;
        let report = eng.run_observed(&trace, SimDuration::from_secs(120), |state, t| {
            barriers += 1;
            assert!(t >= last, "barrier times are monotone");
            last = t;
            // Every group slot is populated at a barrier (no group is
            // checked out to a task).
            for g in state.alive_groups() {
                let _ = state.group(g).stages();
            }
        });
        assert_eq!(report.finished_requests, 10);
        assert!(barriers > 1);
    }

    /// Arrivals off the 100 ms monitor-tick grid (73 ms steps), so no
    /// arrival ever collides with a tick time.
    fn offgrid_trace(n: usize) -> Trace {
        Trace::new(
            (0..n)
                .map(|i| RequestSpec {
                    id: 0,
                    model: ModelId::PRIMARY,
                    arrival: SimTime::from_millis((i as u64 + 1) * 73),
                    input_tokens: 200,
                    output_tokens: 24,
                    prefix: None,
                    deadline: None,
                })
                .collect(),
        )
    }

    /// The tentpole bridge invariant: feeding the same arrivals through
    /// an incremental session, tick boundary by tick boundary, replays
    /// the batch run byte-for-byte — at 1, 2 and 4 workers.
    #[test]
    fn sharded_session_matches_batch_run_byte_for_byte() {
        let trace = offgrid_trace(24);
        let drain = SimDuration::from_secs(120);
        let batch = |workers: usize| {
            let mut eng =
                ShardedEngine::new(ClusterConfig::tiny_test(4), QueueingPolicy, pcfg(workers));
            format!("{:?}", eng.run(&trace, drain))
        };
        let session = |workers: usize| {
            let mut eng =
                ShardedEngine::new(ClusterConfig::tiny_test(4), QueueingPolicy, pcfg(workers));
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
            format!("{:?}", eng.end_session(drain))
        };
        let want = batch(1);
        assert_eq!(want, batch(2), "batch runs are worker-invariant");
        assert_eq!(want, batch(4), "batch runs are worker-invariant");
        assert_eq!(want, session(1), "session must replay the batch run");
        assert_eq!(want, session(2), "session must replay the batch run");
        assert_eq!(want, session(4), "session must replay the batch run");
    }

    /// Session cancels land at barriers: a queued victim frees its spot,
    /// the survivor still finishes, and the report counts the cancel.
    #[test]
    fn sharded_session_cancel_terminates_and_counts() {
        let mut eng = ShardedEngine::new(ClusterConfig::tiny_test(1), QueueingPolicy, pcfg(2));
        eng.begin_session();
        let spec = |arr: u64| RequestSpec {
            id: 0,
            model: ModelId::PRIMARY,
            arrival: SimTime::from_millis(arr),
            input_tokens: 256,
            output_tokens: 400,
            prefix: None,
            deadline: None,
        };
        let victim = eng.inject(spec(10));
        let survivor = eng.inject(spec(20));
        eng.step_until(SimTime::from_millis(250));
        eng.cancel(victim);
        eng.step_until(SimTime::from_millis(600));
        assert!(
            eng.state.requests[victim.0].is_terminal(),
            "deferred cancels land once the group goes idle at a barrier"
        );
        let report = eng.end_session(SimDuration::from_secs(60));
        assert_eq!(report.cancelled_requests, 1);
        assert_eq!(report.finished_requests, 1);
        assert_eq!(eng.state.requests[survivor.0].state, ReqState::Finished);
    }

    #[test]
    fn pool_spawns_one_helper_fewer_than_workers() {
        let eng = ShardedEngine::new(ClusterConfig::tiny_test(4), QueueingPolicy, pcfg(1));
        let ctx = Arc::new(eng.read_ctx());
        let deques = Arc::new(StealDeques::new(4));
        for workers in [2, 3, 4, 8] {
            let pool = WorkerPool::spawn(workers, 4, &deques, &ctx);
            assert_eq!(pool.handles.len(), workers - 1, "{workers} workers");
            assert_eq!(pool.go_txs.len(), workers - 1, "{workers} workers");
        }
    }

    /// One slot's log in the merge tests: `(home lane, slot, entries)`.
    type SlotLog = (usize, usize, Vec<(SimTime, u32)>);

    /// The reference the merge replaced: copy every entry out with its
    /// `(time, home lane, slot, sequence)` key and stable-sort by it.
    fn sorted_reference(logs: &[SlotLog]) -> Vec<u32> {
        let mut all: Vec<(SimTime, usize, usize, usize, u32)> = logs
            .iter()
            .flat_map(|(home, slot, log)| {
                log.iter()
                    .enumerate()
                    .map(move |(i, &(t, ev))| (t, *home, *slot, i, ev))
            })
            .collect();
        all.sort_by_key(|e| (e.0, e.1, e.2, e.3));
        all.into_iter().map(|e| e.4).collect()
    }

    fn merged(logs: &[SlotLog], order: &[usize]) -> Vec<u32> {
        let slots: Vec<usize> = order.iter().map(|&k| logs[k].1).collect();
        let mut heap = BinaryHeap::new();
        let mut out = Vec::new();
        merge_slot_logs(
            &mut heap,
            &slots,
            |slot| {
                let (home, _, log) = logs.iter().find(|l| l.1 == slot).expect("known slot");
                (*home, log.as_slice())
            },
            |ev| out.push(ev),
        );
        assert!(heap.is_empty(), "the merge leaves its scratch empty");
        out
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The k-way merge yields exactly the old full sort's sequence.
        /// Timestamps come from a tiny range so they collide across slots
        /// and lanes, and the slots are handed over in a rotated order.
        #[test]
        fn merge_matches_the_stable_sort(
            raw in proptest::collection::vec(proptest::collection::vec(0u64..6, 0..10), 1..9),
            lanes in 1usize..5,
            rot in 0usize..9,
        ) {
            let logs: Vec<SlotLog> = raw
                .iter()
                .enumerate()
                .map(|(k, times)| {
                    let slot = 3 * k + 1;
                    let mut times = times.clone();
                    times.sort_unstable();
                    let log = times
                        .iter()
                        .enumerate()
                        .map(|(i, &t)| (SimTime::from_micros(t), (slot * 100 + i) as u32))
                        .collect();
                    (slot % lanes, slot, log)
                })
                .collect();
            let mut order: Vec<usize> = (0..logs.len()).collect();
            order.rotate_left(rot % logs.len());
            proptest::prop_assert_eq!(merged(&logs, &order), sorted_reference(&logs));
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not time-ordered")]
    fn merge_rejects_an_unordered_log() {
        let log = vec![
            (SimTime::from_micros(2), 0u32),
            (SimTime::from_micros(1), 1),
        ];
        merged(&[(0, 0, log)], &[0]);
    }
}
