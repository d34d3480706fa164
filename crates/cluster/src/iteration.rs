//! The group-local iteration kernel both executors run.
//!
//! One continuous-batching iteration of an execution group (paper §4.3),
//! possibly pipelined across members with microbatches, is
//! [`admit_fitting`], [`collect_work`], [`launch_iteration`] and, once it
//! finishes, [`complete_iteration`]. Each step touches only the group, the
//! requests it names (through [`ReqAccess`]) and what the caller lends it:
//! a noise stream, an activation link model and a metric sink. Between the
//! steps each executor keeps what differs: the policy hooks, decode-growth
//! reservation and the microbatch former.

use costmodel::{ChunkWork, GroundTruth};
use kvcache::SeqKey;
use netsim::NodeId;
use rand::rngs::SmallRng;
use sim_core::{SimDuration, SimTime};

use crate::batch::{aggregate_progress, MicroBatch, SeqChunk};
use crate::config::ClusterConfig;
use crate::group::{ExecGroup, IterationPlan};
use crate::metrics::MetricEvent;
use crate::pipeline::{schedule, StageTiming};
use crate::request::{ReqState, Request, RequestId};

/// Access to the request table: the serial engine indexes the
/// `ClusterState` slice, the sharded executor dereferences its
/// disjoint-ownership raw table.
pub(crate) trait ReqAccess {
    /// Borrows one request.
    fn get(&self, id: RequestId) -> &Request;
    /// Mutably borrows one request.
    fn get_mut(&mut self, id: RequestId) -> &mut Request;
}

impl ReqAccess for [Request] {
    fn get(&self, id: RequestId) -> &Request {
        &self[id.0]
    }

    fn get_mut(&mut self, id: RequestId) -> &mut Request {
        &mut self[id.0]
    }
}

/// Tokens each in-decode request advances per iteration.
///
/// Single-stage groups decode one token per iteration (classic
/// continuous batching). Pipelined groups stream microbatches back to
/// back, so over one engine iteration (`m` microbatches, `s` stages)
/// each microbatch cycles roughly `m/s + 1` times, one decode step per
/// cycle. Modelling this as one multi-token decode chunk keeps
/// per-token latency faithful to continuous pipeline streaming without
/// per-cycle event traffic; the Eq. 1 cost of a `(p, K)` chunk equals
/// the summed cost of `K` single-token steps exactly.
pub(crate) fn decode_tokens_per_iter(stages: usize, cfg: &ClusterConfig) -> u64 {
    if stages == 1 {
        1
    } else {
        // With `m = microbatches_per_stage × s` microbatches the
        // makespan spans `(m+s−1)/s ≈ microbatches_per_stage + 1`
        // single-batch times; advancing `microbatches_per_stage`
        // tokens per iteration leaves pipelined TPOT ~25–40 % above
        // single-stage TPOT — the Fig. 5 depth gradient.
        cfg.microbatches_per_stage as u64
    }
}

/// Collects one iteration's work for a group: a decode chunk per running
/// decode request plus budget-bounded prefill chunks in arrival order.
pub(crate) fn collect_work<R: ReqAccess + ?Sized>(
    g: &ExecGroup,
    reqs: &R,
    cfg: &ClusterConfig,
    skipped: &[RequestId],
) -> Vec<SeqChunk> {
    let rounds = decode_tokens_per_iter(g.stages(), cfg);
    let stages = g.stages() as u64;
    let budget = if stages == 1 {
        cfg.token_budget
    } else {
        // One token budget per microbatch keeps every microbatch as
        // dense as a single-stage batch.
        cfg.token_budget * stages * cfg.microbatches_per_stage as u64
    };
    let mut work = Vec::with_capacity(g.running.len());
    let mut used = 0u64;
    let mut prefills: Vec<RequestId> = Vec::new();
    for &r in &g.running {
        if skipped.contains(&r) {
            continue; // no KV slot this iteration (swap in flight)
        }
        let req = reqs.get(r);
        if req.state != ReqState::Running {
            continue;
        }
        if req.in_decode() {
            if !req.is_done() {
                let n = rounds.min(req.output_remaining()).max(1);
                work.push(SeqChunk {
                    request: r,
                    work: ChunkWork {
                        prefix_tokens: req.kv_tokens(),
                        new_tokens: n,
                    },
                });
                used += n;
            }
        } else {
            prefills.push(r);
        }
    }
    prefills.sort_by_key(|&r| (reqs.get(r).spec.arrival, r));
    for r in prefills {
        if used >= budget {
            break;
        }
        let req = reqs.get(r);
        let chunk = req.prefill_remaining().min(budget - used);
        if chunk == 0 {
            continue;
        }
        work.push(SeqChunk {
            request: r,
            work: ChunkWork {
                prefix_tokens: req.prefilled,
                new_tokens: chunk,
            },
        });
        used += chunk;
    }
    work
}

/// Admits head-of-queue requests while their full prefill target fits in
/// the group's free blocks. A terminal head (cancelled while queued) is
/// dropped without reserving anything. Returns `true` if admission
/// blocked on a head that does not fit.
pub(crate) fn admit_fitting<R: ReqAccess + ?Sized>(g: &mut ExecGroup, reqs: &mut R) -> bool {
    while let Some(&head) = g.queue.front() {
        let req = reqs.get_mut(head);
        debug_assert_eq!(req.group, g.id, "queued request owned by its group");
        if req.is_terminal() {
            g.queue.pop_front();
            continue;
        }
        let target = req.prefill_target();
        if !g.blocks.can_allocate(target) {
            return true;
        }
        g.blocks
            .allocate(SeqKey(head.0 as u64), target)
            .expect("checked can_allocate");
        req.state = ReqState::Running;
        g.queue.pop_front();
        g.running.push(head);
    }
    false
}

/// What an executor lends [`launch_iteration`] besides the group: its
/// clock, the group's pending start-up overhead (VMM remap), and the
/// noise stream and progress scratch it owns.
pub(crate) struct Launch<'a> {
    /// When the group picks the iteration up.
    pub now: SimTime,
    /// Delay the iteration absorbs before its first stage starts.
    pub overhead: SimDuration,
    /// Execution-time noise stream.
    pub rng: &'a mut SmallRng,
    /// Position index for [`aggregate_progress`].
    pub progress_pos: &'a mut Vec<u32>,
}

/// Starts one iteration of `mbs` on the idle group `g`: samples each
/// (microbatch, stage) time from the serving model's ground truth,
/// schedules the pipeline, and installs the [`IterationPlan`] with the
/// per-request token progress. `send(src, dst, bytes, at)` forwards one
/// microbatch's activations between adjacent stages and returns their
/// arrival time. Returns the finish time; the bumped `g.iter_seq` keys
/// the completion.
pub(crate) fn launch_iteration(
    g: &mut ExecGroup,
    mbs: Vec<MicroBatch>,
    cfg: &ClusterConfig,
    ground_truths: &[GroundTruth],
    at: Launch<'_>,
    mut send: impl FnMut(NodeId, NodeId, u64, SimTime) -> SimTime,
) -> SimTime {
    debug_assert!(!mbs.is_empty(), "non-empty work forms microbatches");
    let gt = &ground_truths[g.model.0 as usize];
    let times = mbs
        .iter()
        .map(|mb| {
            let works = mb.works();
            g.stage_fracs
                .iter()
                .map(|&f| gt.sample(&works, f, at.rng))
                .collect()
        })
        .collect();
    let timing = StageTiming { times };

    let start = at.now + at.overhead;
    let (makespan, bubble_frac) = if g.stages() == 1 {
        (timing.times[0][0], 0.0)
    } else {
        let act_per_token = cfg.model_cfg(g.model).activation_bytes_per_token();
        let mb_tokens: Vec<u64> = mbs.iter().map(|m| m.new_tokens()).collect();
        let members = &g.members;
        let sched = schedule(start, &timing, |mb, boundary, sent| {
            let bytes = (mb_tokens[mb] * act_per_token).max(1);
            send(
                NodeId(members[boundary].0),
                NodeId(members[boundary + 1].0),
                bytes,
                sent,
            )
        });
        (sched.makespan, sched.bubble_frac())
    };

    // Per-request token progress from the final microbatches (a former
    // may split one request's chunk across microbatches).
    let work = aggregate_progress(&mbs, at.progress_pos);
    let new_tokens = work.iter().map(|&(_, t)| t).sum();
    let finish = start + makespan;
    g.iter_seq += 1;
    g.busy_until = Some(finish);
    g.current_iter = Some(IterationPlan {
        work,
        started: at.now,
        duration: finish - at.now,
        bubble_frac,
        new_tokens,
    });
    finish
}

/// Applies `g`'s finished iteration at `now`: token progress, the first
/// (or post-recompute resumed) token at prefill completion, and for
/// finished requests block release and removal from the group. Plan
/// entries no longer running in this group (preempted or migrated
/// mid-iteration) are skipped. Metric updates go to `emit` in the order
/// the metrics apply them: the iteration sample, the bubble sample
/// (pipelined groups), per request its first token and finish, then the
/// emitted tokens. Returns how many requests finished.
pub(crate) fn complete_iteration<R: ReqAccess + ?Sized>(
    g: &mut ExecGroup,
    reqs: &mut R,
    now: SimTime,
    mut emit: impl FnMut(MetricEvent),
) -> usize {
    g.busy_until = None;
    let Some(plan) = g.current_iter.take() else {
        return 0;
    };
    emit(MetricEvent::Iteration(now, plan.duration.as_secs_f64()));
    if g.stages() > 1 {
        emit(MetricEvent::Bubble(now, plan.bubble_frac));
    }
    let mut emitted = 0u64;
    let mut finished = 0;
    for (r, ntok) in plan.work {
        let req = reqs.get_mut(r);
        if req.state != ReqState::Running || req.group != g.id {
            continue;
        }
        if req.in_decode() {
            req.generated += ntok;
            emitted += ntok;
        } else {
            req.prefilled = (req.prefilled + ntok).min(req.prefill_target());
            if req.in_decode() {
                // Prefill completion emits one token: the first for a
                // fresh request, the resumed one after a recompute.
                if req.first_token_at.is_none() {
                    req.first_token_at = Some(now);
                    req.generated = req.generated.max(1);
                    emit(MetricEvent::FirstToken(r, now));
                } else {
                    req.generated += 1;
                }
                emitted += 1;
            }
        }
        if req.is_done() {
            req.state = ReqState::Finished;
            req.finished_at = Some(now);
            emit(MetricEvent::Finished(r, now, req.deadline_met_at(now)));
            let _ = g.blocks.free(SeqKey(r.0 as u64));
            g.forget(r);
            finished += 1;
        }
    }
    if emitted > 0 {
        emit(MetricEvent::Tokens(now, emitted));
    }
    finished
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::GroupId;
    use crate::instance::InstanceId;
    use kvcache::BlockManager;
    use workload::{ModelId, RequestSpec};

    /// A single-stage group with `blocks` blocks of 16 tokens.
    fn group(blocks: u32) -> ExecGroup {
        ExecGroup::new(
            GroupId(0),
            ModelId::PRIMARY,
            vec![InstanceId(0)],
            vec![1.0],
            BlockManager::new(blocks, 16),
        )
    }

    fn requests(shapes: &[(u64, u64)]) -> Vec<Request> {
        shapes
            .iter()
            .enumerate()
            .map(|(i, &(input, output))| {
                let spec = RequestSpec {
                    id: i as u64,
                    model: ModelId::PRIMARY,
                    arrival: SimTime::ZERO,
                    input_tokens: input,
                    output_tokens: output,
                    prefix: None,
                    deadline: None,
                };
                Request::new(RequestId(i), spec, GroupId(0))
            })
            .collect()
    }

    /// Queues and admits every request, then plans one iteration that
    /// advances each by the given tokens.
    fn admitted(g: &mut ExecGroup, reqs: &mut [Request], plan: &[(usize, u64)]) {
        g.queue.extend((0..reqs.len()).map(RequestId));
        assert!(!admit_fitting(g, reqs), "everything fits");
        g.busy_until = Some(SimTime::ZERO);
        g.current_iter = Some(IterationPlan {
            work: plan.iter().map(|&(r, t)| (RequestId(r), t)).collect(),
            started: SimTime::ZERO,
            duration: SimDuration::from_millis(10),
            bubble_frac: 0.0,
            new_tokens: plan.iter().map(|&(_, t)| t).sum(),
        });
    }

    fn complete(g: &mut ExecGroup, reqs: &mut [Request], at_ms: u64) -> (usize, Vec<MetricEvent>) {
        let mut log = Vec::new();
        let done = complete_iteration(g, reqs, SimTime::from_millis(at_ms), |ev| log.push(ev));
        (done, log)
    }

    fn first_tokens(log: &[MetricEvent]) -> usize {
        log.iter()
            .filter(|ev| matches!(ev, MetricEvent::FirstToken(..)))
            .count()
    }

    #[test]
    fn completed_prefill_emits_the_first_token_once() {
        let mut g = group(8);
        let mut reqs = requests(&[(32, 4)]);
        admitted(&mut g, &mut reqs, &[(0, 20)]);
        let (_, log) = complete(&mut g, &mut reqs, 10);
        assert_eq!(first_tokens(&log), 0, "prefill still running");
        assert_eq!(reqs[0].generated, 0);

        g.current_iter = Some(IterationPlan {
            work: vec![(RequestId(0), 12)],
            started: SimTime::ZERO,
            duration: SimDuration::from_millis(10),
            bubble_frac: 0.0,
            new_tokens: 12,
        });
        let (_, log) = complete(&mut g, &mut reqs, 20);
        assert_eq!(
            log,
            vec![
                MetricEvent::Iteration(SimTime::from_millis(20), 0.01),
                MetricEvent::FirstToken(RequestId(0), SimTime::from_millis(20)),
                MetricEvent::Tokens(SimTime::from_millis(20), 1),
            ]
        );
        assert_eq!(reqs[0].generated, 1);
        assert_eq!(reqs[0].first_token_at, Some(SimTime::from_millis(20)));
        assert!(!g.is_busy(), "completion idles the group");
    }

    #[test]
    fn recompute_resume_adds_one_token_without_a_second_first_token() {
        let mut g = group(8);
        let mut reqs = requests(&[(16, 8)]);
        // Preempted after three tokens: the re-prefill covers them too.
        reqs[0].generated = 3;
        reqs[0].first_token_at = Some(SimTime::from_millis(5));
        reqs[0].preempt_reset();
        let target = reqs[0].prefill_target();
        assert_eq!(target, 19);
        admitted(&mut g, &mut reqs, &[(0, target)]);
        let (done, log) = complete(&mut g, &mut reqs, 30);
        assert_eq!(done, 0);
        assert_eq!(first_tokens(&log), 0, "the first token was already sent");
        assert_eq!(reqs[0].generated, 4, "the resumed token");
        assert_eq!(reqs[0].first_token_at, Some(SimTime::from_millis(5)));
        assert_eq!(
            log.last(),
            Some(&MetricEvent::Tokens(SimTime::from_millis(30), 1))
        );
    }

    #[test]
    fn finished_request_frees_its_blocks_and_leaves_the_group() {
        let mut g = group(8);
        let mut reqs = requests(&[(16, 2)]);
        reqs[0].prefilled = 16;
        reqs[0].generated = 1;
        reqs[0].first_token_at = Some(SimTime::ZERO);
        admitted(&mut g, &mut reqs, &[(0, 1)]);
        assert!(g.blocks.used_blocks() > 0);
        let (done, log) = complete(&mut g, &mut reqs, 40);
        assert_eq!(done, 1);
        assert_eq!(reqs[0].state, ReqState::Finished);
        assert_eq!(reqs[0].finished_at, Some(SimTime::from_millis(40)));
        assert!(log.contains(&MetricEvent::Finished(
            RequestId(0),
            SimTime::from_millis(40),
            true
        )));
        assert_eq!(g.blocks.used_blocks(), 0, "blocks freed");
        assert!(g.is_drained(), "the request left every group list");
    }

    #[test]
    fn entries_no_longer_running_here_are_skipped() {
        let mut g = group(16);
        let mut reqs = requests(&[(16, 4), (16, 4), (16, 4)]);
        admitted(&mut g, &mut reqs, &[(0, 16), (1, 16), (2, 16)]);
        reqs[1].state = ReqState::Queued; // preempted mid-iteration
        reqs[2].group = GroupId(5); // migrated mid-iteration
        let (_, log) = complete(&mut g, &mut reqs, 10);
        assert_eq!(first_tokens(&log), 1);
        assert_eq!(reqs[0].prefilled, 16);
        assert_eq!((reqs[1].prefilled, reqs[2].prefilled), (0, 0));
        assert_eq!((reqs[1].generated, reqs[2].generated), (0, 0));
    }

    #[test]
    fn admission_drops_terminal_heads_and_stops_at_the_first_misfit() {
        // Four blocks of 16 tokens: 32 + 64 tokens do not both fit.
        let mut g = group(4);
        let mut reqs = requests(&[(8, 1), (32, 1), (64, 1), (8, 1)]);
        reqs[0].state = ReqState::Dropped;
        g.queue.extend((0..4).map(RequestId));
        assert!(
            admit_fitting(&mut g, &mut reqs[..]),
            "the 64-token head blocks"
        );
        assert_eq!(g.running, vec![RequestId(1)]);
        assert_eq!(g.queue, [RequestId(2), RequestId(3)], "no overtaking");
        assert_eq!(reqs[0].state, ReqState::Dropped, "nothing reserved");
        assert_eq!(reqs[1].state, ReqState::Running);
        assert_eq!(g.blocks.used_blocks(), 2);
    }
}
