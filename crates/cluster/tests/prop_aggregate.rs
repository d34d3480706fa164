//! Property test for the engine's token-progress aggregation: the O(chunks)
//! `aggregate_progress` must agree exactly with the quadratic first-match
//! loop it replaced, on every split either microbatch former produces.

use cluster::batch::aggregate_progress;
use cluster::{balance_microbatches, token_count_form, MicroBatch, RequestId, SeqChunk};
use costmodel::{ChunkWork, CostParams};
use proptest::prelude::*;

/// The reference: the linear-scan aggregation both executors used to run
/// per iteration (quadratic in batch size).
fn quadratic_reference(mbs: &[MicroBatch]) -> Vec<(RequestId, u64)> {
    let mut per_req: Vec<(RequestId, u64)> = Vec::new();
    for mb in mbs {
        for c in &mb.chunks {
            match per_req.iter_mut().find(|(r, _)| *r == c.request) {
                Some((_, t)) => *t += c.work.new_tokens,
                None => per_req.push((c.request, c.work.new_tokens)),
            }
        }
    }
    per_req
}

/// A collected batch: distinct request ids in arbitrary order (a running
/// list after preemptions and migrations is not sorted), each with a
/// prefill chunk or a one-token decode.
fn work_strategy() -> impl Strategy<Value = Vec<SeqChunk>> {
    proptest::collection::vec(
        ((0usize..200), (0u64..4096), (1u64..1500), (0u32..3)),
        1..48,
    )
    .prop_map(|raw| {
        let mut seen = Vec::new();
        raw.into_iter()
            .filter(|&(id, ..)| {
                let fresh = !seen.contains(&id);
                seen.push(id);
                fresh
            })
            .map(|(id, prefix, new, kind)| SeqChunk {
                request: RequestId(id),
                work: ChunkWork {
                    prefix_tokens: prefix,
                    // Roughly a third of the batch decodes.
                    new_tokens: if kind == 0 { 1 } else { new },
                },
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn matches_the_quadratic_reference_on_former_splits(
        work in work_strategy(),
        microbatches in 1usize..6,
        min_tokens in 32u64..1024,
    ) {
        let params = CostParams::qwen14b_a800();
        let mut pos = Vec::new();
        for mbs in [
            vec![MicroBatch { chunks: work.clone() }],
            token_count_form(&work, microbatches),
            balance_microbatches(&work, &params, min_tokens),
        ] {
            let got = aggregate_progress(&mbs, &mut pos);
            prop_assert_eq!(&got, &quadratic_reference(&mbs));
            // One entry per request and no token lost to a split.
            prop_assert_eq!(got.len(), work.len());
            let total: u64 = work.iter().map(|c| c.work.new_tokens).sum();
            prop_assert_eq!(got.iter().map(|&(_, t)| t).sum::<u64>(), total);
            // The scratch is left all-zero for the next iteration.
            prop_assert!(pos.iter().all(|&p| p == 0));
        }
    }
}
