//! Property tests for the paged block manager: no block is ever double
//! allocated, accounting is exact, and resize preserves all invariants.

use std::collections::HashMap;

use kvcache::{BlockManager, KvError, SeqKey};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Allocate { seq: u64, tokens: u64 },
    Append { seq: u64, tokens: u64 },
    Free { seq: u64 },
    Resize { capacity: u32 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        ((0u64..8), (1u64..300)).prop_map(|(seq, tokens)| Op::Allocate { seq, tokens }),
        ((0u64..8), (1u64..80)).prop_map(|(seq, tokens)| Op::Append { seq, tokens }),
        (0u64..8).prop_map(|seq| Op::Free { seq }),
        (1u32..40).prop_map(|capacity| Op::Resize { capacity }),
    ]
}

/// Table-level operations for the token-total property: both admission
/// paths (`allocate` for prompts, `adopt` for migrated/exchanged KV),
/// decode growth and release, over sparse keys.
#[derive(Debug, Clone)]
enum TableOp {
    Allocate { seq: u64, tokens: u64 },
    Adopt { seq: u64, tokens: u64 },
    Append { seq: u64, tokens: u64 },
    Free { seq: u64 },
}

/// Sparse sequence keys (a small offset plus a multiple of 2^20), so the
/// table's hasher sees more than a dense run of small integers.
fn key() -> impl Strategy<Value = u64> {
    (0u64..12).prop_map(|k| ((k % 3) << 20) | k)
}

fn table_op_strategy() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        (key(), 0u64..400).prop_map(|(seq, tokens)| TableOp::Allocate { seq, tokens }),
        (key(), 0u64..400).prop_map(|(seq, tokens)| TableOp::Adopt { seq, tokens }),
        (key(), 0u64..3).prop_map(|(seq, tokens)| TableOp::Append { seq, tokens }),
        (key(), 1u64..130).prop_map(|(seq, tokens)| TableOp::Append { seq, tokens }),
        key().prop_map(|seq| TableOp::Free { seq }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The O(1) running token total never drifts from the per-table
    /// counts, whichever operations succeed or fail.
    #[test]
    fn token_total_matches_the_tables(ops in proptest::collection::vec(table_op_strategy(), 1..200)) {
        let block = 16u64;
        let mut m = BlockManager::new(40, block as u32);
        for op in ops {
            let _ = match op {
                TableOp::Allocate { seq, tokens } => m.allocate(SeqKey(seq), tokens).map(|_| 0),
                TableOp::Adopt { seq, tokens } => m.adopt(SeqKey(seq), tokens).map(|_| 0),
                TableOp::Append { seq, tokens } => m.append_tokens(SeqKey(seq), tokens),
                TableOp::Free { seq } => m.free(SeqKey(seq)).map(|_| 0),
            };
            let seqs = m.seqs();
            prop_assert_eq!(seqs.len(), m.num_seqs());
            let tokens: u64 = seqs.iter().map(|&s| m.tokens_of(s).expect("live")).sum();
            prop_assert_eq!(m.used_tokens(), tokens);
            let blocks: u32 = seqs.iter().map(|&s| m.blocks_of(s).expect("live")).sum();
            prop_assert_eq!(m.used_blocks(), blocks);
            // Fragmentation is the per-table slack, summed.
            prop_assert_eq!(
                m.fragmentation_tokens(),
                u64::from(blocks) * block - tokens
            );
            for &s in &seqs {
                let (b, t) = (m.blocks_of(s).expect("live"), m.tokens_of(s).expect("live"));
                prop_assert_eq!(u64::from(b), t.div_ceil(block));
            }
        }
    }

    #[test]
    fn accounting_is_exact(ops in proptest::collection::vec(op_strategy(), 1..150)) {
        let mut m = BlockManager::new(20, 64);
        // Shadow model: tokens per live sequence.
        let mut model: HashMap<u64, u64> = HashMap::new();

        for op in ops {
            match op {
                Op::Allocate { seq, tokens } => {
                    let res = m.allocate(SeqKey(seq), tokens);
                    match res {
                        Ok(()) => {
                            prop_assert!(!model.contains_key(&seq));
                            model.insert(seq, tokens);
                        }
                        Err(KvError::AlreadyAllocated) => {
                            prop_assert!(model.contains_key(&seq));
                        }
                        Err(KvError::OutOfBlocks { .. }) => {}
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                Op::Append { seq, tokens } => {
                    match m.append_tokens(SeqKey(seq), tokens) {
                        Ok(_) => {
                            *model.get_mut(&seq).expect("manager accepted unknown seq") += tokens;
                        }
                        Err(KvError::UnknownSeq) => {
                            prop_assert!(!model.contains_key(&seq));
                        }
                        Err(KvError::OutOfBlocks { .. }) => {}
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                Op::Free { seq } => {
                    match m.free(SeqKey(seq)) {
                        Ok(tokens) => {
                            prop_assert_eq!(model.remove(&seq), Some(tokens));
                        }
                        Err(KvError::UnknownSeq) => {
                            prop_assert!(!model.contains_key(&seq));
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
                Op::Resize { capacity } => {
                    match m.resize(capacity) {
                        Ok(()) => prop_assert_eq!(m.capacity_blocks(), capacity),
                        Err(KvError::ShrinkBelowUsage { used, .. }) => {
                            prop_assert!(capacity < used);
                        }
                        Err(e) => panic!("unexpected error: {e}"),
                    }
                }
            }

            // Tokens in the manager equal tokens in the shadow model.
            let model_tokens: u64 = model.values().sum();
            prop_assert_eq!(m.used_tokens(), model_tokens);
            // Block accounting: each sequence holds ceil(tokens / 64) blocks.
            let expected_blocks: u32 =
                model.values().map(|&t| t.div_ceil(64) as u32).sum();
            prop_assert_eq!(m.used_blocks(), expected_blocks);
            // Used never exceeds capacity.
            prop_assert!(m.used_blocks() <= m.capacity_blocks());
            // Fragmentation is bounded by one block per sequence.
            prop_assert!(m.fragmentation_tokens() < 64 * (model.len() as u64 + 1));
        }
    }

    /// A grow followed by the inverse shrink is always legal when usage is
    /// unchanged — the KunServe drop → restore cycle on an idle pool.
    #[test]
    fn grow_shrink_round_trip(base in 1u32..50, extra in 1u32..50, tokens in 0u64..1000) {
        let mut m = BlockManager::new(base, 64);
        let usable = (base as u64 * 64).min(tokens);
        if usable > 0 {
            m.allocate(SeqKey(0), usable).expect("fits in base capacity");
        }
        m.resize(base + extra).expect("grow always ok");
        prop_assert_eq!(m.capacity_blocks(), base + extra);
        m.resize(base).expect("shrink back to base with same usage");
        prop_assert_eq!(m.capacity_blocks(), base);
    }
}
