//! Property tests for the work-stealing deques behind the sharded
//! executor: for any push pattern and pop order, every item is popped
//! exactly once and the steal counter counts exactly the cross-lane pops.

use proptest::prelude::*;
use sim_core::shard::StealDeques;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The steal deques conserve work: for any push pattern and any
    /// pop order (modelling workers racing over lanes), every item is
    /// popped exactly once, home pops come off the front in push order,
    /// and the steal counter counts exactly the cross-lane pops.
    #[test]
    fn steal_deques_conserve_items_and_count_cross_lane_pops(
        lanes in 1usize..6,
        pushes in proptest::collection::vec((0usize..6, 0u32..1000), 0..80),
        poppers in proptest::collection::vec(0usize..6, 0..120),
    ) {
        let deques: StealDeques<(usize, u32)> = StealDeques::new(lanes);
        let mut pushed: Vec<(usize, u32)> = Vec::new();
        for (lane, v) in pushes {
            let lane = lane % lanes;
            deques.push(lane, (lane, v));
            pushed.push((lane, v));
        }
        let mut popped: Vec<(usize, usize, (usize, u32))> = Vec::new();
        for home in poppers {
            let home = home % lanes;
            if let Some((from, item)) = deques.pop(home) {
                popped.push((home, from, item));
            }
        }
        // Drain the rest the way the inline executor does.
        let rest = deques.drain_in_order();
        prop_assert!(deques.is_empty());
        prop_assert_eq!(popped.len() + rest.len(), pushed.len(), "no item lost or duplicated");
        let mut all: Vec<(usize, u32)> =
            popped.iter().map(|&(_, _, it)| it).chain(rest).collect();
        let mut expect = pushed.clone();
        all.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(all, expect, "pops + drain equal pushes");
        // `pop` reports the lane it actually served from: home pops come
        // from the home lane, and an item's tagged push lane always
        // matches the reported source.
        for &(_, from, (lane, _)) in &popped {
            prop_assert_eq!(from, lane, "pop() reports the item's actual lane");
        }
        // The steal counter counts exactly the cross-lane pops (the
        // inline drain never counts).
        let cross = popped.iter().filter(|&&(home, from, _)| from != home).count();
        prop_assert_eq!(deques.steals(), cross as u64, "steals == cross-lane pops");
    }
}
