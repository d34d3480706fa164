//! The work-stealing substrate of the sharded executor.
//!
//! [`StealDeques`] holds per-lane work-item deques with steal semantics.
//! A coordinator pushes items in deterministic order; workers drain their
//! home lane front-to-back and steal from other lanes' backs when idle.
//! Stealing moves only *where* an item executes, never what it computes,
//! so results stay byte-identical at any worker count.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-shard work-item deques with steal semantics.
///
/// The coordinator pushes one window's work items into their *home* lanes
/// (front-to-back, deterministic order), then workers drain the set:
/// a worker pops its home lane from the **front** (preserving the
/// coordinator's order) and, when its home lane is empty, steals from
/// other lanes' **backs** — the classic steal discipline that keeps the
/// cold end of a busy lane for its owner.
///
/// Determinism: an item's result is a pure function of the item, so the
/// lane it is popped from only decides *where* it runs. The steal counter
/// is telemetry and must never feed a simulation report.
#[derive(Debug)]
pub struct StealDeques<T> {
    lanes: Vec<Mutex<VecDeque<T>>>,
    steals: AtomicU64,
}

impl<T> StealDeques<T> {
    /// Creates `lanes` empty deques.
    pub fn new(lanes: usize) -> Self {
        assert!(lanes > 0, "need at least one lane");
        StealDeques {
            lanes: (0..lanes).map(|_| Mutex::new(VecDeque::new())).collect(),
            steals: AtomicU64::new(0),
        }
    }

    /// Number of lanes.
    pub fn lanes(&self) -> usize {
        self.lanes.len()
    }

    /// Pushes an item onto the back of its home lane (coordinator side).
    pub fn push(&self, lane: usize, item: T) {
        self.lanes[lane].lock().expect("steal lane").push_back(item);
    }

    /// Pops one item for a worker homed on `home`: front of the home lane
    /// first, then the backs of the other lanes in ring order. Returns the
    /// item and the lane it came from; a pop from a non-home lane counts
    /// as a steal.
    pub fn pop(&self, home: usize) -> Option<(usize, T)> {
        let n = self.lanes.len();
        let home = home % n;
        if let Some(item) = self.lanes[home].lock().expect("steal lane").pop_front() {
            return Some((home, item));
        }
        for off in 1..n {
            let lane = (home + off) % n;
            if let Some(item) = self.lanes[lane].lock().expect("steal lane").pop_back() {
                self.steals.fetch_add(1, Ordering::Relaxed);
                return Some((lane, item));
            }
        }
        None
    }

    /// Drains every lane in `(lane, front-to-back)` order — the inline
    /// path for a single worker, which by construction never steals.
    pub fn drain_in_order(&self) -> Vec<T> {
        let mut out = Vec::new();
        for lane in &self.lanes {
            out.extend(lane.lock().expect("steal lane").drain(..));
        }
        out
    }

    /// Total successful steals so far (telemetry only).
    pub fn steals(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// Returns `true` when every lane is empty.
    pub fn is_empty(&self) -> bool {
        self.lanes
            .iter()
            .all(|l| l.lock().expect("steal lane").is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_deques_home_pops_are_fifo_and_free() {
        let d: StealDeques<u32> = StealDeques::new(2);
        d.push(0, 1);
        d.push(0, 2);
        assert_eq!(d.pop(0), Some((0, 1)), "home lane drains front-first");
        assert_eq!(d.pop(0), Some((0, 2)));
        assert_eq!(d.steals(), 0, "home pops are not steals");
        assert!(d.is_empty());
        assert_eq!(d.pop(0), None);
    }

    #[test]
    fn steal_deques_steal_from_back_and_count() {
        let d: StealDeques<u32> = StealDeques::new(3);
        d.push(2, 10);
        d.push(2, 11);
        // Worker homed on lane 0 finds its lane empty and steals lane 2's
        // back item.
        assert_eq!(d.pop(0), Some((2, 11)));
        assert_eq!(d.steals(), 1);
        // Lane 2's owner still gets the front item, steal-free.
        assert_eq!(d.pop(2), Some((2, 10)));
        assert_eq!(d.steals(), 1);
    }

    #[test]
    fn steal_deques_drain_in_order_is_deterministic() {
        let d: StealDeques<u32> = StealDeques::new(3);
        d.push(1, 20);
        d.push(0, 10);
        d.push(1, 21);
        assert_eq!(d.drain_in_order(), vec![10, 20, 21]);
        assert_eq!(d.steals(), 0, "the inline path never steals");
        assert!(d.is_empty());
    }
}
