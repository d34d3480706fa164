//! The benchmark's one host clock. Everything timed on the host goes
//! through [`HostClock`], so the simulator's wall-clock ban (simlint's
//! `D-TIME`) has a single audited exception here.
//!
//! Shared hosts change speed by tens of percent for minutes at a time, so
//! gated host times are *normalized*: each is paired with a fixed
//! reference workload timed right after it and scaled to a host on which
//! that reference takes [`REFERENCE_NOMINAL_S`].

// simlint: allow(D-TIME) — measuring host time is this module's purpose.
use std::time::Instant;

/// A started stopwatch on the host's monotonic clock.
#[derive(Debug, Clone, Copy)]
pub struct HostClock {
    // simlint: allow(D-TIME) — see the module comment.
    origin: Instant,
}

impl HostClock {
    /// Starts a stopwatch now.
    pub fn start() -> Self {
        HostClock {
            // simlint: allow(D-TIME) — see the module comment.
            origin: Instant::now(),
        }
    }

    /// Nanoseconds since [`HostClock::start`].
    pub fn ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Seconds since [`HostClock::start`].
    pub fn secs(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }
}

/// The reference workload's duration on the nominal host.
pub const REFERENCE_NOMINAL_S: f64 = 0.01;

/// `secs` measured next to a reference run of `reference_s`, scaled to
/// the nominal host.
pub fn normalized(secs: f64, reference_s: f64) -> f64 {
    secs * REFERENCE_NOMINAL_S / reference_s
}

/// Times the reference workload: a small discrete-event loop over a
/// binary heap and an ordered map (the simulator's own kinds of work)
/// plus a shuffled pointer chase — fixed code, about 15 ms on a 2-core
/// VM, so its time tracks only the host's current speed.
pub fn reference_secs() -> f64 {
    use std::cmp::Reverse;
    use std::collections::{BTreeMap, BinaryHeap};
    let clock = HostClock::start();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut rand = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap = BinaryHeap::new();
    let mut live: BTreeMap<u64, u64> = BTreeMap::new();
    for id in 0..4096u64 {
        heap.push(Reverse((rand() % 1_000_000, id)));
    }
    let mut acc = 0u64;
    for _ in 0..60_000 {
        let Reverse((t, id)) = heap.pop().expect("the heap never drains");
        if let Some(v) = live.remove(&id) {
            acc = acc.wrapping_add(v);
        } else {
            live.insert(id, t);
        }
        heap.push(Reverse((t + 1 + rand() % 10_000, id)));
    }
    let n = 1usize << 16;
    let mut next: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        next.swap(i, (rand() % (i as u64 + 1)) as usize);
    }
    let mut p = 0u32;
    for _ in 0..n {
        p = next[p as usize];
        acc = acc.wrapping_add(u64::from(p));
    }
    std::hint::black_box(acc);
    clock.secs()
}
