//! Discrete-event simulation kernel shared by every KunServe substrate crate.
//!
//! The crate provides four building blocks:
//!
//! - [`SimTime`] / [`SimDuration`]: microsecond-resolution simulated time.
//! - [`EventQueue`]: a deterministic future-event list. Ties in time are
//!   broken by insertion order, so a simulation driven by this queue is fully
//!   reproducible for a fixed seed.
//! - [`StealDeques`]: per-lane work-item deques with steal semantics, the
//!   scheduling substrate of the cluster's sharded executor.
//! - [`stats`]: percentile summaries and windowed time series used by the
//!   serving metrics collectors and the benchmark harness.
//!
//! # Examples
//!
//! ```
//! use sim_core::{EventQueue, SimTime, SimDuration};
//!
//! let mut q = EventQueue::new();
//! q.push(SimTime::ZERO + SimDuration::from_millis(5), "later");
//! q.push(SimTime::ZERO, "now");
//! assert_eq!(q.pop().unwrap().1, "now");
//! assert_eq!(q.pop().unwrap().1, "later");
//! ```

// `unsafe` is confined to the audited allowlist in `simlint::config`
// (today: `cluster/src/shard.rs` only); everything else refuses it at
// compile time.
#![deny(unsafe_code)]

pub mod queue;
pub mod shard;
pub mod stats;
pub mod time;

pub use queue::EventQueue;
pub use shard::StealDeques;
pub use stats::{Percentiles, TimeSeries, WindowedRate};
pub use time::{SimDuration, SimTime};
