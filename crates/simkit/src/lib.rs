//! `simkit` — simulated-time foundation for the PIFS-Rec reproduction.
//!
//! Every timing model in this workspace (the DDR state machines in
//! [`memsim`](../memsim/index.html), the CXL fabric in
//! [`cxlsim`](../cxlsim/index.html), the PIFS process core in
//! `pifs-core`) advances time by *reservation*: each shared resource
//! keeps the instant it next becomes free, and a request issued at `now`
//! starts at `max(now, free)`. The primitives here:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//!   matching the paper's 1 ns/clk top-module tick (§VI-A).
//! * [`hash`] — a fast deterministic hasher ([`hash::FastMap`]) for the
//!   on-switch buffer's row map.
//! * [`stats`] — latency histograms, summaries, normalizers and the
//!   event/allocation tallies used by every experiment harness.
//! * [`rng`] — a small deterministic RNG so that every figure regenerates
//!   bit-identically.
//! * [`faults`] — seeded fault schedules (fail-stop, slow-down, link
//!   degradation) generated as pure data, so faulty runs stay exactly as
//!   reproducible as fault-free ones.
//!
//! # Examples
//!
//! ```
//! use simkit::{SimDuration, SimTime};
//!
//! // A resource busy until 25 ns: a request issued at 5 ns starts when
//! // it frees up, and holds it for 10 ns.
//! let free = SimTime::from_ns(25);
//! let now = SimTime::ZERO + SimDuration::from_ns(5);
//! let start = now.max(free);
//! let free = start + SimDuration::from_ns(10);
//! assert_eq!((start.as_ns(), free.as_ns()), (25, 35));
//! ```

#![warn(missing_docs)]

pub mod faults;
pub mod hash;
pub mod rng;
pub mod stats;
pub mod time;

pub use faults::{FaultEvent, FaultKind, FaultSchedule, FaultSpec};
pub use rng::DetRng;
pub use stats::{LatencyHist, Summary};
pub use time::{SimDuration, SimTime};
