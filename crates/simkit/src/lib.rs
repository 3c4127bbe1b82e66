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
//! * [`BandwidthLink`] — a serialization-delay model for bandwidth-limited
//!   resources (FlexBus lanes, DIMM data buses, switch ports), reserved
//!   in call order.
//! * [`hash`] — a fast deterministic hasher ([`hash::FastMap`]) for
//!   simulation-internal maps on hot paths.
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
//! use simkit::{BandwidthLink, SimDuration, SimTime};
//!
//! // A 64 GB/s link with 10 ns of propagation delay.
//! let mut link = BandwidthLink::from_gbps(64, 10);
//! let t = SimTime::ZERO + SimDuration::from_ns(5);
//! let a = link.transfer(t, 640); // 10 ns on the wire, then 10 ns in flight
//! let b = link.transfer(t, 640); // same instant: reserved behind `a`
//! assert_eq!((a.as_ns(), b.as_ns()), (25, 35));
//! ```

#![warn(missing_docs)]

pub mod faults;
pub mod hash;
pub mod link;
pub mod rng;
pub mod stats;
pub mod time;

pub use faults::{FaultEvent, FaultKind, FaultSchedule, FaultSpec};
pub use link::BandwidthLink;
pub use rng::DetRng;
pub use stats::{LatencyHist, Summary};
pub use time::{SimDuration, SimTime};
