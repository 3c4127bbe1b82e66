//! `memsim` — an event-driven DDR4/DDR5 timing model.
//!
//! This crate is the workspace's substitute for Ramulator 2.0, which the
//! paper wraps for cycle-level memory simulation (§VI-A). It models the
//! pieces of DRAM behaviour the paper's results actually depend on:
//!
//! * **per-bank state machines** — ACT/PRE/RD/WR legality windows (tRCD,
//!   tRP, tRAS, tRC, tWR, tRTP), so row-buffer hits are fast and conflicts
//!   are slow;
//! * **rank-level constraints** — the tFAW rolling four-activate window
//!   that throttles bank-level parallelism;
//! * **a shared per-channel data bus** — which imposes the channel
//!   bandwidth ceiling that makes DLRM bandwidth-bound in the first place;
//! * **refresh** — periodic tREFI/tRFC blackouts;
//! * **configurable address interleaving** — cache-line vs row granularity
//!   across channels and banks.
//!
//! Scheduling is greedy in arrival order with row-hit-aware bank timing
//! (a first-ready approximation of FR-FCFS): each request is scheduled at
//! the earliest instant every resource it touches is legal. Bank-level
//! parallelism — the effect RecNMP exploits (§VI-C1) — emerges naturally
//! because requests to different banks overlap everywhere except the data
//! bus.
//!
//! # Examples
//!
//! ```
//! use memsim::{DramConfig, DramDevice, MemOp};
//! use simkit::SimTime;
//!
//! let mut dev = DramDevice::new(DramConfig::ddr5_4800_local());
//! let done = dev.access(SimTime::ZERO, 0x4000, MemOp::Read);
//! assert!(done > SimTime::ZERO);
//! ```

#![warn(missing_docs)]

pub mod addrmap;
pub mod bank;
pub mod channel;
pub mod config;
pub mod device;

pub use addrmap::{LineDecoder, Location};
pub use channel::MemOp;
pub use config::{DramConfig, DramOrg, DramTimings};
pub use device::{DramDevice, DramStats};
