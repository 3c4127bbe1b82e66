//! `memsim` — an event-driven DDR4/DDR5 timing model.
//!
//! This crate is the workspace's substitute for Ramulator 2.0, which the
//! paper wraps for cycle-level memory simulation (§VI-A). It models the
//! pieces of DRAM behaviour the paper's results actually depend on:
//!
//! * **per-bank state machines** — ACT/PRE/RD legality windows (tRCD,
//!   tRP, tRAS, tRC, tRTP), so row-buffer hits are fast and conflicts
//!   are slow;
//! * **rank-level constraints** — the tFAW rolling four-activate window
//!   that throttles bank-level parallelism;
//! * **a shared per-channel data bus** — which imposes the channel
//!   bandwidth ceiling that makes DLRM bandwidth-bound in the first place;
//! * **refresh** — periodic tREFI/tRFC blackouts;
//! * **configurable address interleaving** — cache-line vs row granularity
//!   across channels and banks.
//!
//! The model is read-only. SLS inference only reads embedding rows, and
//! page migration is costed analytically (`pagemgmt`), so no run issues
//! a DRAM write and the write timings (tWR, tCWL) are not modelled.
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
//! use memsim::{DramConfig, DramDevice};
//! use simkit::SimTime;
//!
//! let mut dev = DramDevice::new(DramConfig::ddr5_4800_local());
//! let done = dev.access(SimTime::ZERO, 0x4000);
//! assert!(done > SimTime::ZERO);
//! ```

#![warn(missing_docs)]

pub mod addrmap;
pub mod bank;
pub mod channel;
pub mod config;
pub mod device;

pub use addrmap::{LineDecoder, Location};
pub use config::{DramConfig, DramOrg, DramTimings};
pub use device::{DramDevice, DramStats};
