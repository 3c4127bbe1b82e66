//! `cxlsim` — a CXL 2.0/3.0 fabric substrate model.
//!
//! The paper builds PIFS-Rec on three CXL ingredients (§II-B): the
//! FlexBus/PCIe physical layer, the fabric switch that every multi-node
//! CXL topology must route through, and Type 3 (memory-only) devices.
//! This crate models all three plus the instruction format the paper
//! modifies (Fig 9):
//!
//! * [`FlexBusLink`] — a 64 GB/s (PCIe 5.0 ×16) serialized link with
//!   port/retimer latency, so flex-bus congestion appears under load;
//! * [`M2sReq`] / [`MemOpcode`] — bit-exact encode/decode of the enhanced
//!   CXL.mem M2S request, including the paper's added `sumtag`,
//!   `vectorsize` and `SumCandidateCount` fields;
//! * [`Type3Device`] — a DDR4 expander behind a downstream port
//!   ([`memsim::DramDevice`] plus link serialization);
//! * [`FabricSwitch`] — the VCS transit delay every message pays and the
//!   CNV bit marking a switch with a process core;
//! * [`Topology`] — the multi-switch fabric of §IV-C: round-robin device
//!   and host homes and the inter-switch hop latency.
//!
//! # Examples
//!
//! ```
//! use cxlsim::{CxlParams, Type3Device};
//! use simkit::SimTime;
//!
//! let mut dev = Type3Device::new(CxlParams::default());
//! let done = dev.read(SimTime::ZERO, 0x1000, 64);
//! // The device-side round trip alone (two port hops + DDR4 access) costs
//! // tens of ns; the host↔switch hops add the rest of the ~100 ns penalty.
//! assert!(done.as_ns() >= 60);
//! ```

#![warn(missing_docs)]

pub mod instr;
pub mod link;
pub mod opcode;
pub mod switch;
pub mod topology;
pub mod type3;

pub use instr::M2sReq;
pub use link::{CxlParams, FlexBusLink};
pub use opcode::MemOpcode;
pub use switch::FabricSwitch;
pub use topology::{SwitchId, Topology};
pub use type3::Type3Device;
