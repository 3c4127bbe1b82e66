//! `pifs-core` — Process-In-Fabric-Switch for Recommendation systems.
//!
//! This crate is the paper's primary contribution: a near-data processing
//! layer living inside the CXL fabric switch that executes DLRM
//! SparseLengthSum (SLS) accumulations next to pooled Type 3 memory,
//! plus the full-system simulator that evaluates it against host-compute
//! (Pond), switch-compute-without-management (BEACON) and DIMM-compute
//! (RecNMP) alternatives.
//!
//! Hardware blocks (§IV-A):
//!
//! * [`instrflow`] — the MemOpcode checker that lets standard CXL
//!   traffic bypass the process core untouched;
//! * [`ooo`] — the out-of-order accumulation engine with swap registers;
//! * [`buffer`] — the on-switch SRAM buffer with the Hottest-Recording
//!   (HTR) replacement policy, plus LRU/FIFO for comparison.
//!
//! The rest of the process core lives in one fold, the switch-compute
//! path of [`engine::pipeline`]. Each bag opens one accumulation
//! cluster and closes it in the same call. The ACR's
//! `SumCandidateCounter` is the bag's CXL row count. IIR matching is
//! the per-row fetch (buffer first) feeding the accumulate engine.
//! Multi-layer forwarding (§IV-C) splits the rows into one sub-cluster
//! per switch homing their devices, with the CNV = 0 fallback to the
//! local switch. The partials are summed in group order, and the result
//! is ready once the slowest one lands.
//!
//! The [`system`] module composes these with the substrate crates
//! (`memsim`, `cxlsim`, `pagemgmt`, `dlrm`, `tracegen`) into a runnable
//! end-to-end model; every figure harness in `pifs-bench` drives
//! [`system::SlsSystem`].
//!
//! # Examples
//!
//! ```
//! use pifs_core::system::{SlsSystem, SystemConfig};
//! use tracegen::{Distribution, TraceSpec};
//!
//! let cfg = SystemConfig::pifs_rec_default();
//! let trace = TraceSpec {
//!     distribution: Distribution::MetaLike { reuse_frac: 0.35, s: 1.05 },
//!     n_tables: cfg.model.n_tables,
//!     rows_per_table: cfg.model.emb_num,
//!     batch_size: 8,
//!     n_batches: 2,
//!     bag_size: cfg.model.bag_size,
//!     seed: 1,
//! }.generate();
//! let metrics = SlsSystem::new(cfg).run_trace(&trace);
//! assert!(metrics.total_ns > 0);
//! ```

#![warn(missing_docs)]

pub mod buffer;
pub mod engine;
pub mod instrflow;
pub mod ooo;
pub mod system;

pub use buffer::{BufferPolicy, OnSwitchBuffer};
pub use engine::checkpoint::SimCheckpoint;
pub use engine::cluster::{ClusterConfig, ClusterMetrics, ShardPolicy, SlsCluster};
pub use instrflow::{check_memopcode, InstrRoute};
pub use ooo::{AccumEngine, ClusterId};
pub use system::{ComputeSite, RunMetrics, SlsSystem, SystemConfig};
