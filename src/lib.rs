//! `pifs-rec` — a from-scratch Rust reproduction of *PIFS-Rec:
//! Process-In-Fabric-Switch for Large-Scale Recommendation System
//! Inferences* (MICRO 2024).
//!
//! PIFS-Rec accelerates the bandwidth-bound embedding stage of DLRM
//! inference by executing SparseLengthSum accumulation inside the CXL
//! fabric switch, next to pooled Type 3 memory, combined with tiered-
//! memory page management and an on-switch SRAM row buffer.
//!
//! This facade re-exports the whole workspace:
//!
//! * [`pifs_core`] — the process core (the in-switch accumulation fold
//!   with multi-switch forwarding, the OoO engine, the HTR buffer) and
//!   the full-system simulator;
//! * [`cxlsim`] / [`memsim`] — the CXL fabric and DDR timing substrates;
//! * [`dlrm`] / [`tracegen`] — the workload;
//! * [`pagemgmt`] — the tiered-memory software layer;
//! * [`baselines`] — Pond, BEACON-S, RecNMP and the GPU roofline;
//! * [`tco`] — cost/power/energy models.
//!
//! # Examples
//!
//! ```
//! use pifs_rec::prelude::*;
//!
//! let model = ModelConfig::rmc1().scaled_down(16);
//! let trace = TraceSpec {
//!     distribution: Distribution::Uniform,
//!     n_tables: model.n_tables,
//!     rows_per_table: model.emb_num,
//!     batch_size: 4,
//!     n_batches: 2,
//!     bag_size: model.bag_size,
//!     seed: 1,
//! }
//! .generate();
//! let metrics = SlsSystem::new(SystemConfig::pifs_rec(model)).run_trace(&trace);
//! assert!(metrics.total_ns > 0);
//! ```

pub use baselines;
pub use cxlsim;
pub use dlrm;
pub use memsim;
pub use pagemgmt;
pub use pifs_core;
pub use simkit;
pub use tco;
pub use tracegen;

pub use pifs_core::system::{
    BufferConfig, ComputeSite, PmConfig, PmStyle, RunMetrics, ShedPolicy, SlsSystem, SystemConfig,
};
pub use pifs_core::{BufferPolicy, ClusterConfig, ClusterMetrics, ShardPolicy, SlsCluster};
pub use simkit::{FaultSchedule, FaultSpec};

/// The most common imports for driving the simulator.
pub mod prelude {
    pub use baselines::Scheme;
    pub use dlrm::ModelConfig;
    pub use pifs_core::engine::cluster::{ClusterConfig, ShardPolicy, SlsCluster};
    pub use pifs_core::system::{RunMetrics, ShedPolicy, SlsSystem, SystemConfig};
    pub use simkit::{FaultSchedule, FaultSpec};
    pub use tracegen::{ArrivalProcess, Distribution, TraceSpec};
}
