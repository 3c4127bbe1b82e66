//! `dlrm` — the Deep Learning Recommendation Model being accelerated.
//!
//! The paper's Fig 1 pipeline has four stages: Bottom MLP over dense
//! features, embedding lookup (SparseLengthSum, SLS) over sparse features,
//! feature interaction, and Top MLP producing the click-through rate.
//! SLS is the bandwidth-bound stage PIFS-Rec moves into the fabric
//! switch; the MLP stages matter for the end-to-end speedups of Fig 14
//! and the GPU comparison of Fig 16/17.
//!
//! This crate provides:
//!
//! * [`ModelConfig`] — the Table I model zoo (RMC1–RMC4);
//! * [`EmbeddingTable`] — address layout plus *procedural* row values, so
//!   functional SLS results are verifiable without materializing
//!   multi-GB tables;
//! * [`sls`] — the reference SparseLengthSum kernel every compute
//!   placement (host, switch, DIMM) must agree with bit-for-bit;
//! * [`query`] — batch- vs table-threading work partitioning (Fig 4).
//!
//! # Examples
//!
//! ```
//! use dlrm::{ModelConfig, EmbeddingTable};
//!
//! let cfg = ModelConfig::rmc1();
//! let table = EmbeddingTable::new(0, cfg.emb_num, cfg.emb_dim, 0);
//! let out = dlrm::sls::sls_reference(&table, &[1, 2, 3], None);
//! assert_eq!(out.len(), cfg.emb_dim as usize);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod embedding;
pub mod query;
pub mod sls;

pub use config::{MlpShape, ModelConfig};
pub use embedding::EmbeddingTable;
pub use query::{ThreadingMode, WorkItem};
