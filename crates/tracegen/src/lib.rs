//! `tracegen` — embedding-access trace generation.
//!
//! The paper evaluates on the open-source Meta DLRM traces plus four
//! synthetic distribution families (Fig 12(b): Zipfian, Normal, Uniform,
//! Random). The production traces are not redistributable here, so
//! [`Distribution::MetaLike`] synthesizes a trace with the properties the
//! paper actually exploits: heavy skew (a small hot set absorbing most
//! accesses, which the on-switch buffer's HTR policy caches) and
//! short-range temporal reuse (§IV-A4's "temporal locality observed in
//! specific embedding tables").
//!
//! # Examples
//!
//! ```
//! use tracegen::{Distribution, TraceSpec};
//!
//! let spec = TraceSpec {
//!     distribution: Distribution::Zipfian { s: 0.9 },
//!     n_tables: 4,
//!     rows_per_table: 1000,
//!     batch_size: 16,
//!     n_batches: 2,
//!     bag_size: 8,
//!     seed: 42,
//! };
//! let trace = spec.generate();
//! assert_eq!(trace.batches.len(), 2);
//! assert_eq!(trace.total_lookups(), 2 * 16 * 4 * 8);
//! ```

#![warn(missing_docs)]

pub mod arrival;
pub mod dist;
pub mod stream;
pub mod tenant;
pub mod trace;

pub use arrival::{ArrivalGen, ArrivalProcess};
pub use dist::Distribution;
pub use stream::{QueryStream, QueryStreamSpec};
pub use tenant::{QosClass, TenantMixStream, TenantSpec};
pub use trace::{Batch, TableLookups, Trace, TraceSpec};
