//! The layered execution engine behind [`SlsSystem`](crate::system::SlsSystem).
//!
//! The full-system simulator is decomposed into five layers, each its
//! own module, so that scaling work (sharding, batching, async issue,
//! alternative backends) can replace one layer without touching the
//! others:
//!
//! * [`config`] — the scheme matrix: [`SystemConfig`](config::SystemConfig)
//!   and the Pond / BEACON / RecNMP / PIFS-Rec constructors;
//! * [`topology`] — the physical plant (hosts, switches, devices,
//!   remote socket) and its construction from a config;
//! * [`pipeline`] — the per-query request→forward→DRAM→accumulate path
//!   as four timing stages called in order, then one functional fold
//!   per bag (the in-switch sub-cluster merge included);
//! * [`pagemgmt_epoch`] — epoch-boundary page management (§IV-B) and
//!   the TPP baseline;
//! * [`serving`] — the open-loop serving layer: timestamped query
//!   queue, the fill/max-wait [`QueryBatcher`](serving::QueryBatcher),
//!   and streaming tail-latency accounting;
//! * [`controller`] — deterministic adaptive serving controllers: the
//!   pluggable [`ControllerPolicy`](controller::ControllerPolicy) that
//!   retunes the batching knobs and the page-management epoch cadence
//!   from sim-time-visible load and hotness-churn signals;
//! * [`metrics`] — [`RunMetrics`](metrics::RunMetrics) and the warmup
//!   counter-offset bookkeeping;
//! * [`cluster`] — cluster-scale sharded serving: N nodes behind a
//!   router, pluggable row→shard placement, and the exact (bitwise
//!   shard-count-invariant) partial-sum merge;
//! * [`checkpoint`] — deep-copy [`SimCheckpoint`](checkpoint::SimCheckpoint)
//!   snapshots of a streaming serving run, for sweep warm-starts proven
//!   state-identical to straight-through execution.
//!
//! The [`system`](crate::system) module composes these into the public
//! façade; its API (`SlsSystem`, `SystemConfig`, `RunMetrics`, the
//! scheme constructors) is unchanged by the layering.

#![deny(missing_docs)]

pub mod checkpoint;
pub mod cluster;
pub mod config;
pub mod controller;
pub mod metrics;
pub mod pagemgmt_epoch;
pub mod pipeline;
pub mod serving;
pub mod topology;
