//! Run-level measurement: the [`RunMetrics`] every figure harness
//! reports, plus the warmup counter-offset bookkeeping that lets a run
//! measure steady state only.

#![deny(missing_docs)]

use super::topology::{HostCtx, SwitchCtx};

/// Everything a run measures.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// End-to-end makespan of the trace (including exposed migration
    /// overhead), ns.
    pub total_ns: u64,
    /// SLS bags processed.
    pub bags: u64,
    /// Row lookups performed.
    pub lookups: u64,
    /// Lookups served from local DRAM.
    pub local_lookups: u64,
    /// Lookups served from the remote socket.
    pub remote_lookups: u64,
    /// Lookups served over CXL.
    pub cxl_lookups: u64,
    /// On-switch buffer hits (0 when no buffer).
    pub buffer_hits: u64,
    /// On-switch buffer misses.
    pub buffer_misses: u64,
    /// Per-device access counts (Fig 13(b)).
    pub device_accesses: Vec<u64>,
    /// Page migrations performed.
    pub migrations: u64,
    /// Exposed migration overhead, ns.
    pub migration_ns: u64,
    /// In-order accumulation stalls.
    pub ooo_stalls: u64,
    /// Bytes over the host↔switch links.
    pub host_link_bytes: u64,
    /// Functional checksum of every bag result (placement-independent up
    /// to FP32 reassociation).
    pub checksum: f64,
    /// Mean bag latency, ns.
    pub mean_bag_ns: f64,
}

impl RunMetrics {
    /// Application bandwidth: embedding bytes touched per wall-clock
    /// second, in GB/s (the Fig 5/6 y-axis before normalization).
    pub fn app_bandwidth_gbps(&self, row_bytes: u64) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            (self.lookups * row_bytes) as f64 / self.total_ns as f64
        }
    }

    /// Buffer hit ratio.
    pub fn buffer_hit_ratio(&self) -> f64 {
        let t = self.buffer_hits + self.buffer_misses;
        if t == 0 {
            0.0
        } else {
            self.buffer_hits as f64 / t as f64
        }
    }

    /// Migration overhead as a fraction of total latency (Fig 13(a)
    /// right axis).
    pub fn migration_cost_frac(&self) -> f64 {
        if self.total_ns == 0 {
            0.0
        } else {
            self.migration_ns as f64 / self.total_ns as f64
        }
    }
}

/// Cumulative hardware counters captured at the warmup boundary so the
/// measured window reports only steady-state activity.
#[derive(Debug, Default, Clone)]
pub(crate) struct CounterOffsets {
    stalls: u64,
    hits: u64,
    misses: u64,
    link_bytes: u64,
}

impl CounterOffsets {
    /// Records the current cumulative counters of every switch and host.
    pub(crate) fn capture(switches: &[SwitchCtx], hosts: &[HostCtx]) -> Self {
        let mut off = CounterOffsets::default();
        for s in switches {
            off.stalls += s.engine.stalls;
            if let Some(b) = &s.buffer {
                off.hits += b.hits();
                off.misses += b.misses();
            }
        }
        for h in hosts {
            if let Some(b) = &h.dimm_cache {
                off.hits += b.hits();
                off.misses += b.misses();
            }
            off.link_bytes += h.req_link.total_bytes() + h.rsp_link.total_bytes();
        }
        off
    }

    /// Folds the end-of-run cumulative counters into `metrics`,
    /// subtracting everything that happened before the capture point.
    pub(crate) fn finish(
        &self,
        switches: &[SwitchCtx],
        hosts: &[HostCtx],
        metrics: &mut RunMetrics,
    ) {
        let now = Self::capture(switches, hosts);
        metrics.ooo_stalls += now.stalls - self.stalls;
        metrics.buffer_hits += now.hits - self.hits;
        metrics.buffer_misses += now.misses - self.misses;
        metrics.host_link_bytes += now.link_bytes - self.link_bytes;
    }
}
