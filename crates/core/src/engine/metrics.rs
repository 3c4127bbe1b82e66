//! Run-level measurement: the [`RunMetrics`] every figure harness
//! reports, and the measurement window that builds them, whose counter
//! offsets let a run measure steady state only.

#![deny(missing_docs)]

use super::topology::Plant;

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
    /// to FP32 reassociation): each bag's f32 result, folded after the
    /// timing stages in its compute site's order and summed exactly in
    /// f64, then added in bag order. `0.0` for a timing-only run,
    /// which folds no values: a
    /// [`SlsSystem::run_trace_timing`](crate::system::SlsSystem::run_trace_timing)
    /// run, and a cluster node, whose cluster's checksums are the
    /// functional plane
    /// ([`ClusterMetrics::checksum`](crate::engine::cluster::ClusterMetrics::checksum)).
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

/// The plant's cumulative switch and host counters.
#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    stalls: u64,
    hits: u64,
    misses: u64,
    link_bytes: u64,
}

impl Totals {
    fn of(plant: &Plant) -> Totals {
        let mut t = Totals::default();
        for s in &plant.switches {
            t.stalls += s.engine.stalls;
            if let Some(b) = &s.buffer {
                t.hits += b.hits();
                t.misses += b.misses();
            }
        }
        for h in &plant.hosts {
            if let Some(b) = &h.dimm_cache {
                t.hits += b.hits();
                t.misses += b.misses();
            }
            t.link_bytes += h.req_link.total_bytes() + h.rsp_link.total_bytes();
        }
        t
    }
}

/// Cumulative hardware counters captured when a measurement window
/// opens, so the window reports only what happened inside it.
#[derive(Debug, Default, Clone)]
struct CounterOffsets {
    totals: Totals,
    /// Per-device access counts.
    devices: Vec<u64>,
}

impl CounterOffsets {
    /// Records the plant's current cumulative counters, refilling the
    /// per-device buffer in place.
    fn capture(&mut self, plant: &Plant) {
        self.totals = Totals::of(plant);
        self.devices.clear();
        self.devices
            .extend(plant.devices.iter().map(|d| d.access_count()));
    }

    /// Folds the plant's counters since the capture into `metrics`.
    fn finish(&self, plant: &Plant, metrics: &mut RunMetrics) {
        let now = Totals::of(plant);
        metrics.ooo_stalls += now.stalls - self.totals.stalls;
        metrics.buffer_hits += now.hits - self.totals.hits;
        metrics.buffer_misses += now.misses - self.totals.misses;
        metrics.host_link_bytes += now.link_bytes - self.totals.link_bytes;
        metrics.device_accesses = plant
            .devices
            .iter()
            .zip(&self.devices)
            .map(|(d, &off)| d.access_count() - off)
            .collect();
    }
}

/// One measurement window of a run: the [`RunMetrics`] under
/// construction, the counters at the window's opening, the summed bag
/// latency behind [`RunMetrics::mean_bag_ns`], and whether the run
/// measures its functional checksum.
///
/// A closed-loop run opens one and reopens it when warmup ends; an
/// open-loop session opens one at begin and closes it at finish.
#[derive(Debug, Default, Clone)]
pub(crate) struct MeasureWindow {
    /// Metrics under construction.
    pub metrics: RunMetrics,
    /// Sum of per-bag latencies, ns.
    pub bag_latency_sum: u128,
    /// Whether each bag's values fold into `metrics.checksum`, one
    /// `fold_bag` call after the bag's timing stages: set at opening,
    /// cleared for a timing-only run (a cluster node, whose functional
    /// plane is its cluster's, or a `run_trace_timing` run); reopening
    /// keeps it.
    pub fold: bool,
    offsets: CounterOffsets,
}

impl MeasureWindow {
    /// Opens a window at the plant's current state, measuring the
    /// checksum too.
    pub(crate) fn open(plant: &Plant) -> MeasureWindow {
        let mut w = MeasureWindow {
            fold: true,
            ..MeasureWindow::default()
        };
        w.reopen(plant);
        w
    }

    /// Restarts the window at the plant's current state: everything
    /// measured so far is dropped, and the offsets are recaptured into
    /// their existing buffer.
    pub(crate) fn reopen(&mut self, plant: &Plant) {
        self.metrics = RunMetrics::default();
        self.bag_latency_sum = 0;
        self.offsets.capture(plant);
    }

    /// Closes the window with makespan `total_ns`: the device, switch
    /// and host counters since the opening, and the mean bag latency.
    pub(crate) fn close(self, plant: &Plant, total_ns: u64) -> RunMetrics {
        let mut m = self.metrics;
        m.total_ns = total_ns;
        self.offsets.finish(plant, &mut m);
        m.mean_bag_ns = if m.bags == 0 {
            0.0
        } else {
            self.bag_latency_sum as f64 / m.bags as f64
        };
        m
    }
}
