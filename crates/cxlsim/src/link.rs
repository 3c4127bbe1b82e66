//! FlexBus link model and the shared CXL latency parameters.

use serde::{Deserialize, Serialize};
use simkit::{BandwidthLink, SimDuration, SimTime};

/// Latency/bandwidth parameters of the CXL fabric, from Table II and the
/// profiling numbers quoted in §IV-A4 ("fetching a single address from
/// memory pools can take up to 270 ns, with approximately 37 % attributed
/// to frequent CXL I/O port transfers and retimer delays").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CxlParams {
    /// Link bandwidth in GB/s (PCIe 5.0 ×16 ≈ 64 GB/s, Table II).
    pub link_gbps: u64,
    /// One-way I/O port + retimer latency per link hop, ns. Two hops per
    /// direction (host↔switch, switch↔device) make the round trip carry
    /// 4× this value, yielding the ~100 ns CXL penalty of Table II.
    pub port_latency_ns: u64,
    /// Fabric switch transit (routing + VCS arbitration), ns.
    pub switch_transit_ns: u64,
    /// Additional inter-switch hop latency in scaled-out fabrics
    /// (§VI-C4 adds "an extra 100 ns ... between them").
    pub inter_switch_ns: u64,
}

impl Default for CxlParams {
    fn default() -> Self {
        CxlParams {
            link_gbps: 64,
            port_latency_ns: 20,
            switch_transit_ns: 10,
            inter_switch_ns: 100,
        }
    }
}

impl CxlParams {
    /// The fixed one-way latency host → device through one switch.
    pub fn one_way_ns(&self) -> u64 {
        2 * self.port_latency_ns + self.switch_transit_ns
    }

    /// The fixed round-trip fabric latency (excluding serialization and
    /// DRAM), which Table II pins near 100 ns.
    pub fn round_trip_ns(&self) -> u64 {
        2 * self.one_way_ns()
    }
}

/// A FlexBus link: a [`BandwidthLink`] at PCIe 5.0 ×16 rates with
/// port/retimer propagation.
///
/// # Examples
///
/// ```
/// use cxlsim::{CxlParams, FlexBusLink};
/// use simkit::SimTime;
///
/// let mut bus = FlexBusLink::new(&CxlParams::default());
/// let done = bus.transfer(SimTime::ZERO, 64);
/// assert!(done.as_ns() >= 20); // port latency dominates a single flit
/// ```
#[derive(Debug, Clone)]
pub struct FlexBusLink {
    inner: BandwidthLink,
}

impl FlexBusLink {
    /// Creates an idle link with `params` rates.
    pub fn new(params: &CxlParams) -> Self {
        FlexBusLink {
            inner: BandwidthLink::from_gbps(params.link_gbps, params.port_latency_ns),
        }
    }

    /// Enqueues a transfer of `bytes`; returns delivery time at the far
    /// end. Transfers serialize, modeling flex-bus congestion.
    #[inline]
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        simkit::stats::record_events(1);
        self.inner.transfer(now, bytes)
    }

    /// Batched arbitration for `n` equal flits issued `gap` apart,
    /// starting at `first`: appends each flit's delivery time to `out`
    /// (cleared first). Identical link state and results to `n`
    /// sequential [`transfer`](Self::transfer) calls — see
    /// [`simkit::BandwidthLink::transfer_batch_into`].
    pub fn transfer_batch_into(
        &mut self,
        first: SimTime,
        gap: SimDuration,
        bytes: u64,
        n: usize,
        out: &mut Vec<SimTime>,
    ) {
        simkit::stats::record_events(n as u64);
        self.inner.transfer_batch_into(first, gap, bytes, n, out);
    }

    /// Total bytes pushed through the link.
    pub fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }

    /// Fraction of `[0, horizon]` spent transmitting.
    pub fn utilization(&self, horizon: SimDuration) -> f64 {
        self.inner.utilization(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_round_trip_is_about_100ns() {
        let p = CxlParams::default();
        assert_eq!(p.round_trip_ns(), 100);
    }

    #[test]
    fn congestion_serializes_transfers() {
        let p = CxlParams::default();
        let mut bus = FlexBusLink::new(&p);
        // 64 GB/s ⇒ 6400 bytes serialize in 100 ns.
        let first = bus.transfer(SimTime::ZERO, 6400);
        let second = bus.transfer(SimTime::ZERO, 6400);
        assert_eq!(first.as_ns(), 100 + p.port_latency_ns);
        assert_eq!(second.as_ns(), 200 + p.port_latency_ns);
    }

    #[test]
    fn utilization_reflects_load() {
        let p = CxlParams::default();
        let mut bus = FlexBusLink::new(&p);
        bus.transfer(SimTime::ZERO, 6400); // 100 ns busy
        let u = bus.utilization(SimDuration::from_ns(200));
        assert!((u - 0.5).abs() < 1e-9);
    }
}
