//! FlexBus link model and the shared CXL latency parameters.
//!
//! A link is a serialized medium: it transmits one payload at a time at
//! a fixed byte rate, plus a fixed propagation latency. Transfers queue
//! behind each other, which is how flex-bus congestion (§III "risk of
//! flex bus congestion under heavy memory traffic") shows up in the
//! simulation.

use serde::{Deserialize, Serialize};
use simkit::{SimDuration, SimTime};

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

/// A FlexBus link at PCIe 5.0 ×16 rates with port/retimer propagation:
/// transfers reserve the medium in call order, each holding it for its
/// serialization delay and arriving one propagation latency later.
///
/// Bandwidth is kept in bytes per 1024 ns, so realistic rates (tens of
/// GB/s) stay in integer arithmetic with sub-byte rounding error.
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
/// // Same instant: reserved behind the first flit's one-ns serialization.
/// assert_eq!(bus.transfer(SimTime::ZERO, 64).as_ns(), done.as_ns() + 1);
/// ```
#[derive(Debug, Clone)]
pub struct FlexBusLink {
    /// Bytes transferred per 1024 ns.
    bytes_per_1024ns: u64,
    /// Fixed propagation latency added to every transfer.
    propagation: SimDuration,
    /// Time at which the medium becomes free.
    busy_until: SimTime,
    /// Total bytes ever pushed through the link.
    total_bytes: u64,
}

impl FlexBusLink {
    /// Creates an idle link with `params` rates: `link_gbps` gigabytes
    /// per second and `port_latency_ns` of propagation.
    ///
    /// # Panics
    ///
    /// Panics if `params.link_gbps` is zero.
    pub fn new(params: &CxlParams) -> Self {
        assert!(params.link_gbps > 0, "link bandwidth must be positive");
        // 1 GB/s = 1 byte/ns ⇒ 1024 bytes per 1024 ns.
        FlexBusLink {
            bytes_per_1024ns: params.link_gbps * 1024,
            propagation: SimDuration::from_ns(params.port_latency_ns),
            busy_until: SimTime::ZERO,
            total_bytes: 0,
        }
    }

    /// Serialization time for a payload of `bytes` on this link.
    #[inline]
    pub fn serialization_delay(&self, bytes: u64) -> SimDuration {
        // ceil(bytes * 1024 / bytes_per_1024ns) nanoseconds.
        SimDuration::from_ns((bytes * 1024).div_ceil(self.bytes_per_1024ns))
    }

    /// Enqueues a transfer of `bytes` arriving at the link at `now`;
    /// returns the time the last byte (plus propagation) reaches the far
    /// end. Transfers are serviced in call order.
    #[inline]
    pub fn transfer(&mut self, now: SimTime, bytes: u64) -> SimTime {
        simkit::stats::record_events(1);
        let start = now.max(self.busy_until);
        self.busy_until = start + self.serialization_delay(bytes);
        self.total_bytes += bytes;
        self.busy_until + self.propagation
    }

    /// Arbitrates a whole batch of equal-sized transfers in one call:
    /// flit `i` arrives at the link at `first + i × gap`, and its
    /// delivery time is appended to `out` (which is cleared first).
    ///
    /// The link state and every returned instant are identical to `n`
    /// sequential [`transfer`](Self::transfer) calls — the batch claims
    /// the medium once per issue tick instead of re-entering arbitration
    /// per flit, which keeps the serialization cursor in a register
    /// across the whole burst.
    pub fn transfer_batch_into(
        &mut self,
        first: SimTime,
        gap: SimDuration,
        bytes: u64,
        n: usize,
        out: &mut Vec<SimTime>,
    ) {
        simkit::stats::record_events(n as u64);
        out.clear();
        out.reserve(n);
        let ser = self.serialization_delay(bytes);
        let mut arrive = first;
        let mut busy = self.busy_until;
        for _ in 0..n {
            let start = arrive.max(busy);
            busy = start + ser;
            out.push(busy + self.propagation);
            arrive += gap;
        }
        self.busy_until = busy;
        self.total_bytes += bytes * n as u64;
    }

    /// Total bytes pushed through the link.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A link of `gbps` GB/s (= B/ns) with `port_ns` of propagation.
    fn link(gbps: u64, port_ns: u64) -> FlexBusLink {
        FlexBusLink::new(&CxlParams {
            link_gbps: gbps,
            port_latency_ns: port_ns,
            ..CxlParams::default()
        })
    }

    #[test]
    fn default_round_trip_is_about_100ns() {
        let p = CxlParams::default();
        assert_eq!(p.round_trip_ns(), 100);
    }

    #[test]
    fn serialization_matches_rate() {
        // 64 GB/s = 64 B/ns ⇒ 6400 bytes take 100 ns.
        assert_eq!(link(64, 0).serialization_delay(6400).as_ns(), 100);
    }

    #[test]
    fn serialization_rounds_up() {
        let l = link(64, 0);
        assert_eq!(l.serialization_delay(1).as_ns(), 1);
        assert_eq!(l.serialization_delay(65).as_ns(), 2);
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
    fn transfers_queue_behind_each_other() {
        let mut l = link(1, 0); // 1 B/ns
        assert_eq!(l.transfer(SimTime::ZERO, 100).as_ns(), 100);
        assert_eq!(l.transfer(SimTime::ZERO, 100).as_ns(), 200);
    }

    #[test]
    fn idle_gap_is_not_charged() {
        let mut l = link(1, 0);
        assert_eq!(l.transfer(SimTime::ZERO, 10).as_ns(), 10);
        // Arrives long after the link went idle.
        assert_eq!(l.transfer(SimTime::from_ns(1000), 10).as_ns(), 1010);
    }

    #[test]
    fn propagation_adds_latency_but_not_occupancy() {
        let mut l = link(1, 50);
        // 10 ns serialize + 50 ns fly time.
        assert_eq!(l.transfer(SimTime::ZERO, 10).as_ns(), 60);
        // The next transfer starts as soon as serialization ends
        // (pipelined).
        assert_eq!(l.transfer(SimTime::ZERO, 10).as_ns(), 70);
    }

    #[test]
    fn batched_arbitration_matches_sequential_transfers() {
        // The batch path must be indistinguishable from per-flit calls:
        // same delivery times, same busy window, same accounting. Use a
        // gap smaller than the serialization time so flits queue. A
        // probe transfer at time zero starts when the medium frees up,
        // so equal probe deliveries mean equal busy windows.
        let mk = || {
            let mut l = link(1, 7); // 1 B/ns + 7 ns fly
            l.transfer(SimTime::ZERO, 25); // pre-existing occupancy
            l
        };
        let mut seq = mk();
        let mut expect = Vec::new();
        for i in 0..10u64 {
            expect.push(seq.transfer(SimTime::from_ns(10 + i * 3), 16));
        }
        let mut batch = mk();
        let mut got = Vec::new();
        batch.transfer_batch_into(
            SimTime::from_ns(10),
            SimDuration::from_ns(3),
            16,
            10,
            &mut got,
        );
        assert_eq!(got, expect);
        assert_eq!(batch.total_bytes(), seq.total_bytes());
        // Empty batches change nothing.
        batch.transfer_batch_into(SimTime::ZERO, SimDuration::ZERO, 16, 0, &mut got);
        assert!(got.is_empty());
        assert_eq!(batch.total_bytes(), seq.total_bytes());
        let probe = batch.transfer(SimTime::ZERO, 1);
        assert_eq!(probe, seq.transfer(SimTime::ZERO, 1));
        assert_eq!(probe, *expect.last().unwrap() + SimDuration::from_ns(1));
    }

    #[test]
    fn accounting_tracks_bytes() {
        let mut l = link(1, 0);
        l.transfer(SimTime::ZERO, 25);
        l.transfer(SimTime::ZERO, 75);
        assert_eq!(l.total_bytes(), 100);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = link(0, 0);
    }
}
