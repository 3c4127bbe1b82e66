//! Bandwidth-limited link model.
//!
//! Models any serialized shared medium — a FlexBus x16 lane bundle, a DIMM
//! data bus, a switch egress port — as a resource that transmits one
//! payload at a time at a fixed byte rate plus a fixed propagation latency.
//! Transfers queue behind each other, which is how flex-bus congestion
//! (§III "risk of flex bus congestion under heavy memory traffic")
//! manifests in the simulation.

use crate::time::{SimDuration, SimTime};

/// A point-to-point link with finite bandwidth and fixed propagation delay.
///
/// Bandwidth is expressed in bytes per 1024 ns ("per µs-ish") so that
/// realistic rates (tens of GB/s) stay in integer arithmetic with sub-byte
/// rounding error.
///
/// # Examples
///
/// ```
/// use simkit::{BandwidthLink, SimTime};
///
/// // 64 GB/s ≈ 64 B/ns, no propagation delay.
/// let mut link = BandwidthLink::from_gbps(64, 0);
/// let done1 = link.transfer(SimTime::ZERO, 64);
/// let done2 = link.transfer(SimTime::ZERO, 64);
/// assert_eq!(done1.as_ns(), 1);
/// assert_eq!(done2.as_ns(), 2); // serialized behind the first transfer
/// ```
#[derive(Debug, Clone)]
pub struct BandwidthLink {
    /// Bytes transferred per 1024 ns.
    bytes_per_1024ns: u64,
    /// Fixed propagation latency added to every transfer.
    propagation: SimDuration,
    /// Time at which the medium becomes free.
    busy_until: SimTime,
    /// Total bytes ever pushed through the link.
    total_bytes: u64,
    /// Total time the medium spent busy.
    busy_time: SimDuration,
}

impl BandwidthLink {
    /// Creates a link carrying `gb_per_s` gigabytes per second with
    /// `propagation_ns` nanoseconds of fixed latency.
    ///
    /// # Panics
    ///
    /// Panics if `gb_per_s` is zero.
    pub fn from_gbps(gb_per_s: u64, propagation_ns: u64) -> Self {
        assert!(gb_per_s > 0, "link bandwidth must be positive");
        // 1 GB/s = 1 byte/ns ⇒ 1024 bytes per 1024 ns.
        BandwidthLink {
            bytes_per_1024ns: gb_per_s * 1024,
            propagation: SimDuration::from_ns(propagation_ns),
            busy_until: SimTime::ZERO,
            total_bytes: 0,
            busy_time: SimDuration::ZERO,
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
        let start = now.max(self.busy_until);
        let ser = self.serialization_delay(bytes);
        self.busy_until = start + ser;
        self.total_bytes += bytes;
        self.busy_time += ser;
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
        if n > 0 {
            self.busy_until = busy;
            self.total_bytes += bytes * n as u64;
            self.busy_time += SimDuration::from_ns(ser.as_ns() * n as u64);
        }
    }

    /// Earliest time a new transfer submitted now could begin.
    pub fn free_at(&self) -> SimTime {
        self.busy_until
    }

    /// Fixed propagation latency of the link.
    pub fn propagation(&self) -> SimDuration {
        self.propagation
    }

    /// Total bytes pushed through the link so far.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Fraction of `[0, horizon]` the medium spent transmitting.
    pub fn utilization(&self, horizon: SimDuration) -> f64 {
        if horizon.as_ns() == 0 {
            0.0
        } else {
            self.busy_time.as_ns() as f64 / horizon.as_ns() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_matches_rate() {
        let link = BandwidthLink::from_gbps(64, 0);
        // 64 GB/s = 64 B/ns ⇒ 6400 bytes take 100 ns.
        assert_eq!(link.serialization_delay(6400).as_ns(), 100);
    }

    #[test]
    fn serialization_rounds_up() {
        let link = BandwidthLink::from_gbps(64, 0);
        assert_eq!(link.serialization_delay(1).as_ns(), 1);
        assert_eq!(link.serialization_delay(65).as_ns(), 2);
    }

    #[test]
    fn transfers_queue_behind_each_other() {
        let mut link = BandwidthLink::from_gbps(1, 0); // 1 B/ns
        let a = link.transfer(SimTime::ZERO, 100);
        let b = link.transfer(SimTime::ZERO, 100);
        assert_eq!(a.as_ns(), 100);
        assert_eq!(b.as_ns(), 200);
    }

    #[test]
    fn idle_gap_is_not_charged() {
        let mut link = BandwidthLink::from_gbps(1, 0);
        let a = link.transfer(SimTime::ZERO, 10);
        assert_eq!(a.as_ns(), 10);
        // Arrives long after the link went idle.
        let b = link.transfer(SimTime::from_ns(1000), 10);
        assert_eq!(b.as_ns(), 1010);
    }

    #[test]
    fn propagation_adds_latency_but_not_occupancy() {
        let mut link = BandwidthLink::from_gbps(1, 50);
        let a = link.transfer(SimTime::ZERO, 10);
        assert_eq!(a.as_ns(), 60); // 10 ns serialize + 50 ns fly time
                                   // Next transfer can start as soon as serialization ends (pipelined).
        let b = link.transfer(SimTime::ZERO, 10);
        assert_eq!(b.as_ns(), 70);
    }

    #[test]
    fn batched_arbitration_matches_sequential_transfers() {
        // The batch path must be indistinguishable from per-flit calls:
        // same delivery times, same busy window, same accounting. Use a
        // gap smaller than the serialization time so flits queue.
        let mk = || {
            let mut l = BandwidthLink::from_gbps(1, 7); // 1 B/ns + 7 ns fly
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
        assert_eq!(batch.free_at(), seq.free_at());
        assert_eq!(batch.total_bytes(), seq.total_bytes());
        let h = SimDuration::from_ns(1000);
        assert_eq!(batch.utilization(h), seq.utilization(h));
        // Empty batches change nothing.
        let before = batch.free_at();
        batch.transfer_batch_into(SimTime::ZERO, SimDuration::ZERO, 16, 0, &mut got);
        assert!(got.is_empty());
        assert_eq!(batch.free_at(), before);
    }

    #[test]
    fn accounting_tracks_bytes_and_utilization() {
        let mut link = BandwidthLink::from_gbps(1, 0);
        link.transfer(SimTime::ZERO, 25);
        link.transfer(SimTime::ZERO, 75);
        assert_eq!(link.total_bytes(), 100);
        let util = link.utilization(SimDuration::from_ns(200));
        assert!((util - 0.5).abs() < 1e-9, "utilization was {util}");
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = BandwidthLink::from_gbps(0, 0);
    }
}
