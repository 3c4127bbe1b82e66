//! The out-of-order accumulation engine (§IV-A5).
//!
//! Rows for different accumulation clusters arrive interleaved from many
//! devices. An in-order accumulate unit must drain its current cluster's
//! pipeline before switching (a stall); the OoO engine instead parks the
//! current partial sum in a *swap register* during the first half of the
//! clock cycle and processes the newcomer in the second half, so a
//! cluster switch costs nothing.
//!
//! The pipeline folds each bag's clusters one after another and closes
//! each before the next one starts, so at most one partial sum is ever
//! parked: the hardware's SRAM spill (taken only when every swap register
//! is occupied) cannot fire, and the engine needs no register file.

use simkit::{SimDuration, SimTime};

/// Globally unique accumulation-cluster identity. The 9-bit wire
/// `sumtag` indexes the switch's ACR; the simulation widens it so
/// concurrently live clusters from many hosts and batches stay distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub u64);

/// Timing model of the accumulate unit.
#[derive(Debug, Clone)]
pub struct AccumEngine {
    ooo: bool,
    /// Cycles (≈ ns at the 1 GHz synthesis clock of §VI-D) to fold one
    /// row vector.
    row_ns: u64,
    busy_until: SimTime,
    /// The cluster loaded in the datapath.
    current: Option<ClusterId>,
    /// In-order stalls (pipeline drains on cluster switches).
    pub stalls: u64,
}

impl AccumEngine {
    /// Creates an engine. `dim` is the vector width in f32 elements: the
    /// process core's 64-lane FP32 adder (a 256 B/cycle datapath at the
    /// 1 GHz synthesis clock, sized so the PC keeps up with the
    /// aggregate downstream-port bandwidth it is meant to exploit) folds
    /// `ceil(dim/64)` chunks per row.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(ooo: bool, dim: u32) -> Self {
        assert!(dim > 0, "dimension must be positive");
        AccumEngine {
            ooo,
            row_ns: (dim as u64).div_ceil(64).max(1),
            busy_until: SimTime::ZERO,
            current: None,
            stalls: 0,
        }
    }

    /// Processes one row for `cluster` arriving at `arrival`; returns
    /// when its accumulation completes in the unit.
    pub fn process_row(&mut self, arrival: SimTime, cluster: ClusterId) -> SimTime {
        let mut start = arrival.max(self.busy_until);
        if self.current != Some(cluster) {
            if !self.ooo && self.current.is_some() {
                // In-order: drain the pipeline before switching clusters.
                self.stalls += 1;
                start += SimDuration::from_ns(self.row_ns);
            }
            self.current = Some(cluster);
        }
        self.busy_until = start + SimDuration::from_ns(self.row_ns);
        self.busy_until
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_ns(ns)
    }

    #[test]
    fn same_cluster_streams_without_stalls() {
        let mut e = AccumEngine::new(false, 256);
        let a = e.process_row(t(0), ClusterId(1));
        let b = e.process_row(t(0), ClusterId(1));
        assert_eq!(b.since(a).as_ns(), 4); // 256 elements / 64 lanes
        assert_eq!(e.stalls, 0);
    }

    #[test]
    fn in_order_pays_a_drain_on_cluster_switch() {
        let mut e = AccumEngine::new(false, 256);
        let before = e.process_row(t(0), ClusterId(1));
        let done = e.process_row(t(0), ClusterId(2));
        // drain (4 ns) + fold (4 ns).
        assert_eq!(done.since(before).as_ns(), 8);
        assert_eq!(e.stalls, 1);
    }

    #[test]
    fn ooo_switches_clusters_for_free() {
        let mut e = AccumEngine::new(true, 256);
        let before = e.process_row(t(0), ClusterId(1));
        let done = e.process_row(t(0), ClusterId(2));
        assert_eq!(done.since(before).as_ns(), 4); // no drain
        assert_eq!(e.stalls, 0);
    }

    #[test]
    fn ooo_beats_in_order_on_interleaved_arrivals() {
        let interleaved: Vec<ClusterId> = (0..64).map(|i| ClusterId(i % 8)).collect();
        let run = |ooo: bool| {
            let mut e = AccumEngine::new(ooo, 64);
            let mut last = SimTime::ZERO;
            for &c in &interleaved {
                last = e.process_row(SimTime::ZERO, c);
            }
            last
        };
        assert!(run(true) < run(false));
    }

    #[test]
    fn idle_arrival_starts_immediately() {
        for ooo in [false, true] {
            let mut e = AccumEngine::new(ooo, 16);
            let done = e.process_row(t(1000), ClusterId(1));
            assert_eq!(done.as_ns(), 1001, "ooo = {ooo}");
        }
    }
}
