//! The out-of-order accumulation engine (§IV-A5).
//!
//! Rows for different accumulation clusters arrive interleaved from many
//! devices. An in-order accumulate unit must drain its current cluster's
//! pipeline before switching (a stall); the OoO engine instead parks the
//! current partial sum in a *swap register* during the first half of the
//! clock cycle and processes the newcomer in the second half. When the
//! swap registers are all occupied, the intermediate result spills to the
//! on-switch SRAM, costing two extra cycles.

use simkit::hash::FastSet;

use simkit::{SimDuration, SimTime};

/// Globally unique accumulation-cluster identity. The 9-bit wire
/// `sumtag` indexes the switch's ACR; the simulation widens it so
/// concurrently live clusters from many hosts and batches stay distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterId(pub u64);

// Engine state: `current` is the cluster loaded in the datapath, `parked`
// are incomplete partials held in swap registers, `completed` marks
// clusters whose registers were already released.

/// Timing model of the accumulate unit.
#[derive(Debug, Clone)]
pub struct AccumEngine {
    ooo: bool,
    /// Cycles (≈ ns at the 1 GHz synthesis clock of §VI-D) to fold one
    /// row vector.
    row_ns: u64,
    /// Swap registers available for parked partial sums.
    swap_regs: usize,
    busy_until: SimTime,
    current: Option<ClusterId>,
    parked: FastSet<ClusterId>,
    completed: FastSet<ClusterId>,
    /// In-order stalls (pipeline drains on cluster switches).
    pub stalls: u64,
    /// Spills to SRAM when swap registers ran out.
    pub sram_spills: u64,
    rows_processed: u64,
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
    /// Panics if `dim` or `swap_regs` is zero.
    pub fn new(ooo: bool, dim: u32, swap_regs: usize) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(swap_regs > 0, "need at least one swap register");
        AccumEngine {
            ooo,
            row_ns: (dim as u64).div_ceil(64).max(1),
            swap_regs,
            busy_until: SimTime::ZERO,
            current: None,
            parked: FastSet::default(),
            completed: FastSet::default(),
            stalls: 0,
            sram_spills: 0,
            rows_processed: 0,
        }
    }

    /// Processes one row for `cluster` arriving at `arrival`; returns
    /// when its accumulation completes in the unit.
    pub fn process_row(&mut self, arrival: SimTime, cluster: ClusterId) -> SimTime {
        let mut start = arrival.max(self.busy_until);
        if self.current != Some(cluster) {
            if self.ooo {
                // Half-cycle swap; only spilling to SRAM costs extra.
                // A completed current cluster released its register.
                if let Some(cur) = self.current {
                    if !self.completed.remove(&cur) {
                        self.parked.insert(cur);
                    }
                }
                self.parked.remove(&cluster);
                if self.parked.len() > self.swap_regs {
                    self.sram_spills += 1;
                    start += SimDuration::from_ns(2); // two SRAM cycles
                }
            } else if self.current.is_some() {
                // In-order: drain the pipeline before switching clusters.
                self.stalls += 1;
                start += SimDuration::from_ns(self.row_ns);
            }
            self.current = Some(cluster);
        }
        self.busy_until = start + SimDuration::from_ns(self.row_ns);
        self.rows_processed += 1;
        self.busy_until
    }

    /// Marks `cluster` complete, freeing its swap register. The pipeline
    /// still holds the cluster's state until the next row displaces it,
    /// so an in-order engine pays a drain when the *next* cluster
    /// arrives — matching the hardware, where completion does not flush
    /// the datapath. Only the OoO engine remembers the completion: the
    /// in-order engine never swaps, so it would never forget it either.
    pub fn complete_cluster(&mut self, cluster: ClusterId) {
        if !self.parked.remove(&cluster) && self.ooo && self.current == Some(cluster) {
            self.completed.insert(cluster);
        }
    }

    /// Rows folded so far.
    pub fn rows_processed(&self) -> u64 {
        self.rows_processed
    }

    /// Time the unit frees up.
    pub fn busy_until(&self) -> SimTime {
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
        let mut e = AccumEngine::new(false, 256, 4);
        let a = e.process_row(t(0), ClusterId(1));
        let b = e.process_row(t(0), ClusterId(1));
        assert_eq!(b.since(a).as_ns(), 4); // 256 elements / 64 lanes
        assert_eq!(e.stalls, 0);
    }

    #[test]
    fn in_order_pays_a_drain_on_cluster_switch() {
        let mut e = AccumEngine::new(false, 256, 4);
        e.process_row(t(0), ClusterId(1));
        let before = e.busy_until();
        let done = e.process_row(t(0), ClusterId(2));
        // drain (4 ns) + fold (4 ns).
        assert_eq!(done.since(before).as_ns(), 8);
        assert_eq!(e.stalls, 1);
    }

    #[test]
    fn ooo_switches_for_free_with_swap_registers() {
        let mut e = AccumEngine::new(true, 256, 4);
        e.process_row(t(0), ClusterId(1));
        let before = e.busy_until();
        let done = e.process_row(t(0), ClusterId(2));
        assert_eq!(done.since(before).as_ns(), 4); // no drain
        assert_eq!(e.stalls, 0);
        assert_eq!(e.sram_spills, 0);
    }

    #[test]
    fn exhausted_swap_registers_spill_to_sram() {
        let mut e = AccumEngine::new(true, 16, 2);
        // Touch 4 clusters round-robin: parked set outgrows 2 registers.
        for round in 0..3u64 {
            for c in 0..4u64 {
                e.process_row(t(round * 100), ClusterId(c));
            }
        }
        assert!(e.sram_spills > 0);
    }

    #[test]
    fn completing_a_cluster_frees_its_register() {
        let mut e = AccumEngine::new(true, 16, 1);
        e.process_row(t(0), ClusterId(1));
        e.complete_cluster(ClusterId(1));
        e.process_row(t(0), ClusterId(2));
        e.process_row(t(0), ClusterId(3));
        // Cluster 1 was completed, so only cluster 2 occupies the single
        // register when 3 arrives — exactly at capacity, no spill.
        assert_eq!(e.sram_spills, 0);
    }

    #[test]
    fn completion_state_stays_bounded() {
        // One cluster per bag, each completed after its rows: neither
        // engine may accumulate per-cluster state across bags.
        for ooo in [false, true] {
            let mut e = AccumEngine::new(ooo, 16, 2);
            for c in 0..100u64 {
                e.process_row(t(c * 10), ClusterId(c));
                e.complete_cluster(ClusterId(c));
            }
            assert!(e.completed.len() <= 1 && e.parked.is_empty(), "ooo = {ooo}");
        }
    }

    #[test]
    fn ooo_beats_in_order_on_interleaved_arrivals() {
        let interleaved: Vec<ClusterId> = (0..64).map(|i| ClusterId(i % 8)).collect();
        let run = |ooo: bool| {
            let mut e = AccumEngine::new(ooo, 64, 8);
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
        let mut e = AccumEngine::new(true, 16, 4);
        let done = e.process_row(t(1000), ClusterId(1));
        assert_eq!(done.as_ns(), 1001);
    }
}
