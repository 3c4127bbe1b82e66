//! One DRAM channel: banks, rank-level activate limits, the shared data
//! bus, and refresh.

use std::collections::VecDeque;

use simkit::{SimDuration, SimTime};

use crate::addrmap::Location;
use crate::bank::{BankState, RowOutcome};
use crate::config::{DramOrg, TimingDurations};

/// Kind of memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemOp {
    /// 64 B read burst.
    Read,
    /// 64 B write burst.
    Write,
}

/// Per-rank bookkeeping: refresh schedule and the tFAW activate window.
#[derive(Debug, Clone)]
struct RankState {
    next_refresh: SimTime,
    /// Times of the most recent activates, newest last. tFAW covers
    /// exactly four ACTs, so a fixed in-place window replaces the heap
    /// allocation a growable deque would carry per rank.
    recent_acts: [SimTime; 4],
    /// Valid slots in `recent_acts` (saturates at 4).
    n_acts: usize,
}

impl RankState {
    /// Slides `at` into the window, dropping the oldest ACT when full.
    fn record_act(&mut self, at: SimTime) {
        if self.n_acts == 4 {
            self.recent_acts.copy_within(1..4, 0);
            self.recent_acts[3] = at;
        } else {
            self.recent_acts[self.n_acts] = at;
            self.n_acts += 1;
        }
    }
}

/// One DRAM channel with its own command/data bus.
#[derive(Debug, Clone)]
pub struct Channel {
    banks: Vec<BankState>,
    ranks: Vec<RankState>,
    org: DramOrg,
    /// Time at which the shared data bus frees up.
    bus_free: SimTime,
    /// Recent idle windows on the data bus, oldest first. A burst whose
    /// data is ready early may claim one instead of queueing at
    /// `bus_free` — the reordering freedom an FR-FCFS controller has,
    /// without which one bank-conflicted request head-of-line-blocks
    /// every later burst. A capacity-bounded ring: the scan in
    /// `claim_bus` walks it oldest-first exactly as the original flat
    /// vec did, but evicting the oldest gap is an O(1) `pop_front`, and
    /// the steady state allocates nothing.
    free_gaps: VecDeque<(SimTime, SimTime)>,
    /// Accumulated statistics.
    pub stats: ChannelStats,
}

const MAX_GAPS: usize = 64;

/// Row-buffer and traffic statistics for one channel.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChannelStats {
    /// Row-buffer hits.
    pub hits: u64,
    /// Activates into an idle bank.
    pub empties: u64,
    /// Row-buffer conflicts (PRE + ACT).
    pub conflicts: u64,
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Total bytes moved on the data bus.
    pub bytes: u64,
    /// Accesses delayed by a refresh blackout.
    pub refresh_stalls: u64,
}

impl ChannelStats {
    /// Row-buffer hit ratio over all accesses (0.0 when idle).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.empties + self.conflicts;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

impl Channel {
    /// Creates an idle channel for a device organized as `org`.
    pub fn new(org: DramOrg) -> Self {
        let banks = vec![BankState::new(); (org.ranks * org.banks) as usize];
        let ranks = (0..org.ranks)
            .map(|_| RankState {
                next_refresh: SimTime::ZERO + SimDuration::from_ns(1), // first REF after warmup
                recent_acts: [SimTime::ZERO; 4],
                n_acts: 0,
            })
            .collect();
        Channel {
            banks,
            ranks,
            org,
            bus_free: SimTime::ZERO,
            free_gaps: VecDeque::with_capacity(MAX_GAPS),
            stats: ChannelStats::default(),
        }
    }

    /// Claims a data-bus slot of `burst` length no earlier than
    /// `earliest`; prefers filling a recorded idle gap, else queues at
    /// the end of the bus schedule.
    fn claim_bus(&mut self, earliest: SimTime, burst: SimDuration) -> SimTime {
        // The gaps are pairwise disjoint and sorted ascending (each new
        // gap opens at the previous bus-free point, and splits insert in
        // place), so every gap ending before `earliest + burst` is
        // unclaimable for this burst. When the newest gap's end is one
        // of them no gap can fit and the scan is skipped — the common
        // case once simulated time has advanced past the recorded
        // windows. Otherwise the oldest-first scan starts at the first
        // gap ending on or after it, found by binary search instead of
        // walking the dead prefix. Selection is identical to the full
        // scan.
        if self
            .free_gaps
            .back()
            .is_some_and(|&(_, ge)| earliest + burst <= ge)
        {
            let from = self
                .free_gaps
                .partition_point(|&(_, ge)| ge < earliest + burst);
            for i in from..self.free_gaps.len() {
                let (gs, ge) = self.free_gaps[i];
                let start = gs.max(earliest);
                if start + burst <= ge {
                    // Split the gap around the claimed slot. The common
                    // case (claim from the gap's front, remainder
                    // survives) edits the slot in place; only a mid-gap
                    // split shifts ring entries.
                    if start == gs {
                        if start + burst < ge {
                            self.free_gaps[i] = (start + burst, ge);
                        } else {
                            self.free_gaps.remove(i);
                        }
                    } else {
                        self.free_gaps[i] = (gs, start);
                        if start + burst < ge {
                            self.free_gaps.insert(i + 1, (start + burst, ge));
                        }
                    }
                    return start;
                }
            }
        }
        let start = earliest.max(self.bus_free);
        if start > self.bus_free {
            self.free_gaps.push_back((self.bus_free, start));
            while self.free_gaps.len() > MAX_GAPS {
                self.free_gaps.pop_front();
            }
        }
        self.bus_free = start + burst;
        start
    }

    fn bank_index(&self, loc: &Location) -> usize {
        (loc.rank * self.org.banks + loc.bank) as usize
    }

    /// Applies any refresh blackouts due before `now` on `rank`.
    ///
    /// Refreshes due since the rank's last access are coalesced: each
    /// missed REF would close the banks and max their next-command
    /// windows with its own `due + tRFC`, and those blackouts increase
    /// monotonically, so applying only the *latest* due refresh leaves
    /// every bank in exactly the state the one-by-one replay would — at
    /// O(banks) per access instead of O(missed · banks).
    fn apply_refresh(&mut self, now: SimTime, rank: u32, t: &TimingDurations) -> bool {
        let first_due = self.ranks[rank as usize].next_refresh;
        if first_due > now {
            return false;
        }
        let refi = SimDuration::from_ns(t.refi_ns);
        let rfc = t.rfc;
        // Number of refreshes with `due <= now` (at least one).
        let missed = (now.since(first_due).as_ns() / t.refi_ns.max(1)) + 1;
        let last_due = first_due + SimDuration::from_ns((missed - 1) * t.refi_ns);
        let blocked_until = last_due + rfc;
        let base = rank * self.org.banks;
        for b in 0..self.org.banks {
            self.banks[(base + b) as usize].block_until(blocked_until);
        }
        self.ranks[rank as usize].next_refresh = last_due + refi;
        blocked_until > now
    }

    /// Earliest time a new ACT may issue on `rank` given tFAW and tRRD.
    fn act_gate(&self, rank: u32, t: &TimingDurations) -> SimTime {
        let rs = &self.ranks[rank as usize];
        let mut gate = SimTime::ZERO;
        if rs.n_acts >= 4 {
            // The 4th-most-recent ACT opens the tFAW window.
            gate = gate.max(rs.recent_acts[0] + t.faw);
        }
        if rs.n_acts > 0 {
            gate = gate.max(rs.recent_acts[rs.n_acts - 1] + t.rrd);
        }
        gate
    }

    /// Schedules one 64 B access arriving at `now`; returns the instant the
    /// data burst completes on the bus.
    pub fn access(
        &mut self,
        now: SimTime,
        loc: &Location,
        op: MemOp,
        t: &TimingDurations,
    ) -> SimTime {
        if self.apply_refresh(now, loc.rank, t) {
            self.stats.refresh_stalls += 1;
        }

        let gate = self.act_gate(loc.rank, t);
        let idx = self.bank_index(loc);
        let acts_before = self.banks[idx].last_act();
        let (cas_ready, outcome) = self.banks[idx].prepare(now, gate, loc.row, t);

        match outcome {
            RowOutcome::Hit => self.stats.hits += 1,
            RowOutcome::Empty => self.stats.empties += 1,
            RowOutcome::Conflict => self.stats.conflicts += 1,
        }
        if outcome != RowOutcome::Hit {
            let act_at = self.banks[idx].last_act();
            debug_assert!(act_at >= acts_before);
            self.ranks[loc.rank as usize].record_act(act_at);
        }

        // The data burst must find a free slot on the shared bus; if the
        // bus is busy, the column command slips until the slot aligns.
        let cas_to_data = match op {
            MemOp::Read => t.cl,
            MemOp::Write => t.cwl,
        };
        let earliest_data = cas_ready + cas_to_data;
        let burst = t.burst;
        let data_start = self.claim_bus(earliest_data, burst);
        let cas_at = SimTime::from_ns(data_start.as_ns() - cas_to_data.as_ns());

        match op {
            MemOp::Read => {
                self.banks[idx].complete_read(cas_at, t);
                self.stats.reads += 1;
            }
            MemOp::Write => {
                self.banks[idx].complete_write(cas_at, t);
                self.stats.writes += 1;
            }
        }
        self.stats.bytes += 64;
        data_start + burst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramTimings;

    fn org() -> DramOrg {
        DramOrg {
            channels: 1,
            ranks: 1,
            banks: 4,
            row_bytes: 8192,
            bus_bytes: 8,
            capacity_bytes: 1 << 30,
        }
    }

    fn t() -> TimingDurations {
        DramTimings::ddr5_4800().durations()
    }

    fn loc(bank: u32, row: u64) -> Location {
        Location {
            channel: 0,
            rank: 0,
            bank,
            row,
        }
    }

    #[test]
    fn row_hits_stream_at_bus_rate() {
        let mut ch = Channel::new(org());
        let tt = t();
        let first = ch.access(SimTime::ZERO, &loc(0, 1), MemOp::Read, &tt);
        let second = ch.access(SimTime::ZERO, &loc(0, 1), MemOp::Read, &tt);
        // Back-to-back hits are separated by exactly one burst.
        assert_eq!(second.since(first), tt.burst);
        assert_eq!(ch.stats.hits, 1);
        assert_eq!(ch.stats.empties, 1);
    }

    #[test]
    fn different_banks_overlap_row_preparation() {
        let tt = t();
        // Same bank, different rows: serialized by tRC.
        let mut same = Channel::new(org());
        same.access(SimTime::ZERO, &loc(0, 1), MemOp::Read, &tt);
        let same_done = same.access(SimTime::ZERO, &loc(0, 2), MemOp::Read, &tt);
        // Different banks: row preparation overlaps.
        let mut diff = Channel::new(org());
        diff.access(SimTime::ZERO, &loc(0, 1), MemOp::Read, &tt);
        let diff_done = diff.access(SimTime::ZERO, &loc(1, 2), MemOp::Read, &tt);
        assert!(
            diff_done < same_done,
            "bank-level parallelism should win: {diff_done} vs {same_done}"
        );
    }

    #[test]
    fn bus_serializes_bursts_across_banks() {
        let tt = t();
        let mut ch = Channel::new(org());
        let a = ch.access(SimTime::ZERO, &loc(0, 1), MemOp::Read, &tt);
        let b = ch.access(SimTime::ZERO, &loc(1, 1), MemOp::Read, &tt);
        assert!(b.since(a) >= tt.burst);
    }

    #[test]
    fn tfaw_throttles_a_fifth_activate() {
        let tt = t();
        let mut ch = Channel::new(DramOrg { banks: 8, ..org() });
        let mut last = SimTime::ZERO;
        for bank in 0..5 {
            last = ch.access(SimTime::ZERO, &loc(bank, 1), MemOp::Read, &tt);
        }
        // The 5th activate cannot start before ACT#1 + tFAW.
        let min_done = SimTime::ZERO + tt.faw + tt.rcd + tt.cl + tt.burst;
        assert!(last >= min_done, "last={last} min={min_done}");
    }

    #[test]
    fn refresh_eventually_stalls_accesses() {
        let tt = t();
        let mut ch = Channel::new(org());
        // Walk time far past several tREFI intervals.
        for i in 0..100u64 {
            let now = SimTime::from_ns(i * 1000);
            ch.access(now, &loc(0, i), MemOp::Read, &tt);
        }
        // Refresh bookkeeping advanced past `now`.
        assert!(ch.ranks[0].next_refresh > SimTime::ZERO + SimDuration::from_ns(tt.refi_ns));
    }

    #[test]
    fn writes_count_separately_and_move_bytes() {
        let tt = t();
        let mut ch = Channel::new(org());
        ch.access(SimTime::ZERO, &loc(0, 1), MemOp::Write, &tt);
        ch.access(SimTime::ZERO, &loc(0, 1), MemOp::Read, &tt);
        assert_eq!(ch.stats.writes, 1);
        assert_eq!(ch.stats.reads, 1);
        assert_eq!(ch.stats.bytes, 128);
    }

    #[test]
    fn hit_ratio_reflects_locality() {
        let tt = t();
        let mut ch = Channel::new(org());
        for _ in 0..9 {
            ch.access(SimTime::ZERO, &loc(0, 1), MemOp::Read, &tt);
        }
        let r = ch.stats.hit_ratio();
        assert!(r > 0.8, "expected high hit ratio, got {r}");
    }
}
