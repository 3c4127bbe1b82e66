//! One DRAM channel: banks, rank-level activate limits, the shared data
//! bus, and refresh.

use simkit::{SimDuration, SimTime};

use crate::addrmap::Location;
use crate::bank::{BankState, RowOutcome};
use crate::config::{DramOrg, TimingDurations};

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
    ///
    /// The window is ordered by time only because ACTs arrive in time
    /// order: `Channel::act_gate`'s tRRD term holds every new ACT at or
    /// after the rank's newest one, even for a request back-filled into
    /// the past.
    fn record_act(&mut self, at: SimTime) {
        debug_assert!(
            self.n_acts == 0 || at >= self.recent_acts[self.n_acts - 1],
            "ACT at {at} precedes the rank's newest ACT"
        );
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
#[derive(Debug)]
pub struct Channel {
    banks: Vec<BankState>,
    ranks: Vec<RankState>,
    org: DramOrg,
    bus: DataBus,
    /// Accumulated statistics.
    pub stats: ChannelStats,
}

impl Clone for Channel {
    fn clone(&self) -> Self {
        Channel {
            banks: self.banks.clone(),
            ranks: self.ranks.clone(),
            org: self.org,
            bus: self.bus.clone(),
            stats: self.stats,
        }
    }

    /// Copies `source` into `self`'s buffers, allocating only where
    /// `source` holds more bus windows than `self` has room for.
    fn clone_from(&mut self, source: &Self) {
        self.banks.clone_from(&source.banks);
        self.ranks.clone_from(&source.ranks);
        self.org = source.org;
        self.bus.clone_from(&source.bus);
        self.stats = source.stats;
    }
}

/// Gaps a new bus-queue gap trims the list back to (see [`DataBus`]).
const MAX_GAPS: usize = 64;

/// The shared data bus's reservation calendar: the instant the bus frees
/// up, and the recent idle windows before it.
///
/// A burst whose data is ready early may claim an idle window instead of
/// queueing at `free` — the reordering freedom an FR-FCFS controller
/// has, without which one bank-conflicted request head-of-line-blocks
/// every later burst. The windows are pairwise disjoint and sorted
/// ascending: each new one opens at the previous bus-free point, and a
/// claim splits a window in place.
///
/// The live windows are `gaps[head..]`, oldest first, in one contiguous
/// run. Queueing at `free` opens a new window and then trims the list to
/// the newest [`MAX_GAPS`]; a claim that splits a window in the middle
/// inserts without trimming, so the list may hold more than
/// [`MAX_GAPS`] windows until the next queued burst. Trimming advances
/// `head`, and the dead prefix is dropped only when the buffer is full,
/// so the steady state neither shifts every entry nor allocates.
#[derive(Debug)]
struct DataBus {
    free: SimTime,
    gaps: Vec<(SimTime, SimTime)>,
    head: usize,
}

impl Clone for DataBus {
    fn clone(&self) -> Self {
        DataBus {
            free: self.free,
            gaps: self.gaps.clone(),
            head: self.head,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.free = source.free;
        self.gaps.clone_from(&source.gaps);
        self.head = source.head;
    }
}

impl DataBus {
    fn new() -> Self {
        DataBus {
            free: SimTime::ZERO,
            gaps: Vec::with_capacity(2 * MAX_GAPS),
            head: 0,
        }
    }

    /// The live idle windows, oldest first.
    fn gaps(&self) -> &[(SimTime, SimTime)] {
        &self.gaps[self.head..]
    }

    /// Drops the dead prefix when the buffer has no room left, so the
    /// next insert reuses it instead of reallocating.
    fn make_room(&mut self) {
        if self.gaps.len() == self.gaps.capacity() && self.head > 0 {
            self.gaps.drain(..self.head);
            self.head = 0;
        }
    }

    /// Claims `n` slots of `burst` length, each no earlier than
    /// `earliest`, and returns the last one's start. Each slot is the
    /// oldest idle window that fits it, else the end of the schedule.
    ///
    /// One walk leaves the bus exactly as `n` one-slot claims in turn
    /// would, and returns the last of their starts, the latest:
    /// - a claim leaves every window before the one it splits unable to
    ///   fit a burst, so the next claim's search resumes at that window;
    /// - a window takes `min(left, room / burst)` bursts from its front
    ///   (from `earliest` when it opened before), back to back;
    /// - once no window fits, the rest queue back to back at `free`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    fn claim_run(&mut self, earliest: SimTime, burst: SimDuration, n: u64) -> SimTime {
        assert!(n > 0, "a claim run has at least one burst");
        let mut left = n;
        // Windows ending before `earliest + burst` cannot hold a burst.
        // When the newest window is one of them none can, and the search
        // is skipped — the common case once simulated time has passed
        // the recorded windows. Otherwise the oldest fitting window is at
        // or after the first one ending at or after that instant.
        let end = earliest + burst;
        if self.gaps().last().is_some_and(|&(_, ge)| end <= ge) {
            // `at` indexes the live windows, so it survives `make_room`.
            let mut at = first_ending_at(self.gaps(), end);
            while at < self.gaps.len() - self.head {
                let i = self.head + at;
                let (gs, ge) = self.gaps[i];
                let start = gs.max(earliest);
                if start + burst > ge {
                    at += 1;
                    continue;
                }
                // One burst fits; a longer run divides the room.
                let k = match left {
                    1 => 1,
                    _ => left.min(ge.since(start).as_ns() / burst.as_ns()),
                };
                let stop = start + SimDuration::from_ns(k * burst.as_ns());
                left -= k;
                // Split the window around the claimed slots. The common
                // case (claim from the window's front, remainder
                // survives) edits it in place. A remainder left while
                // bursts are still to place is shorter than a burst.
                if start == gs {
                    if stop < ge {
                        self.gaps[i].0 = stop;
                        at += 1;
                    } else {
                        self.gaps.remove(i);
                    }
                } else {
                    self.gaps[i].1 = start;
                    at += 1;
                    if stop < ge {
                        self.make_room();
                        self.gaps.insert(self.head + at, (stop, ge));
                        at += 1;
                    }
                }
                if left == 0 {
                    return SimTime::from_ns(stop.as_ns() - burst.as_ns());
                }
            }
        }
        let start = earliest.max(self.free);
        if start > self.free {
            self.make_room();
            self.gaps.push((self.free, start));
            self.head = self.head.max(self.gaps.len().saturating_sub(MAX_GAPS));
        }
        self.free = start + SimDuration::from_ns(left * burst.as_ns());
        SimTime::from_ns(self.free.as_ns() - burst.as_ns())
    }
}

/// Index of the first window in `gaps` ending at or after `end`, given
/// that the newest one does. Searches back from the newest window, where
/// most claims land: it gallops over strides of 1, 2, 4, … windows until
/// one ends before `end`, then bisects the last stride.
#[inline]
fn first_ending_at(gaps: &[(SimTime, SimTime)], end: SimTime) -> usize {
    let mut hi = gaps.len() - 1;
    let mut step = 1;
    let lo = loop {
        if hi < step {
            break 0;
        }
        if gaps[hi - step].1 < end {
            break hi - step + 1;
        }
        hi -= step;
        step *= 2;
    };
    lo + gaps[lo..hi].partition_point(|&(_, ge)| ge < end)
}

/// Row-buffer and traffic statistics for one channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Row-buffer hits.
    pub hits: u64,
    /// Activates into an idle bank.
    pub empties: u64,
    /// Row-buffer conflicts (PRE + ACT).
    pub conflicts: u64,
    /// Read accesses.
    pub reads: u64,
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
            bus: DataBus::new(),
            stats: ChannelStats::default(),
        }
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
        let missed = (now.since(first_due).as_ns() / t.refi_ns) + 1;
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

    /// Schedules one 64 B read arriving at `now`; returns the instant the
    /// data burst completes on the bus.
    pub fn access(&mut self, now: SimTime, loc: &Location, t: &TimingDurations) -> SimTime {
        self.access_run(now, loc, 1, t)
    }

    /// Schedules `lines` 64 B reads of the one row at `loc`, all
    /// arriving at `now`; returns the instant the last burst completes.
    ///
    /// Channel state and statistics end exactly as after `lines` calls
    /// to [`access`](Self::access) in turn: once the first line has
    /// opened the row, no refresh is due before `now` and every later
    /// line is a row hit whose column command is ready when the first
    /// line's was. So the row is opened once, and the bursts take one
    /// walk of the bus calendar (`DataBus::claim_run`) from that column
    /// command's data time. Their starts rise, so the last burst alone
    /// sets the bank's precharge window (tRTP) and the completion.
    ///
    /// # Panics
    ///
    /// Panics if `lines` is zero.
    pub fn access_run(
        &mut self,
        now: SimTime,
        loc: &Location,
        lines: u64,
        t: &TimingDurations,
    ) -> SimTime {
        assert!(lines > 0, "a row run has at least one line");
        let (idx, cas_ready) = self.open_row(now, loc, t);
        self.stats.hits += lines - 1;
        // The data bursts must find free slots on the shared bus; if the
        // bus is busy, the column commands slip until the slots align.
        let last_start = self.bus.claim_run(cas_ready + t.cl, t.burst, lines);
        self.complete(idx, last_start, lines, t)
    }

    /// Refresh, the rank's ACT gate and the bank's row preparation for an
    /// access to `loc` arriving at `now`: returns the bank's index and
    /// the instant its column command may issue.
    fn open_row(&mut self, now: SimTime, loc: &Location, t: &TimingDurations) -> (usize, SimTime) {
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
        (idx, cas_ready)
    }

    /// Records the column commands of `lines` read bursts from bank
    /// `idx`, the last of whose data starts on the bus at `last_start`
    /// (CL after its command); returns the instant that burst completes.
    fn complete(
        &mut self,
        idx: usize,
        last_start: SimTime,
        lines: u64,
        t: &TimingDurations,
    ) -> SimTime {
        let cas_at = SimTime::from_ns(last_start.as_ns() - t.cl.as_ns());
        self.banks[idx].complete_read(cas_at, t);
        self.stats.reads += lines;
        self.stats.bytes += 64 * lines;
        last_start + t.burst
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use proptest::prelude::*;

    use super::*;
    use crate::addrmap::LineDecoder;
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
        let first = ch.access(SimTime::ZERO, &loc(0, 1), &tt);
        let second = ch.access(SimTime::ZERO, &loc(0, 1), &tt);
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
        same.access(SimTime::ZERO, &loc(0, 1), &tt);
        let same_done = same.access(SimTime::ZERO, &loc(0, 2), &tt);
        // Different banks: row preparation overlaps.
        let mut diff = Channel::new(org());
        diff.access(SimTime::ZERO, &loc(0, 1), &tt);
        let diff_done = diff.access(SimTime::ZERO, &loc(1, 2), &tt);
        assert!(
            diff_done < same_done,
            "bank-level parallelism should win: {diff_done} vs {same_done}"
        );
    }

    #[test]
    fn bus_serializes_bursts_across_banks() {
        let tt = t();
        let mut ch = Channel::new(org());
        let a = ch.access(SimTime::ZERO, &loc(0, 1), &tt);
        let b = ch.access(SimTime::ZERO, &loc(1, 1), &tt);
        assert!(b.since(a) >= tt.burst);
    }

    #[test]
    fn tfaw_throttles_a_fifth_activate() {
        let tt = t();
        let mut ch = Channel::new(DramOrg { banks: 8, ..org() });
        let mut last = SimTime::ZERO;
        for bank in 0..5 {
            last = ch.access(SimTime::ZERO, &loc(bank, 1), &tt);
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
            ch.access(now, &loc(0, i), &tt);
        }
        // Refresh bookkeeping advanced past `now`.
        assert!(ch.ranks[0].next_refresh > SimTime::ZERO + SimDuration::from_ns(tt.refi_ns));
    }

    #[test]
    fn hit_ratio_reflects_locality() {
        let tt = t();
        let mut ch = Channel::new(org());
        for _ in 0..9 {
            ch.access(SimTime::ZERO, &loc(0, 1), &tt);
        }
        let r = ch.stats.hit_ratio();
        assert!(r > 0.8, "expected high hit ratio, got {r}");
    }

    #[test]
    fn back_filled_activates_stay_in_time_order() {
        // Requests arrive newest first, each opening a row in a fresh
        // bank of the one rank. tRRD holds every ACT at or after the
        // rank's newest, so the tFAW window stays ordered (the debug
        // assertion in `record_act` checks each slide) and the fifth ACT
        // still waits for the first ACT's window.
        let tt = t();
        let mut ch = Channel::new(DramOrg { banks: 8, ..org() });
        let mut acts = Vec::new();
        for (i, bank) in (0..8u32).enumerate() {
            let now = SimTime::from_ns(8_000 - 1_000 * i as u64);
            ch.access(now, &loc(bank, 1 + u64::from(bank)), &tt);
            acts.push(ch.banks[bank as usize].last_act());
            let rank = &ch.ranks[0];
            let window = &rank.recent_acts[..rank.n_acts];
            assert!(window.windows(2).all(|w| w[0] <= w[1]), "{window:?}");
            assert_eq!(window.last(), acts.last());
        }
        for w in acts.windows(2) {
            assert!(w[1] >= w[0] + tt.rrd, "{acts:?}");
        }
        for w in acts.windows(5) {
            assert!(w[4] >= w[0] + tt.faw, "{acts:?}");
        }
    }

    /// The reference bus claim: a deque of gaps scanned oldest-first in
    /// full, with no search bound, trimmed to [`MAX_GAPS`] only when a
    /// queued burst pushes a new gap.
    #[derive(Debug, Default)]
    struct RefBus {
        free: SimTime,
        gaps: VecDeque<(SimTime, SimTime)>,
    }

    impl RefBus {
        fn claim(&mut self, earliest: SimTime, burst: SimDuration) -> SimTime {
            for i in 0..self.gaps.len() {
                let (gs, ge) = self.gaps[i];
                let start = gs.max(earliest);
                if start + burst <= ge {
                    if start == gs {
                        if start + burst < ge {
                            self.gaps[i] = (start + burst, ge);
                        } else {
                            self.gaps.remove(i);
                        }
                    } else {
                        self.gaps[i] = (gs, start);
                        if start + burst < ge {
                            self.gaps.insert(i + 1, (start + burst, ge));
                        }
                    }
                    return start;
                }
            }
            let start = earliest.max(self.free);
            if start > self.free {
                self.gaps.push_back((self.free, start));
                while self.gaps.len() > MAX_GAPS {
                    self.gaps.pop_front();
                }
            }
            self.free = start + burst;
            start
        }

        fn assert_matches(&self, bus: &DataBus) {
            assert_eq!(bus.free, self.free);
            assert!(bus.gaps().iter().eq(self.gaps.iter()), "gap lists differ");
        }
    }

    #[test]
    fn mid_gap_splits_outgrow_the_trim_until_the_next_queued_burst() {
        let burst = SimDuration::from_ns(2);
        let mut bus = DataBus::new();
        let mut model = RefBus::default();
        let mut claim = |at: u64| {
            let at = SimTime::from_ns(at);
            assert_eq!(bus.claim_run(at, burst, 1), model.claim(at, burst));
            model.assert_matches(&bus);
            bus.gaps().len()
        };
        // 70 queued bursts, each leaving a 10 ns gap: trimmed to 64.
        for k in 0..70 {
            claim(12 * k + 10);
        }
        assert_eq!(claim(12 * 69 + 10 + 2), MAX_GAPS);
        // Claims in the middle of the newest gaps split them in two.
        for k in 60..70 {
            assert_eq!(claim(12 * k + 4), MAX_GAPS + k as usize - 59);
        }
        // The next burst that queues at the end trims back to 64.
        assert_eq!(claim(10_000), MAX_GAPS);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn bus_claims_match_the_full_scan_reference(
            claims in collection::vec(any::<u64>(), 1..600),
        ) {
            // Claims wander forward and back in time with mixed burst
            // lengths, so gaps open, split mid-way, fill exactly and
            // pile up past the trim.
            let mut bus = DataBus::new();
            let mut model = RefBus::default();
            let mut clock = 0u64;
            for word in claims {
                clock += word % 7;
                let earliest = SimTime::from_ns(clock.saturating_sub((word >> 8) % 400));
                let burst = SimDuration::from_ns(1 + (word >> 20) % 4);
                prop_assert_eq!(bus.claim_run(earliest, burst, 1), model.claim(earliest, burst));
                model.assert_matches(&bus);
            }
        }

        #[test]
        fn claim_runs_match_one_reference_claim_per_burst(
            runs in collection::vec(any::<u64>(), 1..300),
        ) {
            // Runs of up to 12 bursts, arriving forward and back in time
            // with mixed burst lengths: a run fills windows from the
            // front and from the middle, leaves remainders shorter than
            // a burst, spills past the last window and queues at the end
            // of the schedule, which opens new windows and trims old ones.
            let mut bus = DataBus::new();
            let mut model = RefBus::default();
            let mut clock = 0u64;
            for word in runs {
                clock += word % 23;
                let earliest = SimTime::from_ns(clock.saturating_sub((word >> 8) % 400));
                let burst = SimDuration::from_ns(1 + (word >> 20) % 4);
                let n = 1 + (word >> 24) % 12;
                let last = (0..n).map(|_| model.claim(earliest, burst)).last();
                prop_assert_eq!(Some(bus.claim_run(earliest, burst, n)), last);
                model.assert_matches(&bus);
            }
        }

        #[test]
        fn channel_accesses_match_the_reference_bus(
            accesses in collection::vec(any::<u64>(), 1..400),
            twelve in any::<bool>(),
        ) {
            // A device's channels, each run twice: once as built and once
            // with every bus claim answered by the reference. Arrivals
            // step back in time by up to ~5 µs, so most land in the past
            // of their channel and back-fill its recorded gaps.
            let org = DramOrg {
                channels: if twelve { 12 } else { 1 },
                ..DramOrg::table2_local()
            };
            let tt = t();
            let decoder = LineDecoder::new(org);
            let n = org.channels as usize;
            let mut real = vec![Channel::new(org); n];
            let mut shadow = vec![Channel::new(org); n];
            let mut buses: Vec<RefBus> = (0..n).map(|_| RefBus::default()).collect();
            let mut clock = 0u64;
            for word in accesses {
                clock += word % 64;
                let now = SimTime::from_ns(clock.saturating_sub((word >> 6) % 5_000));
                // A few hot rows per bank: hits, empties and conflicts.
                let line = (word >> 20) % (1 << 16);
                let loc = decoder.decode(line * 64 * (1 + (word >> 40) % 3));
                let c = loc.channel as usize;
                let done = real[c].access(now, &loc, &tt);
                let (idx, cas_ready) = shadow[c].open_row(now, &loc, &tt);
                let start = buses[c].claim(cas_ready + tt.cl, tt.burst);
                prop_assert_eq!(done, shadow[c].complete(idx, start, 1, &tt));
                prop_assert_eq!(real[c].stats, shadow[c].stats);
                buses[c].assert_matches(&real[c].bus);
            }
        }
    }
}
