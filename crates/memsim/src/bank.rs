//! Per-bank DRAM state machine.
//!
//! A bank tracks which row its row buffer holds and the timestamps of the
//! last ACT and read, from which the legality windows for the next
//! command follow (tRAS, tRC, tRTP, tRP, tRCD).

use simkit::SimTime;

use crate::config::TimingDurations;

/// Outcome of directing one access at a bank — determines latency class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowOutcome {
    /// Row buffer already held the target row: CAS only.
    Hit,
    /// Row buffer was empty (after refresh/precharge): ACT + CAS.
    Empty,
    /// Row buffer held a different row: PRE + ACT + CAS.
    Conflict,
}

/// One DRAM bank's timing state.
#[derive(Debug, Clone)]
pub struct BankState {
    open_row: Option<u64>,
    /// When the last ACT was issued.
    last_act: SimTime,
    /// Earliest time the next ACT may issue (covers tRC / tRP chains).
    next_act_ok: SimTime,
    /// Earliest time a PRE may issue (covers tRAS / tRTP).
    next_pre_ok: SimTime,
    /// Earliest time a read CAS may issue (covers tRCD).
    next_cas_ok: SimTime,
}

impl Default for BankState {
    fn default() -> Self {
        BankState {
            open_row: None,
            last_act: SimTime::ZERO,
            next_act_ok: SimTime::ZERO,
            next_pre_ok: SimTime::ZERO,
            next_cas_ok: SimTime::ZERO,
        }
    }
}

impl BankState {
    /// Creates a bank with all timing windows expired and no open row.
    pub fn new() -> Self {
        Self::default()
    }

    /// Currently open row, if any.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }

    /// Time of the most recent ACT (used for rank-level tFAW tracking).
    pub fn last_act(&self) -> SimTime {
        self.last_act
    }

    /// Schedules the row-preparation phase of an access to `row` arriving
    /// at `earliest`. Returns `(cas_issue_time, outcome)`: the first
    /// instant a RD column command may issue, and whether this was a
    /// hit, an empty-row activate, or a conflict.
    ///
    /// `act_allowed_at` carries rank-level constraints (tFAW, tRRD) into
    /// the bank; pass `earliest` when none apply.
    pub fn prepare(
        &mut self,
        earliest: SimTime,
        act_allowed_at: SimTime,
        row: u64,
        t: &TimingDurations,
    ) -> (SimTime, RowOutcome) {
        match self.open_row {
            Some(open) if open == row => {
                let at = earliest.max(self.next_cas_ok);
                (at, RowOutcome::Hit)
            }
            Some(_) => {
                // PRE then ACT then CAS.
                let pre_at = earliest.max(self.next_pre_ok);
                let act_at = (pre_at + t.rp).max(self.next_act_ok).max(act_allowed_at);
                self.activate(act_at, row, t);
                (self.next_cas_ok, RowOutcome::Conflict)
            }
            None => {
                let act_at = earliest.max(self.next_act_ok).max(act_allowed_at);
                self.activate(act_at, row, t);
                (self.next_cas_ok, RowOutcome::Empty)
            }
        }
    }

    fn activate(&mut self, at: SimTime, row: u64, t: &TimingDurations) {
        self.open_row = Some(row);
        self.last_act = at;
        self.next_cas_ok = at + t.rcd;
        self.next_pre_ok = at + t.ras;
        self.next_act_ok = at + t.rc;
    }

    /// Records that a read burst issued at `cas_at`; updates the earliest
    /// legal precharge (tRTP).
    pub fn complete_read(&mut self, cas_at: SimTime, t: &TimingDurations) {
        self.next_pre_ok = self.next_pre_ok.max(cas_at + t.rtp);
    }

    /// Forces the bank closed and blocks it until `until` (refresh).
    pub fn block_until(&mut self, until: SimTime) {
        self.open_row = None;
        self.next_act_ok = self.next_act_ok.max(until);
        self.next_cas_ok = self.next_cas_ok.max(until);
        self.next_pre_ok = self.next_pre_ok.max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DramTimings;

    fn t() -> TimingDurations {
        DramTimings::ddr5_4800().durations()
    }

    #[test]
    fn first_access_is_an_empty_activate() {
        let mut b = BankState::new();
        let (cas, outcome) = b.prepare(SimTime::ZERO, SimTime::ZERO, 7, &t());
        assert_eq!(outcome, RowOutcome::Empty);
        assert_eq!(cas, SimTime::ZERO + t().rcd);
        assert_eq!(b.open_row(), Some(7));
    }

    #[test]
    fn second_access_same_row_is_a_hit() {
        let mut b = BankState::new();
        let (cas1, _) = b.prepare(SimTime::ZERO, SimTime::ZERO, 7, &t());
        b.complete_read(cas1, &t());
        let (cas2, outcome) = b.prepare(cas1, cas1, 7, &t());
        assert_eq!(outcome, RowOutcome::Hit);
        assert_eq!(cas2, cas1); // no extra row preparation
    }

    #[test]
    fn conflict_pays_pre_act_and_respects_tras() {
        let tt = t();
        let mut b = BankState::new();
        let (cas1, _) = b.prepare(SimTime::ZERO, SimTime::ZERO, 1, &tt);
        b.complete_read(cas1, &tt);
        let (cas2, outcome) = b.prepare(cas1, cas1, 2, &tt);
        assert_eq!(outcome, RowOutcome::Conflict);
        // PRE cannot issue before ACT + tRAS; CAS then waits tRP + tRCD.
        let act0 = SimTime::ZERO;
        let min_cas2 = act0 + tt.ras + tt.rp + tt.rcd;
        assert!(cas2 >= min_cas2, "cas2={cas2} min={min_cas2}");
    }

    #[test]
    fn conflicts_never_beat_trc() {
        let tt = t();
        let mut b = BankState::new();
        let (c1, _) = b.prepare(SimTime::ZERO, SimTime::ZERO, 1, &tt);
        b.complete_read(c1, &tt);
        let (_c2, _) = b.prepare(c1, c1, 2, &tt);
        // The second ACT must be ≥ tRC after the first.
        assert!(b.last_act() >= SimTime::ZERO + tt.rc);
    }

    #[test]
    fn refresh_block_closes_the_row() {
        let tt = t();
        let mut b = BankState::new();
        b.prepare(SimTime::ZERO, SimTime::ZERO, 3, &tt);
        b.block_until(SimTime::from_ns(500));
        assert_eq!(b.open_row(), None);
        let (cas, outcome) = b.prepare(SimTime::from_ns(100), SimTime::from_ns(100), 3, &tt);
        assert_eq!(outcome, RowOutcome::Empty);
        assert!(cas >= SimTime::from_ns(500));
    }

    #[test]
    fn rank_constraint_delays_activate() {
        let tt = t();
        let mut b = BankState::new();
        let gate = SimTime::from_ns(1000);
        let (cas, _) = b.prepare(SimTime::ZERO, gate, 1, &tt);
        assert!(cas >= gate + tt.rcd);
    }
}
