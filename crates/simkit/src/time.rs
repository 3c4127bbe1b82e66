//! Simulated time, in integer nanoseconds.
//!
//! The paper's simulator runs its top module at one nanosecond per clock
//! tick (§VI-A: "a top-module clock tick period of one ns/clk"), so a
//! `u64` nanosecond counter is both exact and sufficient for runs lasting
//! centuries of simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant on the simulated clock, in nanoseconds since the
/// start of the simulation.
///
/// # Examples
///
/// ```
/// use simkit::{SimTime, SimDuration};
/// let t = SimTime::ZERO + SimDuration::from_ns(250);
/// assert_eq!(t.as_ns(), 250);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// # Examples
///
/// ```
/// use simkit::SimDuration;
/// let d = SimDuration::from_ns(100) + SimDuration::from_ns(50);
/// assert_eq!(d.as_ns(), 150);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `ns` nanoseconds after the origin.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Returns the instant as nanoseconds since the origin.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Returns the later of `self` and `other`.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Returns the duration from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self`.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        assert!(
            earlier.0 <= self.0,
            "since() called with a later instant: {earlier} > {self}"
        );
        SimDuration(self.0 - earlier.0)
    }

    /// Returns the duration from `earlier` to `self`, or zero if `earlier`
    /// is after `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `ns` nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration of `us` microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from a picosecond count, rounding up to the next
    /// whole nanosecond (DRAM datasheets quote tCK in picoseconds).
    pub const fn from_ps_ceil(ps: u64) -> Self {
        SimDuration(ps.div_ceil(1000))
    }

    /// Returns the duration in nanoseconds.
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Multiplies the duration by an integer factor.
    pub const fn times(self, n: u64) -> SimDuration {
        SimDuration(self.0 * n)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("duration underflow"))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ns", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ns", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_ns(100);
        let d = SimDuration::from_ns(40);
        assert_eq!((t + d).since(t), d);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let early = SimTime::from_ns(5);
        let late = SimTime::from_ns(10);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early).as_ns(), 5);
    }

    #[test]
    #[should_panic(expected = "later instant")]
    fn since_panics_on_negative_span() {
        let _ = SimTime::from_ns(1).since(SimTime::from_ns(2));
    }

    #[test]
    fn ps_ceil_rounds_up() {
        assert_eq!(SimDuration::from_ps_ceil(625).as_ns(), 1);
        assert_eq!(SimDuration::from_ps_ceil(1000).as_ns(), 1);
        assert_eq!(SimDuration::from_ps_ceil(1001).as_ns(), 2);
        assert_eq!(SimDuration::from_ps_ceil(0).as_ns(), 0);
    }

    #[test]
    fn max_picks_later() {
        assert_eq!(
            SimTime::from_ns(3).max(SimTime::from_ns(7)),
            SimTime::from_ns(7)
        );
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(SimTime::from_ns(12).to_string(), "12 ns");
        assert_eq!(SimDuration::from_us(2).to_string(), "2000 ns");
    }
}
