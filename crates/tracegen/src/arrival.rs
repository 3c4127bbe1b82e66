//! Query arrival processes for open-loop serving experiments.
//!
//! Closed-loop runs feed the simulator batches back-to-back, so load is
//! whatever the engine can absorb. Open-loop serving instead timestamps
//! each query from an *arrival process* at a configured rate and lets
//! the queue build when the engine falls behind — the setup that turns
//! aggregate runtime into a latency-vs-QPS curve. Three families cover
//! the serving literature's standard shapes:
//!
//! * [`ArrivalProcess::Fixed`] — metronome arrivals at exactly `qps`
//!   (the zero-variance baseline; any queueing observed is service-time
//!   variance, not arrival jitter);
//! * [`ArrivalProcess::Poisson`] — exponential inter-arrival gaps, the
//!   classic open-loop model of independent users;
//! * [`ArrivalProcess::Bursty`] — a two-state Markov-modulated Poisson
//!   process (MMPP-2) alternating between a high-rate and a low-rate
//!   state with exponentially distributed dwell times; time-averaged
//!   rate stays `qps` while bursts stress the batcher and queue depth;
//! * [`ArrivalProcess::Diurnal`] — a non-homogeneous Poisson process
//!   whose rate follows a sinusoid of configurable amplitude and period
//!   around `qps`, the load shape of day/night traffic compressed to
//!   simulation time scales. Long-horizon streaming runs use it to
//!   sweep the engine through the latency knee and back within one
//!   trace.
//! * [`ArrivalProcess::Flash`] — the diurnal base with a crowd spike:
//!   a `flash:<mult>:<at_s>:<dur_s>` window inside which the rate is
//!   multiplied by `mult`, the sudden-hot-item shape the adaptive
//!   serving controllers are stress-tested against.
//!
//! Generation is deterministic: the same `(process, seed)` pair always
//! yields the same timestamp stream (golden-value tested), seeded
//! per-point via the same splitmix convention as the trace generator.

use serde::{Deserialize, Serialize};
use simkit::{DetRng, SimTime};

/// The stochastic process query arrival times are drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ArrivalProcess {
    /// Metronome arrivals: query `i` arrives at exactly `i / qps`.
    Fixed {
        /// Mean arrival rate, queries per second.
        qps: f64,
    },
    /// Poisson arrivals: i.i.d. exponential inter-arrival gaps.
    Poisson {
        /// Mean arrival rate, queries per second.
        qps: f64,
    },
    /// MMPP-2 arrivals: Poisson at rate `qps·(1+burst)` in the high
    /// state and `qps·(1-burst)` in the low state, with exponentially
    /// distributed state dwell times of mean `dwell_us`. Equal expected
    /// dwell in each state keeps the time-averaged rate at `qps`.
    Bursty {
        /// Time-averaged arrival rate, queries per second.
        qps: f64,
        /// Burst intensity in `[0, 1)`: 0 degenerates to Poisson, 0.9
        /// means the high state runs at 1.9× and the low state at 0.1×
        /// the mean rate.
        burst: f64,
        /// Mean dwell time per state, microseconds.
        dwell_us: f64,
    },
    /// Sinusoidally modulated Poisson arrivals: the instantaneous rate
    /// is `qps·(1 + amplitude·sin(2πt/period))`, approximated by
    /// [`DIURNAL_SEGMENTS`] piecewise-constant rate segments per period
    /// (exponential gaps within a segment; a draw that overruns the
    /// segment boundary is redrawn at the next segment's rate, exact by
    /// memorylessness). The sinusoid integrates to zero over a period,
    /// so the time-averaged rate stays `qps`.
    Diurnal {
        /// Time-averaged arrival rate, queries per second.
        qps: f64,
        /// Modulation depth in `[0, 1)`: peak rate `qps·(1+amplitude)`,
        /// trough `qps·(1-amplitude)`.
        amplitude: f64,
        /// Modulation period, seconds of simulated time.
        period_s: f64,
    },
    /// A crowd spike layered on [`ArrivalProcess::Diurnal`]: the same
    /// segmented sinusoid, with every segment whose midpoint falls in
    /// `[at_s, at_s + dur_s)` running at `mult` times its sinusoidal
    /// rate. Outside the spike window the stream is the diurnal base
    /// (though not draw-for-draw identical to a [`Self::Diurnal`] of
    /// the same seed once the window has consumed RNG draws).
    Flash {
        /// Base (off-spike) time-averaged arrival rate, queries per second.
        qps: f64,
        /// Diurnal modulation depth in `[0, 1)`.
        amplitude: f64,
        /// Diurnal modulation period, seconds of simulated time.
        period_s: f64,
        /// Rate multiplier inside the spike window (`>= 1`).
        mult: f64,
        /// Spike start, seconds of simulated time.
        at_s: f64,
        /// Spike duration, seconds of simulated time (`> 0`).
        dur_s: f64,
    },
}

/// Piecewise-constant rate segments per diurnal period. 64 keeps the
/// staircase within a fraction of a percent of the true sinusoid while
/// the per-segment rate stays a pure function of the segment index
/// (checkpoint state is just the segment cursor).
pub const DIURNAL_SEGMENTS: u64 = 64;

impl ArrivalProcess {
    /// Parses a sweep-parameter spelling at a given rate: `fixed`,
    /// `poisson`, `bursty` (defaults: burst 0.8, dwell 200 µs),
    /// `bursty:<burst>:<dwell_us>`, `diurnal` (defaults: amplitude 0.5,
    /// period 1 s), `diurnal:<amplitude>:<period_s>`, or
    /// `flash:<mult>:<at_s>:<dur_s>` (a crowd spike layered on the
    /// default diurnal base). The error names the offending piece:
    /// unknown spellings, non-positive `qps`, burst/amplitude outside
    /// `[0, 1)`, non-positive dwell/period, or a degenerate spike
    /// window.
    pub fn parse(spec: &str, qps: f64) -> Result<ArrivalProcess, String> {
        let mut parts = spec.split(':');
        let head = parts.next().unwrap_or_default().to_ascii_lowercase();
        let mut arg = |what: &str| -> Result<Option<f64>, String> {
            match parts.next() {
                None => Ok(None),
                Some(raw) => raw
                    .parse::<f64>()
                    .map(Some)
                    .map_err(|_| format!("{what} {raw:?} is not a number")),
            }
        };
        let process = match head.as_str() {
            "fixed" => ArrivalProcess::Fixed { qps },
            "poisson" => ArrivalProcess::Poisson { qps },
            "bursty" => {
                let (burst, dwell_us) = match arg("burst fraction")? {
                    Some(b) => {
                        let dwell = arg("dwell")?
                            .ok_or_else(|| "bursty:<burst> is missing its dwell (µs)".to_string())?;
                        (b, dwell)
                    }
                    None => (0.8, 200.0),
                };
                ArrivalProcess::Bursty {
                    qps,
                    burst,
                    dwell_us,
                }
            }
            "diurnal" => {
                let (amplitude, period_s) = match arg("amplitude")? {
                    Some(a) => {
                        let period = arg("period")?
                            .ok_or_else(|| "diurnal:<amplitude> is missing its period (s)".to_string())?;
                        (a, period)
                    }
                    None => (0.5, 1.0),
                };
                ArrivalProcess::Diurnal {
                    qps,
                    amplitude,
                    period_s,
                }
            }
            "flash" => {
                let mult = arg("flash multiplier")?.ok_or_else(|| {
                    "flash is missing its multiplier (flash:<mult>:<at_s>:<dur_s>)".to_string()
                })?;
                let at_s = arg("flash start")?
                    .ok_or_else(|| "flash:<mult> is missing its start (s)".to_string())?;
                let dur_s = arg("flash duration")?
                    .ok_or_else(|| "flash:<mult>:<at_s> is missing its duration (s)".to_string())?;
                ArrivalProcess::Flash {
                    qps,
                    amplitude: 0.5,
                    period_s: 1.0,
                    mult,
                    at_s,
                    dur_s,
                }
            }
            other => {
                return Err(format!(
                    "unknown arrival process {other:?} (fixed|poisson|bursty[:burst:dwell_us]|diurnal[:amplitude:period_s]|flash:<mult>:<at_s>:<dur_s>)"
                ))
            }
        };
        if let Some(junk) = parts.next() {
            return Err(format!("trailing arrival argument {junk:?}"));
        }
        process.validate()?;
        Ok(process)
    }

    /// Checks the process's parameters: a positive, finite rate; burst
    /// and amplitude in `[0, 1)`; positive, finite dwell, period and
    /// flash duration; a finite flash multiplier `>= 1` and a finite
    /// flash start `>= 0`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first offending parameter.
    pub fn validate(&self) -> Result<(), String> {
        let qps = self.qps();
        if !(qps > 0.0 && qps.is_finite()) {
            return Err(format!(
                "arrival rate must be positive and finite, got {qps}"
            ));
        }
        if let ArrivalProcess::Bursty {
            burst, dwell_us, ..
        } = *self
        {
            if !(0.0..1.0).contains(&burst) {
                return Err(format!("burst fraction {burst} must lie in [0, 1)"));
            }
            if !(dwell_us > 0.0 && dwell_us.is_finite()) {
                return Err(format!("dwell {dwell_us} must be positive and finite"));
            }
        }
        if let ArrivalProcess::Diurnal {
            amplitude,
            period_s,
            ..
        }
        | ArrivalProcess::Flash {
            amplitude,
            period_s,
            ..
        } = *self
        {
            if !(0.0..1.0).contains(&amplitude) {
                return Err(format!("amplitude {amplitude} must lie in [0, 1)"));
            }
            if !(period_s > 0.0 && period_s.is_finite()) {
                return Err(format!("period {period_s} must be positive and finite"));
            }
        }
        if let ArrivalProcess::Flash {
            mult, at_s, dur_s, ..
        } = *self
        {
            if !(mult >= 1.0 && mult.is_finite()) {
                return Err(format!("flash multiplier {mult} must be >= 1 and finite"));
            }
            if !(at_s >= 0.0 && at_s.is_finite()) {
                return Err(format!("flash start {at_s} must be >= 0 and finite"));
            }
            if !(dur_s > 0.0 && dur_s.is_finite()) {
                return Err(format!(
                    "flash duration {dur_s} must be positive and finite"
                ));
            }
        }
        Ok(())
    }

    /// The configured mean rate, queries per second.
    pub fn qps(&self) -> f64 {
        match *self {
            ArrivalProcess::Fixed { qps }
            | ArrivalProcess::Poisson { qps }
            | ArrivalProcess::Bursty { qps, .. }
            | ArrivalProcess::Diurnal { qps, .. }
            | ArrivalProcess::Flash { qps, .. } => qps,
        }
    }

    /// Generates the first `n` arrival timestamps for `seed`, sorted
    /// non-decreasing (a convenience over [`ArrivalGen`]).
    pub fn times(&self, n: usize, seed: u64) -> Vec<SimTime> {
        let mut generator = ArrivalGen::new(*self, seed);
        (0..n).map(|_| generator.next_time()).collect()
    }
}

/// Nanoseconds per second, as the f64 the rate arithmetic runs in.
const NS_PER_S: f64 = 1e9;

/// A stateful, deterministic arrival-timestamp generator.
///
/// # Examples
///
/// ```
/// use tracegen::{ArrivalGen, ArrivalProcess};
/// let p = ArrivalProcess::Poisson { qps: 100_000.0 };
/// let mut a = ArrivalGen::new(p, 7);
/// let mut b = ArrivalGen::new(p, 7);
/// assert_eq!(a.next_time(), b.next_time()); // same seed ⇒ same stream
/// ```
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: DetRng,
    /// Exact arrival clock in f64 nanoseconds (timestamps are rounded
    /// per-emission, so rounding error does not accumulate).
    clock_ns: f64,
    /// Fixed: arrivals emitted so far. Diurnal: current rate-segment
    /// index (monotone; the rate depends on it modulo
    /// [`DIURNAL_SEGMENTS`]).
    emitted: u64,
    /// Bursty: currently in the high-rate state.
    high: bool,
    /// Bursty: nanoseconds left in the current state's dwell. Diurnal:
    /// nanoseconds left in the current rate segment.
    dwell_left_ns: f64,
}

impl ArrivalGen {
    /// Creates a generator for `process` with its own RNG stream.
    ///
    /// # Panics
    ///
    /// Panics with [`ArrivalProcess::validate`]'s message if the
    /// process's parameters are out of range.
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        if let Err(why) = process.validate() {
            panic!("{why}");
        }
        let mut rng = DetRng::new(seed);
        let dwell_left_ns = match process {
            ArrivalProcess::Bursty { dwell_us, .. } => rng.exp(dwell_us * 1_000.0),
            ArrivalProcess::Diurnal { period_s, .. } | ArrivalProcess::Flash { period_s, .. } => {
                period_s * NS_PER_S / DIURNAL_SEGMENTS as f64
            }
            _ => 0.0,
        };
        ArrivalGen {
            process,
            rng,
            clock_ns: 0.0,
            emitted: 0,
            high: true,
            dwell_left_ns,
        }
    }

    /// The next arrival timestamp. Successive calls are non-decreasing.
    pub fn next_time(&mut self) -> SimTime {
        let ns = match self.process {
            ArrivalProcess::Fixed { qps } => {
                let t = (self.emitted as f64 * (NS_PER_S / qps)).round();
                self.emitted += 1;
                t
            }
            ArrivalProcess::Poisson { qps } => {
                self.clock_ns += self.rng.exp(NS_PER_S / qps);
                self.clock_ns.round()
            }
            ArrivalProcess::Bursty {
                qps,
                burst,
                dwell_us,
            } => {
                loop {
                    let rate = if self.high {
                        qps * (1.0 + burst)
                    } else {
                        qps * (1.0 - burst)
                    };
                    // Rate 0 (burst → 1 in the low state) draws an
                    // infinite gap, falling through to the state flip.
                    let gap = self.rng.exp(NS_PER_S / rate);
                    if gap <= self.dwell_left_ns {
                        self.dwell_left_ns -= gap;
                        self.clock_ns += gap;
                        break;
                    }
                    // The draw overruns this state's dwell: consume the
                    // remainder, flip state, and redraw at the new rate
                    // (the exponential's memorylessness makes the
                    // redraw distribution-exact).
                    self.clock_ns += self.dwell_left_ns;
                    self.high = !self.high;
                    self.dwell_left_ns = self.rng.exp(dwell_us * 1_000.0);
                }
                self.clock_ns.round()
            }
            ArrivalProcess::Diurnal {
                qps,
                amplitude,
                period_s,
            } => self.segmented_walk(qps, amplitude, period_s, None),
            ArrivalProcess::Flash {
                qps,
                amplitude,
                period_s,
                mult,
                at_s,
                dur_s,
            } => self.segmented_walk(qps, amplitude, period_s, Some((mult, at_s, dur_s))),
        };
        SimTime::from_ns(ns as u64)
    }

    /// The shared diurnal/flash segment walk: exponential gaps within a
    /// piecewise-constant rate segment, redrawn at the boundary (exact
    /// by memorylessness). `flash = Some((mult, at_s, dur_s))` layers
    /// the crowd spike on top: segments whose midpoint falls inside
    /// `[at_s, at_s + dur_s)` run at `mult` times the sinusoidal rate.
    fn segmented_walk(
        &mut self,
        qps: f64,
        amplitude: f64,
        period_s: f64,
        flash: Option<(f64, f64, f64)>,
    ) -> f64 {
        let seg_ns = period_s * NS_PER_S / DIURNAL_SEGMENTS as f64;
        loop {
            // Segment rate at the segment's midpoint phase: a
            // pure function of the segment index, so the only
            // checkpoint state is (index, remaining dwell).
            let phase = (self.emitted % DIURNAL_SEGMENTS) as f64 + 0.5;
            let mut rate = qps
                * (1.0
                    + amplitude * (std::f64::consts::TAU * phase / DIURNAL_SEGMENTS as f64).sin());
            if let Some((mult, at_s, dur_s)) = flash {
                let mid_ns = (self.emitted as f64 + 0.5) * seg_ns;
                if mid_ns >= at_s * NS_PER_S && mid_ns < (at_s + dur_s) * NS_PER_S {
                    rate *= mult;
                }
            }
            let gap = self.rng.exp(NS_PER_S / rate);
            if gap <= self.dwell_left_ns {
                self.dwell_left_ns -= gap;
                self.clock_ns += gap;
                break;
            }
            // Overran the segment: consume the remainder and
            // redraw at the next segment's rate (memorylessness
            // makes the redraw distribution-exact).
            self.clock_ns += self.dwell_left_ns;
            self.emitted += 1;
            self.dwell_left_ns = seg_ns;
        }
        self.clock_ns.round()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn first_n(process: ArrivalProcess, seed: u64, n: usize) -> Vec<u64> {
        process
            .times(n, seed)
            .into_iter()
            .map(SimTime::as_ns)
            .collect()
    }

    #[test]
    fn fixed_is_a_metronome() {
        let t = first_n(ArrivalProcess::Fixed { qps: 1_000_000.0 }, 0, 5);
        assert_eq!(t, [0, 1000, 2000, 3000, 4000]);
    }

    /// Golden first-20 values (like the DetRng stream test): any change
    /// to the generator algorithm — which would silently re-time every
    /// serving experiment — fails loudly here.
    #[test]
    fn poisson_stream_matches_golden_values() {
        let t = first_n(ArrivalProcess::Poisson { qps: 100_000.0 }, 2024, 20);
        assert_eq!(
            t,
            [
                9749, 10772, 14318, 15553, 33307, 41346, 42817, 51888, 53738, 59304, 65495, 83634,
                102214, 113046, 114619, 126291, 174266, 178406, 194932, 200843
            ]
        );
    }

    #[test]
    fn bursty_stream_matches_golden_values() {
        let p = ArrivalProcess::Bursty {
            qps: 100_000.0,
            burst: 0.8,
            dwell_us: 200.0,
        };
        let t = first_n(p, 2024, 20);
        assert_eq!(
            t,
            [
                568, 2539, 3225, 13088, 17554, 18371, 23411, 24438, 27531, 30970, 41047, 51370,
                57387, 58261, 64746, 91398, 93699, 102880, 106164, 110032
            ]
        );
    }

    #[test]
    fn diurnal_stream_matches_golden_values() {
        let p = ArrivalProcess::Diurnal {
            qps: 100_000.0,
            amplitude: 0.5,
            period_s: 0.01,
        };
        let t = first_n(p, 2024, 20);
        assert_eq!(
            t,
            [
                9515, 10514, 13975, 15181, 32509, 40356, 41791, 50646, 52451, 57884, 63926, 81631,
                99767, 110339, 111874, 123267, 160107, 175504, 181011, 187498
            ]
        );
    }

    #[test]
    fn flash_stream_matches_golden_values() {
        let p = ArrivalProcess::Flash {
            qps: 100_000.0,
            amplitude: 0.5,
            period_s: 0.01,
            mult: 4.0,
            at_s: 0.0,
            dur_s: 0.0001,
        };
        let t = first_n(p, 2024, 20);
        assert_eq!(
            t,
            [
                2379, 2628, 3494, 3795, 8127, 10089, 10448, 12661, 13113, 14471, 15982, 20408,
                24942, 27585, 27968, 30817, 42523, 43534, 47566, 49008
            ]
        );
    }

    #[test]
    fn flash_spike_concentrates_arrivals() {
        // A 4× spike over [1 ms, 3 ms) of a 10 ms period must make the
        // in-window arrival rate several times the off-window rate.
        let p = ArrivalProcess::Flash {
            qps: 1_000_000.0,
            amplitude: 0.5,
            period_s: 0.01,
            mult: 4.0,
            at_s: 0.001,
            dur_s: 0.002,
        };
        let t = first_n(p, 17, 20_000);
        let window = (1_000_000u64, 3_000_000u64);
        let inside = t
            .iter()
            .filter(|&&ns| (window.0..window.1).contains(&ns))
            .count() as f64;
        let before = t.iter().filter(|&&ns| ns < window.0).count() as f64;
        // Per-ns densities: the window is 2 ms wide, the lead-in 1 ms.
        assert!(
            inside / 2.0 > 2.5 * before,
            "spike density {inside}/2 vs lead-in {before}"
        );
    }

    #[test]
    fn diurnal_rate_tracks_the_sinusoid() {
        // With a 10 ms period, arrivals in the first half-period (rate
        // above mean) must outnumber arrivals in the second (rate below
        // mean) by a clear margin.
        let p = ArrivalProcess::Diurnal {
            qps: 1_000_000.0,
            amplitude: 0.8,
            period_s: 0.01,
        };
        let t = first_n(p, 17, 12_000);
        let half_ns = 5_000_000u64;
        let first_half = t.iter().filter(|&&ns| ns < half_ns).count();
        let second_half = t
            .iter()
            .filter(|&&ns| (half_ns..2 * half_ns).contains(&ns))
            .count();
        assert!(
            first_half > 2 * second_half,
            "peak-phase arrivals {first_half} vs trough-phase {second_half}"
        );
    }

    #[test]
    fn streams_are_reproducible_and_seed_sensitive() {
        for p in [
            ArrivalProcess::Fixed { qps: 50_000.0 },
            ArrivalProcess::Poisson { qps: 50_000.0 },
            ArrivalProcess::Bursty {
                qps: 50_000.0,
                burst: 0.5,
                dwell_us: 100.0,
            },
            ArrivalProcess::Diurnal {
                qps: 50_000.0,
                amplitude: 0.5,
                period_s: 0.01,
            },
            ArrivalProcess::Flash {
                qps: 50_000.0,
                amplitude: 0.5,
                period_s: 0.01,
                mult: 3.0,
                at_s: 0.001,
                dur_s: 0.002,
            },
        ] {
            assert_eq!(first_n(p, 7, 100), first_n(p, 7, 100), "{p:?}");
            if p != (ArrivalProcess::Fixed { qps: 50_000.0 }) {
                assert_ne!(first_n(p, 7, 100), first_n(p, 8, 100), "{p:?}");
            }
        }
    }

    #[test]
    fn timestamps_are_monotone_nondecreasing() {
        for p in [
            ArrivalProcess::Fixed { qps: 250_000.0 },
            ArrivalProcess::Poisson { qps: 250_000.0 },
            ArrivalProcess::Bursty {
                qps: 250_000.0,
                burst: 0.9,
                dwell_us: 50.0,
            },
            ArrivalProcess::Diurnal {
                qps: 250_000.0,
                amplitude: 0.9,
                period_s: 0.002,
            },
            ArrivalProcess::Flash {
                qps: 250_000.0,
                amplitude: 0.9,
                period_s: 0.002,
                mult: 8.0,
                at_s: 0.0005,
                dur_s: 0.001,
            },
        ] {
            let t = first_n(p, 3, 10_000);
            for w in t.windows(2) {
                assert!(w[0] <= w[1], "{p:?}: {} > {}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn mean_rate_converges_to_qps() {
        // 50k draws: the empirical rate of every family lands within a
        // few percent of the configured rate.
        for p in [
            ArrivalProcess::Poisson { qps: 100_000.0 },
            ArrivalProcess::Bursty {
                qps: 100_000.0,
                burst: 0.8,
                dwell_us: 200.0,
            },
            ArrivalProcess::Diurnal {
                qps: 100_000.0,
                amplitude: 0.5,
                period_s: 0.01,
            },
        ] {
            let n = 50_000;
            let t = first_n(p, 11, n);
            let span_s = *t.last().unwrap() as f64 / NS_PER_S;
            let rate = (n as f64 - 1.0) / span_s;
            assert!(
                (rate - 100_000.0).abs() < 5_000.0,
                "{p:?}: empirical rate {rate}"
            );
        }
    }

    #[test]
    fn bursty_gaps_have_higher_variance_than_poisson() {
        let gaps = |p| {
            let t = first_n(p, 13, 20_000);
            let d: Vec<f64> = t.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
            let mean = d.iter().sum::<f64>() / d.len() as f64;
            d.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / d.len() as f64
        };
        let poisson = gaps(ArrivalProcess::Poisson { qps: 100_000.0 });
        let bursty = gaps(ArrivalProcess::Bursty {
            qps: 100_000.0,
            burst: 0.8,
            dwell_us: 200.0,
        });
        assert!(
            bursty > 1.5 * poisson,
            "bursty variance {bursty} vs poisson {poisson}"
        );
    }

    #[test]
    fn parse_covers_families_and_reports_why_it_rejects() {
        assert_eq!(
            ArrivalProcess::parse("poisson", 1000.0),
            Ok(ArrivalProcess::Poisson { qps: 1000.0 })
        );
        assert_eq!(
            ArrivalProcess::parse("Fixed", 10.0),
            Ok(ArrivalProcess::Fixed { qps: 10.0 })
        );
        assert_eq!(
            ArrivalProcess::parse("bursty", 500.0),
            Ok(ArrivalProcess::Bursty {
                qps: 500.0,
                burst: 0.8,
                dwell_us: 200.0
            })
        );
        assert_eq!(
            ArrivalProcess::parse("bursty:0.5:100", 500.0),
            Ok(ArrivalProcess::Bursty {
                qps: 500.0,
                burst: 0.5,
                dwell_us: 100.0
            })
        );
        assert_eq!(
            ArrivalProcess::parse("diurnal", 500.0),
            Ok(ArrivalProcess::Diurnal {
                qps: 500.0,
                amplitude: 0.5,
                period_s: 1.0
            })
        );
        assert_eq!(
            ArrivalProcess::parse("diurnal:0.8:0.05", 500.0),
            Ok(ArrivalProcess::Diurnal {
                qps: 500.0,
                amplitude: 0.8,
                period_s: 0.05
            })
        );
        assert_eq!(
            ArrivalProcess::parse("flash:4:0.001:0.002", 500.0),
            Ok(ArrivalProcess::Flash {
                qps: 500.0,
                amplitude: 0.5,
                period_s: 1.0,
                mult: 4.0,
                at_s: 0.001,
                dur_s: 0.002
            })
        );
        let err = |spec: &str, qps: f64| ArrivalProcess::parse(spec, qps).unwrap_err();
        assert!(err("flash", 500.0).contains("missing its multiplier"));
        assert!(err("flash:4", 500.0).contains("missing its start"));
        assert!(err("flash:4:0.001", 500.0).contains("missing its duration"));
        assert!(err("flash:0.5:0:0.001", 500.0).contains(">= 1"));
        assert!(err("flash:4:-1:0.001", 500.0).contains(">= 0"));
        assert!(err("flash:4:0:0", 500.0).contains("positive and finite"));
        assert!(err("flash:4:0:0.001:9", 500.0).contains("trailing"));
        assert!(err("diurnal:1.2:0.05", 500.0).contains("[0, 1)"));
        assert!(err("diurnal:0.5", 500.0).contains("missing its period"));
        assert!(err("bursty:1.5:100", 500.0).contains("[0, 1)"));
        assert!(err("bursty:0.5", 500.0).contains("missing its dwell"));
        assert!(err("bursty:x:100", 500.0).contains("not a number"));
        assert!(err("poisson:1", 500.0).contains("trailing"));
        assert!(err("poisson", 0.0).contains("positive and finite"));
        assert!(err("sawtooth", 500.0).contains("unknown arrival process"));
    }

    #[test]
    #[should_panic(expected = "positive and finite")]
    fn zero_rate_rejected() {
        let _ = ArrivalGen::new(ArrivalProcess::Poisson { qps: 0.0 }, 1);
    }

    #[test]
    #[should_panic(expected = "flash multiplier 0.5 must be >= 1")]
    fn generator_panics_with_the_validation_message() {
        let flash = ArrivalProcess::Flash {
            qps: 500.0,
            amplitude: 0.5,
            period_s: 1.0,
            mult: 0.5,
            at_s: 0.0,
            dur_s: 1.0,
        };
        let _ = ArrivalGen::new(flash, 1);
    }

    #[test]
    fn validate_checks_constructed_processes() {
        let bursty = |burst, dwell_us| ArrivalProcess::Bursty {
            qps: 500.0,
            burst,
            dwell_us,
        };
        assert_eq!(bursty(0.5, 100.0).validate(), Ok(()));
        assert!(bursty(1.0, 100.0)
            .validate()
            .unwrap_err()
            .contains("[0, 1)"));
        assert!(bursty(0.5, f64::NAN)
            .validate()
            .unwrap_err()
            .contains("dwell"));
        let diurnal = ArrivalProcess::Diurnal {
            qps: 500.0,
            amplitude: 0.5,
            period_s: 0.0,
        };
        assert!(diurnal.validate().unwrap_err().contains("period"));
        let fixed = ArrivalProcess::Fixed { qps: f64::INFINITY };
        assert!(fixed.validate().unwrap_err().contains("arrival rate"));
    }
}
