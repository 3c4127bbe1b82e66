//! Deterministic random numbers for reproducible experiments.
//!
//! Every trace generator and placement policy in this workspace takes an
//! explicit seed so that `cargo run -p pifs-bench --bin repro -- fig12a`
//! prints the same rows on every machine. `DetRng` is a SplitMix64
//! generator: tiny, fast, full 64-bit period, and — unlike `rand`'s default
//! `ThreadRng` — guaranteed stable across platforms and versions.
//!
//! The `rand` crate is still used where distribution plumbing helps
//! (`tracegen` wires `DetRng` into `rand` via [`rand::RngCore`]).

use rand::RngCore;

/// A seeded SplitMix64 generator.
///
/// # Examples
///
/// ```
/// use simkit::DetRng;
///
/// let mut a = DetRng::new(7);
/// let mut b = DetRng::new(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed ⇒ same stream
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from `seed`. Different seeds give statistically
    /// independent streams.
    pub fn new(seed: u64) -> Self {
        DetRng { state: seed }
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        // SplitMix64 (Steele, Lea, Flood 2014).
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a positive bound");
        Self::below_of(self.next_u64(), bound)
    }

    /// [`below`](Self::below)'s map from one 64-bit word to `[0, bound)`
    /// (`0` for a zero bound), for a caller that spends the same word
    /// more than one way.
    #[inline]
    pub fn below_of(word: u64, bound: u64) -> u64 {
        // Lemire's multiply-shift rejection-free approximation is fine
        // here: the simulation does not need cryptographic uniformity and
        // bound ≪ 2^64 keeps bias negligible.
        ((word as u128 * bound as u128) >> 64) as u64
    }

    /// Returns a uniform float in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        Self::unit_of(self.next_u64())
    }

    /// [`unit_f64`](Self::unit_f64)'s map from one 64-bit word to
    /// `[0, 1)`: its top 53 bits, scaled.
    #[inline]
    pub fn unit_of(word: u64) -> f64 {
        (word >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns an exponential draw with the given `mean`, by inverting
    /// the CDF on `1 - unit_f64()`, which lies in `(0, 1]` and so never
    /// takes `ln(0)`.
    #[inline]
    pub fn exp(&mut self, mean: f64) -> f64 {
        -(1.0 - self.unit_f64()).ln() * mean
    }

    /// Spawns an independent child generator; used to give each simulated
    /// host or table its own stream without correlation.
    pub fn fork(&mut self) -> DetRng {
        DetRng::new(self.next_u64() ^ 0xA5A5_5A5A_DEAD_BEEF)
    }

    /// The generator's cursor: the full internal state, as one word.
    /// Together with [`DetRng::from_state`] this is the checkpoint API —
    /// a restored generator replays the exact continuation stream.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Rebuilds a generator from a [`DetRng::state`] snapshot.
    ///
    /// Unlike [`DetRng::new`], which treats its argument as a seed, this
    /// resumes mid-stream: `from_state(g.state())` continues exactly
    /// where `g` left off.
    pub fn from_state(state: u64) -> DetRng {
        DetRng { state }
    }
}

impl RngCore for DetRng {
    fn next_u32(&mut self) -> u32 {
        (DetRng::next_u64(self) >> 32) as u32
    }
    fn next_u64(&mut self) -> u64 {
        DetRng::next_u64(self)
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = DetRng::next_u64(self).to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        self.fill_bytes(dest);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(123);
        let mut b = DetRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn stream_matches_golden_values_across_runs() {
        // Cross-run (and cross-machine) determinism: the first outputs
        // of seed 2024 are pinned, so any change to the generator's
        // algorithm — which would silently re-time every experiment in
        // the workspace — fails loudly here.
        let mut rng = DetRng::new(2024);
        let observed: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
        assert_eq!(
            observed,
            [
                0x9F6D_8FEC_F88E_ECD5,
                0x18E4_30BB_1511_F2D2,
                0x4C6F_7CBF_58DB_A57F,
                0x1DBE_69E0_AE9B_B859,
            ]
        );
        // Restarting from the same seed replays the identical prefix.
        let mut replay = DetRng::new(2024);
        assert_eq!(replay.next_u64(), observed[0]);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn below_respects_bound() {
        let mut rng = DetRng::new(99);
        for _ in 0..10_000 {
            assert!(rng.below(17) < 17);
        }
    }

    #[test]
    fn unit_f64_in_range_and_covers_spread() {
        let mut rng = DetRng::new(4);
        let mut lo = false;
        let mut hi = false;
        for _ in 0..10_000 {
            let v = rng.unit_f64();
            assert!((0.0..1.0).contains(&v));
            lo |= v < 0.1;
            hi |= v > 0.9;
        }
        assert!(lo && hi, "10k draws should cover both tails");
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = DetRng::new(31);
        let mut buckets = [0u32; 8];
        let n = 80_000;
        for _ in 0..n {
            buckets[rng.below(8) as usize] += 1;
        }
        let expect = n / 8;
        for (i, &c) in buckets.iter().enumerate() {
            let dev = (c as i64 - expect as i64).abs();
            assert!(dev < expect as i64 / 10, "bucket {i} count {c}");
        }
    }

    #[test]
    fn fork_produces_independent_stream() {
        let mut parent = DetRng::new(5);
        let mut child = parent.fork();
        let p: Vec<u64> = (0..16).map(|_| parent.next_u64()).collect();
        let c: Vec<u64> = (0..16).map(|_| child.next_u64()).collect();
        assert_ne!(p, c);
    }

    #[test]
    fn state_round_trips_mid_stream() {
        let mut g = DetRng::new(2024);
        let _ = g.next_u64();
        let _ = g.next_u64();
        let snapshot = g.state();
        let expect: Vec<u64> = (0..8).map(|_| g.next_u64()).collect();
        let mut resumed = DetRng::from_state(snapshot);
        let got: Vec<u64> = (0..8).map(|_| resumed.next_u64()).collect();
        assert_eq!(got, expect, "restored cursor must replay the continuation");
        // And the restored generator is a full equal of the original.
        assert_eq!(resumed, g);
    }

    #[test]
    fn fill_bytes_fills_odd_lengths() {
        let mut rng = DetRng::new(8);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
