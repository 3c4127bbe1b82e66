//! Measurement primitives shared by every experiment harness.
//!
//! The paper reports min-max-normalized latency (Fig 12), bandwidth
//! contributions (Fig 6), access-frequency standard deviations (Fig 13(b))
//! and cache hit ratios (Fig 15). The types here collect the raw numbers
//! those plots are derived from.

use std::cell::Cell;

use crate::time::SimDuration;

thread_local! {
    /// Monotone per-thread count of simulated events (see [`record_events`]).
    static EVENT_TALLY: Cell<u64> = const { Cell::new(0) };
}

/// Records `n` simulated events on this thread's tally.
///
/// "Event" means one unit of timed simulation work — a DRAM line access,
/// a link transfer, a switch transit. The tally is thread-local (a plain
/// `Cell` increment, so hot paths pay ~1 ns), monotone, and read back
/// with [`events_recorded`]; harnesses subtract before/after snapshots
/// around a run to report an events/second throughput figure.
#[inline]
pub fn record_events(n: u64) {
    EVENT_TALLY.with(|t| t.set(t.get().wrapping_add(n)));
}

/// This thread's cumulative event tally (see [`record_events`]).
pub fn events_recorded() -> u64 {
    EVENT_TALLY.with(Cell::get)
}

/// Process-wide allocation counters behind [`CountingAlloc`]. Plain
/// atomics (not thread-locals): a global allocator runs before TLS is
/// usable and on every thread, so these must be `static` and lock-free.
static ALLOC_CALLS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static ALLOC_BYTES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static LIVE_BYTES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
static PEAK_LIVE_BYTES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// A snapshot of the process's heap traffic under [`CountingAlloc`].
/// All fields read zero unless a binary installs the counting allocator
/// (see [`CountingAlloc`] for the one-liner).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Cumulative `alloc`/`realloc` calls.
    pub calls: u64,
    /// Cumulative bytes requested across those calls.
    pub allocated_bytes: u64,
    /// Bytes currently live (allocated minus freed).
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since process start (or the last
    /// [`reset_alloc_peak`]).
    pub peak_live_bytes: u64,
}

/// Reads the current [`AllocStats`] snapshot.
pub fn alloc_stats() -> AllocStats {
    use std::sync::atomic::Ordering::Relaxed;
    AllocStats {
        calls: ALLOC_CALLS.load(Relaxed),
        allocated_bytes: ALLOC_BYTES.load(Relaxed),
        live_bytes: LIVE_BYTES.load(Relaxed),
        peak_live_bytes: PEAK_LIVE_BYTES.load(Relaxed),
    }
}

/// Resets the peak-live-bytes high-water mark to the current live size,
/// so a harness can measure the peak of one phase in isolation.
pub fn reset_alloc_peak() {
    use std::sync::atomic::Ordering::Relaxed;
    PEAK_LIVE_BYTES.store(LIVE_BYTES.load(Relaxed), Relaxed);
}

/// A counting wrapper around the system allocator, for bounded-memory
/// guard tests: cumulative call/byte tallies plus a live-bytes
/// high-water mark, all readable through [`alloc_stats`].
///
/// Install it per test binary (a global allocator is process-wide, so
/// this belongs in dedicated integration tests, not the library):
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: simkit::stats::CountingAlloc = simkit::stats::CountingAlloc::new();
/// ```
///
/// Counter updates are `Relaxed` atomics — a few nanoseconds per
/// allocation, and exact totals even under concurrency (the peak can
/// lag a racing allocation by one update, which is noise at the
/// megabyte scales the guard tests assert on).
#[derive(Debug, Default)]
pub struct CountingAlloc;

impl CountingAlloc {
    /// Creates the wrapper (const, so it can be a `static`).
    pub const fn new() -> CountingAlloc {
        CountingAlloc
    }

    fn on_alloc(size: usize) {
        use std::sync::atomic::Ordering::Relaxed;
        ALLOC_CALLS.fetch_add(1, Relaxed);
        ALLOC_BYTES.fetch_add(size as u64, Relaxed);
        let live = LIVE_BYTES.fetch_add(size as u64, Relaxed) + size as u64;
        PEAK_LIVE_BYTES.fetch_max(live, Relaxed);
    }

    fn on_dealloc(size: usize) {
        LIVE_BYTES.fetch_sub(size as u64, std::sync::atomic::Ordering::Relaxed);
    }
}

// SAFETY: defers every allocation to `std::alloc::System` unchanged;
// the wrapper only updates atomic tallies, which allocate nothing.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        let p = unsafe { std::alloc::System.alloc(layout) };
        if !p.is_null() {
            Self::on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        unsafe { std::alloc::System.dealloc(ptr, layout) };
        Self::on_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        let p = unsafe { std::alloc::System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            Self::on_dealloc(layout.size());
            Self::on_alloc(new_size);
        }
        p
    }
}

/// Sub-buckets per octave in [`LatencyHist`] (as a power of two).
const LAT_SUB_BITS: u32 = 5;
/// Sub-buckets per octave in [`LatencyHist`].
const LAT_SUB: u64 = 1 << LAT_SUB_BITS;

/// A streaming log-bucketed latency histogram with mergeable buckets.
///
/// Values are nanoseconds. Each power-of-two octave `[2^e, 2^(e+1))` is
/// split into 32 linear sub-buckets, so every recorded value lands in a
/// bucket at most `1/32` (~3.1 %) wide relative to its magnitude; values
/// below 32 ns get exact single-value buckets. [`Self::percentile`]
/// returns the upper edge of the bucket holding the requested rank —
/// a conservative estimate never below the exact order statistic and
/// never more than one bucket width above it (differentially tested
/// against a sorted-`Vec` reference).
///
/// Buckets are plain `u64` counts, so [`Self::merge`] — element-wise
/// addition plus min/max/sum folds — is exact, commutative and
/// associative: merging per-part histograms in *any* order yields the
/// same state as recording every sample into one histogram. That is the
/// property that lets the multi-threaded sweep runner combine sub-point
/// histograms without breaking byte-identical output across thread
/// counts.
///
/// # Examples
///
/// ```
/// use simkit::{LatencyHist, SimDuration};
/// let mut h = LatencyHist::new();
/// for ns in [10, 20, 1000] {
///     h.record(SimDuration::from_ns(ns));
/// }
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.percentile(0.5), 20); // small values are exact
/// assert!(h.percentile(0.99) >= 1000);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencyHist {
    /// Bucket counts, indexed by [`lat_bucket`]; grown on demand.
    buckets: Vec<u64>,
    count: u64,
    sum_ns: u128,
    min_ns: u64,
    max_ns: u64,
}

/// Bucket index of `ns`: exact below [`LAT_SUB`], then 32 linear
/// sub-buckets per power-of-two octave.
#[inline]
fn lat_bucket(ns: u64) -> usize {
    if ns < LAT_SUB {
        return ns as usize;
    }
    let e = 63 - ns.leading_zeros(); // 2^e <= ns < 2^(e+1)
    let group = (e - LAT_SUB_BITS + 1) as u64;
    let sub = (ns >> (e - LAT_SUB_BITS)) & (LAT_SUB - 1);
    (group * LAT_SUB + sub) as usize
}

/// Inclusive upper edge of bucket `idx` (inverse of [`lat_bucket`]).
#[inline]
fn lat_bucket_upper(idx: usize) -> u64 {
    let idx = idx as u64;
    if idx < LAT_SUB {
        return idx;
    }
    let group = idx / LAT_SUB;
    let sub = idx % LAT_SUB;
    let e = group as u32 + LAT_SUB_BITS - 1;
    let width = 1u64 << (e - LAT_SUB_BITS);
    // `- 1` before the sub-bucket term: the top bucket's edge is
    // exactly u64::MAX, so summing first would overflow.
    (1u64 << e) - 1 + (sub + 1) * width
}

impl LatencyHist {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        self.record_ns(d.as_ns());
    }

    /// Records one latency sample given directly in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        let idx = lat_bucket(ns);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum_ns += ns as u128;
        self.min_ns = if self.count == 1 {
            ns
        } else {
            self.min_ns.min(ns)
        };
        self.max_ns = self.max_ns.max(ns);
    }

    /// Folds `other` into `self`. Exact: the result equals a histogram
    /// that recorded both sample streams, regardless of merge order.
    pub fn merge(&mut self, other: &LatencyHist) {
        if other.count == 0 {
            return;
        }
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.min_ns = if self.count == 0 {
            other.min_ns
        } else {
            self.min_ns.min(other.min_ns)
        };
        self.max_ns = self.max_ns.max(other.max_ns);
        self.count += other.count;
        self.sum_ns += other.sum_ns;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean sample in nanoseconds (0.0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample in nanoseconds, or 0 when empty (exact).
    pub fn min_ns(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_ns
        }
    }

    /// Largest recorded sample in nanoseconds (exact; 0 when empty).
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// The p-th percentile (0.0–1.0) in nanoseconds: the upper edge of
    /// the bucket holding the rank-`ceil(p·count)` sample, clamped to
    /// the exact maximum. Never below the exact order statistic and at
    /// most ~3.1 % above it; 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return lat_bucket_upper(idx).min(self.max_ns);
            }
        }
        self.max_ns
    }
}

/// Descriptive statistics over a slice of `f64` observations.
///
/// Used for Fig 13(b)'s access-frequency standard deviation.
///
/// # Examples
///
/// ```
/// use simkit::Summary;
/// let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
/// assert!((s.mean - 5.0).abs() < 1e-12);
/// assert!((s.std_dev - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Smallest observation (0.0 when empty).
    pub min: f64,
    /// Largest observation (0.0 when empty).
    pub max: f64,
    /// Number of observations.
    pub n: usize,
}

impl Summary {
    /// Computes summary statistics of `xs`.
    pub fn of(xs: &[f64]) -> Summary {
        if xs.is_empty() {
            return Summary {
                mean: 0.0,
                std_dev: 0.0,
                min: 0.0,
                max: 0.0,
                n: 0,
            };
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        Summary {
            mean,
            std_dev: var.sqrt(),
            min: xs.iter().cloned().fold(f64::INFINITY, f64::min),
            max: xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            n: xs.len(),
        }
    }
}

/// Min-max normalizes `xs` into `[0, 1]`, the scheme the paper's Fig 12
/// caption describes ("The plot uses min-max normalization").
///
/// A constant series normalizes to all-ones (everything is simultaneously
/// the min and the max; 1.0 keeps "higher = worse latency" readable).
pub fn min_max_normalize(xs: &[f64]) -> Vec<f64> {
    let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if xs.is_empty() || (hi - lo).abs() < f64::EPSILON {
        return vec![1.0; xs.len()];
    }
    xs.iter().map(|x| (x - lo) / (hi - lo)).collect()
}

/// Normalizes `xs` by its maximum, keeping relative magnitudes (used where
/// the paper normalizes to a baseline's value rather than min-max).
pub fn max_normalize(xs: &[f64]) -> Vec<f64> {
    let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if xs.is_empty() || hi <= 0.0 {
        return vec![0.0; xs.len()];
    }
    xs.iter().map(|x| x / hi).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Exact p-th order statistic matching [`LatencyHist::percentile`]'s
    /// rank convention: the `ceil(p·n)`-th smallest sample (1-based).
    fn exact_percentile(sorted: &[u64], p: f64) -> u64 {
        let n = sorted.len() as u64;
        let rank = ((p.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n);
        sorted[(rank - 1) as usize]
    }

    #[test]
    fn latency_hist_empty_is_sane() {
        let h = LatencyHist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 0);
        assert_eq!(h.percentile(0.99), 0);
    }

    #[test]
    fn latency_hist_small_values_are_exact() {
        let mut h = LatencyHist::new();
        for ns in [0u64, 1, 5, 31] {
            h.record_ns(ns);
        }
        assert_eq!(h.percentile(0.25), 0);
        assert_eq!(h.percentile(0.5), 1);
        assert_eq!(h.percentile(0.75), 5);
        assert_eq!(h.percentile(1.0), 31);
        assert_eq!(h.min_ns(), 0);
        assert_eq!(h.max_ns(), 31);
    }

    #[test]
    fn latency_bucket_edges_are_consistent() {
        // Every bucket's upper edge must map back into that bucket, and
        // the edge+1 into the next — so the bucket partition is exact.
        for idx in 0..lat_bucket(1u64 << 40) {
            let hi = lat_bucket_upper(idx);
            assert_eq!(lat_bucket(hi), idx, "upper edge of bucket {idx}");
            assert_eq!(lat_bucket(hi + 1), idx + 1, "first value past bucket {idx}");
        }
    }

    #[test]
    fn latency_hist_handles_extreme_samples() {
        // The top octave's upper edge is exactly u64::MAX; the edge
        // arithmetic must not overflow (debug builds would panic).
        let mut h = LatencyHist::new();
        h.record_ns(u64::MAX);
        h.record_ns(u64::MAX - 1);
        h.record_ns(1u64 << 63);
        assert_eq!(h.max_ns(), u64::MAX);
        assert_eq!(h.percentile(1.0), u64::MAX);
        assert!(h.percentile(0.01) >= 1u64 << 63);
        assert_eq!(lat_bucket_upper(lat_bucket(u64::MAX)), u64::MAX);
    }

    #[test]
    fn latency_hist_percentiles_are_monotone() {
        let mut h = LatencyHist::new();
        let mut rng = crate::DetRng::new(9);
        for _ in 0..10_000 {
            h.record_ns(rng.below(1 << 22));
        }
        let mut last = 0;
        for p in [0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let v = h.percentile(p);
            assert!(v >= last, "percentile({p}) regressed: {v} < {last}");
            last = v;
        }
        assert_eq!(h.percentile(1.0), h.max_ns());
    }

    #[test]
    fn latency_hist_merge_of_empty_is_identity() {
        let mut a = LatencyHist::new();
        a.record_ns(100);
        let b = LatencyHist::new();
        let before = a.clone();
        a.merge(&b);
        assert_eq!(a, before);
        let mut c = LatencyHist::new();
        c.merge(&before);
        assert_eq!(c, before);
    }

    proptest! {
        /// Differential check against the exact sorted-`Vec` reference:
        /// the histogram estimate is never below the true order
        /// statistic and at most one sub-bucket (~3.1 %) above it.
        /// Samples mix magnitudes, duplicates and zeros.
        #[test]
        fn prop_latency_percentiles_track_sorted_reference(
            small in proptest::collection::vec(0u64..64, 1..64),
            large in proptest::collection::vec(0u64..10_000_000, 0..10_000,),
        ) {
            let mut samples = small;
            samples.extend(large);
            let mut h = LatencyHist::new();
            for &s in &samples {
                h.record_ns(s);
            }
            let mut sorted = samples;
            sorted.sort_unstable();
            for p in [0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
                let exact = exact_percentile(&sorted, p);
                let est = h.percentile(p);
                prop_assert!(est >= exact, "p{p}: est {est} < exact {exact}");
                prop_assert!(
                    est <= exact + exact / LAT_SUB + 1,
                    "p{p}: est {est} too far above exact {exact}"
                );
            }
            prop_assert_eq!(h.count(), sorted.len() as u64);
            prop_assert_eq!(h.min_ns(), sorted[0]);
            prop_assert_eq!(h.max_ns(), *sorted.last().expect("non-empty"));
        }

        /// Bucket-boundary values (2^k-1, 2^k, 2^k+1) — the edges where
        /// an off-by-one in the index math would misplace a sample.
        #[test]
        fn prop_latency_percentiles_exact_at_bucket_boundaries(
            exps in proptest::collection::vec(1u32..40, 1..200),
            offsets in proptest::collection::vec(0u64..3, 200..201),
        ) {
            let samples: Vec<u64> = exps
                .iter()
                .zip(&offsets)
                .map(|(&e, &off)| (1u64 << e) + off - 1)
                .collect();
            let mut h = LatencyHist::new();
            for &s in &samples {
                h.record_ns(s);
            }
            let mut sorted = samples;
            sorted.sort_unstable();
            for p in [0.1, 0.5, 0.99, 1.0] {
                let exact = exact_percentile(&sorted, p);
                let est = h.percentile(p);
                prop_assert!(est >= exact);
                prop_assert!(est <= exact + exact / LAT_SUB + 1);
            }
        }

        /// Splitting a sample stream into two histograms and merging
        /// them must equal the single histogram that saw everything —
        /// bucket-for-bucket, so every derived statistic agrees too.
        #[test]
        fn prop_latency_merged_equals_single(
            samples in proptest::collection::vec(0u64..5_000_000, 1..2_000),
            split in 0usize..2_000,
        ) {
            let split = split.min(samples.len());
            let mut whole = LatencyHist::new();
            let mut a = LatencyHist::new();
            let mut b = LatencyHist::new();
            for (i, &s) in samples.iter().enumerate() {
                whole.record_ns(s);
                if i < split { a.record_ns(s) } else { b.record_ns(s) }
            }
            // Merge in both orders: the fold is commutative.
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b;
            ba.merge(&a);
            prop_assert_eq!(ab.count(), whole.count());
            prop_assert_eq!(ab.sum_ns, whole.sum_ns);
            prop_assert_eq!(ab.min_ns(), whole.min_ns());
            prop_assert_eq!(ab.max_ns(), whole.max_ns());
            for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
                prop_assert_eq!(ab.percentile(p), whole.percentile(p));
                prop_assert_eq!(ba.percentile(p), whole.percentile(p));
            }
            prop_assert_eq!(&ab.buckets, &whole.buckets);
        }
    }

    #[test]
    fn min_max_normalize_maps_extremes() {
        let v = min_max_normalize(&[2.0, 4.0, 6.0]);
        assert_eq!(v, vec![0.0, 0.5, 1.0]);
    }

    #[test]
    fn min_max_normalize_constant_series() {
        assert_eq!(min_max_normalize(&[3.0, 3.0]), vec![1.0, 1.0]);
        assert!(min_max_normalize(&[]).is_empty());
    }

    #[test]
    fn max_normalize_keeps_ratios() {
        let v = max_normalize(&[1.0, 2.0, 4.0]);
        assert_eq!(v, vec![0.25, 0.5, 1.0]);
    }

    #[test]
    fn summary_handles_empty() {
        let s = Summary::of(&[]);
        assert_eq!(s.n, 0);
        assert_eq!(s.mean, 0.0);
    }
}
