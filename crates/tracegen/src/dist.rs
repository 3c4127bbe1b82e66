//! Row-index distributions.
//!
//! A [`Sampler`] draws one table's row indices in batches
//! ([`Sampler::fill`]); [`TraceSpec::generate`](crate::TraceSpec::generate)
//! and [`QueryStream`](crate::QueryStream) draw a whole batch of a table
//! per call. The three Zipf-backed families share one rank table per
//! (exponent, rank count) in the process: a CDF with a guide table, so a
//! draw's rank is found in its own small bucket, by a vector count of the
//! bucket's entries on the AVX2 tier. The Meta-like family's reuse draw
//! has no branch on its random coin. Neither changes a draw: the batched
//! draws equal the per-draw sampler they replaced, bit for bit
//! (`tests/fill_equivalence.rs` keeps that sampler as the reference).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use serde::{Deserialize, Serialize};
use simkit::DetRng;

/// The distribution family a trace draws its row indices from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Distribution {
    /// Power-law skew with exponent `s` (Fig 12(b) "ZF"). Larger `s`
    /// concentrates accesses on fewer rows.
    Zipfian {
        /// Skew exponent (0 = uniform, ~1 = classic Zipf).
        s: f64,
    },
    /// Discretized normal centered on the table middle (Fig 12(b) "NoL").
    Normal {
        /// Standard deviation as a fraction of the table size.
        sigma_frac: f64,
    },
    /// Perfectly balanced striding (Fig 12(b) "Um") — the best case for
    /// device-level parallelism.
    Uniform,
    /// Independent uniform draws (Fig 12(b) "Rm") — balanced on average
    /// but with no structure to exploit.
    Random,
    /// Zipfian skew with hot rows packed at the *head* of the table
    /// (rank = row index, no scattering). Paired with a blocked device
    /// layout this reproduces the Fig 10(b) worst case where one device
    /// absorbs most requests.
    ZipfianHead {
        /// Skew exponent.
        s: f64,
    },
    /// Synthetic stand-in for the Meta production traces: Zipfian hot set
    /// plus short-range temporal reuse.
    MetaLike {
        /// Fraction of accesses that re-reference a recently used row.
        reuse_frac: f64,
        /// Zipf exponent of the underlying popularity ranking.
        s: f64,
    },
}

impl Distribution {
    /// Parses a sweep-parameter spelling of a distribution: one of the
    /// Fig 12(b) labels (`Meta`, `ZF`, `NoL`, `Um`, `Rm`,
    /// case-insensitive) or a parameterized form — `zipf:<s>`,
    /// `zipf_head:<s>`, `normal:<sigma_frac>`, `meta:<reuse_frac>:<s>`,
    /// `uniform`, `random`.
    ///
    /// Degenerate parameters parse to `None`, like any unknown spelling:
    /// every parameter must be finite, an exponent `s` at least 0, a
    /// `reuse_frac` in `[0, 1]` and a `sigma_frac` above 0.
    pub fn parse(spec: &str) -> Option<Distribution> {
        if let Some((_, dist)) = Self::fig12b_suite()
            .into_iter()
            .find(|(label, _)| label.eq_ignore_ascii_case(spec))
        {
            return Some(dist);
        }
        let mut parts = spec.split(':');
        let head = parts.next()?.to_ascii_lowercase();
        let mut arg = || parts.next()?.parse::<f64>().ok();
        let dist = match head.as_str() {
            "uniform" => Distribution::Uniform,
            "random" => Distribution::Random,
            "zipf" => Distribution::Zipfian { s: arg()? },
            "zipf_head" => Distribution::ZipfianHead { s: arg()? },
            "normal" => Distribution::Normal { sigma_frac: arg()? },
            "meta" => Distribution::MetaLike {
                reuse_frac: arg()?,
                s: arg()?,
            },
            _ => return None,
        };
        match parts.next() {
            Some(_) => None, // trailing junk
            None => dist.is_sound().then_some(dist),
        }
    }

    /// Whether every parameter is in its domain (see [`parse`](Self::parse)).
    fn is_sound(self) -> bool {
        let exponent = |s: f64| s.is_finite() && s >= 0.0;
        match self {
            Distribution::Zipfian { s } | Distribution::ZipfianHead { s } => exponent(s),
            Distribution::Normal { sigma_frac } => sigma_frac.is_finite() && sigma_frac > 0.0,
            Distribution::MetaLike { reuse_frac, s } => {
                (0.0..=1.0).contains(&reuse_frac) && exponent(s)
            }
            Distribution::Uniform | Distribution::Random => true,
        }
    }

    /// The paper's Fig 12(b) trace families, in plot order.
    pub fn fig12b_suite() -> Vec<(&'static str, Distribution)> {
        vec![
            (
                "Meta",
                Distribution::MetaLike {
                    reuse_frac: 0.35,
                    s: 1.05,
                },
            ),
            ("ZF", Distribution::Zipfian { s: 1.05 }),
            ("NoL", Distribution::Normal { sigma_frac: 0.125 }),
            ("Um", Distribution::Uniform),
            ("Rm", Distribution::Random),
        ]
    }
}

/// A stateful index sampler for one table.
///
/// Cloning is cheap: the Zipf CDF is shared, not copied.
#[derive(Debug, Clone)]
pub struct Sampler {
    dist: Distribution,
    rows: u64,
    rng: DetRng,
    /// Zipf: the rank table, shared by every sampler of the same
    /// exponent and row count in the process (`None` for the other
    /// families).
    zipf: Option<Arc<ZipfTable>>,
    /// Uniform: current stride position.
    stride_pos: u64,
    /// MetaLike: the recently drawn rows.
    window: ReuseWindow,
}

/// The `expect` message of a Zipf family's rank-table lookup.
const HAS_TABLE: &str = "a Zipf family has a rank table";

impl Sampler {
    /// Creates a sampler over `rows` rows with its own RNG stream.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is zero.
    pub fn new(dist: Distribution, rows: u64, rng: DetRng) -> Self {
        assert!(rows > 0, "sampler needs at least one row");
        Sampler {
            dist,
            rows,
            rng,
            zipf: zipf_table(dist, rows),
            stride_pos: 0,
            window: ReuseWindow::new(),
        }
    }

    /// Appends the next `n` row indices to `out`, in draw order: the
    /// stream continues where the last call left it, so `fill(a)` then
    /// `fill(b)` draws what `fill(a + b)` does.
    ///
    /// The family is matched once per call, not per draw. When the CPU
    /// has AVX2 the whole loop is compiled for it, so the Zipf rank's
    /// vector search (see the module docs) inlines into it.
    pub fn fill(&mut self, n: usize, out: &mut Vec<u64>) {
        out.reserve(n);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU supports AVX2 (runtime detection above).
            unsafe { self.fill_avx2(n, out) };
            return;
        }
        self.fill_with::<false>(n, out);
    }

    /// [`Sampler::fill`] on the AVX2 tier.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn fill_avx2(&mut self, n: usize, out: &mut Vec<u64>) {
        self.fill_with::<true>(n, out);
    }

    /// The draw loop of [`Sampler::fill`]; `AVX2` picks the Zipf rank
    /// search ([`ZipfTable::rank`]). Plain loops, no closures, so that
    /// the whole loop inlines into [`Sampler::fill`]'s AVX2 tier.
    #[inline(always)]
    fn fill_with<const AVX2: bool>(&mut self, n: usize, out: &mut Vec<u64>) {
        let rows = self.rows;
        let rng = &mut self.rng;
        match self.dist {
            Distribution::Zipfian { .. } => {
                let table = self.zipf.as_deref().expect(HAS_TABLE);
                for _ in 0..n {
                    out.push(scatter_rank(table.rank::<AVX2>(rng.unit_f64()), rows));
                }
            }
            Distribution::ZipfianHead { .. } => {
                // The raw rank: hot rows contiguous at index 0.
                let table = self.zipf.as_deref().expect(HAS_TABLE);
                for _ in 0..n {
                    out.push((table.rank::<AVX2>(rng.unit_f64()) as u64).min(rows - 1));
                }
            }
            Distribution::Normal { sigma_frac } => {
                for _ in 0..n {
                    out.push(draw_normal(rng, rows, sigma_frac));
                }
            }
            Distribution::Uniform => {
                // Golden-ratio stride: visits rows in a balanced, spread
                // pattern with no hot spots.
                let stride = golden_stride(rows);
                for _ in 0..n {
                    out.push(self.stride_pos);
                    self.stride_pos = (self.stride_pos + stride) % rows;
                }
            }
            Distribution::Random => {
                for _ in 0..n {
                    out.push(rng.below(rows));
                }
            }
            Distribution::MetaLike { reuse_frac, .. } => {
                let table = self.zipf.as_deref().expect(HAS_TABLE);
                for _ in 0..n {
                    out.push(self.window.draw::<AVX2>(rng, reuse_frac, table, rows));
                }
            }
        }
    }
}

/// A MetaLike sampler's recent draws: the last [`ReuseWindow::LEN`] rows,
/// as a ring once full.
#[derive(Debug, Clone)]
struct ReuseWindow {
    recent: Vec<u64>,
    /// Once full, the slot the next draw overwrites.
    pos: usize,
}

impl ReuseWindow {
    const LEN: usize = 256;

    /// An empty window, allocated at its full length.
    fn new() -> Self {
        ReuseWindow {
            recent: Vec::with_capacity(Self::LEN),
            pos: 0,
        }
    }

    /// One MetaLike draw over `rows` rows, which the window then
    /// remembers: a re-reference of a recent row with probability
    /// `reuse_frac`, otherwise a Zipf draw from `table`, scattered.
    ///
    /// The first draw, with the window empty, is a Zipf draw and takes
    /// one RNG word. Every later draw takes two: the reuse coin, then one
    /// word that is both the window slot ([`DetRng::below_of`]) and the
    /// Zipf draw's `u` ([`DetRng::unit_of`]). Both outcomes are computed
    /// and the coin picks one without a branch, since a branch on a
    /// random coin mispredicts about as often as it reuses.
    #[inline(always)]
    fn draw<const AVX2: bool>(
        &mut self,
        rng: &mut DetRng,
        reuse_frac: f64,
        table: &ZipfTable,
        rows: u64,
    ) -> u64 {
        let idx = if self.recent.is_empty() {
            scatter_rank(table.rank::<AVX2>(rng.unit_f64()), rows)
        } else {
            let reuse = rng.unit_f64() < reuse_frac;
            let word = rng.next_u64();
            let reused = self.recent[DetRng::below_of(word, self.recent.len() as u64) as usize];
            let fresh = scatter_rank(table.rank::<AVX2>(DetRng::unit_of(word)), rows);
            std::hint::select_unpredictable(reuse, reused, fresh)
        };
        if self.recent.len() < Self::LEN {
            self.recent.push(idx);
        } else {
            self.recent[self.pos] = idx;
            self.pos = (self.pos + 1) % Self::LEN;
        }
        idx
    }
}

/// One discretized-normal draw over `rows` rows (Box–Muller).
fn draw_normal(rng: &mut DetRng, rows: u64, sigma_frac: f64) -> u64 {
    let u1 = rng.unit_f64().max(f64::MIN_POSITIVE);
    let u2 = rng.unit_f64();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let mean = rows as f64 / 2.0;
    let sigma = (rows as f64 * sigma_frac).max(1.0);
    let v = mean + z * sigma;
    (v.round().max(0.0) as u64).min(rows - 1)
}

/// The Zipf rank table `dist` draws from over `rows` rows (`None` for the
/// non-Zipf families).
fn zipf_table(dist: Distribution, rows: u64) -> Option<Arc<ZipfTable>> {
    match dist {
        Distribution::Zipfian { s }
        | Distribution::ZipfianHead { s }
        | Distribution::MetaLike { s, .. } => Some(shared_zipf_table(rows, s)),
        _ => None,
    }
}

/// Ranks a Zipf CDF covers at most. Capping the rank table keeps memory
/// bounded for huge tables; ranks past the cap carry negligible
/// probability mass at the exponents used here.
const ZIPF_RANK_CAP: u64 = 262_144;

/// The shared Zipf rank table over `min(rows, ZIPF_RANK_CAP)` ranks with
/// exponent `s`. A table depends on nothing else, so each distinct one is
/// built once per process and every later trace gets an `Arc` clone —
/// sweeps regenerate the same few traces for many grid points.
fn shared_zipf_table(rows: u64, s: f64) -> Arc<ZipfTable> {
    type Tables = HashMap<(u64, u64), Arc<ZipfTable>>;
    static TABLES: OnceLock<Mutex<Tables>> = OnceLock::new();
    let n = rows.min(ZIPF_RANK_CAP);
    let key = (s.to_bits(), n);
    let tables = TABLES.get_or_init(Mutex::default);
    let poisoned = "a thread panicked holding the CDF cache";
    if let Some(table) = tables.lock().expect(poisoned).get(&key) {
        return Arc::clone(table);
    }
    // Build outside the lock so other threads' lookups never wait on it.
    let built = Arc::new(ZipfTable::new(n as usize, s));
    Arc::clone(tables.lock().expect(poisoned).entry(key).or_insert(built))
}

/// A Zipf CDF with a guide table (Chen and Asau, 1974) that turns each
/// draw's binary search into an expected O(1) lookup.
///
/// A draw `u` maps to a bucket `b(u) = min(⌊u·m⌋, m − 1)` of `m` equal
/// buckets, and `b` never decreases as `u` grows. `guide[j]` counts the
/// CDF entries whose own bucket is below `j`. Each of those is below
/// every `u` in bucket `j`, and every entry below such a `u` has a
/// bucket of at most `j`, so the first entry at or above `u` lies in
/// `guide[j]..=guide[j + 1]`: the entries of bucket `j`. With as many
/// buckets as ranks a bucket holds one entry on average, and the search
/// inside it is a compare or two. It is a search, not a forward step,
/// because a steep exponent piles the tail ranks into the last bucket
/// (at `s = 2`, 62 % of 262 144 ranks share it). The result
/// is exactly `partition_point(|&w| w < u)`, clamped to the last rank —
/// the whole-CDF binary search it replaces — for every `u`, NaN and
/// values outside `[0, 1)` included.
///
/// On the AVX2 tier a bucket of at most [`PAD`] entries is searched by
/// counting (see [`ZipfTable::rank`]); the CDF carries `PAD`
/// entries of `+∞` past its last rank so that an 8-entry read from any
/// bucket start stays in bounds.
#[derive(Debug)]
struct ZipfTable {
    /// Cumulative weights over the ranks, ascending, then `PAD` × `+∞`.
    cdf: Box<[f64]>,
    /// Per bucket, the number of CDF entries in lower buckets, then the
    /// total: `m + 1` entries.
    guide: Box<[u32]>,
}

/// The CDF's `+∞` padding, and the longest bucket the vector search
/// counts: one AVX2 compare covers four f64 entries, two cover eight.
const PAD: usize = 8;

impl ZipfTable {
    /// Cumulative Zipf weights over `n` ranks, and their guide table.
    fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n + PAD);
        cdf.extend((1..=n).map(|k| 1.0 / (k as f64).powf(s)));
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for w in cdf.iter_mut() {
            acc += *w / total;
            *w = acc;
        }
        cdf.extend([f64::INFINITY; PAD]);
        let mut table = ZipfTable {
            cdf: cdf.into_boxed_slice(),
            guide: Box::default(),
        };
        let mut below = 0;
        table.guide = (0..=n)
            .map(|j| {
                while below < n && table.bucket(table.cdf[below]) < j {
                    below += 1;
                }
                u32::try_from(below).expect("rank count fits in u32")
            })
            .collect();
        table
    }

    /// The number of ranks (the CDF without its padding).
    #[inline]
    fn ranks(&self) -> usize {
        self.cdf.len() - PAD
    }

    /// The bucket of draw `u`; the float-to-int cast saturates, so NaN
    /// and negative draws fall in the first bucket.
    #[inline]
    fn bucket(&self, u: f64) -> usize {
        ((u * self.ranks() as f64) as usize).min(self.ranks() - 1)
    }

    /// The rank of draw `u`: the first CDF entry at or above `u`, clamped
    /// to the last rank, searched in `u`'s bucket.
    ///
    /// With `AVX2` set — only by [`Sampler::fill`], once it has detected
    /// AVX2 — a bucket of at most [`PAD`] entries is searched by counting
    /// ([`count_below_avx2`]) the entries below `u` among the eight from
    /// its start. An entry past the bucket never counts: a later
    /// bucket's entry exceeds every `u` of this one (buckets never
    /// decrease with `u`), and the padding is `+∞`. Longer buckets, and
    /// every bucket without `AVX2`, take a binary search.
    #[inline(always)]
    fn rank<const AVX2: bool>(&self, u: f64) -> usize {
        let j = self.bucket(u);
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        #[cfg(target_arch = "x86_64")]
        if AVX2 && hi - lo <= PAD {
            // `lo` is at most the rank count, and PAD entries follow it.
            let block = self.cdf[lo..lo + PAD].try_into().expect("PAD entries");
            // SAFETY: `AVX2` is set only when the CPU supports AVX2.
            let below = unsafe { count_below_avx2(block, u) };
            return (lo + below).min(self.ranks() - 1);
        }
        let i = lo + self.cdf[lo..hi].partition_point(|&w| w < u);
        i.min(self.ranks() - 1)
    }
}

/// How many of the eight `block` entries are below `u`: two
/// `_CMP_LT_OQ` compares (false for a NaN `u`, as `w < u` is) and a
/// popcount of their sign masks.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx2")]
fn count_below_avx2(block: &[f64; PAD], u: f64) -> usize {
    use std::arch::x86_64::*;
    let uv = _mm256_set1_pd(u);
    // SAFETY: `block` is 8 f64s, 64 bytes; the loads are unaligned.
    let (w0, w1) = unsafe {
        (
            _mm256_loadu_pd(block.as_ptr()),
            _mm256_loadu_pd(block.as_ptr().add(4)),
        )
    };
    let below = _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(w0, uv))
        | _mm256_movemask_pd(_mm256_cmp_pd::<_CMP_LT_OQ>(w1, uv)) << 4;
    below.count_ones() as usize
}

/// Maps a popularity rank onto a physical row index, scattering hot ranks
/// across the table (hot embeddings are not contiguous in practice).
#[inline(always)]
fn scatter_rank(rank: usize, rows: u64) -> u64 {
    let h = (rank as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // The stock tables have power-of-two row counts, whose remainder is
    // a mask rather than a 64-bit division per draw.
    if rows.is_power_of_two() {
        h & (rows - 1)
    } else {
        h % rows
    }
}

fn golden_stride(rows: u64) -> u64 {
    // A stride coprime with `rows` near the golden ratio visits every row
    // exactly once per cycle while staying spread out.
    let mut stride = ((rows as f64 * 0.618_033_988) as u64).max(1);
    while gcd(stride, rows) != 1 {
        stride += 1;
    }
    stride
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// `n` draws of a fresh sampler.
    fn draws(dist: Distribution, rows: u64, seed: u64, n: usize) -> Vec<u64> {
        let mut out = Vec::new();
        Sampler::new(dist, rows, DetRng::new(seed)).fill(n, &mut out);
        out
    }

    fn histogram(dist: Distribution, rows: u64, draws: usize) -> HashMap<u64, u64> {
        let mut h = HashMap::new();
        for idx in self::draws(dist, rows, 7, draws) {
            *h.entry(idx).or_insert(0) += 1;
        }
        h
    }

    #[test]
    fn all_draws_in_bounds() {
        for dist in [
            Distribution::Zipfian { s: 1.0 },
            Distribution::Normal { sigma_frac: 0.125 },
            Distribution::Uniform,
            Distribution::Random,
            Distribution::MetaLike {
                reuse_frac: 0.3,
                s: 1.0,
            },
            Distribution::ZipfianHead { s: 1.0 },
        ] {
            assert!(draws(dist, 100, 1, 10_000).iter().all(|&idx| idx < 100));
        }
    }

    #[test]
    fn zipf_is_heavily_skewed() {
        let h = histogram(Distribution::Zipfian { s: 1.05 }, 10_000, 50_000);
        let mut counts: Vec<u64> = h.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top10: u64 = counts.iter().take(10).sum();
        assert!(
            top10 as f64 > 0.25 * 50_000.0,
            "top-10 rows should absorb >25% of accesses, got {top10}"
        );
    }

    #[test]
    fn zipf_head_concentrates_at_low_indices() {
        let h = histogram(Distribution::ZipfianHead { s: 1.05 }, 10_000, 50_000);
        let head: u64 = h.iter().filter(|(&k, _)| k < 100).map(|(_, &v)| v).sum();
        assert!(
            head as f64 > 0.4 * 50_000.0,
            "first 100 rows should absorb >40% of accesses, got {head}"
        );
    }

    #[test]
    fn uniform_stride_is_balanced() {
        let h = histogram(Distribution::Uniform, 1000, 10_000);
        let max = *h.values().max().unwrap();
        let min = h.values().copied().min().unwrap_or(0);
        assert!(max - min <= 2, "stride should be near-perfectly balanced");
    }

    #[test]
    fn random_covers_the_space() {
        let h = histogram(Distribution::Random, 1000, 50_000);
        assert!(h.len() > 900, "iid uniform should touch most rows");
    }

    #[test]
    fn normal_concentrates_near_the_middle() {
        let h = histogram(Distribution::Normal { sigma_frac: 0.1 }, 10_000, 50_000);
        let central: u64 = h
            .iter()
            .filter(|(&k, _)| (3_000..7_000).contains(&k))
            .map(|(_, &v)| v)
            .sum();
        assert!(central as f64 > 0.9 * 50_000.0);
    }

    #[test]
    fn metalike_has_more_reuse_than_plain_zipf() {
        let reuse = |dist| {
            let mut last_seen: HashMap<u64, usize> = HashMap::new();
            let mut near = 0u64;
            for (i, idx) in draws(dist, 100_000, 3, 50_000).into_iter().enumerate() {
                if let Some(&prev) = last_seen.get(&idx) {
                    if i - prev < 512 {
                        near += 1;
                    }
                }
                last_seen.insert(idx, i);
            }
            near
        };
        let meta = reuse(Distribution::MetaLike {
            reuse_frac: 0.35,
            s: 1.05,
        });
        let zipf = reuse(Distribution::Zipfian { s: 1.05 });
        assert!(meta > zipf, "meta={meta} zipf={zipf}");
    }

    /// The binary search the guide table replaces.
    fn searched_rank(cdf: &[f64], u: f64) -> usize {
        cdf.partition_point(|&w| w < u).min(cdf.len() - 1)
    }

    /// Both rank searches of `table` — the binary one and, when the CPU
    /// has AVX2, the counting one — against the whole-CDF search, for
    /// draw `u`; returns the length of `u`'s bucket.
    fn check_rank(table: &ZipfTable, u: f64, case: &str) -> usize {
        let cdf = &table.cdf[..table.ranks()];
        let want = searched_rank(cdf, u);
        assert_eq!(table.rank::<false>(u), want, "{case} u={u:e}");
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            assert_eq!(table.rank::<true>(u), want, "AVX2, {case} u={u:e}");
        }
        let j = table.bucket(u);
        (table.guide[j + 1] - table.guide[j]) as usize
    }

    #[test]
    fn guided_lookup_equals_the_clamped_binary_search() {
        // The (ranks, exponent) tables `repro -- all` and the CI serving
        // sweeps build, then the exponent extremes at assorted sizes
        // (flat, mild, steep; one rank, odd counts, the rank cap). Each
        // entry is probed at, just above and just below its value, and
        // each bucket at its middle, so every bucket length the tables
        // hold is searched: empty, 1 to PAD, and past PAD.
        let registry = [
            (1_024, 1.05),
            (2_048, 1.05),
            (4_096, 1.05),
            (8_192, 1.05),
            (16_384, 1.05),
            (32_768, 1.05),
            (65_536, 1.05),
            (65_536, 0.8),
        ];
        let extremes = [1, 2, 3, 1_000, 12_345, 65_536, ZIPF_RANK_CAP as usize]
            .into_iter()
            .flat_map(|n| [(n, 0.0), (n, 0.5), (n, 2.0)]);
        let mut lengths = std::collections::BTreeSet::new();
        for (n, s) in registry.into_iter().chain(extremes) {
            let table = ZipfTable::new(n, s);
            let cdf = &table.cdf[..n];
            let last = cdf[n - 1];
            let probes = cdf
                .iter()
                .flat_map(|&w| [w, w.next_up(), w.next_down()])
                .chain((0..n).map(|j| (j as f64 + 0.5) / n as f64))
                .chain([0.0, -0.0, last.next_up(), 1.0, 1.5, f64::INFINITY])
                .chain([-1.0, f64::NEG_INFINITY, f64::NAN, f64::MIN_POSITIVE]);
            for u in probes {
                lengths.insert(check_rank(&table, u, &format!("n={n} s={s}")).min(PAD + 1));
            }
        }
        assert_eq!(lengths, (0..=PAD + 1).collect(), "bucket lengths searched");
    }

    #[test]
    fn guided_draws_match_the_binary_search_stream() {
        // Whole draw streams, as the samplers make them.
        let table = shared_zipf_table(65_536, 1.05);
        let mut rng = DetRng::new(11);
        for _ in 0..200_000 {
            check_rank(&table, rng.unit_f64(), "n=65536 s=1.05");
        }
    }

    #[test]
    fn samplers_are_deterministic() {
        let draws = |seed| draws(Distribution::Zipfian { s: 0.9 }, 1000, seed, 100);
        assert_eq!(draws(5), draws(5));
        assert_ne!(draws(5), draws(6));
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_rows_rejected() {
        let _ = Sampler::new(Distribution::Uniform, 0, DetRng::new(0));
    }

    #[test]
    fn parse_covers_labels_and_parameterized_forms() {
        for (label, dist) in Distribution::fig12b_suite() {
            assert_eq!(Distribution::parse(label), Some(dist), "label {label}");
        }
        assert_eq!(
            Distribution::parse("zipf:0.9"),
            Some(Distribution::Zipfian { s: 0.9 })
        );
        assert_eq!(
            Distribution::parse("normal:0.125"),
            Some(Distribution::Normal { sigma_frac: 0.125 })
        );
        assert_eq!(
            Distribution::parse("meta:0.35:1.05"),
            Some(Distribution::MetaLike {
                reuse_frac: 0.35,
                s: 1.05
            })
        );
        assert_eq!(Distribution::parse("uniform"), Some(Distribution::Uniform));
        assert_eq!(Distribution::parse("zipf"), None);
        assert_eq!(
            Distribution::parse("zipf:0"),
            Some(Distribution::Zipfian { s: 0.0 })
        );
        assert_eq!(
            Distribution::parse("meta:1:0"),
            Some(Distribution::MetaLike {
                reuse_frac: 1.0,
                s: 0.0
            })
        );
        for degenerate in [
            "zipf:nan",
            "zipf:-1",
            "zipf:inf",
            "zipf_head:-0.5",
            "zipf_head:NaN",
            "normal:nan",
            "normal:0",
            "normal:-0.1",
            "normal:inf",
            "meta:1.5:1.05",
            "meta:-0.1:1.05",
            "meta:nan:1",
            "meta:0.35:-1",
            "meta:0.35:inf",
        ] {
            assert_eq!(Distribution::parse(degenerate), None, "{degenerate}");
        }
        assert_eq!(Distribution::parse("zipf:0.9:junk"), None);
        assert_eq!(Distribution::parse("nope"), None);
    }
}
