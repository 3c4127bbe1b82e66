//! Row-index distributions.

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
    /// MetaLike: recent accesses ring buffer.
    recent: Vec<u64>,
    recent_pos: usize,
}

const RECENT_WINDOW: usize = 256;

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
            recent: Vec::with_capacity(RECENT_WINDOW),
            recent_pos: 0,
        }
    }

    /// Draws the next row index.
    pub fn next_index(&mut self) -> u64 {
        let idx = match self.dist {
            Distribution::Zipfian { .. } => self.draw_zipf(),
            Distribution::ZipfianHead { .. } => self.draw_zipf_rank(),
            Distribution::Normal { sigma_frac } => self.draw_normal(sigma_frac),
            Distribution::Uniform => {
                // Golden-ratio stride: visits rows in a balanced, spread
                // pattern with no hot spots.
                let idx = self.stride_pos;
                self.stride_pos = (self.stride_pos + golden_stride(self.rows)) % self.rows;
                idx
            }
            Distribution::Random => self.rng.below(self.rows),
            Distribution::MetaLike { reuse_frac, .. } => {
                if !self.recent.is_empty() && self.rng.unit_f64() < reuse_frac {
                    // Temporal reuse: re-reference something recent.
                    self.recent[self.rng.below(self.recent.len() as u64) as usize]
                } else {
                    self.draw_zipf()
                }
            }
        };
        if matches!(self.dist, Distribution::MetaLike { .. }) {
            if self.recent.len() < RECENT_WINDOW {
                self.recent.push(idx);
            } else {
                self.recent[self.recent_pos] = idx;
                self.recent_pos = (self.recent_pos + 1) % RECENT_WINDOW;
            }
        }
        idx
    }

    /// Zipf rank of one uniform draw.
    fn zipf_rank(&mut self) -> u64 {
        let u = self.rng.unit_f64();
        let table = self.zipf.as_ref().expect("a Zipf family has a rank table");
        table.rank(u) as u64
    }

    fn draw_zipf(&mut self) -> u64 {
        // Ranks are scattered over the row space so that popular rows
        // are not physically adjacent.
        scatter_rank(self.zipf_rank(), self.rows)
    }

    /// Zipf draw returning the raw rank (hot rows contiguous at index 0).
    fn draw_zipf_rank(&mut self) -> u64 {
        self.zipf_rank().min(self.rows - 1)
    }

    fn draw_normal(&mut self, sigma_frac: f64) -> u64 {
        // Box–Muller.
        let u1 = self.rng.unit_f64().max(f64::MIN_POSITIVE);
        let u2 = self.rng.unit_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let mean = self.rows as f64 / 2.0;
        let sigma = (self.rows as f64 * sigma_frac).max(1.0);
        let v = mean + z * sigma;
        (v.round().max(0.0) as u64).min(self.rows - 1)
    }
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
#[derive(Debug)]
struct ZipfTable {
    /// Cumulative weights over the ranks, ascending.
    cdf: Box<[f64]>,
    /// Per bucket, the number of CDF entries in lower buckets, then the
    /// total: `m + 1` entries.
    guide: Box<[u32]>,
}

impl ZipfTable {
    /// Cumulative Zipf weights over `n` ranks, and their guide table.
    fn new(n: usize, s: f64) -> Self {
        let mut cdf: Box<[f64]> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for w in cdf.iter_mut() {
            acc += *w / total;
            *w = acc;
        }
        let mut table = ZipfTable {
            cdf,
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

    /// The bucket of draw `u`; the float-to-int cast saturates, so NaN
    /// and negative draws fall in the first bucket.
    #[inline]
    fn bucket(&self, u: f64) -> usize {
        ((u * self.cdf.len() as f64) as usize).min(self.cdf.len() - 1)
    }

    /// The rank of draw `u`: the first CDF entry at or above `u`, clamped
    /// to the last rank.
    #[inline]
    fn rank(&self, u: f64) -> usize {
        let j = self.bucket(u);
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        let i = lo + self.cdf[lo..hi].partition_point(|&w| w < u);
        i.min(self.cdf.len() - 1)
    }
}

/// Maps a popularity rank onto a physical row index, scattering hot ranks
/// across the table (hot embeddings are not contiguous in practice).
fn scatter_rank(rank: u64, rows: u64) -> u64 {
    let h = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15);
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

    fn histogram(dist: Distribution, rows: u64, draws: usize) -> HashMap<u64, u64> {
        let mut s = Sampler::new(dist, rows, DetRng::new(7));
        let mut h = HashMap::new();
        for _ in 0..draws {
            *h.entry(s.next_index()).or_insert(0) += 1;
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
            let mut s = Sampler::new(dist, 100, DetRng::new(1));
            for _ in 0..10_000 {
                assert!(s.next_index() < 100);
            }
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
            let mut s = Sampler::new(dist, 100_000, DetRng::new(3));
            let mut last_seen: HashMap<u64, usize> = HashMap::new();
            let mut near = 0u64;
            for i in 0..50_000usize {
                let idx = s.next_index();
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

    #[test]
    fn guided_lookup_equals_the_clamped_binary_search() {
        // The (ranks, exponent) tables `repro -- all` and the CI serving
        // sweeps build, then the exponent extremes at assorted sizes
        // (flat, mild, steep; one rank, odd counts, the rank cap).
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
        for (n, s) in registry.into_iter().chain(extremes) {
            let table = ZipfTable::new(n, s);
            let cdf = &table.cdf[..];
            let last = cdf[n - 1];
            let probes = cdf
                .iter()
                .flat_map(|&w| [w, w.next_up(), w.next_down()])
                .chain([0.0, -0.0, last.next_up(), 1.0, 1.5, f64::INFINITY])
                .chain([-1.0, f64::NEG_INFINITY, f64::NAN, f64::MIN_POSITIVE]);
            for u in probes {
                assert_eq!(table.rank(u), searched_rank(cdf, u), "n={n} s={s} u={u:e}");
            }
        }
    }

    #[test]
    fn guided_draws_match_the_binary_search_stream() {
        // Whole draw streams, as the samplers make them.
        let table = shared_zipf_table(65_536, 1.05);
        let mut rng = DetRng::new(11);
        for _ in 0..200_000 {
            let u = rng.unit_f64();
            assert_eq!(table.rank(u), searched_rank(&table.cdf, u), "u={u:e}");
        }
    }

    #[test]
    fn samplers_are_deterministic() {
        let draws = |seed| {
            let mut s = Sampler::new(Distribution::Zipfian { s: 0.9 }, 1000, DetRng::new(seed));
            (0..100).map(|_| s.next_index()).collect::<Vec<_>>()
        };
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
