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
            None => Some(dist),
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
    /// Zipf: precomputed cumulative weights for binary search, shared by
    /// every sampler of the same exponent and row count in the process
    /// (empty for the other families).
    zipf_cdf: Arc<[f64]>,
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
            zipf_cdf: zipf_cdf(dist, rows),
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

    /// Zipf rank of one uniform draw: the first CDF entry at or above
    /// it, clamped to the last rank.
    fn zipf_rank(&mut self) -> u64 {
        let u = self.rng.unit_f64();
        let i = self.zipf_cdf.partition_point(|&w| w < u);
        i.min(self.zipf_cdf.len() - 1) as u64
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

/// The Zipf CDF `dist` draws from over `rows` rows (empty, and not
/// allocated, for the non-Zipf families).
fn zipf_cdf(dist: Distribution, rows: u64) -> Arc<[f64]> {
    match dist {
        Distribution::Zipfian { s }
        | Distribution::ZipfianHead { s }
        | Distribution::MetaLike { s, .. } => shared_zipf_cdf(rows, s),
        _ => Arc::default(),
    }
}

/// Ranks a Zipf CDF covers at most. Capping the rank table keeps memory
/// bounded for huge tables; ranks past the cap carry negligible
/// probability mass at the exponents used here.
const ZIPF_RANK_CAP: u64 = 262_144;

/// The shared Zipf CDF over `min(rows, ZIPF_RANK_CAP)` ranks with
/// exponent `s`. A CDF depends on nothing else, so each distinct one is
/// built once per process and every later trace gets an `Arc` clone —
/// sweeps regenerate the same few traces for many grid points.
fn shared_zipf_cdf(rows: u64, s: f64) -> Arc<[f64]> {
    type Cdfs = HashMap<(u64, u64), Arc<[f64]>>;
    static CDFS: OnceLock<Mutex<Cdfs>> = OnceLock::new();
    let n = rows.min(ZIPF_RANK_CAP);
    let key = (s.to_bits(), n);
    let cdfs = CDFS.get_or_init(Mutex::default);
    let poisoned = "a thread panicked holding the CDF cache";
    if let Some(cdf) = cdfs.lock().expect(poisoned).get(&key) {
        return Arc::clone(cdf);
    }
    // Build outside the lock so other threads' lookups never wait on it.
    let built = build_zipf_cdf(n as usize, s);
    Arc::clone(cdfs.lock().expect(poisoned).entry(key).or_insert(built))
}

/// Cumulative Zipf weights over `n` ranks.
fn build_zipf_cdf(n: usize, s: f64) -> Arc<[f64]> {
    let mut cdf: Arc<[f64]> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
    let weights = Arc::get_mut(&mut cdf).expect("a fresh CDF is unshared");
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    for w in weights {
        acc += *w / total;
        *w = acc;
    }
    cdf
}

/// Maps a popularity rank onto a physical row index, scattering hot ranks
/// across the table (hot embeddings are not contiguous in practice).
fn scatter_rank(rank: u64, rows: u64) -> u64 {
    rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % rows
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
        assert_eq!(Distribution::parse("zipf:0.9:junk"), None);
        assert_eq!(Distribution::parse("nope"), None);
    }
}
