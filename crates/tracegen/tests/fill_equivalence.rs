//! `Sampler::fill` against a test-side copy of the per-draw sampler it
//! replaced: one `next_index` call per row, a branch on the reuse coin,
//! and a whole-CDF binary search for every Zipf rank.
//!
//! The copy builds its own Zipf CDF with the same float operations and
//! searches it with `partition_point`, so it shares no code with the
//! guide table, the vector search or the branch-free reuse draw. Every
//! draw must match, for all six families: in batches of assorted sizes
//! (0, 1, odd counts, and batches that end inside and past the filling
//! reuse window), through `TraceSpec::generate`, and through a
//! `QueryStream` cloned while its reuse windows are still filling.

use simkit::DetRng;
use tracegen::dist::Sampler;
use tracegen::{ArrivalProcess, Distribution, QueryStreamSpec, TraceSpec};

/// Ranks a Zipf CDF covers at most (the sampler's cap).
const RANK_CAP: u64 = 262_144;

/// The reuse window's length.
const WINDOW: usize = 256;

/// The per-draw sampler `fill` replaced, kept as the reference.
struct Reference {
    dist: Distribution,
    rows: u64,
    rng: DetRng,
    cdf: Vec<f64>,
    stride_pos: u64,
    recent: Vec<u64>,
    recent_pos: usize,
}

impl Reference {
    fn new(dist: Distribution, rows: u64, rng: DetRng) -> Self {
        let cdf = match dist {
            Distribution::Zipfian { s }
            | Distribution::ZipfianHead { s }
            | Distribution::MetaLike { s, .. } => {
                let n = rows.min(RANK_CAP) as usize;
                let mut cdf: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
                let total: f64 = cdf.iter().sum();
                let mut acc = 0.0;
                for w in cdf.iter_mut() {
                    acc += *w / total;
                    *w = acc;
                }
                cdf
            }
            _ => Vec::new(),
        };
        Reference {
            dist,
            rows,
            rng,
            cdf,
            stride_pos: 0,
            recent: Vec::new(),
            recent_pos: 0,
        }
    }

    fn next_index(&mut self) -> u64 {
        let idx = match self.dist {
            Distribution::Zipfian { .. } => self.draw_zipf(),
            Distribution::ZipfianHead { .. } => self.zipf_rank().min(self.rows - 1),
            Distribution::Normal { sigma_frac } => {
                let u1 = self.rng.unit_f64().max(f64::MIN_POSITIVE);
                let u2 = self.rng.unit_f64();
                let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                let mean = self.rows as f64 / 2.0;
                let sigma = (self.rows as f64 * sigma_frac).max(1.0);
                ((mean + z * sigma).round().max(0.0) as u64).min(self.rows - 1)
            }
            Distribution::Uniform => {
                let idx = self.stride_pos;
                self.stride_pos = (self.stride_pos + golden_stride(self.rows)) % self.rows;
                idx
            }
            Distribution::Random => self.rng.below(self.rows),
            Distribution::MetaLike { reuse_frac, .. } => {
                if !self.recent.is_empty() && self.rng.unit_f64() < reuse_frac {
                    self.recent[self.rng.below(self.recent.len() as u64) as usize]
                } else {
                    self.draw_zipf()
                }
            }
        };
        if matches!(self.dist, Distribution::MetaLike { .. }) {
            if self.recent.len() < WINDOW {
                self.recent.push(idx);
            } else {
                self.recent[self.recent_pos] = idx;
                self.recent_pos = (self.recent_pos + 1) % WINDOW;
            }
        }
        idx
    }

    fn zipf_rank(&mut self) -> u64 {
        let u = self.rng.unit_f64();
        self.cdf.partition_point(|&w| w < u).min(self.cdf.len() - 1) as u64
    }

    fn draw_zipf(&mut self) -> u64 {
        let h = self.zipf_rank().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        if self.rows.is_power_of_two() {
            h & (self.rows - 1)
        } else {
            h % self.rows
        }
    }
}

fn golden_stride(rows: u64) -> u64 {
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

/// All six families, the Meta-like one at its extremes too.
fn families() -> Vec<Distribution> {
    vec![
        Distribution::Zipfian { s: 1.05 },
        Distribution::ZipfianHead { s: 0.8 },
        Distribution::Normal { sigma_frac: 0.125 },
        Distribution::Uniform,
        Distribution::Random,
        Distribution::MetaLike {
            reuse_frac: 0.35,
            s: 1.05,
        },
        Distribution::MetaLike {
            reuse_frac: 0.0,
            s: 2.0,
        },
        Distribution::MetaLike {
            reuse_frac: 1.0,
            s: 0.0,
        },
    ]
}

#[test]
fn fill_matches_per_draw_sampling_in_any_batching() {
    // Batch sizes sum past two reuse windows; the first batches end
    // inside the filling window, one crosses its end.
    let batches = [0usize, 1, 7, 0, 100, 200, 1, 300, 3];
    // One row, odd and power-of-two counts, and past the rank cap.
    for rows in [1u64, 3, 1_000, 1_024, 65_536, 1 << 20] {
        for dist in families() {
            for seed in [0u64, 7, u64::MAX] {
                let mut sampler = Sampler::new(dist, rows, DetRng::new(seed));
                let mut reference = Reference::new(dist, rows, DetRng::new(seed));
                let mut got = Vec::new();
                for n in batches {
                    let before = got.len();
                    sampler.fill(n, &mut got);
                    assert_eq!(got.len(), before + n, "fill appends exactly n draws");
                }
                let want: Vec<u64> = (0..got.len()).map(|_| reference.next_index()).collect();
                assert_eq!(got, want, "{dist:?} over {rows} rows, seed {seed}");
            }
        }
    }
}

#[test]
fn generate_and_a_cloned_stream_match_per_draw_sampling() {
    // 4 samples × 3 rows = 12 draws per table per batch: the clone is
    // taken after 5 queries (two batches drawn, 24 rows in each
    // window) and both copies run to the end, past the full window.
    for dist in families() {
        let spec = QueryStreamSpec {
            trace: TraceSpec {
                distribution: dist,
                n_tables: 3,
                rows_per_table: 4_096,
                batch_size: 4,
                n_batches: 30,
                bag_size: 3,
                seed: 11,
            },
            arrival: ArrivalProcess::Fixed { qps: 1_000_000.0 },
            arrival_seed: 5,
        };
        let t = spec.trace;
        let per_table = (t.batch_size * t.bag_size * t.n_batches) as usize;
        // The samplers TraceSpec builds: one fork of the seed per table.
        let mut root = DetRng::new(t.seed);
        let want: Vec<Vec<u64>> = (0..t.n_tables)
            .map(|_| {
                let mut r = Reference::new(dist, t.rows_per_table, root.fork());
                (0..per_table).map(|_| r.next_index()).collect()
            })
            .collect();

        let trace = t.generate();
        for (b, batch) in trace.batches.iter().enumerate() {
            for (table, lookups) in batch.tables.iter().enumerate() {
                let n = lookups.indices.len();
                assert_eq!(lookups.indices, want[table][b * n..(b + 1) * n], "{dist:?}");
            }
        }

        let bag = t.bag_size as usize;
        let check = |stream: &mut tracegen::QueryStream| {
            while let Some((q, _)) = stream.next_query() {
                for table in 0..t.n_tables {
                    let at = q as usize * bag;
                    assert_eq!(
                        stream.bag(table),
                        &want[table as usize][at..at + bag],
                        "{dist:?}, query {q}, table {table}"
                    );
                }
            }
        };
        let mut stream = spec.stream();
        for _ in 0..5 {
            stream.next_query();
        }
        let mut clone = stream.clone();
        check(&mut stream);
        check(&mut clone);
    }
}
