//! Criterion bench: trace draws — the Meta-like sampler's batched
//! `fill` at the smallest and largest standard table sizes (scaled RMC1
//! and RMC3/RMC4 row counts), and one whole standard trace's generation.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dlrm::ModelConfig;
use pifs_bench::{meta_distribution, scaled, std_trace, SEED, STD_BATCHES, STD_BATCH_SIZE};
use simkit::DetRng;
use tracegen::dist::Sampler;

/// Draws per `fill` call: one standard batch's bags for one table
/// (32 samples × 8 rows).
const DRAWS: usize = 256;

fn bench_draws(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace_draws");
    for rows in [1_024u64, 65_536] {
        let mut sampler = Sampler::new(meta_distribution(), rows, DetRng::new(SEED));
        let mut out = Vec::with_capacity(DRAWS);
        g.bench_function(format!("meta_fill{DRAWS}_{}ki", rows / 1_024), |b| {
            b.iter(|| {
                out.clear();
                sampler.fill(DRAWS, &mut out);
                black_box(out.len())
            })
        });
    }
    let model = scaled(ModelConfig::rmc1());
    g.bench_function("generate_rmc1_std", |b| {
        b.iter(|| {
            std_trace(
                black_box(&model),
                meta_distribution(),
                STD_BATCH_SIZE,
                STD_BATCHES,
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_draws);
criterion_main!(benches);
