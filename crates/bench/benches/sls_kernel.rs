//! Criterion bench: the functional SparseLengthSum kernel (the operation
//! every compute site executes per row), and the cluster checksum's
//! per-row term, per element and in closed form.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dlrm::sls::{accumulate_row, accumulate_row_exact, sls_reference};
use dlrm::EmbeddingTable;

fn bench_sls(c: &mut Criterion) {
    let mut g = c.benchmark_group("sls_kernel");
    for dim in [16u32, 64, 128] {
        let table = EmbeddingTable::new(0, 65_536, dim, 0);
        let indices: Vec<u64> = (0..8).map(|i| (i * 7919) % 65_536).collect();
        g.bench_function(format!("bag8_dim{dim}"), |b| {
            b.iter(|| sls_reference(black_box(&table), black_box(&indices), None))
        });
        g.bench_function(format!("fold_dim{dim}"), |b| {
            let mut acc = vec![0.0f32; dim as usize];
            b.iter(|| accumulate_row(black_box(&mut acc), &table, black_box(indices[0]), 1.0))
        });
        // A row's exact checksum term, element by element: the exact
        // f64 fold, then the sum over its elements...
        g.bench_function(format!("exact_fold_dim{dim}"), |b| {
            let mut acc = vec![0.0f64; dim as usize];
            b.iter(|| {
                acc.fill(0.0);
                accumulate_row_exact(black_box(&mut acc), &table, black_box(indices[0]), 1.0);
                acc.iter().sum::<f64>()
            })
        });
        // ...and in closed form from the row's integer mantissa sum.
        g.bench_function(format!("row_sum_dim{dim}"), |b| {
            b.iter(|| black_box(&table).row_sum_exact(black_box(indices[0])))
        });
    }
    // Serving-sized batch: one open-loop dispatch folds ~32 rows per bag.
    {
        let table = EmbeddingTable::new(0, 65_536, 128, 0);
        let indices: Vec<u64> = (0..32).map(|i| (i * 7919) % 65_536).collect();
        g.bench_function("bag32_dim128", |b| {
            b.iter(|| sls_reference(black_box(&table), black_box(&indices), None))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_sls);
criterion_main!(benches);
