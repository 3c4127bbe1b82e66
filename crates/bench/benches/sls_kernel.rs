//! Criterion bench: the functional SparseLengthSum kernel (the operation
//! every compute site executes per row).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dlrm::sls::{accumulate_row, sls_reference};
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
