//! Criterion bench: on-switch buffer policy overhead per access.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pifs_core::{BufferPolicy, OnSwitchBuffer};
use simkit::DetRng;

fn bench_buffer(c: &mut Criterion) {
    let mut g = c.benchmark_group("buffer_policies");
    for (label, policy) in [
        ("htr", BufferPolicy::Htr),
        ("lru", BufferPolicy::Lru),
        ("fifo", BufferPolicy::Fifo),
    ] {
        g.bench_function(label, |b| {
            let mut buf = OnSwitchBuffer::new(policy, 512 * 1024, 256);
            let mut rng = DetRng::new(3);
            b.iter(|| {
                let key = if rng.unit_f64() < 0.3 {
                    rng.below(64)
                } else {
                    1000 + rng.below(100_000)
                };
                buf.access(black_box(key))
            })
        });
    }
    // The engine keys the buffer by row byte address: table base plus
    // row × row size, here RMC1 at the figures' scale (8 tables of
    // 1 024 rows, 256 B each). Every key is a multiple of 256, which the
    // dense keys above cannot show: a hasher that leaves those zero low
    // bits in place piles the rows onto a few buckets.
    g.bench_function("htr_row_addrs", |b| {
        const ROW_BYTES: u64 = 256;
        const ROWS: u64 = 1024;
        let mut buf = OnSwitchBuffer::new(BufferPolicy::Htr, 512 * 1024, ROW_BYTES);
        let mut rng = DetRng::new(3);
        b.iter(|| {
            // 30 % of accesses go to each table's first 8 rows (64 hot
            // rows in all), the rest spread over all 8 192.
            let hot = rng.unit_f64() < 0.3;
            let table = rng.below(8);
            let row = rng.below(if hot { 8 } else { ROWS });
            buf.access(black_box((table * ROWS + row) * ROW_BYTES))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_buffer);
criterion_main!(benches);
