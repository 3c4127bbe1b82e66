//! Criterion bench: CXL fabric data-plane costs — FlexBus link
//! serialization (per-flit vs batched arbitration) and the full
//! switch→device round trip through a Type 3 expander.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use cxlsim::{CxlParams, FlexBusLink, M2sReq, Type3Device};
use simkit::{SimDuration, SimTime};

fn bench_link(c: &mut Criterion) {
    let p = CxlParams::default();
    let mut g = c.benchmark_group("cxl_link");
    g.bench_function("transfer_per_flit", |b| {
        let mut bus = FlexBusLink::new(&p);
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += SimDuration::from_ns(2);
            bus.transfer(black_box(t), M2sReq::WIRE_BYTES)
        })
    });
    g.bench_function("transfer_batch_64", |b| {
        let mut bus = FlexBusLink::new(&p);
        let mut out = Vec::new();
        let mut t = SimTime::ZERO;
        b.iter(|| {
            t += SimDuration::from_ns(128);
            bus.transfer_batch_into(
                black_box(t),
                SimDuration::from_ns(2),
                M2sReq::WIRE_BYTES,
                64,
                &mut out,
            );
            out.last().copied()
        })
    });
    g.finish();
}

fn bench_switch(c: &mut Criterion) {
    let p = CxlParams::default();
    let mut g = c.benchmark_group("cxl_switch");
    g.bench_function("device_round_trip", |b| {
        let mut dev = Type3Device::new(p);
        let mut t = SimTime::ZERO;
        let mut addr = 0u64;
        b.iter(|| {
            t += SimDuration::from_ns(40);
            addr = addr.wrapping_add(0x9E37_79B9) & ((1 << 33) - 1);
            dev.read(black_box(t), addr & !63, 512)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_link, bench_switch);
criterion_main!(benches);
