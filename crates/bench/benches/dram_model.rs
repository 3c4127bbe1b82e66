//! Criterion bench: simulation throughput of the DDR timing model
//! (events simulated per second, not simulated hardware speed), from the
//! bank state machine up through the whole multi-channel device.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use memsim::bank::BankState;
use memsim::channel::Channel;
use memsim::{DramConfig, DramDevice, DramOrg, DramTimings, Location, MemOp};
use simkit::SimTime;

fn bench_dram(c: &mut Criterion) {
    let mut g = c.benchmark_group("dram_model");
    g.bench_function("sequential_1k_lines", |b| {
        b.iter(|| {
            let mut dev = DramDevice::new(DramConfig::ddr5_4800_local());
            let mut done = SimTime::ZERO;
            for i in 0..1000u64 {
                done = done.max(dev.access(SimTime::ZERO, black_box(i * 64), MemOp::Read));
            }
            done
        })
    });
    g.bench_function("random_1k_lines", |b| {
        b.iter(|| {
            let mut dev = DramDevice::new(DramConfig::ddr4_cxl_expander());
            let mut done = SimTime::ZERO;
            let mut x = 9u64;
            for _ in 0..1000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                done = done.max(dev.access(SimTime::ZERO, black_box(x % (1 << 33)), MemOp::Read));
            }
            done
        })
    });
    g.bench_function("host_12ch_random_1k_lines", |b| {
        // The host's local DRAM (engine/topology.rs): 12 channels of
        // the Table II organization, a non-power-of-two channel count.
        let host = DramConfig {
            org: DramOrg {
                channels: 12,
                ..DramOrg::table2_local()
            },
            ..DramConfig::ddr5_4800_local()
        };
        b.iter(|| {
            let mut dev = DramDevice::new(host);
            let mut done = SimTime::ZERO;
            let mut x = 9u64;
            for _ in 0..1000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let addr = x % host.org.capacity_bytes;
                done = done.max(dev.access(SimTime::ZERO, black_box(addr), MemOp::Read));
            }
            done
        })
    });
    g.finish();
}

fn bench_bank(c: &mut Criterion) {
    let t = DramTimings::ddr5_4800().durations();
    let mut g = c.benchmark_group("bank_state");
    g.bench_function("row_hit", |b| {
        let mut bank = BankState::new();
        let mut now = SimTime::ZERO;
        bank.prepare(now, now, 1, &t);
        b.iter(|| {
            let (cas, _) = bank.prepare(black_box(now), now, 1, &t);
            bank.complete_read(cas, &t);
            now = cas;
            cas
        })
    });
    g.bench_function("row_conflict", |b| {
        let mut bank = BankState::new();
        let mut now = SimTime::ZERO;
        let mut row = 0u64;
        b.iter(|| {
            row += 1;
            let (cas, _) = bank.prepare(black_box(now), now, row, &t);
            bank.complete_read(cas, &t);
            now = cas;
            cas
        })
    });
    g.finish();
}

fn bench_channel(c: &mut Criterion) {
    let t = DramTimings::ddr5_4800().durations();
    let org = DramOrg {
        channels: 1,
        ..DramOrg::table2_local()
    };
    let mut g = c.benchmark_group("channel");
    g.bench_function("bank_interleaved_stream", |b| {
        // The FR-FCFS gap scan plus tFAW window tracking, across all
        // banks of one channel.
        let mut ch = Channel::new(org);
        let mut now = SimTime::ZERO;
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let loc = Location {
                channel: 0,
                rank: (i / org.banks as u64 % org.ranks as u64) as u32,
                bank: (i % org.banks as u64) as u32,
                row: i / 97,
            };
            let done = ch.access(black_box(now), &loc, MemOp::Read, &t);
            now += simkit::SimDuration::from_ns(2);
            done
        })
    });
    g.finish();
}

criterion_group!(benches, bench_dram, bench_bank, bench_channel);
criterion_main!(benches);
