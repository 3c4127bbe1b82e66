//! Criterion bench: simulation throughput of the DDR timing model
//! (events simulated per second, not simulated hardware speed), from the
//! bank state machine up through the whole multi-channel device.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use memsim::bank::BankState;
use memsim::channel::Channel;
use memsim::{DramConfig, DramDevice, DramOrg, DramTimings, Location};
use simkit::SimTime;

fn bench_dram(c: &mut Criterion) {
    let mut g = c.benchmark_group("dram_model");
    g.bench_function("sequential_1k_lines", |b| {
        b.iter(|| {
            let mut dev = DramDevice::new(DramConfig::ddr5_4800_local());
            let mut done = SimTime::ZERO;
            for i in 0..1000u64 {
                done = done.max(dev.access(SimTime::ZERO, black_box(i * 64)));
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
                done = done.max(dev.access(SimTime::ZERO, black_box(x % (1 << 33))));
            }
            done
        })
    });
    g.bench_function("expander_row_reads_250x4_lines", |b| {
        // One-channel CXL expander reads of 256 B embedding rows: each
        // span is four lines of one DRAM row, scheduled by one row-run
        // call (`Channel::access_run`).
        let cfg = DramConfig::ddr4_cxl_expander();
        b.iter(|| {
            let mut dev = DramDevice::new(cfg);
            let mut done = SimTime::ZERO;
            let mut x = 9u64;
            for i in 0..250u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let addr = (x % cfg.org.capacity_bytes) & !255;
                let now = SimTime::from_ns(i * 8);
                done = done.max(dev.access_span(now, black_box(addr), 256));
            }
            done
        })
    });
    // The host's local DRAM (engine/topology.rs): 12 channels of the
    // Table II organization, a non-power-of-two channel count.
    let host = DramConfig {
        org: DramOrg {
            channels: 12,
            ..DramOrg::table2_local()
        },
        ..DramConfig::ddr5_4800_local()
    };
    g.bench_function("host_12ch_random_1k_lines", |b| {
        b.iter(|| {
            let mut dev = DramDevice::new(host);
            let mut done = SimTime::ZERO;
            let mut x = 9u64;
            for _ in 0..1000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let addr = x % host.org.capacity_bytes;
                done = done.max(dev.access(SimTime::ZERO, black_box(addr)));
            }
            done
        })
    });
    g.bench_function("host_12ch_row_spans_250x4_lines", |b| {
        // Host reads of 256 B embedding rows at 256 B-aligned addresses
        // over 16 GiB, as `spread_addr` places them: each span is four
        // lines on four channels that stay in lockstep, scheduled by one
        // channel access.
        b.iter(|| {
            let mut dev = DramDevice::new(host);
            let mut done = SimTime::ZERO;
            let mut x = 9u64;
            for i in 0..250u64 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let addr = ((x >> 20) % (1 << 34)) & !255;
                let now = SimTime::from_ns(i * 8);
                done = done.max(dev.access_span(now, black_box(addr), 256));
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
            let done = ch.access(black_box(now), &loc, &t);
            now += simkit::SimDuration::from_ns(2);
            done
        })
    });
    g.bench_function("back_filled_claims", |b| {
        // Arrivals up to 2 µs in the channel's past, as the closed-loop
        // pipeline issues them: most bursts back-fill a recorded bus gap
        // instead of queueing at the end of the schedule.
        let mut ch = Channel::new(org);
        let mut clock = 0u64;
        let mut x = 7u64;
        b.iter(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            clock += 3;
            let loc = Location {
                channel: 0,
                rank: (x >> 20) as u32 % org.ranks,
                bank: (x >> 24) as u32 % org.banks,
                row: (x >> 32) % 4,
            };
            let now = SimTime::from_ns(clock.saturating_sub((x >> 40) % 2_000));
            ch.access(black_box(now), &loc, &t)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_dram, bench_bank, bench_channel);
criterion_main!(benches);
