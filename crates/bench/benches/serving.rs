//! Criterion bench: the open-loop serving layer — arrival generation,
//! the latency histogram, batch formation, and one end-to-end serving
//! point. These are the paths a `latency_qps` sweep spends its time in
//! beyond the (already-benched) bag pipeline.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pifs_bench::{meta_distribution, scaled};
use pifs_core::system::{SlsSystem, SystemConfig};
use simkit::LatencyHist;
use tracegen::{ArrivalProcess, TraceSpec};

const N: usize = 4096;

fn bench_serving(c: &mut Criterion) {
    let mut g = c.benchmark_group("serving");

    g.bench_function("arrival_poisson", |b| {
        let p = ArrivalProcess::Poisson { qps: 1_000_000.0 };
        b.iter(|| black_box(p.times(N, 7).len()))
    });
    g.bench_function("arrival_bursty", |b| {
        let p = ArrivalProcess::Bursty {
            qps: 1_000_000.0,
            burst: 0.8,
            dwell_us: 200.0,
        };
        b.iter(|| black_box(p.times(N, 7).len()))
    });

    g.bench_function("fault_schedule_generate", |b| {
        // Seeded fault-event generation: the per-point setup cost a
        // cluster_faults sweep adds over its fault-free sibling.
        let spec = simkit::FaultSpec::parse("failstop:16000").expect("fault spec");
        b.iter(|| {
            let sched = simkit::FaultSchedule::generate(spec, 2024, 4, 100_000_000);
            black_box(sched.events().len())
        })
    });

    g.bench_function("latency_hist_record", |b| {
        // Record + tail read: the per-query accounting cost.
        let samples: Vec<u64> = {
            let mut rng = simkit::DetRng::new(3);
            (0..N).map(|_| rng.below(1 << 24)).collect()
        };
        b.iter(|| {
            let mut h = LatencyHist::new();
            for &s in &samples {
                h.record_ns(s);
            }
            black_box(h.percentile(0.99))
        })
    });
    g.bench_function("latency_hist_merge", |b| {
        let mut parts: Vec<LatencyHist> = Vec::new();
        let mut rng = simkit::DetRng::new(4);
        for _ in 0..8 {
            let mut h = LatencyHist::new();
            for _ in 0..N / 8 {
                h.record_ns(rng.below(1 << 24));
            }
            parts.push(h);
        }
        b.iter(|| {
            let mut all = LatencyHist::new();
            for p in &parts {
                all.merge(p);
            }
            black_box(all.percentile(0.99))
        })
    });

    g.bench_function("controller_tick", |b| {
        // The adaptive controller's steady-state per-batch cost:
        // record + on_batch + epoch_due across a mixed load pattern.
        // This path runs at every batch boundary of every adaptive
        // serving point, so it must stay O(ns)-cheap relative to batch
        // service time.
        use pifs_core::engine::controller::ServingController;
        use pifs_core::engine::serving::ServingConfig;
        let cfg = ServingConfig {
            controller: pifs_core::engine::controller::ControllerPolicy::Adaptive,
            ..ServingConfig::default()
        };
        let mut hotness = pagemgmt::GlobalHotness::new(4, 256);
        for p in 0..256u64 {
            hotness
                .host_mut((p % 4) as usize)
                .record(pagemgmt::PageId(p));
        }
        b.iter(|| {
            let mut ctl = ServingController::new(&cfg);
            let mut moved = 0u32;
            for i in 0..256u64 {
                ctl.record_latency(simkit::SimDuration::from_ns((i % 64) * 1_000));
                if ctl.on_batch((i % 40) as u32, (i % 3) * 60_000).is_some() {
                    moved += 1;
                }
                black_box(ctl.epoch_due(&mut hotness));
            }
            black_box((moved, ctl.batch_size(), ctl.epoch_period()))
        })
    });

    // One end-to-end open-loop point near the PIFS-Rec knee: the number
    // a latency_qps sweep pays per grid point.
    g.bench_function("open_loop_pifs_rec", |b| {
        let model = scaled(dlrm::ModelConfig::rmc1());
        let trace = TraceSpec {
            distribution: meta_distribution(),
            n_tables: model.n_tables,
            rows_per_table: model.emb_num,
            batch_size: 32,
            n_batches: 3,
            bag_size: model.bag_size,
            seed: 11,
        }
        .generate();
        let arrivals = ArrivalProcess::Poisson { qps: 8_000_000.0 }.times(96, 13);
        b.iter(|| {
            let mut sys = SlsSystem::new(SystemConfig::pifs_rec(model.clone()));
            let met = sys.run_open_loop(&trace, &arrivals);
            black_box(met.latency.percentile(0.99))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_serving);
criterion_main!(benches);
