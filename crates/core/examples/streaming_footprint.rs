//! Measures the heap and wall-clock cost of serving one minute of
//! diurnal traffic through the streamed open-loop path versus the
//! materialized trace path — the source of the PERFORMANCE.md
//! "streamed vs materialized" table.
//!
//! ```text
//! cargo run --release -p pifs-core --example streaming_footprint
//! ```

use pifs_core::system::{OpenLoopOpts, SlsSystem, SystemConfig};
use simkit::stats::{alloc_stats, reset_alloc_peak};
use tracegen::{ArrivalProcess, Distribution, QueryStreamSpec, TraceSpec};

#[global_allocator]
static ALLOC: simkit::stats::CountingAlloc = simkit::stats::CountingAlloc::new();

fn main() {
    let model = dlrm::ModelConfig {
        emb_num: 4096,
        ..dlrm::ModelConfig::rmc1()
    };
    let queries: u64 = 30_000; // 60 s at 500 qps
    let spec = QueryStreamSpec {
        trace: TraceSpec {
            distribution: Distribution::MetaLike {
                reuse_frac: 0.35,
                s: 1.05,
            },
            n_tables: model.n_tables,
            rows_per_table: model.emb_num,
            batch_size: 32,
            n_batches: (queries as u32).div_ceil(32),
            bag_size: model.bag_size,
            seed: 5,
        },
        arrival: ArrivalProcess::Diurnal {
            qps: 500.0,
            amplitude: 0.9,
            period_s: 20.0,
        },
        arrival_seed: 77,
    };
    let cfg = SystemConfig::pifs_rec(model);
    let opts = OpenLoopOpts {
        record_completion: false,
        window_ns: Some(1_000_000_000),
    };

    // Streamed: O(batch) working set.
    let mut sys = SlsSystem::new(cfg.clone());
    let base = alloc_stats().live_bytes;
    reset_alloc_peak();
    let t0 = std::time::Instant::now();
    let m = sys.run_open_loop_streamed(&mut spec.stream(), opts);
    let streamed_ms = t0.elapsed().as_secs_f64() * 1e3;
    let streamed_peak = alloc_stats().peak_live_bytes.saturating_sub(base);
    assert_eq!(m.queries, spec.n_queries());
    let streamed_checksum = m.run.checksum;

    // Materialized: the whole trace + arrival vector pinned live.
    let mut sys = SlsSystem::new(cfg);
    let base = alloc_stats().live_bytes;
    reset_alloc_peak();
    let t0 = std::time::Instant::now();
    let trace = spec.trace.generate();
    let arrivals = spec
        .arrival
        .times(spec.n_queries() as usize, spec.arrival_seed);
    let m = sys.run_open_loop(&trace, &arrivals);
    let materialized_ms = t0.elapsed().as_secs_f64() * 1e3;
    let materialized_peak = alloc_stats().peak_live_bytes.saturating_sub(base);
    assert_eq!(m.run.checksum.to_bits(), streamed_checksum.to_bits());

    println!(
        "workload: {} queries, 60 s simulated diurnal traffic",
        m.queries
    );
    println!(
        "materialized: peak heap {:>8.2} MiB, wall {:>7.1} ms",
        materialized_peak as f64 / (1 << 20) as f64,
        materialized_ms
    );
    println!(
        "streamed:     peak heap {:>8.2} MiB, wall {:>7.1} ms",
        streamed_peak as f64 / (1 << 20) as f64,
        streamed_ms
    );
    println!(
        "ratio:        {:.1}x smaller peak, {:+.1}% wall",
        materialized_peak as f64 / streamed_peak.max(1) as f64,
        (streamed_ms / materialized_ms - 1.0) * 100.0
    );
}
