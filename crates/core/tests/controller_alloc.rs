//! Allocation guard for the serving controller's load ticks: every
//! [`TICK_BATCHES`] batches the adaptive controller reads the tail of the latencies it
//! recorded since the last tick, then clears that histogram in place,
//! so a warm session's allocation calls do not grow with its tick
//! count.
//!
//! The binary installs [`simkit::stats::CountingAlloc`] as the global
//! allocator and keeps a single `#[test]` so no concurrent test
//! pollutes the process-wide counters.

use pifs_core::engine::controller::TICK_BATCHES;
use pifs_core::engine::serving::TraceArrivals;
use pifs_core::system::{OpenLoopOpts, ServingMetrics, SlsSystem, SystemConfig};
use simkit::stats::alloc_stats;
use simkit::SimTime;
use tracegen::{ArrivalProcess, Distribution, Trace, TraceSpec};

#[global_allocator]
static ALLOC: simkit::stats::CountingAlloc = simkit::stats::CountingAlloc::new();

/// A MetaLike trace of `n_batches` batches; shorter traces are prefixes
/// of longer ones.
fn trace(model: &dlrm::ModelConfig, n_batches: u32) -> Trace {
    TraceSpec {
        distribution: Distribution::MetaLike {
            reuse_frac: 0.35,
            s: 1.05,
        },
        n_tables: model.n_tables,
        rows_per_table: model.emb_num,
        batch_size: 16,
        n_batches,
        bag_size: model.bag_size,
        seed: 5,
    }
    .generate()
}

/// Allocation calls made by `run`.
fn calls(run: impl FnOnce()) -> u64 {
    let before = alloc_stats().calls;
    run();
    alloc_stats().calls - before
}

#[test]
fn warm_adaptive_controller_ticks_do_not_allocate() {
    let model = dlrm::ModelConfig {
        emb_num: 4096,
        ..dlrm::ModelConfig::rmc1()
    };
    let (short, long) = (trace(&model, 16), trace(&model, 64));
    let mut cfg = SystemConfig::pifs_rec(model);
    cfg.apply_knob("serving.controller", "adaptive")
        .expect("valid knob");
    let arrivals = |t: &Trace| -> Vec<SimTime> {
        let n = t.batches.len() * t.batch_size as usize;
        ArrivalProcess::Poisson { qps: 2_000_000.0 }.times(n, 77)
    };
    let (short_arrivals, long_arrivals) = (arrivals(&short), arrivals(&long));
    // No completion vector: it grows with the query count by design.
    let serve = |sys: &mut SlsSystem, t: &Trace, at: &[SimTime]| -> ServingMetrics {
        let opts = OpenLoopOpts {
            record_completion: false,
            window_ns: None,
        };
        sys.run_open_loop_streamed(&mut TraceArrivals::new(t, at), opts)
    };
    let mut sys = SlsSystem::new(cfg);
    // Warm past one-time growth.
    serve(&mut sys, &long, &long_arrivals);
    serve(&mut sys, &long, &long_arrivals);
    let short_calls = calls(|| {
        let m = serve(&mut sys, &short, &short_arrivals);
        assert!(
            m.batches >= 2 * u64::from(TICK_BATCHES),
            "the controller must tick twice"
        );
    });
    let long_calls = calls(|| {
        serve(&mut sys, &long, &long_arrivals);
    });
    assert!(
        long_calls <= short_calls,
        "adaptive controller: a warm 64-batch open-loop run made {long_calls} \
         allocation calls, a 16-batch one {short_calls}: its ticks allocate"
    );
}
