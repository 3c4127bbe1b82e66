//! Allocation guard for page-management epochs: once a system is warm,
//! an epoch ranks, classifies, promotes, demotes and spreads in buffers
//! kept with the state it ranks (the hotness detector and the epoch's
//! page counts), so the allocation calls of one run do not grow with
//! its batch count, and so with its epoch count. Three page managers
//! are checked: the paper's global policy at two hosts with a local
//! region smaller than one batch's pages (so every epoch ranks each
//! host's heatmap and skips pages the other host claimed, and every
//! fourth spreads), the TPP baseline, and an open-loop session whose
//! controller steers the epoch cadence from the hot set's churn.
//!
//! The binary installs [`simkit::stats::CountingAlloc`] as the global
//! allocator and keeps a single `#[test]` so no concurrent test
//! pollutes the process-wide counters.

use std::collections::BTreeSet;

use pagemgmt::PAGE_BYTES;
use pifs_core::engine::serving::TraceArrivals;
use pifs_core::system::{OpenLoopOpts, ServingMetrics, SlsSystem, SystemConfig};
use simkit::stats::alloc_stats;
use simkit::SimTime;
use tracegen::{ArrivalProcess, Distribution, Trace, TraceSpec};

#[global_allocator]
static ALLOC: simkit::stats::CountingAlloc = simkit::stats::CountingAlloc::new();

/// A MetaLike trace of `n_batches` batches; shorter traces are prefixes
/// of longer ones (each table's sampler draws batch after batch).
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

/// The fewest distinct pages any batch of `trace` reads. Tables start
/// on page boundaries, so two rows share a page exactly when they share
/// a table and `row × row_bytes / PAGE_BYTES`.
fn min_pages_per_batch(trace: &Trace, row_bytes: u64) -> usize {
    (0..trace.batches.len())
        .map(|b| {
            let mut pages = BTreeSet::new();
            for table in 0..trace.n_tables {
                for sample in 0..trace.batch_size {
                    for &row in trace.bag(b, table, sample) {
                        pages.insert((table, row * row_bytes / PAGE_BYTES));
                    }
                }
            }
            pages.len()
        })
        .min()
        .expect("the trace has batches")
}

/// Allocation calls made by `run`.
fn calls(run: impl FnOnce()) -> u64 {
    let before = alloc_stats().calls;
    run();
    alloc_stats().calls - before
}

/// Allocation calls of a warm closed-loop run of `short` and of `long`.
fn closed_loop_calls(cfg: SystemConfig, short: &Trace, long: &Trace) -> (u64, u64) {
    let mut sys = SlsSystem::new(cfg);
    // Warm past one-time growth: every epoch buffer's high-water mark.
    sys.run_trace(long);
    sys.run_trace(long);
    let short_calls = calls(|| {
        let m = sys.run_trace(short);
        assert!(m.migrations > 0, "the page manager must move pages");
    });
    let long_calls = calls(|| {
        sys.run_trace(long);
    });
    (short_calls, long_calls)
}

#[test]
fn warm_page_manager_epochs_do_not_allocate() {
    let model = dlrm::ModelConfig {
        emb_num: 4096,
        ..dlrm::ModelConfig::rmc1()
    };
    let (short, long) = (trace(&model, 16), trace(&model, 64));
    let row_bytes = model.row_bytes();

    // The global policy: two hosts, and a local region of a few pages.
    let mut global = SystemConfig::pifs_rec(model.clone());
    global.n_hosts = 2;
    global.local_capacity_frac = 0.005;
    let local_pages = SlsSystem::new(global.clone())
        .page_table()
        .capacities()
        .local_pages;
    assert!(
        (local_pages as usize) < min_pages_per_batch(&long, row_bytes),
        "every host must track more pages than it may claim"
    );
    let (short_calls, long_calls) = closed_loop_calls(global, &short, &long);
    assert!(
        long_calls <= short_calls,
        "global page manager: a warm 64-batch run_trace made {long_calls} allocation \
         calls, a 16-batch one {short_calls}: its epochs allocate"
    );

    // The TPP baseline.
    let mut tpp = SystemConfig::pifs_rec(model.clone());
    tpp.apply_knob("pm.style", "tpp").expect("valid knob");
    let (short_calls, long_calls) = closed_loop_calls(tpp, &short, &long);
    assert!(
        long_calls <= short_calls,
        "TPP page manager: a warm 64-batch run_trace made {long_calls} allocation \
         calls, a 16-batch one {short_calls}: its epochs allocate"
    );

    // Open-loop serving with the controller's epoch lever live: each
    // due epoch first ranks every host's hot set for the churn check.
    let mut serving = SystemConfig::pifs_rec(model);
    serving
        .apply_knob("serving.controller", "epoch")
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
    let mut sys = SlsSystem::new(serving);
    serve(&mut sys, &long, &long_arrivals);
    serve(&mut sys, &long, &long_arrivals);
    let short_calls = calls(|| {
        let m = serve(&mut sys, &short, &short_arrivals);
        assert!(m.pm_epochs > 0, "the session must run epochs");
    });
    let long_calls = calls(|| {
        serve(&mut sys, &long, &long_arrivals);
    });
    assert!(
        long_calls <= short_calls,
        "epoch-adaptive session: a warm 64-batch open-loop run made {long_calls} \
         allocation calls, a 16-batch one {short_calls}: its epochs allocate"
    );
}
