//! Allocation guard for the closed-loop bag path: once a system is
//! warm, every per-bag buffer (the row lists, the switch groups, the
//! partial and merged accumulators) is recycled scratch, so the
//! allocation calls of one `run_trace` do not grow with its batch
//! count. Only the per-run setup (the query partition, the measured
//! window's offsets, the returned metrics) allocates.
//!
//! The binary installs [`simkit::stats::CountingAlloc`] as the global
//! allocator and keeps a single `#[test]` so no concurrent test
//! pollutes the process-wide counters.

use pifs_core::system::{SlsSystem, SystemConfig};
use simkit::stats::alloc_stats;
use tracegen::{Distribution, Trace, TraceSpec};

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

/// Allocation calls made by one `run_trace` of `trace` on `sys`.
fn run_calls(sys: &mut SlsSystem, trace: &Trace) -> u64 {
    let before = alloc_stats().calls;
    let m = sys.run_trace(trace);
    let calls = alloc_stats().calls - before;
    assert!(m.cxl_lookups > 0, "the switch path must run");
    calls
}

#[test]
fn warm_run_trace_allocations_do_not_grow_with_batches() {
    let model = dlrm::ModelConfig {
        emb_num: 4096,
        ..dlrm::ModelConfig::rmc1()
    };
    let (short, long) = (trace(&model, 16), trace(&model, 64));
    // BEACON: every row goes through the in-switch fold, with no page
    // manager whose epochs allocate on their own.
    let mut sys = SlsSystem::new(SystemConfig::beacon(model));
    // Warm past one-time growth: scratch high-water marks and the
    // hotness and per-device page maps over every row the traces touch.
    sys.run_trace(&long);

    let short_calls = run_calls(&mut sys, &short);
    let long_calls = run_calls(&mut sys, &long);
    assert!(
        long_calls <= short_calls,
        "a warm 64-batch run_trace made {long_calls} allocation calls, \
         a 16-batch one {short_calls}: the bag path allocates per bag"
    );
}
