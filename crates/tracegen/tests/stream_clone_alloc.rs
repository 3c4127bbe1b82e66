//! Allocation guard for stream snapshots: cloning a [`QueryStream`]
//! (a checkpoint, a tenant mix's resume point) copies the per-table
//! sampler state and the current batch's lookups, but shares the
//! read-only Zipf CDF instead of copying one per table.
//!
//! The binary installs [`simkit::stats::CountingAlloc`] as the global
//! allocator and keeps a single `#[test]` so no concurrent test
//! pollutes the process-wide counters.

use simkit::stats::alloc_stats;
use tracegen::{ArrivalProcess, Distribution, QueryStreamSpec, TraceSpec};

#[global_allocator]
static ALLOC: simkit::stats::CountingAlloc = simkit::stats::CountingAlloc::new();

#[test]
fn cloning_a_stream_does_not_copy_the_zipf_cdf() {
    const ROWS: u64 = 65_536;
    let mut stream = QueryStreamSpec {
        trace: TraceSpec {
            distribution: Distribution::MetaLike {
                reuse_frac: 0.35,
                s: 1.05,
            },
            n_tables: 8,
            rows_per_table: ROWS,
            batch_size: 32,
            n_batches: 4,
            bag_size: 16,
            seed: 3,
        },
        arrival: ArrivalProcess::Poisson { qps: 1e6 },
        arrival_seed: 3,
    }
    .stream();
    // Mid-batch, with every table's recent-reuse window partly filled.
    for _ in 0..40 {
        stream.next_query();
    }

    let before = alloc_stats().allocated_bytes;
    let snapshot = stream.clone();
    let cloned = alloc_stats().allocated_bytes - before;

    let one_cdf = ROWS * std::mem::size_of::<f64>() as u64;
    assert!(
        cloned < one_cdf / 4,
        "cloning the stream allocated {cloned} bytes; one table's CDF is {one_cdf}"
    );
    assert_eq!(snapshot.position(), stream.position());
}
