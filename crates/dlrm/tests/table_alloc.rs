//! Allocation guard for table construction: an [`EmbeddingTable`] is a
//! plain value (an id, a shape and a base address), so building one
//! touches no heap — whatever its size, its row values are computed
//! from a hash as the folds read them.
//!
//! The binary installs [`simkit::stats::CountingAlloc`] as the global
//! allocator and keeps a single `#[test]` so no concurrent test
//! pollutes the process-wide counters.

use dlrm::EmbeddingTable;
use simkit::stats::alloc_stats;

#[global_allocator]
static ALLOC: simkit::stats::CountingAlloc = simkit::stats::CountingAlloc::new();

#[test]
fn building_a_table_allocates_nothing() {
    let before = alloc_stats().calls;
    let t = EmbeddingTable::new(0, 1024, 64, 0);
    let calls = alloc_stats().calls - before;
    std::hint::black_box(&t);
    assert_eq!(
        calls, 0,
        "EmbeddingTable::new made {calls} allocation calls"
    );
}
