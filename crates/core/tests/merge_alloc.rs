//! Allocation guard for the cluster merge: [`merge_node_parts`] sums
//! the checksum partials routing recorded and keeps only fixed-size
//! cursors, so the number of allocation calls it makes does not grow
//! with the query count. Only the preallocated `query_checksums` vector
//! scales with the run, and it does so in bytes, not in calls.
//!
//! The binary installs [`simkit::stats::CountingAlloc`] as the global
//! allocator and keeps a single `#[test]` so no concurrent test
//! pollutes the process-wide counters.

use pifs_core::engine::cluster::{
    merge_node_parts, route_stream, ClusterConfig, NodePart, ShardPlacement, ShardPolicy,
};
use pifs_core::system::{OpenLoopOpts, SlsSystem, SystemConfig};
use simkit::stats::alloc_stats;
use tracegen::{ArrivalProcess, Distribution, QueryStreamSpec, TraceSpec};

#[global_allocator]
static ALLOC: simkit::stats::CountingAlloc = simkit::stats::CountingAlloc::new();

const SHARDS: u16 = 4;

/// Serves `n_batches × 16` queries on a 4-shard cluster, then returns
/// the allocation calls of the merge alone and the queries it merged.
fn merge_alloc_calls(n_batches: u32) -> (u64, usize) {
    let model = dlrm::ModelConfig {
        emb_num: 4096,
        ..dlrm::ModelConfig::rmc1()
    };
    let spec = QueryStreamSpec {
        trace: TraceSpec {
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
        },
        arrival: ArrivalProcess::Poisson { qps: 2_000_000.0 },
        arrival_seed: 77,
    };
    let cfg = ClusterConfig::new(SHARDS, ShardPolicy::RowHash, SystemConfig::pifs_rec(model));
    let placement = ShardPlacement::build_streamed(&cfg, &spec.stream());
    let mut nodes: Vec<SlsSystem> = (0..SHARDS)
        .map(|_| SlsSystem::new(cfg.node.clone()))
        .collect();
    for node in &mut nodes {
        node.open_loop_begin(spec.trace.n_tables, OpenLoopOpts::default());
    }
    let mut stream = spec.stream();
    let routed = route_stream(
        &placement,
        &cfg.faults,
        &mut stream,
        |s, tenant, at, sub| {
            nodes[s].open_loop_push_tagged(at, tenant, sub);
        },
    );
    let per_node: Vec<_> = nodes.iter_mut().map(SlsSystem::open_loop_finish).collect();
    let parts: Vec<NodePart<'_>> = per_node.iter().map(NodePart::from).collect();

    let before = alloc_stats().calls;
    let met = merge_node_parts(&cfg, &routed, &parts);
    let calls = alloc_stats().calls - before;
    assert_eq!(met.fully_served, met.queries, "a fault-free run serves all");
    (calls, met.query_checksums.len())
}

#[test]
fn merge_allocations_do_not_grow_with_queries() {
    let (short, short_queries) = merge_alloc_calls(24);
    let (long, long_queries) = merge_alloc_calls(96);
    assert_eq!((short_queries, long_queries), (384, 1536));
    assert_eq!(
        short, long,
        "merge_node_parts made {short} allocation calls for 384 queries \
         but {long} for 1536 — something allocates per query or per bag"
    );
}
