//! End-to-end behavior of the cluster layer through the public façade:
//! the 1-shard byte-identity bridge to plain serving, shard-count and
//! policy invariance of the exact merge plane, query/lookup
//! conservation (including under hot-row replication), determinism,
//! load monotonicity, and the merged per-tenant split of a multi-tenant
//! mix. Mirrors `serving_behavior.rs` one level up.

use dlrm::ModelConfig;
use pifs_core::engine::cluster::{ClusterConfig, ClusterMetrics, ShardPolicy, SlsCluster};
use pifs_core::system::{ShedPolicy, SlsSystem, SystemConfig};
use simkit::SimTime;
use tracegen::{
    ArrivalProcess, Distribution, QosClass, QueryStreamSpec, TenantMixStream, TenantSpec, Trace,
    TraceSpec,
};

fn small_model() -> ModelConfig {
    ModelConfig {
        emb_num: 4096,
        ..ModelConfig::rmc1()
    }
}

/// The recipe of a trace with enough samples for `n` open-loop queries.
fn trace_spec(model: &ModelConfig, n: u32) -> TraceSpec {
    TraceSpec {
        distribution: Distribution::MetaLike {
            reuse_frac: 0.35,
            s: 1.05,
        },
        n_tables: model.n_tables,
        rows_per_table: model.emb_num,
        batch_size: 16,
        n_batches: n.div_ceil(16),
        bag_size: model.bag_size,
        seed: 5,
    }
}

fn trace_for(model: &ModelConfig, n: u32) -> Trace {
    trace_spec(model, n).generate()
}

fn cluster_cfg(k: u16, policy: ShardPolicy) -> ClusterConfig {
    ClusterConfig::new(k, policy, SystemConfig::pifs_rec(small_model()))
}

fn serve_cluster(cfg: ClusterConfig, qps: f64, n: u32) -> ClusterMetrics {
    let trace = trace_for(&cfg.node.model.clone(), n);
    let arrivals = ArrivalProcess::Poisson { qps }.times(n as usize, 77);
    SlsCluster::new(cfg).run_open_loop(&trace, &arrivals)
}

#[test]
fn one_shard_cluster_is_byte_identical_to_plain_serving() {
    // The cluster acceptance bar: a 1-shard cluster IS the node. Same
    // latency histogram, same makespan, no aggregation traffic.
    let n = 96u32;
    let qps = 50_000.0;
    let node_cfg = SystemConfig::pifs_rec(small_model());
    let trace = trace_for(&node_cfg.model.clone(), n);
    let arrivals = ArrivalProcess::Poisson { qps }.times(n as usize, 77);

    let plain = SlsSystem::new(node_cfg.clone()).run_open_loop(&trace, &arrivals);
    for policy in [ShardPolicy::RowHash, ShardPolicy::TablePartition] {
        let m = SlsCluster::new(ClusterConfig::new(1, policy, node_cfg.clone()))
            .run_open_loop(&trace, &arrivals);
        assert_eq!(m.latency, plain.latency, "{policy:?}");
        assert_eq!(m.makespan_ns, plain.makespan_ns, "{policy:?}");
        assert_eq!(m.queries, plain.queries);
        assert_eq!(m.agg_bytes, 0, "a lone shard never crosses the fabric");
        assert_eq!(m.mean_fanout, 1.0);
        assert_eq!(m.per_node.len(), 1);
        assert_eq!(m.per_node[0].run.total_ns, plain.run.total_ns);
        assert_eq!(
            m.per_node[0].run.checksum.to_bits(),
            plain.run.checksum.to_bits()
        );
    }
}

#[test]
fn merged_checksums_are_shard_count_and_policy_invariant() {
    // The exact f64 merge plane: per-query checksums must be
    // bit-identical at every shard count under both policies — the
    // functional core of the shard-invariance suite.
    let n = 64u32;
    let base = serve_cluster(cluster_cfg(1, ShardPolicy::RowHash), 50_000.0, n);
    assert_eq!(base.query_checksums.len(), n as usize);
    for policy in [ShardPolicy::RowHash, ShardPolicy::TablePartition] {
        for k in [1u16, 2, 4, 8] {
            let m = serve_cluster(cluster_cfg(k, policy), 50_000.0, n);
            assert_eq!(
                m.checksum.to_bits(),
                base.checksum.to_bits(),
                "{policy:?} k={k}"
            );
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            assert_eq!(
                bits(&m.query_checksums),
                bits(&base.query_checksums),
                "{policy:?} k={k}: per-query checksums must merge exactly"
            );
        }
    }
}

#[test]
fn lookups_are_conserved_across_shards() {
    // Every (query, table, row) lookup is served exactly once, however
    // the rows scatter. `run.lookups` (not `bags`: non-owned tables
    // contribute empty zero-cost bags that still count as bags).
    let n = 64u32;
    let model = small_model();
    let expected = n as u64 * model.n_tables as u64 * model.bag_size as u64;
    for policy in [ShardPolicy::RowHash, ShardPolicy::TablePartition] {
        for k in [1u16, 2, 4, 8] {
            let m = serve_cluster(cluster_cfg(k, policy), 50_000.0, n);
            let total: u64 = m.per_node.iter().map(|s| s.run.lookups).sum();
            assert_eq!(total, expected, "{policy:?} k={k}");
            assert_eq!(m.queries, n as u64);
            assert_eq!(m.latency.count(), n as u64);
        }
    }
}

#[test]
fn replication_keeps_conservation_and_exactness() {
    // Hot-row replication must not duplicate or drop lookups, must not
    // perturb the exact merge, and must not increase fan-out.
    let n = 64u32;
    let model = small_model();
    let expected = n as u64 * model.n_tables as u64 * model.bag_size as u64;
    let base = serve_cluster(cluster_cfg(4, ShardPolicy::RowHash), 50_000.0, n);
    let mut cfg = cluster_cfg(4, ShardPolicy::RowHash);
    cfg.hot_rows_per_table = 32;
    let m = serve_cluster(cfg, 50_000.0, n);
    let total: u64 = m.per_node.iter().map(|s| s.run.lookups).sum();
    assert_eq!(total, expected, "replicas must serve each lookup once");
    assert_eq!(m.checksum.to_bits(), base.checksum.to_bits());
    assert!(
        m.mean_fanout <= base.mean_fanout,
        "co-routing replicas must not widen fan-out ({} > {})",
        m.mean_fanout,
        base.mean_fanout
    );
}

#[test]
fn cluster_runs_are_deterministic() {
    let run = || serve_cluster(cluster_cfg(4, ShardPolicy::RowHash), 100_000.0, 64);
    let (a, b) = (run(), run());
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.makespan_ns, b.makespan_ns);
    assert_eq!(a.agg_bytes, b.agg_bytes);
    assert_eq!(a.checksum.to_bits(), b.checksum.to_bits());
}

#[test]
fn cluster_latency_grows_or_saturates_with_load() {
    // Same monotone-or-saturating property the single node honors —
    // the cluster_qps scenario plots exactly this per node count.
    let p99 = |qps| {
        let mut cfg = cluster_cfg(4, ShardPolicy::RowHash);
        cfg.node.apply_knob("serving.max_wait_us", "5").unwrap();
        serve_cluster(cfg, qps, 96).latency.percentile(0.99)
    };
    let light = p99(1_000.0);
    let heavy = p99(100_000_000.0);
    assert!(
        heavy >= light,
        "cluster p99 under overload ({heavy} ns) below light load ({light} ns)"
    );
}

#[test]
fn sharding_splits_the_per_node_service_work() {
    // The scaling lever the cluster_qps scenario measures: each node
    // serves a strict fraction of the lookups. (Cluster *makespan* may
    // still lose at toy scale — the aggregation link serializes the
    // cross-shard partials — which is exactly the knee-vs-nodes
    // trade-off the scenario sweeps.)
    let qps = 100_000_000.0;
    let n = 96u32;
    let model = small_model();
    let total = n as u64 * model.n_tables as u64 * model.bag_size as u64;
    let one = serve_cluster(cluster_cfg(1, ShardPolicy::TablePartition), qps, n);
    assert_eq!(one.per_node[0].run.lookups, total);
    let eight = serve_cluster(cluster_cfg(8, ShardPolicy::TablePartition), qps, n);
    // RMC1 has 8 tables: table-partition over 8 shards is one table per
    // node, an exactly even lookup split.
    for node in &eight.per_node {
        assert_eq!(node.run.lookups, total / 8);
        assert!(node.run.total_ns < one.per_node[0].run.total_ns);
    }
}

#[test]
#[should_panic(expected = "at least one shard")]
fn zero_shards_rejected() {
    let mut cfg = cluster_cfg(1, ShardPolicy::RowHash);
    cfg.n_shards = 0;
    let _ = SlsCluster::new(cfg);
}

#[test]
#[should_panic(expected = "more queries than the trace")]
fn cluster_arrival_overrun_rejected() {
    let cfg = cluster_cfg(2, ShardPolicy::RowHash);
    let trace = trace_for(&cfg.node.model.clone(), 16);
    let arrivals = vec![SimTime::ZERO; 17];
    let _ = SlsCluster::new(cfg).run_open_loop(&trace, &arrivals);
}

#[test]
#[should_panic(expected = "stream rows exceed the model's embedding count")]
fn cluster_stream_beyond_the_row_space_rejected() {
    // Rejected at entry, before any node simulates an out-of-table row.
    let cfg = cluster_cfg(2, ShardPolicy::RowHash);
    let spec = QueryStreamSpec {
        trace: TraceSpec {
            rows_per_table: 4 * cfg.node.model.emb_num,
            ..trace_spec(&cfg.node.model, 32)
        },
        arrival: ArrivalProcess::Poisson { qps: 100_000.0 },
        arrival_seed: 77,
    };
    let _ = SlsCluster::new(cfg).run_open_loop_streamed(&mut spec.stream());
}

#[test]
fn merged_tenant_split_accounts_for_every_query() {
    // Two tenants through a 2-shard cluster, loaded past the shedder's
    // queue bound: the merged per-tenant split must cover the answered
    // and unanswered totals exactly, and each tenant exactly its own
    // arrivals in the mix.
    let model = small_model();
    let tenant = |name: &str, qos, n_batches, seed| TenantSpec {
        name: name.into(),
        qos,
        stream: QueryStreamSpec {
            trace: TraceSpec {
                n_batches,
                seed,
                ..trace_spec(&model, 0)
            },
            arrival: ArrivalProcess::Poisson { qps: 4_000_000.0 },
            arrival_seed: seed + 100,
        },
    };
    let mix = TenantMixStream::new(vec![
        tenant("interactive", QosClass::LatencyCritical, 3, 5),
        tenant("bulk", QosClass::Batch, 2, 6),
    ]);
    let mut arrivals = [0u64; 2];
    let mut walk = mix.clone();
    while let Some((_, t, _)) = walk.next_query() {
        arrivals[t as usize] += 1;
    }
    let mut cfg = cluster_cfg(2, ShardPolicy::RowHash);
    cfg.node.serving.shed = ShedPolicy::QueueDepth { max_pending: 2 };
    let m = SlsCluster::new(cfg).run_open_loop_streamed(&mut mix.clone());

    assert_eq!(m.per_tenant.len(), 2);
    let answered: u64 = m.per_tenant.iter().map(|t| t.queries).sum();
    let unanswered: u64 = m.per_tenant.iter().map(|t| t.shed).sum();
    assert_eq!(answered, m.fully_served + m.degraded);
    assert_eq!(unanswered, m.shed + m.lost);
    assert!(m.shed > 0, "the queue bound must shed under this load");
    for (i, t) in m.per_tenant.iter().enumerate() {
        assert_eq!(t.queries + t.shed, arrivals[i], "tenant {i}");
        assert_eq!(t.latency.count(), t.queries, "tenant {i}");
    }
    assert_eq!(arrivals.iter().sum::<u64>(), m.queries);
}
