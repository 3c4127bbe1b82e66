//! Resilience behavior of the cluster layer under injected faults:
//! conservation of every offered query and lookup across the
//! served/degraded/shed/lost split, byte-identity of the zero-fault
//! paths to the historical merge, bit-identity of full-coverage
//! answers under timing-only faults, determinism of faulty runs, and
//! equivalence of a materialized `(trace, arrivals)` workload (through
//! the `TraceArrivals` adapter) with the lazy `QueryStream` of the same
//! recipe, with faults and shedding active. Mirrors
//! `cluster_behavior.rs` one hazard over.

use dlrm::ModelConfig;
use pifs_core::engine::cluster::{ClusterConfig, ClusterMetrics, ShardPolicy, SlsCluster};
use pifs_core::system::{ShedPolicy, SystemConfig};
use proptest::prelude::*;
use simkit::{FaultSchedule, FaultSpec};
use tracegen::{ArrivalProcess, Distribution, QueryStreamSpec, TraceSpec};

fn small_model() -> ModelConfig {
    ModelConfig {
        emb_num: 4096,
        ..ModelConfig::rmc1()
    }
}

/// Same workload recipe as `cluster_behavior.rs` / the streaming
/// differential suite (trace seed 5, arrival seed 77).
fn spec_for(model: &ModelConfig, n: u32, qps: f64) -> QueryStreamSpec {
    QueryStreamSpec {
        trace: TraceSpec {
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
        },
        arrival: ArrivalProcess::Poisson { qps },
        arrival_seed: 77,
    }
}

/// A faulted 3-node cluster config over the small model.
fn faulted_cfg(fault: &str, shed: ShedPolicy, replicas: u32, fault_seed: u64) -> ClusterConfig {
    let mut node = SystemConfig::pifs_rec(small_model());
    node.serving.shed = shed;
    let spec = FaultSpec::parse(fault).expect("fault spec");
    let mut cfg = ClusterConfig::new(3, ShardPolicy::RowHash, node);
    cfg.hot_rows_per_table = replicas;
    cfg.faults = FaultSchedule::generate(spec, fault_seed, 3, 10_000_000);
    cfg.partial_timeout_ns = Some(100_000);
    cfg
}

/// The workload materialized up front, served through the
/// `(trace, arrivals)` adapter.
fn run_materialized(cfg: &ClusterConfig, spec: &QueryStreamSpec) -> ClusterMetrics {
    let trace = spec.trace.generate();
    let arrivals = spec
        .arrival
        .times(spec.n_queries() as usize, spec.arrival_seed);
    SlsCluster::new(cfg.clone()).run_open_loop(&trace, &arrivals)
}

/// The same workload generated lazily.
fn run_streamed(cfg: &ClusterConfig, spec: &QueryStreamSpec) -> ClusterMetrics {
    SlsCluster::new(cfg.clone()).run_open_loop_streamed(&mut spec.stream())
}

fn assert_conserved(m: &ClusterMetrics, ctx: &str) {
    assert_eq!(
        m.fully_served + m.degraded + m.shed + m.lost,
        m.queries,
        "{ctx}: every offered query is served, degraded, shed, or lost"
    );
    assert!(
        m.served_lookups <= m.total_lookups,
        "{ctx}: served lookups cannot exceed offered"
    );
    assert!(
        (0.0..=1.0).contains(&m.availability()),
        "{ctx}: availability in [0,1]"
    );
    assert!(
        (0.0..=1.0).contains(&m.mean_coverage),
        "{ctx}: coverage in [0,1]"
    );
    // Per node, offered = served + shed (the node-level split).
    for (s, pm) in m.per_node.iter().enumerate() {
        assert_eq!(
            pm.completion.len() as u64,
            pm.queries + pm.shed,
            "{ctx}: node {s} completion plane covers served + shed"
        );
    }
    // The answered queries are exactly the recorded latencies.
    assert_eq!(
        m.latency.count(),
        m.fully_served + m.degraded,
        "{ctx}: one latency sample per answered query"
    );
}

const FAULTS: [&str; 4] = ["none", "failstop:16000", "slow:16000:4", "link:16000:8"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Conservation holds for every fault family × shed policy ×
    /// replication mix, and the whole faulty pipeline is a pure
    /// function of its seeds (two fresh clusters agree to the bit).
    #[test]
    fn prop_offered_queries_and_lookups_are_conserved(
        fault_idx in 0usize..FAULTS.len(),
        shed_idx in 0usize..3,
        replicas_idx in 0usize..2,
        fault_seed in 0u64..64,
    ) {
        let shed = [
            ShedPolicy::Deadline,
            ShedPolicy::QueueDepth { max_pending: 2 },
            ShedPolicy::QueueDepth { max_pending: 16 },
        ][shed_idx];
        let replicas = [0u32, 32][replicas_idx];
        let cfg = faulted_cfg(FAULTS[fault_idx], shed, replicas, fault_seed);
        let spec = spec_for(&small_model(), 48, 2_000_000.0);
        let m = run_materialized(&cfg, &spec);
        prop_assert_eq!(m.queries, 48);
        assert_conserved(&m, FAULTS[fault_idx]);
        let again = run_materialized(&cfg, &spec);
        prop_assert_eq!(m.checksum.to_bits(), again.checksum.to_bits());
        prop_assert_eq!(&m.latency, &again.latency);
        prop_assert_eq!(
            (m.fully_served, m.degraded, m.shed, m.lost, m.timeouts, m.hedges, m.failovers),
            (again.fully_served, again.degraded, again.shed, again.lost,
             again.timeouts, again.hedges, again.failovers)
        );
    }
}

#[test]
fn explicit_empty_schedule_is_byte_identical_to_the_default() {
    // FaultSpec::None through the generator must be indistinguishable
    // from the allocation-free `FaultSchedule::none` default — the
    // zero-fault overhead bar.
    let spec = spec_for(&small_model(), 64, 2_000_000.0);
    let mut cfg = faulted_cfg("none", ShedPolicy::None, 0, 7);
    cfg.partial_timeout_ns = None;
    let defaulted = ClusterConfig::new(3, ShardPolicy::RowHash, cfg.node.clone());
    let a = run_materialized(&cfg, &spec);
    let b = run_materialized(&defaulted, &spec);
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.makespan_ns, b.makespan_ns);
    assert_eq!(a.agg_bytes, b.agg_bytes);
    assert_eq!(a.checksum.to_bits(), b.checksum.to_bits());
    for (x, y) in a.query_checksums.iter().zip(&b.query_checksums) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert_eq!(
        a.fully_served, a.queries,
        "fault-free runs serve everything"
    );
    assert_eq!(a.mean_coverage, 1.0);
    assert_eq!(a.availability(), 1.0);
}

#[test]
fn timing_only_faults_cannot_move_a_checksum_bit() {
    // Slow-downs and link degradation stretch completions but lose no
    // coverage (with the partial timeout off), so every per-query
    // checksum must be bit-identical to the fault-free run — the
    // degraded-merge exactness invariant.
    let spec = spec_for(&small_model(), 64, 4_000_000.0);
    let clean = run_materialized(
        &ClusterConfig::new(
            3,
            ShardPolicy::RowHash,
            SystemConfig::pifs_rec(small_model()),
        ),
        &spec,
    );
    for fault in ["slow:32000:8", "link:32000:8"] {
        let mut cfg = faulted_cfg(fault, ShedPolicy::None, 0, 11);
        cfg.partial_timeout_ns = None;
        let m = run_materialized(&cfg, &spec);
        assert_eq!(m.fully_served, m.queries, "{fault}: full coverage");
        assert_eq!(
            m.checksum.to_bits(),
            clean.checksum.to_bits(),
            "{fault}: total checksum"
        );
        for (q, (x, y)) in m
            .query_checksums
            .iter()
            .zip(&clean.query_checksums)
            .enumerate()
        {
            assert_eq!(x.to_bits(), y.to_bits(), "{fault}: query {q}");
        }
        assert!(
            m.latency.mean_ns() >= clean.latency.mean_ns(),
            "{fault}: stretching cannot speed serving up"
        );
    }
}

#[test]
fn failstop_loses_coverage_and_replication_buys_it_back() {
    let spec = spec_for(&small_model(), 96, 4_000_000.0);
    let bare = run_materialized(
        &faulted_cfg("failstop:64000", ShedPolicy::None, 0, 3),
        &spec,
    );
    let replicated = run_materialized(
        &faulted_cfg("failstop:64000", ShedPolicy::None, 64, 3),
        &spec,
    );
    assert_conserved(&bare, "bare");
    assert_conserved(&replicated, "replicated");
    assert!(
        bare.mean_coverage < 1.0,
        "deaths must cost coverage (got {})",
        bare.mean_coverage
    );
    assert!(
        replicated.mean_coverage > bare.mean_coverage,
        "replication must recover coverage ({} vs {})",
        replicated.mean_coverage,
        bare.mean_coverage
    );
    assert!(replicated.failovers > 0, "replicas must absorb failovers");
    assert_eq!(
        bare.failovers, 0,
        "nothing to fail over to without replicas"
    );
}

#[test]
fn streamed_cluster_matches_materialized_under_faults_and_shedding() {
    // The source differential, extended to the hazard paths: the
    // adapter over a materialized workload and the lazy stream of the
    // same recipe, same fault schedule, same shedder — byte-identical
    // metrics.
    let spec = spec_for(&small_model(), 64, 8_000_000.0);
    for (fault, shed) in [
        ("failstop:32000", ShedPolicy::None),
        ("slow:16000:4", ShedPolicy::QueueDepth { max_pending: 2 }),
        ("link:16000:8", ShedPolicy::Deadline),
    ] {
        let cfg = faulted_cfg(fault, shed, 32, 5);
        let a = run_materialized(&cfg, &spec);
        let b = run_streamed(&cfg, &spec);
        let ctx = format!("{fault}/{shed:?}");
        assert_eq!(a.queries, b.queries, "{ctx}: queries");
        assert_eq!(a.latency, b.latency, "{ctx}: latency hist");
        assert_eq!(a.makespan_ns, b.makespan_ns, "{ctx}: makespan");
        assert_eq!(a.agg_bytes, b.agg_bytes, "{ctx}: agg bytes");
        assert_eq!(
            a.checksum.to_bits(),
            b.checksum.to_bits(),
            "{ctx}: checksum"
        );
        assert_eq!(
            (a.fully_served, a.degraded, a.shed, a.lost),
            (b.fully_served, b.degraded, b.shed, b.lost),
            "{ctx}: outcome split"
        );
        assert_eq!(
            (a.timeouts, a.hedges, a.failovers),
            (b.timeouts, b.hedges, b.failovers),
            "{ctx}: hazard counters"
        );
        assert_eq!(a.served_lookups, b.served_lookups, "{ctx}: served lookups");
        for (q, (x, y)) in a.query_checksums.iter().zip(&b.query_checksums).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{ctx}: query {q}");
        }
        assert_conserved(&a, &ctx);
    }
}

#[test]
fn deadline_shedder_keeps_the_tail_under_overload() {
    // Push the cluster past its knee: the shedding run must answer
    // fewer queries but with a bounded queueing tail, and every shed
    // query must still be accounted for.
    let spec = spec_for(&small_model(), 96, 100_000_000.0);
    let open = run_materialized(&faulted_cfg("none", ShedPolicy::None, 0, 1), &spec);
    let mut shedding_cfg = faulted_cfg("none", ShedPolicy::Deadline, 0, 1);
    shedding_cfg.node.serving.sla_ns = 2_000;
    let shedding = run_materialized(&shedding_cfg, &spec);
    assert_conserved(&open, "open");
    assert_conserved(&shedding, "shedding");
    assert!(shedding.shed > 0, "overload must trip the deadline shedder");
    assert!(
        shedding.availability() < 1.0,
        "shed queries count against availability"
    );
    assert!(
        shedding.latency.percentile(0.99) <= open.latency.percentile(0.99),
        "shedding must not worsen the tail ({} vs {})",
        shedding.latency.percentile(0.99),
        open.latency.percentile(0.99)
    );
}
