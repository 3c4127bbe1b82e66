//! Streamed-vs-materialized differential suite: the lazy query path
//! ([`QueryStream`] → `run_open_loop_streamed`) must be byte-identical
//! to the materialized path (`TraceSpec::generate` +
//! `ArrivalProcess::times` → `run_open_loop`)
//! — same histograms, same completion instants, same functional
//! checksums to the bit — across schemes, arrival processes, and
//! pre/post-knee rates. On top of that, a [`SimCheckpoint`] captured at
//! *every* query boundary and resumed to completion must reproduce the
//! straight-through run exactly, a one-tenant mix must be its tenant's
//! stream, and a 1-shard streamed cluster must be the streamed node.
//! Mirrors `cluster_behavior.rs` one axis over.

use dlrm::ModelConfig;
use pifs_core::engine::checkpoint;
use pifs_core::engine::cluster::{ClusterConfig, ClusterMetrics, ShardPolicy, SlsCluster};
use pifs_core::system::{
    OpenLoopOpts, RunMetrics, ServingMetrics, ShedPolicy, SlsSystem, SystemConfig,
};
use pifs_core::SimCheckpoint;
use tracegen::{
    ArrivalProcess, Distribution, QosClass, QueryStreamSpec, TenantMixStream, TenantSpec, TraceSpec,
};

fn small_model() -> ModelConfig {
    ModelConfig {
        emb_num: 4096,
        ..ModelConfig::rmc1()
    }
}

/// The canonical differential workload: same trace recipe and seeds as
/// `cluster_behavior.rs` (`trace_for` seed 5, arrival seed 77), spelled
/// as a stream spec so both paths derive from one value.
fn spec_for(model: &ModelConfig, n: u32, arrival: ArrivalProcess) -> QueryStreamSpec {
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
        arrival,
        arrival_seed: 77,
    }
}

/// The eager reference: materialize the whole trace and arrival vector,
/// then serve them through the classic entry point.
fn materialized(cfg: &SystemConfig, spec: &QueryStreamSpec) -> ServingMetrics {
    let trace = spec.trace.generate();
    let arrivals = spec
        .arrival
        .times(spec.n_queries() as usize, spec.arrival_seed);
    SlsSystem::new(cfg.clone()).run_open_loop(&trace, &arrivals)
}

/// The lazy candidate: same workload, O(batch) memory.
fn streamed(cfg: &SystemConfig, spec: &QueryStreamSpec) -> ServingMetrics {
    SlsSystem::new(cfg.clone()).run_open_loop_streamed(&mut spec.stream(), OpenLoopOpts::default())
}

fn assert_run_eq(a: &RunMetrics, b: &RunMetrics, ctx: &str) {
    assert_eq!(a.total_ns, b.total_ns, "{ctx}: total_ns");
    assert_eq!(a.bags, b.bags, "{ctx}: bags");
    assert_eq!(a.lookups, b.lookups, "{ctx}: lookups");
    assert_eq!(a.local_lookups, b.local_lookups, "{ctx}: local_lookups");
    assert_eq!(a.remote_lookups, b.remote_lookups, "{ctx}: remote_lookups");
    assert_eq!(a.cxl_lookups, b.cxl_lookups, "{ctx}: cxl_lookups");
    assert_eq!(a.buffer_hits, b.buffer_hits, "{ctx}: buffer_hits");
    assert_eq!(a.buffer_misses, b.buffer_misses, "{ctx}: buffer_misses");
    assert_eq!(
        a.device_accesses, b.device_accesses,
        "{ctx}: device_accesses"
    );
    assert_eq!(a.migrations, b.migrations, "{ctx}: migrations");
    assert_eq!(a.migration_ns, b.migration_ns, "{ctx}: migration_ns");
    assert_eq!(a.ooo_stalls, b.ooo_stalls, "{ctx}: ooo_stalls");
    assert_eq!(
        a.host_link_bytes, b.host_link_bytes,
        "{ctx}: host_link_bytes"
    );
    assert_eq!(
        a.checksum.to_bits(),
        b.checksum.to_bits(),
        "{ctx}: checksum"
    );
    assert_eq!(
        a.mean_bag_ns.to_bits(),
        b.mean_bag_ns.to_bits(),
        "{ctx}: mean_bag_ns"
    );
}

fn assert_serving_eq(a: &ServingMetrics, b: &ServingMetrics, ctx: &str) {
    assert_eq!(a.queries, b.queries, "{ctx}: queries");
    assert_eq!(a.batches, b.batches, "{ctx}: batches");
    assert_eq!(a.makespan_ns, b.makespan_ns, "{ctx}: makespan_ns");
    assert_eq!(a.latency, b.latency, "{ctx}: latency hist");
    assert_eq!(a.wait, b.wait, "{ctx}: wait hist");
    assert_eq!(
        a.mean_batch_fill.to_bits(),
        b.mean_batch_fill.to_bits(),
        "{ctx}: mean_batch_fill"
    );
    assert_eq!(a.completion, b.completion, "{ctx}: completion instants");
    assert_eq!(a.windows, b.windows, "{ctx}: latency windows");
    assert_eq!(a.shed, b.shed, "{ctx}: shed");
    assert_eq!(a.shed_qids, b.shed_qids, "{ctx}: shed qids");
    assert_eq!(a.pm_epochs, b.pm_epochs, "{ctx}: pm_epochs");
    assert_eq!(a.per_tenant.len(), b.per_tenant.len(), "{ctx}: tenants");
    for (i, (ta, tb)) in a.per_tenant.iter().zip(&b.per_tenant).enumerate() {
        assert_eq!(ta.queries, tb.queries, "{ctx}: tenant {i} queries");
        assert_eq!(ta.shed, tb.shed, "{ctx}: tenant {i} shed");
        assert_eq!(ta.latency, tb.latency, "{ctx}: tenant {i} latency");
        assert_eq!(ta.wait, tb.wait, "{ctx}: tenant {i} wait");
    }
    assert_run_eq(&a.run, &b.run, ctx);
}

fn assert_cluster_eq(a: &ClusterMetrics, b: &ClusterMetrics, ctx: &str) {
    assert_eq!(a.queries, b.queries, "{ctx}: queries");
    assert_eq!(a.latency, b.latency, "{ctx}: latency hist");
    assert_eq!(a.makespan_ns, b.makespan_ns, "{ctx}: makespan_ns");
    assert_eq!(a.agg_bytes, b.agg_bytes, "{ctx}: agg_bytes");
    assert_eq!(
        a.mean_fanout.to_bits(),
        b.mean_fanout.to_bits(),
        "{ctx}: mean_fanout"
    );
    assert_eq!(
        a.checksum.to_bits(),
        b.checksum.to_bits(),
        "{ctx}: checksum"
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(
        bits(&a.query_checksums),
        bits(&b.query_checksums),
        "{ctx}: per-query checksums"
    );
    assert_eq!(a.per_node.len(), b.per_node.len(), "{ctx}: node count");
    for (i, (na, nb)) in a.per_node.iter().zip(&b.per_node).enumerate() {
        assert_serving_eq(na, nb, &format!("{ctx}: node {i}"));
    }
}

#[test]
fn streamed_matches_materialized_across_schemes() {
    // The tentpole contract on the scheme axis: every engine
    // configuration (host compute, switch compute, DIMM compute,
    // PIFS-Rec) serves the streamed workload byte-identically to the
    // materialized one — the dispatch path is shared, so a divergence
    // anywhere in the plant would show up in at least one scheme.
    let m = small_model();
    let spec = spec_for(&m, 64, ArrivalProcess::Poisson { qps: 50_000.0 });
    for (name, cfg) in [
        ("pond", SystemConfig::pond(m.clone())),
        ("beacon", SystemConfig::beacon(m.clone())),
        ("recnmp", SystemConfig::recnmp(m.clone(), 0.5)),
        ("pifs_rec", SystemConfig::pifs_rec(m.clone())),
    ] {
        assert_serving_eq(&streamed(&cfg, &spec), &materialized(&cfg, &spec), name);
    }
}

#[test]
fn streamed_matches_materialized_across_arrivals_and_rates() {
    // The arrival axis, at a pre-knee rate (batcher mostly fires on
    // max-wait) and a post-knee rate (batcher mostly fires full and
    // queues grow): both regimes exercise different flush interleavings
    // in `open_loop_push`, and both must stay exact.
    let m = small_model();
    let cfg = SystemConfig::pifs_rec(m.clone());
    for qps in [50_000.0, 5_000_000.0] {
        for arrival in [
            ArrivalProcess::Fixed { qps },
            ArrivalProcess::Poisson { qps },
            ArrivalProcess::Bursty {
                qps,
                burst: 0.8,
                dwell_us: 200.0,
            },
            ArrivalProcess::Diurnal {
                qps,
                amplitude: 0.5,
                period_s: 0.001,
            },
        ] {
            let spec = spec_for(&m, 64, arrival);
            let ctx = format!("{arrival:?} @ {qps} qps");
            assert_serving_eq(&streamed(&cfg, &spec), &materialized(&cfg, &spec), &ctx);
        }
    }
}

#[test]
fn windowed_summaries_match_between_paths() {
    // The windowed-latency option rides the same push path on both
    // sides, but only the streaming entry exposes it; drive both
    // through the session API directly to compare window summaries.
    let m = small_model();
    let cfg = SystemConfig::pifs_rec(m.clone());
    let spec = spec_for(
        &m,
        96,
        ArrivalProcess::Diurnal {
            qps: 100_000.0,
            amplitude: 0.5,
            period_s: 0.001,
        },
    );
    let opts = OpenLoopOpts {
        record_completion: true,
        window_ns: Some(100_000),
    };

    let a = SlsSystem::new(cfg.clone()).run_open_loop_streamed(&mut spec.stream(), opts);

    // "Materialized" side: pre-generate everything, then push.
    let trace = spec.trace.generate();
    let arrivals = spec
        .arrival
        .times(spec.n_queries() as usize, spec.arrival_seed);
    let mut sys = SlsSystem::new(cfg);
    sys.open_loop_begin(spec.trace.n_tables, opts);
    let mut stream = spec.stream();
    for (qid, &at) in arrivals.iter().enumerate() {
        let (sq, _) = stream.next_query().expect("stream length");
        assert_eq!(sq as usize, qid);
        let _ = trace; // trace and stream bags are proven identical in tracegen
        sys.open_loop_push(at, &stream);
    }
    let b = sys.open_loop_finish();

    assert!(!a.windows.is_empty(), "windowed run must emit summaries");
    assert_serving_eq(&a, &b, "windowed");
    let total: u64 = a.windows.iter().map(|w| w.count).sum();
    assert_eq!(total, a.queries, "every query lands in exactly one window");
}

/// A one-tenant [`TenantMixStream`] is the same workload as its
/// tenant's [`QueryStream`]: served through the one node entry point,
/// the two runs agree in every field, with and without shedding, and
/// the tenant's split is the whole run.
#[test]
fn one_tenant_mix_is_its_stream() {
    let m = small_model();
    let spec = spec_for(&m, 160, ArrivalProcess::Poisson { qps: 2_000_000.0 });
    let opts = OpenLoopOpts {
        record_completion: true,
        window_ns: Some(20_000),
    };
    for shed in [ShedPolicy::None, ShedPolicy::QueueDepth { max_pending: 4 }] {
        let mut cfg = SystemConfig::pifs_rec(m.clone());
        cfg.serving.shed = shed;
        let ctx = format!("{shed:?}");
        let alone = SlsSystem::new(cfg.clone()).run_open_loop_streamed(&mut spec.stream(), opts);
        let mut mix = TenantMixStream::new(vec![TenantSpec {
            name: "solo".into(),
            qos: QosClass::LatencyCritical,
            stream: spec,
        }]);
        let mixed = SlsSystem::new(cfg).run_open_loop_streamed(&mut mix, opts);
        assert_serving_eq(&alone, &mixed, &ctx);

        assert_eq!(mixed.per_tenant.len(), 1, "{ctx}: one tenant");
        let t = &mixed.per_tenant[0];
        assert_eq!(t.queries, mixed.queries, "{ctx}: tenant queries");
        assert_eq!(t.shed, mixed.shed, "{ctx}: tenant shed");
        assert_eq!(t.latency, mixed.latency, "{ctx}: tenant latency");
        assert_eq!(t.wait, mixed.wait, "{ctx}: tenant wait");
        if shed != ShedPolicy::None {
            assert!(mixed.shed > 0, "{ctx}: the overload must shed");
        }
    }
}

#[test]
fn checkpoint_resume_at_every_query_matches_straight_through() {
    // The checkpoint contract at its strongest: capture after every
    // single pushed query, resume each capture to completion, and
    // require the full metrics (histograms, completion vector,
    // checksum bits) to equal the straight-through run. Also proves
    // capture is non-perturbing: the original session keeps running
    // after the snapshot and must stay exact too.
    let m = small_model();
    let cfg = SystemConfig::pifs_rec(m.clone());
    let spec = spec_for(&m, 48, ArrivalProcess::Poisson { qps: 200_000.0 });
    let reference = streamed(&cfg, &spec);

    for k in 0..=spec.n_queries() {
        let mut sys = SlsSystem::new(cfg.clone());
        let mut stream = spec.stream();
        sys.open_loop_begin(spec.trace.n_tables, OpenLoopOpts::default());
        assert_eq!(checkpoint::advance(&mut sys, &mut stream, k), k);

        let ck = SimCheckpoint::capture(&sys, &stream);
        assert_eq!(ck.position(), k);

        // The original continues past the capture, unperturbed.
        checkpoint::advance(&mut sys, &mut stream, u64::MAX);
        assert_serving_eq(
            &sys.open_loop_finish(),
            &reference,
            &format!("original after capture at {k}"),
        );

        // The resumed copy replays the suffix from the snapshot alone.
        let (mut rsys, mut rstream) = ck.resume();
        assert_eq!(
            checkpoint::advance(&mut rsys, &mut rstream, u64::MAX),
            spec.n_queries() - k
        );
        assert_serving_eq(
            &rsys.open_loop_finish(),
            &reference,
            &format!("resume at {k}"),
        );
    }
}

#[test]
fn checkpoint_is_reusable_across_sweep_points() {
    // The warm-start shape sweeps actually use: one prefix checkpoint,
    // several points resumed from it — each resume must be independent
    // (resuming twice gives bitwise-equal results) and equal to running
    // its point straight through.
    let m = small_model();
    let cfg = SystemConfig::pifs_rec(m.clone());
    let spec = spec_for(&m, 48, ArrivalProcess::Poisson { qps: 200_000.0 });
    let prefix = 16u64;

    let mut sys = SlsSystem::new(cfg.clone());
    let mut stream = spec.stream();
    sys.open_loop_begin(spec.trace.n_tables, OpenLoopOpts::default());
    checkpoint::advance(&mut sys, &mut stream, prefix);
    let ck = SimCheckpoint::capture(&sys, &stream);

    for point in [24u64, 32, 48] {
        // Straight-through reference for this point: push `point`
        // queries from scratch, then finish.
        let mut ref_sys = SlsSystem::new(cfg.clone());
        let mut ref_stream = spec.stream();
        ref_sys.open_loop_begin(spec.trace.n_tables, OpenLoopOpts::default());
        checkpoint::advance(&mut ref_sys, &mut ref_stream, point);
        let reference = ref_sys.open_loop_finish();

        for attempt in 0..2 {
            let (mut rsys, mut rstream) = ck.resume();
            checkpoint::advance(&mut rsys, &mut rstream, point - prefix);
            assert_serving_eq(
                &rsys.open_loop_finish(),
                &reference,
                &format!("point {point} attempt {attempt}"),
            );
        }
    }
}

#[test]
fn one_shard_streamed_cluster_is_the_streamed_node() {
    // The cluster bridge, streaming edition: a 1-shard streamed cluster
    // must reproduce the plain streamed node exactly under both
    // placement policies, with no aggregation traffic.
    let m = small_model();
    let cfg = SystemConfig::pifs_rec(m.clone());
    let spec = spec_for(&m, 96, ArrivalProcess::Poisson { qps: 50_000.0 });
    let plain = streamed(&cfg, &spec);
    for policy in [ShardPolicy::RowHash, ShardPolicy::TablePartition] {
        let cl = SlsCluster::new(ClusterConfig::new(1, policy, cfg.clone()))
            .run_open_loop_streamed(&mut spec.stream());
        assert_eq!(cl.latency, plain.latency, "{policy:?}");
        assert_eq!(cl.makespan_ns, plain.makespan_ns, "{policy:?}");
        assert_eq!(cl.queries, plain.queries);
        assert_eq!(cl.agg_bytes, 0, "a lone shard never crosses the fabric");
        assert_eq!(cl.mean_fanout, 1.0);
        assert_eq!(cl.per_node.len(), 1);
        assert_run_eq(&cl.per_node[0].run, &plain.run, &format!("{policy:?} node"));
    }
}

#[test]
fn streamed_cluster_matches_materialized_cluster() {
    // Multi-shard: the lazy stream and the materialized trace +
    // arrival vector of the same recipe (served through the
    // `TraceArrivals` adapter) must agree field for field, per node,
    // at every shard count and policy — including with hot-row
    // replication, whose hotness scan in
    // `ShardPlacement::build_streamed` walks each source.
    let m = small_model();
    let node = SystemConfig::pifs_rec(m.clone());
    let spec = spec_for(&m, 64, ArrivalProcess::Poisson { qps: 50_000.0 });
    let trace = spec.trace.generate();
    let arrivals = spec
        .arrival
        .times(spec.n_queries() as usize, spec.arrival_seed);

    for policy in [ShardPolicy::RowHash, ShardPolicy::TablePartition] {
        for k in [1u16, 2, 4] {
            for hot_rows in [0u32, 8] {
                let mut cfg = ClusterConfig::new(k, policy, node.clone());
                cfg.hot_rows_per_table = hot_rows;
                let eager = SlsCluster::new(cfg.clone()).run_open_loop(&trace, &arrivals);
                let lazy = SlsCluster::new(cfg).run_open_loop_streamed(&mut spec.stream());
                assert_cluster_eq(
                    &lazy,
                    &eager,
                    &format!("{policy:?} k={k} hot_rows={hot_rows}"),
                );
            }
        }
    }
}
