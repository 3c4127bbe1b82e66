//! End-to-end behavior of the open-loop serving mode through the public
//! façade: conservation, determinism, load sensitivity, and the batcher
//! knobs' observable effects.

use dlrm::ModelConfig;
use pifs_core::system::{OpenLoopOpts, ServingMetrics, SlsSystem, SystemConfig};
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

fn serve(cfg: SystemConfig, qps: f64, n: u32) -> ServingMetrics {
    let trace = trace_for(&cfg.model.clone(), n);
    let arrivals = ArrivalProcess::Poisson { qps }.times(n as usize, 77);
    SlsSystem::new(cfg).run_open_loop(&trace, &arrivals)
}

#[test]
fn every_query_is_accounted_for() {
    let n = 96;
    let m = serve(SystemConfig::pifs_rec(small_model()), 50_000.0, n);
    assert_eq!(m.queries, n as u64);
    assert_eq!(m.latency.count(), n as u64);
    assert_eq!(m.wait.count(), n as u64);
    // One bag per (query, table).
    assert_eq!(m.run.bags, n as u64 * small_model().n_tables as u64);
    assert!(m.batches >= 1);
    assert!(m.mean_batch_fill > 0.0 && m.mean_batch_fill <= 1.0);
    assert!(m.makespan_ns > 0);
    assert!(m.achieved_qps() > 0.0);
}

#[test]
fn serving_runs_are_deterministic() {
    let run = || serve(SystemConfig::pifs_rec(small_model()), 100_000.0, 64);
    let (a, b) = (run(), run());
    assert_eq!(a.latency, b.latency);
    assert_eq!(a.makespan_ns, b.makespan_ns);
    assert_eq!(a.batches, b.batches);
    assert_eq!(a.run.total_ns, b.run.total_ns);
}

#[test]
fn latency_grows_or_saturates_with_load() {
    // Tail latency deep in overload must not beat light load: the
    // monotone-or-saturating property the latency_qps scenario plots.
    // A small max-wait keeps the light-load batching floor below the
    // overload queueing delay.
    let p99 = |qps| {
        let mut cfg = SystemConfig::pifs_rec(small_model());
        cfg.apply_knob("serving.max_wait_us", "5").unwrap();
        serve(cfg, qps, 96).latency.percentile(0.99)
    };
    let light = p99(1_000.0);
    let heavy = p99(100_000_000.0);
    assert!(
        heavy >= light,
        "p99 under overload ({heavy} ns) below light load ({light} ns)"
    );
}

#[test]
fn overload_stretches_makespan_past_the_last_arrival() {
    // At an absurd offered rate, all queries arrive almost instantly —
    // the makespan is then service-bound and the achieved rate falls
    // far short of the offered rate (the saturation signature).
    let n = 64u32;
    let qps = 100_000_000.0;
    let cfg = SystemConfig::pifs_rec(small_model());
    let trace = trace_for(&cfg.model.clone(), n);
    let arrivals = ArrivalProcess::Poisson { qps }.times(n as usize, 77);
    let last = arrivals.last().copied().unwrap_or(SimTime::ZERO);
    let m = SlsSystem::new(cfg).run_open_loop(&trace, &arrivals);
    assert!(m.makespan_ns > 4 * last.as_ns());
    assert!(m.achieved_qps() < 0.5 * qps);
}

#[test]
fn max_wait_bounds_idle_queue_latency() {
    // At a trickle arrival rate the fill condition never triggers, so
    // every batch closes on max-wait: the queueing delay component of
    // every query's latency is bounded by the knob.
    let mut cfg = SystemConfig::pond(small_model());
    cfg.apply_knob("serving.max_wait_us", "10").unwrap();
    let m = serve(cfg, 1_000.0, 32);
    assert_eq!(m.queries, 32);
    assert!(
        m.wait.max_ns() <= 10_000,
        "wait {} ns exceeds the 10 µs max-wait at trickle load",
        m.wait.max_ns()
    );
    // Batches stayed far from full (fill condition never reached).
    assert!(m.mean_batch_fill < 0.5, "fill {}", m.mean_batch_fill);
}

#[test]
fn batch_size_one_serves_unbatched() {
    let mut cfg = SystemConfig::pond(small_model());
    cfg.apply_knob("serving.batch_size", "1").unwrap();
    let m = serve(cfg, 20_000.0, 48);
    assert_eq!(m.batches, 48);
    assert_eq!(m.mean_batch_fill, 1.0);
}

#[test]
fn open_loop_replays_are_comparable_across_schemes() {
    // The same trace + arrivals fed to two schemes: the functional
    // checksum must agree (placement-independent arithmetic), while
    // the timing differs.
    let n = 48;
    let pond = serve(SystemConfig::pond(small_model()), 50_000.0, n);
    let pifs = serve(SystemConfig::pifs_rec(small_model()), 50_000.0, n);
    let tol = (pond.run.checksum.abs() + pifs.run.checksum.abs()) * 1e-5 + 1e-6;
    assert!((pond.run.checksum - pifs.run.checksum).abs() <= tol);
    assert_ne!(pond.makespan_ns, pifs.makespan_ns);
}

#[test]
fn warm_system_measures_only_its_own_run() {
    // An open-loop run on a system that already served a closed-loop
    // trace must report this run's latencies and makespan, not absolute
    // simulated time: arrival timestamps are relative to the run start.
    let n = 48u32;
    let cfg = || SystemConfig::pond(small_model());
    let trace = trace_for(&cfg().model, n);
    let arrivals = ArrivalProcess::Poisson { qps: 50_000.0 }.times(n as usize, 77);

    let fresh = SlsSystem::new(cfg()).run_open_loop(&trace, &arrivals);
    let mut warm_sys = SlsSystem::new(cfg());
    let closed = warm_sys.run_trace(&trace);
    assert!(closed.total_ns > 0);
    let warm = warm_sys.run_open_loop(&trace, &arrivals);

    // The prior run's duration must not leak into this run's numbers
    // (cache/placement state may differ slightly; time offsets may not).
    assert!(warm.makespan_ns < fresh.makespan_ns + closed.total_ns / 2);
    assert!(warm.latency.max_ns() < fresh.latency.max_ns() + closed.total_ns / 2);
    assert_eq!(warm.queries, fresh.queries);
}

#[test]
#[should_panic(expected = "sorted non-decreasing")]
fn unsorted_arrivals_rejected() {
    let cfg = SystemConfig::pond(small_model());
    let trace = trace_for(&cfg.model.clone(), 16);
    let arrivals = vec![SimTime::from_ns(10), SimTime::from_ns(5)];
    let _ = SlsSystem::new(cfg).run_open_loop(&trace, &arrivals);
}

#[test]
#[should_panic(expected = "more queries than the trace")]
fn arrival_overrun_rejected() {
    let cfg = SystemConfig::pond(small_model());
    let trace = trace_for(&cfg.model.clone(), 16);
    let arrivals = vec![SimTime::ZERO; 17];
    let _ = SlsSystem::new(cfg).run_open_loop(&trace, &arrivals);
}

/// A 32-query stream over `rows_per_table` rows per table.
fn stream_over(model: &ModelConfig, rows_per_table: u64) -> QueryStreamSpec {
    QueryStreamSpec {
        trace: TraceSpec {
            rows_per_table,
            ..trace_spec(model, 32)
        },
        arrival: ArrivalProcess::Poisson { qps: 100_000.0 },
        arrival_seed: 77,
    }
}

#[test]
#[should_panic(expected = "stream rows exceed the model's embedding count")]
fn stream_beyond_the_row_space_rejected() {
    let cfg = SystemConfig::pifs_rec(small_model());
    let spec = stream_over(&cfg.model, 4 * cfg.model.emb_num);
    let _ = SlsSystem::new(cfg).run_open_loop_streamed(&mut spec.stream(), OpenLoopOpts::default());
}

#[test]
#[should_panic(expected = "stream rows exceed the model's embedding count")]
fn tenant_beyond_the_row_space_rejected() {
    // One tenant fits, the other does not: the mix's row space is the
    // larger of the two.
    let cfg = SystemConfig::pifs_rec(small_model());
    let tenant = |name: &str, rows| TenantSpec {
        name: name.into(),
        qos: QosClass::Batch,
        stream: stream_over(&cfg.model, rows),
    };
    let mut mix = TenantMixStream::new(vec![
        tenant("fits", cfg.model.emb_num),
        tenant("overflows", 4 * cfg.model.emb_num),
    ]);
    let _ = SlsSystem::new(cfg).run_open_loop_streamed(&mut mix, OpenLoopOpts::default());
}
