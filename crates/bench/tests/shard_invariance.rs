//! The shard-invariance differential suite: sharding is an
//! implementation detail the results must not see.
//!
//! On the same scaled-RMC1 open-loop workload the `latency_qps` debug
//! subset replays (seeded trace, Poisson arrivals at one pre-knee and
//! one post-knee rate):
//!
//! * a **1-shard cluster is byte-identical to plain
//!   [`run_open_loop`](SlsSystem::run_open_loop)** — same latency
//!   histogram, same makespan, same per-node run metrics, zero
//!   aggregation traffic;
//! * **k ∈ {2, 4, 8} shards produce bit-identical merged embeddings and
//!   per-query checksums** under both placement policies — the exact
//!   f64 merge plane (see `pifs_core::engine::cluster`) makes the
//!   partial-sum merge associative, so the shard partition cannot
//!   perturb a single mantissa bit;
//! * the cluster scenario's rows are **byte-identical at 1 and 4 runner
//!   threads**, where 4 threads simulate different shards of one point
//!   concurrently (the acceptance gate: "the shard-invariance suite
//!   passes at 1 and 4 threads").

use dlrm::EmbeddingTable;
use pifs_bench::runner::SweepRunner;
use pifs_bench::scenario::{find, workload_seed, ParamValue, Point};
use pifs_bench::{meta_distribution, scale_buffers, SEED, STD_BATCHES, STD_BATCH_SIZE};
use pifs_core::engine::cluster::{
    functional_tables, merged_bag_embedding_at, ClusterConfig, ShardPlacement, ShardPolicy,
    SlsCluster,
};
use pifs_core::engine::serving::TraceArrivals;
use pifs_core::system::{SlsSystem, SystemConfig};
use simkit::{FaultSchedule, SimTime};
use tracegen::{ArrivalProcess, Trace};

const SERVE_QUERIES: usize = (STD_BATCHES * STD_BATCH_SIZE) as usize;
const POLICIES: [ShardPolicy; 2] = [ShardPolicy::RowHash, ShardPolicy::TablePartition];

/// The `latency_qps` workload construction, verbatim: trace seeded from
/// the model, arrivals from `(model, arrival, qps)`.
fn workload(qps: u64) -> (SystemConfig, Trace, Vec<SimTime>) {
    let m = pifs_bench::scaled(dlrm::ModelConfig::rmc1());
    let mut cfg = scale_buffers(SystemConfig::pifs_rec(m.clone()));
    cfg.apply_knob("serving.max_wait_us", "10").expect("knob");
    let model_param = ParamValue::Str("RMC1".into());
    let trace_seed = workload_seed(SEED, &[&model_param]);
    let trace = tracegen::TraceSpec {
        distribution: meta_distribution(),
        n_tables: m.n_tables,
        rows_per_table: m.emb_num,
        batch_size: STD_BATCH_SIZE,
        n_batches: STD_BATCHES,
        bag_size: m.bag_size,
        seed: trace_seed,
    }
    .generate();
    let arrival_seed = workload_seed(
        SEED,
        &[
            &model_param,
            &ParamValue::Str("poisson".into()),
            &ParamValue::U64(qps),
        ],
    );
    let arrivals = ArrivalProcess::Poisson { qps: qps as f64 }.times(SERVE_QUERIES, arrival_seed);
    (cfg, trace, arrivals)
}

/// The fault-free merged embedding of one bag under `placement`.
fn merged(placement: &ShardPlacement, table: &EmbeddingTable, t: u32, bag: &[u64]) -> Vec<f64> {
    let none = FaultSchedule::none(placement.n_shards());
    merged_bag_embedding_at(placement, &none, SimTime::ZERO, &[], table, t, bag)
}

/// Each of the first `n` trace queries' merged embeddings summed over
/// tables and elements: the exact per-query checksums.
fn exact_query_checksums(
    placement: &ShardPlacement,
    tables: &[EmbeddingTable],
    trace: &Trace,
    n: usize,
) -> Vec<f64> {
    let bs = trace.batch_size as usize;
    (0..n)
        .map(|q| {
            tables
                .iter()
                .enumerate()
                .map(|(t, table)| {
                    let bag = trace.bag(q / bs, t as u32, (q % bs) as u32);
                    merged(placement, table, t as u32, bag).iter().sum::<f64>()
                })
                .sum()
        })
        .collect()
}

/// One pre-knee and one post-knee rate (the single-node knee sits at
/// ≈16 M QPS on the scaled RMC1 workload).
const RATES: [u64; 2] = [8_000_000, 32_000_000];

#[test]
fn one_shard_cluster_is_byte_identical_to_the_node() {
    for qps in RATES {
        let (cfg, trace, arrivals) = workload(qps);
        let plain = SlsSystem::new(cfg.clone()).run_open_loop(&trace, &arrivals);
        for policy in POLICIES {
            let m = SlsCluster::new(ClusterConfig::new(1, policy, cfg.clone()))
                .run_open_loop(&trace, &arrivals);
            assert_eq!(m.latency, plain.latency, "{policy:?} @ {qps}");
            assert_eq!(m.makespan_ns, plain.makespan_ns, "{policy:?} @ {qps}");
            assert_eq!(m.agg_bytes, 0);
            assert_eq!(
                m.per_node[0].run.checksum.to_bits(),
                plain.run.checksum.to_bits()
            );
            assert_eq!(m.per_node[0].run.lookups, plain.run.lookups);
            assert_eq!(m.per_node[0].run.total_ns, plain.run.total_ns);
        }
    }
}

#[test]
fn sharded_merges_are_bit_identical_for_every_shard_count() {
    let (cfg, trace, arrivals) = workload(RATES[0]);
    let tables = functional_tables(&cfg.model);
    // The unsharded reference: k = 1 (== the whole-bag exact sum).
    let reference = exact_query_checksums(
        &ShardPlacement::from_dims(1, trace.n_tables, ShardPolicy::RowHash),
        &tables,
        &trace,
        arrivals.len(),
    );
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    for policy in POLICIES {
        for k in [2u16, 4, 8] {
            let cluster_cfg = ClusterConfig::new(k, policy, cfg.clone());
            let placement = ShardPlacement::build_streamed(
                &cluster_cfg,
                &TraceArrivals::new(&trace, &arrivals),
            );
            // Per-query checksums, bit for bit.
            let got = exact_query_checksums(&placement, &tables, &trace, arrivals.len());
            assert_eq!(
                bits(&got),
                bits(&reference),
                "{policy:?} k={k}: per-query checksums drifted"
            );
            // And the full merged embeddings of the first batch, element
            // by element, against the exact whole-bag reference.
            for sample in 0..trace.batch_size {
                for (t, table) in tables.iter().enumerate() {
                    let bag = trace.bag(0, t as u32, sample);
                    let got = merged(&placement, table, t as u32, bag);
                    let whole = dlrm::sls::sls_reference_exact(table, bag, None);
                    assert_eq!(
                        bits(&got),
                        bits(&whole),
                        "{policy:?} k={k}: embedding drifted (table {t}, sample {sample})"
                    );
                }
            }
            // End-to-end: the full cluster run reports the same exact
            // checksums it would report unsharded.
            let met = SlsCluster::new(cluster_cfg).run_open_loop(&trace, &arrivals);
            assert_eq!(bits(&met.query_checksums), bits(&reference));
        }
    }
}

#[test]
fn cluster_scenario_rows_are_identical_at_1_and_4_threads() {
    // The same four golden-subset points, through the sweep runner at 1
    // and 4 workers — identical bytes either way.
    let scenario = find("cluster_qps").expect("cluster_qps registered");
    let all = scenario.points();
    let subset = |_: ()| {
        [1usize, 14, 17, 30]
            .iter()
            .map(|&i| Point::new(all[i].index, all[i].seed, all[i].params().to_vec()))
            .collect::<Vec<Point>>()
    };
    let serial = SweepRunner::new(1).run_points(scenario, subset(()));
    let parallel = SweepRunner::new(4).run_points(scenario, subset(()));
    let jsonl = |rows: &[pifs_bench::scenario::ResultRow]| {
        rows.iter().map(|r| r.to_jsonl()).collect::<Vec<_>>()
    };
    assert_eq!(jsonl(&serial), jsonl(&parallel));
}
