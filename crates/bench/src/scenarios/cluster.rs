//! The `cluster_qps` scenario: cluster-scale sharded serving.
//!
//! [`CLUSTER_QPS`] sweeps node count × placement policy × offered rate
//! through the [`SlsCluster`] router (PIFS-Rec nodes), reporting the
//! per-cluster tail-latency curve and answering the capacity-planning
//! question the single-node `latency_qps` family cannot: **how many
//! PIFS nodes does a target QPS need to stay under a p99 SLA**, and
//! what does that fleet cost per million users ([`tco`] capex/opex
//! model).
//!
//! Comparability conventions match `latency_qps`: the trace is seeded
//! from the model only and the arrival stream from `(model, arrival,
//! qps)`, so points differing in nodes or policy serve the *identical*
//! workload. The merged functional checksum is computed on the exact
//! f64 plane ([`pifs_core::engine::cluster`]) and is therefore
//! bit-identical across every (nodes, policy) cell of a qps column —
//! the shard-invariance suite pins this.
//!
//! Each point is one task that walks its workload once
//! ([`SlsCluster::run_open_loop_streamed`]): one placement build, one
//! pass over the seeded [`QueryStreamSpec`] (a few dozen bytes — the
//! workload is never materialized) pushing every shard's sub-bags into
//! its node and summing each participation's exact checksum partial
//! from the served rows' integer mantissas, and one merge that adds
//! those scalars — the stream is never replayed. The 32-point grid
//! keeps every core busy without splitting a point's nodes across
//! threads.

use pifs_core::engine::cluster::{ClusterConfig, ShardPolicy, SlsCluster};
use pifs_core::system::{ServingMetrics, SystemConfig};
use serde_json::{json, Value};
use tracegen::{ArrivalProcess, QueryStreamSpec};

use super::stability::{self, empirical_qps, saturated, serving_workload, MAX_WAIT_US, P99_SLA_NS};
use crate::scenario::{GridScenario, ParamSpec, Point, ResultRow};
use crate::{scale_buffers, STD_BATCHES, STD_BATCH_SIZE};

/// Queries per serving run (matches the `latency_qps` family).
const SERVE_QUERIES: usize = (STD_BATCHES * STD_BATCH_SIZE) as usize;

/// Queries per second one active user generates (feed refreshes ×
/// candidates ranked); used only to convert fleet TCO into the
/// cost-per-million-users headline, so the absolute value shifts the
/// curve without reordering the policies.
const QUERIES_PER_SEC_PER_USER: f64 = 20.0;

/// The offered-load axis, cluster-wide queries per second. Spans the
/// single-node floor (2 M), the single-node knee (≈16 M on scaled
/// RMC1), and rates only multi-node fleets can absorb (32 M, 128 M).
fn qps_axis() -> ParamSpec {
    ParamSpec::u64s("qps", [2_000_000, 8_000_000, 32_000_000, 128_000_000])
}

fn setup(p: &Point) -> (ClusterConfig, QueryStreamSpec) {
    let m = p.model();
    let qps = p.f64("qps");
    let arrival_spec = p.str("arrival");
    let process = ArrivalProcess::parse(arrival_spec, qps)
        .unwrap_or_else(|e| panic!("param \"arrival\": {e}"));
    let policy =
        ShardPolicy::parse(p.str("policy")).unwrap_or_else(|e| panic!("param \"policy\": {e}"));
    let nodes: u16 = p.int("nodes");

    let mut node = scale_buffers(SystemConfig::pifs_rec(m.clone()));
    node.apply_knob("serving.max_wait_us", MAX_WAIT_US)
        .expect("max_wait_us knob");

    // Same queries for every point of a model; same timestamps for
    // every (nodes, policy) cell at a given (arrival, qps).
    let (trace, arrival_seed) = serving_workload(p, &m, STD_BATCHES, Some("arrival"));
    let spec = QueryStreamSpec {
        trace,
        arrival: process,
        arrival_seed,
    };
    (ClusterConfig::new(nodes, policy, node), spec)
}

/// Runs the point's cluster: the router merge of the nodes'
/// completions, the exact functional checksum and the per-node
/// accounting.
fn run_cluster_point(p: &Point) -> Value {
    let (cfg, spec) = setup(p);
    let met = SlsCluster::new(cfg).run_open_loop_streamed(&mut spec.stream());
    let node_u64 = |f: fn(&ServingMetrics) -> u64| met.per_node.iter().map(f).collect::<Vec<u64>>();
    json!({
        "offered_qps": p.f64("qps"),
        "empirical_qps": empirical_qps(met.queries, met.last_arrival_ns),
        "achieved_qps": met.achieved_qps(),
        "saturated": saturated(met.last_arrival_ns, met.makespan_ns),
        "p50_ns": met.latency.percentile(0.50),
        "p95_ns": met.latency.percentile(0.95),
        "p99_ns": met.latency.percentile(0.99),
        "max_ns": met.latency.max_ns(),
        "mean_ns": met.latency.mean_ns(),
        "queries": met.queries,
        "makespan_ns": met.makespan_ns,
        "mean_fanout": met.mean_fanout,
        "agg_bytes": met.agg_bytes,
        "checksum": met.checksum,
        "node_queries": node_u64(|n| n.queries),
        "node_lookups": node_u64(|n| n.run.lookups),
        "node_service_ns": node_u64(|n| n.run.total_ns),
    })
}

/// The capacity-planning answer: for each offered rate, per policy, the
/// smallest fleet whose run is unsaturated *and* meets the p99 SLA —
/// plus what that fleet costs ([`tco::SystemBom::pifs_rec`], the
/// paper's §VII worked configuration) per million active users.
fn nodes_needed(rows: &[ResultRow]) -> Value {
    let node_tco = tco::SystemBom::pifs_rec(410, 1638).tco().total_usd();
    let mut per_qps: Vec<Value> = Vec::new();
    let mut qps_values: Vec<u64> = Vec::new();
    for row in rows {
        let q = row.param("qps").parse::<u64>().expect("qps param");
        if !qps_values.contains(&q) {
            qps_values.push(q);
        }
    }
    for &q in &qps_values {
        let mut policies = serde_json::Map::new();
        for policy in ["row_hash", "table_partition"] {
            let winner = rows
                .iter()
                .filter(|r| {
                    r.param("policy") == policy
                        && r.param("qps").parse::<u64>() == Ok(q)
                        && !r.is_saturated()
                        && r.get_f64("p99_ns") <= P99_SLA_NS
                })
                .map(|r| r.param("nodes").parse::<u64>().expect("nodes param"))
                .min();
            let users_m = q as f64 / QUERIES_PER_SEC_PER_USER / 1e6;
            policies.insert(
                policy.to_string(),
                match winner {
                    Some(n) => json!({
                        "nodes": n,
                        "fleet_tco_usd": node_tco * n as f64,
                        "usd_per_million_users": if users_m > 0.0 {
                            node_tco * n as f64 / users_m
                        } else {
                            0.0
                        },
                    }),
                    None => json!(null),
                },
            );
        }
        per_qps.push(json!({
            "offered_qps": q,
            "policies": Value::Object(policies),
        }));
    }
    json!(per_qps)
}

/// `cluster_qps`: sharded-cluster tail latency vs offered QPS, per
/// (placement policy, node count), with the nodes-for-QPS-at-SLA and
/// cost-per-million-users capacity summary.
pub static CLUSTER_QPS: GridScenario = GridScenario {
    id: "cluster_qps",
    title: "Sharded cluster tail latency vs offered QPS (nodes x placement policy; serving mode)",
    params: || {
        vec![
            ParamSpec::strs("model", ["RMC1"]),
            ParamSpec::strs("policy", ["row_hash", "table_partition"]),
            ParamSpec::u64s("nodes", [1, 2, 4, 8]),
            ParamSpec::strs("arrival", ["poisson"]),
            qps_axis(),
        ]
    },
    points: None,
    run: run_cluster_point,
    summarize: |rows| {
        let mut curve_objs = serde_json::Map::new();
        for group in stability::curves(rows) {
            let (policy, nodes) = (group[0].param("policy"), group[0].param("nodes"));
            let qps: Vec<f64> = group.iter().map(|r| r.get_f64("offered_qps")).collect();
            let p99: Vec<f64> = group.iter().map(|r| r.get_f64("p99_ns")).collect();
            let achieved: Vec<f64> = group.iter().map(|r| r.get_f64("achieved_qps")).collect();
            let (knee, max_stable) = stability::stability_json(&stability::serving_points(group));
            curve_objs.insert(
                format!("{policy}/n{nodes}"),
                json!({
                    "offered_qps": qps,
                    "achieved_qps": achieved,
                    "p99_ns": p99,
                    "knee_qps": knee,
                    "max_stable_qps": max_stable,
                    "mean_fanout": group.iter().map(|r| r.get_f64("mean_fanout")).collect::<Vec<f64>>(),
                }),
            );
        }
        json!({
            "queries_per_point": SERVE_QUERIES,
            "p99_sla_ns": P99_SLA_NS,
            "queries_per_sec_per_user": QUERIES_PER_SEC_PER_USER,
            "curves": Value::Object(curve_objs),
            "nodes_for_qps_at_sla": nodes_needed(rows),
        })
    },
    free_params: false,
    in_all: false,
};
