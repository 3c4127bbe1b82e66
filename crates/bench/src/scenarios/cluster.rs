//! The `cluster_qps` scenario: cluster-scale sharded serving.
//!
//! [`CLUSTER_QPS`] sweeps node count × placement policy × offered rate
//! through the [`SlsCluster`](pifs_core::engine::cluster::SlsCluster)
//! router (PIFS-Rec nodes), reporting the
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
//! Each point decomposes into one sub-point part per node
//! ([`PointParts`]): the per-node open-loop sims are independent given
//! the routed workload, so the sweep runner work-steals them across
//! cores, and `merge` replays the deterministic router merge from the
//! nodes' completion vectors. `ClusterPoint` holds both halves for
//! this scenario and `cluster_faults`.
//!
//! The workload is never materialized: each part re-derives the same
//! seeded [`QueryStreamSpec`] (a few dozen bytes) and streams it
//! through the router ([`run_node_parts`]), pushing only its own
//! shard's sub-bags into the node session — O(batch) memory per part
//! instead of a full per-point trace clone.

use pifs_core::engine::cluster::{
    merge_node_parts, route_stream, run_node_parts, ClusterConfig, ClusterMetrics, NodePart,
    RoutedStream, ShardPlacement, ShardPolicy,
};
use pifs_core::system::{ServingMetrics, SlsSystem, SystemConfig};
use serde_json::{json, Value};
use simkit::SimTime;
use tracegen::{ArrivalProcess, QueryStreamSpec};

use super::stability;
use crate::scenario::{workload_seed, GridScenario, ParamSpec, Point, PointParts, ResultRow};
use crate::{scale_buffers, STD_BATCHES, STD_BATCH_SIZE};

/// Queries per serving run (matches the `latency_qps` family).
const SERVE_QUERIES: usize = (STD_BATCHES * STD_BATCH_SIZE) as usize;

/// Batcher max-wait, µs (same floor as `latency_qps`).
const MAX_WAIT_US: &str = "10";

/// Saturation fraction (see `latency.rs`): achieved below this fraction
/// of the empirical offered rate marks the cluster as saturated.
const SATURATION_FRAC: f64 = 0.90;

/// The p99 SLA the capacity-planning summary answers against, ns. Set
/// at 2× the scaled-RMC1 single-node batching floor (p99 ≈ 11–12 µs at
/// light load with the 10 µs max-wait), so a cell meets the SLA only
/// while queueing delay stays comparable to the batching delay — the
/// pre-knee regime.
const P99_SLA_NS: f64 = 25_000.0;

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

/// Everything a cluster point's parts and merge share, rebuilt
/// deterministically on both sides: the cluster config, the seeded
/// stream spec (in place of a materialized workload), and the
/// row→shard placement.
pub(super) struct ClusterPoint {
    pub(super) cfg: ClusterConfig,
    pub(super) spec: QueryStreamSpec,
    pub(super) placement: ShardPlacement,
}

impl ClusterPoint {
    pub(super) fn new(cfg: ClusterConfig, spec: QueryStreamSpec) -> Self {
        let placement = ShardPlacement::build_streamed(&cfg, &spec.stream());
        ClusterPoint {
            cfg,
            spec,
            placement,
        }
    }

    /// Runs node `part` of the point: streams the shared workload
    /// through the router and pushes only this shard's routed sub-bags
    /// into a fresh node session.
    pub(super) fn run_part(&self, part: usize) -> ServingMetrics {
        let mut node = [SlsSystem::new(self.cfg.node.clone())];
        let (mut met, _) = run_node_parts(
            &self.cfg,
            &self.placement,
            &mut self.spec.stream(),
            &mut node,
            part,
        );
        met.pop().expect("one node, one part")
    }

    /// Merges the point's part values — each carrying `completions_ns`
    /// (run-relative ns, local-qid order), `makespan_ns` and, when its
    /// node sheds, `shed_qids` (local, ascending) — by re-routing the
    /// workload for the routing record and replaying the router merge.
    pub(super) fn merge(&self, parts: &[Value]) -> (ClusterMetrics, RoutedStream) {
        // Every part's values decode into two flat buffers (one
        // allocation each, whatever the node count), sliced back into
        // per-node views below.
        let mut completions: Vec<SimTime> =
            Vec::with_capacity(parts.iter().map(|v| list(v, "completions_ns").len()).sum());
        let mut sheds: Vec<u64> =
            Vec::with_capacity(parts.iter().map(|v| list(v, "shed_qids").len()).sum());
        for v in parts {
            completions.extend(
                list(v, "completions_ns")
                    .iter()
                    .map(|n| SimTime::from_ns(n.as_u64().expect("ns value"))),
            );
            sheds.extend(
                list(v, "shed_qids")
                    .iter()
                    .map(|q| q.as_u64().expect("local qid")),
            );
        }
        let (mut completions_left, mut sheds_left) = (&completions[..], &sheds[..]);
        let node_parts: Vec<NodePart<'_>> = parts
            .iter()
            .map(|v| {
                let (completion, rest) = completions_left.split_at(list(v, "completions_ns").len());
                completions_left = rest;
                let (shed_qids, rest) = sheds_left.split_at(list(v, "shed_qids").len());
                sheds_left = rest;
                NodePart {
                    completion,
                    shed_qids,
                    makespan_ns: v
                        .get("makespan_ns")
                        .and_then(Value::as_u64)
                        .expect("part carries makespan_ns"),
                }
            })
            .collect();
        let mut stream = self.spec.stream();
        let replay = stream.clone();
        let routed = route_stream(
            &self.placement,
            &self.cfg.faults,
            &mut stream,
            |_, _, _, _| {},
        );
        let met = merge_node_parts(&self.cfg, &self.placement, &replay, &routed, &node_parts);
        (met, routed)
    }
}

/// A part value's list field `key` (empty when absent).
fn list<'v>(v: &'v Value, key: &str) -> &'v [Value] {
    v.get(key)
        .and_then(Value::as_array)
        .map_or(&[], Vec::as_slice)
}

fn setup(p: &Point) -> ClusterPoint {
    let m = p.model();
    let qps = p.f64("qps");
    let arrival_spec = p.str("arrival");
    let process = ArrivalProcess::parse(arrival_spec, qps)
        .unwrap_or_else(|e| panic!("param \"arrival\": {e}"));
    let policy =
        ShardPolicy::parse(p.str("policy")).unwrap_or_else(|e| panic!("param \"policy\": {e}"));
    let nodes = u16::try_from(p.u64("nodes"))
        .unwrap_or_else(|_| panic!("param \"nodes\": more than {} shards", u16::MAX));

    let mut node = scale_buffers(SystemConfig::pifs_rec(m.clone()));
    node.apply_knob("serving.max_wait_us", MAX_WAIT_US)
        .expect("max_wait_us knob");

    // Same queries for every point of a model; same timestamps for
    // every (nodes, policy) cell at a given (arrival, qps).
    let trace_seed = workload_seed(crate::SEED, &[p.get("model").expect("model param")]);
    let arrival_seed = workload_seed(
        crate::SEED,
        &[
            p.get("model").expect("model param"),
            p.get("arrival").expect("arrival param"),
            p.get("qps").expect("qps param"),
        ],
    );
    node.seed = trace_seed;
    let spec = QueryStreamSpec {
        trace: tracegen::TraceSpec {
            distribution: crate::meta_distribution(),
            n_tables: m.n_tables,
            rows_per_table: m.emb_num,
            batch_size: STD_BATCH_SIZE,
            n_batches: STD_BATCHES,
            bag_size: m.bag_size,
            seed: trace_seed,
        },
        arrival: process,
        arrival_seed,
    };
    ClusterPoint::new(ClusterConfig::new(nodes, policy, node), spec)
}

/// Runs node `part` of the point's cluster, returning the completion
/// vector the merge keys on plus the node's accounting.
fn run_part(p: &Point, part: usize) -> Value {
    let met = setup(p).run_part(part);
    json!({
        "completions_ns": met.completion.iter().map(|t| t.as_ns()).collect::<Vec<u64>>(),
        "queries": met.queries,
        "lookups": met.run.lookups,
        "makespan_ns": met.makespan_ns,
        "service_ns": met.run.total_ns,
    })
}

/// Merges the nodes' part values into the point row: the router merge
/// over the completion vectors, the exact functional checksum and the
/// per-node accounting.
fn merge_parts(p: &Point, parts: Vec<Value>) -> Value {
    let (met, routed) = setup(p).merge(&parts);
    let qps = p.f64("qps");
    let last_arrival_ns = routed.arrivals.last().map_or(0, |t| t.as_ns());
    let saturated = (last_arrival_ns as f64) < SATURATION_FRAC * met.makespan_ns as f64;
    let node_u64 = |key: &str| -> Vec<u64> {
        parts
            .iter()
            .map(|v| v.get(key).and_then(Value::as_u64).expect("part field"))
            .collect()
    };
    json!({
        "offered_qps": qps,
        "empirical_qps": if last_arrival_ns == 0 {
            0.0
        } else {
            met.queries as f64 * 1e9 / last_arrival_ns as f64
        },
        "achieved_qps": met.achieved_qps(),
        "saturated": saturated,
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
        "node_queries": node_u64("queries"),
        "node_lookups": node_u64("lookups"),
        "node_service_ns": node_u64("service_ns"),
    })
}

/// Composes parts + merge so the plain `run` contract ("exactly what
/// the parts produce") holds by construction.
fn run_cluster_point(p: &Point) -> Value {
    let n = p.u64("nodes") as usize;
    merge_parts(p, (0..n).map(|i| run_part(p, i)).collect())
}

/// Groups rows by (policy, nodes), preserving grid order (`qps` is the
/// innermost axis, so each group is a contiguous ascending-qps chunk).
fn curves(rows: &[ResultRow]) -> Vec<((String, u64), Vec<&ResultRow>)> {
    let mut out: Vec<((String, u64), Vec<&ResultRow>)> = Vec::new();
    for row in rows {
        let key = (
            row.param("policy"),
            row.param("nodes").parse::<u64>().expect("nodes param"),
        );
        match out.last_mut() {
            Some((k, group)) if *k == key => group.push(row),
            _ => out.push((key, vec![row])),
        }
    }
    out
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
    parts: Some(PointParts {
        count: |p| p.u64("nodes") as usize,
        run: run_part,
        merge: merge_parts,
    }),
    summarize: |rows| {
        let mut curve_objs = serde_json::Map::new();
        for ((policy, nodes), group) in curves(rows) {
            let qps: Vec<f64> = group.iter().map(|r| r.get_f64("offered_qps")).collect();
            let p99: Vec<f64> = group.iter().map(|r| r.get_f64("p99_ns")).collect();
            let achieved: Vec<f64> = group.iter().map(|r| r.get_f64("achieved_qps")).collect();
            let (knee, max_stable) = stability::stability_json(&stability::serving_points(&group));
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
