//! The `cluster_faults` scenario: resilient serving under injected
//! faults.
//!
//! [`CLUSTER_FAULTS`] holds a 4-node RMC1 cluster at fixed placement
//! (`row_hash`, Poisson arrivals) and sweeps the seeded fault schedule
//! (fail-stop, slow-down, link degradation — [`simkit::faults`]) ×
//! SLA-aware shedding × hot-row replication × offered rate, reporting
//! the three resilience curves the fault-free `cluster_qps` family
//! cannot: **p99 of the answers that did complete, availability
//! (full-coverage fraction), and mean per-query coverage**. The
//! summary turns the curves into the capacity question operators
//! actually ask — how much *stable* QPS does each fault family cost
//! against the fault-free frontier, and what does re-buying that
//! headroom cost in [`tco`] dollars.
//!
//! Comparability conventions match `cluster_qps`: trace seeded from
//! the model, arrivals from `(model, arrival, qps)` — and the fault
//! schedule from `(model, fault)` only, so every (shed, replicas, qps)
//! cell of a fault row faces the *identical* event sequence (the
//! horizon-prefix property of [`FaultSchedule::generate`] keeps
//! schedules agreeing across qps-dependent horizons). The `fault=none`
//! column is byte-identical to an un-faulted build of the same
//! workload — the zero-overhead bar the golden suite pins.
//!
//! Each point is one task through the same single routing pass as
//! `cluster_qps`: the liveness-aware router pushes into all four nodes
//! (slow-down scheduled, possibly shedding), and one merge replays the
//! degraded router merge and the exact functional plane.

use pifs_core::engine::cluster::{ClusterConfig, ShardPolicy, SlsCluster};
use pifs_core::system::SystemConfig;
use serde_json::{json, Value};
use simkit::{FaultSchedule, FaultSpec};
use tracegen::{ArrivalProcess, QueryStreamSpec};

use super::stability::{self, saturated, serving_workload, MAX_WAIT_US, P99_SLA_NS};
use crate::scenario::{workload_seed, GridScenario, ParamSpec, Point, ResultRow};
use crate::{scale_buffers, STD_BATCHES, STD_BATCH_SIZE};

/// Queries per serving run (matches the cluster family).
const SERVE_QUERIES: usize = (STD_BATCHES * STD_BATCH_SIZE) as usize;

/// Fleet size. Fixed: the resilience axes are the sweep, not scale-out
/// (that is `cluster_qps`).
const NODES: u16 = 4;

/// Deadline the SLA-aware shedder refuses work against, µs. Tighter
/// than the frontier's p99 bar ([`P99_SLA_NS`]): a query is refused
/// only when even the least-loaded host cannot *start* it inside this
/// budget, which a 25 µs end-to-end p99 run never trips — 8 µs puts
/// the trigger right at the overload knee of the swept rates.
const SLA_US: &str = "8";

/// Router-side deadline for cross-shard partials, ns. 100 µs: far
/// above the healthy merge tail, so only fault-stretched partials
/// trip it.
const PARTIAL_TIMEOUT_NS: u64 = 100_000;

/// Availability floor of the frontier: a cell must answer at least
/// this fraction of offered queries at full coverage to count as
/// stable.
const AVAILABILITY_BAR: f64 = 0.5;

/// The fault axis: the fault-free bar, three fail-stop rates (events
/// per node-second — chosen so deaths land inside the ~100 µs serving
/// window), one slow-down family and one link-degradation family.
const FAULT_AXIS: [&str; 6] = [
    "none",
    "failstop:4000",
    "failstop:16000",
    "failstop:64000",
    "slow:16000:4",
    "link:16000:8",
];

fn setup(p: &Point) -> (ClusterConfig, QueryStreamSpec) {
    let m = p.model();
    let qps = p.f64("qps");
    let fault = FaultSpec::parse(p.str("fault")).unwrap_or_else(|e| panic!("param \"fault\": {e}"));
    let process =
        ArrivalProcess::parse("poisson", qps).unwrap_or_else(|e| panic!("param \"qps\": {e}"));

    let mut node = scale_buffers(SystemConfig::pifs_rec(m.clone()));
    node.apply_knob("serving.max_wait_us", MAX_WAIT_US)
        .expect("max_wait_us knob");
    node.apply_knob("serving.shed_policy", p.str("shed"))
        .unwrap_or_else(|e| panic!("param \"shed\": {e}"));
    node.apply_knob("serving.sla_us", SLA_US)
        .expect("sla_us knob");

    // Same queries for every point of a model; same timestamps for
    // every (fault, shed, replicas) cell at a given qps; same fault
    // events for every (shed, replicas, qps) cell of a fault row.
    let (trace, arrival_seed) = serving_workload(p, &m, STD_BATCHES, None);
    let fault_seed = workload_seed(
        crate::SEED,
        &[
            p.get("model").expect("model param"),
            p.get("fault").expect("fault param"),
        ],
    );
    node.seed = trace.seed;
    let spec = QueryStreamSpec {
        trace,
        arrival: process,
        arrival_seed,
    };

    // Cover the offered window with headroom; the horizon-prefix
    // property keeps the schedule consistent across qps cells.
    let horizon_ns = (SERVE_QUERIES as f64 / qps * 1.5e9).ceil() as u64;
    let mut cfg = ClusterConfig::new(NODES, ShardPolicy::RowHash, node);
    cfg.hot_rows_per_table = p.int("replicas");
    cfg.faults = FaultSchedule::generate(fault, fault_seed, NODES, horizon_ns);
    cfg.partial_timeout_ns = Some(PARTIAL_TIMEOUT_NS);
    (cfg, spec)
}

/// Runs the point's cluster: the degraded router merge (failover,
/// sheds, timeouts, hedges), the exact functional checksum and the
/// resilience accounting.
fn run_faults_point(p: &Point) -> Value {
    let (cfg, spec) = setup(p);
    let fault_events = cfg.faults.events().len();
    let met = SlsCluster::new(cfg).run_open_loop_streamed(&mut spec.stream());
    json!({
        "offered_qps": p.f64("qps"),
        "achieved_qps": met.achieved_qps(),
        "saturated": saturated(met.last_arrival_ns, met.makespan_ns),
        "p50_ns": met.latency.percentile(0.50),
        "p99_ns": met.latency.percentile(0.99),
        "mean_ns": met.latency.mean_ns(),
        "queries": met.queries,
        "fully_served": met.fully_served,
        "degraded": met.degraded,
        "shed": met.shed,
        "lost": met.lost,
        "timeouts": met.timeouts,
        "hedges": met.hedges,
        "failovers": met.failovers,
        "availability": met.availability(),
        "mean_coverage": met.mean_coverage,
        "total_lookups": met.total_lookups,
        "served_lookups": met.served_lookups,
        "makespan_ns": met.makespan_ns,
        "mean_fanout": met.mean_fanout,
        "agg_bytes": met.agg_bytes,
        "checksum": met.checksum,
        "fault_events": fault_events,
    })
}

/// The operator headline: per fault family, the highest offered rate
/// any (shed, replicas) cell sustains — unsaturated, p99 under the
/// SLA, availability above the bar — and what re-buying the headroom
/// the fault ate costs at [`tco::SystemBom::pifs_rec`] node pricing.
fn stable_frontier(rows: &[ResultRow]) -> Value {
    let node_tco = tco::SystemBom::pifs_rec(410, 1638).tco().total_usd();
    // The fault frontier folds the *offered* rate, and its stability
    // predicate layers the SLA and availability bars on top of plain
    // saturation — expressed as stability points so the max-stable
    // reduction (and its honest null when no cell is stable) is the
    // shared one.
    let stable_qps = |fault: &str| -> Option<f64> {
        let points: Vec<stability::StabilityPoint> = rows
            .iter()
            .filter(|r| r.param("fault") == fault)
            .map(|r| {
                let offered = r.get_f64("offered_qps");
                stability::StabilityPoint {
                    stable_qps: offered,
                    offered_qps: offered,
                    p99_ns: r.get_f64("p99_ns"),
                    saturated: r.is_saturated()
                        || r.get_f64("p99_ns") > P99_SLA_NS
                        || r.get_f64("availability") < AVAILABILITY_BAR,
                }
            })
            .collect();
        stability::max_stable_qps(&points)
    };
    let baseline = stable_qps("none");
    let mut per_fault: Vec<Value> = Vec::new();
    for fault in FAULT_AXIS {
        let stable = stable_qps(fault);
        // Fleet factor to restore the fault-free frontier: extra
        // nodes bought pro rata to the stable-QPS shortfall. Null when
        // no cell of the fault row (or of the baseline) is stable.
        let (overprovision, extra_tco) = match (baseline, stable) {
            (Some(base), Some(stable)) if stable > 0.0 => {
                let f = base / stable;
                (json!(f), json!(node_tco * NODES as f64 * (f - 1.0)))
            }
            _ => (Value::Null, Value::Null),
        };
        per_fault.push(json!({
            "fault": fault,
            "max_stable_qps": stable,
            "overprovision_factor": overprovision,
            "extra_fleet_tco_usd": extra_tco,
        }));
    }
    json!(per_fault)
}

/// `cluster_faults`: resilience curves (p99 / availability / coverage
/// vs offered QPS) per fault family × shed policy × replication, with
/// the fault-tax stable-QPS frontier.
pub static CLUSTER_FAULTS: GridScenario = GridScenario {
    id: "cluster_faults",
    title: "Cluster serving under injected faults (availability, coverage, fault-tax frontier)",
    params: || {
        vec![
            ParamSpec::strs("model", ["RMC1"]),
            ParamSpec::strs("fault", FAULT_AXIS),
            ParamSpec::strs("shed", ["none", "deadline"]),
            ParamSpec::u64s("replicas", [0, 64]),
            ParamSpec::u64s("qps", [4_000_000, 16_000_000, 128_000_000]),
        ]
    },
    points: None,
    run: run_faults_point,
    summarize: |rows| {
        let mut curve_objs = serde_json::Map::new();
        for group in stability::curves(rows) {
            let (fault, shed, replicas) = (
                group[0].param("fault"),
                group[0].param("shed"),
                group[0].param("replicas"),
            );
            curve_objs.insert(
                format!("{fault}/{shed}/r{replicas}"),
                json!({
                    "offered_qps": group.iter().map(|r| r.get_f64("offered_qps")).collect::<Vec<f64>>(),
                    "p99_ns": group.iter().map(|r| r.get_f64("p99_ns")).collect::<Vec<f64>>(),
                    "availability": group.iter().map(|r| r.get_f64("availability")).collect::<Vec<f64>>(),
                    "mean_coverage": group.iter().map(|r| r.get_f64("mean_coverage")).collect::<Vec<f64>>(),
                    "shed": group.iter().map(|r| r.get_f64("shed")).collect::<Vec<f64>>(),
                    "failovers": group.iter().map(|r| r.get_f64("failovers")).collect::<Vec<f64>>(),
                }),
            );
        }
        json!({
            "queries_per_point": SERVE_QUERIES,
            "nodes": NODES,
            "p99_sla_ns": P99_SLA_NS,
            "availability_bar": AVAILABILITY_BAR,
            "partial_timeout_ns": PARTIAL_TIMEOUT_NS,
            "curves": Value::Object(curve_objs),
            "stable_qps_frontier": stable_frontier(rows),
        })
    },
    free_params: false,
    in_all: false,
};
