//! The open-loop `latency` scenario family: tail latency under load.
//!
//! Every other scenario is closed-loop — it reports how long a fixed
//! bag grid takes. This family instead timestamps queries from an
//! arrival process ([`tracegen::arrival`]) and streams them through the
//! [`run_open_loop_streamed`](pifs_core::system::SlsSystem::run_open_loop_streamed)
//! batcher, reporting streaming p50/p95/p99 latency:
//!
//! * [`LATENCY_QPS`] (`latency_qps`) — the latency-vs-QPS curve per
//!   scheme, with saturation-knee detection in the summary: p99 stays
//!   on the batching floor while the engine keeps up, then climbs as
//!   the offered rate crosses the scheme's service capacity;
//! * [`LATENCY_WAIT`] (`latency_wait`) — the batcher-knob tradeoff
//!   (batch size × max wait) for PIFS-Rec at a fixed offered rate.
//!
//! Comparability conventions: the trace (which queries are asked) is
//! seeded from the model only, and the arrival stream (when they are
//! asked) from `(model, arrival, qps)` — so points differing in scheme
//! or batcher knobs serve the *identical* workload, and the per-scheme
//! curves differ only in how the engine absorbs it.
//!
//! [`tracegen::arrival`]: ../../../tracegen/arrival/index.html

use pifs_core::system::{OpenLoopOpts, SlsSystem};
use serde_json::{json, Value};
use tracegen::{ArrivalProcess, QueryStreamSpec};

use super::stability::{self, empirical_qps, saturated, serving_workload, MAX_WAIT_US};
use crate::scenario::{GridScenario, ParamSpec, ResultRow};
use crate::{scale_buffers, STD_BATCHES, STD_BATCH_SIZE};

/// Queries per serving run (the standard closed-loop sample count, so
/// runtimes match the fig12 grids).
const SERVE_QUERIES: usize = (STD_BATCHES * STD_BATCH_SIZE) as usize;

/// The offered-load axis, queries per second. Spans the batching floor
/// (0.25 M), every scheme's saturation knee (3–15 M), and deep
/// overload (32 M) on the scaled RMC1 workload.
fn qps_axis() -> ParamSpec {
    ParamSpec::u64s(
        "qps",
        [
            250_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000, 16_000_000, 32_000_000,
        ],
    )
}

/// Runs one open-loop point: build the scheme config, apply batcher
/// knobs, stream the seeded queries at the seeded arrival instants.
fn run_serving_point(p: &crate::scenario::Point) -> Value {
    let m = p.model();
    let qps = p.f64("qps");
    let arrival_spec = p.str("arrival");
    let process = ArrivalProcess::parse(arrival_spec, qps)
        .unwrap_or_else(|e| panic!("param \"arrival\": {e}"));

    let mut cfg = scale_buffers(p.scheme().config(m.clone()));
    cfg.apply_knob(
        "serving.max_wait_us",
        &p.get("max_wait_us")
            .map_or_else(|| MAX_WAIT_US.to_string(), |v| v.to_string()),
    )
    .expect("max_wait_us knob");
    if let Some(v) = p.get("batch_size") {
        cfg.apply_knob("serving.batch_size", &v.to_string())
            .expect("batch_size knob");
    }

    // Same queries for every point of a model; same timestamps for
    // every scheme/knob at a given (arrival, qps).
    let (trace, arrival_seed) = serving_workload(p, &m, STD_BATCHES, Some("arrival"));
    cfg.seed = trace.seed;
    let spec = QueryStreamSpec {
        trace,
        arrival: process,
        arrival_seed,
    };
    let met = SlsSystem::new(cfg).run_open_loop_streamed(
        &mut spec.stream(),
        OpenLoopOpts {
            record_completion: false,
            window_ns: None,
        },
    );
    json!({
        "offered_qps": qps,
        "empirical_qps": empirical_qps(met.queries, met.last_arrival_ns),
        "achieved_qps": met.achieved_qps(),
        "saturated": saturated(met.last_arrival_ns, met.makespan_ns),
        "p50_ns": met.latency.percentile(0.50),
        "p95_ns": met.latency.percentile(0.95),
        "p99_ns": met.latency.percentile(0.99),
        "max_ns": met.latency.max_ns(),
        "mean_ns": met.latency.mean_ns(),
        "mean_wait_ns": met.wait.mean_ns(),
        "queries": met.queries,
        "batches": met.batches,
        "mean_batch_fill": met.mean_batch_fill,
        "makespan_ns": met.makespan_ns,
        "checksum": met.run.checksum,
    })
}

/// Summarizes one group of rows (ascending qps) into a curve object
/// with knee detection: the knee is the first offered rate whose row is
/// flagged `saturated` (arrival span under
/// [`SATURATION_FRAC`](stability::SATURATION_FRAC) of the makespan —
/// see that constant) or whose p99 exceeds twice the
/// lowest-load p99, whichever the sweep hits first. Degenerate groups
/// (single-point or fully saturated sweeps) report honest `null`s —
/// see [`stability`].
fn curve_json(group: &[ResultRow]) -> Value {
    let qps: Vec<f64> = group.iter().map(|r| r.get_f64("offered_qps")).collect();
    let achieved: Vec<f64> = group.iter().map(|r| r.get_f64("achieved_qps")).collect();
    let p50: Vec<f64> = group.iter().map(|r| r.get_f64("p50_ns")).collect();
    let p99: Vec<f64> = group.iter().map(|r| r.get_f64("p99_ns")).collect();
    let (knee, max_stable) = stability::stability_json(&stability::serving_points(group));
    json!({
        "offered_qps": qps,
        "achieved_qps": achieved,
        "p50_ns": p50,
        "p99_ns": p99,
        "knee_qps": knee,
        "max_stable_qps": max_stable,
    })
}

/// `latency_qps`: the latency-vs-QPS curve per scheme.
pub static LATENCY_QPS: GridScenario = GridScenario {
    id: "latency_qps",
    title: "Open-loop tail latency vs offered QPS per scheme (serving mode; knee = saturation)",
    params: || {
        vec![
            ParamSpec::strs("model", ["RMC1"]),
            ParamSpec::schemes(),
            ParamSpec::strs("arrival", ["poisson"]),
            qps_axis(),
        ]
    },
    points: None,
    run: run_serving_point,
    summarize: |rows| {
        let mut schemes = serde_json::Map::new();
        for group in stability::curves(rows) {
            schemes.insert(group[0].param("scheme"), curve_json(group));
        }
        json!({ "queries_per_point": SERVE_QUERIES, "schemes": Value::Object(schemes) })
    },
    free_params: false,
    in_all: false,
};

/// `latency_wait`: batch-size × max-wait batcher tradeoff at a fixed
/// offered rate (PIFS-Rec).
pub static LATENCY_WAIT: GridScenario = GridScenario {
    id: "latency_wait",
    title: "Batcher knob tradeoff: batch size x max wait at fixed load (PIFS-Rec, serving mode)",
    params: || {
        vec![
            ParamSpec::strs("model", ["RMC1"]),
            ParamSpec::strs("scheme", ["PIFS-Rec"]),
            ParamSpec::strs("arrival", ["poisson"]),
            ParamSpec::u64s("qps", [4_000_000]),
            ParamSpec::u64s("batch_size", [8, 16, 32, 64]),
            ParamSpec::u64s("max_wait_us", [2, 10, 50]),
        ]
    },
    points: None,
    run: run_serving_point,
    summarize: |rows| {
        let table: Vec<Value> = rows
            .iter()
            .map(|r| {
                json!({
                    "batch_size": r.params.iter().find(|(n, _)| n == "batch_size")
                        .map(|(_, v)| v.to_string()),
                    "max_wait_us": r.params.iter().find(|(n, _)| n == "max_wait_us")
                        .map(|(_, v)| v.to_string()),
                    "p50_ns": r.get_f64("p50_ns"),
                    "p99_ns": r.get_f64("p99_ns"),
                    "mean_wait_ns": r.get_f64("mean_wait_ns"),
                    "mean_batch_fill": r.get_f64("mean_batch_fill"),
                    "saturated": r.data.get("saturated"),
                })
            })
            .collect();
        let best = rows
            .iter()
            .filter(|r| r.data.get("saturated").and_then(Value::as_bool) == Some(false))
            .min_by(|a, b| {
                a.get_f64("p99_ns")
                    .partial_cmp(&b.get_f64("p99_ns"))
                    .expect("finite p99")
            })
            .map(ResultRow::params_json);
        json!({ "rows": table, "best_stable_p99": best })
    },
    free_params: false,
    in_all: false,
};
