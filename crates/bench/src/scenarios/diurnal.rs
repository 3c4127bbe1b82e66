//! The `latency_diurnal` scenario: a long diurnal serving time series,
//! streamed end to end with checkpoint warm-starts.
//!
//! Where the `latency` family asks "what does the tail look like at a
//! fixed offered rate", [`LATENCY_DIURNAL`] asks "what does a whole
//! traffic cycle look like": a sinusoidally modulated arrival process
//! ([`tracegen::arrival`]'s `Diurnal`) served for up to a minute of
//! simulated time, reported as arrival-windowed per-second summaries
//! ([`pifs_core::system::WindowSummary`]) — the per-window query count
//! traces the diurnal swing while the batcher floor pins the latency
//! series.
//!
//! Two properties of the streaming serving path make this scenario
//! possible at all, and it exists partly to exercise them end to end:
//!
//! * **Bounded memory** — the workload is never materialized. Each
//!   point streams a seeded [`QueryStreamSpec`] through
//!   [`run_open_loop_streamed`](pifs_core::system::SlsSystem::run_open_loop_streamed)-style
//!   push sessions with completion recording off, so a minute of
//!   traffic costs O(batch) heap, not O(trace)
//!   (`pifs-core/tests/alloc_bounded.rs` is the guard).
//! * **Checkpoint warm-starts** — the `duration_s` axis shares one
//!   workload prefix: every point pushes the first `qps × duration`
//!   queries of the *same* stream. A point therefore resumes from the
//!   deepest [`SimCheckpoint`] any shorter point left in the
//!   process-wide cache instead of replaying from zero. Because resume
//!   is state-identical to straight-through execution (pinned at every
//!   query boundary by `pifs-core/tests/streaming_equivalence.rs`),
//!   warm-starting is invisible in the output: rows are byte-identical
//!   whatever subset of points ran before, in whatever order, on
//!   however many runner threads — which is exactly what the golden
//!   snapshot and thread-independence tests assert.
//!
//! Comparability conventions match the family: trace seeded from the
//! model only, arrivals from `(model, arrival, qps)`.
//!
//! [`tracegen::arrival`]: ../../../tracegen/arrival/index.html

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use pifs_core::engine::checkpoint;
use pifs_core::system::{OpenLoopOpts, SlsSystem};
use pifs_core::SimCheckpoint;
use serde_json::{json, Value};
use tracegen::{ArrivalProcess, QueryStream, QueryStreamSpec};

use super::stability::{arrivals, serving_workload, MAX_QPS, MAX_WAIT_US};
use crate::scenario::{GridScenario, ParamSpec, Point, ResultRow};
use crate::{scale_buffers, STD_BATCH_SIZE};

/// Arrival-window width for the per-second latency series, ns.
const WINDOW_NS: u64 = 1_000_000_000;

/// The longest point of the duration axis, seconds of simulated
/// traffic. The shared stream is sized for this, so every shorter
/// point is a strict prefix of it (the warm-start invariant).
pub const MAX_DURATION_S: u64 = 60;

/// Process-wide warm-start cache: deepest checkpoint per workload
/// (every point parameter except `duration_s`). Purely an accelerator —
/// see the module docs for why hits and misses are indistinguishable in
/// the output.
fn cache() -> &'static Mutex<HashMap<String, SimCheckpoint>> {
    static CACHE: OnceLock<Mutex<HashMap<String, SimCheckpoint>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The workload identity a checkpoint is valid for: every parameter
/// that shapes the system or the stream — i.e. all of them but the
/// prefix length.
fn workload_key(p: &Point) -> String {
    p.params()
        .iter()
        .filter(|(n, _)| n != "duration_s")
        .map(|(n, v)| format!("{n}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Runs one diurnal point: resume the deepest cached prefix (or start
/// cold), stream queries up to `qps × duration_s`, leave a checkpoint
/// for longer points, and finish the session.
fn run_diurnal_point(p: &Point) -> Value {
    let m = p.model();
    let qps = p.f64("qps");
    let duration_s = p.u64("duration_s");
    let process = ArrivalProcess::parse(p.str("arrival"), qps).expect("checked at grid time");

    let mut cfg = scale_buffers(p.scheme().config(m.clone()));
    cfg.apply_knob("serving.max_wait_us", MAX_WAIT_US)
        .expect("max_wait_us knob");

    // One stream recipe per workload, sized for the longest duration;
    // this point serves the first `n_push` queries of it.
    let max_queries = (qps as u64) * MAX_DURATION_S;
    let n_push = (qps as u64) * duration_s;
    let n_batches = max_queries.div_ceil(STD_BATCH_SIZE as u64) as u32;
    let (trace, arrival_seed) = serving_workload(p, &m, n_batches, Some("arrival"));
    let spec = QueryStreamSpec {
        trace,
        arrival: process,
        arrival_seed,
    };
    let opts = OpenLoopOpts {
        record_completion: false, // O(batch) memory over a minute of traffic
        window_ns: Some(WINDOW_NS),
    };

    let key = workload_key(p);
    let warm: Option<(SlsSystem, QueryStream)> = cache()
        .lock()
        .expect("warm-start cache")
        .get(&key)
        .filter(|c| c.position() <= n_push)
        .map(SimCheckpoint::resume);
    let (mut sys, mut stream) = warm.unwrap_or_else(|| {
        let mut sys = SlsSystem::new(cfg.clone());
        sys.open_loop_begin(spec.trace.n_tables, opts);
        (sys, spec.stream())
    });

    let remaining = n_push - stream.position();
    checkpoint::advance(&mut sys, &mut stream, remaining);

    // Leave the deepest prefix behind for longer points of this
    // workload (finish() below drains the batcher, so capture first).
    {
        let mut g = cache().lock().expect("warm-start cache");
        if g.get(&key).is_none_or(|c| c.position() < n_push) {
            g.insert(key, SimCheckpoint::capture(&sys, &stream));
        }
    }

    let met = sys.open_loop_finish();
    assert_eq!(met.queries, n_push);
    let windows = json!({
        "start_ns": met.windows.iter().map(|w| w.start_ns).collect::<Vec<u64>>(),
        "count": met.windows.iter().map(|w| w.count).collect::<Vec<u64>>(),
        "p50_ns": met.windows.iter().map(|w| w.p50_ns).collect::<Vec<u64>>(),
        "p99_ns": met.windows.iter().map(|w| w.p99_ns).collect::<Vec<u64>>(),
    });
    json!({
        "offered_qps": qps,
        "duration_s": duration_s,
        "queries": met.queries,
        "batches": met.batches,
        "makespan_ns": met.makespan_ns,
        "simulated_s": met.makespan_ns as f64 / 1e9,
        "p50_ns": met.latency.percentile(0.50),
        "p95_ns": met.latency.percentile(0.95),
        "p99_ns": met.latency.percentile(0.99),
        "max_ns": met.latency.max_ns(),
        "mean_ns": met.latency.mean_ns(),
        "mean_wait_ns": met.wait.mean_ns(),
        "mean_batch_fill": met.mean_batch_fill,
        "checksum": met.run.checksum,
        "windows": windows,
    })
}

fn get_u64s(row: &ResultRow, outer: &str, key: &str) -> Vec<u64> {
    row.data
        .get(outer)
        .and_then(|w| w.get(key))
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("row carries {outer}.{key}"))
        .iter()
        .map(|v| v.as_u64().expect("u64 series value"))
        .collect()
}

/// `latency_diurnal`: a minute of diurnally modulated traffic served as
/// a stream, reported as a per-second windowed time series, with the
/// duration axis warm-started from shared-prefix checkpoints.
pub static LATENCY_DIURNAL: GridScenario = GridScenario {
    id: "latency_diurnal",
    title: "Diurnal long-trace serving time series (streamed, checkpoint warm-started durations)",
    params: || {
        vec![
            ParamSpec::model(["RMC1"]),
            ParamSpec::scheme(["PIFS-Rec"]),
            arrivals(["diurnal:0.9:20"]),
            // Whole queries per second: each point pushes qps × duration.
            ParamSpec::ints::<1, MAX_QPS>("qps", [500]),
            ParamSpec::ints::<0, MAX_DURATION_S>("duration_s", [15, 30, 60]),
        ]
    },
    points: None,
    run: run_diurnal_point,
    summarize: |rows| {
        // The headline: the longest run's per-window count series
        // traces the diurnal swing. Peak/trough over interior windows
        // (the edge windows are phase-clipped).
        let longest = rows
            .iter()
            .max_by_key(|r| {
                r.data
                    .get("duration_s")
                    .and_then(Value::as_u64)
                    .expect("row carries duration_s")
            })
            .expect("at least one row");
        let counts = get_u64s(longest, "windows", "count");
        let interior = &counts[1..counts.len().saturating_sub(1).max(1)];
        let peak = interior.iter().copied().max().unwrap_or(0);
        let trough = interior.iter().copied().min().unwrap_or(0);
        let per_row: Vec<Value> = rows
            .iter()
            .map(|r| {
                let get = |k: &str| r.data.get(k).cloned().unwrap_or(Value::Null);
                json!({
                    "duration_s": get("duration_s"),
                    "queries": get("queries"),
                    "simulated_s": get("simulated_s"),
                    "n_windows": get_u64s(r, "windows", "count").len(),
                    "p99_ns": get("p99_ns"),
                    "checksum": get("checksum"),
                })
            })
            .collect();
        let swing = json!({
            "peak_window_count": peak,
            "trough_window_count": trough,
            "modulation_ratio": if trough > 0 { peak as f64 / trough as f64 } else { 0.0 },
        });
        json!({
            "window_ns": WINDOW_NS,
            "rows": per_row,
            "diurnal_swing": swing,
        })
    },
    free_params: false,
    in_all: false,
};
