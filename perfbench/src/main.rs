//! `perfbench` — one pass of the simulator benchmark in a fresh process.
//!
//! ```text
//! perfbench pass --workload <w> --seed <n> --root <checkout> [--trace]
//! perfbench setup --workload <w> --seed <n>
//! perfbench paper-err
//! perfbench calibrate --rounds <n>
//! perfbench rows --workload <w> --out <dir>
//! ```
//!
//! `pass` enumerates the workload's scenario grids, warms the
//! process-wide `dlrm` row store for the workload's scaled Table I models
//! (set-up), then runs every grid point through `Scenario::run_part`/
//! `merge_parts` and every scenario's `summarize` on this one thread
//! (the timed grid). The seed only fixes the order the workload's
//! scenarios run in; the grids themselves use the repository's pinned
//! workload seed, so every row can be byte-compared against a pinned
//! row. With `--trace` each point is additionally replayed through the
//! layers' public calls (see `replay.rs`) with a span per call.
//! The result is one JSON object on the last line of standard output;
//! `run.py` runs passes, checks their counters and reports the metrics.
//!
//! `setup` runs set-up alone and prints its time; `paper-err` prints the
//! fig12a paper error alone; `calibrate` times rounds of a fixed kernel
//! that measures the host's speed (see `calib.rs`); `rows` writes the rows
//! of the workload's scenarios that have no release golden (the
//! benchmark's own pinned rows).

mod calib;
mod replay;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use pifs_bench::scenario::{find, registry, Point, ResultRow, Scenario};
use serde_json::{json, Map, Value};

use crate::replay::Replay;
use crate::trace::{alloc_calls, Agg, Tracer};

#[global_allocator]
static ALLOC: simkit::stats::CountingAlloc = simkit::stats::CountingAlloc::new();

/// Scenarios whose rows are checked against the repository's release
/// goldens; every other scenario is checked against the benchmark's own
/// pinned rows.
const GOLDEN: [&str; 6] = [
    "fig13a",
    "latency_qps",
    "latency_adaptive",
    "latency_diurnal",
    "cluster_qps",
    "cluster_faults",
];

/// fig12a's headline ratios in the paper (over PIFS-Rec): Pond, Pond+PM,
/// BEACON, RecNMP.
const PAPER_FIG12A: [f64; 4] = [3.89, 3.57, 2.03, 1.09];

const MIB: f64 = (1u64 << 20) as f64;

/// One benchmark workload: a set of registry scenarios and the Table I
/// models their grids simulate.
struct Workload {
    scenarios: Vec<&'static dyn Scenario>,
    models: &'static [&'static str],
}

fn workload(name: &str) -> Option<Workload> {
    let by_id = |ids: &[&str]| -> Vec<&'static dyn Scenario> {
        ids.iter()
            .map(|id| find(id).expect("registered scenario"))
            .collect()
    };
    match name {
        "paper_figs" => Some(Workload {
            scenarios: registry().into_iter().filter(|s| s.in_all()).collect(),
            models: &["RMC1", "RMC2", "RMC3", "RMC4"],
        }),
        "serve_node" => Some(Workload {
            scenarios: by_id(&[
                "latency_qps",
                "latency_wait",
                "latency_adaptive",
                "latency_diurnal",
            ]),
            models: &["RMC1"],
        }),
        "serve_cluster" => Some(Workload {
            scenarios: by_id(&["cluster_qps", "cluster_faults"]),
            models: &["RMC1"],
        }),
        _ => None,
    }
}

/// splitmix64: the seeded scenario-order shuffle's generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Fisher–Yates over the scenarios, driven by `seed`.
fn shuffled<T>(mut items: Vec<T>, seed: u64) -> Vec<T> {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        items.swap(i, j);
    }
    items
}

/// Fills the shared row store for the scaled Table I models, exactly as
/// `SlsSystem::new` would on first use.
fn warm_row_store(models: &[&str]) {
    for name in models {
        let m = replay::scaled_model(name);
        for t in 0..m.n_tables {
            drop(dlrm::EmbeddingTable::new(t, m.emb_num, m.emb_dim, 0));
        }
    }
}

/// One scenario's grid, enumerated in set-up.
struct Grid {
    scenario: &'static dyn Scenario,
    points: Vec<(Point, usize)>,
}

fn enumerate(scenarios: &[&'static dyn Scenario]) -> Vec<Grid> {
    scenarios
        .iter()
        .map(|&scenario| Grid {
            scenario,
            points: scenario
                .points()
                .into_iter()
                .map(|p| {
                    let parts = scenario.parts(&p).max(1);
                    (p, parts)
                })
                .collect(),
        })
        .collect()
}

/// Runs one point on the exact program path; `Err` if any call panics.
fn run_point(
    s: &dyn Scenario,
    p: &Point,
    parts: usize,
    mut tr: Option<&mut Tracer>,
) -> Result<ResultRow, String> {
    let mut values = Vec::with_capacity(parts);
    for k in 0..parts {
        let span = tr.as_deref_mut().map(|t| t.begin("scenario.run_part"));
        let v = catch_unwind(AssertUnwindSafe(|| s.run_part(p, k)));
        if let (Some(t), Some(id)) = (tr.as_deref_mut(), span) {
            t.end(id);
        }
        values.push(v.map_err(|_| format!("{} point {} part {k} panicked", s.id(), p.index))?);
    }
    let span = tr.as_deref_mut().map(|t| t.begin("scenario.merge_parts"));
    let data = catch_unwind(AssertUnwindSafe(|| s.merge_parts(p, values)));
    if let (Some(t), Some(id)) = (tr, span) {
        t.end(id);
    }
    let data = data.map_err(|_| format!("{} point {} merge panicked", s.id(), p.index))?;
    Ok(ResultRow {
        index: p.index,
        params: p.params().to_vec(),
        data,
    })
}

/// A scenario's outcome: its rows (or why each point failed) and whether
/// its summary folded.
struct Outcome {
    id: &'static str,
    rows: Vec<Result<ResultRow, String>>,
    summary_ok: bool,
}

fn summarize(s: &dyn Scenario, rows: &[Result<ResultRow, String>]) -> bool {
    let ok: Vec<ResultRow> = rows
        .iter()
        .filter_map(|r| r.as_ref().ok().cloned())
        .collect();
    ok.len() == rows.len() && catch_unwind(AssertUnwindSafe(|| s.summarize(&ok))).is_ok()
}

/// The pinned JSONL lines for scenario `id`.
fn pinned_lines(root: &Path, id: &str) -> Result<Vec<String>, String> {
    let path = if GOLDEN.contains(&id) {
        root.join("crates/bench/tests/golden")
            .join(format!("{id}.jsonl"))
    } else {
        root.join("perfbench/pinned/rows")
            .join(format!("{id}.jsonl"))
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text.lines().map(str::to_string).collect())
}

/// Byte-compares every row against its pinned line; returns the
/// failure messages (at most one per point).
fn check_rows(root: &Path, outcomes: &[Outcome]) -> Vec<String> {
    let mut failures = Vec::new();
    for o in outcomes {
        let pinned = match pinned_lines(root, o.id) {
            Ok(lines) => lines,
            Err(e) => {
                failures.extend(o.rows.iter().map(|_| format!("{}: {e}", o.id)));
                continue;
            }
        };
        for (i, row) in o.rows.iter().enumerate() {
            match row {
                Err(e) => failures.push(e.clone()),
                Ok(row) if pinned.get(i) != Some(&row.to_jsonl()) => failures.push(format!(
                    "{} point {i}: row differs from its pinned row",
                    o.id
                )),
                Ok(_) if !o.summary_ok => {
                    failures.push(format!("{} point {i}: summary did not fold", o.id))
                }
                Ok(_) => {}
            }
        }
    }
    failures
}

/// Mean absolute relative error (%) of fig12a's four geomean ratios
/// against the paper's, or `None` without a complete fig12a.
fn paper_err_pct(outcomes: &[Outcome]) -> Option<f64> {
    let o = outcomes.iter().find(|o| o.id == "fig12a")?;
    let lat: Vec<f64> = o
        .rows
        .iter()
        .map(|r| {
            r.as_ref()
                .ok()?
                .data
                .get("total_ns")?
                .as_u64()
                .map(|v| v as f64)
        })
        .collect::<Option<_>>()?;
    let n_schemes = replay::fig12a_schemes().len();
    let models: Vec<&[f64]> = lat.chunks(n_schemes).collect();
    let mut err = 0.0;
    for (k, paper) in PAPER_FIG12A.iter().enumerate() {
        let log_sum: f64 = models.iter().map(|l| (l[k] / l[n_schemes - 1]).ln()).sum();
        let geomean = (log_sum / models.len() as f64).exp();
        err += ((geomean - paper) / paper).abs();
    }
    Some(err / PAPER_FIG12A.len() as f64 * 100.0)
}

/// The host facts every result carries, so results from different hosts
/// are never compared blindly.
fn host_json() -> Value {
    json!({
        "sls_lanes": format!("{:?}", dlrm::sls::simd::dispatched_width()),
        "cores": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "threads": 1,
    })
}

fn percentile_ms(mut xs: Vec<u64>, q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    let idx = ((xs.len() - 1) as f64 * q).round() as usize;
    xs[idx] as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer figures of a traced pass that need no untraced run.
fn layer_metrics(tr: &Tracer, rep: &Replay, events: u64, row_store_bytes: u64) -> Map {
    let costs = tr.self_costs();
    let agg = |name: &str| Agg::of(tr, &costs, |s| s.name == name);
    let info = |s: &trace::Span| &rep.points[s.point as usize];
    let c = &rep.counters;
    let mut out = Map::new();
    let mut put = |k: &str, v: f64| {
        out.insert(k.to_string(), json!(v));
    };

    let tasks: Vec<u64> = tr
        .spans
        .iter()
        .filter(|s| s.name == "scenario.run_part" || s.name == "scenario.merge_parts")
        .map(trace::Span::dur_ns)
        .collect();
    put("scenario.task_ms_p50", percentile_ms(tasks.clone(), 0.50));
    put("scenario.task_ms_p90", percentile_ms(tasks, 0.90));
    put(
        "topology.build_ms_total",
        agg("topology.build").total_ns as f64 / 1e6,
    );
    put(
        "tracegen.generate_s",
        agg("tracegen.generate").total_ns as f64 / 1e9,
    );
    let stream = agg("tracegen.stream").total_ns + agg("tracegen.stream.probe").total_ns;
    put(
        "tracegen.stream_ns_per_query",
        ratio(stream as f64, c.stream_queries as f64),
    );
    let run_trace = agg("engine.run_trace");
    put(
        "engine.run_trace_ns_per_lookup",
        ratio(run_trace.total_ns as f64, c.run_trace_lookups as f64),
    );
    put(
        "engine.allocs_per_bag",
        ratio(run_trace.allocs as f64, c.run_trace_bags as f64),
    );
    let push = agg("serving.push");
    put(
        "serving.push_ns_per_query",
        ratio(push.total_ns as f64, push.count as f64),
    );
    put(
        "serving.finish_ms_total",
        agg("serving.finish").total_ns as f64 / 1e6,
    );
    put(
        "serving.allocs_per_push",
        ratio(push.allocs as f64, push.count as f64),
    );
    put("serving.peak_heap_mib", rep.diurnal_peak_bytes as f64 / MIB);
    let push_under = |controller: &str| {
        let a = Agg::of(tr, &costs, |s| {
            s.name == "serving.push" && info(s).controller.as_deref() == Some(controller)
        });
        ratio(a.total_ns as f64, a.count as f64)
    };
    let fixed = push_under("fixed");
    put(
        "controller.push_overhead_pct",
        if fixed > 0.0 {
            (push_under("adaptive") / fixed - 1.0) * 100.0
        } else {
            0.0
        },
    );
    put(
        "checkpoint.capture_ms_total",
        agg("checkpoint.capture").total_ns as f64 / 1e6,
    );
    put(
        "checkpoint.resume_ms_total",
        agg("checkpoint.resume").total_ns as f64 / 1e6,
    );
    let placement = agg("cluster.placement");
    put(
        "cluster.placement_ns_per_query",
        ratio(placement.total_ns as f64, c.cluster_queries as f64),
    );
    for (label, faulted) in [("clean", false), ("faulted", true)] {
        let queries: u64 = rep
            .points
            .iter()
            .filter(|p| p.faulted == faulted)
            .map(|p| p.cluster_queries)
            .sum();
        let route = Agg::of(tr, &costs, |s| {
            s.name == "cluster.route" && info(s).faulted == faulted
        });
        let merge = Agg::of(tr, &costs, |s| {
            s.name == "cluster.merge" && info(s).faulted == faulted
        });
        put(
            &format!("cluster.route_ns_per_query.{label}"),
            ratio(route.self_ns as f64, queries as f64),
        );
        put(
            &format!("cluster.merge_ns_per_query.{label}"),
            ratio(merge.total_ns as f64, queries as f64),
        );
    }
    let cluster_allocs =
        placement.allocs + agg("cluster.route").self_allocs + agg("cluster.merge").allocs;
    put(
        "cluster.allocs_per_query",
        ratio(cluster_allocs as f64, c.cluster_queries as f64),
    );
    put("dlrm.row_store_mib", row_store_bytes as f64 / MIB);
    put("simkit.events", events as f64);
    out
}

/// The exact counters a traced pass pins: simulated work and the
/// modelled components' outputs. A simulator-only change leaves every one
/// of them identical.
fn exact_counters(tr: &Tracer, rep: &Replay) -> Map {
    let c = &rep.counters;
    let allocs = |name: &str| {
        tr.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.allocs)
            .sum::<u64>()
    };
    let mut out = Map::new();
    let mut put = |k: &str, v: Value| {
        out.insert(k.to_string(), v);
    };
    put("queries", json!(c.queries));
    put("engine.lookups", json!(c.lookups));
    put("engine.cxl_lookups", json!(c.cxl_lookups));
    put(
        "buffer.hit_ratio",
        json!(ratio(
            c.buffer_hits as f64,
            (c.buffer_hits + c.buffer_misses) as f64
        )),
    );
    put("switch.ooo_stalls", json!(c.ooo_stalls));
    put("cxlsim.host_link_bytes", json!(c.host_link_bytes));
    put("pagemgmt.migrations", json!(c.migrations));
    put("serving.batches", json!(c.batches));
    put(
        "serving.mean_batch_fill",
        json!(ratio(c.fill_weighted, c.batches as f64)),
    );
    put("pagemgmt.pm_epochs", json!(c.pm_epochs));
    put(
        "cluster.mean_fanout",
        json!(ratio(c.fanout_weighted, c.cluster_queries as f64)),
    );
    put("cluster.agg_bytes", json!(c.agg_bytes));
    put("cluster.failovers", json!(c.failovers));
    put("cluster.timeouts", json!(c.timeouts));
    put("cluster.hedges", json!(c.hedges));
    put("cluster.shed", json!(c.shed));
    put("allocs.run_trace", json!(allocs("engine.run_trace")));
    put("allocs.push", json!(allocs("serving.push")));
    out
}

/// Set-up: enumerates the workload's grids in seeded scenario order and
/// warms the row store. Returns the grids and the live heap after it.
fn set_up(name: &str, seed: u64) -> Result<(Vec<Grid>, u64), String> {
    let w = workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let grids = enumerate(&shuffled(w.scenarios, seed));
    warm_row_store(w.models);
    Ok((grids, simkit::stats::alloc_stats().live_bytes))
}

/// Set-up alone, so a run can sample set-up time more often than it
/// runs whole passes, with a fixed fill of fresh memory timed right
/// after it as a reference for the host's speed at that moment.
fn setup_only(started: Instant, name: &str, seed: u64) -> Result<Value, String> {
    set_up(name, seed)?;
    let setup_s = started.elapsed().as_secs_f64();
    Ok(json!({ "setup_s": setup_s, "fill_s": calib::fill(4 << 20) }))
}

/// One pass: set-up, the timed grid, the output check; with `trace`, the
/// traced grid and replay instead.
fn pass(
    started: Instant,
    name: &str,
    seed: u64,
    root: &Path,
    trace: bool,
) -> Result<Value, String> {
    let (grids, row_store_bytes) = set_up(name, seed)?;
    let setup_s = started.elapsed().as_secs_f64();

    // Host seconds of each timed task (every point, then its scenario's
    // summary), in run order; untraced passes only. Sized before the
    // allocation count starts, so it adds no allocation to the grid.
    let mut task_s: Vec<f64> = Vec::with_capacity(grids.iter().map(|g| g.points.len() + 1).sum());
    let events0 = simkit::stats::events_recorded();
    let allocs0 = alloc_calls();
    let t0 = Instant::now();
    let mut tr = Tracer::new();
    let mut rep = Replay::default();
    let mut replay_failures: Vec<String> = Vec::new();
    let mut events = 0u64;
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(grids.len());
    for g in &grids {
        let s = g.scenario;
        let mut rows = Vec::with_capacity(g.points.len());
        for (p, parts) in &g.points {
            if !trace {
                let t = Instant::now();
                rows.push(run_point(s, p, *parts, None));
                task_s.push(t.elapsed().as_secs_f64());
                continue;
            }
            tr.point = rep.points.len() as u32;
            let e0 = simkit::stats::events_recorded();
            let row = run_point(s, p, *parts, Some(&mut tr));
            events += simkit::stats::events_recorded() - e0;
            if let Ok(row) = &row {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    rep.point(&mut tr, s.id(), p, &row.data)
                }));
                match outcome {
                    Ok(Ok(())) => {}
                    Ok(Err(e)) => {
                        replay_failures.push(format!("{} point {}: {e}", s.id(), p.index))
                    }
                    Err(_) => replay_failures.push(format!(
                        "{} point {}: replay panicked",
                        s.id(),
                        p.index
                    )),
                }
            } else {
                rep.points.push(Default::default());
            }
            rows.push(row);
        }
        let span = trace.then(|| tr.begin("scenario.summarize"));
        let t = Instant::now();
        let summary_ok = summarize(s, &rows);
        if let Some(id) = span {
            tr.end(id);
        } else {
            task_s.push(t.elapsed().as_secs_f64());
        }
        outcomes.push(Outcome {
            id: s.id(),
            rows,
            summary_ok,
        });
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let allocs = alloc_calls() - allocs0;
    let heap = simkit::stats::alloc_stats();
    if !trace {
        events = simkit::stats::events_recorded() - events0;
    }

    let failures = check_rows(root, &outcomes);
    let attempted: usize = outcomes.iter().map(|o| o.rows.len()).sum();
    let mut result = json!({
        "workload": name,
        "seed": seed,
        "order": grids.iter().map(|g| g.scenario.id()).collect::<Vec<_>>(),
        "attempted": attempted,
        "failed": failures.len(),
        "failures": failures.iter().take(8).cloned().collect::<Vec<_>>(),
        "setup_s": setup_s,
        "events": events,
        "paper_err_pct": paper_err_pct(&outcomes).map_or(Value::Null, Value::from),
        "host": host_json(),
    });
    let obj = match &mut result {
        Value::Object(m) => m,
        _ => unreachable!("json! object"),
    };
    if trace {
        let on_path: u64 = tr
            .spans
            .iter()
            .filter(|s| s.name.starts_with("scenario."))
            .map(trace::Span::dur_ns)
            .sum();
        let layer_total: u64 = tr
            .spans
            .iter()
            .filter(|s| {
                s.parent.is_none()
                    && !s.name.starts_with("scenario.")
                    && s.name != "tracegen.stream.probe"
            })
            .map(trace::Span::dur_ns)
            .sum();
        obj.insert("traced_wall_s".into(), json!(on_path as f64 / 1e9));
        obj.insert("layer_total_s".into(), json!(layer_total as f64 / 1e9));
        obj.insert("spans".into(), json!(tr.spans.len()));
        obj.insert("replay_failed".into(), json!(replay_failures.len()));
        obj.insert(
            "replay_failures".into(),
            json!(replay_failures.iter().take(8).cloned().collect::<Vec<_>>()),
        );
        obj.insert(
            "layers".into(),
            Value::Object(layer_metrics(&tr, &rep, events, row_store_bytes)),
        );
        let mut counters = exact_counters(&tr, &rep);
        counters.insert("simkit.events".into(), json!(events));
        obj.insert("counters".into(), Value::Object(counters));
    } else {
        obj.insert("wall_s".into(), json!(wall_s));
        obj.insert("task_s".into(), json!(task_s));
        obj.insert("allocs".into(), json!(allocs));
        obj.insert("peak_heap_bytes".into(), json!(heap.peak_live_bytes));
        obj.insert("row_store_bytes".into(), json!(row_store_bytes));
    }
    Ok(result)
}

/// fig12a alone, untimed: the paper error for workloads without it.
fn paper_err_only() -> Result<Value, String> {
    let grids = enumerate(&[find("fig12a").expect("fig12a registered")]);
    let outcomes: Vec<Outcome> = grids
        .iter()
        .map(|g| Outcome {
            id: g.scenario.id(),
            rows: g
                .points
                .iter()
                .map(|(p, n)| run_point(g.scenario, p, *n, None))
                .collect(),
            summary_ok: true,
        })
        .collect();
    let err = paper_err_pct(&outcomes).ok_or("fig12a did not complete")?;
    Ok(json!({ "paper_err_pct": err }))
}

/// Writes the rows of the workload's scenarios that have no release
/// golden, in grid order.
fn write_rows(name: &str, out: &Path) -> Result<Value, String> {
    let w = workload(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    let mut written = Vec::new();
    for g in enumerate(&w.scenarios) {
        let id = g.scenario.id();
        if GOLDEN.contains(&id) {
            continue;
        }
        let mut text = String::new();
        for (p, parts) in &g.points {
            text.push_str(&run_point(g.scenario, p, *parts, None)?.to_jsonl());
            text.push('\n');
        }
        std::fs::write(out.join(format!("{id}.jsonl")), text).map_err(|e| e.to_string())?;
        written.push(id);
    }
    Ok(json!({ "written": written }))
}

fn main() {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let result = match args.first().map(String::as_str) {
        Some("pass") => match (
            flag("--workload"),
            flag("--seed").and_then(|s| s.parse().ok()),
            flag("--root"),
        ) {
            (Some(w), Some(seed), Some(root)) => pass(
                started,
                w,
                seed,
                &PathBuf::from(root),
                args.iter().any(|a| a == "--trace"),
            ),
            _ => Err("pass needs --workload <w> --seed <n> --root <dir>".into()),
        },
        Some("setup") => match (
            flag("--workload"),
            flag("--seed").and_then(|s| s.parse().ok()),
        ) {
            (Some(w), Some(seed)) => setup_only(started, w, seed),
            _ => Err("setup needs --workload <w> --seed <n>".into()),
        },
        Some("paper-err") => paper_err_only(),
        Some("calibrate") => match flag("--rounds").and_then(|s| s.parse().ok()) {
            Some(rounds) => Ok(json!({ "round_s": calib::sample(rounds) })),
            None => Err("calibrate needs --rounds <n>".into()),
        },
        Some("rows") => match (flag("--workload"), flag("--out")) {
            (Some(w), Some(out)) => write_rows(w, Path::new(out)),
            _ => Err("rows needs --workload <w> --out <dir>".into()),
        },
        _ => Err("usage: perfbench pass|setup|paper-err|calibrate|rows ...".into()),
    };
    match result {
        Ok(v) => println!("{}", serde_json::to_string(&v).expect("serializable")),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}
