//! `repro` — regenerates every table and figure of the PIFS-Rec paper.
//!
//! ```text
//! repro [--threads N] <id> | all          reproduce one figure (or all)
//! repro [--threads N] sweep <id> --param k=v1,v2,... [--param ...]
//!                                         run an off-paper grid
//! repro list                              list scenarios and their axes
//! ```
//!
//! The experiment-id list is generated from the scenario registry
//! (`pifs_bench::scenario::registry()`), the single source of truth —
//! run `repro -- list` to see it, together with each scenario's
//! sweepable parameters. Every figure executes its grid points on a
//! worker pool (one thread per core by default; `--threads`
//! overrides) and emits both raw per-point rows
//! (`results/<id>.jsonl`) and the summarized figure JSON
//! (`results/<id>.json`), which is bit-identical for any thread count.
//! `sweep` reuses a scenario's machinery on a grid the paper never ran:
//! declared parameters take overridden value lists, each value vetted
//! by its axis's own check (`ParamSpec::check`) before any worker
//! starts, and the free-form `custom` scenario additionally forwards
//! unknown keys to `SystemConfig::apply_knob` (topology and
//! page-management knobs), dry-running each value first. A value that
//! fails exits 2 naming `--param <axis>` and the reason.

use pifs_bench::runner::SweepRunner;
use pifs_bench::scenario::ResultRow;
use pifs_bench::scenario::{cartesian_points, knob, registry, ParamSpec, ParamValue, Scenario};
use pifs_bench::{emit, emit_jsonl};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threads: Option<usize> = None;
    let mut rest: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--threads" {
            let v = it.next().unwrap_or_else(|| die("--threads needs a value"));
            threads = Some(
                v.parse()
                    .unwrap_or_else(|_| die(&format!("--threads: bad count {v:?}"))),
            );
        } else {
            rest.push(arg);
        }
    }
    let runner = match threads {
        Some(n) => SweepRunner::new(n),
        None => SweepRunner::with_default_threads(),
    };

    match rest.first().map(String::as_str) {
        None | Some("all") => {
            let mut table: Vec<(&str, pifs_bench::runner::RunStats)> = Vec::new();
            for scenario in registry().into_iter().filter(|s| s.in_all()) {
                table.push((scenario.id(), reproduce(&runner, scenario)));
            }
            print_stats_table(&table, runner.threads);
        }
        Some("list") => print_list(),
        Some("sweep") => sweep(&runner, &rest[1..]),
        Some(id) => match pifs_bench::scenario::find(id) {
            Some(scenario) => {
                reproduce(&runner, scenario);
            }
            None => die(&format!("unknown experiment id {id:?}\n\n{}", usage())),
        },
    }
}

/// Runs one registered scenario's default (paper) grid and emits the raw
/// rows plus the summarized figure; returns the sweep's runtime stats.
fn reproduce(runner: &SweepRunner, scenario: &dyn Scenario) -> pifs_bench::runner::RunStats {
    let (rows, stats) = runner.run_stats(scenario);
    emit_jsonl(scenario.id(), &rows);
    emit(scenario.id(), scenario.title(), &scenario.summarize(&rows));
    stats
}

/// Prints the per-scenario wall-time / events-per-second summary of an
/// `all` run. Goes to stderr: wall times vary run to run, while stdout
/// stays byte-identical for any thread count (the determinism bar the
/// golden tests enforce).
fn print_stats_table(table: &[(&str, pifs_bench::runner::RunStats)], threads: usize) {
    eprintln!("\n== repro -- all: runtime summary ({threads} threads) ==");
    eprintln!(
        "{:10} {:>7} {:>10} {:>14} {:>12}",
        "scenario", "points", "wall", "sim events", "events/sec"
    );
    let mut wall_total = std::time::Duration::ZERO;
    let mut events_total = 0u64;
    for (id, s) in table {
        wall_total += s.wall;
        events_total += s.events;
        eprintln!(
            "{:10} {:>7} {:>9.2?} {:>14} {:>12.3e}",
            id,
            s.points,
            s.wall,
            s.events,
            s.events_per_sec()
        );
    }
    let total_secs = wall_total.as_secs_f64();
    let rate = if total_secs > 0.0 {
        events_total as f64 / total_secs
    } else {
        0.0
    };
    eprintln!(
        "{:10} {:>7} {:>9.2?} {:>14} {:>12.3e}",
        "total", "", wall_total, events_total, rate
    );
}

/// `repro -- sweep <id> --param k=v1,v2,...`: rebuilds the scenario's
/// grid with overridden (or, for free-form scenarios, extra) axes and
/// emits the raw rows without the paper summary.
fn sweep(runner: &SweepRunner, args: &[String]) {
    let Some(id) = args.first() else {
        die(&format!("sweep needs a scenario id\n\n{}", usage()))
    };
    let Some(scenario) = pifs_bench::scenario::find(id) else {
        die(&format!("unknown scenario {id:?}\n\n{}", usage()))
    };
    let mut specs = scenario.params();
    let mut it = args[1..].iter();
    let mut overridden = false;
    while let Some(arg) = it.next() {
        if arg != "--param" {
            die(&format!("unexpected sweep argument {arg:?}\n\n{}", usage()));
        }
        let kv = it
            .next()
            .unwrap_or_else(|| die("--param needs k=v1,v2,..."));
        let (key, vals) = kv
            .split_once('=')
            .unwrap_or_else(|| die(&format!("--param {kv:?}: expected k=v1,v2,...")));
        if vals.split(',').any(str::is_empty) {
            die(&format!("--param {key}: empty value in {vals:?}"));
        }
        let values: Vec<ParamValue> = vals.split(',').map(ParamValue::parse).collect();
        let declared = specs.iter().position(|s| s.name == key);
        if declared.is_none() && !scenario.accepts_free_params() {
            let known: Vec<&str> = specs.iter().map(|s| s.name).collect();
            die(&format!(
                "scenario {id} has no parameter {key:?} (axes: {known:?}); \
                 only the `custom` scenario accepts free-form knobs"
            ));
        }
        // Every value passes its axis's own check (an undeclared key is
        // a knob the free-form scenario forwards to
        // SystemConfig::apply_knob: its dry run) before any worker starts.
        for value in &values {
            let verdict = match declared {
                Some(axis) => (specs[axis].check)(value),
                None => knob(key, value),
            };
            if let Err(why) = verdict {
                die(&format!("--param {key}: {why}"));
            }
        }
        overridden = true;
        match declared {
            Some(axis) => specs[axis].values = values,
            // Leak the name to satisfy ParamSpec's static lifetime.
            None => specs.push(ParamSpec {
                name: Box::leak(key.into()),
                values,
                check: |_| Ok(()), // its knob's dry run above
            }),
        }
    }
    // Without overrides, run the scenario's true default grid (which may
    // include anchor points outside the cartesian product of its axes);
    // with overrides, enumerate the product of the overridden axes.
    let points = if overridden {
        cartesian_points(&specs)
    } else {
        eprintln!("note: no --param overrides; running the default grid of {id}");
        scenario.points()
    };
    println!(
        "sweep {id}: {} points on {} threads",
        points.len(),
        runner.threads
    );
    let rows = runner.run_points(scenario, points);
    let sweep_id = format!("{id}_sweep");
    emit_jsonl(&sweep_id, &rows);
    emit(
        &sweep_id,
        &format!("Sweep of {id} ({})", scenario.title()),
        // Generic sweep summary: every row, in grid order.
        &serde_json::Value::Array(rows.iter().map(ResultRow::to_json).collect()),
    );
}

/// `repro -- list`: the registry as a table of ids, grids, and titles.
fn print_list() {
    println!("registered scenarios (sweep axes in brackets):\n");
    for s in registry() {
        let axes: Vec<String> = s
            .params()
            .iter()
            .map(|p| format!("{}[{}]", p.name, p.values.len()))
            .collect();
        let n_points = s.points().len();
        let tag = if s.in_all() { "" } else { "  (sweep-only)" };
        println!("  {:8} {:3} points  {}{}", s.id(), n_points, s.title(), tag);
        println!("           axes: {}", axes.join(" "));
    }
}

/// Usage text, with the id list generated from the registry.
fn usage() -> String {
    let ids: Vec<&str> = registry()
        .into_iter()
        .filter(|s| s.in_all())
        .map(|s| s.id())
        .collect();
    format!(
        "usage: repro [--threads N] <id> | all | list\n\
         \x20      repro [--threads N] sweep <id> --param k=v1,v2,... [--param ...]\n\
         ids: {} all",
        ids.join(" ")
    )
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}
