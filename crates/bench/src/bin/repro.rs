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
//! declared parameters take overridden value lists, and the free-form
//! `custom` scenario additionally forwards unknown keys to
//! `SystemConfig::apply_knob` (topology and page-management knobs).

use pifs_bench::runner::SweepRunner;
use pifs_bench::scenario::{cartesian_points, registry, ParamSpec, ParamValue, Scenario};
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
        validate_axis_values(key, &values);
        overridden = true;
        if let Some(spec) = specs.iter_mut().find(|s| s.name == key) {
            spec.values = values;
        } else if scenario.accepts_free_params() {
            // Forwarded to SystemConfig::apply_knob by the scenario:
            // dry-run each value against a default config now, so a bad
            // knob (`serving.batch_size=0`, an unknown key) is a
            // sweep-level error here instead of a worker-thread panic
            // mid-grid. Leak the name to satisfy ParamSpec's static
            // lifetime.
            for value in &values {
                let mut probe = pifs_core::system::SystemConfig::pifs_rec_default();
                if let Err(why) = probe.apply_knob(key, &value.to_string()) {
                    die(&format!("--param {key}: {why}"));
                }
            }
            let name: &'static str = Box::leak(key.to_string().into_boxed_str());
            specs.push(ParamSpec { name, values });
        } else {
            let known: Vec<&str> = specs.iter().map(|s| s.name).collect();
            die(&format!(
                "scenario {id} has no parameter {key:?} (axes: {known:?}); \
                 only the `custom` scenario accepts free-form knobs"
            ));
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
        &scenario_rows_json(&rows),
    );
}

/// Generic sweep summary: every row's params and data, in grid order.
fn scenario_rows_json(rows: &[pifs_bench::scenario::ResultRow]) -> serde_json::Value {
    use serde_json::{json, Value};
    Value::Array(
        rows.iter()
            .map(|r| json!({ "point": r.index, "params": r.params_json(), "data": r.data }))
            .collect(),
    )
}

/// Validates axes whose semantics are shared across scenarios
/// (`model`, `scheme`, `trace`, `arrival`, `qps`, `traffic`, `policy`,
/// `fault`, `shed`, `controller`, and the serving batcher knobs)
/// before any simulation starts, so typos and degenerate values
/// (`batch_size=0`) die with a clean message — the parser's own, where
/// the spelling has structure — instead of panicking inside a worker
/// thread.
fn validate_axis_values(key: &str, values: &[ParamValue]) {
    for value in values {
        let spelled = value.to_string();
        let why = match key {
            "model" => (dlrm::ModelConfig::by_name(&spelled).is_none())
                .then(|| format!("unknown model {spelled:?}")),
            "scheme" => (!baselines::Scheme::all()
                .iter()
                .any(|s| s.label().eq_ignore_ascii_case(&spelled)))
            .then(|| format!("unknown scheme {spelled:?}")),
            "trace" => (tracegen::Distribution::parse(&spelled).is_none()).then(|| {
                format!(
                    "unknown trace distribution {spelled:?} (parameters must be finite, \
                     exponents >= 0, reuse_frac in [0, 1] and sigma_frac > 0)"
                )
            }),
            // The rate is per-point; validate the spelling at a dummy 1 qps.
            "arrival" => tracegen::ArrivalProcess::parse(&spelled, 1.0).err(),
            // ...and each rate with the simplest process, so a zero,
            // negative or non-finite rate is the parser's error here
            // rather than a worker panic mid-grid.
            "qps" => match value {
                ParamValue::U64(n) => tracegen::ArrivalProcess::parse("poisson", *n as f64).err(),
                ParamValue::F64(v) => tracegen::ArrivalProcess::parse("poisson", *v).err(),
                ParamValue::Str(s) => Some(format!("rate {s:?} is not a number")),
            },
            "traffic" => pifs_bench::scenarios::adaptive::parse_traffic(&spelled, 1.0).err(),
            "policy" => pifs_core::engine::cluster::ShardPolicy::parse(&spelled).err(),
            "fault" => simkit::FaultSpec::parse(&spelled).err(),
            "shed" => pifs_core::system::ShedPolicy::parse(&spelled).err(),
            "controller" => pifs_core::engine::controller::ControllerPolicy::parse(&spelled).err(),
            // Batcher knob axes route through apply_knob inside the
            // worker; dry-run the same knob here so `batch_size=0`
            // (or a junk max-wait) is a sweep-level error.
            "batch_size" => serving_knob_err("serving.batch_size", &spelled),
            "max_wait_us" => serving_knob_err("serving.max_wait_us", &spelled),
            // Integer axes feed u16 node, device, switch and host counts
            // and u32 batch, core, dimension and replica counts; reject
            // what would not fit instead of wrapping, and the zeros the
            // simulator asserts against (fig14's `hosts=0` is its Pond
            // anchor, and zero replicas is the unreplicated baseline).
            "nodes" | "devices" | "switches" => int_in(value, 1, u16::MAX.into()),
            "hosts" => int_in(value, 0, u16::MAX.into()),
            "batch" | "cores" | "dim" => int_in(value, 1, u32::MAX.into()),
            "replicas" => int_in(value, 0, u32::MAX.into()),
            "duration_s" => int_in(value, 0, pifs_bench::scenarios::diurnal::MAX_DURATION_S),
            _ => None, // scenario-specific; checked by its run function
        };
        if let Some(why) = why {
            die(&format!("--param {key}: {why}"));
        }
    }
}

/// `None` when `value` is an integer in `lo..=hi`, else the reason.
fn int_in(value: &ParamValue, lo: u64, hi: u64) -> Option<String> {
    match value {
        ParamValue::U64(n) if (lo..=hi).contains(n) => None,
        _ => Some(format!("{value} must be an integer in {lo}..={hi}")),
    }
}

/// Dry-runs one serving knob against a default config, returning the
/// knob's own rejection message if the value is invalid.
fn serving_knob_err(knob: &str, spelled: &str) -> Option<String> {
    pifs_core::system::SystemConfig::pifs_rec_default()
        .apply_knob(knob, spelled)
        .err()
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
