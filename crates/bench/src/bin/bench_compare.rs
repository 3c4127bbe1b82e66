//! `bench-compare` — diffs a fresh `BENCH_sim.json` against a baseline.
//!
//! ```text
//! bench_compare <baseline.json> <fresh.json> [--threshold PCT] [--strict]
//!               [--strict-family TARGET ...]
//! ```
//!
//! Prints a per-benchmark table of deltas (positive = slower) of the
//! fastest sample, `min_sample_ns`, or of `mean_ns` where either file
//! lacks it, flags regressions beyond the threshold (default 20 %), and lists
//! benchmarks that appear in only one file. Exit status is 0 unless a
//! regression crossed the threshold in a gated benchmark: `--strict`
//! gates every target, while `--strict-family SPEC` (repeatable) gates
//! only the matching benchmarks, leaving the rest warn-only. A spec
//! matches a whole target family (`sls_kernel`) or one benchmark by
//! its qualified id (`serving/controller_tick`) — the latter gates a
//! deterministic micro-bench inside an otherwise noisy family. CI
//! runs the
//! hand-tuned kernel families (`sls_kernel`, `instr_codec`) and the
//! controller decision path (`serving/controller_tick`) strictly —
//! they are deterministic enough to gate — and everything else
//! warn-only, so a noisy runner cannot fail the build on a
//! macro-benchmark wobble. The fastest sample is the gated statistic
//! because it is the tighter one: seven runs of one unchanged
//! `sls_kernel` binary read `fold_dim16` at 9.8–13.7 ns mean but
//! 9.6–10.1 ns minimum (PERFORMANCE.md).

use std::collections::BTreeMap;

/// One benchmark's `(mean_ns, min_sample_ns)`, keyed by `target :: id`.
type Means = BTreeMap<(String, String), (f64, Option<f64>)>;

fn main() {
    let mut args = std::env::args().skip(1);
    let mut paths: Vec<String> = Vec::new();
    let mut threshold = 20.0f64;
    let mut strict = false;
    let mut strict_families: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => {
                let v = args.next().unwrap_or_else(|| die("--threshold needs PCT"));
                threshold = v
                    .parse()
                    .unwrap_or_else(|_| die(&format!("--threshold: bad value {v:?}")));
            }
            "--strict" => strict = true,
            "--strict-family" => {
                let v = args.next().unwrap_or_else(|| {
                    die("--strict-family needs a target, id, or target/id spec")
                });
                strict_families.push(v);
            }
            "--help" | "-h" => {
                println!(
                    "usage: bench_compare <baseline.json> <fresh.json> \
                     [--threshold PCT] [--strict] [--strict-family TARGET ...]"
                );
                return;
            }
            other => paths.push(other.to_string()),
        }
    }
    let [baseline_path, fresh_path] = paths.as_slice() else {
        die("expected exactly two paths: <baseline.json> <fresh.json>")
    };

    let baseline = load_means(baseline_path);
    let fresh = load_means(fresh_path);

    println!("bench-compare: {baseline_path} (baseline) vs {fresh_path} (fresh)");
    println!(
        "{:<44} {:>12} {:>12} {:>9}",
        "benchmark", "base ns", "fresh ns", "delta"
    );
    let mut regressions = 0usize;
    let mut gated_regressions = 0usize;
    for ((target, id), base) in &baseline {
        let Some(new) = fresh.get(&(target.clone(), id.clone())) else {
            println!(
                "{:<44} {:>12.1} {:>12} {:>9}",
                format!("{target}::{id}"),
                base.0,
                "-",
                "gone"
            );
            continue;
        };
        let (base_ns, fresh_ns) = match (base.1, new.1) {
            (Some(base_min), Some(new_min)) => (base_min, new_min),
            _ => (base.0, new.0),
        };
        let delta_pct = (fresh_ns - base_ns) / base_ns * 100.0;
        let flag = if delta_pct > threshold {
            regressions += 1;
            if strict_families.iter().any(|f| f == target || f == id) {
                gated_regressions += 1;
            }
            "  <-- REGRESSION"
        } else {
            ""
        };
        println!(
            "{:<44} {:>12.1} {:>12.1} {:>+8.1}%{}",
            format!("{target}::{id}"),
            base_ns,
            fresh_ns,
            delta_pct,
            flag
        );
    }
    for (target, id) in fresh.keys() {
        if !baseline.contains_key(&(target.clone(), id.clone())) {
            println!(
                "{:<44} {:>12} {:>12} {:>9}",
                format!("{target}::{id}"),
                "-",
                "",
                "new"
            );
        }
    }
    if regressions > 0 {
        println!("\n{regressions} benchmark(s) regressed more than {threshold:.0}%");
        if gated_regressions > 0 {
            println!(
                "{gated_regressions} of them in strict families ({})",
                strict_families.join(", ")
            );
        }
        if strict || gated_regressions > 0 {
            std::process::exit(1);
        }
    } else {
        println!("\nno regressions beyond {threshold:.0}%");
    }
}

/// Loads `{target: [{id, mean_ns, min_sample_ns?, ...}]}` from a
/// `BENCH_sim.json`.
fn load_means(path: &str) -> Means {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let doc =
        serde_json::from_str(&text).unwrap_or_else(|e| die(&format!("cannot parse {path}: {e}")));
    let mut out = Means::new();
    let Some(targets) = doc.get("targets").and_then(|t| t.as_object()) else {
        die(&format!("{path}: missing \"targets\" object"))
    };
    for (target, entries) in targets.iter() {
        let Some(list) = entries.as_array() else {
            die(&format!("{path}: target {target:?} is not an array"))
        };
        for entry in list {
            let id = entry
                .get("id")
                .and_then(|v| v.as_str())
                .unwrap_or_else(|| die(&format!("{path}: bench entry without id")));
            let mean = entry
                .get("mean_ns")
                .and_then(|v| v.as_f64())
                .unwrap_or_else(|| die(&format!("{path}: {id}: missing mean_ns")));
            let min = entry.get("min_sample_ns").and_then(|v| v.as_f64());
            out.insert((target.clone(), id.to_string()), (mean, min));
        }
    }
    out
}

fn die(msg: &str) -> ! {
    eprintln!("bench-compare: {msg}");
    std::process::exit(2)
}
