//! Runner/registry invariants: a scenario sweep is bit-identical for
//! any thread count, and the registry resolves every id `repro -- all`
//! executes.

use pifs_bench::runner::SweepRunner;
use pifs_bench::scenario::{cartesian_points, find, knob, registry, ParamSpec};

/// A 1-thread and an N-thread sweep of the same scenario must produce
/// identical JSONL rows and an identical summary (the acceptance bar
/// for the parallel runner).
#[test]
fn one_thread_and_many_threads_produce_identical_rows() {
    let scenario = find("fig6").expect("fig6 registered");
    let serial = SweepRunner::new(1).run(scenario);
    let parallel = SweepRunner::new(4).run(scenario);

    let jsonl = |rows: &[pifs_bench::scenario::ResultRow]| {
        rows.iter().map(|r| r.to_jsonl()).collect::<Vec<_>>()
    };
    assert_eq!(jsonl(&serial), jsonl(&parallel));

    let summary = |rows| serde_json::to_string_pretty(&scenario.summarize(rows)).unwrap();
    assert_eq!(summary(&serial), summary(&parallel));
}

/// Sweep grids with overridden axes are equally thread-count-independent
/// (covers the `repro -- sweep` path, including per-point seeds).
#[test]
fn sweep_grids_are_thread_count_independent() {
    let scenario = find("custom").expect("custom registered");
    let mut specs = scenario.params();
    // An off-paper grid: Pond vs PIFS-Rec on a 4-device pool.
    specs
        .iter_mut()
        .find(|s| s.name == "scheme")
        .unwrap()
        .values = vec![
        pifs_bench::scenario::ParamValue::Str("Pond".into()),
        pifs_bench::scenario::ParamValue::Str("PIFS-Rec".into()),
    ];
    specs.push(ParamSpec::u64s("n_devices", [4], |v| knob("n_devices", v)));
    let serial: Vec<String> = SweepRunner::new(1)
        .run_points(scenario, cartesian_points(&specs))
        .iter()
        .map(|r| r.to_jsonl())
        .collect();
    let parallel = SweepRunner::new(3).run_points(scenario, cartesian_points(&specs));
    assert_eq!(
        serial,
        parallel.iter().map(|r| r.to_jsonl()).collect::<Vec<_>>()
    );
    assert_eq!(serial.len(), 2);
    // Points differing only in scheme share the same workload seed (and
    // therefore the same trace), so their rows are directly comparable.
    let seed = |i: usize| {
        parallel[i]
            .data
            .get("seed")
            .and_then(serde_json::Value::as_u64)
            .expect("seed")
    };
    assert_eq!(seed(0), seed(1));
}

/// Every id `repro -- all` iterates must resolve through the registry,
/// cover the complete historical experiment list, and declare a
/// non-empty grid.
#[test]
fn every_repro_all_id_resolves_with_a_nonempty_grid() {
    let historical = [
        "table1", "table2", "fig5", "fig6", "fig12a", "fig12b", "fig12c", "fig12d", "fig12e",
        "fig13a", "fig13b", "fig13c", "fig13d", "fig14", "fig15", "fig16", "fig17", "fig18",
        "energy",
    ];
    let all_ids: Vec<&str> = registry()
        .into_iter()
        .filter(|s| s.in_all())
        .map(|s| s.id())
        .collect();
    assert_eq!(
        all_ids, historical,
        "`all` must cover the paper set in order"
    );
    for s in registry() {
        assert!(find(s.id()).is_some(), "{} must resolve", s.id());
        assert!(!s.points().is_empty(), "{} has an empty grid", s.id());
        assert!(!s.title().is_empty(), "{} has no title", s.id());
    }
    // The sweep-only scenarios exist but stay out of `all` (it remains
    // the paper set).
    for id in ["custom", "latency_qps", "latency_wait"] {
        assert!(find(id).is_some_and(|s| !s.in_all()), "{id}");
    }
}

/// Grid shapes of the ported scenarios match the historical loop sizes.
#[test]
fn ported_grids_have_the_historical_point_counts() {
    let count = |id: &str| find(id).expect(id).points().len();
    assert_eq!(count("fig5"), 2 * 3 * 4 * 7);
    assert_eq!(count("fig6"), 5);
    assert_eq!(count("fig12a"), 4 * 5);
    assert_eq!(count("fig12b"), 5 * 5);
    assert_eq!(count("fig12c"), 4 * 5);
    assert_eq!(count("fig12d"), 3 * 5);
    assert_eq!(count("fig12e"), 4 * 5);
    assert_eq!(count("fig13a"), 9 * 2);
    assert_eq!(count("fig13b"), 2);
    assert_eq!(count("fig13c"), 3 * 6);
    assert_eq!(count("fig13d"), 10);
    assert_eq!(count("fig14"), 2 * 3 * 5);
    assert_eq!(count("fig15"), 4 * 16);
    assert_eq!(count("table2"), 1);
    assert_eq!(count("fig18"), 1);
}

/// EXPERIMENTS.md documents every registered scenario id (the doc and
/// the registry must not drift apart).
#[test]
fn experiments_doc_mentions_every_scenario() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md exists at the workspace root");
    for s in registry() {
        assert!(
            doc.contains(&format!("`{}`", s.id())),
            "EXPERIMENTS.md is missing a row for `{}`",
            s.id()
        );
    }
}
