//! Golden-snapshot and determinism regression for the sharded-cluster
//! `cluster_qps` sweep.
//!
//! `tests/golden/cluster_qps.jsonl` was captured when the cluster layer
//! landed. The sweep's JSONL output must stay byte-identical to it for
//! any runner thread count — the serving determinism bar extended
//! through the shard router, the nodes' sessions, and the cross-node
//! completion merge. If a change to the *model* legitimately
//! alters the numbers, recapture with `repro -- cluster_qps` and say so
//! in the commit.

use pifs_bench::runner::SweepRunner;
use pifs_bench::scenario::{find, point_seed, Point, Scenario};
use serde_json::Value;

fn golden_lines() -> Vec<String> {
    let raw = include_str!("golden/cluster_qps.jsonl");
    raw.lines().map(str::to_string).collect()
}

/// Rebuilds the grid points at `indices` exactly as the full grid
/// assigns them, so their rows are byte-comparable against the matching
/// golden lines.
fn cluster_points(scenario: &dyn Scenario, indices: &[usize]) -> Vec<Point> {
    let all = scenario.points();
    indices
        .iter()
        .map(|&i| {
            let p = &all[i];
            assert_eq!(p.index, i, "registry grid must be in row-major order");
            assert_eq!(p.seed, point_seed(pifs_bench::SEED, i));
            Point::new(p.index, p.seed, p.params().to_vec())
        })
        .collect()
}

/// Debug-friendly 4-point subset: both policies at 1 and 8 nodes, each
/// at one pre-knee (8 M) and one post-knee (32 M) offered rate,
/// byte-compared against the golden lines — the CI smoke gate.
#[test]
fn cluster_qps_subset_rows_match_golden_snapshot() {
    let scenario = find("cluster_qps").expect("cluster_qps registered");
    let golden = golden_lines();
    assert_eq!(golden.len(), scenario.points().len());
    // Grid: policy (2) × nodes (4) × qps (4), qps fastest. Row 1 =
    // row_hash/n1 @ 8M, 14 = row_hash/n8 @ 32M, 17 = table_partition/n1
    // @ 8M, 30 = table_partition/n8 @ 32M.
    let indices = [1usize, 14, 17, 30];
    let points = cluster_points(scenario, &indices);
    assert_eq!(points[0].str("policy"), "row_hash");
    assert_eq!(points[1].u64("nodes"), 8);
    assert_eq!(points[2].str("policy"), "table_partition");
    assert_eq!(points[3].u64("qps"), 32_000_000);
    let rows = SweepRunner::new(2).run_points(scenario, points);
    for (row, &i) in rows.iter().zip(&indices) {
        assert_eq!(
            row.to_jsonl(),
            golden[i],
            "cluster_qps row {i} drifted from the golden snapshot"
        );
    }
}

/// The cluster sweep is byte-identical across runner thread counts —
/// rows and summary both: at 4 threads different workers simulate
/// different points, and no row may depend on which.
#[test]
fn cluster_qps_is_thread_count_independent() {
    let scenario = find("cluster_qps").expect("cluster_qps registered");
    let points = |_: ()| {
        let all = scenario.points();
        if cfg!(debug_assertions) {
            // Same subset as the golden smoke test (keeps debug CI fast)
            // — 18 node-simulations across the 4 points.
            cluster_points(scenario, &[1, 14, 17, 30])
        } else {
            all
        }
    };
    let serial = SweepRunner::new(1).run_points(scenario, points(()));
    let parallel = SweepRunner::new(4).run_points(scenario, points(()));
    let jsonl = |rows: &[pifs_bench::scenario::ResultRow]| {
        rows.iter().map(|r| r.to_jsonl()).collect::<Vec<_>>()
    };
    assert_eq!(jsonl(&serial), jsonl(&parallel), "cluster_qps rows drifted");
    let summary = |rows| serde_json::to_string_pretty(&scenario.summarize(rows)).unwrap();
    assert_eq!(
        summary(&serial),
        summary(&parallel),
        "cluster_qps summary drifted"
    );
}

/// The full 32-point grid, byte-identical end to end, plus the
/// acceptance properties: every (policy, nodes) curve detects a knee,
/// the merged functional checksum is identical down every qps column
/// (shard-count and policy invariance at sweep scale), table
/// partitioning scales its stable throughput with nodes, and the
/// capacity summary answers for every swept rate. Release-only.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full grid is release-only; run with --release -- --ignored"
)]
fn cluster_qps_full_grid_matches_golden_snapshot() {
    let scenario = find("cluster_qps").expect("cluster_qps registered");
    let golden = golden_lines();
    let rows = SweepRunner::new(4).run(scenario);
    let produced: Vec<String> = rows.iter().map(|r| r.to_jsonl()).collect();
    assert_eq!(produced, golden);

    // Checksum invariance: all 8 (policy, nodes) cells of a qps column
    // merged the exact same f64 result, bit for bit.
    let mut by_qps: Vec<(String, u64)> = Vec::new();
    for row in &rows {
        let qps = row
            .params
            .iter()
            .find(|(n, _)| n == "qps")
            .map(|(_, v)| v.to_string())
            .expect("qps param");
        let bits = row
            .data
            .get("checksum")
            .and_then(Value::as_f64)
            .expect("checksum")
            .to_bits();
        match by_qps.iter().find(|(q, _)| *q == qps) {
            Some((_, b)) => assert_eq!(*b, bits, "checksum drifted within qps column {qps}"),
            None => by_qps.push((qps, bits)),
        }
    }
    assert_eq!(by_qps.len(), 4, "one checksum per offered rate");

    let summary = scenario.summarize(&rows);
    let curves = summary
        .get("curves")
        .and_then(Value::as_object)
        .expect("curves map");
    assert_eq!(curves.len(), 8, "2 policies x 4 node counts");
    for (label, curve) in curves.iter() {
        assert!(
            curve.get("knee_qps").is_some_and(|v| v.as_f64().is_some()),
            "{label}: no saturation knee detected across the sweep"
        );
    }
    let stable = |label: &str| -> f64 {
        curves
            .get(label)
            .expect("curve present")
            .get("max_stable_qps")
            .and_then(Value::as_f64)
            .expect("max_stable_qps")
    };
    assert!(
        stable("table_partition/n8") > stable("table_partition/n1"),
        "table partitioning must raise the stable cluster throughput with nodes"
    );
    let capacity = summary
        .get("nodes_for_qps_at_sla")
        .and_then(Value::as_array)
        .expect("capacity summary");
    assert_eq!(capacity.len(), 4, "one capacity answer per offered rate");
}
