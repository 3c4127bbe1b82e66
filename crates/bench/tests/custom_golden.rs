//! Golden-snapshot regression for the `custom` sweep: the one
//! scenario that prints a closed-loop `run_trace` checksum.
//!
//! `tests/golden/custom.jsonl` is the sweep
//!
//! ```text
//! repro -- sweep custom --param scheme=Pond,Pond+PM,BEACON,RecNMP,PIFS-Rec \
//!     --param model=RMC1,RMC2,RMC3,RMC4 --param trace=Meta,Uniform
//! ```
//!
//! (`results/custom_sweep.jsonl`): every scheme, so every compute site's
//! fold, on every Table I model under a skewed and a flat trace. The
//! rows, `checksum` included, must stay byte-identical to it. If a
//! change to the *model* legitimately alters the numbers, recapture with
//! the command above and say so in the commit.

use pifs_bench::runner::SweepRunner;
use pifs_bench::scenario::{cartesian_points, find, ParamSpec, Point};

fn golden_lines() -> Vec<String> {
    let raw = include_str!("golden/custom.jsonl");
    raw.lines().map(str::to_string).collect()
}

/// The golden grid, enumerated as the sweep enumerates it: scheme ×
/// model × trace, trace fastest.
fn grid() -> Vec<Point> {
    cartesian_points(&[
        ParamSpec::schemes(),
        ParamSpec::models(),
        ParamSpec::traces(["Meta", "Uniform"]),
    ])
}

fn assert_rows_match(points: Vec<Point>) {
    let scenario = find("custom").expect("custom registered");
    let golden = golden_lines();
    assert_eq!(golden.len(), grid().len());
    let indices: Vec<usize> = points.iter().map(|p| p.index).collect();
    let rows = SweepRunner::new(2).run_points(scenario, points);
    for (row, i) in rows.iter().zip(indices) {
        assert_eq!(
            row.to_jsonl(),
            golden[i],
            "custom row {i} drifted from the golden snapshot"
        );
    }
}

/// Debug-friendly subset: one point per scheme, each on a different
/// model or trace (index = scheme·8 + model·2 + trace), byte-compared
/// against the golden lines — the CI smoke gate.
#[test]
fn custom_subset_rows_match_golden_snapshot() {
    let indices = [0usize, 11, 18, 29, 32];
    let all = grid();
    let points: Vec<Point> = indices.iter().map(|&i| all[i].clone()).collect();
    assert_eq!(points[0].str("scheme"), "Pond");
    assert_eq!(points[1].str("scheme"), "Pond+PM");
    assert_eq!(points[1].str("trace"), "Uniform");
    assert_eq!(points[2].str("scheme"), "BEACON");
    assert_eq!(points[3].str("scheme"), "RecNMP");
    assert_eq!(points[4].str("scheme"), "PIFS-Rec");
    assert_rows_match(points);
}

/// The full 40-point grid, byte-identical end to end. Release-only.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "full grid is release-only; run with --release -- --ignored"
)]
fn custom_full_grid_matches_golden_snapshot() {
    assert_rows_match(grid());
}
