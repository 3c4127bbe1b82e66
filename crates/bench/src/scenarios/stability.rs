//! The serving families' shared recipe and saturation-knee /
//! stable-throughput detection.
//!
//! The `latency_qps`/`latency_wait`, `latency_adaptive`,
//! `latency_diurnal`, `cluster_qps` and `cluster_faults` scenarios
//! serve one workload recipe and judge it by one set of rules; this
//! module holds both, so the families cannot drift apart:
//!
//! * the batcher floor `MAX_WAIT_US`, the saturation rule
//!   (`SATURATION_FRAC`, `saturated`, `empirical_qps`) and the p99 SLA
//!   `P99_SLA_NS`;
//! * `serving_workload` — a point's trace recipe and arrival seed,
//!   derived so points differing only in engine knobs serve the
//!   identical workload;
//! * [`curves`] — the grouping of a summary's rows into ascending-qps
//!   curves.
//!
//! The summaries reduce an ascending-qps curve to the same two headline
//! numbers, with honest `None`s for the degenerate sweeps (serialized
//! as JSON `null`): a single-point sweep (`--param qps=X`) has no knee,
//! and an all-saturated sweep has no stable operating point — not a
//! measured zero-throughput one:
//!
//! * [`knee_qps`] — the first offered rate where the curve leaves the
//!   stable regime. `None` when the sweep cannot establish one: fewer
//!   than two points (no curve), a first point already saturated (no
//!   baseline p99 to compare against), or no point ever saturating.
//! * [`max_stable_qps`] — the best rate among stable points. `None`
//!   when no point is stable at all.

use dlrm::ModelConfig;
use serde_json::Value;
use tracegen::TraceSpec;

use crate::scenario::{workload_seed, ParamValue, Point, ResultRow};
use crate::STD_BATCH_SIZE;

/// Batcher max-wait of every serving family, µs. Far below the engine
/// default of 50 µs, so the low-load batching floor sits well under the
/// queueing delays the sweeps exist to expose.
pub(crate) const MAX_WAIT_US: &str = "10";

/// An achieved rate below this fraction of the *empirical* offered
/// rate (queries over the realized arrival span, not the nominal
/// process rate — Poisson spans vary several percent at these stream
/// lengths) marks saturation. Equivalently: the engine needed more
/// than `1/0.90` of the arrival span to drain everything. The 10 %
/// slack absorbs the constant drain tail (one max-wait plus one batch
/// service) that short streams would otherwise misreport as overload.
pub(crate) const SATURATION_FRAC: f64 = 0.90;

/// The p99 SLA of the under-SLA frontiers and the capacity plan, ns. Set
/// at 2× the scaled-RMC1 single-node batching floor (p99 ≈ 11–12 µs at
/// light load with the [`MAX_WAIT_US`] floor), so a point meets the SLA
/// only while queueing delay stays comparable to the batching delay —
/// the pre-knee regime. The engine's default `serving.sla_us` matches.
pub(crate) const P99_SLA_NS: f64 = 25_000.0;

/// A serving point's workload for `model` (the point's own model): the
/// Meta-like trace recipe of `n_batches` batches of [`STD_BATCH_SIZE`]
/// samples, seeded from the `model` parameter alone, and the arrival
/// seed, derived from the `model`, the `process_axis` parameter (the
/// arrival-process axis, when the family has one) and the `qps`
/// parameter. Points differing only in scheme, batcher, controller,
/// fleet or fault knobs therefore serve the same queries at the same
/// instants.
///
/// # Panics
///
/// Panics if the point lacks one of those parameters.
pub(crate) fn serving_workload(
    p: &Point,
    model: &ModelConfig,
    n_batches: u32,
    process_axis: Option<&str>,
) -> (TraceSpec, u64) {
    let param = |name: &str| {
        p.get(name)
            .unwrap_or_else(|| panic!("{name} param missing"))
    };
    let (name, qps) = (param("model"), param("qps"));
    let arrival_seed = match process_axis {
        Some(axis) => workload_seed(crate::SEED, &[name, param(axis), qps]),
        None => workload_seed(crate::SEED, &[name, qps]),
    };
    let trace = crate::trace_spec(
        model,
        crate::meta_distribution(),
        STD_BATCH_SIZE,
        n_batches,
        workload_seed(crate::SEED, &[name]),
    );
    (trace, arrival_seed)
}

/// Whether a run fell behind its offered load: the last arrival came
/// before [`SATURATION_FRAC`] of the makespan.
pub(crate) fn saturated(last_arrival_ns: u64, makespan_ns: u64) -> bool {
    (last_arrival_ns as f64) < SATURATION_FRAC * makespan_ns as f64
}

/// The realized offered rate: `queries` over the arrival span, per
/// second (0.0 for a zero-length span).
pub(crate) fn empirical_qps(queries: u64, last_arrival_ns: u64) -> f64 {
    if last_arrival_ns == 0 {
        0.0
    } else {
        queries as f64 * 1e9 / last_arrival_ns as f64
    }
}

/// Splits rows into curves: the maximal contiguous runs whose
/// parameters other than `qps` agree, in grid order. `qps` is the
/// innermost axis of every serving family, so each curve ascends in
/// offered rate.
pub fn curves(rows: &[ResultRow]) -> Vec<&[ResultRow]> {
    fn off_qps(r: &ResultRow) -> impl Iterator<Item = &(String, ParamValue)> {
        r.params.iter().filter(|(n, _)| n != "qps")
    }
    rows.chunk_by(|a, b| off_qps(a).eq(off_qps(b))).collect()
}

/// One point of an ascending-rate sweep, as the stability reducers see
/// it: the rate the point contributes if it is stable (achieved or
/// offered QPS — the caller's convention), its tail latency, and
/// whether the caller's stability predicate already rejected it.
#[derive(Debug, Clone, Copy)]
pub struct StabilityPoint {
    /// The rate this point contributes to [`max_stable_qps`].
    pub stable_qps: f64,
    /// The offered rate [`knee_qps`] reports if the knee lands here.
    pub offered_qps: f64,
    /// Tail latency, ns (the knee's 2× baseline comparison).
    pub p99_ns: f64,
    /// Whether the point failed the caller's stability predicate
    /// (saturation for the latency families; saturation + SLA +
    /// availability for the fault frontier).
    pub saturated: bool,
}

/// The first offered rate whose point is saturated or whose p99
/// exceeds twice the first point's p99 — the saturation knee of an
/// ascending-qps curve.
///
/// Honest `None`s instead of misleading knees: a sweep with fewer than
/// two points has no curve to knee; a sweep whose *first* point is
/// already saturated has no stable baseline (every point would
/// trivially "knee" at index 0); a sweep that never saturates has no
/// knee to report.
pub fn knee_qps(points: &[StabilityPoint]) -> Option<f64> {
    if points.len() < 2 || points[0].saturated {
        return None;
    }
    let base_p99 = points[0].p99_ns;
    points
        .iter()
        .position(|p| p.saturated || p.p99_ns > 2.0 * base_p99)
        .map(|i| points[i].offered_qps)
}

/// The best `stable_qps` among unsaturated points, or `None` when the
/// sweep has no stable point at all (everything saturated / over SLA)
/// — distinguishing "no stable operating point was found" from an
/// actual measured rate of zero.
pub fn max_stable_qps(points: &[StabilityPoint]) -> Option<f64> {
    points
        .iter()
        .filter(|p| !p.saturated)
        .map(|p| p.stable_qps)
        .fold(None, |acc: Option<f64>, q| {
            Some(acc.map_or(q, |a| a.max(q)))
        })
}

/// Both reducers as the JSON values the summaries embed (`null` for
/// the honest-`None` cases).
pub fn stability_json(points: &[StabilityPoint]) -> (Value, Value) {
    (
        knee_qps(points).map_or(Value::Null, Value::from),
        max_stable_qps(points).map_or(Value::Null, Value::from),
    )
}

/// Builds the stability view of one ascending-qps serving curve from
/// the standard open-loop row shape (`offered_qps` / `achieved_qps` /
/// `p99_ns` / `saturated` data fields) — the shared convention of the
/// `latency`, `cluster` and `adaptive` scenario families. `stable_qps`
/// is the *achieved* rate (what the system actually served while
/// stable), `offered_qps` the knee's reporting axis.
pub fn serving_points(group: &[ResultRow]) -> Vec<StabilityPoint> {
    group
        .iter()
        .map(|r| {
            let f = |key: &str| {
                r.data
                    .get(key)
                    .and_then(Value::as_f64)
                    .unwrap_or_else(|| panic!("row carries {key}"))
            };
            StabilityPoint {
                stable_qps: f("achieved_qps"),
                offered_qps: f("offered_qps"),
                p99_ns: f("p99_ns"),
                saturated: r.data.get("saturated").and_then(Value::as_bool) == Some(true),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(offered: f64, achieved: f64, p99: f64, saturated: bool) -> StabilityPoint {
        StabilityPoint {
            stable_qps: achieved,
            offered_qps: offered,
            p99_ns: p99,
            saturated,
        }
    }

    #[test]
    fn normal_curve_knees_at_the_first_saturated_point() {
        let curve = [
            pt(1e6, 0.99e6, 5_000.0, false),
            pt(2e6, 1.98e6, 6_000.0, false),
            pt(4e6, 3.10e6, 40_000.0, true),
            pt(8e6, 3.20e6, 900_000.0, true),
        ];
        assert_eq!(knee_qps(&curve), Some(4e6));
        assert_eq!(max_stable_qps(&curve), Some(1.98e6));
    }

    #[test]
    fn p99_blowup_knees_before_saturation() {
        let curve = [
            pt(1e6, 0.99e6, 5_000.0, false),
            pt(2e6, 1.97e6, 11_000.0, false), // > 2 x 5_000: queueing bite
            pt(4e6, 3.10e6, 40_000.0, true),
        ];
        assert_eq!(knee_qps(&curve), Some(2e6));
    }

    #[test]
    fn single_point_sweeps_have_no_knee() {
        // A user --param grid with one qps value: no curve, no knee —
        // whether the point is stable or not.
        assert_eq!(knee_qps(&[pt(4e6, 3.1e6, 40_000.0, true)]), None);
        assert_eq!(knee_qps(&[pt(1e6, 0.99e6, 5_000.0, false)]), None);
        // max_stable is still meaningful for a single stable point.
        assert_eq!(
            max_stable_qps(&[pt(1e6, 0.99e6, 5_000.0, false)]),
            Some(0.99e6)
        );
    }

    #[test]
    fn all_saturated_sweeps_are_null_not_zero() {
        let curve = [
            pt(16e6, 3.1e6, 500_000.0, true),
            pt(32e6, 3.2e6, 900_000.0, true),
        ];
        // First point saturated: no baseline, no knee.
        assert_eq!(knee_qps(&curve), None);
        // No stable point: null, not a fake 0.0 "operating point".
        assert_eq!(max_stable_qps(&curve), None);
        let (knee, stable) = stability_json(&curve);
        assert_eq!(knee, Value::Null);
        assert_eq!(stable, Value::Null);
    }

    #[test]
    fn never_saturating_sweeps_have_no_knee_but_a_frontier() {
        let curve = [
            pt(1e6, 0.99e6, 5_000.0, false),
            pt(2e6, 1.98e6, 6_000.0, false),
        ];
        assert_eq!(knee_qps(&curve), None);
        assert_eq!(max_stable_qps(&curve), Some(1.98e6));
    }

    #[test]
    fn empty_sweep_is_all_null() {
        assert_eq!(knee_qps(&[]), None);
        assert_eq!(max_stable_qps(&[]), None);
    }
}
