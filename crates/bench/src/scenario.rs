//! The scenario registry: every paper table/figure as data.
//!
//! A [`Scenario`] describes one experiment declaratively — an id, a
//! description, a grid of [`ParamSpec`] axes — and two functions: `run`,
//! which simulates a single grid [`Point`] into one raw [`ResultRow`],
//! and `summarize`, which folds the ordered rows into the figure-shaped
//! JSON the paper comparison expects. Splitting the per-point work from
//! the aggregation is what lets the [`runner`](crate::runner) execute
//! points on a thread pool, one task per point, while keeping the
//! summary bit-identical to a serial run: rows are collected back in
//! grid order, and all
//! cross-point arithmetic (normalization, speedup ratios, baselines)
//! happens in `summarize` on that ordered sequence.
//!
//! The registry ([`registry`]) is the single source of truth for the
//! experiment-id list: the `repro` binary's `all` target, its usage
//! text, the `sweep` subcommand's scenario lookup, and `EXPERIMENTS.md`
//! consistency tests all enumerate it rather than a hand-rolled array.

use serde_json::{json, Value};

use crate::scenarios;

/// One sweepable value: every grid axis is a list of these.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// An unsigned integer knob (device counts, batch sizes, …).
    U64(u64),
    /// A floating-point knob (thresholds, fractions, …).
    F64(f64),
    /// A named knob (model, scheme, policy, trace label, …).
    Str(String),
}

impl ParamValue {
    /// Parses a command-line spelling, preferring the narrowest type:
    /// `u64`, then `f64`, then a plain string.
    pub fn parse(s: &str) -> ParamValue {
        if let Ok(v) = s.parse::<u64>() {
            ParamValue::U64(v)
        } else if let Ok(v) = s.parse::<f64>() {
            ParamValue::F64(v)
        } else {
            ParamValue::Str(s.to_string())
        }
    }

    /// The value as JSON (for JSONL rows).
    pub fn to_json(&self) -> Value {
        match self {
            ParamValue::U64(v) => json!(*v),
            ParamValue::F64(v) => json!(*v),
            ParamValue::Str(s) => json!(s.as_str()),
        }
    }
}

impl std::fmt::Display for ParamValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamValue::U64(v) => write!(f, "{v}"),
            ParamValue::F64(v) => write!(f, "{v}"),
            ParamValue::Str(s) => f.write_str(s),
        }
    }
}

/// One named grid axis and the values it takes in the default (paper)
/// sweep. Axis order is significant: grids enumerate row-major with the
/// last axis fastest, matching the nesting order of the original
/// hand-written experiment loops.
#[derive(Debug, Clone)]
pub struct ParamSpec {
    /// Axis name (`model`, `scheme`, `devices`, …).
    pub name: &'static str,
    /// Default values, in paper order.
    pub values: Vec<ParamValue>,
}

impl ParamSpec {
    /// An axis of unsigned integers.
    pub fn u64s(name: &'static str, values: impl IntoIterator<Item = u64>) -> ParamSpec {
        ParamSpec {
            name,
            values: values.into_iter().map(ParamValue::U64).collect(),
        }
    }

    /// An axis of floats.
    pub fn f64s(name: &'static str, values: impl IntoIterator<Item = f64>) -> ParamSpec {
        ParamSpec {
            name,
            values: values.into_iter().map(ParamValue::F64).collect(),
        }
    }

    /// An axis of strings.
    pub fn strs<S: Into<String>>(
        name: &'static str,
        values: impl IntoIterator<Item = S>,
    ) -> ParamSpec {
        ParamSpec {
            name,
            values: values
                .into_iter()
                .map(|s| ParamValue::Str(s.into()))
                .collect(),
        }
    }

    /// The Table I model axis shared by most scenarios.
    pub fn models() -> ParamSpec {
        Self::strs("model", ["RMC1", "RMC2", "RMC3", "RMC4"])
    }

    /// The five-scheme axis of the Fig 12 grids, in plotting order.
    pub fn schemes() -> ParamSpec {
        Self::strs(
            "scheme",
            baselines::Scheme::all()
                .iter()
                .map(|s| s.label().to_string()),
        )
    }
}

/// One fully-bound point of a scenario's grid.
#[derive(Debug, Clone)]
pub struct Point {
    /// Position in the enumerated grid (also the JSONL row order).
    pub index: usize,
    /// Deterministic per-point seed, derived from the workload seed and
    /// `index` only — independent of thread count and execution order.
    /// The paper scenarios ignore it (they pin the paper's fixed seed
    /// for bit-identical figures), and the `custom` scenario derives its
    /// trace seed from [`workload_seed`] over the workload-defining
    /// parameters instead, so that scheme/topology axes stay comparable;
    /// this index seed remains for scenarios that want per-point
    /// workload variation.
    pub seed: u64,
    params: Vec<(String, ParamValue)>,
}

impl Point {
    /// Builds a point from `(name, value)` pairs.
    pub fn new(index: usize, seed: u64, params: Vec<(String, ParamValue)>) -> Point {
        Point {
            index,
            seed,
            params,
        }
    }

    /// All parameter bindings, in axis order.
    pub fn params(&self) -> &[(String, ParamValue)] {
        &self.params
    }

    /// Looks up a parameter by name.
    pub fn get(&self, name: &str) -> Option<&ParamValue> {
        self.params.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// An integer parameter.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is missing or not an integer.
    pub fn u64(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(ParamValue::U64(v)) => *v,
            other => panic!("param {name:?}: expected u64, got {other:?}"),
        }
    }

    /// An integer parameter narrowed to `T` with `try_from`.
    ///
    /// # Panics
    ///
    /// Panics, naming the axis, if the parameter is missing, not an
    /// integer, or out of `T`'s range.
    pub fn int<T: TryFrom<u64>>(&self, name: &str) -> T {
        let v = self.u64(name);
        T::try_from(v).unwrap_or_else(|_| {
            panic!(
                "param {name:?}: {v} is out of range for {}",
                std::any::type_name::<T>()
            )
        })
    }

    /// A float parameter (integers widen losslessly where exact).
    ///
    /// # Panics
    ///
    /// Panics if the parameter is missing or not numeric.
    pub fn f64(&self, name: &str) -> f64 {
        match self.get(name) {
            Some(ParamValue::F64(v)) => *v,
            Some(ParamValue::U64(v)) => *v as f64,
            other => panic!("param {name:?}: expected f64, got {other:?}"),
        }
    }

    /// A string parameter.
    ///
    /// # Panics
    ///
    /// Panics if the parameter is missing or not a string.
    pub fn str(&self, name: &str) -> &str {
        match self.get(name) {
            Some(ParamValue::Str(s)) => s,
            other => panic!("param {name:?}: expected string, got {other:?}"),
        }
    }

    /// The Table I model bound to this point's `model` parameter, scaled
    /// to the standard workload.
    ///
    /// # Panics
    ///
    /// Panics if `model` is missing or names no Table I model.
    pub fn model(&self) -> dlrm::ModelConfig {
        let name = self.str("model");
        crate::scaled(
            dlrm::ModelConfig::by_name(name)
                .unwrap_or_else(|| panic!("param \"model\": unknown Table I model {name:?}")),
        )
    }

    /// The scheme bound to this point's `scheme` parameter.
    ///
    /// # Panics
    ///
    /// Panics if `scheme` is missing or names no scheme.
    pub fn scheme(&self) -> baselines::Scheme {
        let label = self.str("scheme");
        baselines::Scheme::all()
            .into_iter()
            .find(|s| s.label().eq_ignore_ascii_case(label))
            .unwrap_or_else(|| panic!("param \"scheme\": unknown scheme {label:?}"))
    }
}

/// The raw result of running one grid point.
#[derive(Debug, Clone)]
pub struct ResultRow {
    /// Grid index of the point that produced this row.
    pub index: usize,
    /// The point's parameter bindings (echoed into the JSONL line).
    pub params: Vec<(String, ParamValue)>,
    /// Scenario-defined measurement payload.
    pub data: Value,
}

impl ResultRow {
    /// The parameter bindings as a JSON object, in axis order.
    pub fn params_json(&self) -> Value {
        let mut params = serde_json::Map::new();
        for (name, value) in &self.params {
            params.insert(name.clone(), value.to_json());
        }
        Value::Object(params)
    }

    /// The JSONL line for this row: `{"point": .., "params": {..},
    /// "data": ..}`.
    pub fn to_jsonl(&self) -> String {
        let line = json!({
            "point": self.index,
            "params": self.params_json(),
            "data": self.data,
        });
        serde_json::to_string(&line).expect("serializable")
    }

    /// The value of parameter `name`, spelled as on the command line.
    ///
    /// # Panics
    ///
    /// Panics if the row has no such parameter.
    pub fn param(&self, name: &str) -> String {
        self.params
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.to_string())
            .unwrap_or_else(|| panic!("row carries param {name}"))
    }

    /// The numeric `data` field `key`.
    ///
    /// # Panics
    ///
    /// Panics if the row has no such numeric field.
    pub fn get_f64(&self, key: &str) -> f64 {
        self.data
            .get(key)
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("row carries {key}"))
    }

    /// Whether the row's serving run was flagged `saturated`.
    pub fn is_saturated(&self) -> bool {
        self.data.get("saturated").and_then(Value::as_bool) == Some(true)
    }
}

/// Enumerates the row-major cartesian product of `specs` (last axis
/// fastest), assigning indices and per-point seeds.
pub fn cartesian_points(specs: &[ParamSpec]) -> Vec<Point> {
    let mut points = vec![Vec::new()];
    for spec in specs {
        let mut next = Vec::with_capacity(points.len() * spec.values.len());
        for prefix in &points {
            for value in &spec.values {
                let mut p = prefix.clone();
                p.push((spec.name.to_string(), value.clone()));
                next.push(p);
            }
        }
        points = next;
    }
    points
        .into_iter()
        .enumerate()
        .map(|(i, params)| Point::new(i, point_seed(crate::SEED, i), params))
        .collect()
}

/// Derives a workload seed from the *workload-defining* parameters of a
/// point (model, trace family, …). Points that differ only in scheme or
/// topology knobs hash to the same seed and therefore simulate the
/// exact same trace — keeping sweep rows comparable across those axes —
/// while remaining deterministic and independent of grid shape, thread
/// count, and execution order.
pub fn workload_seed(base: u64, workload_params: &[&ParamValue]) -> u64 {
    // FNV-1a over the canonical spellings, splitmix-finished.
    let mut h: u64 = 0xcbf29ce484222325;
    for value in workload_params {
        for byte in value.to_string().as_bytes() {
            h = (h ^ u64::from(*byte)).wrapping_mul(0x100000001b3);
        }
        h = (h ^ 0x1f).wrapping_mul(0x100000001b3); // field separator
    }
    point_seed(base, h as usize)
}

/// Derives the deterministic seed of point `index` from `base` with a
/// splitmix64 finalizer: order- and thread-count-independent.
pub fn point_seed(base: u64, index: usize) -> u64 {
    let mut z = base
        .wrapping_add(0x9e3779b97f4a7c15)
        .wrapping_add((index as u64).wrapping_mul(0xbf58476d1ce4e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// One declarative experiment: everything the runner and the `repro`
/// binary need to execute and report it.
pub trait Scenario: Sync {
    /// Stable experiment id (`fig12a`, `table1`, …).
    fn id(&self) -> &'static str;

    /// Human title, including the paper reference and headline numbers.
    fn title(&self) -> &'static str;

    /// The sweepable axes with their default (paper) values. The `sweep`
    /// subcommand overrides these value lists to build off-paper grids.
    fn params(&self) -> Vec<ParamSpec>;

    /// The default grid, in deterministic order. The default
    /// implementation is the cartesian product of [`Scenario::params`];
    /// scenarios with anchor points outside the product (baselines the
    /// summary normalizes against) override this.
    fn points(&self) -> Vec<Point> {
        cartesian_points(&self.params())
    }

    /// Simulates one point into its raw measurement payload. Must be
    /// pure: no shared mutable state, same output for the same point
    /// regardless of which worker thread runs it.
    fn run(&self, point: &Point) -> Value;

    /// Parts in one point: always 1, the point itself. The runner
    /// schedules one task per point and calls [`Scenario::run`];
    /// `parts`, [`Scenario::run_part`] and [`Scenario::merge_parts`]
    /// stay only as these defaults because the benchmark's `run_point`
    /// (`perfbench/src/main.rs`) still calls them. No scenario
    /// overrides them.
    fn parts(&self, point: &Point) -> usize {
        let _ = point;
        1
    }

    /// Runs the sole part of `point`: [`Scenario::run`].
    fn run_part(&self, point: &Point, part: usize) -> Value {
        assert_eq!(part, 0, "a point is one part");
        self.run(point)
    }

    /// Returns the sole part's value as the point's row payload.
    fn merge_parts(&self, point: &Point, mut values: Vec<Value>) -> Value {
        let _ = point;
        assert_eq!(values.len(), 1, "a point is one part");
        values.pop().expect("one part")
    }

    /// Folds rows (in grid order) into the figure-shaped JSON.
    fn summarize(&self, rows: &[ResultRow]) -> Value;

    /// Whether `sweep` may pass parameters this scenario does not
    /// declare, forwarding them as [`SystemConfig
    /// knobs`](pifs_core::system::SystemConfig::apply_knob). Only the
    /// free-form `custom` scenario opts in.
    fn accepts_free_params(&self) -> bool {
        false
    }

    /// Whether `repro -- all` includes this scenario (everything that
    /// reproduces a paper table/figure; the free-form `custom` scenario
    /// is sweep-only).
    fn in_all(&self) -> bool {
        true
    }
}

/// A [`Scenario`] assembled from plain function pointers — the concrete
/// shape every registry entry uses.
pub struct GridScenario {
    /// See [`Scenario::id`].
    pub id: &'static str,
    /// See [`Scenario::title`].
    pub title: &'static str,
    /// See [`Scenario::params`].
    pub params: fn() -> Vec<ParamSpec>,
    /// Overrides [`Scenario::points`] when `Some` (grids with anchor
    /// points the cartesian product cannot express).
    pub points: Option<fn() -> Vec<Point>>,
    /// See [`Scenario::run`].
    pub run: fn(&Point) -> Value,
    /// See [`Scenario::summarize`].
    pub summarize: fn(&[ResultRow]) -> Value,
    /// See [`Scenario::accepts_free_params`].
    pub free_params: bool,
    /// See [`Scenario::in_all`].
    pub in_all: bool,
}

impl Scenario for GridScenario {
    fn id(&self) -> &'static str {
        self.id
    }
    fn title(&self) -> &'static str {
        self.title
    }
    fn params(&self) -> Vec<ParamSpec> {
        (self.params)()
    }
    fn points(&self) -> Vec<Point> {
        match self.points {
            Some(f) => f(),
            None => cartesian_points(&(self.params)()),
        }
    }
    fn run(&self, point: &Point) -> Value {
        (self.run)(point)
    }
    fn summarize(&self, rows: &[ResultRow]) -> Value {
        (self.summarize)(rows)
    }
    fn accepts_free_params(&self) -> bool {
        self.free_params
    }
    fn in_all(&self) -> bool {
        self.in_all
    }
}

/// Every registered scenario, in the paper's presentation order (the
/// sweep-only `custom` scenario last).
pub fn registry() -> Vec<&'static dyn Scenario> {
    scenarios::all()
}

/// Looks up a scenario by id.
pub fn find(id: &str) -> Option<&'static dyn Scenario> {
    registry().into_iter().find(|s| s.id() == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cartesian_enumeration_is_row_major_last_axis_fastest() {
        let specs = [
            ParamSpec::strs("a", ["x", "y"]),
            ParamSpec::u64s("b", [1, 2, 3]),
        ];
        let points = cartesian_points(&specs);
        assert_eq!(points.len(), 6);
        assert_eq!(points[0].str("a"), "x");
        assert_eq!(points[0].u64("b"), 1);
        assert_eq!(points[1].u64("b"), 2);
        assert_eq!(points[3].str("a"), "y");
        assert_eq!(points[3].u64("b"), 1);
        assert_eq!(points[5].index, 5);
    }

    #[test]
    fn point_seeds_depend_only_on_base_and_index() {
        assert_eq!(point_seed(2024, 7), point_seed(2024, 7));
        assert_ne!(point_seed(2024, 7), point_seed(2024, 8));
        assert_ne!(point_seed(2024, 7), point_seed(2025, 7));
    }

    #[test]
    fn registry_ids_are_unique_and_resolvable() {
        let reg = registry();
        let mut ids: Vec<&str> = reg.iter().map(|s| s.id()).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate scenario ids");
        for s in &reg {
            assert!(find(s.id()).is_some(), "id {:?} must resolve", s.id());
        }
        assert!(find("no_such_experiment").is_none());
    }

    #[test]
    fn paramvalue_parse_prefers_narrowest_type() {
        assert_eq!(ParamValue::parse("42"), ParamValue::U64(42));
        assert_eq!(ParamValue::parse("0.35"), ParamValue::F64(0.35));
        assert_eq!(ParamValue::parse("RMC1"), ParamValue::Str("RMC1".into()));
    }
}
