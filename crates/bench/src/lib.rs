//! `pifs-bench` — shared plumbing for the figure-reproduction harness.
//!
//! The `repro` binary regenerates every table and figure in the paper's
//! evaluation. Three layers live here:
//!
//! * this module — the *scaled standard workload* every experiment uses
//!   (Table I ratios preserved, absolute sizes shrunk 16× so a laptop
//!   regenerates the full suite in minutes) and the result-emission
//!   format recorded in `EXPERIMENTS.md`;
//! * [`scenario`] / [`scenarios`] — every experiment declared as data: a
//!   parameter grid, a per-point `run`, and a `summarize` fold (the
//!   registry is the single source of truth for the experiment-id list);
//! * [`runner`] — the multi-threaded sweep pool that executes grid
//!   points across cores with deterministic per-point seeding and
//!   ordered, thread-count-independent result collection.

#![warn(missing_docs)]

pub mod runner;
pub mod scenario;
pub mod scenarios;

use dlrm::ModelConfig;
use pifs_core::system::{RunMetrics, SlsSystem, SystemConfig};
use tracegen::{Distribution, Trace, TraceSpec};

/// Embedding-count scale-down applied to every Table I model.
pub const MODEL_SCALE: u64 = 16;

/// Batches per standard run.
pub const STD_BATCHES: u32 = 12;

/// Samples per batch in the standard run.
pub const STD_BATCH_SIZE: u32 = 32;

/// Workload seed (all runs are deterministic).
pub const SEED: u64 = 2024;

/// The standard scaled version of a Table I model.
pub fn scaled(model: ModelConfig) -> ModelConfig {
    model.scaled_down(MODEL_SCALE)
}

/// The Meta-like trace used wherever the paper uses the Meta traces.
pub fn meta_distribution() -> Distribution {
    Distribution::MetaLike {
        reuse_frac: 0.35,
        s: 1.05,
    }
}

/// The trace recipe for `model`: `n_batches` batches of `batch_size`
/// samples drawn from `dist` over the model's whole row space, with the
/// model's bag size, seeded with `seed`.
pub(crate) fn trace_spec(
    model: &ModelConfig,
    dist: Distribution,
    batch_size: u32,
    n_batches: u32,
    seed: u64,
) -> TraceSpec {
    TraceSpec {
        distribution: dist,
        n_tables: model.n_tables,
        rows_per_table: model.emb_num,
        batch_size,
        n_batches,
        bag_size: model.bag_size,
        seed,
    }
}

/// Builds a trace for `model` with the standard dimensions.
pub fn std_trace(model: &ModelConfig, dist: Distribution, batch_size: u32, batches: u32) -> Trace {
    trace_spec(model, dist, batch_size, batches, SEED).generate()
}

/// Scales buffer capacities down with the model so cache-to-footprint
/// ratios match the unscaled system (a 512 KB SRAM against a 16x-scaled
/// table would otherwise cache a wildly larger working-set share than
/// the paper's hardware could).
pub fn scale_buffers(mut cfg: SystemConfig) -> SystemConfig {
    if let Some(b) = cfg.buffer.as_mut() {
        b.capacity_bytes = (b.capacity_bytes / MODEL_SCALE).max(16 * 1024);
    }
    cfg
}

/// Standard warmup applied to every measured experiment: four batches to
/// learn the hot set and settle placement, then measure steady state.
pub fn with_warmup(mut cfg: SystemConfig) -> SystemConfig {
    cfg.warmup_batches = 4;
    cfg
}

/// Runs `cfg` over the standard Meta-like trace.
pub fn run_std(cfg: SystemConfig) -> RunMetrics {
    let trace = std_trace(&cfg.model, meta_distribution(), STD_BATCH_SIZE, STD_BATCHES);
    SlsSystem::new(with_warmup(cfg)).run_trace(&trace)
}

/// Runs `cfg` over an explicit trace.
pub fn run_with(cfg: SystemConfig, trace: &Trace) -> RunMetrics {
    SlsSystem::new(cfg).run_trace(trace)
}

/// Emits one experiment's result: pretty table on stdout plus
/// `results/<id>.json` for EXPERIMENTS.md bookkeeping.
pub fn emit(id: &str, title: &str, value: &serde_json::Value) {
    println!("== {id}: {title} ==");
    println!(
        "{}",
        serde_json::to_string_pretty(value).expect("serializable")
    );
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{id}.json"));
        let _ = std::fs::write(
            &path,
            serde_json::to_vec_pretty(value).expect("serializable"),
        );
        println!("-> wrote {}", path.display());
    }
    println!();
}

/// Writes one experiment's raw sweep rows as `results/<id>.jsonl` — one
/// compact JSON object per grid point, in grid order — and announces the
/// path. The scenario's `summarize` output (via [`emit`]) is derived
/// from exactly these rows, so the pair documents both the measurements
/// and the figure built from them.
pub fn emit_jsonl(id: &str, rows: &[scenario::ResultRow]) {
    let dir = std::path::Path::new("results");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{id}.jsonl"));
        let mut out = String::new();
        for row in rows {
            out.push_str(&row.to_jsonl());
            out.push('\n');
        }
        if std::fs::write(&path, out).is_ok() {
            println!("-> wrote {}", path.display());
        }
    }
}

/// Min-max normalization matching the paper's Fig 12 caption.
pub fn min_max(xs: &[f64]) -> Vec<f64> {
    simkit::stats::min_max_normalize(xs)
}

/// Normalizes by the series maximum.
pub fn by_max(xs: &[f64]) -> Vec<f64> {
    simkit::stats::max_normalize(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_models_preserve_ratios() {
        let full = ModelConfig::all();
        let small: Vec<ModelConfig> = full.iter().cloned().map(scaled).collect();
        for (f, s) in full.iter().zip(&small) {
            assert_eq!(f.emb_dim, s.emb_dim);
            assert_eq!(f.n_tables, s.n_tables);
            assert_eq!(s.emb_num, f.emb_num / MODEL_SCALE);
        }
    }

    #[test]
    fn std_run_is_deterministic() {
        let cfg = || SystemConfig::pifs_rec(scaled(ModelConfig::rmc1()));
        let a = run_std(cfg());
        let b = run_std(cfg());
        assert_eq!(a.total_ns, b.total_ns);
    }

    #[test]
    fn normalization_helpers_behave() {
        assert_eq!(min_max(&[1.0, 3.0]), vec![0.0, 1.0]);
        assert_eq!(by_max(&[1.0, 2.0]), vec![0.5, 1.0]);
    }
}
