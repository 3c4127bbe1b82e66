//! The Fig 12 scheme grids: every baseline scheme crossed with models,
//! trace families, device counts, DRAM capacities, and the ablation
//! ladder.

use baselines::Scheme;
use dlrm::ModelConfig;
use pagemgmt::InitialPlacement;
use pifs_core::system::{ComputeSite, PmConfig, SystemConfig};
use serde_json::{json, Value};
use tracegen::Distribution;

use crate::scenario::{distribution, word, GridScenario, ParamSpec, ParamValue, ResultRow};
use crate::{run_std, run_with, scale_buffers, std_trace, STD_BATCHES, STD_BATCH_SIZE};

/// Extracts `total_ns` from a row as the f64 the legacy harness used.
pub(crate) fn lat_ns(row: &ResultRow) -> f64 {
    row.data
        .get("total_ns")
        .and_then(Value::as_u64)
        .expect("row carries total_ns") as f64
}

/// Fig 12a: scheme latency per model.
pub static FIG12A: GridScenario = GridScenario {
    id: "fig12a",
    title: "Scheme latency per model (Fig 12a; paper: Pond 3.89x, Pond+PM 3.57x, BEACON 2.03x, RecNMP ~1.09x over PIFS-Rec)",
    params: || vec![ParamSpec::models(), ParamSpec::schemes()],
    points: None,
    run: |p| {
        let m = p.model();
        let met = run_std(scale_buffers(p.scheme().config(m)));
        json!({ "total_ns": met.total_ns })
    },
    summarize: |rows| {
        let mut per_model = serde_json::Map::new();
        let mut ratios = serde_json::Map::new();
        for chunk in rows.chunks(Scheme::all().len()) {
            let name = chunk[0].params[0].1.to_string();
            let lat: Vec<f64> = chunk.iter().map(lat_ns).collect();
            let labels: Vec<String> = Scheme::all().iter().map(|s| s.label().into()).collect();
            let norm = simkit::stats::max_normalize(&lat);
            let pifs = lat[4];
            ratios.insert(
                name.clone(),
                json!({
                    "pond_over_pifs": lat[0] / pifs,
                    "pond_pm_over_pifs": lat[1] / pifs,
                    "beacon_over_pifs": lat[2] / pifs,
                    "recnmp_over_pifs": lat[3] / pifs,
                }),
            );
            per_model.insert(
                name,
                json!({ "schemes": labels, "latency_ns": lat, "normalized": norm }),
            );
        }
        json!({ "models": per_model, "speedups": ratios })
    },
    free_params: false,
    in_all: true,
};

/// Fig 12b: scheme latency across trace distribution families.
pub static FIG12B: GridScenario = GridScenario {
    id: "fig12b",
    title: "Trace generality (Fig 12b)",
    params: || {
        vec![
            ParamSpec::model(["RMC3"]),
            ParamSpec::traces(
                Distribution::fig12b_suite()
                    .into_iter()
                    .map(|(label, _)| label),
            ),
            ParamSpec::schemes(),
        ]
    },
    points: None,
    run: |p| {
        let m = p.model();
        let dist = distribution(p.str("trace")).expect("checked at grid time");
        let trace = std_trace(&m, dist, STD_BATCH_SIZE, STD_BATCHES);
        let met = run_with(scale_buffers(p.scheme().config(m)), &trace);
        json!({ "total_ns": met.total_ns })
    },
    summarize: |rows| {
        let mut out = Vec::new();
        for chunk in rows.chunks(Scheme::all().len()) {
            let label = chunk[0].params[1].1.to_string();
            let lat: Vec<f64> = chunk.iter().map(lat_ns).collect();
            out.push(json!({
                "trace": label,
                "latency_ns": lat,
                "normalized": simkit::stats::max_normalize(&lat),
                "pifs_speedup_vs_pond": lat[0] / lat[4],
                "pifs_speedup_vs_beacon": lat[2] / lat[4],
            }));
        }
        Value::Array(out)
    },
    free_params: false,
    in_all: true,
};

/// Fig 12c: scheme latency as the CXL device pool grows.
pub static FIG12C: GridScenario = GridScenario {
    id: "fig12c",
    title: "Memory-device scaling (Fig 12c; paper: 12.5x over Pond at 16 devices)",
    params: || {
        vec![
            ParamSpec::model(["RMC4"]),
            ParamSpec::ints::<1, { u16::MAX as u64 }>("devices", [2, 4, 8, 16]),
            ParamSpec::schemes(),
        ]
    },
    points: None,
    run: |p| {
        let m = p.model();
        let mut cfg = scale_buffers(p.scheme().config(m));
        cfg.n_devices = p.int("devices");
        json!({ "total_ns": run_std(cfg).total_ns })
    },
    summarize: |rows| {
        let mut out = Vec::new();
        for chunk in rows.chunks(Scheme::all().len()) {
            let devices = chunk[0].params[1]
                .1
                .to_json()
                .as_u64()
                .expect("devices is integral");
            let lat: Vec<f64> = chunk.iter().map(lat_ns).collect();
            out.push(json!({
                "devices": devices,
                "latency_ns": lat,
                "normalized": simkit::stats::max_normalize(&lat),
                "pifs_speedup_vs_pond": lat[0] / lat[4],
            }));
        }
        Value::Array(out)
    },
    free_params: false,
    in_all: true,
};

/// Fig 12d: scheme latency vs local-DRAM capacity.
pub static FIG12D: GridScenario = GridScenario {
    id: "fig12d",
    title: "DRAM capacity sensitivity (Fig 12d; paper: 256GB +4%, 512GB +6%)",
    params: || {
        vec![
            ParamSpec::model(["RMC4"]),
            ParamSpec::strs("dram", ["128GB", "X2", "X4"], |v| dram_frac(v).map(drop)),
            ParamSpec::schemes(),
        ]
    },
    points: None,
    run: |p| {
        let m = p.model();
        let mut cfg = scale_buffers(p.scheme().config(m));
        cfg.local_capacity_frac =
            dram_frac(p.get("dram").expect("axis bound")).expect("checked at grid time");
        json!({ "total_ns": run_std(cfg).total_ns })
    },
    summarize: |rows| {
        let mut out = Vec::new();
        for chunk in rows.chunks(Scheme::all().len()) {
            let label = chunk[0].params[1].1.to_string();
            let lat: Vec<f64> = chunk.iter().map(lat_ns).collect();
            out.push(json!({
                "dram": label,
                "latency_ns": lat,
                "normalized": simkit::stats::max_normalize(&lat),
            }));
        }
        Value::Array(out)
    },
    free_params: false,
    in_all: true,
};

/// The local-DRAM working-set fraction of a Fig 12d `dram` value: a
/// capacity label, or a bare fraction in [0, 1] (above 1 the whole
/// working set fits, the same system as 1).
fn dram_frac(value: &ParamValue) -> Result<f64, String> {
    match value {
        ParamValue::Str(label) => match label.as_str() {
            "128GB" => Ok(0.2),
            "X2" => Ok(0.4),
            "X4" => Ok(0.8),
            other => Err(format!("unknown capacity {other:?} (128GB|X2|X4|fraction)")),
        },
        fraction => fraction.fraction(),
    }
}

/// The Fig 12e ablation stages, in cumulative-feature order.
const STAGES: [&str; 5] = ["Baseline", "PC", "PC/OoO", "PC/OoO/PM", "PC/OoO/PM/OSB"];

/// The rung of [`ablation_ladder`] that `stage` names.
fn rung(stage: &str) -> Result<usize, String> {
    STAGES
        .iter()
        .position(|s| *s == stage)
        .ok_or_else(|| format!("unknown ablation stage {stage:?} ({})", STAGES.join("|")))
}

/// The Fig 12e ablation ladder, one config per [`STAGES`] entry.
fn ablation_ladder(m: &ModelConfig) -> Vec<SystemConfig> {
    let pond = SystemConfig::pond(m.clone());
    let mut pc = SystemConfig::pond(m.clone());
    pc.compute = ComputeSite::Switch;
    let mut pc_ooo = pc.clone();
    pc_ooo.ooo = true;
    let mut pc_ooo_pm = pc_ooo.clone();
    pc_ooo_pm.placement = InitialPlacement::CxlFraction { cxl_frac: 0.8 };
    pc_ooo_pm.page_mgmt = Some(PmConfig::default());
    let mut full = pc_ooo_pm.clone();
    full.buffer = Some(Default::default());
    vec![pond, pc, pc_ooo, pc_ooo_pm, full]
}

/// Fig 12e: the feature-ablation ladder per model.
pub static FIG12E: GridScenario = GridScenario {
    id: "fig12e",
    title: "Ablation ladder (Fig 12e; paper deltas: PC +26%, OoO +7.3%, PM +27%, OSB +15%)",
    params: || {
        vec![
            ParamSpec::models(),
            ParamSpec::strs("stage", STAGES, |v| word(v, rung)),
        ]
    },
    points: None,
    run: |p| {
        let rung = rung(p.str("stage")).expect("checked at grid time");
        let cfg = ablation_ladder(&p.model()).swap_remove(rung);
        json!({ "total_ns": run_std(cfg).total_ns })
    },
    summarize: |rows| {
        let mut per_model = serde_json::Map::new();
        for chunk in rows.chunks(5) {
            let name = chunk[0].params[0].1.to_string();
            let stages: Vec<String> = chunk.iter().map(|r| r.params[1].1.to_string()).collect();
            let lat: Vec<f64> = chunk.iter().map(lat_ns).collect();
            per_model.insert(
                name,
                json!({
                    "stages": stages,
                    "latency_ns": lat,
                    "normalized": simkit::stats::max_normalize(&lat),
                }),
            );
        }
        Value::Object(per_model)
    },
    free_params: false,
    in_all: true,
};
