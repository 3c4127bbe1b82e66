//! Page-management scenarios (§IV-B / Fig 13): migration-threshold and
//! cold-age sweeps plus the device-balance before/after study.

use pagemgmt::{InitialPlacement, MigrationGranularity};
use pifs_core::system::{PmConfig, PmStyle, SystemConfig};
use serde_json::{json, Value};
use tracegen::Distribution;

use crate::scenario::{GridScenario, ParamSpec, ParamValue, ResultRow};
use crate::{run_std, run_with, scale_buffers, std_trace, STD_BATCH_SIZE};

/// Fig 13a: migrate-threshold sweep at both migration granularities.
pub static FIG13A: GridScenario = GridScenario {
    id: "fig13a",
    title: "Migrate-threshold sweep (Fig 13a; paper optimum 35%, cache-line up to 5.1x cheaper)",
    params: || {
        vec![
            ParamSpec::strs("model", ["RMC4"]),
            ParamSpec::f64s(
                "threshold",
                [0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50],
            ),
            ParamSpec::strs("granularity", ["cache_line", "page_block"]),
        ]
    },
    points: None,
    run: |p| {
        let m = p.model();
        let gran = match p.str("granularity") {
            "cache_line" => MigrationGranularity::CacheLineBlock,
            "page_block" => MigrationGranularity::PageBlock,
            other => panic!("param \"granularity\": unknown granularity {other:?}"),
        };
        let mut cfg = SystemConfig::pifs_rec(m);
        cfg.page_mgmt = Some(PmConfig {
            migrate_threshold: p.f64("threshold"),
            granularity: gran,
            ..PmConfig::default()
        });
        let met = run_std(cfg);
        json!({
            "latency_ns": met.total_ns,
            "migration_cost": met.migration_cost_frac(),
        })
    },
    summarize: |rows| {
        let mut out = Vec::new();
        for chunk in rows.chunks(2) {
            let mut row = serde_json::Map::new();
            row.insert("threshold".into(), chunk[0].params[1].1.to_json());
            for r in chunk {
                let label = r.params[2].1.to_string();
                row.insert(
                    format!("{label}_latency_ns"),
                    r.data.get("latency_ns").expect("latency_ns").clone(),
                );
                row.insert(
                    format!("{label}_migration_cost"),
                    r.data
                        .get("migration_cost")
                        .expect("migration_cost")
                        .clone(),
                );
            }
            out.push(Value::Object(row));
        }
        Value::Array(out)
    },
    free_params: false,
    in_all: true,
};

/// Fig 13b: per-device access balance with and without page management.
pub static FIG13B: GridScenario = GridScenario {
    id: "fig13b",
    title: "Device access balance before/after PM (Fig 13b; paper std dev 20.6 -> 7.8)",
    params: || {
        vec![
            ParamSpec::strs("model", ["RMC4"]),
            ParamSpec::strs("phase", ["before", "after"]),
        ]
    },
    points: None,
    run: |p| {
        let m = p.model();
        // The "before" system inherits the Fig 10(b) worst case: tables
        // laid out in contiguous blocks, concentrating the workload's
        // spatial hotspot on a few devices.
        let n_pages = SystemConfig::pifs_rec(m.clone()).n_pages();
        let dist = Distribution::ZipfianHead { s: 0.8 };
        // Longer run: the spreading strategy rebalances periodically, so
        // give it several rebalance rounds before measuring.
        let trace = std_trace(&m, dist, STD_BATCH_SIZE, 36);
        let mut cfg = scale_buffers(SystemConfig::pifs_rec(m));
        cfg.n_devices = 16;
        cfg.placement = InitialPlacement::AllCxlBlocked {
            total_pages: n_pages,
        };
        cfg.warmup_batches = 24;
        if p.str("phase") == "before" {
            cfg.page_mgmt = None;
        }
        let met = run_with(cfg, &trace);
        json!({ "accesses": met.device_accesses })
    },
    summarize: |rows| {
        let accesses = |row: &ResultRow| -> Vec<u64> {
            row.data
                .get("accesses")
                .and_then(Value::as_array)
                .expect("accesses array")
                .iter()
                .map(|v| v.as_u64().expect("access count"))
                .collect()
        };
        // The paper plots *relative* access frequency (percent of the
        // busiest device) and quotes the std dev of that series.
        let rel = |v: &Vec<u64>| {
            let max = (*v.iter().max().unwrap_or(&1)).max(1) as f64;
            v.iter()
                .map(|&x| x as f64 / max * 100.0)
                .collect::<Vec<f64>>()
        };
        // Coefficient of variation (std dev as % of mean): comparable
        // across runs whose total CXL traffic differs (PM also promotes
        // pages away from CXL, shrinking the absolute counts).
        let std_of = |v: &Vec<u64>| {
            let xs: Vec<f64> = v.iter().map(|&x| x as f64).collect();
            let s = simkit::Summary::of(&xs);
            if s.mean > 0.0 {
                s.std_dev / s.mean * 100.0
            } else {
                0.0
            }
        };
        let phase = |row: &ResultRow| {
            let v = accesses(row);
            json!({
                "accesses": v.clone(),
                "relative": rel(&v),
                "cv_percent": std_of(&v),
            })
        };
        json!({ "before": phase(&rows[0]), "after": phase(&rows[1]) })
    },
    free_params: false,
    in_all: true,
};

/// Fig 13d: cold-age demotion threshold sweep vs the TPP baseline.
pub static FIG13D: GridScenario = GridScenario {
    id: "fig13d",
    title: "Cold-age threshold sweep vs TPP (Fig 13d; paper optimum 16%, 12% below TPP)",
    params: || {
        vec![
            ParamSpec::strs("model", ["RMC4"]),
            ParamSpec {
                name: "policy",
                values: std::iter::once(ParamValue::Str("TPP".into()))
                    .chain(
                        [0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16, 0.18, 0.20]
                            .into_iter()
                            .map(ParamValue::F64),
                    )
                    .collect(),
            },
        ]
    },
    points: None,
    run: |p| {
        let m = p.model();
        let mut cfg = SystemConfig::pifs_rec(m);
        cfg.page_mgmt = Some(match p.get("policy") {
            Some(ParamValue::Str(s)) if s == "TPP" => PmConfig {
                style: PmStyle::Tpp,
                ..PmConfig::default()
            },
            Some(ParamValue::F64(t)) => PmConfig {
                cold_age_threshold: *t,
                ..PmConfig::default()
            },
            other => panic!("param \"policy\": expected \"TPP\" or a threshold, got {other:?}"),
        });
        let met = run_std(cfg);
        json!({
            "latency_ns": met.total_ns,
            "migration_cost": met.migration_cost_frac(),
        })
    },
    summarize: |rows| {
        let out: Vec<Value> = rows
            .iter()
            .map(|r| {
                let label = match &r.params[1].1 {
                    ParamValue::Str(s) => s.clone(),
                    ParamValue::F64(t) => format!("{}%", (t * 100.0).round() as u32),
                    ParamValue::U64(t) => format!("{t}%"),
                };
                json!({
                    "policy": label,
                    "latency_ns": r.data.get("latency_ns").expect("latency_ns").clone(),
                    "migration_cost": r.data.get("migration_cost").expect("migration_cost").clone(),
                })
            })
            .collect();
        Value::Array(out)
    },
    free_params: false,
    in_all: true,
};
