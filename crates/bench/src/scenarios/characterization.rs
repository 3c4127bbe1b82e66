//! Characterization scenarios (§III): host-compute lookups over static
//! placements — Fig 5's table-size sweep and Fig 6's CXL bandwidth
//! contribution.

use dlrm::{ModelConfig, ThreadingMode};
use pagemgmt::InitialPlacement;
use pifs_core::system::{RunMetrics, SystemConfig};
use serde_json::{json, Value};

use crate::scenario::{point_seed, GridScenario, ParamSpec, ParamValue, Point, ResultRow};

/// Characterization base: host-compute lookups over a given placement.
fn characterization_cfg(
    emb_dim: u32,
    rows: u64,
    placement: InitialPlacement,
    threading: ThreadingMode,
) -> SystemConfig {
    let model = ModelConfig {
        name: format!("char-{emb_dim}d"),
        emb_num: rows,
        emb_dim,
        n_tables: 8,
        bag_size: 8,
        ..ModelConfig::rmc1()
    };
    let mut cfg = SystemConfig::pond(model);
    cfg.placement = placement;
    cfg.threading = threading;
    cfg.local_capacity_frac = 1.1; // capacity never binds in Fig 5
    cfg
}

/// Runs `cfg` over the short characterization trace (16-sample batches).
pub(crate) fn run_small(cfg: SystemConfig) -> RunMetrics {
    let trace = crate::std_trace(&cfg.model, crate::meta_distribution(), 16, 4);
    crate::run_with(cfg, &trace)
}

const FIG5_SIZES: [u64; 7] = [1024, 2048, 4096, 8192, 16384, 32768, 65536];

/// One Fig 5 point: the app bandwidth of the measured placement over
/// that of the baseline it normalizes against (all-local, or all-CXL
/// for the interleave case).
fn run_fig5_point(p: &Point) -> Value {
    let threading = match p.str("panel") {
        "batch" => ThreadingMode::Batch,
        "table" => ThreadingMode::Table,
        other => panic!("param \"panel\": unknown panel {other:?}"),
    };
    let (placement, baseline) = match p.str("case") {
        "remote" => (
            InitialPlacement::RemoteFraction { remote_frac: 0.2 },
            InitialPlacement::AllLocal,
        ),
        "cxl" => (
            InitialPlacement::CxlFraction { cxl_frac: 0.2 },
            InitialPlacement::AllLocal,
        ),
        "interleave" => (
            InitialPlacement::CxlFraction { cxl_frac: 0.2 },
            InitialPlacement::AllCxl,
        ),
        other => panic!("param \"case\": unknown case {other:?}"),
    };
    let dim: u32 = p.int("dim");
    let rows = p.u64("size");
    let bandwidth = |placement| {
        let cfg = characterization_cfg(dim, rows, placement, threading);
        run_small(cfg).app_bandwidth_gbps(4 * dim as u64)
    };
    let (bw, base) = (bandwidth(placement), bandwidth(baseline));
    json!(if base > 0.0 { bw / base } else { 0.0 })
}

/// Fig 5: normalized app bandwidth vs table size across placements.
pub static FIG5: GridScenario = GridScenario {
    id: "fig5",
    title: "Normalized app bandwidth vs table size (Fig 5; a-d vs all-local, e-f vs all-CXL)",
    params: || {
        vec![
            ParamSpec::strs("panel", ["batch", "table"]),
            ParamSpec::strs("case", ["remote", "cxl", "interleave"]),
            ParamSpec::u64s("dim", [16, 32, 64, 128]),
            ParamSpec::u64s("size", FIG5_SIZES),
        ]
    },
    points: None,
    run: run_fig5_point,
    summarize: |rows| {
        let mut out = serde_json::Map::new();
        let mut it = rows.iter();
        for panel in ["batch", "table"] {
            for case in ["remote", "cxl", "interleave"] {
                let mut series = serde_json::Map::new();
                for dim in [16u32, 32, 64, 128] {
                    let vals: Vec<f64> = FIG5_SIZES
                        .iter()
                        .map(|_| {
                            it.next()
                                .and_then(|r| r.data.as_f64())
                                .expect("fig5 expects 168 numeric rows")
                        })
                        .collect();
                    series.insert(format!("dim{dim}"), json!(vals));
                }
                out.insert(format!("{case}_{panel}"), Value::Object(series));
            }
        }
        json!({ "sizes": FIG5_SIZES, "panels": out })
    },
    free_params: false,
    in_all: true,
};

/// Fig 6: DIMM vs CXL share of delivered bandwidth per thread/dim mix.
pub static FIG6: GridScenario = GridScenario {
    id: "fig6",
    title: "CXL bandwidth contribution (Fig 6)",
    params: || {
        vec![
            ParamSpec::u64s("cores", [4, 8]),
            ParamSpec::u64s("dim", [32, 64, 128]),
        ]
    },
    // The paper plots five hand-picked (threads, dim) mixes, not the
    // full product; sweeps over the declared axes explore the rest.
    points: Some(|| {
        [(4u64, 32u64), (4, 64), (4, 128), (8, 32), (8, 64)]
            .iter()
            .enumerate()
            .map(|(i, &(cores, dim))| {
                Point::new(
                    i,
                    point_seed(crate::SEED, i),
                    vec![
                        ("cores".into(), ParamValue::U64(cores)),
                        ("dim".into(), ParamValue::U64(dim)),
                    ],
                )
            })
            .collect()
    }),
    run: |p| {
        let cores: u32 = p.int("cores");
        let dim: u32 = p.int("dim");
        let model = ModelConfig {
            name: format!("{cores}c{dim}d"),
            emb_num: 8192,
            emb_dim: dim,
            ..ModelConfig::rmc2()
        };
        let mut cfg = SystemConfig::pond(model);
        cfg.placement = InitialPlacement::CxlFraction { cxl_frac: 0.2 };
        cfg.cores_per_host = cores;
        cfg.local_capacity_frac = 1.1;
        let m = run_small(cfg);
        let total_bytes = (m.lookups * 4 * dim as u64) as f64;
        let cxl_frac = m.cxl_lookups as f64 / m.lookups as f64;
        let bw = total_bytes / m.total_ns as f64;
        json!({
            "threads_and_dim": format!("{cores}&{dim}"),
            "dimm_gbps": bw * (1.0 - cxl_frac),
            "cxl_gbps": bw * cxl_frac,
        })
    },
    summarize: |rows: &[ResultRow]| Value::Array(rows.iter().map(|r| r.data.clone()).collect()),
    free_params: false,
    in_all: true,
};
