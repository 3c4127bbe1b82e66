//! Characterization scenarios (§III): host-compute lookups over static
//! placements — Fig 5's table-size sweep and Fig 6's CXL bandwidth
//! contribution.

use dlrm::{ModelConfig, ThreadingMode};
use pagemgmt::InitialPlacement;
use pifs_core::system::{RunMetrics, SystemConfig};
use serde_json::{json, Value};

use crate::scenario::{point_seed, word, GridScenario, ParamSpec, ParamValue, Point, ResultRow};

/// Fig 5's model: 8 tables of `rows` rows of `emb_dim` elements, bags
/// of 8.
fn fig5_model(emb_dim: u32, rows: u64) -> ModelConfig {
    ModelConfig {
        name: format!("char-{emb_dim}d"),
        emb_num: rows,
        emb_dim,
        n_tables: 8,
        bag_size: 8,
        ..ModelConfig::rmc1()
    }
}

/// Fig 6's model: RMC2's shape over 8 192 rows of `dim` elements.
fn fig6_model(cores: u32, dim: u32) -> ModelConfig {
    ModelConfig {
        name: format!("{cores}c{dim}d"),
        emb_num: 8192,
        emb_dim: dim,
        ..ModelConfig::rmc2()
    }
}

/// A `dim` value of a scenario whose model bags `bag` rows: an integer
/// in `1..=u32::MAX` that keeps the exact-sum bound its SLS stage
/// asserts per bag (rows × dim < 2³¹, [`dlrm::sls::exact_sum_fits`]).
fn dim_fits(value: &ParamValue, bag: u32) -> Result<(), String> {
    let dim = value.int_within(1, u32::MAX.into())? as u32;
    if dlrm::sls::exact_sum_fits(bag.into(), dim) {
        Ok(())
    } else {
        Err(format!(
            "a bag of {bag} rows at dim {dim} breaks the exact-sum bound (rows × dim < 2³¹)"
        ))
    }
}

/// Characterization base: host-compute lookups over a given placement.
fn characterization_cfg(
    emb_dim: u32,
    rows: u64,
    placement: InitialPlacement,
    threading: ThreadingMode,
) -> SystemConfig {
    let mut cfg = SystemConfig::pond(fig5_model(emb_dim, rows));
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

/// The threading mode Fig 5's `panel` names.
fn threading(panel: &str) -> Result<ThreadingMode, String> {
    match panel {
        "batch" => Ok(ThreadingMode::Batch),
        "table" => Ok(ThreadingMode::Table),
        other => Err(format!("unknown panel {other:?} (batch|table)")),
    }
}

/// The measured placement and its baseline that Fig 5's `case` names.
fn placements(case: &str) -> Result<(InitialPlacement, InitialPlacement), String> {
    let measured = match case {
        "remote" => InitialPlacement::RemoteFraction { remote_frac: 0.2 },
        "cxl" | "interleave" => InitialPlacement::CxlFraction { cxl_frac: 0.2 },
        other => return Err(format!("unknown case {other:?} (remote|cxl|interleave)")),
    };
    let baseline = match case {
        "interleave" => InitialPlacement::AllCxl,
        _ => InitialPlacement::AllLocal,
    };
    Ok((measured, baseline))
}

/// One Fig 5 point: the app bandwidth of the measured placement over
/// that of the baseline it normalizes against (all-local, or all-CXL
/// for the interleave case).
fn run_fig5_point(p: &Point) -> Value {
    let mode = threading(p.str("panel")).expect("checked at grid time");
    let (placement, baseline) = placements(p.str("case")).expect("checked at grid time");
    let dim: u32 = p.int("dim");
    let rows = p.u64("size");
    let bandwidth = |placement| {
        let cfg = characterization_cfg(dim, rows, placement, mode);
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
            ParamSpec::strs("panel", ["batch", "table"], |v| word(v, threading)),
            ParamSpec::strs("case", ["remote", "cxl", "interleave"], |v| {
                word(v, placements)
            }),
            ParamSpec::u64s("dim", [16, 32, 64, 128], |v| {
                dim_fits(v, fig5_model(1, 1).bag_size)
            }),
            // From one row to the largest Table I table.
            ParamSpec::ints::<1, { 1 << 20 }>("size", FIG5_SIZES),
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
            ParamSpec::ints::<1, { u32::MAX as u64 }>("cores", [4, 8]),
            ParamSpec::u64s("dim", [32, 64, 128], |v| {
                dim_fits(v, fig6_model(1, 1).bag_size)
            }),
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
        let mut cfg = SystemConfig::pond(fig6_model(cores, dim));
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
