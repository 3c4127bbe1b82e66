//! Analytic scenarios: no simulation, just the paper's closed-form
//! models — Table I/II dumps, TCO (Fig 16), GPU serving roofline
//! (Fig 17), hardware overheads (Fig 18), and the §VI-D energy model.
//!
//! These all operate on the *unscaled* Table I models: they describe
//! deployment-size hardware, not the scaled simulation workload.

use baselines::GpuParameterServer;
use dlrm::ModelConfig;
use serde_json::{json, Value};
use tco::{EnergyModel, HardwareOverheads, SystemBom};

use crate::scenario::{table1_model, GridScenario, ParamSpec, Point, ResultRow};

fn raw_model(p: &Point) -> ModelConfig {
    table1_model(p.str("model")).expect("checked at grid time")
}

fn rows_array(rows: &[ResultRow]) -> Value {
    Value::Array(rows.iter().map(|r| r.data.clone()).collect())
}

fn single(rows: &[ResultRow]) -> Value {
    rows[0].data.clone()
}

/// Table I: the four model configurations.
pub static TABLE1: GridScenario = GridScenario {
    id: "table1",
    title: "Model parameters (Table I)",
    params: || vec![ParamSpec::models()],
    points: None,
    run: |p| {
        let m = raw_model(p);
        json!({
            "name": m.name, "emb_num": m.emb_num, "emb_dim": m.emb_dim,
            "bottom_mlp": m.bottom_mlp.0, "top_mlp": m.top_mlp.0,
            "row_bytes": m.row_bytes(),
        })
    },
    summarize: rows_array,
    free_params: false,
    in_all: true,
};

/// Table II: the simulated hardware configuration.
pub static TABLE2: GridScenario = GridScenario {
    id: "table2",
    title: "Hardware configuration (Table II)",
    params: Vec::new,
    points: None,
    run: |_| {
        let local = memsim::DramConfig::ddr5_4800_local();
        let cxl = memsim::DramConfig::ddr4_cxl_expander();
        let params = cxlsim::CxlParams::default();
        // Table II's write timings (tWR, tCWL), quoted for the record:
        // the DRAM model only reads, so `DramTimings` has no field for them.
        let dram_json = |cfg: &memsim::DramConfig, (wr, cwl): (u32, u32)| {
            json!({
                "timings": json!({
                    "cl": cfg.timings.cl, "rcd": cfg.timings.rcd, "rp": cfg.timings.rp,
                    "ras": cfg.timings.ras, "rc": cfg.timings.rc, "wr": wr,
                    "rtp": cfg.timings.rtp, "cwl": cwl, "rfc": cfg.timings.rfc,
                    "faw": cfg.timings.faw, "rrd": cfg.timings.rrd,
                    "burst_length": cfg.timings.burst_length,
                    "refi_ns": cfg.timings.refi_ns, "tck_ps": cfg.timings.tck_ps,
                }),
                "org": json!({
                    "channels": cfg.org.channels, "ranks": cfg.org.ranks,
                    "banks": cfg.org.banks, "row_bytes": cfg.org.row_bytes,
                    "bus_bytes": cfg.org.bus_bytes, "capacity_bytes": cfg.org.capacity_bytes,
                }),
                "peak_gbps": cfg.peak_bandwidth_gbps(),
            })
        };
        json!({
            "dram_local": dram_json(&local, (48, 22)),
            "dram_cxl_expander": dram_json(&cxl, (24, 16)),
            "cxl": json!({
                "downstream_port_gbps": params.link_gbps,
                "round_trip_penalty_ns": params.round_trip_ns(),
            }),
        })
    },
    summarize: single,
    free_params: false,
    in_all: true,
};

fn tco_memory_gb(model: &ModelConfig) -> u64 {
    (GpuParameterServer::deployment_bytes(model) >> 30).max(64)
}

/// Fig 16: three-year TCO of PIFS-Rec vs 2–4-GPU budgets.
pub static FIG16: GridScenario = GridScenario {
    id: "fig16",
    title: "TCO vs GPU budgets (Fig 16; paper: 3.38x cheaper on RMC1, 2.53x on RMC4 vs 1 GPU)",
    params: || vec![ParamSpec::models()],
    points: None,
    run: |p| {
        let model = raw_model(p);
        let mem = tco_memory_gb(&model);
        let pifs = SystemBom::pifs_rec(mem / 5, mem * 4 / 5).tco();
        let mut entry = serde_json::Map::new();
        entry.insert("model".into(), json!(model.name));
        entry.insert(
            "pifs".into(),
            json!({ "capex": pifs.bom.capex_usd, "opex": pifs.opex_usd,
                     "total": pifs.total_usd() }),
        );
        for n in [2u32, 3, 4] {
            let gpu = SystemBom::gpu_server(n, mem).tco();
            entry.insert(
                format!("gpu_x{n}"),
                json!({ "capex": gpu.bom.capex_usd, "opex": gpu.opex_usd,
                         "total": gpu.total_usd(),
                         "pifs_cost_advantage": gpu.total_usd() / pifs.total_usd() }),
            );
        }
        Value::Object(entry)
    },
    summarize: rows_array,
    free_params: false,
    in_all: true,
};

/// Fig 17: serving throughput and performance-per-watt vs GPU servers.
pub static FIG17: GridScenario = GridScenario {
    id: "fig17",
    title: "Serving throughput (Fig 17; paper: GPU wins RMC1, PIFS 1.6x over 4 GPUs on RMC4; PPW 1.22-1.61x)",
    params: || vec![ParamSpec::models()],
    points: None,
    run: |p| {
        let model = raw_model(p);
        let pifs = baselines::gpu::pifs_throughput_samples_per_us(
            &model,
            baselines::gpu::PIFS_EFFECTIVE_SLS_GBPS,
        );
        let mut vals = vec![];
        for n in [2u32, 3, 4] {
            vals.push(GpuParameterServer::new(n).throughput_samples_per_us(&model));
        }
        vals.push(pifs);
        let ppw: Vec<f64> = [2u32, 3, 4]
            .iter()
            .map(|&n| vals[(n - 2) as usize] / GpuParameterServer::new(n).power_w())
            .chain(std::iter::once(pifs / (360.0 + 400.0 + 2048.0 * 0.34)))
            .collect();
        json!({
            "model": model.name,
            "series": ["GPUX2", "GPUX3", "GPUX4", "PIFS-Rec"],
            "throughput_samples_per_us": vals,
            "normalized": simkit::stats::max_normalize(&vals),
            "pifs_over_gpux4": vals[3] / vals[2],
            "performance_per_watt": ppw,
        })
    },
    summarize: rows_array,
    free_params: false,
    in_all: true,
};

/// Fig 18: synthesized power/area of the process core blocks.
pub static FIG18: GridScenario = GridScenario {
    id: "fig18",
    title: "Hardware overheads (Fig 18)",
    params: Vec::new,
    points: None,
    run: |_| {
        let hw = HardwareOverheads::default();
        let block = |b: &tco::BlockCost| json!({ "name": b.name, "power_mw": b.power_mw, "area_um2": b.area_um2 });
        json!({
            "process_core": block(&hw.process_core),
            "control_logic_registers": block(&hw.control),
            "on_switch_buffer": block(&hw.buffer),
            "recnmp_base_x8": block(&hw.recnmp_x8),
            "pifs_total_power_mw": hw.pifs_total_power_mw(),
            "power_ratio_vs_recnmp": hw.power_ratio_vs_recnmp(),
            "area_ratio_vs_recnmp": hw.area_ratio_vs_recnmp(),
        })
    },
    summarize: single,
    free_params: false,
    in_all: true,
};

/// §VI-D: per-bag energy vs the DIMM+CPU baseline.
pub static ENERGY: GridScenario = GridScenario {
    id: "energy",
    title: "Energy vs DIMM+CPU (§VI-D; paper: -15.3% average)",
    params: || vec![ParamSpec::models()],
    points: None,
    run: |p| {
        let m = raw_model(p);
        let model = EnergyModel::default();
        json!({
            "model": m.name,
            "baseline_nj_per_bag": model.baseline_bag_nj(&m),
            "pifs_nj_per_bag": model.pifs_bag_nj(&m),
            "saving_frac": model.saving_frac(&m),
        })
    },
    summarize: |rows| {
        let avg: f64 = rows
            .iter()
            .map(|r| {
                r.data
                    .get("saving_frac")
                    .and_then(Value::as_f64)
                    .expect("saving_frac")
            })
            .sum::<f64>()
            / rows.len() as f64;
        json!({ "per_model": rows_array(rows), "average_saving": avg })
    },
    free_params: false,
    in_all: true,
};
