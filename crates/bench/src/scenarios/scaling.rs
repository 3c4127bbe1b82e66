//! Scale-out scenarios: fabric-switch scaling (Fig 13c), multi-host
//! end-to-end speedup (Fig 14), and the on-switch buffer sweep (Fig 15).

use pifs_core::system::{BufferConfig, SystemConfig};
use serde_json::{json, Value};

use crate::scenario::{point_seed, GridScenario, ParamSpec, ParamValue, Point, ResultRow};
use crate::scenarios::schemes::lat_ns;
use crate::{meta_distribution, run_std, run_with, std_trace, with_warmup};

/// Sustained dense-stage rate of the host socket, GFLOP/s (= FLOP/ns):
/// a 96-core AMD EPYC 9654 (Table III) peaks near 7 TFLOP/s FP32, and
/// datacenter MLP kernels reach about 60 % of it. The dense stages are
/// compute-bound, so Fig 14 charges them `flops / rate`.
const HOST_DENSE_GFLOPS: f64 = 7_000.0 * 0.6;

/// Fig 13c: latency vs fabric-switch count per batch size.
pub static FIG13C: GridScenario = GridScenario {
    id: "fig13c",
    title: "Fabric-switch scaling (Fig 13c; paper: 1.8-20.8x from 2x to 32x in the largest batch)",
    params: || {
        vec![
            ParamSpec::strs("model", ["RMC4"]),
            ParamSpec::u64s("batch", [8, 64, 256]),
            ParamSpec::u64s("switches", [1, 2, 4, 8, 16, 32]),
        ]
    },
    points: None,
    run: |p| {
        let m = p.model();
        let switches: u16 = p.int("switches");
        let batch = p.int("batch");
        let mut cfg = SystemConfig::pifs_rec(m.clone());
        cfg.n_switches = switches;
        cfg.n_devices = switches.max(8);
        cfg.n_hosts = switches;
        let trace = std_trace(&m, meta_distribution(), batch, 6);
        json!({ "total_ns": run_with(cfg, &trace).total_ns })
    },
    summarize: |rows| {
        let mut out = Vec::new();
        let switch_counts = [1u16, 2, 4, 8, 16, 32];
        for chunk in rows.chunks(switch_counts.len()) {
            let batch = chunk[0].params[1].1.to_json();
            let lat: Vec<f64> = chunk.iter().map(lat_ns).collect();
            out.push(json!({
                "batch": batch,
                "switches": switch_counts,
                "latency_ns": lat,
                "normalized": simkit::stats::max_normalize(&lat),
                "improvement_1_to_32": lat[0] / lat[5],
            }));
        }
        Value::Array(out)
    },
    free_params: false,
    in_all: true,
};

/// Fig 14: multi-host end-to-end speedup (`hosts = 0` is the Pond
/// baseline every speedup normalizes against).
pub static FIG14: GridScenario = GridScenario {
    id: "fig14",
    title: "Multi-host end-to-end speedup (Fig 14; paper: 1.9-4.7x from 2 to 8 hosts)",
    params: || {
        vec![
            ParamSpec::strs("model", ["RMC1", "RMC2"]),
            ParamSpec::u64s("batch", [8, 64, 256]),
            ParamSpec::u64s("hosts", [0, 1, 2, 4, 8]),
        ]
    },
    points: None,
    run: |p| {
        let m = p.model();
        let batch = p.int("batch");
        let hosts: u16 = p.int("hosts");
        if hosts == 0 {
            // Pond baseline: one host, one request stream.
            let trace = std_trace(&m, meta_distribution(), batch, 6);
            let met = run_with(with_warmup(SystemConfig::pond(m)), &trace);
            json!({ "lookups": met.lookups, "total_ns": met.total_ns })
        } else {
            // Each host carries its own request stream: work scales with
            // host count, and the figure reports throughput speedup.
            let trace = std_trace(&m, meta_distribution(), batch, 6 * hosts as u32);
            let mut cfg = with_warmup(SystemConfig::pifs_rec(m));
            cfg.n_hosts = hosts;
            let met = run_with(cfg, &trace);
            json!({
                "lookups": met.lookups,
                "total_ns": met.total_ns,
                "batches": trace.batches.len() as u64,
            })
        }
    },
    summarize: |rows| {
        let mut out = Vec::new();
        for chunk in rows.chunks(5) {
            let name = chunk[0].params[0].1.to_string();
            let m = crate::scaled(dlrm::ModelConfig::by_name(&name).expect("fig14 model resolves"));
            let batch = chunk[0].params[1].1.to_json().as_u64().expect("batch") as u32;
            // Per-batch dense cost; the SLS time share grows with batch
            // size because the dense stages amortize across samples.
            let dense_batch_ns =
                ((m.dense_flops_per_sample() * batch as u64) as f64 / HOST_DENSE_GFLOPS).ceil();
            let metric = |r: &ResultRow, key: &str| -> u64 {
                r.data
                    .get(key)
                    .and_then(Value::as_u64)
                    .expect("fig14 metric")
            };
            let base_thru =
                metric(&chunk[0], "lookups") as f64 / metric(&chunk[0], "total_ns") as f64;
            let mut speedups = Vec::new();
            for r in &chunk[1..] {
                let total_ns = metric(r, "total_ns");
                let thru = metric(r, "lookups") as f64 / total_ns as f64;
                let sls_speedup = thru / base_thru;
                // End-to-end: weight the SLS speedup by its per-batch
                // time share on the baseline system (Fig 14 "weighting
                // the speedup of both SLS and non-SLS operators").
                let batches_measured = (metric(r, "batches") as u32).saturating_sub(4).max(1);
                let sls_batch_ns = total_ns as f64 / batches_measured as f64 * sls_speedup;
                let f = sls_batch_ns / (sls_batch_ns + dense_batch_ns);
                let e2e = 1.0 / ((1.0 - f) + f / sls_speedup);
                speedups.push(e2e);
            }
            out.push(json!({
                "model": m.name, "batch": batch,
                "hosts": [1, 2, 4, 8],
                "e2e_speedup": speedups,
            }));
        }
        Value::Array(out)
    },
    free_params: false,
    in_all: true,
};

/// Fig 15: on-switch buffer capacity and replacement-policy sweep (the
/// `capacity_kb = 0, policy = none` anchor is the buffer-less baseline).
pub static FIG15: GridScenario = GridScenario {
    id: "fig15",
    title:
        "On-switch buffer capacity & policy (Fig 15; paper: HTR 7.6-14.8% on RMC4, 1MB degrades)",
    params: || {
        vec![
            ParamSpec::models(),
            ParamSpec::u64s("capacity_kb", [64, 128, 256, 512, 1024]),
            ParamSpec::strs("policy", ["HTR", "LRU", "FIFO"]),
        ]
    },
    // One buffer-less anchor point per model ahead of the 5×3 grid; a
    // plain cartesian product would re-run that baseline per policy.
    points: Some(|| {
        let mut points = Vec::new();
        let mut push = |model: &str, cap: u64, policy: &str| {
            let index = points.len();
            points.push(Point::new(
                index,
                point_seed(crate::SEED, index),
                vec![
                    ("model".into(), ParamValue::Str(model.into())),
                    ("capacity_kb".into(), ParamValue::U64(cap)),
                    ("policy".into(), ParamValue::Str(policy.into())),
                ],
            ));
        };
        for model in ["RMC1", "RMC2", "RMC3", "RMC4"] {
            push(model, 0, "none");
            for cap in [64, 128, 256, 512, 1024] {
                for policy in ["HTR", "LRU", "FIFO"] {
                    push(model, cap, policy);
                }
            }
        }
        points
    }),
    run: |p| {
        use pifs_core::BufferPolicy;
        let m = p.model();
        let cap_kb = p.u64("capacity_kb");
        if cap_kb == 0 {
            let mut no_buffer = SystemConfig::pifs_rec(m);
            no_buffer.buffer = None;
            json!({ "total_ns": run_std(no_buffer).total_ns })
        } else {
            let policy = match p.str("policy") {
                "HTR" => BufferPolicy::Htr,
                "LRU" => BufferPolicy::Lru,
                "FIFO" => BufferPolicy::Fifo,
                other => panic!("param \"policy\": unknown buffer policy {other:?}"),
            };
            let mut cfg = SystemConfig::pifs_rec(m);
            cfg.buffer = Some(BufferConfig {
                policy,
                capacity_bytes: cap_kb * 1024,
            });
            let met = run_std(cfg);
            json!({ "total_ns": met.total_ns, "hit_ratio": met.buffer_hit_ratio() })
        }
    },
    summarize: |rows| {
        let mut out = Vec::new();
        for chunk in rows.chunks(16) {
            let name = chunk[0].params[0].1.to_string();
            let base = lat_ns(&chunk[0]);
            let mut points = Vec::new();
            for r in &chunk[1..] {
                points.push(json!({
                    "capacity_kb": r.params[1].1.to_json(),
                    "policy": r.params[2].1.to_string(),
                    "speedup_pct": (base / lat_ns(r) - 1.0) * 100.0,
                    "hit_ratio": r.data.get("hit_ratio").expect("hit_ratio").clone(),
                }));
            }
            out.push(json!({ "model": name, "baseline_ns": base, "points": points }));
        }
        Value::Array(out)
    },
    free_params: false,
    in_all: true,
};
