//! The free-form `custom` scenario: a scheme × model × trace grid whose
//! remaining parameters are forwarded verbatim to
//! [`SystemConfig::apply_knob`](pifs_core::system::SystemConfig::apply_knob),
//! so `repro -- sweep custom --param n_devices=4,8,16 --param ooo=true`
//! explores configurations the paper never ran without any bench-side
//! code. Each point's trace is seeded from [`workload_seed`] over the
//! workload-defining parameters (`model`, `trace`): points that differ
//! only in scheme or topology knobs simulate the exact same trace, so
//! rows are directly comparable along those axes, and a grid's results
//! do not change when unrelated axes are added or reordered.

use pifs_core::system::SlsSystem;
use serde_json::{json, Value};

use crate::scenario::{distribution, workload_seed, GridScenario, ParamSpec, ResultRow};
use crate::{scale_buffers, STD_BATCHES, STD_BATCH_SIZE};

/// The sweep-only knob-exploration scenario (`in_all = false`).
pub static CUSTOM: GridScenario = GridScenario {
    id: "custom",
    title: "Free-form scheme/model/knob sweep (not a paper figure)",
    params: || {
        vec![
            ParamSpec::scheme(["PIFS-Rec"]),
            ParamSpec::model(["RMC1"]),
            ParamSpec::traces(["Meta"]),
        ]
    },
    points: None,
    run: |p| {
        let m = p.model();
        let dist = distribution(p.str("trace")).expect("checked at grid time");
        let seed = workload_seed(
            crate::SEED,
            &[
                p.get("model").expect("model param"),
                p.get("trace").expect("trace param"),
            ],
        );
        let mut cfg = scale_buffers(p.scheme().config(m.clone()));
        for (name, value) in p.params() {
            if matches!(name.as_str(), "scheme" | "model" | "trace") {
                continue;
            }
            cfg.apply_knob(name, &value.to_string())
                .expect("checked at grid time");
        }
        let trace = crate::trace_spec(&m, dist, STD_BATCH_SIZE, STD_BATCHES, seed).generate();
        let met = SlsSystem::new(cfg).run_trace(&trace);
        json!({
            "seed": seed,
            "total_ns": met.total_ns,
            "mean_bag_ns": met.mean_bag_ns,
            "lookups": met.lookups,
            "local_lookups": met.local_lookups,
            "remote_lookups": met.remote_lookups,
            "cxl_lookups": met.cxl_lookups,
            "buffer_hit_ratio": met.buffer_hit_ratio(),
            "migrations": met.migrations,
            "migration_cost": met.migration_cost_frac(),
            "checksum": met.checksum,
        })
    },
    summarize: |rows: &[ResultRow]| {
        Value::Array(
            rows.iter()
                .map(|r| json!({ "params": r.params_json(), "metrics": r.data.clone() }))
                .collect(),
        )
    },
    free_params: true,
    in_all: false,
};
