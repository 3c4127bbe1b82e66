//! The `latency_adaptive` scenario: fixed vs adaptive serving
//! controllers over the same bursty / flash-crowd / multi-tenant
//! traffic.
//!
//! The `latency` family measures the serving engine with its batcher
//! knobs pinned; this family races the [`ControllerPolicy`] variants
//! over identical workloads. Comparability is the whole
//! experiment, so the seeding convention is strict: the trace is seeded
//! from the model alone and the arrivals from `(model, traffic, qps)` —
//! never from the controller — so every point of a controller axis
//! serves the *same queries at the same instants*, and any latency
//! difference is the controller's doing.
//!
//! The `traffic` axis covers the three shapes the controllers were
//! built against:
//!
//! * `bursty` — the MMPP-2 arrival process (batcher stress);
//! * `flash:<mult>:<at_s>:<dur_s>` — a crowd spike layered on the
//!   diurnal base ([`ArrivalProcess::Flash`]);
//! * `mix` — a canned two-tenant [`TenantMixStream`]: a
//!   latency-critical Poisson "rank" tenant sharing the node with a
//!   bursty batch-class "backfill" tenant, metrics split per tenant.
//!
//! The summary reduces each (controller, traffic) curve with the shared
//! [`stability`] helpers and reports the headline comparison: each
//! controller's p99 at the *fixed* policy's knee, plus the per-policy
//! max-stable-QPS-under-SLA frontier.

use pifs_core::engine::controller::ControllerPolicy;
use pifs_core::system::{OpenLoopOpts, SlsSystem};
use serde_json::{json, Map, Value};
use tracegen::{ArrivalProcess, QosClass, QueryStreamSpec, TenantMixStream, TenantSpec, TraceSpec};

use super::stability::{self, saturated, serving_workload, MAX_WAIT_US, P99_SLA_NS};
use crate::scenario::{word, GridScenario, ParamSpec, Point, ResultRow};
use crate::{scale_buffers, STD_BATCHES, STD_BATCH_SIZE};

/// Batches per point: 4x the family standard. The load controller
/// ticks every `TICK_BATCHES` dispatches and needs several ticks of
/// sustained backlog before its resizing can show up in the tail, so
/// this family serves a longer stretch than `latency_qps` (and its
/// p99 rests on ~15 tail samples instead of ~4).
const ADAPT_BATCHES: u32 = 4 * STD_BATCHES;

/// Queries per point.
const SERVE_QUERIES: usize = (ADAPT_BATCHES * STD_BATCH_SIZE) as usize;

/// The latency-critical tenant's share of the `mix` traffic (the
/// batch-class backfill tenant carries the rest).
const RANK_FRAC: f64 = 0.75;

/// One value of the `traffic` axis: a single-tenant arrival process or
/// the canned two-tenant mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// One tenant timestamped from the named arrival process.
    Single(ArrivalProcess),
    /// The two-tenant rank + backfill mix (see the module docs).
    Mix,
}

/// Parses a `traffic` axis value at a given rate: `mix`, or any
/// [`ArrivalProcess::parse`] spelling. Errors say why the spec was
/// rejected (the `traffic` axis's check calls this before any
/// simulation starts).
pub fn parse_traffic(spec: &str, qps: f64) -> Result<Traffic, String> {
    if spec.eq_ignore_ascii_case("mix") {
        // The mix's tenants are rate splits of `qps`: one rate check.
        ArrivalProcess::Poisson { qps }.validate()?;
        return Ok(Traffic::Mix);
    }
    ArrivalProcess::parse(spec, qps).map(Traffic::Single)
}

/// The canned `mix` tenants at a total offered rate: a latency-critical
/// Poisson rank tenant at [`RANK_FRAC`] of the rate and a bursty
/// batch-class backfill tenant at the rest, both derived from the
/// point's workload (`trace`, `ADAPT_BATCHES` long, and the arrival
/// seed) so the mix is identical across controllers.
fn mix_tenants(trace: TraceSpec, qps: f64, arrival_seed: u64) -> Vec<TenantSpec> {
    let rank_batches = (ADAPT_BATCHES as f64 * RANK_FRAC).round() as u32;
    vec![
        TenantSpec {
            name: "rank".to_string(),
            qos: QosClass::LatencyCritical,
            stream: QueryStreamSpec {
                trace: TraceSpec {
                    n_batches: rank_batches,
                    ..trace
                },
                arrival: ArrivalProcess::Poisson {
                    qps: qps * RANK_FRAC,
                },
                arrival_seed,
            },
        },
        TenantSpec {
            name: "backfill".to_string(),
            qos: QosClass::Batch,
            stream: QueryStreamSpec {
                trace: TraceSpec {
                    n_batches: ADAPT_BATCHES - rank_batches,
                    seed: trace.seed ^ 0x6261_636b,
                    ..trace
                },
                arrival: ArrivalProcess::Bursty {
                    qps: qps * (1.0 - RANK_FRAC),
                    burst: 0.8,
                    dwell_us: 200.0,
                },
                arrival_seed: arrival_seed ^ 0x5eed,
            },
        },
    ]
}

/// Runs one adaptive point: build the scheme config, install the
/// point's controller, serve the traffic-axis workload.
fn run_adaptive_point(p: &Point) -> Value {
    let m = p.model();
    let qps = p.f64("qps");
    let traffic = parse_traffic(p.str("traffic"), qps).expect("checked at grid time");

    let mut cfg = scale_buffers(p.scheme().config(m.clone()));
    cfg.apply_knob("serving.max_wait_us", MAX_WAIT_US)
        .expect("max_wait_us knob");
    cfg.apply_knob("serving.controller", p.str("controller"))
        .expect("checked at grid time");

    // Same queries for every point of a model; same timestamps for
    // every controller at a given (traffic, qps) — the controller must
    // never leak into the workload seeds.
    let (trace, arrival_seed) = serving_workload(p, &m, ADAPT_BATCHES, Some("traffic"));

    let opts = OpenLoopOpts {
        record_completion: false,
        window_ns: None,
    };
    let mut sys = SlsSystem::new(cfg);
    let (met, per_tenant) = match traffic {
        Traffic::Single(arrival) => {
            let spec = QueryStreamSpec {
                trace,
                arrival,
                arrival_seed,
            };
            let met = sys.run_open_loop_streamed(&mut spec.stream(), opts);
            (met, Vec::new())
        }
        Traffic::Mix => {
            let mut mix = TenantMixStream::new(mix_tenants(trace, qps, arrival_seed));
            let met = sys.run_open_loop_streamed(&mut mix, opts);
            let per_tenant: Vec<Value> = mix
                .specs()
                .iter()
                .enumerate()
                .map(|(i, spec)| {
                    let t = met.per_tenant.get(i);
                    json!({
                        "name": spec.name,
                        "qos": spec.qos.label(),
                        "queries": t.map_or(0, |t| t.queries),
                        "shed": t.map_or(0, |t| t.shed),
                        "p50_ns": t.map_or(0, |t| t.latency.percentile(0.50)),
                        "p99_ns": t.map_or(0, |t| t.latency.percentile(0.99)),
                        "mean_wait_ns": t.map_or(0.0, |t| t.wait.mean_ns()),
                    })
                })
                .collect();
            (met, per_tenant)
        }
    };

    json!({
        "offered_qps": qps,
        "achieved_qps": met.achieved_qps(),
        "saturated": saturated(met.last_arrival_ns, met.makespan_ns),
        "p50_ns": met.latency.percentile(0.50),
        "p95_ns": met.latency.percentile(0.95),
        "p99_ns": met.latency.percentile(0.99),
        "max_ns": met.latency.max_ns(),
        "mean_ns": met.latency.mean_ns(),
        "mean_wait_ns": met.wait.mean_ns(),
        "queries": met.queries,
        "batches": met.batches,
        "mean_batch_fill": met.mean_batch_fill,
        "pm_epochs": met.pm_epochs,
        "makespan_ns": met.makespan_ns,
        "per_tenant": per_tenant,
        "checksum": met.run.checksum,
    })
}

/// The under-SLA stability view of a curve: a point is "stable" only if
/// it is unsaturated *and* holds the p99 SLA; the fold is over offered
/// rate (the frontier is an admission-control answer, not a throughput
/// measurement).
fn sla_frontier(group: &[ResultRow]) -> Option<f64> {
    let points: Vec<stability::StabilityPoint> = group
        .iter()
        .map(|r| {
            let offered = r.get_f64("offered_qps");
            let p99 = r.get_f64("p99_ns");
            stability::StabilityPoint {
                stable_qps: offered,
                offered_qps: offered,
                p99_ns: p99,
                saturated: r.is_saturated() || p99 > P99_SLA_NS,
            }
        })
        .collect();
    stability::max_stable_qps(&points)
}

/// `latency_adaptive`: the controller-policy comparison over bursty,
/// flash-crowd and multi-tenant traffic.
pub static LATENCY_ADAPTIVE: GridScenario = GridScenario {
    id: "latency_adaptive",
    title:
        "Adaptive serving controllers vs fixed knobs under bursty / flash / multi-tenant traffic",
    params: || {
        vec![
            ParamSpec::model(["RMC1"]),
            ParamSpec::scheme(["PIFS-Rec"]),
            ParamSpec::strs("controller", ["fixed", "load", "epoch", "adaptive"], |v| {
                word(v, ControllerPolicy::parse)
            }),
            ParamSpec::strs("traffic", ["bursty", "flash:4:0.0001:0.0002", "mix"], |v| {
                word(v, |s| parse_traffic(s, 1.0))
            }),
            stability::qps([1_000_000, 2_000_000, 4_000_000, 8_000_000, 16_000_000]),
        ]
    },
    points: None,
    run: run_adaptive_point,
    summarize: |rows| {
        // Each curve keyed by its (controller, traffic) cell.
        let groups: Vec<((String, String), &[ResultRow])> = stability::curves(rows)
            .into_iter()
            .map(|g| ((g[0].param("controller"), g[0].param("traffic")), g))
            .collect();
        let mut curve_objs = Map::new();
        for ((controller, traffic), group) in &groups {
            let (knee, max_stable) = stability::stability_json(&stability::serving_points(group));
            curve_objs.insert(
                format!("{controller}/{traffic}"),
                json!({
                    "offered_qps": group.iter().map(|r| r.get_f64("offered_qps")).collect::<Vec<f64>>(),
                    "achieved_qps": group.iter().map(|r| r.get_f64("achieved_qps")).collect::<Vec<f64>>(),
                    "p99_ns": group.iter().map(|r| r.get_f64("p99_ns")).collect::<Vec<f64>>(),
                    "knee_qps": knee,
                    "max_stable_qps": max_stable,
                    "sla_stable_qps": sla_frontier(group).map_or(Value::Null, Value::from),
                }),
            );
        }
        // The headline: every controller's p99 at the *fixed* policy's
        // knee, per traffic shape — same queries, same arrival
        // instants, so the delta is pure controller effect.
        let mut traffics: Vec<String> = Vec::new();
        for ((_, traffic), _) in &groups {
            if !traffics.contains(traffic) {
                traffics.push(traffic.clone());
            }
        }
        let at_knee: Vec<Value> = traffics
            .iter()
            .map(|traffic| {
                let fixed_knee = groups
                    .iter()
                    .find(|((c, t), _)| c == "fixed" && t == traffic)
                    .and_then(|(_, g)| stability::knee_qps(&stability::serving_points(g)));
                let p99_at = |controller: &str| -> Value {
                    fixed_knee
                        .and_then(|knee| {
                            groups
                                .iter()
                                .find(|((c, t), _)| c == controller && t == traffic)
                                .and_then(|(_, g)| {
                                    g.iter()
                                        .find(|r| r.get_f64("offered_qps") == knee)
                                        .map(|r| r.get_f64("p99_ns"))
                                })
                        })
                        .map_or(Value::Null, Value::from)
                };
                let by_controller = json!({
                    "fixed": p99_at("fixed"),
                    "load": p99_at("load"),
                    "epoch": p99_at("epoch"),
                    "adaptive": p99_at("adaptive"),
                });
                json!({
                    "traffic": traffic,
                    "fixed_knee_qps": fixed_knee.map_or(Value::Null, Value::from),
                    "p99_at_fixed_knee": by_controller,
                })
            })
            .collect();
        json!({
            "queries_per_point": SERVE_QUERIES,
            "p99_sla_ns": P99_SLA_NS,
            "curves": Value::Object(curve_objs),
            "p99_at_fixed_knee": at_knee,
        })
    },
    free_params: false,
    in_all: false,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_parse_covers_spellings_and_reports_why_it_rejects() {
        assert_eq!(parse_traffic("mix", 1000.0), Ok(Traffic::Mix));
        assert_eq!(parse_traffic("Mix", 1000.0), Ok(Traffic::Mix));
        assert_eq!(
            parse_traffic("bursty", 1000.0),
            Ok(Traffic::Single(ArrivalProcess::Bursty {
                qps: 1000.0,
                burst: 0.8,
                dwell_us: 200.0
            }))
        );
        assert!(parse_traffic("flash:4:0.0001:0.0002", 1000.0).is_ok());
        assert!(parse_traffic("mix", 0.0)
            .unwrap_err()
            .contains("positive and finite"));
        assert!(parse_traffic("sawtooth", 1000.0)
            .unwrap_err()
            .contains("unknown arrival process"));
    }

    #[test]
    fn traffic_parse_never_panics_and_accepts_only_sound_processes() {
        // Every head with up to three `:` fields drawn from numbers in
        // and out of range, at sound and degenerate rates.
        let heads = [
            "mix", "MIX", "bursty", "diurnal", "flash", "poisson", "", "é",
        ];
        let args = ["", "0", "1", "-1", "0.5", "1e308", "nan", "-inf", "x"];
        for head in heads {
            for n in 0..4u32 {
                for pick in 0..args.len().pow(n) {
                    let mut spec = head.to_string();
                    for k in 0..n {
                        spec.push(':');
                        spec.push_str(args[pick / args.len().pow(k) % args.len()]);
                    }
                    for qps in [1000.0, 0.0, -1.0, f64::NAN, f64::INFINITY] {
                        if let Ok(Traffic::Single(p)) = parse_traffic(&spec, qps) {
                            assert!(p.validate().is_ok(), "{spec:?} at {qps} gave {p:?}");
                        }
                    }
                }
            }
        }
    }

    /// A `latency_adaptive` point of the mix traffic.
    fn mix_point(controller: &str, qps: u64) -> Point {
        let str = |v: &str| crate::scenario::ParamValue::Str(v.to_string());
        Point::new(
            0,
            0,
            vec![
                ("model".to_string(), str("RMC1")),
                ("scheme".to_string(), str("PIFS-Rec")),
                ("controller".to_string(), str(controller)),
                ("traffic".to_string(), str("mix")),
                ("qps".to_string(), crate::scenario::ParamValue::U64(qps)),
            ],
        )
    }

    #[test]
    fn mix_tenants_split_the_rate_and_the_batches() {
        let p = mix_point("fixed", 1_000_000);
        let (trace, arrival_seed) =
            serving_workload(&p, &p.model(), ADAPT_BATCHES, Some("traffic"));
        let specs = mix_tenants(trace, 1_000_000.0, arrival_seed);
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[0].qos, QosClass::LatencyCritical);
        assert_eq!(specs[1].qos, QosClass::Batch);
        let total: u64 = specs.iter().map(|t| t.stream.n_queries()).sum();
        assert_eq!(
            total, SERVE_QUERIES as u64,
            "mix serves the family run length"
        );
        let rates: f64 = specs.iter().map(|t| t.stream.arrival.qps()).sum();
        assert!(
            (rates - 1_000_000.0).abs() < 1e-6,
            "tenant rates sum to qps"
        );
    }

    #[test]
    fn mix_workload_is_identical_across_controllers() {
        // The controller axis must not leak into the workload: every
        // controller's point derives the same tenants, and a different
        // rate does not.
        let tenants = |controller: &str, qps: u64| {
            let p = mix_point(controller, qps);
            let (trace, arrival_seed) =
                serving_workload(&p, &p.model(), ADAPT_BATCHES, Some("traffic"));
            mix_tenants(trace, qps as f64, arrival_seed)
        };
        let fixed = tenants("fixed", 2_000_000);
        for controller in ["load", "epoch", "adaptive"] {
            assert_eq!(tenants(controller, 2_000_000), fixed, "{controller}");
        }
        assert_ne!(tenants("fixed", 4_000_000), fixed);
    }
}
