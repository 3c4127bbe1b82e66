//! The traced replay: each grid point's essential public-call sequence,
//! re-issued from outside the program with a span per call.
//!
//! A replay rebuilds the point's configuration the way its scenario does
//! and drives the layers directly: `TraceSpec::generate`/`SlsSystem::new`/
//! `run_trace` for closed-loop points; `open_loop_begin`/`push`/`finish`
//! and `SimCheckpoint` for serving points; one `build_streamed`, one
//! `route_stream` (its sink a child span) and one `merge_streamed` for
//! cluster points. It must reproduce the deterministic fields of the
//! point's scenario row, or the traced run fails. The modelled-component
//! counters are read from the returned metrics.

use std::collections::HashMap;

use baselines::Scheme;
use dlrm::{ModelConfig, ThreadingMode};
use pagemgmt::{InitialPlacement, MigrationGranularity};
use pifs_bench::scenario::{workload_seed, ParamValue, Point};
use pifs_bench::scenarios::adaptive::{parse_traffic, Traffic};
use pifs_bench::{
    meta_distribution, scale_buffers, scaled, with_warmup, SEED, STD_BATCHES, STD_BATCH_SIZE,
};
use pifs_core::engine::cluster::{
    merge_streamed, route_stream, ClusterConfig, ShardPlacement, ShardPolicy,
};
use pifs_core::engine::serving::{QueryBags, ServingMetrics};
use pifs_core::system::{
    BufferConfig, ComputeSite, OpenLoopOpts, PmConfig, PmStyle, RunMetrics, SlsSystem, SystemConfig,
};
use pifs_core::{BufferPolicy, SimCheckpoint};
use serde_json::{json, Value};
use simkit::{FaultSchedule, FaultSpec, SimTime};
use tracegen::{
    ArrivalProcess, Distribution, QosClass, QueryStream, QueryStreamSpec, TenantMixStream,
    TenantSpec, Trace, TraceSpec,
};

use crate::trace::Tracer;

/// Queries per standard serving point.
const SERVE_QUERIES: usize = (STD_BATCHES * STD_BATCH_SIZE) as usize;
/// Batches per `latency_adaptive` point.
const ADAPT_BATCHES: u32 = 4 * STD_BATCHES;
/// Serving max-wait of every serving family, µs.
const MAX_WAIT_US: &str = "10";

/// What the traced run learns about one point besides its spans.
#[derive(Debug, Default, Clone)]
pub struct PointInfo {
    pub controller: Option<String>,
    pub faulted: bool,
    pub cluster_queries: u64,
}

/// Exact work and modelled-component counters summed over the replays.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    pub queries: u64,
    pub lookups: u64,
    pub cxl_lookups: u64,
    pub buffer_hits: u64,
    pub buffer_misses: u64,
    pub ooo_stalls: u64,
    pub host_link_bytes: u64,
    pub migrations: u64,
    pub run_trace_lookups: u64,
    pub run_trace_bags: u64,
    pub batches: u64,
    pub fill_weighted: f64,
    pub pm_epochs: u64,
    pub cluster_queries: u64,
    pub fanout_weighted: f64,
    pub agg_bytes: u64,
    pub failovers: u64,
    pub timeouts: u64,
    pub hedges: u64,
    pub shed: u64,
    pub stream_queries: u64,
}

impl Counters {
    fn add_run(&mut self, m: &RunMetrics) {
        self.lookups += m.lookups;
        self.cxl_lookups += m.cxl_lookups;
        self.buffer_hits += m.buffer_hits;
        self.buffer_misses += m.buffer_misses;
        self.ooo_stalls += m.ooo_stalls;
        self.host_link_bytes += m.host_link_bytes;
        self.migrations += m.migrations;
    }

    fn add_serving(&mut self, m: &ServingMetrics) {
        self.batches += m.batches;
        self.fill_weighted += m.mean_batch_fill * m.batches as f64;
        self.pm_epochs += m.pm_epochs;
        self.add_run(&m.run);
    }
}

/// Replay state carried across the points of one traced pass.
#[derive(Default)]
pub struct Replay {
    pub counters: Counters,
    pub points: Vec<PointInfo>,
    /// Heap high-water of the 60 s diurnal point above its starting
    /// live heap, bytes.
    pub diurnal_peak_bytes: u64,
    /// The replay's own warm-start cache (the scenario's is private).
    diurnal_cache: HashMap<String, SimCheckpoint>,
}

/// A materialized trace's query `qid` as push-session bags.
struct TraceBags<'a> {
    trace: &'a Trace,
    qid: u64,
}

impl QueryBags for TraceBags<'_> {
    fn bag(&self, table: u32) -> &[u64] {
        let b = (self.qid / self.trace.batch_size as u64) as usize;
        let s = (self.qid % self.trace.batch_size as u64) as u32;
        self.trace.bag(b, table, s)
    }
}

fn std_spec(m: &ModelConfig, dist: Distribution, batch_size: u32, batches: u32) -> TraceSpec {
    TraceSpec {
        distribution: dist,
        n_tables: m.n_tables,
        rows_per_table: m.emb_num,
        batch_size,
        n_batches: batches,
        bag_size: m.bag_size,
        seed: SEED,
    }
}

fn param<'a>(p: &'a Point, name: &str) -> Result<&'a ParamValue, String> {
    p.get(name)
        .ok_or_else(|| format!("point has no {name:?} parameter"))
}

/// Compares the replayed fields against the scenario row.
fn expect(data: &Value, want: &[(&str, Value)]) -> Result<(), String> {
    for (key, value) in want {
        let got = data.get(key);
        if got != Some(value) {
            return Err(format!(
                "replayed {key} = {} but the row has {}",
                serde_json::to_string(value).unwrap_or_default(),
                got.map(|g| serde_json::to_string(g).unwrap_or_default())
                    .unwrap_or_else(|| "nothing".into())
            ));
        }
    }
    Ok(())
}

fn expect_all(data: &Value, want: Value) -> Result<(), String> {
    if *data == want {
        Ok(())
    } else {
        Err(format!(
            "replayed row {} differs from {}",
            serde_json::to_string(&want).unwrap_or_default(),
            serde_json::to_string(data).unwrap_or_default()
        ))
    }
}

impl Replay {
    /// Replays point `p` of scenario `id` and checks it against the row
    /// payload `data`.
    pub fn point(
        &mut self,
        tr: &mut Tracer,
        id: &'static str,
        p: &Point,
        data: &Value,
    ) -> Result<(), String> {
        self.points.push(PointInfo {
            controller: p.get("controller").map(ParamValue::to_string),
            ..PointInfo::default()
        });
        match id {
            // Closed-form models: no simulation to replay.
            "table1" | "table2" | "fig16" | "fig17" | "fig18" | "energy" => Ok(()),
            "fig5" => self.fig5(tr, p, data),
            "fig6" => self.fig6(tr, p, data),
            "fig12a" | "fig12b" | "fig12c" | "fig12d" | "fig12e" => self.fig12(tr, id, p, data),
            "fig13a" | "fig13d" => self.fig13_pm(tr, id, p, data),
            "fig13b" => self.fig13b(tr, p, data),
            "fig13c" | "fig14" | "fig15" => self.scaling(tr, id, p, data),
            "latency_qps" | "latency_wait" => self.latency(tr, p, data),
            "latency_adaptive" => self.adaptive(tr, p, data),
            "latency_diurnal" => self.diurnal(tr, p, data),
            "cluster_qps" | "cluster_faults" => self.cluster(tr, id == "cluster_faults", p, data),
            other => Err(format!("no replay for scenario {other:?}")),
        }
    }

    /// `generate` → `SlsSystem::new` → `run_trace`, one span each.
    fn closed(&mut self, tr: &mut Tracer, cfg: SystemConfig, spec: TraceSpec) -> RunMetrics {
        let trace = tr.time("tracegen.generate", || spec.generate());
        let mut sys = tr.time("topology.build", || SlsSystem::new(cfg));
        let met = tr.time("engine.run_trace", || sys.run_trace(&trace));
        self.counters.queries += trace.batches.len() as u64 * trace.batch_size as u64;
        self.counters.run_trace_lookups += met.lookups;
        self.counters.run_trace_bags += met.bags;
        self.counters.add_run(&met);
        met
    }

    /// `pifs_bench::run_std`, replayed.
    fn run_std(&mut self, tr: &mut Tracer, cfg: SystemConfig) -> RunMetrics {
        let spec = std_spec(&cfg.model, meta_distribution(), STD_BATCH_SIZE, STD_BATCHES);
        self.closed(tr, with_warmup(cfg), spec)
    }

    /// The characterization runs' short trace (16-sample batches).
    fn run_small(&mut self, tr: &mut Tracer, cfg: SystemConfig) -> RunMetrics {
        let spec = std_spec(&cfg.model, meta_distribution(), 16, 4);
        self.closed(tr, cfg, spec)
    }

    fn fig5(&mut self, tr: &mut Tracer, p: &Point, data: &Value) -> Result<(), String> {
        let threading = match p.str("panel") {
            "batch" => ThreadingMode::Batch,
            _ => ThreadingMode::Table,
        };
        let (placement, norm_vs_cxl) = match p.str("case") {
            "remote" => (InitialPlacement::RemoteFraction { remote_frac: 0.2 }, false),
            "cxl" => (InitialPlacement::CxlFraction { cxl_frac: 0.2 }, false),
            _ => (InitialPlacement::CxlFraction { cxl_frac: 0.2 }, true),
        };
        let dim = p.u64("dim") as u32;
        let rows = p.u64("size");
        let baseline = if norm_vs_cxl {
            InitialPlacement::AllCxl
        } else {
            InitialPlacement::AllLocal
        };
        let mut bw = [0.0f64; 2];
        for (slot, placement) in bw.iter_mut().zip([placement, baseline]) {
            let model = ModelConfig {
                name: format!("char-{dim}d"),
                emb_num: rows,
                emb_dim: dim,
                n_tables: 8,
                bag_size: 8,
                ..ModelConfig::rmc1()
            };
            let mut cfg = SystemConfig::pond(model);
            cfg.placement = placement;
            cfg.threading = threading;
            cfg.local_capacity_frac = 1.1;
            *slot = self.run_small(tr, cfg).app_bandwidth_gbps(4 * dim as u64);
        }
        let ratio = if bw[1] > 0.0 { bw[0] / bw[1] } else { 0.0 };
        expect_all(data, json!(ratio))
    }

    fn fig6(&mut self, tr: &mut Tracer, p: &Point, data: &Value) -> Result<(), String> {
        let cores = p.u64("cores") as u32;
        let dim = p.u64("dim") as u32;
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
        let m = self.run_small(tr, cfg);
        let total_bytes = (m.lookups * 4 * dim as u64) as f64;
        let cxl_frac = m.cxl_lookups as f64 / m.lookups as f64;
        let bw = total_bytes / m.total_ns as f64;
        expect_all(
            data,
            json!({
                "threads_and_dim": format!("{cores}&{dim}"),
                "dimm_gbps": bw * (1.0 - cxl_frac),
                "cxl_gbps": bw * cxl_frac,
            }),
        )
    }

    fn fig12(&mut self, tr: &mut Tracer, id: &str, p: &Point, data: &Value) -> Result<(), String> {
        let m = p.model();
        let met = match id {
            "fig12a" => self.run_std(tr, scale_buffers(p.scheme().config(m))),
            "fig12b" => {
                let spec = p.str("trace");
                let dist = Distribution::parse(spec).ok_or_else(|| format!("trace {spec:?}"))?;
                let trace = std_spec(&m, dist, STD_BATCH_SIZE, STD_BATCHES);
                self.closed(tr, scale_buffers(p.scheme().config(m)), trace)
            }
            "fig12c" => {
                let mut cfg = scale_buffers(p.scheme().config(m));
                cfg.n_devices = p.u64("devices") as u16;
                self.run_std(tr, cfg)
            }
            "fig12d" => {
                let mut cfg = scale_buffers(p.scheme().config(m));
                cfg.local_capacity_frac = match param(p, "dram")? {
                    ParamValue::Str(s) if s == "128GB" => 0.2,
                    ParamValue::Str(s) if s == "X2" => 0.4,
                    ParamValue::Str(s) if s == "X4" => 0.8,
                    other => return Err(format!("dram {other}")),
                };
                self.run_std(tr, cfg)
            }
            _ => {
                let cfg = ablation_stage(&m, p.str("stage"))?;
                self.run_std(tr, cfg)
            }
        };
        expect_all(data, json!({ "total_ns": met.total_ns }))
    }

    fn fig13_pm(
        &mut self,
        tr: &mut Tracer,
        id: &str,
        p: &Point,
        data: &Value,
    ) -> Result<(), String> {
        let mut cfg = SystemConfig::pifs_rec(p.model());
        cfg.page_mgmt = Some(if id == "fig13a" {
            let granularity = match p.str("granularity") {
                "cache_line" => MigrationGranularity::CacheLineBlock,
                _ => MigrationGranularity::PageBlock,
            };
            PmConfig {
                migrate_threshold: p.f64("threshold"),
                granularity,
                ..PmConfig::default()
            }
        } else {
            match param(p, "policy")? {
                ParamValue::Str(s) if s == "TPP" => PmConfig {
                    style: PmStyle::Tpp,
                    ..PmConfig::default()
                },
                ParamValue::F64(t) => PmConfig {
                    cold_age_threshold: *t,
                    ..PmConfig::default()
                },
                other => return Err(format!("policy {other}")),
            }
        });
        let met = self.run_std(tr, cfg);
        expect_all(
            data,
            json!({
                "latency_ns": met.total_ns,
                "migration_cost": met.migration_cost_frac(),
            }),
        )
    }

    fn fig13b(&mut self, tr: &mut Tracer, p: &Point, data: &Value) -> Result<(), String> {
        let m = p.model();
        let n_pages = SystemConfig::pifs_rec(m.clone()).n_pages();
        let trace = std_spec(&m, Distribution::ZipfianHead { s: 0.8 }, STD_BATCH_SIZE, 36);
        let mut cfg = scale_buffers(SystemConfig::pifs_rec(m));
        cfg.n_devices = 16;
        cfg.placement = InitialPlacement::AllCxlBlocked {
            total_pages: n_pages,
        };
        cfg.warmup_batches = 24;
        if p.str("phase") == "before" {
            cfg.page_mgmt = None;
        }
        let met = self.closed(tr, cfg, trace);
        expect_all(data, json!({ "accesses": met.device_accesses }))
    }

    fn scaling(
        &mut self,
        tr: &mut Tracer,
        id: &str,
        p: &Point,
        data: &Value,
    ) -> Result<(), String> {
        let m = p.model();
        let want = match id {
            "fig13c" => {
                let switches = p.u64("switches") as u16;
                let mut cfg = SystemConfig::pifs_rec(m.clone());
                cfg.n_switches = switches;
                cfg.n_devices = switches.max(8);
                cfg.n_hosts = switches;
                let trace = std_spec(&m, meta_distribution(), p.u64("batch") as u32, 6);
                json!({ "total_ns": self.closed(tr, cfg, trace).total_ns })
            }
            "fig14" => {
                let batch = p.u64("batch") as u32;
                let hosts = p.u64("hosts") as u16;
                if hosts == 0 {
                    let trace = std_spec(&m, meta_distribution(), batch, 6);
                    let met = self.closed(tr, with_warmup(SystemConfig::pond(m)), trace);
                    json!({ "lookups": met.lookups, "total_ns": met.total_ns })
                } else {
                    let batches = 6 * hosts as u32;
                    let trace = std_spec(&m, meta_distribution(), batch, batches);
                    let mut cfg = with_warmup(SystemConfig::pifs_rec(m));
                    cfg.n_hosts = hosts;
                    let met = self.closed(tr, cfg, trace);
                    json!({
                        "lookups": met.lookups,
                        "total_ns": met.total_ns,
                        "batches": batches as u64,
                    })
                }
            }
            _ => {
                let cap_kb = p.u64("capacity_kb");
                let mut cfg = SystemConfig::pifs_rec(m);
                if cap_kb == 0 {
                    cfg.buffer = None;
                    json!({ "total_ns": self.run_std(tr, cfg).total_ns })
                } else {
                    let policy = match p.str("policy") {
                        "HTR" => BufferPolicy::Htr,
                        "LRU" => BufferPolicy::Lru,
                        _ => BufferPolicy::Fifo,
                    };
                    cfg.buffer = Some(BufferConfig {
                        policy,
                        capacity_bytes: cap_kb * 1024,
                    });
                    let met = self.run_std(tr, cfg);
                    json!({ "total_ns": met.total_ns, "hit_ratio": met.buffer_hit_ratio() })
                }
            }
        };
        expect_all(data, want)
    }

    /// Pushes a materialized trace through a fresh session, one span per
    /// push.
    fn serve_trace(
        &mut self,
        tr: &mut Tracer,
        cfg: SystemConfig,
        spec: TraceSpec,
        process: ArrivalProcess,
        arrival_seed: u64,
    ) -> ServingMetrics {
        let n = (spec.n_batches * spec.batch_size) as usize;
        let trace = tr.time("tracegen.generate", || spec.generate());
        let arrivals = tr.time("tracegen.arrivals", || process.times(n, arrival_seed));
        let mut sys = tr.time("topology.build", || SlsSystem::new(cfg));
        tr.reserve(arrivals.len() + 8);
        tr.time("serving.begin", || {
            sys.open_loop_begin(trace.n_tables, OpenLoopOpts::default())
        });
        for (qid, &at) in arrivals.iter().enumerate() {
            let bags = TraceBags {
                trace: &trace,
                qid: qid as u64,
            };
            tr.time("serving.push", || sys.open_loop_push(at, &bags));
        }
        let met = tr.time("serving.finish", || sys.open_loop_finish());
        self.counters.queries += met.queries;
        self.counters.add_serving(&met);
        met
    }

    fn serving_fields(met: &ServingMetrics) -> [(&'static str, Value); 3] {
        [
            ("p99_ns", json!(met.latency.percentile(0.99))),
            ("makespan_ns", json!(met.makespan_ns)),
            ("checksum", json!(met.run.checksum)),
        ]
    }

    fn latency(&mut self, tr: &mut Tracer, p: &Point, data: &Value) -> Result<(), String> {
        let m = p.model();
        let process = ArrivalProcess::parse(p.str("arrival"), p.f64("qps"))?;
        let mut cfg = scale_buffers(p.scheme().config(m.clone()));
        let max_wait = p
            .get("max_wait_us")
            .map_or_else(|| MAX_WAIT_US.to_string(), ParamValue::to_string);
        cfg.apply_knob("serving.max_wait_us", &max_wait)?;
        if let Some(v) = p.get("batch_size") {
            cfg.apply_knob("serving.batch_size", &v.to_string())?;
        }
        let trace_seed = workload_seed(SEED, &[param(p, "model")?]);
        let arrival_seed = workload_seed(
            SEED,
            &[param(p, "model")?, param(p, "arrival")?, param(p, "qps")?],
        );
        cfg.seed = trace_seed;
        let mut spec = std_spec(&m, meta_distribution(), STD_BATCH_SIZE, STD_BATCHES);
        spec.seed = trace_seed;
        let met = self.serve_trace(tr, cfg, spec, process, arrival_seed);
        expect(data, &Self::serving_fields(&met))
    }

    fn adaptive(&mut self, tr: &mut Tracer, p: &Point, data: &Value) -> Result<(), String> {
        let m = p.model();
        let qps = p.f64("qps");
        let traffic = parse_traffic(p.str("traffic"), qps)?;
        let mut cfg = scale_buffers(p.scheme().config(m.clone()));
        cfg.apply_knob("serving.max_wait_us", MAX_WAIT_US)?;
        cfg.apply_knob("serving.controller", p.str("controller"))?;
        let trace_seed = workload_seed(SEED, &[param(p, "model")?]);
        let arrival_seed = workload_seed(
            SEED,
            &[param(p, "model")?, param(p, "traffic")?, param(p, "qps")?],
        );
        cfg.seed = trace_seed;
        let met = match traffic {
            Traffic::Single(process) => {
                let mut spec = std_spec(&m, meta_distribution(), STD_BATCH_SIZE, ADAPT_BATCHES);
                spec.seed = trace_seed;
                self.serve_trace(tr, cfg, spec, process, arrival_seed)
            }
            Traffic::Mix => {
                let mix = TenantMixStream::new(mix_tenants(&m, qps, trace_seed, arrival_seed));
                let mut bare = mix.clone();
                let n = tr.time("tracegen.stream", || {
                    let mut n = 0u64;
                    while bare.next_query().is_some() {
                        touch_bags(bare.n_tables(), |t| bare.bag(t));
                        n += 1;
                    }
                    n
                });
                self.counters.stream_queries += n;
                let mut mix = mix;
                let mut sys = tr.time("topology.build", || SlsSystem::new(cfg));
                let opts = OpenLoopOpts {
                    record_completion: false,
                    window_ns: None,
                };
                tr.reserve(n as usize + 8);
                tr.time("serving.begin", || {
                    sys.open_loop_begin(mix.n_tables(), opts)
                });
                while let Some((_, tenant, at)) = mix.next_query() {
                    tr.time("serving.push", || {
                        sys.open_loop_push_tagged(at, tenant, &mix)
                    });
                }
                let met = tr.time("serving.finish", || sys.open_loop_finish());
                self.counters.queries += met.queries;
                self.counters.add_serving(&met);
                met
            }
        };
        expect(data, &Self::serving_fields(&met))
    }

    fn diurnal(&mut self, tr: &mut Tracer, p: &Point, data: &Value) -> Result<(), String> {
        // Room for every span of the point first, so span recording stays
        // out of the point's heap high-water.
        tr.reserve((p.f64("qps") as usize) * p.u64("duration_s") as usize + 16);
        let live0 = simkit::stats::alloc_stats().live_bytes;
        simkit::stats::reset_alloc_peak();
        let m = p.model();
        let qps = p.f64("qps");
        let duration_s = p.u64("duration_s");
        let process = ArrivalProcess::parse(p.str("arrival"), qps)?;
        let mut cfg = scale_buffers(p.scheme().config(m.clone()));
        cfg.apply_knob("serving.max_wait_us", MAX_WAIT_US)?;
        let trace_seed = workload_seed(SEED, &[param(p, "model")?]);
        let arrival_seed = workload_seed(
            SEED,
            &[param(p, "model")?, param(p, "arrival")?, param(p, "qps")?],
        );
        cfg.seed = trace_seed;
        // The shared stream is sized for the longest (60 s) point; this
        // point serves its first `n_push` queries.
        let max_queries = (qps as u64) * 60;
        let n_push = (qps as u64) * duration_s;
        let mut trace = std_spec(&m, meta_distribution(), STD_BATCH_SIZE, 0);
        trace.n_batches = max_queries.div_ceil(STD_BATCH_SIZE as u64) as u32;
        trace.seed = trace_seed;
        let spec = QueryStreamSpec {
            trace,
            arrival: process,
            arrival_seed,
        };
        let opts = OpenLoopOpts {
            record_completion: false,
            window_ns: Some(1_000_000_000),
        };
        let key: String = p
            .params()
            .iter()
            .filter(|(n, _)| n != "duration_s")
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        let warm = match self.diurnal_cache.get(&key) {
            Some(c) if c.position() <= n_push => Some(tr.time("checkpoint.resume", || c.resume())),
            _ => None,
        };
        let (mut sys, mut stream) = match warm {
            Some(pair) => pair,
            None => {
                let mut sys = tr.time("topology.build", || SlsSystem::new(cfg));
                tr.time("serving.begin", || {
                    sys.open_loop_begin(spec.trace.n_tables, opts)
                });
                (sys, spec.stream())
            }
        };
        let remaining = n_push - stream.position();
        self.bare_stream(tr, "tracegen.stream", &stream, remaining);
        for _ in 0..remaining {
            let Some((_, at)) = stream.next_query() else {
                break;
            };
            tr.time("serving.push", || sys.open_loop_push(at, &stream));
        }
        let deeper = self
            .diurnal_cache
            .get(&key)
            .is_none_or(|c| c.position() < n_push);
        if deeper {
            let cp = tr.time("checkpoint.capture", || {
                SimCheckpoint::capture(&sys, &stream)
            });
            self.diurnal_cache.insert(key, cp);
        }
        let met = tr.time("serving.finish", || sys.open_loop_finish());
        self.counters.queries += met.queries;
        self.counters.add_serving(&met);
        if duration_s == 60 {
            let peak = simkit::stats::alloc_stats().peak_live_bytes;
            self.diurnal_peak_bytes = peak.saturating_sub(live0);
        }
        expect(data, &Self::serving_fields(&met))
    }

    /// Times a bare traversal of the next `n` queries of a copy of
    /// `stream`: the stream layer's own cost, without serving.
    fn bare_stream(&mut self, tr: &mut Tracer, name: &'static str, stream: &QueryStream, n: u64) {
        let mut bare = stream.clone();
        let visited = tr.time(name, || {
            let mut visited = 0u64;
            while visited < n && bare.next_query().is_some() {
                touch_bags(bare.n_tables(), |t| bare.bag(t));
                visited += 1;
            }
            visited
        });
        self.counters.stream_queries += visited;
    }

    fn cluster(
        &mut self,
        tr: &mut Tracer,
        faults: bool,
        p: &Point,
        data: &Value,
    ) -> Result<(), String> {
        let (cfg, spec) = if faults {
            faults_setup(p)?
        } else {
            cluster_setup(p)?
        };
        let placement = tr.time("cluster.placement", || {
            ShardPlacement::build_streamed(&cfg, &spec.stream())
        });
        let n = cfg.n_shards as usize;
        let mut nodes: Vec<SlsSystem> = Vec::with_capacity(n);
        for shard in 0..n {
            let mut node = tr.time("topology.build", || SlsSystem::new(cfg.node.clone()));
            if faults {
                node.set_slowdowns(cfg.faults.slow_intervals(shard as u16));
            }
            tr.time("serving.begin", || {
                node.open_loop_begin(spec.trace.n_tables, OpenLoopOpts::default())
            });
            nodes.push(node);
        }
        self.bare_stream(tr, "tracegen.stream.probe", &spec.stream(), u64::MAX);

        let mut stream = spec.stream();
        let replay = stream.clone();
        tr.reserve(spec.n_queries() as usize * n + 16);
        let route = tr.begin("cluster.route");
        let routed = route_stream(&placement, &cfg.faults, &mut stream, |shard, _, at, sub| {
            let push = tr.begin("serving.push");
            nodes[shard].open_loop_push(at, sub);
            tr.end(push);
        });
        tr.end(route);
        let mut parts: Vec<ServingMetrics> = Vec::with_capacity(n);
        for node in &mut nodes {
            parts.push(tr.time("serving.finish", || node.open_loop_finish()));
        }
        let completions: Vec<&[SimTime]> = parts.iter().map(|m| m.completion.as_slice()).collect();
        let sheds: Vec<Vec<u64>> = parts
            .iter()
            .enumerate()
            .map(|(s, m)| {
                m.shed_qids
                    .iter()
                    .map(|&lq| routed.qids[s][lq as usize])
                    .collect()
            })
            .collect();
        let shed_refs: Vec<&[u64]> = sheds.iter().map(Vec::as_slice).collect();
        let makespans: Vec<u64> = parts.iter().map(|m| m.makespan_ns).collect();
        let met = tr.time("cluster.merge", || {
            merge_streamed(
                &cfg,
                &placement,
                &replay,
                &routed,
                &completions,
                &shed_refs,
                &makespans,
            )
        });

        for part in &parts {
            self.counters.add_serving(part);
        }
        let c = &mut self.counters;
        c.queries += met.queries;
        c.cluster_queries += met.queries;
        c.fanout_weighted += met.mean_fanout * met.queries as f64;
        c.agg_bytes += met.agg_bytes;
        c.failovers += met.failovers;
        c.timeouts += met.timeouts;
        c.hedges += met.hedges;
        c.shed += met.shed;
        let info = self.points.last_mut().expect("point registered");
        info.faulted = faults && p.str("fault") != "none";
        info.cluster_queries = met.queries;
        expect(
            data,
            &[
                ("p99_ns", json!(met.latency.percentile(0.99))),
                ("makespan_ns", json!(met.makespan_ns)),
                ("checksum", json!(met.checksum)),
            ],
        )
    }
}

/// Reads every bag of the current query, so a bare traversal pays what
/// a consumer pays.
fn touch_bags<'a>(n_tables: u32, bag: impl Fn(u32) -> &'a [u64]) {
    let mut rows = 0usize;
    for t in 0..n_tables {
        rows += std::hint::black_box(bag(t)).len();
    }
    std::hint::black_box(rows);
}

/// The Fig 12e ablation ladder stage `stage`, in cumulative-feature order.
fn ablation_stage(m: &ModelConfig, stage: &str) -> Result<SystemConfig, String> {
    let mut cfg = SystemConfig::pond(m.clone());
    let rungs = ["Baseline", "PC", "PC/OoO", "PC/OoO/PM", "PC/OoO/PM/OSB"];
    let depth = rungs
        .iter()
        .position(|r| *r == stage)
        .ok_or_else(|| format!("stage {stage:?}"))?;
    if depth >= 1 {
        cfg.compute = ComputeSite::Switch;
    }
    if depth >= 2 {
        cfg.ooo = true;
    }
    if depth >= 3 {
        cfg.placement = InitialPlacement::CxlFraction { cxl_frac: 0.8 };
        cfg.page_mgmt = Some(PmConfig::default());
    }
    if depth >= 4 {
        cfg.buffer = Some(Default::default());
    }
    Ok(cfg)
}

/// The `mix` traffic's two tenants (a Poisson rank tenant at 75 % of the
/// rate, a bursty backfill tenant at the rest).
fn mix_tenants(m: &ModelConfig, qps: f64, trace_seed: u64, arrival_seed: u64) -> Vec<TenantSpec> {
    const RANK_FRAC: f64 = 0.75;
    let trace = |n_batches: u32, seed: u64| {
        let mut spec = std_spec(m, meta_distribution(), STD_BATCH_SIZE, n_batches);
        spec.seed = seed;
        spec
    };
    let rank_batches = (ADAPT_BATCHES as f64 * RANK_FRAC).round() as u32;
    vec![
        TenantSpec {
            name: "rank".to_string(),
            qos: QosClass::LatencyCritical,
            stream: QueryStreamSpec {
                trace: trace(rank_batches, trace_seed),
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
                trace: trace(ADAPT_BATCHES - rank_batches, trace_seed ^ 0x6261_636b),
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

/// The serving node every cluster point runs, seeded like the scenarios.
fn cluster_node(p: &Point) -> Result<(SystemConfig, u64), String> {
    let mut node = scale_buffers(SystemConfig::pifs_rec(p.model()));
    node.apply_knob("serving.max_wait_us", MAX_WAIT_US)?;
    let trace_seed = workload_seed(SEED, &[param(p, "model")?]);
    node.seed = trace_seed;
    Ok((node, trace_seed))
}

fn cluster_spec(
    p: &Point,
    process: ArrivalProcess,
    trace_seed: u64,
    arrival_seed: u64,
) -> QueryStreamSpec {
    let mut trace = std_spec(&p.model(), meta_distribution(), STD_BATCH_SIZE, STD_BATCHES);
    trace.seed = trace_seed;
    QueryStreamSpec {
        trace,
        arrival: process,
        arrival_seed,
    }
}

/// `cluster_qps`'s per-point configuration.
fn cluster_setup(p: &Point) -> Result<(ClusterConfig, QueryStreamSpec), String> {
    let process = ArrivalProcess::parse(p.str("arrival"), p.f64("qps"))?;
    let policy = ShardPolicy::parse(p.str("policy"))?;
    let (node, trace_seed) = cluster_node(p)?;
    let arrival_seed = workload_seed(
        SEED,
        &[param(p, "model")?, param(p, "arrival")?, param(p, "qps")?],
    );
    let cfg = ClusterConfig::new(p.u64("nodes") as u16, policy, node);
    Ok((cfg, cluster_spec(p, process, trace_seed, arrival_seed)))
}

/// `cluster_faults`'s per-point configuration (4 nodes, row-hash).
fn faults_setup(p: &Point) -> Result<(ClusterConfig, QueryStreamSpec), String> {
    const NODES: u16 = 4;
    let qps = p.f64("qps");
    let fault = FaultSpec::parse(p.str("fault"))?;
    let process = ArrivalProcess::parse("poisson", qps)?;
    let (mut node, trace_seed) = cluster_node(p)?;
    node.apply_knob("serving.shed_policy", p.str("shed"))?;
    node.apply_knob("serving.sla_us", "8")?;
    let arrival_seed = workload_seed(SEED, &[param(p, "model")?, param(p, "qps")?]);
    let fault_seed = workload_seed(SEED, &[param(p, "model")?, param(p, "fault")?]);
    let horizon_ns = (SERVE_QUERIES as f64 / qps * 1.5e9).ceil() as u64;
    let mut cfg = ClusterConfig::new(NODES, ShardPolicy::RowHash, node);
    cfg.hot_rows_per_table = p.u64("replicas") as u32;
    cfg.faults = FaultSchedule::generate(fault, fault_seed, NODES, horizon_ns);
    cfg.partial_timeout_ns = Some(100_000);
    Ok((cfg, cluster_spec(p, process, trace_seed, arrival_seed)))
}

/// The scaled Table I model `name`.
pub fn scaled_model(name: &str) -> ModelConfig {
    scaled(ModelConfig::by_name(name).expect("Table I model"))
}

/// The fig12a scheme order the paper ratios refer to.
pub fn fig12a_schemes() -> Vec<&'static str> {
    Scheme::all().iter().map(|s| s.label()).collect()
}
