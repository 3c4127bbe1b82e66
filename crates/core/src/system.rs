//! The full-system façade: hosts, fabric switches, CXL devices, tiered
//! pages, and the DLRM SLS workload running across them.
//!
//! [`SlsSystem`] composes the [`crate::engine`] layers —
//! [`config`](crate::engine::config), [`topology`](crate::engine::topology),
//! [`pipeline`],
//! [`pagemgmt_epoch`](crate::engine::pagemgmt_epoch) and
//! [`metrics`](crate::engine::metrics) — and executes a
//! [`tracegen::Trace`], producing the latency/bandwidth/occupancy metrics
//! each figure harness reports. One configuration type covers every
//! scheme in the paper's evaluation:
//!
//! | Scheme | compute | placement | buffer | OoO | page mgmt |
//! |---|---|---|---|---|---|
//! | Pond | Host | all-CXL | — | — | — |
//! | Pond+PM | Host | managed | — | — | yes |
//! | BEACON-S | Switch | all-CXL | — | in-order | — |
//! | RecNMP | Dimm | local+spill | DIMM cache | — | — |
//! | PIFS-Rec | Switch | managed | HTR | OoO | yes |

use dlrm::{query, EmbeddingTable};
use pagemgmt::{GlobalHotness, PageId, PageTable, TierCapacities};
use simkit::{SimDuration, SimTime};
use tracegen::Trace;

use crate::engine::config::page_align;
use crate::engine::metrics::CounterOffsets;
use crate::engine::pagemgmt_epoch::{run_pm_epoch, EpochCtx};
use crate::engine::pipeline::{self, process_bag, EngineCtx, EngineScratch};
use crate::engine::serving::{
    assert_rows_fit, LatencyWindows, OpenLoopSession, QueryBatcher, ReadyBatch, TaggedQuerySource,
    TraceArrivals,
};
use crate::engine::topology::Plant;

pub use crate::engine::config::{BufferConfig, ComputeSite, PmConfig, PmStyle, SystemConfig};
pub use crate::engine::controller::{ControllerPolicy, ServingController};
pub use crate::engine::metrics::RunMetrics;
pub use crate::engine::serving::{
    OpenLoopOpts, PendingQuery, QueryBags, ServingConfig, ServingMetrics, ShedPolicy,
    TenantServing, WindowSummary,
};

/// Asserts that `trace` fits `model`: no more tables, no larger row
/// space.
///
/// # Panics
///
/// Panics with the offending dimension otherwise.
fn assert_trace_fits(model: &dlrm::ModelConfig, trace: &Trace) {
    assert!(
        trace.n_tables <= model.n_tables,
        "trace has more tables than the model"
    );
    assert!(
        trace.rows_per_table <= model.emb_num,
        "trace rows exceed the model's embedding count"
    );
}

/// The composed system: the hardware `Plant`, the embedding layout and
/// page placement, and the workload-visible run state.
///
/// `Clone` deep-copies the entire simulation — plant timing state, page
/// placement, hotness, metrics, scratch, and any in-progress open-loop
/// session — which is what a
/// [`SimCheckpoint`](crate::engine::checkpoint::SimCheckpoint)
/// captures.
#[derive(Clone)]
pub struct SlsSystem {
    cfg: SystemConfig,
    plant: Plant,
    page_table: PageTable,
    tables: Vec<EmbeddingTable>,
    hotness: GlobalHotness,
    next_cluster: u64,
    pm_epoch: u64,
    metrics: RunMetrics,
    /// Per-device page-access counts within the current PM epoch.
    epoch_dev_pages: Vec<simkit::hash::FastMap<PageId, u64>>,
    /// The unified scratch bundle: per-bag pipeline buffers plus the
    /// open-loop dispatcher's per-run buffers (allocation-free steady
    /// state for both run modes).
    scratch: EngineScratch,
    /// The in-progress streaming open-loop session, between
    /// [`Self::open_loop_begin`] and [`Self::open_loop_finish`].
    session: Option<OpenLoopSession>,
    /// Service slow-down windows `(start_ns, end_ns, mult)` from an
    /// externally supplied fault schedule (see
    /// [`simkit::faults::FaultSchedule::slow_intervals`]): a batch
    /// whose dispatch starts inside a window has its service span
    /// dilated by the window's multiplier. Empty (the default) keeps
    /// the dispatch path byte-identical to a fault-free build. Plain
    /// data, so checkpoints carry the fault state automatically.
    slowdowns: Vec<(u64, u64, f64)>,
}

impl SlsSystem {
    /// Builds an idle system from `cfg`, laying out the model's embedding
    /// tables and applying the initial placement.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (no devices for a CXL
    /// placement, zero hosts, etc.).
    pub fn new(cfg: SystemConfig) -> Self {
        let plant = Plant::build(&cfg);

        // Embedding layout: page-aligned contiguous tables.
        let table_bytes = page_align(cfg.model.emb_num * cfg.model.row_bytes());
        let tables: Vec<EmbeddingTable> = (0..cfg.model.n_tables)
            .map(|t| {
                EmbeddingTable::new(
                    t,
                    cfg.model.emb_num,
                    cfg.model.emb_dim,
                    t as u64 * table_bytes,
                )
            })
            .collect();

        let n_pages = cfg.n_pages();
        let local_pages = ((n_pages as f64 * cfg.local_capacity_frac).ceil() as u64).max(1);
        let caps = TierCapacities::new(
            local_pages,
            n_pages, // the remote socket can always absorb the spill
            cfg.n_devices,
            // Generous per-device capacity: the balance constraint is
            // access load, not space.
            (n_pages / cfg.n_devices as u64 + 1) * 2,
        );
        let mut page_table = PageTable::new(caps);
        cfg.placement.apply(&mut page_table, n_pages);

        let n_hosts = cfg.n_hosts as usize;
        let n_devices = cfg.n_devices as usize;
        SlsSystem {
            cfg,
            plant,
            page_table,
            tables,
            hotness: GlobalHotness::new(n_hosts),
            next_cluster: 0,
            pm_epoch: 0,
            metrics: RunMetrics::default(),
            epoch_dev_pages: vec![simkit::hash::FastMap::default(); n_devices],
            scratch: EngineScratch::default(),
            session: None,
            slowdowns: Vec::new(),
        }
    }

    /// Installs the node's service slow-down windows (replacing any
    /// previous set): `(start_ns, end_ns, mult)` triples, typically
    /// [`simkit::faults::FaultSchedule::slow_intervals`]. A dispatched
    /// batch starting at `t` with some window `start <= t < end` has
    /// its end-to-end service span multiplied by the largest matching
    /// `mult` — completions and host occupancy stretch together, while
    /// device micro-timing stays on the base plane. An empty set (the
    /// default) leaves dispatch byte-identical to a build without this
    /// mechanism.
    pub fn set_slowdowns(&mut self, windows: Vec<(u64, u64, f64)>) {
        self.slowdowns = windows;
    }

    /// The configuration this system was built from.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Read access to the placement table (for tests and harnesses).
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// The per-bag pipeline stages, in execution order (introspection
    /// for harnesses and diagnostics).
    pub fn pipeline_stages(&self) -> Vec<&'static str> {
        pipeline::stage_names()
    }

    /// Removes the process core from switch `idx` (CNV = 0), forcing the
    /// §IV-C2 fallback where the host-local switch accumulates on its
    /// behalf.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn disable_process_core(&mut self, idx: usize) {
        self.plant.switches[idx].sw.set_process_core(false);
    }

    /// Runs `trace` to completion and returns the metrics.
    ///
    /// # Panics
    ///
    /// Panics if the trace's table count or row space exceeds the model's.
    pub fn run_trace(&mut self, trace: &Trace) -> RunMetrics {
        assert_trace_fits(&self.cfg.model, trace);

        self.metrics = RunMetrics::default();
        let mut bag_latency_sum = 0u128;
        let warmup = (self.cfg.warmup_batches as usize).min(trace.batches.len().saturating_sub(1));
        let mut measure_from: Vec<SimTime> = self.plant.hosts.iter().map(|h| h.next_free).collect();
        let mut dev_offset: Vec<u64> = vec![0; self.plant.devices.len()];
        let mut counter_offsets = CounterOffsets::default();
        if warmup == 0 {
            counter_offsets = self.snapshot_counters(&mut dev_offset);
        }

        let parts = query::partition(
            trace.n_tables,
            trace.batch_size,
            self.cfg.cores_per_host,
            self.cfg.threading,
        );

        for bi in 0..trace.batches.len() {
            let host_idx = bi % self.cfg.n_hosts as usize;
            let batch_start = self.plant.hosts[host_idx].next_free;
            let (mut batch_done, latency_sum) = self.execute_batch(
                host_idx,
                batch_start,
                &parts,
                |sample, table| trace.bag(bi, table, sample),
                |_, _| {},
            );
            bag_latency_sum += latency_sum;

            // Page-management epoch at the batch boundary.
            if self.cfg.page_mgmt.is_some() {
                let overhead = run_pm_epoch(&mut self.epoch_ctx());
                batch_done += overhead;
                self.metrics.migration_ns += overhead.as_ns();
            }
            self.plant.hosts[host_idx].next_free = batch_done;

            if bi + 1 == warmup {
                // Steady state reached: reset every measured quantity.
                self.metrics = RunMetrics::default();
                bag_latency_sum = 0;
                measure_from = self.plant.hosts.iter().map(|h| h.next_free).collect();
                counter_offsets = self.snapshot_counters(&mut dev_offset);
            }
        }

        self.metrics.total_ns = self
            .plant
            .hosts
            .iter()
            .zip(&measure_from)
            .map(|(h, &from)| h.next_free.saturating_since(from).as_ns())
            .max()
            .unwrap_or(0);
        self.metrics.device_accesses = self
            .plant
            .devices
            .iter()
            .zip(&dev_offset)
            .map(|(d, &off)| d.access_count() - off)
            .collect();
        counter_offsets.finish(&self.plant.switches, &self.plant.hosts, &mut self.metrics);
        self.metrics.mean_bag_ns = if self.metrics.bags == 0 {
            0.0
        } else {
            bag_latency_sum as f64 / self.metrics.bags as f64
        };
        self.metrics.clone()
    }

    /// Serves `trace`'s samples open-loop: query `q` (the `q`-th entry
    /// of `arrivals`) is sample `q % batch_size` of trace batch
    /// `q / batch_size`, enqueued at `arrivals[q]` —
    /// [`Self::run_open_loop_streamed`] over [`TraceArrivals`] with the
    /// default [`OpenLoopOpts`].
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` is not sorted non-decreasing, if it holds
    /// more queries than the trace has samples, or as
    /// [`Self::run_open_loop_streamed`] does.
    pub fn run_open_loop(&mut self, trace: &Trace, arrivals: &[SimTime]) -> ServingMetrics {
        self.run_open_loop_streamed(
            &mut TraceArrivals::new(trace, arrivals),
            OpenLoopOpts::default(),
        )
    }

    /// Serves a query source end to end through one streaming session:
    /// every query enters in the source's arrival order, tagged with its
    /// tenant, and the configured [`ServingConfig`] batcher closes
    /// dynamic batches (fill or max-wait), each dispatched to the stage
    /// pipeline when its host frees up. Per-query enqueue→completion
    /// latency streams into [`ServingMetrics::latency`], and
    /// [`ServingMetrics::per_tenant`] splits the run by tenant. Arrival
    /// timestamps are relative to the run's start (on a warm system the
    /// stream is shifted past everything already simulated), and the
    /// whole run is measured: closed-loop `warmup_batches` does not
    /// apply. Memory is bounded by one batch of pending bags, however
    /// long the source.
    ///
    /// # Panics
    ///
    /// Panics if the source's row space exceeds the model's embedding
    /// count, or as [`Self::open_loop_begin`] does.
    pub fn run_open_loop_streamed<S: TaggedQuerySource>(
        &mut self,
        source: &mut S,
        opts: OpenLoopOpts,
    ) -> ServingMetrics {
        assert_rows_fit(&self.cfg.model, source);
        self.open_loop_begin(source.n_tables(), opts);
        while let Some((_, tenant, at)) = source.next_tagged() {
            self.open_loop_push_tagged(at, tenant, &*source);
        }
        self.open_loop_finish()
    }

    /// Opens a streaming open-loop session: the push-based form of
    /// [`Self::run_open_loop`] for workloads that never materialize.
    /// Queries enter one at a time via [`Self::open_loop_push`] (each
    /// carrying `n_tables` bags) and the session dispatches batches as
    /// the batcher closes them, holding at most one batch of pending
    /// bags — memory is bounded regardless of stream length.
    /// [`Self::open_loop_finish`] drains and returns the metrics.
    ///
    /// # Panics
    ///
    /// Panics if a session is already active or if `n_tables` exceeds
    /// the model's table count.
    pub fn open_loop_begin(&mut self, n_tables: u32, opts: OpenLoopOpts) {
        assert!(
            self.session.is_none(),
            "an open-loop session is already active"
        );
        assert!(
            n_tables <= self.cfg.model.n_tables,
            "stream has more tables than the model"
        );
        self.metrics = RunMetrics::default();
        // The partition memo is layout-dependent (it bakes in the
        // session's table count), so it resets every session; its
        // buffers keep their capacity.
        self.scratch.serving.parts_memo = None;
        let mut dev_offset: Vec<u64> = vec![0; self.plant.devices.len()];
        let counter_offsets = self.snapshot_counters(&mut dev_offset);
        // Arrival timestamps are relative to the run start: on a warm
        // system (a prior run advanced the hosts) the whole stream is
        // shifted past everything already simulated, so latencies and
        // the makespan measure this run only.
        let t0 = self
            .plant
            .hosts
            .iter()
            .map(|h| h.next_free)
            .max()
            .unwrap_or(SimTime::ZERO);
        self.session = Some(OpenLoopSession {
            batcher: QueryBatcher::new(&self.cfg.serving),
            controller: crate::engine::controller::ServingController::new(&self.cfg.serving),
            serving: ServingMetrics::default(),
            bag_latency_sum: 0,
            dev_offset,
            counter_offsets,
            t0,
            shift: t0.saturating_since(SimTime::ZERO),
            batches_dispatched: 0,
            record_completion: opts.record_completion,
            n_tables,
            rows: Vec::new(),
            offsets: vec![0],
            windows: opts
                .window_ns
                .map(|w| LatencyWindows::new(w, self.cfg.serving.max_wait_ns)),
            next_qid: 0,
            last_arrival: SimTime::ZERO,
            shed_completions: std::collections::VecDeque::new(),
            tenants: Vec::new(),
        });
    }

    /// Pushes one query into the active session: `bags` supplies its
    /// row bag for each of the session's tables, copied into the
    /// session's recycled pending store (so the source buffers are free
    /// to be reused immediately). Returns the query's id — sequential
    /// from 0 in push order. Any batch the batcher closes (the oldest
    /// pending query timing out at or before `arrival`, or this arrival
    /// filling the batch) dispatches inline.
    ///
    /// # Panics
    ///
    /// Panics if no session is active; debug-asserts that arrivals are
    /// non-decreasing.
    pub fn open_loop_push(&mut self, arrival: SimTime, bags: &(impl QueryBags + ?Sized)) -> u64 {
        self.open_loop_push_tagged(arrival, 0, bags)
    }

    /// [`Self::open_loop_push`] with an explicit tenant tag: the query's
    /// served/shed counts and latency land in
    /// [`ServingMetrics::per_tenant`]`[tenant]` as well as the whole-run
    /// aggregates. Untagged pushes are tenant 0, so the two entry points
    /// mix freely.
    ///
    /// # Panics
    ///
    /// As [`Self::open_loop_push`].
    pub fn open_loop_push_tagged(
        &mut self,
        arrival: SimTime,
        tenant: u16,
        bags: &(impl QueryBags + ?Sized),
    ) -> u64 {
        let mut s = self
            .session
            .take()
            .expect("open_loop_push requires an active session (open_loop_begin)");
        debug_assert!(
            arrival >= s.last_arrival,
            "arrival timestamps must be non-decreasing"
        );
        s.last_arrival = arrival;
        // The batcher contract: timeouts due at or before this arrival
        // fire first, then the arrival is admitted (possibly closing a
        // full batch). The pending store always holds exactly the
        // batcher's pending queries, in FIFO order.
        while let Some(b) = s.batcher.flush_due(arrival) {
            self.dispatch_batch(&mut s, &b);
        }
        let qid = s.next_qid;
        s.next_qid += 1;
        // SLA-aware admission control: a shed arrival consumes its qid
        // (downstream merges index by qid) but is never queued — no
        // bags copied, no latency recorded. Its completion slot, when
        // recorded, is the arrival instant itself (zero service),
        // spliced into qid order as neighbouring batches retire.
        if self.should_shed(&s, arrival) {
            s.serving.shed += 1;
            s.serving.tenant_mut(tenant).shed += 1;
            s.serving.shed_qids.push(qid);
            if s.record_completion {
                s.shed_completions
                    .push_back((qid, SimTime::from_ns(arrival.as_ns())));
            }
            self.session = Some(s);
            return qid;
        }
        for t in 0..s.n_tables {
            s.rows.extend_from_slice(bags.bag(t));
            s.offsets.push(s.rows.len());
        }
        s.tenants.push(tenant);
        if let Some(b) = s.batcher.offer(qid, arrival) {
            self.dispatch_batch(&mut s, &b);
        }
        self.session = Some(s);
        qid
    }

    /// Whether the active shed policy drops an arrival at `arrival`
    /// given the current queue and host state.
    fn should_shed(&self, s: &OpenLoopSession, arrival: SimTime) -> bool {
        match self.cfg.serving.shed {
            ShedPolicy::None => false,
            ShedPolicy::QueueDepth { max_pending } => s.batcher.len() >= max_pending as usize,
            ShedPolicy::Deadline => {
                // Even the least-loaded host cannot start service
                // before the arrival's deadline: the answer would be
                // late no matter what, so drop it at the door.
                let soonest = self
                    .plant
                    .hosts
                    .iter()
                    .map(|h| h.next_free)
                    .min()
                    .unwrap_or(SimTime::ZERO);
                soonest.saturating_since(arrival + s.shift).as_ns() > self.cfg.serving.sla_ns
            }
        }
    }

    /// Closes the active session: trailing queries flush at their
    /// max-wait deadline (exactly as they would had more traffic
    /// followed), the last windows finalize, and the run's
    /// [`ServingMetrics`] are returned.
    ///
    /// # Panics
    ///
    /// Panics if no session is active.
    pub fn open_loop_finish(&mut self) -> ServingMetrics {
        let mut s = self
            .session
            .take()
            .expect("open_loop_finish requires an active session (open_loop_begin)");
        while let Some(b) = s.batcher.flush_due(SimTime::from_ns(u64::MAX)) {
            self.dispatch_batch(&mut s, &b);
        }
        // Trailing shed queries (nothing after them ever dispatched).
        while let Some((shed_qid, at)) = s.shed_completions.pop_front() {
            debug_assert_eq!(s.serving.completion.len() as u64, shed_qid);
            s.serving.completion.push(at);
        }
        let mut serving = s.serving;
        serving.batches = s.batches_dispatched;
        serving.pm_epochs = s.controller.epochs_run();
        serving.mean_batch_fill = if s.batches_dispatched == 0 {
            0.0
        } else {
            serving.mean_batch_fill
                / (s.batches_dispatched as f64 * self.cfg.serving.batch_size as f64)
        };
        if let Some(w) = s.windows {
            serving.windows = w.finish();
        }
        serving.makespan_ns = self
            .plant
            .hosts
            .iter()
            .map(|h| h.next_free.saturating_since(s.t0).as_ns())
            .max()
            .unwrap_or(0);
        self.metrics.total_ns = serving.makespan_ns;
        self.metrics.device_accesses = self
            .plant
            .devices
            .iter()
            .zip(&s.dev_offset)
            .map(|(d, &off)| d.access_count() - off)
            .collect();
        s.counter_offsets
            .finish(&self.plant.switches, &self.plant.hosts, &mut self.metrics);
        self.metrics.mean_bag_ns = if self.metrics.bags == 0 {
            0.0
        } else {
            s.bag_latency_sum as f64 / self.metrics.bags as f64
        };
        serving.run = self.metrics.clone();
        serving
    }

    /// Runs one batch's bags through the stage pipeline on host
    /// `host_idx` — the timing path both run modes share. Every core
    /// starts at `start` and works through its share of the query
    /// partition `parts`, each bag (`bag(sample, table)`) issuing when
    /// its core frees; `on_bag(sample, done)` sees each bag's
    /// completion. Returns the batch's last bag completion and the
    /// summed per-bag latency, ns.
    fn execute_batch<'a>(
        &mut self,
        host_idx: usize,
        start: SimTime,
        parts: &[Vec<query::WorkItem>],
        bag: impl Fn(u32, u32) -> &'a [u64],
        mut on_bag: impl FnMut(u32, SimTime),
    ) -> (SimTime, u128) {
        let mut batch_done = start;
        let mut latency_sum = 0u128;
        for (core_idx, items) in parts.iter().enumerate() {
            self.plant.hosts[host_idx].cores[core_idx] = start;
            for item in items {
                for sample in item.sample_begin..item.sample_end {
                    let issue = self.plant.hosts[host_idx].cores[core_idx];
                    let mut scratch = std::mem::take(&mut self.scratch.bag);
                    let (done, core_free) = process_bag(
                        &mut self.engine_ctx(),
                        &mut scratch,
                        host_idx,
                        issue,
                        item.table,
                        bag(sample, item.table),
                    );
                    self.scratch.bag = scratch;
                    self.plant.hosts[host_idx].cores[core_idx] = core_free;
                    batch_done = batch_done.max(done);
                    on_bag(sample, done);
                    latency_sum += done.saturating_since(issue).as_ns() as u128;
                    self.metrics.bags += 1;
                }
            }
        }
        (batch_done, latency_sum)
    }

    /// Dispatches one closed batch, fed from the session's pending
    /// store: [`Self::execute_batch`] plus the open-loop bookkeeping.
    /// Batches run in close order, round-robin over hosts, each
    /// starting when both the batch has closed and its host is free.
    /// The pending store is recycled (cleared, capacity kept) on
    /// return: the batcher drains *all* pending queries into every
    /// batch it closes, so the store and the batch always cover the
    /// same queries.
    fn dispatch_batch(&mut self, s: &mut OpenLoopSession, batch: &ReadyBatch) {
        let bi = s.batches_dispatched as usize;
        s.batches_dispatched += 1;
        let host_idx = bi % self.cfg.n_hosts as usize;
        let start = (batch.close + s.shift).max(self.plant.hosts[host_idx].next_free);
        let n = batch.queries.len() as u32;
        debug_assert_eq!(
            s.offsets.len(),
            n as usize * s.n_tables as usize + 1,
            "pending store must hold exactly the batch's queries"
        );
        let mut sv = std::mem::take(&mut self.scratch.serving);
        // Partition memo: every full batch shares one layout, so only
        // the trailing part-full sizes recompute it.
        if sv.parts_memo.as_ref().is_none_or(|(len, _)| *len != n) {
            sv.parts_memo = Some((
                n,
                query::partition(s.n_tables, n, self.cfg.cores_per_host, self.cfg.threading),
            ));
        }
        let parts = &sv.parts_memo.as_ref().expect("memo just filled").1;
        sv.q_done.clear();
        sv.q_done.resize(batch.queries.len(), start);
        let q_done = &mut sv.q_done;
        let (rows, offsets, n_tables) = (&s.rows, &s.offsets, s.n_tables as usize);
        let (mut batch_done, latency_sum) = self.execute_batch(
            host_idx,
            start,
            parts,
            |sample, table| {
                let p = sample as usize * n_tables + table as usize;
                &rows[offsets[p]..offsets[p + 1]]
            },
            |sample, done| q_done[sample as usize] = q_done[sample as usize].max(done),
        );
        s.bag_latency_sum += latency_sum;
        // A query completes when its last bag does; the response leaves
        // before the epoch-boundary page manager runs. Query ids are
        // push-sequential and batches dispatch in formation order, so
        // appending completions keeps `completion[qid]` indexing.
        // Service slow-down dilation: a batch starting inside a fault
        // window stretches end to end — every query completion and the
        // host's busy span — by the window's multiplier, so queueing
        // backs up behind the slow node exactly as it would in life.
        if !self.slowdowns.is_empty() {
            let t = start.as_ns();
            let mult = self
                .slowdowns
                .iter()
                .filter(|&&(a, b, _)| a <= t && t < b)
                .map(|&(_, _, m)| m)
                .fold(1.0f64, f64::max);
            if mult > 1.0 {
                let stretch = |done: SimTime| {
                    let span = done.saturating_since(start).as_ns();
                    start + SimDuration::from_ns((span as f64 * mult).round() as u64)
                };
                batch_done = stretch(batch_done);
                for done in sv.q_done.iter_mut() {
                    *done = stretch(*done);
                }
            }
        }
        for (i, (q, &done)) in batch.queries.iter().zip(&sv.q_done).enumerate() {
            let latency = done.saturating_since(q.arrival + s.shift);
            let wait = start.saturating_since(q.arrival + s.shift);
            s.serving.latency.record(latency);
            s.serving.wait.record(wait);
            s.controller.record_latency(latency);
            let slot = s.serving.tenant_mut(s.tenants[i]);
            slot.queries += 1;
            slot.latency.record(latency);
            slot.wait.record(wait);
            if s.record_completion {
                // Shed neighbours with smaller qids retire first: the
                // completion vector indexes by qid.
                while s
                    .shed_completions
                    .front()
                    .is_some_and(|&(shed_qid, _)| shed_qid < q.qid)
                {
                    let (shed_qid, at) = s.shed_completions.pop_front().expect("front checked");
                    debug_assert_eq!(s.serving.completion.len() as u64, shed_qid);
                    s.serving.completion.push(at);
                }
                debug_assert_eq!(s.serving.completion.len() as u64, q.qid);
                s.serving
                    .completion
                    .push(SimTime::from_ns(done.saturating_since(s.t0).as_ns()));
            }
            if let Some(w) = &mut s.windows {
                w.record(q.arrival, latency);
            }
        }
        s.serving.queries += batch.queries.len() as u64;
        s.serving.mean_batch_fill += batch.queries.len() as f64;
        if let Some(w) = &mut s.windows {
            w.on_batch_close(batch.close);
        }
        // Page-management epoch at the batch boundary, gated by the
        // controller: the fixed/load policies admit one at every
        // boundary (the historical cadence), the epoch-adaptive
        // policies stretch the cadence while the hot set is stable.
        if self.cfg.page_mgmt.is_some() && s.controller.epoch_due(&self.hotness) {
            let overhead = run_pm_epoch(&mut self.epoch_ctx());
            batch_done += overhead;
            self.metrics.migration_ns += overhead.as_ns();
        }
        self.plant.hosts[host_idx].next_free = batch_done;
        // Controller load tick: the dispatch backlog (close → service
        // start) is the open-loop queue-depth signal, the fill says
        // whether growing the batch could even absorb it.
        let backlog_ns = start.saturating_since(batch.close + s.shift).as_ns();
        if let Some((batch_size, max_wait_ns)) = s.controller.on_batch(n, backlog_ns) {
            s.batcher.set_knobs(batch_size, max_wait_ns);
        }
        s.rows.clear();
        s.offsets.clear();
        s.offsets.push(0);
        s.tenants.clear();
        self.scratch.serving = sv;
    }

    /// Records current cumulative counters so the measured window can
    /// subtract everything that happened before the capture point.
    fn snapshot_counters(&self, dev_offset: &mut [u64]) -> CounterOffsets {
        for (slot, d) in dev_offset.iter_mut().zip(&self.plant.devices) {
            *slot = d.access_count();
        }
        CounterOffsets::capture(&self.plant.switches, &self.plant.hosts)
    }

    /// A split-borrow view for the per-bag pipeline stages.
    fn engine_ctx(&mut self) -> EngineCtx<'_> {
        EngineCtx {
            cfg: &self.cfg,
            topo: &self.plant.topo,
            switches: &mut self.plant.switches,
            devices: &mut self.plant.devices,
            hosts: &mut self.plant.hosts,
            remote_link: &mut self.plant.remote_link,
            remote_dram: &mut self.plant.remote_dram,
            page_table: &self.page_table,
            tables: &self.tables,
            hotness: &mut self.hotness,
            epoch_dev_pages: &mut self.epoch_dev_pages,
            metrics: &mut self.metrics,
            next_cluster: &mut self.next_cluster,
        }
    }

    /// A split-borrow view for the epoch-boundary page manager.
    fn epoch_ctx(&mut self) -> EpochCtx<'_> {
        EpochCtx {
            cfg: &self.cfg,
            page_table: &mut self.page_table,
            hotness: &mut self.hotness,
            epoch_dev_pages: &mut self.epoch_dev_pages,
            devices: &self.plant.devices,
            metrics: &mut self.metrics,
            pm_epoch: &mut self.pm_epoch,
        }
    }
}
