//! The full-system façade: hosts, fabric switches, CXL devices, tiered
//! pages, and the DLRM SLS workload running across them.
//!
//! [`SlsSystem`] composes the [`crate::engine`] layers —
//! [`config`](crate::engine::config), [`topology`](crate::engine::topology),
//! [`pipeline`](crate::engine::pipeline),
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
use pagemgmt::{GlobalHotness, PageTable, TierCapacities};
use simkit::faults::dilate;
use simkit::{SimDuration, SimTime};
use tracegen::Trace;

use crate::engine::config::page_align;
use crate::engine::metrics::MeasureWindow;
use crate::engine::pagemgmt_epoch::{run_pm_epoch, EpochCounts, EpochCtx};
use crate::engine::pipeline::{fold_bag, process_bag, BagScratch, EngineCtx};
use crate::engine::serving::{
    assert_rows_fit, LatencyWindows, OpenLoopSession, QueryBatcher, TaggedQuerySource,
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
/// page placement, and the page manager's state. What lives only as
/// long as one run (the measurement window, the dispatch buffers, the
/// core clocks) belongs to that run's loop, not to the system.
///
/// `Clone` deep-copies the entire simulation — plant timing state, page
/// placement, hotness, the bag scratch, and any in-progress open-loop
/// session with its measurement window — which is what a
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
    /// Per-page CXL access counts within the current PM epoch
    /// (recorded only when a page manager runs).
    epoch_counts: EpochCounts,
    /// The per-bag pipeline buffers, lent to each bag in turn.
    scratch: BagScratch,
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
        // Only the page manager reads hotness, so a system without one
        // tracks no pages.
        let tracked_pages = if cfg.page_mgmt.is_some() { n_pages } else { 0 };
        let hotness = GlobalHotness::new(n_hosts, tracked_pages);
        SlsSystem {
            cfg,
            plant,
            page_table,
            tables,
            hotness,
            next_cluster: 0,
            pm_epoch: 0,
            epoch_counts: EpochCounts::new(tracked_pages, n_devices),
            scratch: BagScratch::default(),
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

    /// Runs `trace` to completion and returns the metrics, the
    /// functional [`RunMetrics::checksum`] included.
    ///
    /// # Panics
    ///
    /// Panics if the trace's table count or row space exceeds the model's.
    pub fn run_trace(&mut self, trace: &Trace) -> RunMetrics {
        self.run_trace_measured(trace, true)
    }

    /// [`Self::run_trace`] on the timing plane only: bags skip the
    /// functional fold, so [`RunMetrics::checksum`] reads `0.0` while
    /// every instant and counter matches the folding run. A caller that
    /// reports no checksum (every paper figure) runs this way.
    ///
    /// # Panics
    ///
    /// As [`Self::run_trace`].
    pub fn run_trace_timing(&mut self, trace: &Trace) -> RunMetrics {
        self.run_trace_measured(trace, false)
    }

    /// The closed-loop run both entry points share; `fold` says whether
    /// bags fold their values into the checksum.
    fn run_trace_measured(&mut self, trace: &Trace, fold: bool) -> RunMetrics {
        assert_trace_fits(&self.cfg.model, trace);

        let warmup = (self.cfg.warmup_batches as usize).min(trace.batches.len().saturating_sub(1));
        let mut measure = MeasureWindow::open(&self.plant);
        measure.fold = fold;
        let mut measure_from: Vec<SimTime> = self.plant.hosts.iter().map(|h| h.next_free).collect();

        let parts = query::partition(
            trace.n_tables,
            trace.batch_size,
            self.cfg.cores_per_host,
            self.cfg.threading,
        );

        for bi in 0..trace.batches.len() {
            let host_idx = bi % self.cfg.n_hosts as usize;
            let batch_start = self.plant.hosts[host_idx].next_free;
            let mut batch_done = self.execute_batch(
                &mut measure,
                host_idx,
                batch_start,
                &parts,
                |sample, table| trace.bag(bi, table, sample),
                |_, _| {},
            );
            // Page-management epoch at the batch boundary.
            if self.cfg.page_mgmt.is_some() {
                batch_done += run_pm_epoch(&mut self.epoch_ctx(&mut measure.metrics));
            }
            self.plant.hosts[host_idx].next_free = batch_done;

            if bi + 1 == warmup {
                // Steady state reached: measure from here on.
                measure.reopen(&self.plant);
                for (from, h) in measure_from.iter_mut().zip(&self.plant.hosts) {
                    *from = h.next_free;
                }
            }
        }

        let total_ns = self
            .plant
            .hosts
            .iter()
            .zip(&measure_from)
            .map(|(h, &from)| h.next_free.since(from).as_ns())
            .max()
            .unwrap_or(0);
        measure.close(&self.plant, total_ns)
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
            batcher: QueryBatcher::new(&self.cfg.serving, n_tables),
            controller: crate::engine::controller::ServingController::new(&self.cfg.serving),
            serving: ServingMetrics::default(),
            measure: MeasureWindow::open(&self.plant),
            q_done: Vec::new(),
            parts_memo: None,
            shift: t0.since(SimTime::ZERO),
            batches_dispatched: 0,
            record_completion: opts.record_completion,
            windows: opts
                .window_ns
                .map(|w| LatencyWindows::new(w, self.cfg.serving.max_wait_ns)),
            next_qid: 0,
            last_arrival: SimTime::ZERO,
        });
    }

    /// Makes the active session timing-only: its bags skip the
    /// functional fold, so its [`RunMetrics::checksum`] stays `0.0`
    /// while every instant and counter is unchanged. A cluster node runs
    /// this way, since its cluster forms each query's checksum while
    /// routing.
    ///
    /// # Panics
    ///
    /// Panics if no session is active.
    pub(crate) fn open_loop_timing_only(&mut self) {
        self.session
            .as_mut()
            .expect("a timing-only session needs an active session (open_loop_begin)")
            .measure
            .fold = false;
    }

    /// Pushes one query into the active session: `bags` supplies its
    /// row bag for each of the session's tables, copied into the
    /// batcher's recycled pending store (so the source buffers are free
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
    /// [`ServingMetrics::per_tenant`]`[tenant]`, which the whole-run
    /// aggregates are folded from. Untagged pushes are tenant 0, so the
    /// two entry points mix freely.
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
        // full batch).
        while let Some(close) = s.batcher.flush_due(arrival) {
            self.dispatch_batch(&mut s, close);
        }
        let qid = s.next_qid;
        s.next_qid += 1;
        // Every qid owns a completion slot from its push: it holds the
        // arrival instant (zero service) until the query retires, which
        // a shed query never does.
        if s.record_completion {
            s.serving.completion.push(arrival);
        }
        // SLA-aware admission control: a shed arrival consumes its qid
        // (downstream merges index by qid) but is never queued — no
        // bags copied, no latency recorded.
        if self.should_shed(&s, arrival) {
            s.serving.tenant_mut(tenant).shed += 1;
            s.serving.shed_qids.push(qid);
        } else if let Some(close) = s.batcher.offer(qid, tenant, arrival, bags) {
            self.dispatch_batch(&mut s, close);
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
                // A host already free at the arrival is zero wait, not
                // a negative one: the clamp is the answer, not a mask.
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
        while let Some(close) = s.batcher.flush_due(SimTime::from_ns(u64::MAX)) {
            self.dispatch_batch(&mut s, close);
        }
        let mut serving = s.serving;
        for t in &serving.per_tenant {
            serving.queries += t.queries;
            serving.shed += t.shed;
            serving.latency.merge(&t.latency);
            serving.wait.merge(&t.wait);
        }
        debug_assert_eq!(
            serving.queries + serving.shed,
            s.next_qid,
            "every pushed query is served or shed exactly once"
        );
        serving.last_arrival_ns = s.last_arrival.as_ns();
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
        // A host no batch reached may still sit before `t0`; the
        // busiest one never does.
        let t0 = SimTime::ZERO + s.shift;
        serving.makespan_ns = self
            .plant
            .hosts
            .iter()
            .map(|h| h.next_free)
            .max()
            .unwrap_or(t0)
            .since(t0)
            .as_ns();
        serving.run = s.measure.close(&self.plant, serving.makespan_ns);
        serving
    }

    /// Runs one batch's bags through the stage pipeline on host
    /// `host_idx`, measured into `measure` — the timing path both run
    /// modes share. Every core starts at `start` and works through its
    /// share of the query partition `parts`, each bag
    /// (`bag(sample, table)`) issuing when its core frees; the core
    /// clocks live only for the batch. `on_bag(sample, done)` sees each
    /// bag's completion. Returns the batch's last bag completion.
    fn execute_batch<'a>(
        &mut self,
        measure: &mut MeasureWindow,
        host_idx: usize,
        start: SimTime,
        parts: &[Vec<query::WorkItem>],
        bag: impl Fn(u32, u32) -> &'a [u64],
        mut on_bag: impl FnMut(u32, SimTime),
    ) -> SimTime {
        let (mut ctx, scratch) = self.engine_ctx(&mut measure.metrics);
        let mut batch_done = start;
        for items in parts {
            let mut core_free = start;
            for item in items {
                for sample in item.sample_begin..item.sample_end {
                    let issue = core_free;
                    let (done, free) = process_bag(
                        &mut ctx,
                        scratch,
                        host_idx,
                        issue,
                        item.table,
                        bag(sample, item.table),
                    );
                    if measure.fold {
                        let table = &ctx.tables[item.table as usize];
                        ctx.metrics.checksum += fold_bag(ctx.cfg.compute, table, scratch);
                    }
                    core_free = free;
                    batch_done = batch_done.max(done);
                    on_bag(sample, done);
                    measure.bag_latency_sum += done.since(issue).as_ns() as u128;
                    ctx.metrics.bags += 1;
                }
            }
        }
        batch_done
    }

    /// Dispatches the batch the session's batcher closed at `close` —
    /// every pending query, read in place: [`Self::execute_batch`] plus
    /// the open-loop bookkeeping. Batches run in close order,
    /// round-robin over hosts, each starting when both the batch has
    /// closed and its host is free. The batcher is cleared (capacity
    /// kept) on return.
    fn dispatch_batch(&mut self, s: &mut OpenLoopSession, close: SimTime) {
        let bi = s.batches_dispatched as usize;
        s.batches_dispatched += 1;
        let host_idx = bi % self.cfg.n_hosts as usize;
        let start = (close + s.shift).max(self.plant.hosts[host_idx].next_free);
        let n = s.batcher.len() as u32;
        let n_tables = s.batcher.n_tables();
        if s.parts_memo.as_ref().is_none_or(|(len, _)| *len != n) {
            s.parts_memo = Some((
                n,
                query::partition(n_tables, n, self.cfg.cores_per_host, self.cfg.threading),
            ));
        }
        let parts = &s.parts_memo.as_ref().expect("memo just filled").1;
        s.q_done.clear();
        s.q_done.resize(n as usize, start);
        let q_done = &mut s.q_done;
        let batcher = &s.batcher;
        let mut batch_done = self.execute_batch(
            &mut s.measure,
            host_idx,
            start,
            parts,
            |sample, table| batcher.bag(sample as usize, table),
            |sample, done| q_done[sample as usize] = q_done[sample as usize].max(done),
        );
        // A query completes when its last bag does; the response leaves
        // before the epoch-boundary page manager runs.
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
                    let span = done.since(start).as_ns();
                    start + SimDuration::from_ns(dilate(span, mult, f64::round, "slow-down"))
                };
                batch_done = stretch(batch_done);
                for done in s.q_done.iter_mut() {
                    *done = stretch(*done);
                }
            }
        }
        let t0 = SimTime::ZERO + s.shift;
        for (q, &done) in s.batcher.pending().iter().zip(&s.q_done) {
            let latency = done.since(q.arrival + s.shift);
            let wait = start.since(q.arrival + s.shift);
            s.controller.record_latency(latency);
            let slot = s.serving.tenant_mut(q.tenant);
            slot.queries += 1;
            slot.latency.record(latency);
            slot.wait.record(wait);
            if s.record_completion {
                s.serving.completion[q.qid as usize] = SimTime::ZERO + done.since(t0);
            }
            if let Some(w) = &mut s.windows {
                w.record(q.arrival, latency);
            }
        }
        s.serving.mean_batch_fill += f64::from(n);
        if let Some(w) = &mut s.windows {
            w.on_batch_close(close);
        }
        // Page-management epoch at the batch boundary, gated by the
        // controller: the fixed/load policies admit one at every
        // boundary (the historical cadence), the epoch-adaptive
        // policies stretch the cadence while the hot set is stable.
        if self.cfg.page_mgmt.is_some() && s.controller.epoch_due(&mut self.hotness) {
            batch_done += run_pm_epoch(&mut self.epoch_ctx(&mut s.measure.metrics));
        }
        self.plant.hosts[host_idx].next_free = batch_done;
        // Controller load tick: the dispatch backlog (close → service
        // start) is the open-loop queue-depth signal, the fill says
        // whether growing the batch could even absorb it.
        let backlog_ns = start.since(close + s.shift).as_ns();
        if let Some((batch_size, max_wait_ns)) = s.controller.on_batch(n, backlog_ns) {
            s.batcher.set_knobs(batch_size, max_wait_ns);
        }
        s.batcher.clear();
    }

    /// A split-borrow view for the per-bag pipeline stages, charging
    /// `metrics`, plus the bag scratch the stages borrow.
    pub(crate) fn engine_ctx<'a>(
        &'a mut self,
        metrics: &'a mut RunMetrics,
    ) -> (EngineCtx<'a>, &'a mut BagScratch) {
        let ctx = EngineCtx {
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
            epoch_counts: &mut self.epoch_counts,
            metrics,
            next_cluster: &mut self.next_cluster,
        };
        (ctx, &mut self.scratch)
    }

    /// A split-borrow view for the epoch-boundary page manager,
    /// charging `metrics`.
    fn epoch_ctx<'a>(&'a mut self, metrics: &'a mut RunMetrics) -> EpochCtx<'a> {
        EpochCtx {
            cfg: &self.cfg,
            page_table: &mut self.page_table,
            hotness: &mut self.hotness,
            counts: &mut self.epoch_counts,
            devices: &self.plant.devices,
            metrics,
            pm_epoch: &mut self.pm_epoch,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracegen::{ArrivalProcess, Distribution, TraceSpec};

    /// The five schemes on a small RMC1, and a Meta-like trace of
    /// `n_batches` 16-sample batches drawn with `seed`.
    fn schemes_and_trace(n_batches: u32, seed: u64) -> ([SystemConfig; 5], Trace) {
        let model = dlrm::ModelConfig {
            emb_num: 4096,
            ..dlrm::ModelConfig::rmc1()
        };
        let trace = TraceSpec {
            distribution: Distribution::MetaLike {
                reuse_frac: 0.35,
                s: 1.05,
            },
            n_tables: model.n_tables,
            rows_per_table: model.emb_num,
            batch_size: 16,
            n_batches,
            bag_size: model.bag_size,
            seed,
        }
        .generate();
        let schemes = [
            SystemConfig::pond(model.clone()),
            SystemConfig::pond_pm(model.clone()),
            SystemConfig::beacon(model.clone()),
            SystemConfig::recnmp(model.clone(), 0.5),
            SystemConfig::pifs_rec(model),
        ];
        (schemes, trace)
    }

    /// A timing-only closed-loop run differs from a folding one in its
    /// checksum only, with warmup, two hosts and page management in
    /// play: every other `RunMetrics` field, each scheme's fold site
    /// included, is the same.
    #[test]
    fn timing_only_runs_change_nothing_but_the_checksum() {
        let (schemes, trace) = schemes_and_trace(8, 9);
        for mut cfg in schemes {
            cfg.warmup_batches = 2;
            cfg.n_hosts = 2;
            if cfg.page_mgmt.is_none() {
                cfg.page_mgmt = Some(PmConfig::default());
            }
            let mut folding = SlsSystem::new(cfg.clone()).run_trace(&trace);
            let mut timing = SlsSystem::new(cfg).run_trace_timing(&trace);
            assert_ne!(folding.checksum, 0.0);
            assert_eq!(timing.checksum.to_bits(), 0.0f64.to_bits());
            assert!(timing.migrations > 0, "page management must move pages");
            folding.checksum = 0.0;
            timing.checksum = 0.0;
            // `Debug` prints every field, and each f64 in full.
            assert_eq!(format!("{timing:?}"), format!("{folding:?}"));
        }
    }

    /// A timing-only session differs from a folding one in its checksum
    /// only: every other `RunMetrics` and `ServingMetrics` field, each
    /// scheme's fold site included, is the same.
    #[test]
    fn timing_only_sessions_change_nothing_but_the_checksum() {
        let (schemes, trace) = schemes_and_trace(6, 5);
        let arrivals = ArrivalProcess::Poisson { qps: 4e6 }.times(96, 77);
        for cfg in schemes {
            let mut folding = SlsSystem::new(cfg.clone()).run_open_loop(&trace, &arrivals);
            let mut sys = SlsSystem::new(cfg);
            let mut source = TraceArrivals::new(&trace, &arrivals);
            sys.open_loop_begin(trace.n_tables, OpenLoopOpts::default());
            sys.open_loop_timing_only();
            while let Some((_, tenant, at)) = source.next_tagged() {
                sys.open_loop_push_tagged(at, tenant, &source);
            }
            let mut timing = sys.open_loop_finish();
            assert_ne!(folding.run.checksum, 0.0);
            assert_eq!(timing.run.checksum.to_bits(), 0.0f64.to_bits());
            folding.run.checksum = 0.0;
            timing.run.checksum = 0.0;
            // `Debug` prints every field, and each f64 in full.
            assert_eq!(format!("{timing:?}"), format!("{folding:?}"));
        }
    }
}
