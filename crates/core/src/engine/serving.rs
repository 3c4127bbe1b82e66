//! The open-loop serving layer: timestamped query queue, batcher, and
//! streaming latency accounting.
//!
//! Closed-loop runs ([`SlsSystem::run_trace`]) feed batches back-to-back
//! and report aggregate runtime — load is whatever the engine absorbs.
//! Serving mode inverts that: queries arrive at externally generated
//! timestamps (see [`tracegen::arrival`]), wait in a FIFO queue, and a
//! [`QueryBatcher`] closes dynamic batches when either the batch fills
//! ([`ServingConfig::batch_size`]) or the oldest query has waited
//! [`ServingConfig::max_wait_ns`]. Each closed batch is dispatched to
//! the existing `Stage` pipeline (`engine/pipeline.rs`) as soon as
//! its host is free, and every query's enqueue→completion latency lands
//! in a streaming [`LatencyHist`] — the p50/p99 a latency-vs-QPS curve
//! plots.
//!
//! Everything here is deterministic: batch formation depends only on
//! the arrival timestamps and the batcher knobs, ties at the same
//! `SimTime` keep arrival (FIFO) order, and a timeout landing exactly
//! on an arrival's instant fires *before* that arrival is admitted
//! (deadline comparisons are inclusive).
//!
//! [`SlsSystem::run_trace`]: crate::system::SlsSystem::run_trace
//! [`tracegen::arrival`]: ../../../tracegen/arrival/index.html

#![deny(missing_docs)]

use std::collections::VecDeque;

use simkit::{LatencyHist, SimDuration, SimTime};
use tracegen::{QueryStream, TenantMixStream, Trace};

use super::controller::{ControllerPolicy, ServingController};
use super::metrics::{CounterOffsets, RunMetrics};

/// Open-loop batcher knobs (see [`SystemConfig::serving`]).
///
/// [`SystemConfig::serving`]: super::config::SystemConfig::serving
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServingConfig {
    /// Queries per dispatched batch: a batch closes as soon as this
    /// many queries are pending.
    pub batch_size: u32,
    /// Maximum time the oldest pending query may wait before its batch
    /// closes part-full, ns.
    pub max_wait_ns: u64,
    /// Admission-control policy: which arrivals are shed instead of
    /// queued (`serving.shed_policy` knob).
    pub shed: ShedPolicy,
    /// The per-query latency SLA the deadline shedder admits against,
    /// ns (`serving.sla_us` knob). Unused by the other policies.
    pub sla_ns: u64,
    /// Runtime knob-adaptation policy (`serving.controller` knob). The
    /// default [`ControllerPolicy::Fixed`] never moves a knob and is
    /// byte-identical to a build without the controller.
    pub controller: ControllerPolicy,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            batch_size: 32,
            max_wait_ns: 50_000, // 50 µs: a few batch service times
            shed: ShedPolicy::None,
            sla_ns: 25_000, // the bench family's 25 µs p99 SLA
            controller: ControllerPolicy::Fixed,
        }
    }
}

/// SLA-aware admission control: when the serving queue is hopeless, an
/// arrival is *shed* — counted, never queued — so overload degrades
/// into lost answers at bounded latency instead of unbounded queueing.
///
/// [`ShedPolicy::None`] is the default and leaves the admission path
/// observationally identical to a build without shedding (the
/// fault-free byte-identity bar).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Admit everything (the historical behaviour).
    None,
    /// Shed when the batcher already holds `max_pending` queries: a
    /// queue-depth cap.
    QueueDepth {
        /// Pending-query ceiling; arrivals beyond it are shed.
        max_pending: u32,
    },
    /// Shed when even the least-loaded host's backlog already exceeds
    /// the SLA at the arrival instant — the query would blow its
    /// deadline before service *begins*, so answering it helps nobody.
    Deadline,
}

impl ShedPolicy {
    /// Parses the knob spelling `none | queue:<depth> | deadline`.
    /// Errors say why the spec was rejected.
    pub fn parse(spec: &str) -> Result<ShedPolicy, String> {
        let mut parts = spec.split(':');
        let head = parts.next().unwrap_or("").to_ascii_lowercase();
        let parsed = match head.as_str() {
            "none" => ShedPolicy::None,
            "deadline" => ShedPolicy::Deadline,
            "queue" => {
                let raw = parts
                    .next()
                    .ok_or_else(|| format!("shed policy {spec:?}: missing depth"))?;
                let depth = raw.parse::<u32>().map_err(|_| {
                    format!("shed policy {spec:?}: depth {raw:?} is not a positive integer")
                })?;
                if depth == 0 {
                    return Err(format!("shed policy {spec:?}: depth must be >= 1"));
                }
                ShedPolicy::QueueDepth { max_pending: depth }
            }
            other => {
                return Err(format!(
                    "unknown shed policy {other:?} (none|queue:<depth>|deadline)"
                ))
            }
        };
        if parts.next().is_some() {
            return Err(format!("shed policy {spec:?}: trailing arguments"));
        }
        Ok(parsed)
    }

    /// A short stable label for curve keys.
    pub fn label(&self) -> String {
        match *self {
            ShedPolicy::None => "none".to_string(),
            ShedPolicy::QueueDepth { max_pending } => format!("queue:{max_pending}"),
            ShedPolicy::Deadline => "deadline".to_string(),
        }
    }
}

/// One query waiting in (or dispatched from) the serving queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingQuery {
    /// Query id: the index into the arrival stream, which is also the
    /// index of the query's bags in the backing trace.
    pub qid: u64,
    /// Enqueue timestamp.
    pub arrival: SimTime,
}

/// A batch the batcher has closed, ready for dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadyBatch {
    /// The member queries, in arrival (FIFO) order.
    pub queries: Vec<PendingQuery>,
    /// The instant the batch closed: the triggering arrival's timestamp
    /// (full batch) or the oldest member's deadline (timeout). Dispatch
    /// starts at `max(close, host ready)`.
    pub close: SimTime,
}

/// Reusable buffers for the open-loop dispatch path — the serving-side
/// member of the unified scratch convention ([`EngineScratch`]): the
/// per-query completion times of the batch being dispatched and the
/// work-partition memo keep their capacity across batches and runs,
/// mirroring what [`BagScratch`](super::pipeline::BagScratch) does for
/// the per-bag path.
///
/// [`EngineScratch`]: super::pipeline::EngineScratch
#[derive(Debug, Default, Clone)]
pub(crate) struct ServingScratch {
    /// Per-query completion time of the batch being dispatched.
    pub q_done: Vec<SimTime>,
    /// Work-partition memo keyed by batch size. Reset at the start of
    /// every session: the layout also bakes in the stream's table count.
    pub parts_memo: Option<(u32, Vec<Vec<dlrm::query::WorkItem>>)>,
}

/// The query batcher: a FIFO of pending queries with fill and max-wait
/// close conditions.
///
/// Driver contract: before admitting an arrival at time `t`, call
/// [`Self::flush_due`]`(t)` until it returns `None` (a timeout strictly
/// before — or exactly at — `t` fires first); then [`Self::offer`] the
/// arrival. After the last arrival, drain with [`Self::flush_due`] at
/// `SimTime::MAX` (trailing queries fire at their deadline, exactly as
/// they would had more traffic followed).
#[derive(Debug, Clone)]
pub struct QueryBatcher {
    batch_size: usize,
    max_wait: SimDuration,
    pending: VecDeque<PendingQuery>,
}

impl QueryBatcher {
    /// Creates an empty batcher with `cfg`'s knobs.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.batch_size` is zero.
    pub fn new(cfg: &ServingConfig) -> Self {
        assert!(cfg.batch_size > 0, "serving batch size must be positive");
        QueryBatcher {
            batch_size: cfg.batch_size as usize,
            max_wait: SimDuration::from_ns(cfg.max_wait_ns),
            pending: VecDeque::new(),
        }
    }

    /// Number of queries currently pending.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no queries are pending.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The instant the oldest pending query's max-wait expires, or
    /// `None` when the queue is empty.
    pub fn deadline(&self) -> Option<SimTime> {
        self.pending.front().map(|q| q.arrival + self.max_wait)
    }

    /// Admits one arrival. Returns the closed batch when this arrival
    /// fills it (close time = `at`). Arrivals at the same `SimTime`
    /// keep their call order — the FIFO tie-break.
    pub fn offer(&mut self, qid: u64, at: SimTime) -> Option<ReadyBatch> {
        debug_assert!(
            self.deadline().is_none_or(|d| d > at),
            "flush_due must run before offer admits an arrival at {at}"
        );
        self.pending.push_back(PendingQuery { qid, arrival: at });
        (self.pending.len() >= self.batch_size).then(|| ReadyBatch {
            queries: self.pending.drain(..).collect(),
            close: at,
        })
    }

    /// Fires the max-wait timeout if it is due at `now` (inclusive):
    /// returns the part-full batch closed at its deadline, or `None`
    /// when the queue is empty or the oldest query can still wait. An
    /// empty tick (`flush_due` on an empty batcher) is a no-op.
    pub fn flush_due(&mut self, now: SimTime) -> Option<ReadyBatch> {
        let deadline = self.deadline()?;
        (deadline <= now).then(|| ReadyBatch {
            queries: self.pending.drain(..).collect(),
            close: deadline,
        })
    }

    /// Retunes the close conditions mid-stream (the serving
    /// controller's lever). Applies from the next close decision; the
    /// already-pending queries keep their arrival timestamps, so a
    /// shrunk `max_wait` may make the oldest pending query immediately
    /// due — the driver's next `flush_due` fires it.
    pub(crate) fn set_knobs(&mut self, batch_size: u32, max_wait_ns: u64) {
        assert!(batch_size > 0, "serving batch size must be positive");
        self.batch_size = batch_size as usize;
        self.max_wait = SimDuration::from_ns(max_wait_ns);
    }
}

/// What one open-loop serving run measured.
#[derive(Debug, Clone, Default)]
pub struct ServingMetrics {
    /// Queries served.
    pub queries: u64,
    /// Dynamic batches dispatched.
    pub batches: u64,
    /// End of the last batch (including exposed migration overhead) —
    /// the run's makespan, ns.
    pub makespan_ns: u64,
    /// Per-query enqueue→completion latency.
    pub latency: LatencyHist,
    /// Per-query enqueue→dispatch wait (queueing + batching delay; the
    /// remainder of `latency` is pipeline service time).
    pub wait: LatencyHist,
    /// Mean batch fill as a fraction of the configured batch size (1.0
    /// = every batch closed full, lower = max-wait timeouts fired).
    pub mean_batch_fill: f64,
    /// Run-relative completion instant of each query, indexed by qid.
    /// `completion[q] - arrivals[q]` is the latency the histogram
    /// recorded; the cluster layer keys its cross-node merge on these
    /// (a sharded query completes when its last shard's completion —
    /// plus the inter-node hop — lands). Empty when the session ran
    /// with [`OpenLoopOpts::record_completion`] off.
    pub completion: Vec<SimTime>,
    /// Arrival-time-windowed latency summaries, in window order. Empty
    /// unless the session ran with [`OpenLoopOpts::window_ns`] set.
    pub windows: Vec<WindowSummary>,
    /// Arrivals the admission controller shed (never queued, no
    /// latency recorded). `queries` counts only served queries, so
    /// `queries + shed` is the offered load.
    pub shed: u64,
    /// The shed queries' ids, ascending. With
    /// [`OpenLoopOpts::record_completion`] on, a shed qid's
    /// [`completion`](Self::completion) entry is its arrival instant —
    /// the slot exists (downstream merges index by qid) but spans zero
    /// service.
    pub shed_qids: Vec<u64>,
    /// Per-tenant splits, tenant-index order. Untagged pushes
    /// ([`SlsSystem::open_loop_push`]) land on tenant 0, so a
    /// single-tenant run has one entry mirroring the whole-run
    /// aggregates.
    ///
    /// [`SlsSystem::open_loop_push`]: crate::system::SlsSystem::open_loop_push
    pub per_tenant: Vec<TenantServing>,
    /// Page-management epochs the run's controller admitted (0 when the
    /// scheme has no page management).
    pub pm_epochs: u64,
    /// The underlying pipeline metrics for the whole run.
    pub run: RunMetrics,
}

/// One tenant's slice of a serving run (see
/// [`ServingMetrics::per_tenant`]).
#[derive(Debug, Clone, Default)]
pub struct TenantServing {
    /// Queries this tenant had served.
    pub queries: u64,
    /// This tenant's arrivals the admission controller shed.
    pub shed: u64,
    /// This tenant's enqueue→completion latencies.
    pub latency: LatencyHist,
    /// This tenant's enqueue→dispatch waits.
    pub wait: LatencyHist,
}

impl ServingMetrics {
    /// Achieved throughput in queries per second (0.0 when empty).
    pub fn achieved_qps(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.queries as f64 * 1e9 / self.makespan_ns as f64
        }
    }

    /// Fraction of offered queries that were served (1.0 when nothing
    /// was offered): the node-local availability ratio.
    pub fn availability(&self) -> f64 {
        let offered = self.queries + self.shed;
        if offered == 0 {
            1.0
        } else {
            self.queries as f64 / offered as f64
        }
    }

    /// The per-tenant slot for `tenant`, growing the split vector with
    /// empty slots as needed (tenant indices are dense and small).
    pub(crate) fn tenant_mut(&mut self, tenant: u16) -> &mut TenantServing {
        let idx = tenant as usize;
        if self.per_tenant.len() <= idx {
            self.per_tenant.resize_with(idx + 1, TenantServing::default);
        }
        &mut self.per_tenant[idx]
    }
}

/// A query's per-table row bags, however they are stored.
///
/// The streaming entry points ([`SlsSystem::open_loop_push`]) take the
/// query's lookups through this trait so the same dispatch path serves
/// a materialized [`Trace`] (through [`TraceArrivals`]), a lazy
/// [`QueryStream`], and the cluster router's recycled per-shard sub-bag
/// buffers.
///
/// [`SlsSystem::open_loop_push`]: crate::system::SlsSystem::open_loop_push
pub trait QueryBags {
    /// The row indices this query looks up in `table`. Out-of-range
    /// tables may panic.
    fn bag(&self, table: u32) -> &[u64];
}

impl QueryBags for QueryStream {
    fn bag(&self, table: u32) -> &[u64] {
        QueryStream::bag(self, table)
    }
}

impl QueryBags for TenantMixStream {
    fn bag(&self, table: u32) -> &[u64] {
        TenantMixStream::bag(self, table)
    }
}

/// Per-shard routed sub-bags, table-indexed (the cluster router's
/// recycled buffers).
impl QueryBags for [Vec<u64>] {
    fn bag(&self, table: u32) -> &[u64] {
        &self[table as usize]
    }
}

/// A tagged query source: what a serving run — one node's
/// [`SlsSystem::run_open_loop_streamed`] or a cluster's router and
/// functional-checksum replay — needs from a workload. The current
/// query's bags are read through [`QueryBags`], valid until the next
/// [`Self::next_tagged`]. Single-tenant sources ([`QueryStream`],
/// [`TraceArrivals`]) tag every query tenant 0; a [`TenantMixStream`]
/// carries its own tags.
///
/// [`SlsSystem::run_open_loop_streamed`]: crate::system::SlsSystem::run_open_loop_streamed
pub trait TaggedQuerySource: Clone + QueryBags {
    /// Advances to the next query, returning `(qid, tenant, arrival)`.
    fn next_tagged(&mut self) -> Option<(u64, u16, SimTime)>;
    /// Tables per query.
    fn n_tables(&self) -> u32;
    /// Row-space size per table: every row the source emits is below
    /// it (the maximum over tenants for a mix).
    fn rows_per_table(&self) -> u64;
    /// Queries emitted so far.
    fn position(&self) -> u64;
}

/// The entry check of every serving run: `source` must not look up rows
/// beyond `model`'s embedding tables.
///
/// # Panics
///
/// Panics if the source's row space exceeds `model.emb_num`.
pub(crate) fn assert_rows_fit(model: &dlrm::ModelConfig, source: &impl TaggedQuerySource) {
    assert!(
        source.rows_per_table() <= model.emb_num,
        "stream rows exceed the model's embedding count"
    );
}

impl TaggedQuerySource for QueryStream {
    fn next_tagged(&mut self) -> Option<(u64, u16, SimTime)> {
        self.next_query().map(|(qid, at)| (qid, 0, at))
    }
    fn n_tables(&self) -> u32 {
        QueryStream::n_tables(self)
    }
    fn rows_per_table(&self) -> u64 {
        self.spec().trace.rows_per_table
    }
    fn position(&self) -> u64 {
        QueryStream::position(self)
    }
}

impl TaggedQuerySource for TenantMixStream {
    fn next_tagged(&mut self) -> Option<(u64, u16, SimTime)> {
        self.next_query()
    }
    fn n_tables(&self) -> u32 {
        TenantMixStream::n_tables(self)
    }
    fn rows_per_table(&self) -> u64 {
        self.specs()
            .iter()
            .map(|t| t.stream.trace.rows_per_table)
            .max()
            .unwrap_or(0)
    }
    fn position(&self) -> u64 {
        TenantMixStream::position(self)
    }
}

/// A materialized `(trace, arrivals)` pair as a [`TaggedQuerySource`]:
/// query `q` is sample `q % batch_size` of trace batch `q / batch_size`,
/// arriving at `arrivals[q]`, tenant 0. Borrowing and `Copy`, so the
/// merge's replay clone costs nothing.
#[derive(Debug, Clone, Copy)]
pub struct TraceArrivals<'a> {
    trace: &'a Trace,
    arrivals: &'a [SimTime],
    /// Queries emitted so far.
    next: usize,
    /// Trace batch and sample of the current query.
    batch: usize,
    sample: u32,
}

impl<'a> TraceArrivals<'a> {
    /// Pairs `trace` with its arrival stream, at query 0.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` holds more queries than the trace has
    /// samples, or is not sorted non-decreasing.
    pub fn new(trace: &'a Trace, arrivals: &'a [SimTime]) -> Self {
        let capacity = trace.batches.len() as u64 * trace.batch_size as u64;
        assert!(
            arrivals.len() as u64 <= capacity,
            "arrival stream has more queries than the trace has samples"
        );
        assert!(
            arrivals.windows(2).all(|w| w[0] <= w[1]),
            "arrival timestamps must be sorted non-decreasing"
        );
        TraceArrivals {
            trace,
            arrivals,
            next: 0,
            batch: 0,
            sample: 0,
        }
    }
}

impl QueryBags for TraceArrivals<'_> {
    fn bag(&self, table: u32) -> &[u64] {
        self.trace.bag(self.batch, table, self.sample)
    }
}

impl TaggedQuerySource for TraceArrivals<'_> {
    fn next_tagged(&mut self) -> Option<(u64, u16, SimTime)> {
        let qid = self.next;
        let &at = self.arrivals.get(qid)?;
        let batch_size = self.trace.batch_size as usize;
        self.batch = qid / batch_size;
        self.sample = (qid % batch_size) as u32;
        self.next += 1;
        Some((qid as u64, 0, at))
    }
    fn n_tables(&self) -> u32 {
        self.trace.n_tables
    }
    fn rows_per_table(&self) -> u64 {
        self.trace.rows_per_table
    }
    fn position(&self) -> u64 {
        self.next as u64
    }
}

/// Options for a streaming open-loop session
/// ([`SlsSystem::open_loop_begin`]).
///
/// [`SlsSystem::open_loop_begin`]: crate::system::SlsSystem::open_loop_begin
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoopOpts {
    /// Record the per-query completion vector
    /// ([`ServingMetrics::completion`]). The vector grows with the
    /// stream — turn it off for bounded-memory long-trace runs that
    /// only need the histograms.
    pub record_completion: bool,
    /// Partition the latency histogram into arrival-time windows of
    /// this many ns ([`ServingMetrics::windows`]); `None` keeps only
    /// the whole-run histograms. Windows finalize online as soon as no
    /// future query can land in them, so the open set stays O(1).
    pub window_ns: Option<u64>,
}

impl Default for OpenLoopOpts {
    fn default() -> Self {
        OpenLoopOpts {
            record_completion: true,
            window_ns: None,
        }
    }
}

/// One finalized arrival-time window of per-query latencies.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSummary {
    /// Window index: arrivals in `[window * window_ns, (window + 1) *
    /// window_ns)` land here. Windows with no arrivals are skipped.
    pub window: u64,
    /// Window start, ns (window × the session's `window_ns`).
    pub start_ns: u64,
    /// Queries completed in this window.
    pub count: u64,
    /// Median latency, ns.
    pub p50_ns: u64,
    /// 99th-percentile latency, ns.
    pub p99_ns: u64,
    /// Mean latency, ns.
    pub mean_ns: f64,
    /// Maximum latency, ns.
    pub max_ns: u64,
}

/// Streaming arrival-time-windowed latency accounting.
///
/// Latencies are keyed by the query's *arrival* window (shift- and
/// placement-independent), recorded as each batch retires. A window
/// finalizes — its histogram summarized and dropped — as soon as the
/// batcher guarantees no future query can land in it: any batch
/// closing at `c` holds arrivals in `[c - max_wait, c]`, and every
/// later arrival is `>= c - max_wait`, so after dispatching that batch
/// all windows ending at or before `c - max_wait` are complete. The
/// open set is therefore bounded by `max_wait / window_ns + 2`
/// entries regardless of stream length.
#[derive(Debug, Clone)]
pub(crate) struct LatencyWindows {
    window_ns: u64,
    max_wait: SimDuration,
    /// Open windows in ascending index order (arrivals are
    /// non-decreasing, so append-at-back keeps them sorted).
    open: VecDeque<(u64, LatencyHist)>,
    /// Finalized summaries, in window order.
    done: Vec<WindowSummary>,
}

impl LatencyWindows {
    /// Creates an empty accounting with `window_ns`-wide windows under
    /// a batcher with `max_wait_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `window_ns` is zero.
    pub fn new(window_ns: u64, max_wait_ns: u64) -> Self {
        assert!(window_ns > 0, "latency window width must be positive");
        LatencyWindows {
            window_ns,
            max_wait: SimDuration::from_ns(max_wait_ns),
            open: VecDeque::new(),
            done: Vec::new(),
        }
    }

    /// Records one query's latency under its arrival window.
    pub fn record(&mut self, arrival: SimTime, latency: SimDuration) {
        let idx = arrival.as_ns() / self.window_ns;
        match self.open.back_mut() {
            Some((last, hist)) if *last == idx => hist.record(latency),
            _ => {
                debug_assert!(
                    self.open.back().is_none_or(|(last, _)| *last < idx),
                    "arrivals must be non-decreasing"
                );
                let mut hist = LatencyHist::default();
                hist.record(latency);
                self.open.push_back((idx, hist));
            }
        }
    }

    /// Finalizes every window no future arrival can land in, given that
    /// a batch just closed at `close` (see the type docs for why
    /// `close - max_wait` is the safe bound).
    pub fn on_batch_close(&mut self, close: SimTime) {
        let bound = close.as_ns().saturating_sub(self.max_wait.as_ns());
        while let Some((idx, _)) = self.open.front() {
            if (idx + 1).saturating_mul(self.window_ns) > bound {
                break;
            }
            let (idx, hist) = self.open.pop_front().expect("front just checked");
            self.finalize(idx, &hist);
        }
    }

    /// Drains every remaining window and returns the summaries.
    pub fn finish(mut self) -> Vec<WindowSummary> {
        while let Some((idx, hist)) = self.open.pop_front() {
            self.finalize(idx, &hist);
        }
        self.done
    }

    fn finalize(&mut self, idx: u64, hist: &LatencyHist) {
        self.done.push(WindowSummary {
            window: idx,
            start_ns: idx * self.window_ns,
            count: hist.count(),
            p50_ns: hist.percentile(0.50),
            p99_ns: hist.percentile(0.99),
            mean_ns: hist.mean_ns(),
            max_ns: hist.max_ns(),
        });
    }
}

/// The state of one in-progress streaming open-loop run, between
/// [`SlsSystem::open_loop_begin`] and [`SlsSystem::open_loop_finish`].
///
/// Holds everything `run_open_loop`'s two-phase implementation kept on
/// the stack — the batcher, the accumulating metrics, the counter
/// snapshots, and the warm-start time base — plus a bounded store of
/// the pending (not yet dispatched) queries' bags: at most
/// `batch_size` queries × `n_tables` bags, recycled at every dispatch.
/// `Clone` is the checkpoint primitive: a cloned session (inside a
/// cloned [`SlsSystem`](crate::system::SlsSystem)) resumes
/// byte-identically.
///
/// [`SlsSystem::open_loop_begin`]: crate::system::SlsSystem::open_loop_begin
/// [`SlsSystem::open_loop_finish`]: crate::system::SlsSystem::open_loop_finish
#[derive(Debug, Clone)]
pub(crate) struct OpenLoopSession {
    /// The dynamic batcher.
    pub batcher: QueryBatcher,
    /// Metrics accumulated so far.
    pub serving: ServingMetrics,
    /// Sum of per-bag latencies (for `mean_bag_ns`).
    pub bag_latency_sum: u128,
    /// Device access counts at session start.
    pub dev_offset: Vec<u64>,
    /// Hardware counters at session start.
    pub counter_offsets: CounterOffsets,
    /// The warm-start time base: max host `next_free` at begin.
    pub t0: SimTime,
    /// `t0` as a shift applied to every arrival timestamp.
    pub shift: SimDuration,
    /// Batches dispatched so far (the host round-robin cursor).
    pub batches_dispatched: u64,
    /// Record the per-query completion vector.
    pub record_completion: bool,
    /// Tables per query (the partition layout input).
    pub n_tables: u32,
    /// Pending queries' rows, query-major then table-major, flat.
    pub rows: Vec<u64>,
    /// Bag boundaries into `rows`: pending query `p`, table `t` spans
    /// `rows[offsets[p * n_tables + t]..offsets[p * n_tables + t + 1]]`
    /// (leading sentinel 0).
    pub offsets: Vec<usize>,
    /// Windowed latency accounting, when requested.
    pub windows: Option<LatencyWindows>,
    /// Next query id to assign (== queries pushed so far).
    pub next_qid: u64,
    /// Latest pushed arrival (monotonicity check).
    pub last_arrival: SimTime,
    /// Shed queries awaiting their slot in the completion vector
    /// (qid, arrival): completions index by qid, and a shed query's
    /// neighbours may still be pending when it is dropped, so its entry
    /// is spliced in as the surrounding batches retire. Only populated
    /// when completions are recorded and the shed policy is active.
    pub shed_completions: VecDeque<(u64, SimTime)>,
    /// Pending queries' tenant tags, parallel to the pending-bag store
    /// (untagged pushes record tenant 0).
    pub tenants: Vec<u16>,
    /// The adaptive-knob controller (a no-op under
    /// [`ControllerPolicy::Fixed`]).
    pub controller: ServingController,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batcher(batch_size: u32, max_wait_ns: u64) -> QueryBatcher {
        QueryBatcher::new(&ServingConfig {
            batch_size,
            max_wait_ns,
            ..ServingConfig::default()
        })
    }

    fn qids(b: &ReadyBatch) -> Vec<u64> {
        b.queries.iter().map(|q| q.qid).collect()
    }

    #[test]
    fn fills_close_at_the_triggering_arrival() {
        let mut b = batcher(3, 1_000);
        assert!(b.offer(0, SimTime::from_ns(10)).is_none());
        assert!(b.offer(1, SimTime::from_ns(20)).is_none());
        let batch = b.offer(2, SimTime::from_ns(30)).expect("batch full");
        assert_eq!(qids(&batch), [0, 1, 2]);
        assert_eq!(batch.close, SimTime::from_ns(30));
        assert!(b.is_empty());
    }

    #[test]
    fn empty_tick_is_a_no_op() {
        let mut b = batcher(4, 1_000);
        assert!(b.flush_due(SimTime::from_ns(5_000)).is_none());
        assert!(b.is_empty());
        assert_eq!(b.deadline(), None);
    }

    #[test]
    fn max_wait_fires_before_the_batch_fills() {
        let mut b = batcher(8, 1_000);
        assert!(b.offer(0, SimTime::from_ns(100)).is_none());
        assert!(b.offer(1, SimTime::from_ns(600)).is_none());
        // Not due yet at 1099…
        assert!(b.flush_due(SimTime::from_ns(1_099)).is_none());
        // …due at the oldest query's deadline, closing part-full there.
        let batch = b.flush_due(SimTime::from_ns(5_000)).expect("timeout due");
        assert_eq!(qids(&batch), [0, 1]);
        assert_eq!(batch.close, SimTime::from_ns(1_100));
        assert!(b.is_empty());
        // The tick after the flush is an empty tick.
        assert!(b.flush_due(SimTime::from_ns(5_000)).is_none());
    }

    #[test]
    fn timeout_exactly_at_an_arrival_fires_first() {
        // Deadline comparisons are inclusive: an arrival landing exactly
        // on the oldest query's deadline joins the *next* batch.
        let mut b = batcher(8, 1_000);
        assert!(b.offer(0, SimTime::from_ns(0)).is_none());
        let at = SimTime::from_ns(1_000);
        let batch = b.flush_due(at).expect("deadline is inclusive");
        assert_eq!(qids(&batch), [0]);
        assert_eq!(batch.close, at);
        assert!(b.offer(1, at).is_none());
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn same_simtime_arrivals_keep_fifo_order() {
        let mut b = batcher(4, 1_000);
        let t = SimTime::from_ns(77);
        assert!(b.offer(10, t).is_none());
        assert!(b.offer(11, t).is_none());
        assert!(b.offer(12, t).is_none());
        let batch = b.offer(13, t).expect("filled");
        assert_eq!(qids(&batch), [10, 11, 12, 13]);
        assert_eq!(batch.close, t);
    }

    #[test]
    fn trailing_queries_flush_at_their_deadline() {
        let mut b = batcher(8, 2_000);
        assert!(b.offer(0, SimTime::from_ns(500)).is_none());
        assert!(b.offer(1, SimTime::from_ns(900)).is_none());
        // End of stream: drain with a far-future now.
        let batch = b
            .flush_due(SimTime::from_ns(u64::MAX))
            .expect("trailing batch");
        assert_eq!(qids(&batch), [0, 1]);
        assert_eq!(batch.close, SimTime::from_ns(2_500));
        assert!(b.flush_due(SimTime::from_ns(u64::MAX)).is_none());
    }

    #[test]
    fn batch_size_one_dispatches_immediately() {
        let mut b = batcher(1, 1_000);
        let batch = b.offer(0, SimTime::from_ns(42)).expect("immediate");
        assert_eq!(qids(&batch), [0]);
        assert_eq!(batch.close, SimTime::from_ns(42));
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_rejected() {
        let _ = batcher(0, 1_000);
    }

    #[test]
    fn shed_policy_parse_covers_spellings_and_reports_why_it_rejects() {
        assert_eq!(ShedPolicy::parse("none"), Ok(ShedPolicy::None));
        assert_eq!(ShedPolicy::parse("deadline"), Ok(ShedPolicy::Deadline));
        assert_eq!(
            ShedPolicy::parse("queue:64"),
            Ok(ShedPolicy::QueueDepth { max_pending: 64 })
        );
        assert!(ShedPolicy::parse("fifo")
            .unwrap_err()
            .contains("unknown shed policy"));
        assert!(ShedPolicy::parse("queue")
            .unwrap_err()
            .contains("missing depth"));
        assert!(ShedPolicy::parse("queue:0").unwrap_err().contains(">= 1"));
        assert!(ShedPolicy::parse("queue:x")
            .unwrap_err()
            .contains("not a positive integer"));
        assert!(ShedPolicy::parse("deadline:5")
            .unwrap_err()
            .contains("trailing"));
        for spec in ["none", "deadline", "queue:8"] {
            let parsed = ShedPolicy::parse(spec).unwrap();
            assert_eq!(ShedPolicy::parse(&parsed.label()), Ok(parsed));
        }
    }

    #[test]
    fn availability_counts_shed_against_offered() {
        let mut m = ServingMetrics::default();
        assert_eq!(m.availability(), 1.0);
        m.queries = 30;
        m.shed = 10;
        assert_eq!(m.availability(), 0.75);
    }

    #[test]
    fn set_knobs_applies_to_the_next_close_decision() {
        let mut b = batcher(4, 10_000);
        assert!(b.offer(0, SimTime::from_ns(100)).is_none());
        assert!(b.offer(1, SimTime::from_ns(200)).is_none());
        // Shrinking the fill target below the pending count does not
        // close retroactively — the next offer does.
        b.set_knobs(2, 500);
        let batch = b.offer(2, SimTime::from_ns(300)).expect("fill target 2");
        assert_eq!(qids(&batch), [0, 1, 2]);
        // The shrunk max-wait governs the next deadline.
        assert!(b.offer(3, SimTime::from_ns(400)).is_none());
        assert_eq!(b.deadline(), Some(SimTime::from_ns(900)));
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn set_knobs_rejects_zero_batch_size() {
        batcher(4, 1_000).set_knobs(0, 1_000);
    }

    // ---- window-retirement boundary pins (ISSUE 10 satellite 2) ----
    //
    // The bound at `on_batch_close` is `close - max_wait` (saturating),
    // and a window retires iff it ends *at or before* the bound:
    // `(idx + 1) * window_ns > bound` keeps it open. These tests pin
    // that inclusive/exclusive convention at the exact edges.

    fn retired(w: &LatencyWindows) -> Vec<u64> {
        w.done.iter().map(|s| s.window).collect()
    }

    fn open_windows(w: &LatencyWindows) -> Vec<u64> {
        w.open.iter().map(|(idx, _)| *idx).collect()
    }

    #[test]
    fn window_ending_exactly_at_the_bound_retires() {
        // close 3_000, max_wait 1_000 → bound 2_000. Window 1 spans
        // [1_000, 2_000): it ends exactly at the bound and a future
        // arrival is >= 2_000, so it must retire. Window 2 spans
        // [2_000, 3_000): an arrival at exactly 2_000 could still land
        // in it, so it must stay open.
        let mut w = LatencyWindows::new(1_000, 1_000);
        w.record(SimTime::from_ns(1_500), SimDuration::from_ns(10));
        w.record(SimTime::from_ns(2_000), SimDuration::from_ns(20));
        w.on_batch_close(SimTime::from_ns(3_000));
        assert_eq!(retired(&w), [1]);
        assert_eq!(open_windows(&w), [2]);
        // One ns earlier and window 1 ends past the bound: it stays.
        let mut w = LatencyWindows::new(1_000, 1_000);
        w.record(SimTime::from_ns(1_500), SimDuration::from_ns(10));
        w.on_batch_close(SimTime::from_ns(2_999));
        assert_eq!(retired(&w), [] as [u64; 0]);
        assert_eq!(open_windows(&w), [1]);
    }

    #[test]
    fn zero_max_wait_retires_right_up_to_the_close() {
        // max_wait 0 → bound == close: every window ending at or
        // before the close instant retires immediately.
        let mut w = LatencyWindows::new(100, 0);
        w.record(SimTime::from_ns(50), SimDuration::from_ns(1));
        w.record(SimTime::from_ns(150), SimDuration::from_ns(1));
        w.record(SimTime::from_ns(200), SimDuration::from_ns(1));
        w.on_batch_close(SimTime::from_ns(200));
        // Windows 0 ([0,100)) and 1 ([100,200)) end at/before 200;
        // window 2 ([200,300)) holds the close-instant arrival itself.
        assert_eq!(retired(&w), [0, 1]);
        assert_eq!(open_windows(&w), [2]);
    }

    #[test]
    fn window_wider_than_the_close_stays_open_until_finish() {
        // window_ns > close: window 0 ends at 10_000, far past any
        // bound a close at 500 can justify — it must survive every
        // close and only drain at finish.
        let mut w = LatencyWindows::new(10_000, 100);
        w.record(SimTime::from_ns(10), SimDuration::from_ns(7));
        w.on_batch_close(SimTime::from_ns(500));
        assert_eq!(retired(&w), [] as [u64; 0]);
        assert_eq!(open_windows(&w), [0]);
        let done = w.finish();
        assert_eq!(done.len(), 1);
        assert_eq!((done[0].window, done[0].count), (0, 1));
    }

    #[test]
    fn close_before_max_wait_clamps_the_bound_to_zero() {
        // close < max_wait: the saturating_sub clamps bound to 0 and
        // nothing can retire — no window ends at or before 0.
        let mut w = LatencyWindows::new(100, 5_000);
        w.record(SimTime::from_ns(10), SimDuration::from_ns(3));
        w.on_batch_close(SimTime::from_ns(400));
        assert_eq!(retired(&w), [] as [u64; 0]);
        assert_eq!(open_windows(&w), [0]);
    }

    #[test]
    fn retirement_matches_finish_summaries_exactly() {
        // A window summarized at retirement must equal the summary the
        // same records would produce at finish (no double-finalize, no
        // lost records across the bound).
        let feed = |w: &mut LatencyWindows| {
            for i in 0..10u64 {
                w.record(SimTime::from_ns(i * 300), SimDuration::from_ns(10 + i));
            }
        };
        let mut streamed = LatencyWindows::new(1_000, 500);
        feed(&mut streamed);
        streamed.on_batch_close(SimTime::from_ns(2_700));
        assert_eq!(retired(&streamed), [0, 1]);
        let mut whole = LatencyWindows::new(1_000, 500);
        feed(&mut whole);
        assert_eq!(streamed.finish(), whole.finish());
    }
}
