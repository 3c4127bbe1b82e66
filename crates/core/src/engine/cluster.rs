//! Cluster-scale sharded serving: N [`SlsSystem`] nodes behind a query
//! router.
//!
//! The paper evaluates one PIFS node; serving millions of users means a
//! fleet behind a routing tier. This layer instantiates `n_shards` full
//! nodes, shards the embedding tables across them under a pluggable
//! [`ShardPolicy`], and serves any [`TaggedQuerySource`] — a lazy
//! [`tracegen::QueryStream`], a [`tracegen::TenantMixStream`], or a
//! materialized `(Trace, arrivals)` pair through [`TraceArrivals`] — on
//! one path.
//! A run ([`SlsCluster::run_open_loop_streamed`]) builds the placement
//! once and walks the source once: [`route_stream`] splits each query's
//! bags into per-shard sub-bags (recycled buffers; no per-node trace is
//! ever built) and pushes every participating shard's share straight
//! into that node's open-loop session. [`merge_node_parts`] then merges
//! the per-node results on two planes:
//!
//! * **Timing plane** — a sharded query completes when its last shard's
//!   response lands at the router: the max over participating shards of
//!   the per-node completion instant, plus a serialized transfer over
//!   the shared aggregation link and one inter-node hop
//!   ([`cxlsim::FlexBusLink`] + [`CxlParams::inter_switch_ns`]) for
//!   every shard other than the query's home shard. A query served
//!   entirely by one shard returns directly — which is why a 1-shard
//!   cluster is *byte-identical* to plain
//!   [`run_open_loop`](SlsSystem::run_open_loop).
//! * **Functional plane** — each query's checksum is the f64 sum of
//!   its served embedding elements. It is the run's one functional
//!   plane: the nodes run timing only and fold no values (each node's
//!   [`RunMetrics::checksum`](crate::system::RunMetrics::checksum) is
//!   `0.0`). Procedural embedding values are exact multiples of 2⁻²²,
//!   so while a query's rows × dim stays under
//!   2³¹ ([`dlrm::sls::exact_sum_fits`], asserted per query) every f64
//!   sum on this plane is exact and therefore associative. So the
//!   checksum forms in closed form while routing: [`route_stream`] adds
//!   each served row's integer-mantissa sum
//!   ([`dlrm::EmbeddingTable::row_sum_exact`]) into its shard's scalar
//!   partial, and the merge adds the partials of the participations it
//!   answered, in **fixed shard-index order**. The checksums are
//!   bit-identical for *every* shard count and placement policy, and to
//!   the per-element merge of [`merged_bag_embedding_at`] (the
//!   shard-invariance suite and this module's
//!   `prop_routed_checksums_match_the_per_element_merge` assert both).
//!   The fixed merge order is belt and suspenders on top of the
//!   exactness argument, not a correctness requirement.
//!
//! Determinism: routing, per-node simulation and both merge planes are
//! pure functions of `(config, workload)`. The aggregation link drains
//! responses in query-id order with shards ascending (the router's
//! reorder buffer is FIFO), so the timing merge depends only on each
//! node's completions ([`NodePart`]), never on how the node runs were
//! scheduled. A run is one task: the bench grids keep every core busy
//! with whole points, so nodes are not split across threads.
//!
//! # Resilience
//!
//! A [`ClusterConfig::faults`] schedule (seeded, pure data — see
//! [`simkit::faults`]) makes nodes die, slow down, or the aggregation
//! link degrade, and the layer answers in kind:
//!
//! * **Failover** — routing consults node liveness at each query's
//!   arrival instant. A dead shard's replicated rows fail over to a
//!   live shard (the replica set covers them); its unreplicated rows
//!   are *lost* and the query completes in **degraded mode**, its
//!   per-query coverage (fraction of lookups served) accounted
//!   exactly. Full-coverage answers stay bit-identical to the
//!   fault-free run — the f64 merge plane is exact, so regrouping
//!   partials around a failover cannot move a bit.
//! * **Partial timeout + hedge** — with
//!   [`ClusterConfig::partial_timeout_ns`] set, a cross-shard partial
//!   landing after `arrival + timeout` counts a timeout; if every row
//!   of that partial is replicated, the router's one deterministic
//!   hedged retry answers from a replica at `arrival + timeout + hop`,
//!   otherwise the partial's lookups are lost and the merge proceeds
//!   degraded.
//! * **Shedding** — per-node admission control
//!   ([`ShedPolicy`](super::serving::ShedPolicy)) surfaces here as
//!   shed participations: a shed sub-query serves none of its lookups,
//!   and a query shed by every participating shard counts as a shed
//!   query, not a served one.
//!
//! The empty schedule takes none of these paths: a zero-fault cluster
//! run is byte-identical to one predating this module (determinism
//! rule 6 in ARCHITECTURE.md).
//!
//! [`CxlParams::inter_switch_ns`]: cxlsim::CxlParams::inter_switch_ns

#![deny(missing_docs)]

use cxlsim::FlexBusLink;
use dlrm::{EmbeddingTable, ModelConfig};
use pagemgmt::{HotnessTracker, PageId};
use simkit::faults::{dilate, FaultSchedule};
use simkit::{LatencyHist, SimDuration, SimTime};
use tracegen::Trace;

use super::config::SystemConfig;
use super::serving::{
    assert_rows_fit, OpenLoopOpts, ServingMetrics, TaggedQuerySource, TenantServing, TraceArrivals,
};
use crate::system::SlsSystem;

/// How embedding rows map to shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPolicy {
    /// Owner = `hash(table, row) mod n_shards`: uniform row scatter,
    /// every shard touches every table. Stable under shard-count
    /// *multiplication* in the modular sense — the owner at `m·k`
    /// shards reduces mod `k` to the owner at `k` shards (`h mod m·k ≡
    /// h mod k (mod k)`); owners are otherwise free to move.
    RowHash,
    /// Owner = `table · n_shards / n_tables`: contiguous table ranges,
    /// one shard serves a query's whole bag for each of its tables.
    /// Stable under shard-count multiplication in the hierarchical
    /// sense — the owner at `k` shards is `floor(owner_at_mk / m)`
    /// (each shard's range splits into its `m` children), because
    /// `floor(floor(m·x)/m) = floor(x)`.
    TablePartition,
}

impl ShardPolicy {
    /// Parses the scenario-axis spelling (`row_hash`/`table_partition`).
    /// The error says what was wrong, per the unified parse contract.
    pub fn parse(s: &str) -> Result<ShardPolicy, String> {
        match s {
            "row_hash" => Ok(ShardPolicy::RowHash),
            "table_partition" => Ok(ShardPolicy::TablePartition),
            other => Err(format!(
                "unknown shard policy {other:?} (row_hash|table_partition)"
            )),
        }
    }

    /// The scenario-axis spelling.
    pub fn label(self) -> &'static str {
        match self {
            ShardPolicy::RowHash => "row_hash",
            ShardPolicy::TablePartition => "table_partition",
        }
    }

    /// The shard owning `(table, row)` among `n_shards` shards over
    /// `n_tables` tables (see the variant docs for the stability
    /// promises).
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` or `n_tables` is zero or `table` is out of
    /// range.
    pub fn owner(self, n_shards: u16, n_tables: u32, table: u32, row: u64) -> u16 {
        assert!(n_shards > 0 && n_tables > 0, "degenerate shard space");
        assert!(table < n_tables, "table {table} out of range");
        match self {
            ShardPolicy::RowHash => (mix_table_row(table, row) % n_shards as u64) as u16,
            ShardPolicy::TablePartition => {
                ((table as u64 * n_shards as u64) / n_tables as u64) as u16
            }
        }
    }
}

/// Splitmix64-finished mix of `(table, row)` — independent of the shard
/// count, which is what gives [`ShardPolicy::RowHash`] its modular
/// stability promise.
fn mix_table_row(table: u32, row: u64) -> u64 {
    let mut z = (u64::from(table) << 32 | (u64::from(table) >> 3))
        .wrapping_add(row.wrapping_mul(0x9e3779b97f4a7c15))
        .wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Everything a cluster needs: shard count, placement policy, optional
/// hot-row replication, and the per-node [`SystemConfig`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes (≥ 1).
    pub n_shards: u16,
    /// Row→shard placement policy.
    pub policy: ShardPolicy,
    /// Hottest rows per table replicated onto *every* shard (0 = off).
    /// Hotness is ranked from the workload's access counts with
    /// [`pagemgmt::HotnessTracker`] (hottest first, row-id ascending on
    /// ties), so the replica set is deterministic and identical for
    /// every shard count. Replication never changes functional results
    /// — replicas carry the same procedural values as the owner — it
    /// only lets the router co-locate a hot row's lookup with a bag's
    /// other rows to shrink cross-shard fan-out, and (under faults)
    /// gives a dead shard's rows somewhere to fail over to.
    pub hot_rows_per_table: u32,
    /// The fault schedule this run injects (see [`simkit::faults`]).
    /// The empty schedule — the [`Self::new`] default — keeps every
    /// path byte-identical to a fault-free build.
    pub faults: FaultSchedule,
    /// Per-query deadline for cross-shard partials, ns: a partial
    /// landing at the router after `arrival + timeout` counts a
    /// timeout and is hedged to a replica (when its rows are all
    /// replicated) or declared lost. `None` (the default) waits
    /// forever, the historical behaviour.
    pub partial_timeout_ns: Option<u64>,
    /// The configuration every node is built from.
    pub node: SystemConfig,
}

impl ClusterConfig {
    /// A cluster of `n_shards` nodes, no replication, no faults.
    pub fn new(n_shards: u16, policy: ShardPolicy, node: SystemConfig) -> Self {
        ClusterConfig {
            n_shards,
            policy,
            hot_rows_per_table: 0,
            faults: FaultSchedule::none(n_shards),
            partial_timeout_ns: None,
            node,
        }
    }
}

/// The frozen row→shard map for one trace: the policy plus the
/// hotness-ranked replica set, over the model's functional tables.
#[derive(Debug, Clone)]
pub struct ShardPlacement {
    n_shards: u16,
    policy: ShardPolicy,
    /// The functional table of every routed table (base address zero —
    /// the procedural values depend only on `(table, row, element)`):
    /// the model's row count and dimension, one per table of the source.
    tables: Vec<EmbeddingTable>,
    /// Rows replicated on every shard, per table (sorted for binary
    /// search; empty when replication is off).
    replicated: Vec<Vec<u64>>,
}

impl ShardPlacement {
    /// A placement of `n_tables` tables of `model`'s shape with no
    /// replica set, constructible from the dimensions alone — no
    /// workload scan. Identical to [`Self::build_streamed`] whenever
    /// `hot_rows_per_table` is 0 (the common serving configuration).
    ///
    /// # Panics
    ///
    /// Panics if `n_shards` or `n_tables` is zero, or `model` has no
    /// rows or a zero dimension.
    pub fn from_dims(
        n_shards: u16,
        n_tables: u32,
        policy: ShardPolicy,
        model: &ModelConfig,
    ) -> ShardPlacement {
        assert!(n_shards > 0, "a cluster needs at least one shard");
        assert!(n_tables > 0, "a placement needs at least one table");
        ShardPlacement {
            n_shards,
            policy,
            tables: (0..n_tables)
                .map(|t| EmbeddingTable::new(t, model.emb_num, model.emb_dim, 0))
                .collect(),
            replicated: vec![Vec::new(); n_tables as usize],
        }
    }

    /// Builds the placement for a query source under `cfg`, ranking the
    /// replica set from the workload's per-table access counts
    /// ([`pagemgmt::HotnessTracker`]: hottest first, row id ascending on
    /// ties). With replication off this is [`Self::from_dims`] (no
    /// workload pass at all); with replication on, one clone of the
    /// source is walked to rank hotness — `stream` itself is not
    /// consumed.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is not at position 0 (hotness must rank the
    /// whole workload) or the dimensions are degenerate.
    pub fn build_streamed<S: TaggedQuerySource>(cfg: &ClusterConfig, stream: &S) -> ShardPlacement {
        let n_tables = stream.n_tables();
        let mut placement =
            ShardPlacement::from_dims(cfg.n_shards, n_tables, cfg.policy, &cfg.node.model);
        if cfg.hot_rows_per_table == 0 {
            return placement;
        }
        assert_eq!(
            stream.position(),
            0,
            "hotness ranking needs the whole stream"
        );
        let mut walk = stream.clone();
        let mut trackers: Vec<HotnessTracker> = (0..n_tables)
            .map(|_| HotnessTracker::new(stream.rows_per_table()))
            .collect();
        while walk.next_tagged().is_some() {
            for t in 0..n_tables {
                for &row in walk.bag(t) {
                    trackers[t as usize].record(PageId(row));
                }
            }
        }
        for (rows, tracker) in placement.replicated.iter_mut().zip(&trackers) {
            *rows = tracker
                .hottest(cfg.hot_rows_per_table as usize)
                .into_iter()
                .map(|p| p.0)
                .collect();
            rows.sort_unstable();
        }
        placement
    }

    /// The routing sentinel for a lookup no live shard can serve: its
    /// owner is dead and no replica covers it. Lost lookups are counted
    /// into the query's coverage, never enqueued anywhere.
    pub const LOST: u16 = u16::MAX;

    /// Number of shards.
    pub fn n_shards(&self) -> u16 {
        self.n_shards
    }

    /// The functional table of every routed table, table-index order.
    pub fn tables(&self) -> &[EmbeddingTable] {
        &self.tables
    }

    /// The shard owning `(table, row)` under the policy (replication
    /// aside — the owner also holds a replicated row's primary copy).
    pub fn owner(&self, table: u32, row: u64) -> u16 {
        self.policy
            .owner(self.n_shards, self.tables.len() as u32, table, row)
    }

    /// Whether `(table, row)` is replicated on every shard.
    pub fn is_replicated(&self, table: u32, row: u64) -> bool {
        self.replicated[table as usize].binary_search(&row).is_ok()
    }

    /// Serving shard of each row in one bag, written into `out` (one
    /// entry per row, bag order), with the fault schedule consulted at
    /// the query's arrival instant `at`. Non-replicated rows go to their
    /// owner. A replicated row co-routes to the lowest-index live shard
    /// already serving one of the bag's non-replicated rows — shrinking
    /// the bag's shard fan-out — and falls back to its owner when the
    /// bag holds replicated rows only. Every lookup is served exactly
    /// once (the conservation tests assert no duplicates). A dead
    /// owner's replicated rows fail over — to the bag's pinned live
    /// shard, the owner if it still lives, or the lowest live shard —
    /// while its unreplicated rows route to [`Self::LOST`] (no copy
    /// exists anywhere else). Returns the number of failed-over rows
    /// (always 0 under [`FaultSchedule::none`]).
    pub fn route_bag_at(
        &self,
        table: u32,
        rows: &[u64],
        at: SimTime,
        faults: &FaultSchedule,
        out: &mut Vec<u16>,
    ) -> u64 {
        // Replicated rows get a placeholder distinct from LOST; dead
        // unreplicated owners route to LOST immediately. `pinned` only
        // ever holds a live shard.
        const REPL: u16 = u16::MAX - 1;
        out.clear();
        let mut pinned: Option<u16> = None;
        for &row in rows {
            if self.is_replicated(table, row) {
                out.push(REPL);
            } else {
                let s = self.owner(table, row);
                if faults.alive(s, at) {
                    pinned = Some(pinned.map_or(s, |p| p.min(s)));
                    out.push(s);
                } else {
                    out.push(Self::LOST);
                }
            }
        }
        let mut failovers = 0u64;
        for (slot, &row) in out.iter_mut().zip(rows) {
            if *slot == REPL {
                let owner = self.owner(table, row);
                let owner_alive = faults.alive(owner, at);
                *slot = match pinned {
                    Some(p) => p,
                    None if owner_alive => owner,
                    None => (0..self.n_shards)
                        .find(|&s| faults.alive(s, at))
                        .unwrap_or(Self::LOST),
                };
                if !owner_alive && *slot != Self::LOST {
                    failovers += 1;
                }
            }
        }
        failovers
    }
}

/// What one cluster run measured.
#[derive(Debug, Clone, Default)]
pub struct ClusterMetrics {
    /// Queries offered (each counted once, however many shards it hit),
    /// shed and lost ones included.
    pub queries: u64,
    /// Per-query enqueue→merged-response latency of the answered
    /// queries (folded from [`Self::per_tenant`]).
    pub latency: LatencyHist,
    /// Completion of the last merged response, ns.
    pub makespan_ns: u64,
    /// Arrival instant of the last offered query, ns (0 when nothing was
    /// offered): with `queries` it gives the empirical offered rate.
    pub last_arrival_ns: u64,
    /// Bytes moved over the shared aggregation link (zero when every
    /// query was single-shard).
    pub agg_bytes: u64,
    /// Mean shards participating per query (1.0 = no sharding overhead,
    /// `n_shards` = full scatter).
    pub mean_fanout: f64,
    /// Exact merged functional checksum: the per-query checksums summed
    /// — bit-identical across shard counts and policies (see the module
    /// docs).
    pub checksum: f64,
    /// Per-query exact checksums, indexed by qid (the shard-invariance
    /// tests compare these bitwise across shard counts).
    pub query_checksums: Vec<f64>,
    /// Each node's own serving metrics, shard-index order. The nodes run
    /// the timing plane only, so each `run.checksum` is `0.0`: the
    /// cluster's functional plane is [`Self::checksum`] and
    /// [`Self::query_checksums`].
    pub per_node: Vec<ServingMetrics>,
    /// Per-tenant splits of the *merged* results, tenant-index order:
    /// a tenant's `queries`/`latency` cover its answered queries
    /// (enqueue → merged response), its `shed` counts queries with no
    /// answer at all (shed everywhere or lost). Single-tenant sources
    /// tag every query tenant 0, so they fill one entry. The `wait`
    /// split stays empty (queueing is a node-local quantity, see
    /// [`ServingMetrics::per_tenant`](super::serving::ServingMetrics::per_tenant)).
    pub per_tenant: Vec<TenantServing>,
    /// Queries answered with every offered lookup (full coverage).
    pub fully_served: u64,
    /// Queries answered with at least one lookup missing (routing
    /// loss, shed participation, or dropped partial).
    pub degraded: u64,
    /// Queries every participating shard shed — no answer at all.
    pub shed: u64,
    /// Queries with no live participant at arrival — no answer at all.
    pub lost: u64,
    /// Cross-shard partials that missed the per-query timeout.
    pub timeouts: u64,
    /// Timed-out partials answered by a deterministic replica hedge.
    pub hedges: u64,
    /// Lookups rerouted from a dead owner to a replica shard.
    pub failovers: u64,
    /// Lookups the workload offered across all queries.
    pub total_lookups: u64,
    /// Lookups that made it into some merged answer.
    pub served_lookups: u64,
    /// Mean per-query coverage (served/offered lookups), averaged over
    /// every offered query — unanswered queries count as zero.
    pub mean_coverage: f64,
}

impl ClusterMetrics {
    /// Offered queries per second of makespan (shed and lost queries
    /// count, see [`Self::queries`]).
    pub fn achieved_qps(&self) -> f64 {
        if self.makespan_ns == 0 {
            0.0
        } else {
            self.queries as f64 * 1e9 / self.makespan_ns as f64
        }
    }

    /// Fraction of offered queries answered at full coverage — the SLO
    /// the `cluster_faults` frontier bars on. `1.0` when nothing was
    /// offered.
    pub fn availability(&self) -> f64 {
        if self.queries == 0 {
            1.0
        } else {
            self.fully_served as f64 / self.queries as f64
        }
    }
}

/// N serving nodes plus the router-side merge state.
pub struct SlsCluster {
    cfg: ClusterConfig,
    nodes: Vec<SlsSystem>,
}

impl SlsCluster {
    /// Builds `cfg.n_shards` idle nodes from the node configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.n_shards` is zero (and as [`SlsSystem::new`] for a
    /// degenerate node config).
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.n_shards > 0, "a cluster needs at least one shard");
        let nodes = (0..cfg.n_shards)
            .map(|_| SlsSystem::new(cfg.node.clone()))
            .collect();
        SlsCluster { cfg, nodes }
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Serves a materialized `(trace, arrivals)` pair: query `q` is
    /// sample `q % batch_size` of trace batch `q / batch_size`, arriving
    /// at `arrivals[q]` — [`Self::run_open_loop_streamed`] over
    /// [`TraceArrivals`].
    ///
    /// # Panics
    ///
    /// Panics as [`SlsSystem::run_open_loop`] would: more arrivals than
    /// trace samples, unsorted arrivals, or a trace exceeding the model.
    pub fn run_open_loop(&mut self, trace: &Trace, arrivals: &[SimTime]) -> ClusterMetrics {
        self.run_open_loop_streamed(&mut TraceArrivals::new(trace, arrivals))
    }

    /// Serves a query source across the cluster in one routing pass:
    /// build the placement once, open every node's session timing-only
    /// (with its shard's slow-down windows from
    /// [`ClusterConfig::faults`]), walk the source once with
    /// [`route_stream`] pushing each shard's sub-bags into its node and
    /// forming the checksum partials, finish the sessions, and merge ([`merge_node_parts`]). Tagged sources (a
    /// [`tracegen::TenantMixStream`]) also fill the per-node and merged
    /// per-tenant splits.
    ///
    /// # Panics
    ///
    /// Panics if `stream` is not at position 0, or as
    /// [`SlsSystem::run_open_loop_streamed`] would (a row space beyond
    /// the model, a degenerate stream, a node with a session already
    /// open).
    pub fn run_open_loop_streamed<S: TaggedQuerySource>(
        &mut self,
        stream: &mut S,
    ) -> ClusterMetrics {
        let (routed, per_node) = self.serve(stream);
        let parts: Vec<NodePart<'_>> = per_node.iter().map(NodePart::from).collect();
        let mut merged = merge_node_parts(&self.cfg, &routed, &parts);
        merged.per_node = per_node;
        merged
    }

    /// The serving half of [`Self::run_open_loop_streamed`]: places,
    /// routes `stream` into the nodes and finishes their sessions,
    /// returning the routing record and each node's metrics, shard
    /// order.
    fn serve<S: TaggedQuerySource>(
        &mut self,
        stream: &mut S,
    ) -> (RoutedStream, Vec<ServingMetrics>) {
        assert_rows_fit(&self.cfg.node.model, stream);
        assert_eq!(
            stream.position(),
            0,
            "a streamed cluster run consumes a fresh stream"
        );
        let placement = ShardPlacement::build_streamed(&self.cfg, stream);
        let n_tables = stream.n_tables();
        for (shard, node) in (0..self.cfg.n_shards).zip(&mut self.nodes) {
            node.set_slowdowns(self.cfg.faults.slow_intervals(shard));
            node.open_loop_begin(n_tables, OpenLoopOpts::default());
            node.open_loop_timing_only();
        }
        let nodes = &mut self.nodes;
        let routed = route_stream(
            &placement,
            &self.cfg.faults,
            stream,
            |shard, tenant, at, sub| {
                nodes[shard].open_loop_push_tagged(at, tenant, sub);
            },
        );
        let per_node = self
            .nodes
            .iter_mut()
            .map(SlsSystem::open_loop_finish)
            .collect();
        (routed, per_node)
    }
}

/// What the merge needs from one node's serving run, borrowed — from a
/// live [`ServingMetrics`] or from per-shard slices ([`merge_streamed`]).
#[derive(Debug, Clone, Copy)]
pub struct NodePart<'a> {
    /// Run-relative completion instant of each local query, local-qid
    /// order, shed queries included ([`ServingMetrics::completion`]).
    pub completion: &'a [SimTime],
    /// Local qids the node shed, ascending
    /// ([`ServingMetrics::shed_qids`]).
    pub shed_qids: &'a [u64],
    /// The node's [`ServingMetrics::makespan_ns`].
    pub makespan_ns: u64,
}

impl<'a> From<&'a ServingMetrics> for NodePart<'a> {
    fn from(m: &'a ServingMetrics) -> Self {
        NodePart {
            completion: &m.completion,
            shed_qids: &m.shed_qids,
            makespan_ns: m.makespan_ns,
        }
    }
}

/// The exact merged embedding of one bag, element by element: routes
/// the bag at instant `at` under `faults`
/// ([`ShardPlacement::route_bag_at`]), folds each shard's f64 partial
/// sum over its rows in bag order ([`dlrm::sls::accumulate_row_exact`]),
/// and merges the partials in fixed shard-index order — skipping rows
/// routed to no live shard and the `excluded` shards' partials (the
/// merge's shed and timed-out participations). With
/// [`FaultSchedule::none`] and no exclusions the result is bit-identical
/// to [`dlrm::sls::sls_reference_exact`] on the whole bag for every
/// shard count and policy — the exactness argument in the module docs.
/// Dropping whole partials never re-associates the surviving ones, so a
/// full-coverage answer under faults is bit-identical to the fault-free
/// merge. The serving merge never calls this: it is the per-element
/// oracle its closed-form checksums are tested against.
pub fn merged_bag_embedding_at(
    placement: &ShardPlacement,
    faults: &FaultSchedule,
    at: SimTime,
    excluded: &[u16],
    table: &EmbeddingTable,
    table_idx: u32,
    bag: &[u64],
) -> Vec<f64> {
    let dim = table.dim() as usize;
    let mut route = Vec::new();
    placement.route_bag_at(table_idx, bag, at, faults, &mut route);
    let mut partials = vec![vec![0.0f64; dim]; usize::from(placement.n_shards)];
    for (&row, &shard) in bag.iter().zip(&route) {
        if shard != ShardPlacement::LOST && !excluded.contains(&shard) {
            dlrm::sls::accumulate_row_exact(&mut partials[usize::from(shard)], table, row, 1.0);
        }
    }
    let mut merged = vec![0.0f64; dim];
    for partial in &partials {
        for (m, p) in merged.iter_mut().zip(partial) {
            *m += p;
        }
    }
    merged
}

/// The routing record of one pass over the workload: everything the
/// merge needs that a lazy stream cannot replay cheaply. Per-query
/// state is O(participations) scalars — the routed *bags* are handed
/// to the sink and recycled, never stored.
#[derive(Debug, Clone, Default)]
pub struct RoutedStream {
    /// Arrival instant of every query, qid order.
    pub arrivals: Vec<SimTime>,
    /// Global qid of each of shard `s`'s local queries, ascending.
    pub qids: Vec<Vec<u64>>,
    /// Tables shard `s` touches for each of its local queries (aligned
    /// with `qids[s]`): the partial-response size of the timing merge.
    pub touched: Vec<Vec<u64>>,
    /// Rows shard `s` serves for each of its local queries (aligned
    /// with `qids[s]`): the coverage a dropped partial forfeits.
    pub lookups: Vec<Vec<u64>>,
    /// Whether every row of the participation is replicated (aligned
    /// with `qids[s]`): a timed-out partial can be hedged to a replica
    /// shard only when some other shard holds all of its rows.
    pub hedgeable: Vec<Vec<bool>>,
    /// The exact f64 sum of every embedding element shard `s` serves
    /// for each of its local queries (aligned with `qids[s]`): the
    /// participation's checksum partial, summed from the rows'
    /// [`EmbeddingTable::row_sum_exact`] terms.
    pub partials: Vec<Vec<f64>>,
    /// Rows each query offered, qid order.
    pub total_lookups: Vec<u64>,
    /// Rows each query lost at routing time (dead owner, no replica),
    /// qid order.
    pub lost_lookups: Vec<u64>,
    /// Lookups that failed over from a dead owner to a replica shard.
    pub failovers: u64,
    /// Each query's tenant tag, qid order (0 throughout for
    /// single-tenant sources).
    pub tenants: Vec<u16>,
}

/// Consumes `stream`, routing each query's bags across the placement's
/// shards: each shard receives, per table, exactly the rows it serves,
/// in bag order, and a query is handed only to shards serving at least
/// one of its rows. The per-shard sub-bags live in one recycled
/// `shards × tables` buffer set, and each participating shard's
/// sub-bags are handed to `sink(shard, tenant, arrival, sub_bags)`
/// (table-indexed, empty for untouched tables) before the next query
/// overwrites them. Routing consults `faults` at each arrival
/// ([`ShardPlacement::route_bag_at`] — pass the empty schedule for the
/// fault-free behaviour). For a 1-shard fault-free placement the sink
/// sees the source's bags and arrivals verbatim.
///
/// Each served row's exact element sum
/// ([`EmbeddingTable::row_sum_exact`] on the placement's functional
/// tables) adds into its shard's scalar for the query, and each
/// participation records that scalar in [`RoutedStream::partials`]: the
/// merge's checksums need no second pass over the workload. Returns the
/// [`RoutedStream`] record the merge keys on.
///
/// # Panics
///
/// Panics if the placement and the stream disagree on the table count,
/// and, naming the query, if a query's rows × dim reaches 2³¹
/// ([`dlrm::sls::exact_sum_fits`]): past that the f64 checksum could
/// round, and the merge's exactness would be a guess.
pub fn route_stream<S, F>(
    placement: &ShardPlacement,
    faults: &FaultSchedule,
    stream: &mut S,
    mut sink: F,
) -> RoutedStream
where
    S: TaggedQuerySource,
    F: FnMut(usize, u16, SimTime, &[Vec<u64>]),
{
    let k = placement.n_shards as usize;
    let n_tables = stream.n_tables();
    let tables = &placement.tables;
    assert_eq!(
        tables.len(),
        n_tables as usize,
        "the placement must cover the stream's tables"
    );
    let dim = tables[0].dim();
    let mut routed = RoutedStream {
        qids: vec![Vec::new(); k],
        touched: vec![Vec::new(); k],
        lookups: vec![Vec::new(); k],
        hedgeable: vec![Vec::new(); k],
        partials: vec![Vec::new(); k],
        ..RoutedStream::default()
    };
    let mut sub: Vec<Vec<Vec<u64>>> = vec![vec![Vec::new(); n_tables as usize]; k];
    let mut route: Vec<u16> = Vec::new();
    let mut all_repl: Vec<bool> = vec![true; k];
    let mut sums: Vec<f64> = vec![0.0; k];
    while let Some((qid, tenant, at)) = stream.next_tagged() {
        routed.arrivals.push(at);
        routed.tenants.push(tenant);
        for shard in sub.iter_mut() {
            for bag in shard.iter_mut() {
                bag.clear();
            }
        }
        all_repl.iter_mut().for_each(|r| *r = true);
        sums.iter_mut().for_each(|sum| *sum = 0.0);
        let mut total = 0u64;
        let mut lost = 0u64;
        for (t, table) in (0..n_tables).zip(tables) {
            let bag = stream.bag(t);
            routed.failovers += placement.route_bag_at(t, bag, at, faults, &mut route);
            total += bag.len() as u64;
            for (&row, &s) in bag.iter().zip(&route) {
                if s == ShardPlacement::LOST {
                    lost += 1;
                    continue;
                }
                sub[s as usize][t as usize].push(row);
                all_repl[s as usize] &= placement.is_replicated(t, row);
                sums[s as usize] += table.row_sum_exact(row);
            }
        }
        assert!(
            dlrm::sls::exact_sum_fits(total, dim),
            "query {qid}: {total} lookups of dim {dim} reach the exact plane's 2^31-term bound"
        );
        routed.total_lookups.push(total);
        routed.lost_lookups.push(lost);
        for (s, shard) in sub.iter().enumerate() {
            let tables_touched = shard.iter().filter(|bag| !bag.is_empty()).count() as u64;
            if tables_touched > 0 {
                sink(s, tenant, at, shard);
                routed.qids[s].push(qid);
                routed.touched[s].push(tables_touched);
                routed.lookups[s].push(shard.iter().map(|bag| bag.len() as u64).sum());
                routed.hedgeable[s].push(all_repl[s]);
                routed.partials[s].push(sums[s]);
            }
        }
    }
    routed
}

/// The latency from query `qid`'s `arrival` to an instant `at` on its
/// answer path.
///
/// # Panics
///
/// Panics, naming the query, if `at` precedes the arrival: an answer
/// before its query is a simulator bug, never a zero latency.
fn since_arrival(qid: usize, arrival: SimTime, at: SimTime) -> SimDuration {
    at.as_ns()
        .checked_sub(arrival.as_ns())
        .map(SimDuration::from_ns)
        .unwrap_or_else(|| panic!("query {qid} answered at {at}, before its arrival at {arrival}"))
}

/// Merges per-node serving runs into cluster metrics. `parts[s]` is
/// node `s`'s run ([`NodePart`]); `routed` is the record of the
/// routing pass that fed the nodes.
///
/// Timing plane: queries merge in qid order, shards ascending. The
/// query's *home* shard (lowest participating index that did not shed
/// it) answers directly; every other participant's partial — one
/// response of `tables_touched × row_bytes` — serializes over the
/// shared aggregation [`FlexBusLink`] and pays one
/// [`inter_switch_ns`](cxlsim::CxlParams::inter_switch_ns) hop, both
/// stretched by any active link-degradation fault. A partial landing
/// past [`ClusterConfig::partial_timeout_ns`] is hedged to a replica
/// (when one covers every row) or dropped, completing the query
/// degraded. The merged completion is the max over the home completion
/// and the landed partials. The cluster makespan is the instant the
/// fleet goes idle: the max over the node makespans (when every host
/// frees), raised to any cross-shard partial that lands later — so a
/// 1-shard cluster's makespan is *exactly* its node's.
///
/// Functional plane: a query's checksum is the sum, from `+0.0` in
/// shard order, of the [`RoutedStream::partials`] of its answered
/// participations — shed and dropped ones add nothing. So full-coverage
/// answers are bit-identical to the fault-free merge, an entirely
/// unanswered query checksums to `0.0`, and every checksum equals the
/// per-element [`merged_bag_embedding_at`] merge summed with the same
/// exclusions (the module docs give the exactness argument). The merge
/// allocates a fixed number of times whatever the query count, apart
/// from the one `query_checksums` vector.
///
/// # Panics
///
/// Panics if the routed and part shapes disagree, or if a completion
/// precedes its query's arrival.
pub fn merge_node_parts(
    cfg: &ClusterConfig,
    routed: &RoutedStream,
    parts: &[NodePart<'_>],
) -> ClusterMetrics {
    merge_parts(cfg, routed, parts).0
}

/// [`merge_node_parts`], also returning the participations the merge
/// excluded — shed or dropped — as `(qid, shard)`, qid-ascending,
/// shards ascending within a qid: the exclusions the per-element
/// [`merged_bag_embedding_at`] oracle must skip to reproduce each
/// checksum. The list stays empty, and never allocates, on a run with
/// no shedding and no dropped partial.
fn merge_parts(
    cfg: &ClusterConfig,
    routed: &RoutedStream,
    parts: &[NodePart<'_>],
) -> (ClusterMetrics, Vec<(u64, u16)>) {
    assert_eq!(routed.qids.len(), parts.len(), "one node part per shard");
    for (q, p) in routed.qids.iter().zip(parts) {
        assert_eq!(
            q.len(),
            p.completion.len(),
            "completions must cover the shard's queries"
        );
    }
    let n_queries = routed.arrivals.len();
    let mut m = ClusterMetrics {
        queries: n_queries as u64,
        query_checksums: Vec::with_capacity(n_queries),
        ..ClusterMetrics::default()
    };
    let faulty = !cfg.faults.is_none();
    let mut link = FlexBusLink::new(&cfg.node.cxl);
    let hop = SimDuration::from_ns(cfg.node.cxl.inter_switch_ns);
    let row_bytes = cfg.node.model.row_bytes();
    let mut cursor = vec![0usize; parts.len()];
    let mut shed_cursor = vec![0usize; parts.len()];
    let mut excluded: Vec<(u64, u16)> = Vec::new();
    let mut fanout_sum = 0u64;
    let mut coverage_sum = 0.0f64;
    let mut makespan = SimTime::from_ns(parts.iter().map(|p| p.makespan_ns).max().unwrap_or(0));
    for (qid, &arrival) in routed.arrivals.iter().enumerate() {
        let mut done: Option<SimTime> = None;
        let mut checksum = 0.0f64;
        let mut participations = 0u64;
        let mut lost_rows = routed.lost_lookups[qid];
        for (s, part) in parts.iter().enumerate() {
            let li = cursor[s];
            if li >= routed.qids[s].len() || routed.qids[s][li] != qid as u64 {
                continue;
            }
            cursor[s] += 1;
            participations += 1;
            fanout_sum += 1;
            // Nodes shed by *local* qid, which is this participation's
            // index in the shard's routed record.
            while shed_cursor[s] < part.shed_qids.len()
                && part.shed_qids[shed_cursor[s]] < li as u64
            {
                shed_cursor[s] += 1;
            }
            if part.shed_qids.get(shed_cursor[s]) == Some(&(li as u64)) {
                // The node refused this participation: its rows are
                // forfeit and its partial never merges.
                lost_rows += routed.lookups[s][li];
                excluded.push((qid as u64, s as u16));
                continue;
            }
            let node_done = part.completion[li];
            let answered = match done {
                // Home shard: the lowest participating index that did
                // not shed, answering directly (no hop — a 1-shard
                // cluster adds nothing).
                None => Some(node_done),
                Some(prev) => {
                    let mut bytes = routed.touched[s][li] * row_bytes;
                    let mut part_hop = hop;
                    if faulty {
                        let lm = cfg.faults.link_mult(node_done);
                        if lm > 1.0 {
                            bytes = dilate(bytes, lm, f64::ceil, "link-degrade");
                            part_hop = SimDuration::from_ns(dilate(
                                hop.as_ns(),
                                lm,
                                f64::ceil,
                                "link-degrade",
                            ));
                        }
                    }
                    let landed = link.transfer(node_done, bytes) + part_hop;
                    // Cross-shard partials can land after every host
                    // has gone idle; they extend the fleet makespan
                    // (the bytes cross the link whether or not the
                    // router still wants them).
                    makespan = makespan.max(landed);
                    match cfg.partial_timeout_ns {
                        Some(t) if since_arrival(qid, arrival, landed).as_ns() > t => {
                            m.timeouts += 1;
                            if routed.hedgeable[s][li] {
                                // Deterministic hedge: some replica
                                // shard holds every row of the partial,
                                // so the merge books one re-issued
                                // response landing a hop after the
                                // deadline (the retry bytes skip the
                                // shared link — a deliberate
                                // simplification).
                                m.hedges += 1;
                                let hedged = arrival + SimDuration::from_ns(t) + hop;
                                makespan = makespan.max(hedged);
                                Some(prev.max(hedged))
                            } else {
                                // No replica covers it: drop the
                                // partial and answer degraded.
                                lost_rows += routed.lookups[s][li];
                                None
                            }
                        }
                        _ => Some(prev.max(landed)),
                    }
                }
            };
            if answered.is_some() {
                done = answered;
                checksum += routed.partials[s][li];
            } else {
                excluded.push((qid as u64, s as u16));
            }
        }
        m.query_checksums.push(checksum);
        let total = routed.total_lookups[qid];
        m.total_lookups += total;
        let tenant = routed.tenants[qid] as usize;
        if m.per_tenant.len() <= tenant {
            m.per_tenant.resize_with(tenant + 1, TenantServing::default);
        }
        match done {
            None if participations == 0 => {
                m.lost += 1;
                m.per_tenant[tenant].shed += 1;
            }
            None => {
                m.shed += 1;
                m.per_tenant[tenant].shed += 1;
            }
            Some(done) => {
                let latency = since_arrival(qid, arrival, done);
                m.per_tenant[tenant].queries += 1;
                m.per_tenant[tenant].latency.record(latency);
                let served = total - lost_rows;
                m.served_lookups += served;
                if lost_rows == 0 {
                    m.fully_served += 1;
                } else {
                    m.degraded += 1;
                }
                if total > 0 {
                    coverage_sum += served as f64 / total as f64;
                }
            }
        }
    }
    m.makespan_ns = makespan.as_ns();
    m.last_arrival_ns = routed.arrivals.last().map_or(0, |t| t.as_ns());
    m.agg_bytes = link.total_bytes();
    m.failovers = routed.failovers;
    if n_queries > 0 {
        m.mean_fanout = fanout_sum as f64 / n_queries as f64;
        m.mean_coverage = coverage_sum / n_queries as f64;
    }
    for t in &m.per_tenant {
        m.latency.merge(&t.latency);
    }
    m.checksum = m.query_checksums.iter().sum();
    (m, excluded)
}

/// [`merge_node_parts`] for callers holding the parts as separate
/// per-shard slices, with each node's shed list given as *global* qids
/// (ascending) rather than the node's local ones. `placement` must be
/// the one `routed` was routed on; `stream` is not read — the
/// checksums formed while routing.
///
/// # Panics
///
/// As [`merge_node_parts`], or if the slices or the placement disagree
/// with `routed` in shard count.
#[allow(clippy::too_many_arguments)]
pub fn merge_streamed<S: TaggedQuerySource>(
    cfg: &ClusterConfig,
    placement: &ShardPlacement,
    _stream: &S,
    routed: &RoutedStream,
    completions: &[&[SimTime]],
    sheds: &[&[u64]],
    node_makespans: &[u64],
) -> ClusterMetrics {
    assert_eq!(
        usize::from(placement.n_shards),
        routed.qids.len(),
        "the placement must be the routed one"
    );
    assert_eq!(completions.len(), sheds.len(), "one shed list per shard");
    assert_eq!(
        completions.len(),
        node_makespans.len(),
        "one makespan per shard"
    );
    let local_sheds: Vec<Vec<u64>> = sheds
        .iter()
        .zip(&routed.qids)
        .map(|(global, qids)| {
            global
                .iter()
                .filter_map(|q| qids.binary_search(q).ok().map(|li| li as u64))
                .collect()
        })
        .collect();
    let parts: Vec<NodePart<'_>> = completions
        .iter()
        .zip(&local_sheds)
        .zip(node_makespans)
        .map(|((&completion, shed_qids), &makespan_ns)| NodePart {
            completion,
            shed_qids,
            makespan_ns,
        })
        .collect();
    merge_node_parts(cfg, routed, &parts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::serving::ShedPolicy;

    fn placement(k: u16, policy: ShardPolicy) -> ShardPlacement {
        ShardPlacement::from_dims(k, 8, policy, &dlrm::ModelConfig::rmc1())
    }

    #[test]
    fn table_partition_owns_contiguous_ranges() {
        let p = placement(4, ShardPolicy::TablePartition);
        let owners: Vec<u16> = (0..8).map(|t| p.owner(t, 0)).collect();
        assert_eq!(owners, [0, 0, 1, 1, 2, 2, 3, 3]);
        // Row-independent.
        assert_eq!(p.owner(5, 0), p.owner(5, 12345));
    }

    #[test]
    fn row_hash_scatters_across_shards() {
        let p = placement(4, ShardPolicy::RowHash);
        let mut seen = [false; 4];
        for row in 0..64 {
            seen[p.owner(0, row) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "64 rows must hit all 4 shards");
    }

    #[test]
    fn replicated_rows_co_route_with_the_bag() {
        let mut p = placement(4, ShardPolicy::RowHash);
        p.replicated[0] = vec![7];
        let bag = [3u64, 7, 11];
        let (none, at) = (FaultSchedule::none(4), SimTime::ZERO);
        let mut route = Vec::new();
        p.route_bag_at(0, &bag, at, &none, &mut route);
        let pinned = p.owner(0, 3).min(p.owner(0, 11));
        assert_eq!(route, [p.owner(0, 3), pinned, p.owner(0, 11)]);
        // A bag of only the replicated row falls back to its owner.
        p.route_bag_at(0, &[7], at, &none, &mut route);
        assert_eq!(route, [p.owner(0, 7)]);
    }

    #[test]
    #[should_panic(expected = "query 1 answered at 40 ns, before its arrival at 50 ns")]
    fn completion_before_arrival_names_the_query() {
        let cfg = ClusterConfig::new(
            1,
            ShardPolicy::RowHash,
            SystemConfig::pifs_rec(dlrm::ModelConfig::rmc1()),
        );
        let routed = RoutedStream {
            arrivals: vec![SimTime::from_ns(10), SimTime::from_ns(50)],
            qids: vec![vec![0, 1]],
            touched: vec![vec![1, 1]],
            lookups: vec![vec![1, 1]],
            hedgeable: vec![vec![false, false]],
            partials: vec![vec![0.0, 0.0]],
            total_lookups: vec![1, 1],
            lost_lookups: vec![0, 0],
            tenants: vec![0, 0],
            ..RoutedStream::default()
        };
        let completion = [SimTime::from_ns(30), SimTime::from_ns(40)];
        let part = NodePart {
            completion: &completion,
            shed_qids: &[],
            makespan_ns: 40,
        };
        merge_node_parts(&cfg, &routed, &[part]);
    }

    /// One routed sub-query as the sink saw it: `(shard, arrival,
    /// table-indexed sub-bags)`.
    type Routed = (usize, SimTime, Vec<Vec<u64>>);

    /// Routes `(trace, arrivals)` fault-free, collecting every sub-query
    /// the sink receives.
    fn route_collect(
        p: &ShardPlacement,
        trace: &Trace,
        arrivals: &[SimTime],
    ) -> (Vec<Routed>, RoutedStream) {
        let mut seen = Vec::new();
        let routed = route_stream(
            p,
            &FaultSchedule::none(p.n_shards()),
            &mut TraceArrivals::new(trace, arrivals),
            |s, _, at, sub| seen.push((s, at, sub.to_vec())),
        );
        (seen, routed)
    }

    #[test]
    fn one_shard_workload_reproduces_the_trace_bags() {
        let trace = tracegen::TraceSpec {
            distribution: tracegen::Distribution::Random,
            n_tables: 3,
            rows_per_table: 100,
            batch_size: 4,
            n_batches: 2,
            bag_size: 2,
            seed: 9,
        }
        .generate();
        let arrivals: Vec<SimTime> = (0..8).map(|i| SimTime::from_ns(i * 10)).collect();
        let p = ShardPlacement::from_dims(1, 3, ShardPolicy::RowHash, &dlrm::ModelConfig::rmc1());
        let (seen, routed) = route_collect(&p, &trace, &arrivals);
        assert_eq!(routed.failovers, 0);
        assert_eq!(routed.lost_lookups, vec![0; 8]);
        assert_eq!(routed.qids, vec![(0..8).collect::<Vec<u64>>()]);
        assert_eq!(seen.len(), 8);
        for (qid, (shard, at, sub)) in seen.iter().enumerate() {
            assert_eq!(*shard, 0);
            assert_eq!(*at, arrivals[qid]);
            let (b, s) = (qid / 4, (qid % 4) as u32);
            for t in 0..3 {
                assert_eq!(sub[t as usize], trace.bag(b, t, s));
            }
        }
    }

    /// Serves `spec` on `cfg` and checks every query's routed-partials
    /// checksum, bit for bit, against the per-element oracle: Σₜ Σₑ of
    /// [`merged_bag_embedding_at`] at the query's arrival, skipping the
    /// participations the merge excluded. Returns the merged metrics and
    /// those exclusions.
    fn checksums_match_the_oracle(
        cfg: &ClusterConfig,
        spec: &tracegen::QueryStreamSpec,
    ) -> (ClusterMetrics, Vec<(u64, u16)>) {
        let mut cluster = SlsCluster::new(cfg.clone());
        let (routed, per_node) = cluster.serve(&mut spec.stream());
        let parts: Vec<NodePart<'_>> = per_node.iter().map(NodePart::from).collect();
        let (m, excluded) = merge_parts(cfg, &routed, &parts);
        let placement = ShardPlacement::build_streamed(cfg, &spec.stream());
        let mut replay = spec.stream();
        let mut skip: Vec<u16> = Vec::new();
        for (qid, &got) in m.query_checksums.iter().enumerate() {
            let (_, _, at) = replay
                .next_tagged()
                .expect("one replayed query per checksum");
            skip.clear();
            skip.extend(
                excluded
                    .iter()
                    .filter(|&&(q, _)| q == qid as u64)
                    .map(|&(_, s)| s),
            );
            let want: f64 = placement
                .tables()
                .iter()
                .zip(0u32..)
                .map(|(table, t)| {
                    merged_bag_embedding_at(
                        &placement,
                        &cfg.faults,
                        at,
                        &skip,
                        table,
                        t,
                        replay.bag(t),
                    )
                    .iter()
                    .sum::<f64>()
                })
                .sum();
            assert_eq!(
                got.to_bits(),
                want.to_bits(),
                "query {qid}: routed checksum {got} vs per-element {want} (skipping {skip:?})"
            );
        }
        (m, excluded)
    }

    /// A 48-query small-model cluster under one fault family and shed
    /// policy, with a partial timeout tight enough that cross-shard
    /// partials miss it: fail-stops fail rows over or lose them, late
    /// partials are dropped or (when replicated) hedged, and the
    /// queue-depth shedder sheds participations.
    fn oracle_case(
        k: u16,
        policy: ShardPolicy,
        replicas: u32,
        fault: &str,
        fault_seed: u64,
        shed: ShedPolicy,
    ) -> (ClusterConfig, tracegen::QueryStreamSpec) {
        let model = dlrm::ModelConfig {
            emb_num: 4096,
            ..dlrm::ModelConfig::rmc1()
        };
        let mut node = SystemConfig::pifs_rec(model.clone());
        node.serving.shed = shed;
        let mut cfg = ClusterConfig::new(k, policy, node);
        cfg.hot_rows_per_table = replicas;
        let spec = simkit::FaultSpec::parse(fault).expect("fault spec");
        cfg.faults = FaultSchedule::generate(spec, fault_seed, k, 10_000_000);
        cfg.partial_timeout_ns = Some(10_000);
        let stream = tracegen::QueryStreamSpec {
            trace: tracegen::TraceSpec {
                distribution: tracegen::Distribution::MetaLike {
                    reuse_frac: 0.35,
                    s: 1.05,
                },
                n_tables: model.n_tables,
                rows_per_table: model.emb_num,
                batch_size: 16,
                n_batches: 3,
                bag_size: model.bag_size,
                seed: 5,
            },
            arrival: tracegen::ArrivalProcess::Poisson { qps: 4_000_000.0 },
            arrival_seed: 77,
        };
        (cfg, stream)
    }

    const ORACLE_FAULTS: [&str; 3] = ["none", "failstop:100000", "link:500000:8"];
    const ORACLE_SHEDS: [ShedPolicy; 2] = [
        ShedPolicy::Deadline,
        ShedPolicy::QueueDepth { max_pending: 8 },
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The closed-form checksums formed while routing equal the
        /// per-element merge, bit for bit, for every shard count,
        /// policy, replication setting, fault family and shed policy.
        #[test]
        fn prop_routed_checksums_match_the_per_element_merge(
            k_idx in 0usize..4,
            policy_idx in 0usize..2,
            replicas_idx in 0usize..2,
            fault_idx in 0usize..ORACLE_FAULTS.len(),
            shed_idx in 0usize..ORACLE_SHEDS.len(),
            fault_seed in 0u64..64,
        ) {
            let (cfg, spec) = oracle_case(
                [1u16, 2, 4, 8][k_idx],
                [ShardPolicy::RowHash, ShardPolicy::TablePartition][policy_idx],
                [0u32, 32][replicas_idx],
                ORACLE_FAULTS[fault_idx],
                fault_seed,
                ORACLE_SHEDS[shed_idx],
            );
            checksums_match_the_oracle(&cfg, &spec);
        }
    }

    #[test]
    fn routed_checksum_oracle_covers_exclusions_and_hedges() {
        // The proptest's cases are not vacuous: under fail-stops and the
        // tight timeout rows fail over, partials are dropped and hedged,
        // and the queue-depth shedder sheds, so the oracle really skips
        // participations.
        let (cfg, spec) = oracle_case(
            8,
            ShardPolicy::RowHash,
            32,
            "failstop:100000",
            0,
            ShedPolicy::Deadline,
        );
        let (m, excluded) = checksums_match_the_oracle(&cfg, &spec);
        assert!(m.failovers > 0, "no row failed over");
        assert!(m.hedges > 0, "no partial was hedged");
        assert!(m.timeouts > m.hedges, "no partial was dropped");
        assert!(!excluded.is_empty(), "no participation was excluded");
        let (cfg, spec) = oracle_case(
            2,
            ShardPolicy::RowHash,
            0,
            "none",
            0,
            ShedPolicy::QueueDepth { max_pending: 8 },
        );
        let (m, _) = checksums_match_the_oracle(&cfg, &spec);
        assert!(m.shed > 0 && m.fully_served + m.degraded > 0);
    }

    #[test]
    fn workloads_partition_every_lookup() {
        let trace = tracegen::TraceSpec {
            distribution: tracegen::Distribution::Random,
            n_tables: 4,
            rows_per_table: 64,
            batch_size: 4,
            n_batches: 3,
            bag_size: 3,
            seed: 3,
        }
        .generate();
        let arrivals: Vec<SimTime> = (0..12).map(|i| SimTime::from_ns(i * 5)).collect();
        for policy in [ShardPolicy::RowHash, ShardPolicy::TablePartition] {
            let p = ShardPlacement::from_dims(3, 4, policy, &dlrm::ModelConfig::rmc1());
            let (seen, routed) = route_collect(&p, &trace, &arrivals);
            let total: u64 = seen
                .iter()
                .flat_map(|(_, _, sub)| sub)
                .map(|bag| bag.len() as u64)
                .sum();
            assert_eq!(routed.total_lookups.iter().sum::<u64>(), total);
            assert_eq!(total, 4 * 12 * 3, "lookups must partition exactly");
            let queries: usize = routed.qids.iter().map(Vec::len).sum();
            assert_eq!(queries, seen.len());
            assert!(queries >= 12, "every query is served somewhere");
        }
    }
}
