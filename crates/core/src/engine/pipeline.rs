//! The per-query timing path, decomposed into explicit stages.
//!
//! Each SLS bag flows request→forward→DRAM→accumulate through four
//! timing stages that `process_bag` calls in order over a shared
//! `EngineCtx`:
//!
//! 1. `classify` — resolve rows to tiers, record hotness;
//! 2. `local_gather` — host-DRAM rows (DIMM-side fold for RecNMP);
//! 3. `remote_gather` — remote-socket rows over the socket link;
//! 4. `cxl_gather` — pooled-CXL rows, on the host (Pond/RecNMP
//!    spill) or in the fabric switch (PIFS/BEACON).
//!
//! The three host-side gathers (local rows, remote rows, and CXL rows
//! folded on the host) share one issue loop, `issue_window`: a core
//! keeps at most `outstanding` row fetches in flight (RecNMP's DIMM-side
//! fold keeps the whole bag in flight), and each stage supplies only its
//! per-row access chain and its rule for when the core is free again.
//!
//! The stages carry no values. The functional plane is one function,
//! `fold_bag`, which the caller runs after the stages when the run
//! measures its checksum: it folds the bag's rows from the tier lists
//! the stages built, in each compute site's order. A cluster node runs
//! timing only, since its cluster forms every checksum while routing,
//! and so does a closed-loop `run_trace_timing` run, whose caller reads
//! no checksum (every paper figure). Skipping the fold moves no
//! simulated instant.
//!
//! `process_bag` touches no per-run state beyond what its caller lends
//! it: the stages write counters into the caller's `RunMetrics` (through
//! `EngineCtx`), the bag borrows its buffers from a `BagScratch` in
//! place, and it hands the issuing core's next free instant back to
//! the caller, whose batch loop keeps the core clocks.
//!
//! Timing is resource-based: every shared medium (host FlexBus links,
//! switch transit, device links, DRAM banks/buses, the accumulate unit)
//! is a stateful resource that serializes contending work, so congestion
//! and parallelism emerge rather than being assumed. DRAM is only read.

#![deny(missing_docs)]

use std::collections::VecDeque;

use cxlsim::{M2sReq, SwitchId, Topology, Type3Device};
use dlrm::EmbeddingTable;
use memsim::DramDevice;
use pagemgmt::{GlobalHotness, PageId, PageTable, Tier};
use simkit::{SimDuration, SimTime};

use super::config::{ComputeSite, SystemConfig};
use super::metrics::RunMetrics;
use super::pagemgmt_epoch::EpochCounts;
use super::topology::{spread_addr, HostCtx, SwitchCtx};
use crate::ooo::ClusterId;

/// Host-side cost of issuing one instruction (decode + queue into the
/// CXL controller).
pub(crate) const ISSUE_NS: u64 = 2;
/// Host snoop-detection latency once a result lands (§IV-A2's
/// CXL.cache-based monitoring).
pub(crate) const SNOOP_NS: u64 = 10;
/// Process-core instruction decode occupancy per instruction.
pub(crate) const DECODE_NS: u64 = 1;

/// Reusable buffers for the per-bag pipeline: the row lists by tier,
/// the MLP window, the switch-compute buffers and the accumulators of
/// [`fold_bag`].
///
/// One instance lives in [`SlsSystem`](crate::system::SlsSystem), and
/// each [`process_bag`] call lends it to its [`BagState`], which
/// clears what it reads before use. The buffers keep their capacity
/// across bags, so steady-state query processing performs no per-bag
/// heap allocation. Any new stage state that would otherwise be a
/// fresh `Vec` per bag belongs here.
#[derive(Debug, Default, Clone)]
pub(crate) struct BagScratch {
    /// Rows resolved to local DRAM: `(row, addr)`.
    local: Vec<(u64, u64)>,
    /// Rows resolved to the remote socket: `(row, addr)`.
    remote: Vec<(u64, u64)>,
    /// Rows resolved to pooled CXL: `(device, row, addr)`.
    cxl: Vec<(u16, u64, u64)>,
    /// The functional accumulator.
    acc: Vec<f32>,
    /// In-flight fold completions for the bounded MLP window.
    window: VecDeque<SimTime>,
    sent: Vec<SimTime>,
    instr_arrivals: Vec<SimTime>,
    /// The bag's CXL rows grouped by home switch. Entries are recycled
    /// across bags: only the first `n_groups` are live.
    by_switch: Vec<SwitchGroup>,
    n_groups: usize,
    sub_acc: Vec<f32>,
    merged: Vec<f32>,
    /// The debug-build DataFetch codec round trip: the burst, its
    /// encoded slab, and the decoded burst.
    #[cfg(debug_assertions)]
    codec: (Vec<M2sReq>, Vec<u128>, Vec<M2sReq>),
}

/// Mutable view over the system state a pipeline stage may touch.
///
/// The fields are split borrows of [`SlsSystem`](crate::system::SlsSystem)
/// so stages can contend on hosts, switches and devices independently,
/// exactly as the monolithic implementation did.
pub(crate) struct EngineCtx<'a> {
    /// The run configuration.
    pub cfg: &'a SystemConfig,
    /// Host/switch/device adjacency.
    pub topo: &'a Topology,
    /// All switches (process cores, buffers, decode pipelines).
    pub switches: &'a mut [SwitchCtx],
    /// All CXL Type 3 devices.
    pub devices: &'a mut [Type3Device],
    /// All hosts (links, local DRAM, DIMM cache).
    pub hosts: &'a mut [HostCtx],
    /// Link to the remote socket.
    pub remote_link: &'a mut cxlsim::FlexBusLink,
    /// Remote-socket DRAM.
    pub remote_dram: &'a mut DramDevice,
    /// Page placement (read-only during query processing).
    pub page_table: &'a PageTable,
    /// Embedding tables (row addresses).
    pub tables: &'a [EmbeddingTable],
    /// Cross-host page-hotness state.
    pub hotness: &'a mut GlobalHotness,
    /// Per-page CXL access counts within the current PM epoch.
    pub epoch_counts: &'a mut EpochCounts,
    /// Run metrics under construction.
    pub metrics: &'a mut RunMetrics,
    /// Next accumulation cluster id.
    pub next_cluster: &'a mut u64,
}

impl EngineCtx<'_> {
    fn tier_of_addr(&self, addr: u64) -> Tier {
        self.page_table
            .tier_of(PageId::of_addr(addr))
            .expect("every embedding page is placed at construction")
    }
}

/// One in-flight SLS bag moving through the pipeline.
///
/// The bag borrows the system's [`BagScratch`] for its growable
/// buffers, so constructing one allocates nothing in the steady state.
pub(crate) struct BagState<'r> {
    /// Issuing host.
    pub host_idx: usize,
    /// Core-issue time.
    pub issue: SimTime,
    /// Embedding table index.
    pub table: u32,
    /// Row indices of the bag.
    pub rows: &'r [u64],
    /// Per-element fold latency, ns.
    pub acc_ns: u64,
    /// The borrowed buffers.
    pub scratch: &'r mut BagScratch,
    /// Completion time of everything observed so far.
    pub done: SimTime,
    /// Time the issuing core is next free.
    pub core_busy: SimTime,
}

/// Runs the bounded MLP issue window over `n` rows, starting at `start`:
/// row `i` issues at `t` (once fewer than `limit` folds are in flight,
/// else when the oldest lands), `fetch(i, t)` returns the instant its
/// fold completes, and the next row issues `step_ns` later. Returns the
/// next issue instant and the latest fold completion (at least
/// `start`).
fn issue_window(
    window: &mut VecDeque<SimTime>,
    start: SimTime,
    n: usize,
    limit: usize,
    step_ns: u64,
    mut fetch: impl FnMut(usize, SimTime) -> SimTime,
) -> (SimTime, SimTime) {
    window.clear();
    let mut t = start;
    let mut last = start;
    for i in 0..n {
        if window.len() >= limit {
            t = t.max(window.pop_front().expect("window non-empty"));
        }
        let fold_done = fetch(i, t);
        window.push_back(fold_done);
        t += SimDuration::from_ns(step_ns);
        last = last.max(fold_done);
    }
    (t, last)
}

/// Processes one bag through the four timing stages, in order; returns
/// `(completion_time, core_free_time)`. The bag's tier lists stay in
/// `scratch` for [`fold_bag`].
pub(crate) fn process_bag(
    ctx: &mut EngineCtx<'_>,
    scratch: &mut BagScratch,
    host_idx: usize,
    issue: SimTime,
    table: u32,
    rows: &[u64],
) -> (SimTime, SimTime) {
    let dim = ctx.cfg.model.emb_dim;
    // `fold_bag` sums the accumulator in any order; that is exact only
    // inside this bound.
    assert!(
        dlrm::sls::exact_sum_fits(rows.len() as u64, dim),
        "table {table}: a bag of {} rows at dim {dim} breaks the exact-sum bound (rows × dim < 2³¹)",
        rows.len()
    );
    scratch.local.clear();
    scratch.remote.clear();
    scratch.cxl.clear();
    scratch.n_groups = 0;
    let mut bag = BagState {
        host_idx,
        issue,
        table,
        rows,
        acc_ns: u64::from(dim).div_ceil(16),
        scratch,
        done: issue,
        core_busy: issue,
    };
    classify(ctx, &mut bag);
    local_gather(ctx, &mut bag);
    remote_gather(ctx, &mut bag);
    cxl_gather(ctx, &mut bag);
    (bag.done, bag.core_busy.max(bag.issue))
}

/// Resolves each row to its tier, records page hotness and per-device
/// page counts (for the page manager, when one runs; nothing else reads
/// them), and charges the per-tier lookup counters.
fn classify(ctx: &mut EngineCtx<'_>, bag: &mut BagState<'_>) {
    ctx.metrics.lookups += bag.rows.len() as u64;
    let managed = ctx.cfg.page_mgmt.is_some();
    for &row in bag.rows {
        let addr = ctx.tables[bag.table as usize].row_addr(row);
        let page = PageId::of_addr(addr);
        if managed {
            ctx.hotness.host_mut(bag.host_idx).record(page);
        }
        match ctx.tier_of_addr(addr) {
            Tier::Local => bag.scratch.local.push((row, addr)),
            Tier::Remote => bag.scratch.remote.push((row, addr)),
            Tier::Cxl(d) => {
                // Placement, demotion and spreading only ever pick a
                // device below `n_devices`.
                assert!(
                    d < ctx.cfg.n_devices,
                    "page {page:?} is placed on device {d} of {}",
                    ctx.cfg.n_devices
                );
                if managed {
                    ctx.epoch_counts.record(page, d);
                }
                bag.scratch.cxl.push((d, row, addr));
            }
        }
    }
    ctx.metrics.local_lookups += bag.scratch.local.len() as u64;
    ctx.metrics.remote_lookups += bag.scratch.remote.len() as u64;
    ctx.metrics.cxl_lookups += bag.scratch.cxl.len() as u64;
}

/// Local rows: host-compute everywhere except RecNMP, which folds in
/// the DIMM using bank-level parallelism and its DIMM cache.
fn local_gather(ctx: &mut EngineCtx<'_>, bag: &mut BagState<'_>) {
    if bag.scratch.local.is_empty() {
        return;
    }
    let row_bytes = ctx.cfg.model.row_bytes();
    let is_nmp = ctx.cfg.compute == ComputeSite::Dimm;
    // RecNMP gathers with bank-level parallelism inside the DIMM: the
    // whole bag is issued at once and folds pipeline behind the data
    // (§VI-C1: "the latter performs data fetch with bank-level
    // parallelism"). Hosts fold on the core with a bounded MLP window.
    let (limit, step_ns, fold_ns) = if is_nmp {
        (usize::MAX, 1, bag.acc_ns / 2)
    } else {
        (ctx.cfg.outstanding, ISSUE_NS, bag.acc_ns)
    };
    let (t, last) = issue_window(
        &mut bag.scratch.window,
        bag.core_busy,
        bag.scratch.local.len(),
        limit,
        step_ns,
        |i, t| {
            let addr = bag.scratch.local[i].1;
            let host = &mut ctx.hosts[bag.host_idx];
            let cached = is_nmp && host.dimm_cache.as_mut().is_some_and(|c| c.access(addr));
            let data = match &host.dimm_cache {
                Some(cache) if cached => t + cache.access_latency(),
                _ => host.dram.access_span(t, spread_addr(addr), row_bytes),
            };
            data + SimDuration::from_ns(fold_ns)
        },
    );
    // Local gathers are software-pipelined across bags (prefetch
    // hides local DRAM latency — the CPU optimizations of the
    // paper's [8]); the core is free once the loads are in flight.
    // RecNMP likewise returns asynchronously with its pooled result.
    bag.done = bag.done.max(last);
    bag.core_busy = t;
}

/// Remote-socket rows: a bounded MLP window over the socket link and the
/// partially-populated remote DRAM; synchronous on the issuing core.
fn remote_gather(ctx: &mut EngineCtx<'_>, bag: &mut BagState<'_>) {
    if bag.scratch.remote.is_empty() {
        return;
    }
    let row_bytes = ctx.cfg.model.row_bytes();
    let (_, last) = issue_window(
        &mut bag.scratch.window,
        bag.core_busy,
        bag.scratch.remote.len(),
        ctx.cfg.outstanding,
        ISSUE_NS,
        |i, t| {
            let sent = ctx.remote_link.transfer(t, 16);
            let addr = spread_addr(bag.scratch.remote[i].1);
            let data = ctx.remote_dram.access_span(sent, addr, row_bytes);
            ctx.remote_link.transfer(data, row_bytes) + SimDuration::from_ns(bag.acc_ns)
        },
    );
    bag.done = bag.done.max(last);
    bag.core_busy = bag.core_busy.max(last); // synchronous on the core
}

/// Pooled-CXL rows: dispatches to host-side folding (Pond, RecNMP
/// spill) or in-switch accumulation (PIFS, BEACON) per the configured
/// compute site.
fn cxl_gather(ctx: &mut EngineCtx<'_>, bag: &mut BagState<'_>) {
    if bag.scratch.cxl.is_empty() {
        return;
    }
    let (cxl_done, core_after) = match ctx.cfg.compute {
        ComputeSite::Host | ComputeSite::Dimm => cxl_rows_host_compute(ctx, bag),
        ComputeSite::Switch => cxl_rows_switch_compute(ctx, bag),
    };
    bag.done = bag.done.max(cxl_done);
    bag.core_busy = core_after;
}

/// Folds the values of the bag [`process_bag`] just timed, from the
/// tier lists its stages built in `scratch`, and returns the bag's
/// functional checksum, the f64 sum of its f32 accumulator.
///
/// Rows fold with unit weight, one [`dlrm::sls::accumulate_row`] each,
/// in the order of the site that accumulates them: local rows, then
/// remote rows, each in bag order; then the CXL rows. The host (Pond)
/// and the DIMM (RecNMP) fold those in bag order. Under switch compute
/// (PIFS, BEACON) each switch group accumulates its sub-cluster from
/// zero, the local forward controller merges the partials in group
/// order, and the merged result adds into the accumulator (§IV-A5).
///
/// The sum runs in four f64 lanes, and it is exact, so it has the bits
/// of the sequential sum. Every accumulator element is an f32 sum of
/// procedural values, multiples of 2⁻²² in [-1, 1): a multiple of 2⁻²²
/// (rounding only coarsens the grid) of magnitude at most the bag's
/// row count. So every partial sum of its `dim` elements is a multiple
/// of 2⁻²² below rows × dim in magnitude, which f64 holds exactly while
/// rows × dim < 2³¹ ([`dlrm::sls::exact_sum_fits`], asserted per bag by
/// [`process_bag`]).
pub(crate) fn fold_bag(
    compute: ComputeSite,
    table: &EmbeddingTable,
    scratch: &mut BagScratch,
) -> f64 {
    let s = scratch;
    let dim = table.dim() as usize;
    s.acc.clear();
    s.acc.resize(dim, 0.0f32);
    for &(row, _) in &s.local {
        dlrm::sls::accumulate_row(&mut s.acc, table, row, 1.0);
    }
    for &(row, _) in &s.remote {
        dlrm::sls::accumulate_row(&mut s.acc, table, row, 1.0);
    }
    if compute != ComputeSite::Switch {
        for &(_, row, _) in &s.cxl {
            dlrm::sls::accumulate_row(&mut s.acc, table, row, 1.0);
        }
    } else if !s.cxl.is_empty() {
        s.merged.clear();
        s.merged.resize(dim, 0.0f32);
        for (_, group) in &s.by_switch[..s.n_groups] {
            s.sub_acc.clear();
            s.sub_acc.resize(dim, 0.0f32);
            for &i in group {
                dlrm::sls::accumulate_row(&mut s.sub_acc, table, s.cxl[i].1, 1.0);
            }
            for (m, &v) in s.merged.iter_mut().zip(&s.sub_acc) {
                *m += v;
            }
        }
        for (a, &v) in s.acc.iter_mut().zip(&s.merged) {
            *a += v;
        }
    }
    bag_sum(&s.acc)
}

/// The f64 sum of `acc` in four lanes, combined pairwise: exact, and so
/// order-free, under [`fold_bag`]'s bound.
fn bag_sum(acc: &[f32]) -> f64 {
    let mut lanes = [0.0f64; 4];
    let chunks = acc.chunks_exact(4);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (lane, &x) in lanes.iter_mut().zip(chunk) {
            *lane += f64::from(x);
        }
    }
    for (lane, &x) in lanes.iter_mut().zip(tail) {
        *lane += f64::from(x);
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// Rows of one bag homed on one switch, as indices into the bag's
/// `cxl` list.
type SwitchGroup = (SwitchId, Vec<usize>);

/// Pond-style CXL handling: each row crosses the whole fabric to the
/// host, which folds it on a core.
fn cxl_rows_host_compute(ctx: &mut EngineCtx<'_>, bag: &mut BagState<'_>) -> (SimTime, SimTime) {
    let row_bytes = ctx.cfg.model.row_bytes();
    let host_switch = ctx.topo.host_switch(bag.host_idx);
    let (t, last) = issue_window(
        &mut bag.scratch.window,
        bag.core_busy,
        bag.scratch.cxl.len(),
        ctx.cfg.outstanding,
        ISSUE_NS,
        |i, t| {
            let (dev, _row, addr) = bag.scratch.cxl[i];
            let host = &mut ctx.hosts[bag.host_idx];
            let sent = host.req_link.transfer(t, M2sReq::WIRE_BYTES);
            let dev_switch = ctx.topo.device_switch(dev as usize);
            let hop = ctx.topo.hop_latency(host_switch, dev_switch);
            let at_switch = ctx.switches[dev_switch.0 as usize].sw.transit(sent) + hop;
            let data_at_switch =
                ctx.devices[dev as usize].read(at_switch, spread_addr(addr), row_bytes);
            let back = host
                .rsp_link
                .transfer(data_at_switch + hop, row_bytes + M2sReq::WIRE_BYTES);
            back + SimDuration::from_ns(bag.acc_ns)
        },
    );
    // The gather loop is software-pipelined across bags; the run is
    // bound by fabric bandwidth (every row crosses the host link,
    // which is Pond's structural handicap), not by one bag's RTT.
    (last, t)
}

/// PIFS/BEACON CXL handling: the host streams `Configuration` +
/// `DataFetch` instructions and goes on with its life; the switch
/// fetches, accumulates and pushes the result back for the snooping
/// host.
fn cxl_rows_switch_compute(ctx: &mut EngineCtx<'_>, bag: &mut BagState<'_>) -> (SimTime, SimTime) {
    let row_bytes = ctx.cfg.model.row_bytes();
    let host_idx = bag.host_idx;
    let host_switch = ctx.topo.host_switch(host_idx);
    let local_sw_idx = host_switch.0 as usize;
    let cluster = ClusterId(*ctx.next_cluster);
    *ctx.next_cluster += 1;

    // Group rows by the switch homing their device. Group entries are
    // recycled from the bag scratch: only the first `n_groups` are live
    // for this bag, and their inner index vectors keep their capacity
    // across bags.
    let mut n_groups = 0usize;
    for (i, &(dev, _, _)) in bag.scratch.cxl.iter().enumerate() {
        let s = ctx.topo.device_switch(dev as usize);
        let by_switch = &mut bag.scratch.by_switch;
        match by_switch[..n_groups].iter_mut().find(|(sid, _)| *sid == s) {
            Some((_, v)) => v.push(i),
            None => {
                if n_groups == by_switch.len() {
                    by_switch.push((s, Vec::new()));
                } else {
                    by_switch[n_groups].0 = s;
                    by_switch[n_groups].1.clear();
                }
                by_switch[n_groups].1.push(i);
                n_groups += 1;
            }
        }
    }
    bag.scratch.n_groups = n_groups;

    // Host issues Configuration + one DataFetch per row on its
    // request link, then is free (asynchronous communication).
    let config_req = M2sReq::configuration(
        0xF000_0000,
        (cluster.0 & 0x1FF) as u16,
        bag.scratch.cxl.len() as u16,
        host_idx as u16,
    );
    debug_assert_eq!(config_req.opcode, cxlsim::MemOpcode::Configuration);
    let mut t = bag.core_busy;
    let config_arrival = {
        let sent = ctx.hosts[host_idx].req_link.transfer(t, M2sReq::WIRE_BYTES);
        t += SimDuration::from_ns(ISSUE_NS);
        ctx.switches[local_sw_idx].sw.transit(sent)
    };
    // The DataFetch stream is issued back-to-back at the core's issue
    // rate, so the request link arbitrates the whole burst in one pass
    // instead of re-entering per flit.
    ctx.hosts[host_idx].req_link.transfer_batch_into(
        t,
        SimDuration::from_ns(ISSUE_NS),
        M2sReq::WIRE_BYTES,
        bag.scratch.cxl.len(),
        &mut bag.scratch.sent,
    );
    t += SimDuration::from_ns(ISSUE_NS * bag.scratch.cxl.len() as u64);
    // Debug builds round-trip the whole DataFetch burst through the
    // batched codec and check every instruction routes to the process
    // core; the release path models only the stream's timing.
    #[cfg(debug_assertions)]
    {
        let chunks = (row_bytes.div_ceil(16)).min(8) as u8;
        let (stream, slab, decoded) = &mut bag.scratch.codec;
        stream.clear();
        stream.extend(bag.scratch.cxl.iter().map(|&(_, _, addr)| {
            M2sReq::data_fetch(addr, (cluster.0 & 0x1FF) as u16, chunks, host_idx as u16)
        }));
        M2sReq::encode_batch(stream, slab);
        M2sReq::decode_batch(slab, decoded).expect("DataFetch burst decodes");
        assert_eq!(decoded, stream, "batched codec must round-trip the burst");
        for req in decoded.iter() {
            assert_eq!(
                crate::instrflow::check_memopcode(req),
                crate::InstrRoute::ProcessCore
            );
        }
    }
    // Arrival time of each DataFetch at its switch, indexed by the row's
    // position in the bag's `cxl` list (positional, so duplicate rows in one bag
    // keep their own serialized issue/arrival times).
    bag.scratch.instr_arrivals.clear();
    for (i, &(dev, _row, _addr)) in bag.scratch.cxl.iter().enumerate() {
        let s = ctx.topo.device_switch(dev as usize);
        let hop = ctx.topo.hop_latency(host_switch, s);
        let transit = ctx.switches[local_sw_idx].sw.transit(bag.scratch.sent[i]);
        bag.scratch.instr_arrivals.push(transit + hop);
    }
    let core_free = t;

    // The local switch opens the cluster when the Configuration lands
    // (the ACR's `SumCandidateCount` is the bag's CXL row count, split into one
    // sub-cluster per switch group). Each group accumulates its
    // sub-cluster and the local forward controller merges the partials;
    // the result is ready once the slowest partial has landed.
    let mut final_done = config_arrival;
    for (sid, group) in &bag.scratch.by_switch[..n_groups] {
        // §IV-C2 versatility: a remote switch without a process core
        // (CNV = 0) cannot accumulate — the local switch does all the
        // work and raw rows stream across the inter-switch fabric.
        let remote_cnv = ctx.switches[sid.0 as usize].sw.cnv();
        let s_idx = if remote_cnv {
            sid.0 as usize
        } else {
            local_sw_idx
        };
        let mut sub_last = SimTime::ZERO;
        for &i in group {
            let (dev, _row, addr) = bag.scratch.cxl[i];
            let arrival = bag.scratch.instr_arrivals[i];
            // Decode (+ BEACON's translation logic) serializes in the PC.
            let sw = &mut ctx.switches[s_idx];
            let decode_start = arrival.max(sw.decode_free);
            sw.decode_free = decode_start + SimDuration::from_ns(DECODE_NS);
            let decoded = sw.decode_free + SimDuration::from_ns(ctx.cfg.translation_ns);

            // Fetch the row (buffer first); the IIR matches the return
            // to its DataFetch by address.
            let hit = sw.buffer.as_mut().map(|b| b.access(addr)).unwrap_or(false);
            let mut data_ready = if hit {
                let lat = sw.buffer.as_ref().expect("buffer present").access_latency();
                decoded + lat
            } else {
                ctx.devices[dev as usize].read(decoded, spread_addr(addr), row_bytes)
            };
            if !remote_cnv {
                // Raw row crosses to the computing (local) switch.
                data_ready = data_ready
                    + ctx.topo.hop_latency(*sid, host_switch)
                    + SimDuration::from_ns(row_bytes / ctx.cfg.cxl.link_gbps + 1);
            }
            let folded = ctx.switches[s_idx].engine.process_row(data_ready, cluster);
            sub_last = sub_last.max(folded);
        }
        // Ship the sub-result to the local switch (free when the
        // accumulation already happened locally).
        let hop = if remote_cnv {
            ctx.topo.hop_latency(*sid, host_switch)
        } else {
            SimDuration::ZERO
        };
        final_done = final_done.max(sub_last + hop);
    }

    // Result returns to the reserved host address via CXL.cache D2H;
    // the host's snooping daemon notices shortly after.
    let at_host = ctx.hosts[host_idx]
        .rsp_link
        .transfer(final_done, row_bytes + M2sReq::WIRE_BYTES);
    let visible = at_host + SimDuration::from_ns(SNOOP_NS);
    (visible, core_free)
}

#[cfg(test)]
mod tests {
    use super::bag_sum;
    use dlrm::EmbeddingTable;
    use proptest::prelude::*;

    /// Dims around the four-lane width and the Table I dims.
    const DIMS: [u32; 7] = [1, 3, 7, 8, 64, 100, 128];

    /// The f32 fold of `rows` at `dim`, and whether any of its elements
    /// rounded (differs from the exact f64 fold).
    fn fold(dim: u32, rows: &[u64]) -> (Vec<f32>, bool) {
        let table = EmbeddingTable::new(3, 4096, dim, 0);
        let acc = dlrm::sls::sls_reference(&table, rows, None);
        let exact = dlrm::sls::sls_reference_exact(&table, rows, None);
        let rounded = acc.iter().zip(&exact).any(|(&a, &e)| f64::from(a) != e);
        (acc, rounded)
    }

    /// The sequential f64 sum of `acc`.
    fn sequential(acc: &[f32]) -> f64 {
        acc.iter().map(|&x| f64::from(x)).sum()
    }

    proptest! {
        /// The four-lane sum has the sequential sum's bits on bags of
        /// 16–64 rows, whose f32 partial sums pass 4 and round.
        #[test]
        fn prop_four_lane_sum_is_the_sequential_sum(
            dim_pick in 0usize..7,
            rows in proptest::collection::vec(0u64..4096, 16..65),
        ) {
            let (acc, _) = fold(DIMS[dim_pick], &rows);
            prop_assert_eq!(bag_sum(&acc).to_bits(), sequential(&acc).to_bits());
        }
    }

    /// The property above covers rounded folds: at the Table I dims a
    /// 64-row bag's f32 fold rounds some element, and the two sums still
    /// agree there.
    #[test]
    fn four_lane_sum_covers_rounded_folds() {
        let rows: Vec<u64> = (0..64).map(|i| i * 61 % 4096).collect();
        for dim in [64, 100, 128] {
            let (acc, rounded) = fold(dim, &rows);
            assert!(rounded, "dim {dim}: the fold never rounded");
            assert_eq!(bag_sum(&acc).to_bits(), sequential(&acc).to_bits());
        }
    }
}
