//! The per-query timing path, decomposed into explicit stages.
//!
//! Each SLS bag flows request→forward→DRAM→accumulate through five
//! stage functions that `process_bag` calls in order over a shared
//! `EngineCtx`:
//!
//! 1. `classify` — resolve rows to tiers, record hotness;
//! 2. `local_gather` — host-DRAM rows (DIMM-side fold for RecNMP);
//! 3. `remote_gather` — remote-socket rows over the socket link;
//! 4. `cxl_gather` — pooled-CXL rows, on the host (Pond/RecNMP
//!    spill) or in the fabric switch (PIFS/BEACON);
//! 5. `finalize` — fold the functional checksum into the metrics.
//!
//! Timing is resource-based: every shared medium (host FlexBus links,
//! switch transit, device links, DRAM banks/buses, the accumulate unit)
//! is a stateful resource that serializes contending work, so congestion
//! and parallelism emerge rather than being assumed.

#![deny(missing_docs)]

use std::collections::VecDeque;

use cxlsim::{M2sReq, SwitchId, Topology, Type3Device};
use dlrm::EmbeddingTable;
use memsim::{DramDevice, MemOp};
use pagemgmt::{GlobalHotness, PageId, PageTable, Tier};
use simkit::{SimDuration, SimTime};

use super::config::{ComputeSite, SystemConfig};
use super::metrics::RunMetrics;
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

/// The one per-system scratch bundle: the per-bag pipeline buffers
/// ([`BagScratch`]) and the open-loop serving dispatcher's per-run
/// buffers
/// ([`ServingScratch`](super::serving::ServingScratch)). Both run modes
/// share this single allocation-free scratch convention — any new
/// reusable buffer, per-bag or per-batch, belongs here.
#[derive(Debug, Default, Clone)]
pub(crate) struct EngineScratch {
    /// Per-bag pipeline buffers.
    pub bag: BagScratch,
    /// Open-loop serving dispatch buffers.
    pub serving: super::serving::ServingScratch,
}

/// Reusable buffers for the per-bag pipeline.
///
/// One instance lives in [`SlsSystem`](crate::system::SlsSystem) (inside
/// [`EngineScratch`]) and is threaded through every [`process_bag`]
/// call: the bag takes the buffers, uses them, and hands them back
/// cleared, so steady-state query processing performs no per-bag heap
/// allocation. This is the allocation-free scratch-buffer convention
/// ARCHITECTURE.md documents — any new stage state that would otherwise
/// be a fresh `Vec` per bag belongs here.
#[derive(Debug, Default, Clone)]
pub(crate) struct BagScratch {
    local: Vec<(u64, u64)>,
    remote: Vec<(u64, u64)>,
    cxl: Vec<(u16, u64, u64)>,
    acc: Vec<f32>,
    window: VecDeque<SimTime>,
    sent: Vec<SimTime>,
    instr_arrivals: Vec<SimTime>,
    by_switch: Vec<SwitchGroup>,
    sub_acc: Vec<f32>,
    merged: Vec<f32>,
    /// The debug-build DataFetch codec round trip: the burst, its
    /// encoded slab, and the decoded burst.
    #[cfg(debug_assertions)]
    codec: (Vec<M2sReq>, Vec<u128>, Vec<M2sReq>),
}

/// Folds `rows` of `table` into `acc` in order with unit weight — one
/// [`dlrm::sls::accumulate_row`] per row, the fold every compute site
/// shares, so the sums are bit-identical wherever a row is folded.
fn fold_rows(table: &EmbeddingTable, rows: impl Iterator<Item = u64>, acc: &mut [f32]) {
    for row in rows {
        dlrm::sls::accumulate_row(acc, table, row, 1.0);
    }
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
    /// All hosts (cores, links, local DRAM).
    pub hosts: &'a mut [HostCtx],
    /// Link to the remote socket.
    pub remote_link: &'a mut cxlsim::FlexBusLink,
    /// Remote-socket DRAM.
    pub remote_dram: &'a mut DramDevice,
    /// Page placement (read-only during query processing).
    pub page_table: &'a PageTable,
    /// Embedding tables (functional values).
    pub tables: &'a [EmbeddingTable],
    /// Cross-host page-hotness state.
    pub hotness: &'a mut GlobalHotness,
    /// Per-device page-access counts within the current PM epoch.
    pub epoch_dev_pages: &'a mut [simkit::hash::FastMap<PageId, u64>],
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
/// The growable buffers are borrowed from the system's [`BagScratch`]
/// (via `std::mem::take`) and handed back cleared by [`BagState::release`],
/// so constructing a bag allocates nothing in the steady state.
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
    /// Rows resolved to local DRAM: `(row, addr)`.
    pub local: Vec<(u64, u64)>,
    /// Rows resolved to the remote socket: `(row, addr)`.
    pub remote: Vec<(u64, u64)>,
    /// Rows resolved to pooled CXL: `(device, row, addr)`.
    pub cxl: Vec<(u16, u64, u64)>,
    /// The functional accumulator.
    pub acc: Vec<f32>,
    /// In-flight fold completions for the bounded MLP window (each
    /// gather stage clears it before use).
    pub window: VecDeque<SimTime>,
    /// Remaining scratch: the switch-compute buffers.
    pub scratch: BagScratch,
    /// Completion time of everything observed so far.
    pub done: SimTime,
    /// Time the issuing core is next free.
    pub core_busy: SimTime,
}

impl<'r> BagState<'r> {
    fn new(
        cfg: &SystemConfig,
        scratch: &mut BagScratch,
        host_idx: usize,
        issue: SimTime,
        table: u32,
        rows: &'r [u64],
    ) -> Self {
        let dim = cfg.model.emb_dim as usize;
        let mut taken = std::mem::take(scratch);
        taken.local.clear();
        taken.remote.clear();
        taken.cxl.clear();
        taken.acc.clear();
        taken.acc.resize(dim, 0.0f32);
        let local = std::mem::take(&mut taken.local);
        let remote = std::mem::take(&mut taken.remote);
        let cxl = std::mem::take(&mut taken.cxl);
        let acc = std::mem::take(&mut taken.acc);
        let window = std::mem::take(&mut taken.window);
        BagState {
            host_idx,
            issue,
            table,
            rows,
            acc_ns: (dim as u64).div_ceil(16).max(1),
            local,
            remote,
            cxl,
            acc,
            window,
            scratch: taken,
            done: issue,
            core_busy: issue,
        }
    }

    /// Returns every taken buffer to `scratch`, cleared but with its
    /// capacity intact for the next bag.
    fn release(mut self, scratch: &mut BagScratch) {
        self.local.clear();
        self.remote.clear();
        self.cxl.clear();
        self.acc.clear();
        self.window.clear();
        self.scratch.local = self.local;
        self.scratch.remote = self.remote;
        self.scratch.cxl = self.cxl;
        self.scratch.acc = self.acc;
        self.scratch.window = self.window;
        *scratch = self.scratch;
    }
}

/// Processes one bag through the five stages, in order; returns
/// `(completion_time, core_free_time)`.
pub(crate) fn process_bag(
    ctx: &mut EngineCtx<'_>,
    scratch: &mut BagScratch,
    host_idx: usize,
    issue: SimTime,
    table: u32,
    rows: &[u64],
) -> (SimTime, SimTime) {
    let mut bag = BagState::new(ctx.cfg, scratch, host_idx, issue, table, rows);
    classify(ctx, &mut bag);
    local_gather(ctx, &mut bag);
    remote_gather(ctx, &mut bag);
    cxl_gather(ctx, &mut bag);
    finalize(ctx, &bag);
    let result = (bag.done, bag.core_busy.max(bag.issue));
    bag.release(scratch);
    result
}

/// Resolves each row to its tier, records page hotness (for the page
/// manager, when one runs), and charges the per-tier lookup counters.
fn classify(ctx: &mut EngineCtx<'_>, bag: &mut BagState<'_>) {
    ctx.metrics.lookups += bag.rows.len() as u64;
    for &row in bag.rows {
        let addr = ctx.tables[bag.table as usize].row_addr(row);
        let page = PageId::of_addr(addr);
        if ctx.cfg.page_mgmt.is_some() {
            ctx.hotness.host_mut(bag.host_idx).record(page);
        }
        match ctx.tier_of_addr(addr) {
            Tier::Local => bag.local.push((row, addr)),
            Tier::Remote => bag.remote.push((row, addr)),
            Tier::Cxl(d) => {
                let d = d % ctx.cfg.n_devices;
                ctx.epoch_dev_pages[d as usize]
                    .entry(page)
                    .and_modify(|c| *c += 1)
                    .or_insert(1);
                bag.cxl.push((d, row, addr));
            }
        }
    }
    ctx.metrics.local_lookups += bag.local.len() as u64;
    ctx.metrics.remote_lookups += bag.remote.len() as u64;
    ctx.metrics.cxl_lookups += bag.cxl.len() as u64;
}

/// Local rows: host-compute everywhere except RecNMP, which folds in
/// the DIMM using bank-level parallelism and its DIMM cache.
fn local_gather(ctx: &mut EngineCtx<'_>, bag: &mut BagState<'_>) {
    if bag.local.is_empty() {
        return;
    }
    let row_bytes = ctx.cfg.model.row_bytes();
    let is_nmp = ctx.cfg.compute == ComputeSite::Dimm;
    let start = bag.core_busy;
    bag.window.clear();
    let mut t = start;
    let mut last = start;
    for &(_row, addr) in &bag.local {
        if !is_nmp && bag.window.len() >= ctx.cfg.outstanding {
            t = t.max(bag.window.pop_front().expect("window non-empty"));
        }
        let host = &mut ctx.hosts[bag.host_idx];
        let mut served_from_cache = false;
        if is_nmp {
            if let Some(cache) = host.dimm_cache.as_mut() {
                served_from_cache = cache.access(addr);
            }
        }
        let data = if served_from_cache {
            let lat = host
                .dimm_cache
                .as_ref()
                .expect("cache present")
                .access_latency();
            t + lat
        } else {
            host.dram
                .access_span(t, spread_addr(addr), row_bytes, MemOp::Read)
        };
        // RecNMP gathers with bank-level parallelism inside the DIMM:
        // the whole bag is issued at once and folds pipeline behind
        // the data (§VI-C1: "the latter performs data fetch with
        // bank-level parallelism"). Hosts fold on the core with a
        // bounded MLP window.
        let fold_done =
            data + SimDuration::from_ns(if is_nmp { bag.acc_ns / 2 } else { bag.acc_ns });
        bag.window.push_back(fold_done);
        t += SimDuration::from_ns(if is_nmp { 1 } else { ISSUE_NS });
        last = last.max(fold_done);
    }
    // The functional fold, after the timing loop, in bag order.
    fold_rows(
        &ctx.tables[bag.table as usize],
        bag.local.iter().map(|&(row, _)| row),
        &mut bag.acc,
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
    if bag.remote.is_empty() {
        return;
    }
    let row_bytes = ctx.cfg.model.row_bytes();
    bag.window.clear();
    let mut t = bag.core_busy;
    let mut last = bag.core_busy;
    for &(_row, addr) in &bag.remote {
        if bag.window.len() >= ctx.cfg.outstanding {
            t = t.max(bag.window.pop_front().expect("window non-empty"));
        }
        let sent = ctx.remote_link.transfer(t, 16);
        let data = ctx
            .remote_dram
            .access_span(sent, spread_addr(addr), row_bytes, MemOp::Read);
        let back = ctx.remote_link.transfer(data, row_bytes);
        let fold_done = back + SimDuration::from_ns(bag.acc_ns);
        bag.window.push_back(fold_done);
        t += SimDuration::from_ns(ISSUE_NS);
        last = last.max(fold_done);
    }
    // The functional fold, after the timing loop, in bag order.
    fold_rows(
        &ctx.tables[bag.table as usize],
        bag.remote.iter().map(|&(row, _)| row),
        &mut bag.acc,
    );
    bag.done = bag.done.max(last);
    bag.core_busy = bag.core_busy.max(last); // synchronous on the core
}

/// Pooled-CXL rows: dispatches to host-side folding (Pond, RecNMP
/// spill) or in-switch accumulation (PIFS, BEACON) per the configured
/// compute site.
fn cxl_gather(ctx: &mut EngineCtx<'_>, bag: &mut BagState<'_>) {
    if bag.cxl.is_empty() {
        return;
    }
    let (cxl_done, core_after) = match ctx.cfg.compute {
        ComputeSite::Host | ComputeSite::Dimm => cxl_rows_host_compute(ctx, bag),
        ComputeSite::Switch => cxl_rows_switch_compute(ctx, bag),
    };
    bag.done = bag.done.max(cxl_done);
    bag.core_busy = core_after;
}

/// Folds the bag's functional checksum into the run metrics.
fn finalize(ctx: &mut EngineCtx<'_>, bag: &BagState<'_>) {
    ctx.metrics.checksum += bag.acc.iter().map(|&x| x as f64).sum::<f64>();
}

/// Rows of one bag homed on one switch, as indices into `BagState::cxl`.
type SwitchGroup = (SwitchId, Vec<usize>);

/// Pond-style CXL handling: each row crosses the whole fabric to the
/// host, which folds it on a core.
fn cxl_rows_host_compute(ctx: &mut EngineCtx<'_>, bag: &mut BagState<'_>) -> (SimTime, SimTime) {
    let row_bytes = ctx.cfg.model.row_bytes();
    let host_switch = ctx.topo.host_switch(bag.host_idx);
    let start = bag.core_busy;
    bag.window.clear();
    let mut t = start;
    let mut last = start;
    for &(dev, _row, addr) in &bag.cxl {
        if bag.window.len() >= ctx.cfg.outstanding {
            t = t.max(bag.window.pop_front().expect("window non-empty"));
        }
        let sent = ctx.hosts[bag.host_idx]
            .req_link
            .transfer(t, M2sReq::WIRE_BYTES);
        let dev_switch = ctx.topo.device_switch(dev as usize);
        let hop = ctx.topo.hop_latency(host_switch, dev_switch);
        let at_switch = ctx.switches[dev_switch.0 as usize].sw.transit(sent) + hop;
        let data_at_switch =
            ctx.devices[dev as usize].read(at_switch, spread_addr(addr), row_bytes);
        let back_at_host_switch = data_at_switch + hop;
        let at_host = ctx.hosts[bag.host_idx]
            .rsp_link
            .transfer(back_at_host_switch, row_bytes + M2sReq::WIRE_BYTES);
        let fold_done = at_host + SimDuration::from_ns(bag.acc_ns);
        bag.window.push_back(fold_done);
        t += SimDuration::from_ns(ISSUE_NS);
        last = last.max(fold_done);
    }
    // The functional fold, after the timing loop, in bag order.
    fold_rows(
        &ctx.tables[bag.table as usize],
        bag.cxl.iter().map(|&(_, row, _)| row),
        &mut bag.acc,
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
    let dim = ctx.cfg.model.emb_dim as usize;
    let host_idx = bag.host_idx;
    let table = bag.table;
    let host_switch = ctx.topo.host_switch(host_idx);
    let local_sw_idx = host_switch.0 as usize;
    let cluster = ClusterId(*ctx.next_cluster);
    *ctx.next_cluster += 1;

    // Group rows by the switch homing their device. Group entries are
    // recycled from the bag scratch: only the first `n_groups` are live
    // for this bag, and their inner index vectors keep their capacity
    // across bags.
    let mut n_groups = 0usize;
    for (i, &(dev, _, _)) in bag.cxl.iter().enumerate() {
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

    // Host issues Configuration + one DataFetch per row on its
    // request link, then is free (asynchronous communication).
    let config_req = M2sReq::configuration(
        0xF000_0000,
        (cluster.0 & 0x1FF) as u16,
        bag.cxl.len() as u16,
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
        bag.cxl.len(),
        &mut bag.scratch.sent,
    );
    t += SimDuration::from_ns(ISSUE_NS * bag.cxl.len() as u64);
    // Debug builds round-trip the whole DataFetch burst through the
    // batched codec and check every instruction routes to the process
    // core; the release path models only the stream's timing.
    #[cfg(debug_assertions)]
    {
        let chunks = (row_bytes.div_ceil(16)).min(8) as u8;
        let (stream, slab, decoded) = &mut bag.scratch.codec;
        stream.clear();
        stream.extend(bag.cxl.iter().map(|&(_, _, addr)| {
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
    // position in `bag.cxl` (positional, so duplicate rows in one bag
    // keep their own serialized issue/arrival times).
    bag.scratch.instr_arrivals.clear();
    for (i, &(dev, _row, _addr)) in bag.cxl.iter().enumerate() {
        let s = ctx.topo.device_switch(dev as usize);
        let hop = ctx.topo.hop_latency(host_switch, s);
        let transit = ctx.switches[local_sw_idx].sw.transit(bag.scratch.sent[i]);
        bag.scratch.instr_arrivals.push(transit + hop);
    }
    let core_free = t;

    // The local switch opens the cluster when the Configuration lands
    // (the ACR's `SumCandidateCount` is `bag.cxl.len()`, split into one
    // sub-cluster per switch group). Each group accumulates its
    // sub-cluster and the local forward controller folds the partials,
    // in group order, into `merged`; the result is ready once the
    // slowest partial has landed.
    let mut final_done = config_arrival;
    bag.scratch.merged.clear();
    bag.scratch.merged.resize(dim, 0.0f32);
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
            let (dev, _row, addr) = bag.cxl[i];
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
                    + SimDuration::from_ns(row_bytes / ctx.cfg.cxl.link_gbps.max(1) + 1);
            }
            let folded = ctx.switches[s_idx].engine.process_row(data_ready, cluster);
            sub_last = sub_last.max(folded);
        }
        // The sub-cluster's rows fold in group order.
        bag.scratch.sub_acc.clear();
        bag.scratch.sub_acc.resize(dim, 0.0f32);
        fold_rows(
            &ctx.tables[table as usize],
            group.iter().map(|&i| bag.cxl[i].1),
            &mut bag.scratch.sub_acc,
        );

        // Ship the sub-result to the local switch (free when the
        // accumulation already happened locally).
        let hop = if remote_cnv {
            ctx.topo.hop_latency(*sid, host_switch)
        } else {
            SimDuration::ZERO
        };
        final_done = final_done.max(sub_last + hop);
        for (m, &v) in bag.scratch.merged.iter_mut().zip(&bag.scratch.sub_acc) {
            *m += v;
        }
    }
    for (a, &v) in bag.acc.iter_mut().zip(&bag.scratch.merged) {
        *a += v;
    }

    // Result returns to the reserved host address via CXL.cache D2H;
    // the host's snooping daemon notices shortly after.
    let at_host = ctx.hosts[host_idx]
        .rsp_link
        .transfer(final_done, row_bytes + M2sReq::WIRE_BYTES);
    let visible = at_host + SimDuration::from_ns(SNOOP_NS);
    (visible, core_free)
}
