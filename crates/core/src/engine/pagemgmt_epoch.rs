//! Epoch-boundary page management: the paper's §IV-B global policy
//! (hot-page promotion with claim-&-swap, cold-age demotion, embedding
//! spreading) and the TPP-like baseline, applied between batches.

#![deny(missing_docs)]

use cxlsim::Type3Device;
use pagemgmt::{
    DeviceLoad, GlobalHotness, Migration, MigrationCostModel, PageClass, PageId, PageTable,
    SpreadConfig, Tier,
};
use simkit::SimDuration;

use super::config::{PmStyle, SystemConfig};
use super::metrics::RunMetrics;

/// The page manager's per-epoch state: how often each CXL page was
/// read this epoch, and the buffers the epoch ranks into.
///
/// The counts are dense, one `u32` per page id, plus a first-touch list
/// of the pages read, each with the device it was read from, which
/// [`Self::clear`] walks to reset only those pages. The page table is
/// read-only between epochs, so a touched page sits on exactly one
/// device. Every buffer is reused, so once they have grown an epoch
/// allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct EpochCounts {
    /// Reads of each page this epoch, indexed by page id.
    counts: Vec<u32>,
    /// Pages read this epoch, in first-touch order, with their device.
    touched: Vec<(PageId, u16)>,
    /// Promotion candidates (or TPP's), as `(heat, page)`.
    hot: Vec<(u64, PageId)>,
    /// Swap victims, as `(heat, page)`, coldest first.
    residents: Vec<(u64, PageId)>,
    /// One spreading load per device.
    loads: Vec<DeviceLoad>,
    /// Per-device access totals.
    totals: Vec<u64>,
    /// The spreading moves.
    moves: Vec<Migration>,
}

impl EpochCounts {
    /// Empty counts over pages `0..n_pages` on `n_devices` devices.
    ///
    /// # Panics
    ///
    /// Panics if `n_pages` exceeds the address space.
    pub(crate) fn new(n_pages: u64, n_devices: usize) -> Self {
        let n = usize::try_from(n_pages).expect("page count exceeds the address space");
        EpochCounts {
            counts: vec![0; n],
            touched: Vec::new(),
            hot: Vec::new(),
            residents: Vec::new(),
            loads: (0..n_devices)
                .map(|_| DeviceLoad {
                    pages: Vec::new(),
                    capacity: 0,
                })
                .collect(),
            totals: Vec::new(),
            moves: Vec::new(),
        }
    }

    /// Records one read of `page` from CXL device `device`.
    ///
    /// # Panics
    ///
    /// Panics if `page` lies outside the page-id space or its count
    /// would pass `u32::MAX`.
    #[inline]
    pub(crate) fn record(&mut self, page: PageId, device: u16) {
        let c = &mut self.counts[page_index(page)];
        if *c == 0 {
            self.touched.push((page, device));
        }
        *c = c.checked_add(1).expect("epoch page count overflows u32");
    }

    /// Zeroes every count the epoch raised.
    fn clear(&mut self) {
        for &(page, _) in &self.touched {
            self.counts[page_index(page)] = 0;
        }
        self.touched.clear();
    }

    /// Embedding spreading (§IV-B3): rebalances this epoch's reads of
    /// the pages still on the device they were read from, over
    /// `page_table`'s devices, and returns the moves. The round budget
    /// scales with the number of pages read and the observed imbalance.
    fn spread(&mut self, page_table: &PageTable, migrate_threshold: f64) -> &[Migration] {
        let EpochCounts {
            counts,
            touched,
            loads,
            totals,
            moves,
            ..
        } = self;
        let active_pages = touched.len();
        // Budget scales with the observed imbalance: balanced traffic
        // gets a trickle, a Fig 10(b)-style hotspot gets aggressive
        // redistribution.
        totals.clear();
        totals.resize(loads.len(), 0);
        for &(page, d) in touched.iter() {
            totals[usize::from(d)] += u64::from(counts[page_index(page)]);
        }
        let avg = (totals.iter().sum::<u64>() as f64 / totals.len().max(1) as f64).max(1.0);
        let imbalance = totals.iter().copied().max().unwrap_or(0) as f64 / avg;
        let budget = ((active_pages as f64 * migrate_threshold / 8.0).ceil() as usize)
            .clamp(1, ((migrate_threshold * 192.0 * imbalance) as usize).max(8));
        let capacity = page_table.capacities().cxl_pages_per_dev;
        for load in loads.iter_mut() {
            load.pages.clear();
            load.capacity = capacity;
        }
        for &(page, d) in touched.iter() {
            if page_table.tier_of(page) == Some(Tier::Cxl(d)) {
                let count = u64::from(counts[page_index(page)]);
                loads[usize::from(d)].pages.push((page, count));
            }
        }
        pagemgmt::rebalance(
            loads,
            &SpreadConfig {
                migrate_threshold: 0.35,
                max_rounds: budget,
            },
            totals,
            moves,
        );
        moves
    }
}

/// `page`'s index into a dense per-page array.
fn page_index(page: PageId) -> usize {
    usize::try_from(page.0).expect("page id exceeds the address space")
}

/// Mutable view over the state an epoch touches: placement, hotness,
/// per-page access counts, and the run metrics being charged.
pub(crate) struct EpochCtx<'a> {
    /// The run configuration.
    pub cfg: &'a SystemConfig,
    /// Page placement being rewritten.
    pub page_table: &'a mut PageTable,
    /// Cross-host page-hotness state.
    pub hotness: &'a mut GlobalHotness,
    /// Per-page CXL access counts within this epoch.
    pub counts: &'a mut EpochCounts,
    /// Devices (read-only: load statistics).
    pub devices: &'a [Type3Device],
    /// Run metrics under construction.
    pub metrics: &'a mut RunMetrics,
    /// Monotonic epoch counter.
    pub pm_epoch: &'a mut u64,
}

/// Writes the `k` coldest local pages by `(heat, page)` into `out`,
/// coldest first: exactly the first `k` entries of a full sort of every
/// local page (`(heat, page)` is a total order, page ids being unique).
///
/// An epoch heats far fewer pages than local DRAM holds, so usually at
/// least `k` local pages have no heat. The answer is then the first `k`
/// of them in ascending page order — `PageTable::iter`'s order — and the
/// scan stops at the `k`-th. Otherwise every local page is ranked, with
/// a quickselect that leaves all but the first `k` unsorted.
fn coldest_locals(
    page_table: &PageTable,
    hotness: &GlobalHotness,
    k: usize,
    out: &mut Vec<(u64, PageId)>,
) {
    let locals = || {
        page_table
            .iter()
            .filter(|&(_, t)| t == Tier::Local)
            .map(|(p, _)| (hotness.heat(p), p))
    };
    out.clear();
    out.extend(locals().filter(|&(heat, _)| heat == 0).take(k));
    if out.len() == k {
        return;
    }
    out.clear();
    out.extend(locals());
    if k < out.len() {
        out.select_nth_unstable(k);
        out.truncate(k);
    }
    out.sort_unstable();
}

fn least_loaded_device(devices: &[Type3Device]) -> u16 {
    devices
        .iter()
        .enumerate()
        .min_by_key(|&(_, d)| d.access_count())
        .map(|(i, _)| i as u16)
        .unwrap_or(0)
}

/// One page-management epoch at a batch boundary: global hotness
/// classification, hot-page promotion with claim-&-swap, cold-age
/// demotion, and embedding spreading across devices. Charges the
/// migrations and their exposed overhead to `ctx.metrics` and returns
/// the overhead, which the caller adds to the batch's host time.
pub(crate) fn run_pm_epoch(ctx: &mut EpochCtx<'_>) -> SimDuration {
    let Some(pm) = ctx.cfg.page_mgmt else {
        return SimDuration::ZERO;
    };
    let cost = match pm.granularity {
        pagemgmt::MigrationGranularity::PageBlock => MigrationCostModel::page_block(),
        pagemgmt::MigrationGranularity::CacheLineBlock => MigrationCostModel::cache_line_block(),
    };
    let migrations_before = ctx.page_table.migrations();

    if pm.style == PmStyle::Tpp {
        return run_tpp_epoch(ctx, &cost, migrations_before);
    }

    // 1. Promote globally hottest pages into local DRAM. Promotion is
    // budgeted per epoch so migration overhead amortizes over the
    // run instead of thrashing on the first batch.
    let hot_capacity = ctx.page_table.capacities().local_pages as usize;
    // Aggressive promotion while the hot set is being learned, then a
    // trickle: steady-state churn would otherwise chase Zipf-tail
    // sampling noise forever.
    let promote_budget = if *ctx.pm_epoch < 4 {
        (hot_capacity / 4).max(8) as u64
    } else {
        // Steady-state trickle, scaled by the migrate threshold
        // (Fig 13(a)'s knob: a higher threshold moves more pages).
        ((pm.migrate_threshold * 48.0) as u64).max(4)
    };
    ctx.hotness.classify(hot_capacity);
    let mut promoted = 0u64;
    let EpochCounts { hot, residents, .. } = &mut *ctx.counts;
    hot.clear();
    hot.extend(
        ctx.hotness
            .classified()
            .filter(|&(_, c)| matches!(c, PageClass::PrivateHot(_)))
            .map(|(p, _)| (ctx.hotness.heat(p), p))
            // Tail pages with a couple of accesses churn in and out of
            // the hot set; only promote pages with real heat.
            .filter(|&(heat, _)| heat >= 4),
    );
    // Hottest first, deterministic tie-break.
    hot.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    // Current local residents, coldest first, available for swapping.
    // Each non-local hot page consumes at most one of them: the list is
    // a snapshot of the local pages, only the victim just consumed
    // leaves local (by `swap`), and promotions add pages the snapshot
    // never held. So only the `need` coldest can ever be read.
    let n_residents = ctx.page_table.occupancy(Tier::Local) as usize;
    let need = hot
        .iter()
        .filter(|&&(_, p)| ctx.page_table.tier_of(p) != Some(Tier::Local))
        .count();
    coldest_locals(ctx.page_table, ctx.hotness, need, residents);
    let mut resident_cursor = 0usize;
    for &(heat, page) in hot.iter() {
        if promoted >= promote_budget {
            break;
        }
        if ctx.page_table.tier_of(page) == Some(Tier::Local) {
            continue;
        }
        if ctx.page_table.move_page(page, Tier::Local).is_ok() {
            promoted += 1;
            continue;
        }
        // Local full: claim & swap with the coldest resident.
        while resident_cursor < residents.len() {
            let (victim_heat, victim) = residents[resident_cursor];
            resident_cursor += 1;
            if ctx.page_table.tier_of(victim) != Some(Tier::Local) {
                continue;
            }
            // Hysteresis: only displace a resident when the candidate
            // is clearly hotter, otherwise promotion thrashes. A heat
            // sums one `u32` count per host (at most 2¹⁶ of them), so
            // doubling it stays far inside `u64`.
            let bar = victim_heat
                .checked_mul(2)
                .expect("a heat is below 2⁴⁸")
                .max(4);
            if heat < bar {
                break; // residents are comparably hot; stop promoting
            }
            ctx.page_table.swap(page, victim);
            promoted += 1;
            break;
        }
        if resident_cursor >= n_residents {
            break;
        }
    }

    // 2. Cold-age demotion of stale private-hot pages (bounded per
    // epoch so demotion churn cannot swamp useful work).
    let demote_budget = ((pm.migrate_threshold * 24.0) as usize).max(2);
    for &page in ctx
        .hotness
        .demotions(pm.cold_age_threshold)
        .iter()
        .take(demote_budget)
    {
        if ctx.page_table.tier_of(page) == Some(Tier::Local) {
            // Send it to the least-loaded device.
            let dev = least_loaded_device(ctx.devices);
            let _ = ctx.page_table.move_page(page, Tier::Cxl(dev));
        }
    }

    // 3. Embedding spreading across devices, budgeted by the migrate
    // threshold (larger threshold ⇒ more pages eligible to move).
    // Spreading runs periodically — device-level imbalance drifts
    // slowly, and rebalancing every epoch would re-chase sampling
    // noise.
    *ctx.pm_epoch += 1;
    if (*ctx.pm_epoch).is_multiple_of(4) {
        for m in ctx.counts.spread(ctx.page_table, pm.migrate_threshold) {
            let _ = ctx.page_table.move_page(m.page, Tier::Cxl(m.to));
        }
    }
    close_epoch(ctx, &cost, migrations_before)
}

/// Closes an epoch, whatever its policy: clears the per-page counts,
/// decays every host's hotness, charges the epoch's migrations and
/// their exposed overhead to the run metrics, and returns the overhead.
fn close_epoch(
    ctx: &mut EpochCtx<'_>,
    cost: &MigrationCostModel,
    migrations_before: u64,
) -> SimDuration {
    ctx.counts.clear();
    for h in 0..ctx.hotness.n_hosts() {
        ctx.hotness.host_mut(h).decay();
    }
    let migrated = ctx.page_table.migrations() - migrations_before;
    ctx.metrics.migrations += migrated;
    // In-flight lookups colliding with migrating pages: a couple per
    // moved page at DLRM arrival rates.
    let overhead = cost.total_overhead(migrated, migrated * 2);
    ctx.metrics.migration_ns += overhead.as_ns();
    overhead
}

/// TPP-like epoch: promote every page re-referenced this epoch
/// (heat ≥ 2), evicting the least-recently-promoted page when local
/// DRAM is full. No spreading, no global coordination.
fn run_tpp_epoch(
    ctx: &mut EpochCtx<'_>,
    cost: &MigrationCostModel,
    migrations_before: u64,
) -> SimDuration {
    let EpochCounts {
        hot: candidates,
        residents: locals,
        ..
    } = &mut *ctx.counts;
    candidates.clear();
    for h in 0..ctx.hotness.n_hosts() {
        for (page, heat) in ctx.hotness.host(h).iter() {
            if heat >= 2 && ctx.page_table.tier_of(page) != Some(Tier::Local) {
                candidates.push((heat, page));
            }
        }
    }
    candidates.sort_unstable_by(|a, b| b.cmp(a));
    candidates.truncate(64);
    // Demotion victims: current locals, coldest first. Each candidate
    // takes at most one, so only that many need ranking.
    coldest_locals(ctx.page_table, ctx.hotness, candidates.len(), locals);
    let mut victim_cursor = 0usize;
    for &(_, page) in candidates.iter() {
        if ctx.page_table.move_page(page, Tier::Local).is_ok() {
            continue;
        }
        if victim_cursor >= locals.len() {
            break;
        }
        let (_, victim) = locals[victim_cursor];
        victim_cursor += 1;
        ctx.page_table.swap(page, victim);
    }
    close_epoch(ctx, cost, migrations_before)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pagemgmt::TierCapacities;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn coldest_locals_is_the_prefix_of_a_full_sort(
            tiers in proptest::collection::vec(0u8..3, 1..64),
            heats in proptest::collection::vec(0u64..6, 0..200),
            n_hosts in 1usize..4,
            k in 0usize..72,
        ) {
            let n_pages = tiers.len() as u64;
            let mut pt = PageTable::new(TierCapacities::new(n_pages, n_pages, 1, n_pages));
            for (p, &t) in tiers.iter().enumerate() {
                let tier = [Tier::Local, Tier::Remote, Tier::Cxl(0)][t as usize];
                pt.place(PageId(p as u64), tier).expect("capacity covers every page");
            }
            // Mostly-unheated pages, so both the early-exit scan and the
            // full ranking run.
            let mut hotness = GlobalHotness::new(n_hosts, n_pages);
            for (i, &h) in heats.iter().enumerate() {
                if h > 0 {
                    let page = PageId((i as u64 * 7 + h) % n_pages);
                    hotness.host_mut(i % n_hosts).record(page);
                }
            }
            let mut expected: Vec<(u64, PageId)> = pt
                .iter()
                .filter(|&(_, t)| t == Tier::Local)
                .map(|(p, _)| (hotness.heat(p), p))
                .collect();
            expected.sort_unstable();
            expected.truncate(k);
            let mut out = vec![(7, PageId(7)); 3]; // stale contents are replaced
            coldest_locals(&pt, &hotness, k, &mut out);
            prop_assert_eq!(out, expected);
        }
    }
}
