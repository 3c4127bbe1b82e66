//! Epoch-boundary page management: the paper's §IV-B global policy
//! (hot-page promotion with claim-&-swap, cold-age demotion, embedding
//! spreading) and the TPP-like baseline, applied between batches.

#![deny(missing_docs)]

use cxlsim::Type3Device;
use pagemgmt::{
    DeviceLoad, GlobalHotness, MigrationCostModel, PageId, PageTable, SpreadConfig, Tier,
};
use simkit::SimDuration;

use super::config::{PmStyle, SystemConfig};
use super::metrics::RunMetrics;

/// Mutable view over the state an epoch touches: placement, hotness,
/// per-device access counts, and the run metrics being charged.
pub(crate) struct EpochCtx<'a> {
    /// The run configuration.
    pub cfg: &'a SystemConfig,
    /// Page placement being rewritten.
    pub page_table: &'a mut PageTable,
    /// Cross-host page-hotness state.
    pub hotness: &'a mut GlobalHotness,
    /// Per-device page-access counts within this epoch.
    pub epoch_dev_pages: &'a mut [simkit::hash::FastMap<PageId, u64>],
    /// Devices (read-only: load statistics).
    pub devices: &'a [Type3Device],
    /// Run metrics under construction.
    pub metrics: &'a mut RunMetrics,
    /// Monotonic epoch counter.
    pub pm_epoch: &'a mut u64,
}

/// Global (cross-host) heat of `page`.
fn hotness_count(hotness: &GlobalHotness, page: PageId) -> u64 {
    (0..hotness.n_hosts())
        .map(|h| hotness.host(h).count(page))
        .sum()
}

/// The `k` coldest local pages by `(heat, page)`, coldest first:
/// exactly the first `k` entries of a full sort of every local page
/// (`(heat, page)` is a total order, page ids being unique).
///
/// An epoch heats far fewer pages than local DRAM holds, so usually at
/// least `k` local pages have no heat. The answer is then the first `k`
/// of them in ascending page order — `PageTable::iter`'s order — and the
/// scan stops at the `k`-th. Otherwise every local page is ranked, with
/// a quickselect that leaves all but the first `k` unsorted.
fn coldest_locals(page_table: &PageTable, hotness: &GlobalHotness, k: usize) -> Vec<(u64, PageId)> {
    let locals = || {
        page_table
            .iter()
            .filter(|&(_, t)| t == Tier::Local)
            .map(|(p, _)| (hotness_count(hotness, p), p))
    };
    let unheated: Vec<(u64, PageId)> = locals().filter(|&(heat, _)| heat == 0).take(k).collect();
    if unheated.len() == k {
        return unheated;
    }
    let mut pages: Vec<(u64, PageId)> = locals().collect();
    if k < pages.len() {
        pages.select_nth_unstable(k);
        pages.truncate(k);
    }
    pages.sort_unstable();
    pages
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
    let classes = ctx.hotness.classify(hot_capacity);
    let mut promoted = 0u64;
    let mut hot_pages: Vec<(u64, PageId)> = classes
        .iter()
        .filter(|(_, c)| matches!(c, pagemgmt::PageClass::PrivateHot(_)))
        .map(|(&p, _)| (hotness_count(ctx.hotness, p), p))
        // Tail pages with a couple of accesses churn in and out of
        // the hot set; only promote pages with real heat.
        .filter(|&(heat, _)| heat >= 4)
        .collect();
    // Hottest first, deterministic tie-break.
    hot_pages.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let hot_pages: Vec<PageId> = hot_pages.into_iter().map(|(_, p)| p).collect();
    // Current local residents, coldest first, available for swapping.
    // Each non-local hot page consumes at most one of them: the list is
    // a snapshot of the local pages, only the victim just consumed
    // leaves local (by `swap`), and promotions add pages the snapshot
    // never held. So only the `need` coldest can ever be read.
    let n_residents = ctx.page_table.occupancy(Tier::Local) as usize;
    let need = hot_pages
        .iter()
        .filter(|&&p| ctx.page_table.tier_of(p) != Some(Tier::Local))
        .count();
    let residents = coldest_locals(ctx.page_table, ctx.hotness, need);
    let mut resident_cursor = 0usize;
    for page in hot_pages {
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
            // is clearly hotter, otherwise promotion thrashes.
            if hotness_count(ctx.hotness, page) < victim_heat.saturating_mul(2).max(4) {
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
    let mut demotions = ctx
        .hotness
        .demotions(&classes, hot_capacity, pm.cold_age_threshold);
    demotions.truncate(((pm.migrate_threshold * 24.0) as usize).max(2));
    for page in demotions {
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
    if !(*ctx.pm_epoch).is_multiple_of(4) {
        return close_epoch(ctx, &cost, migrations_before);
    }
    let active_pages: usize = ctx.epoch_dev_pages.iter().map(|m| m.len()).sum();
    // Budget scales with the observed imbalance: balanced traffic
    // gets a trickle, a Fig 10(b)-style hotspot gets aggressive
    // redistribution.
    let dev_totals: Vec<u64> = ctx
        .epoch_dev_pages
        .iter()
        .map(|m| m.values().sum::<u64>())
        .collect();
    let avg = (dev_totals.iter().sum::<u64>() as f64 / dev_totals.len().max(1) as f64).max(1.0);
    let imbalance = dev_totals.iter().copied().max().unwrap_or(0) as f64 / avg;
    let budget = ((active_pages as f64 * pm.migrate_threshold / 8.0).ceil() as usize).clamp(
        1,
        ((pm.migrate_threshold * 192.0 * imbalance) as usize).max(8),
    );
    let mut loads: Vec<DeviceLoad> = ctx
        .epoch_dev_pages
        .iter()
        .enumerate()
        .map(|(d, pages)| DeviceLoad {
            pages: pages
                .iter()
                .filter(|(p, _)| ctx.page_table.tier_of(**p) == Some(Tier::Cxl(d as u16)))
                .map(|(&p, &c)| (p, c))
                .collect(),
            capacity: ctx.page_table.capacities().cxl_pages_per_dev,
        })
        .collect();
    let moves = pagemgmt::rebalance(
        &mut loads,
        &SpreadConfig {
            migrate_threshold: 0.35,
            max_rounds: budget,
        },
    );
    for m in &moves {
        let _ = ctx.page_table.move_page(m.page, Tier::Cxl(m.to));
    }
    close_epoch(ctx, &cost, migrations_before)
}

/// Closes an epoch, whatever its policy: clears the per-device page
/// counts, decays every host's hotness, charges the epoch's migrations
/// and their exposed overhead to the run metrics, and returns the
/// overhead.
fn close_epoch(
    ctx: &mut EpochCtx<'_>,
    cost: &MigrationCostModel,
    migrations_before: u64,
) -> SimDuration {
    for m in ctx.epoch_dev_pages.iter_mut() {
        m.clear();
    }
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
    let mut candidates: Vec<(u64, PageId)> = Vec::new();
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
    let locals = coldest_locals(ctx.page_table, ctx.hotness, candidates.len());
    let mut victim_cursor = 0usize;
    for (_, page) in candidates {
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
                .map(|(p, _)| (hotness_count(&hotness, p), p))
                .collect();
            expected.sort_unstable();
            expected.truncate(k);
            prop_assert_eq!(coldest_locals(&pt, &hotness, k), expected);
        }
    }
}
