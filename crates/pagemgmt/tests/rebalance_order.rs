//! `rebalance` is insensitive to the order of each device's page list.
//!
//! The page-management epoch lists each device's pages in the order
//! the epoch first touched them, and the rebalancer itself reorders a
//! list when it takes a page out (`swap_remove`). The moves are still
//! deterministic because every choice the rebalancer makes — the hot
//! and cold device by access total, the page to transfer
//! (`best_transfer`) and the page to swap back (`argmin_count`) — is a
//! minimum over a total order that ends in the page id. The first test
//! pins that: any permutation of each device's list yields the same
//! moves and the same final per-device page sets. The second pins the
//! rebalancer against a copy of its earlier loop, which recomputed
//! every device total each round and removed pages in order.

use pagemgmt::{rebalance, DeviceLoad, Migration, PageId, SpreadConfig};
use proptest::prelude::*;

/// Fisher–Yates shuffle driven by a splitmix64 stream.
fn shuffle<T>(v: &mut [T], mut seed: u64) {
    for i in (1..v.len()).rev() {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        v.swap(i, (z % (i as u64 + 1)) as usize);
    }
}

/// Each device's pages as a sorted list, for order-free comparison.
fn page_sets(devices: &[DeviceLoad]) -> Vec<Vec<(PageId, u64)>> {
    devices
        .iter()
        .map(|d| {
            let mut pages = d.pages.clone();
            pages.sort_unstable();
            pages
        })
        .collect()
}

/// Unique page ids with the given counts, scattered over `n_devices`
/// devices of `capacity` pages each (device 0 gets about a third more).
fn scattered(counts: &[u64], n_devices: usize, capacity: u64, seed: u64) -> Vec<DeviceLoad> {
    let mut devices: Vec<DeviceLoad> = (0..n_devices)
        .map(|_| DeviceLoad {
            pages: Vec::new(),
            capacity,
        })
        .collect();
    for (i, &c) in counts.iter().enumerate() {
        let mix = seed.rotate_left(i as u32 % 64) ^ i as u64;
        let d = if mix.is_multiple_of(3) {
            0
        } else {
            (mix >> 8) as usize % n_devices
        };
        devices[d].pages.push((PageId(i as u64 * 7 % 101), c));
    }
    devices
}

/// The moves `rebalance` makes on `devices`.
fn moves_of(devices: &mut [DeviceLoad], cfg: &SpreadConfig) -> Vec<Migration> {
    let mut moves = Vec::new();
    rebalance(devices, cfg, &mut Vec::new(), &mut moves);
    moves
}

/// The rebalancer as it was: every round recollects the device totals,
/// and pages leave their list by an order-keeping `remove`.
fn reference_rebalance(devices: &mut [DeviceLoad], cfg: &SpreadConfig) -> Vec<Migration> {
    fn total(d: &DeviceLoad) -> u64 {
        d.pages.iter().map(|&(_, c)| c).sum()
    }
    fn argmin_count(pages: &[(PageId, u64)]) -> Option<usize> {
        pages
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(p, c))| (c, p))
            .map(|(i, _)| i)
    }
    fn best_transfer(pages: &[(PageId, u64)], ideal: u64, gap: u64) -> Option<usize> {
        let viable = pages
            .iter()
            .enumerate()
            .filter(|&(_, &(_, c))| c > 0 && c < gap)
            .min_by_key(|&(i, &(p, c))| (c.abs_diff(ideal), p, i))
            .map(|(i, _)| i);
        viable.or_else(|| argmin_count(pages).filter(|&i| pages[i].1 > 0 && pages[i].1 < gap))
    }
    let mut moves = Vec::new();
    if devices.len() < 2 {
        return moves;
    }
    for _ in 0..cfg.max_rounds {
        let totals: Vec<u64> = devices.iter().map(total).collect();
        let n = totals.len();
        let (hot_idx, &hot_total) = totals
            .iter()
            .enumerate()
            .max_by_key(|&(i, &t)| (t, usize::MAX - i))
            .unwrap();
        let others_avg: f64 = (totals.iter().sum::<u64>() - hot_total) as f64 / (n as f64 - 1.0);
        if (hot_total as f64) <= others_avg * (1.0 + cfg.migrate_threshold) || hot_total == 0 {
            break;
        }
        let (cold_idx, &cold_total) = totals
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != hot_idx)
            .min_by_key(|&(i, &t)| (t, i))
            .unwrap();
        let gap = hot_total - cold_total;
        let Some(page_pos) = best_transfer(&devices[hot_idx].pages, gap / 2, gap) else {
            break;
        };
        let (page, count) = devices[hot_idx].pages.remove(page_pos);
        moves.push(Migration {
            page,
            from: hot_idx as u16,
            to: cold_idx as u16,
        });
        if devices[cold_idx].pages.len() as u64 >= devices[cold_idx].capacity {
            if let Some(cold_page_pos) = argmin_count(&devices[cold_idx].pages) {
                let (cold_page, cold_count) = devices[cold_idx].pages.remove(cold_page_pos);
                moves.push(Migration {
                    page: cold_page,
                    from: cold_idx as u16,
                    to: hot_idx as u16,
                });
                devices[hot_idx].pages.push((cold_page, cold_count));
            }
        }
        devices[cold_idx].pages.push((page, count));
    }
    moves
}

#[test]
fn a_full_destination_swap_back_matches_the_reference() {
    let cfg = SpreadConfig::default();
    // Device 1 is cold and full, so every move into it swaps back.
    let mut devices = vec![
        DeviceLoad {
            pages: vec![(PageId(0), 100), (PageId(1), 90), (PageId(2), 80)],
            capacity: 8,
        },
        DeviceLoad {
            pages: vec![(PageId(3), 1), (PageId(4), 1)],
            capacity: 2,
        },
    ];
    let mut reference = devices.clone();
    let moves = moves_of(&mut devices, &cfg);
    assert!(
        moves.iter().any(|m| m.from == 1),
        "a swap-back runs: {moves:?}"
    );
    assert_eq!(moves, reference_rebalance(&mut reference, &cfg));
    assert_eq!(page_sets(&devices), page_sets(&reference));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rebalance_matches_the_reference_loop(
        counts in collection::vec(0u64..40, 2..48),
        n_devices in 2usize..5,
        capacity in 1u64..16,
        max_rounds in 1usize..32,
        threshold_pct in 0u64..60,
        placement_seed in any::<u64>(),
        rounds in 1usize..4,
    ) {
        let cfg = SpreadConfig {
            migrate_threshold: threshold_pct as f64 / 100.0,
            max_rounds,
        };
        let mut devices = scattered(&counts, n_devices, capacity, placement_seed);
        let mut reference = devices.clone();
        // Reused buffers across calls, as the page manager keeps them;
        // each call rebalances what the last one left.
        let (mut totals, mut moves) = (Vec::new(), Vec::new());
        for _ in 0..rounds {
            rebalance(&mut devices, &cfg, &mut totals, &mut moves);
            prop_assert_eq!(&moves, &reference_rebalance(&mut reference, &cfg));
            prop_assert_eq!(page_sets(&devices), page_sets(&reference));
        }
    }

    #[test]
    fn moves_do_not_depend_on_page_list_order(
        counts in collection::vec(0u64..40, 2..48),
        n_devices in 2usize..5,
        capacity in 1u64..16,
        max_rounds in 1usize..32,
        threshold_pct in 0u64..60,
        placement_seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
    ) {
        // Unique page ids, scattered over the devices (some skewed).
        let mut devices = scattered(&counts, n_devices, capacity, placement_seed);
        let cfg = SpreadConfig {
            migrate_threshold: threshold_pct as f64 / 100.0,
            max_rounds,
        };
        let mut permuted = devices.clone();
        for (d, dev) in permuted.iter_mut().enumerate() {
            shuffle(&mut dev.pages, shuffle_seed ^ d as u64);
        }
        let moves = moves_of(&mut devices, &cfg);
        let moves_permuted = moves_of(&mut permuted, &cfg);
        prop_assert_eq!(moves, moves_permuted);
        prop_assert_eq!(page_sets(&devices), page_sets(&permuted));
    }
}
