//! `rebalance` is insensitive to the order of each device's page list.
//!
//! The page-management epoch builds every `DeviceLoad::pages` from a
//! hash map, so the lists arrive in no particular order. The moves are
//! still deterministic because every choice the rebalancer makes — the
//! hot and cold device by access total, the page to transfer
//! (`best_transfer`) and the page to swap back (`argmin_count`) — is a
//! minimum over a total order that ends in the page id. This test pins
//! that: any permutation of each device's list yields the same moves
//! and the same final per-device page sets.

use pagemgmt::{rebalance, DeviceLoad, PageId, SpreadConfig};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

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
        let mut devices: Vec<DeviceLoad> = (0..n_devices)
            .map(|_| DeviceLoad { pages: Vec::new(), capacity })
            .collect();
        for (i, &c) in counts.iter().enumerate() {
            let mix = placement_seed.rotate_left(i as u32 % 64) ^ i as u64;
            let d = if mix.is_multiple_of(3) { 0 } else { (mix >> 8) as usize % n_devices };
            devices[d].pages.push((PageId(i as u64 * 7 % 101), c));
        }
        let cfg = SpreadConfig {
            migrate_threshold: threshold_pct as f64 / 100.0,
            max_rounds,
        };
        let mut permuted = devices.clone();
        for (d, dev) in permuted.iter_mut().enumerate() {
            shuffle(&mut dev.pages, shuffle_seed ^ d as u64);
        }
        let moves = rebalance(&mut devices, &cfg);
        let moves_permuted = rebalance(&mut permuted, &cfg);
        prop_assert_eq!(moves, moves_permuted);
        prop_assert_eq!(page_sets(&devices), page_sets(&permuted));
    }
}
