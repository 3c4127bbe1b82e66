//! Model check for the dense [`PageTable`]: random `place` /
//! `move_page` / `swap` sequences drive it and a `BTreeMap` reference
//! side by side, and after every step the two must agree on each
//! page's tier, per-tier occupancy, the placed and migration counts,
//! every `CapacityError`, and the ascending-order `iter()` contents.

use std::collections::BTreeMap;

use pagemgmt::table::CapacityError;
use pagemgmt::{PageId, PageTable, Tier, TierCapacities};
use proptest::prelude::*;

/// Page ids the sequences touch (a few are never placed).
const PAGES: u64 = 24;

/// The reference: an ordered map and the same capacity rules.
struct Model {
    caps: TierCapacities,
    map: BTreeMap<PageId, Tier>,
    migrations: u64,
}

impl Model {
    fn occupancy(&self, tier: Tier) -> u64 {
        self.map.values().filter(|&&t| t == tier).count() as u64
    }

    fn admit(&self, tier: Tier) -> Result<(), CapacityError> {
        if self.occupancy(tier) >= self.caps.of(tier) {
            Err(CapacityError { tier })
        } else {
            Ok(())
        }
    }

    fn place(&mut self, page: PageId, tier: Tier) -> Result<(), CapacityError> {
        self.admit(tier)?;
        self.map.insert(page, tier);
        Ok(())
    }

    fn move_page(&mut self, page: PageId, to: Tier) -> Result<(), CapacityError> {
        if self.map[&page] == to {
            return Ok(());
        }
        self.admit(to)?;
        self.map.insert(page, to);
        self.migrations += 1;
        Ok(())
    }

    fn swap(&mut self, a: PageId, b: PageId) {
        let (ta, tb) = (self.map[&a], self.map[&b]);
        if ta != tb {
            self.map.insert(a, tb);
            self.map.insert(b, ta);
            self.migrations += 2;
        }
    }
}

/// Every tier the sequences use, including one CXL device id past the
/// configured count (its capacity is still `cxl_pages_per_dev`).
fn tiers(n_cxl: u16) -> Vec<Tier> {
    let mut v = vec![Tier::Local, Tier::Remote];
    v.extend((0..=n_cxl).map(Tier::Cxl));
    v
}

fn assert_agree(pt: &PageTable, model: &Model, all_tiers: &[Tier]) {
    for p in 0..PAGES + 2 {
        assert_eq!(pt.tier_of(PageId(p)), model.map.get(&PageId(p)).copied());
    }
    for &t in all_tiers {
        assert_eq!(pt.occupancy(t), model.occupancy(t), "occupancy of {t:?}");
    }
    assert_eq!(pt.placed(), model.map.len() as u64);
    assert_eq!(pt.migrations(), model.migrations);
    let listed: Vec<(PageId, Tier)> = pt.iter().collect();
    let expected: Vec<(PageId, Tier)> = model.map.iter().map(|(&p, &t)| (p, t)).collect();
    assert_eq!(
        listed, expected,
        "iter() must list placements by ascending page"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_table_matches_the_ordered_map_model(
        local in 0u64..6,
        remote in 0u64..6,
        n_cxl in 0u16..4,
        per_dev in 0u64..5,
        ops in collection::vec(any::<u64>(), 1..120),
    ) {
        let caps = TierCapacities::new(local, remote, n_cxl, per_dev);
        let all_tiers = tiers(n_cxl);
        let mut pt = PageTable::new(caps);
        let mut model = Model { caps, map: BTreeMap::new(), migrations: 0 };
        for word in ops {
            let a = PageId(word % PAGES);
            let b = PageId((word >> 8) % PAGES);
            let tier = all_tiers[((word >> 16) % all_tiers.len() as u64) as usize];
            match (word >> 24) % 3 {
                // place: only unplaced pages (placing twice panics).
                0 if !model.map.contains_key(&a) => {
                    prop_assert_eq!(pt.place(a, tier), model.place(a, tier));
                }
                // move_page / swap: only placed pages (else they panic).
                1 if model.map.contains_key(&a) => {
                    prop_assert_eq!(pt.move_page(a, tier), model.move_page(a, tier));
                }
                2 if model.map.contains_key(&a) && model.map.contains_key(&b) => {
                    pt.swap(a, b);
                    model.swap(a, b);
                }
                _ => continue,
            }
            assert_agree(&pt, &model, &all_tiers);
        }
    }
}
