//! Model check for the dense [`HotnessTracker`]: random `record` /
//! `decay` sequences drive it and a `BTreeMap` reference side by side,
//! and after every step the two must agree on each page's count, the
//! number of tracked pages, `hottest(k)` for every `k` up to one past
//! the tracked count, and the `iter()` contents taken as a set. Two
//! more checks compare `GlobalHotness` with rules run on the model: the
//! claim rule against `classify`, and, over several classify → decay
//! epochs on one detector, the claim rule's classes against every
//! page's `class` and the cold-age rule against `demotions`.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use pagemgmt::{GlobalHotness, HotnessTracker, PageClass, PageId};
use proptest::prelude::*;

/// Page ids the sequences touch.
const PAGES: u64 = 24;

/// The reference: an ordered map of nonzero counts.
#[derive(Default)]
struct Model {
    counts: BTreeMap<PageId, u64>,
}

impl Model {
    fn record(&mut self, page: PageId) {
        *self.counts.entry(page).or_insert(0) += 1;
    }

    fn decay(&mut self) {
        self.counts.retain(|_, c| {
            *c /= 2;
            *c > 0
        });
    }

    /// Every tracked page, hottest first, page id ascending on ties.
    fn ranked(&self) -> Vec<(PageId, u64)> {
        let mut v: Vec<(PageId, u64)> = self.counts.iter().map(|(&p, &c)| (p, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// The count of the `k`-th hottest page, or of the coldest when
    /// fewer are tracked; 0 when `k` is 0 or nothing is tracked.
    fn floor(&self, k: usize) -> u64 {
        let ranked = self.ranked();
        match k.min(ranked.len()) {
            0 => 0,
            n => ranked[n - 1].1,
        }
    }
}

fn assert_agree(t: &HotnessTracker, model: &Model) {
    for p in 0..PAGES {
        let page = PageId(p);
        assert_eq!(
            t.count(page),
            model.counts.get(&page).copied().unwrap_or(0),
            "count of {page:?}"
        );
    }
    assert_eq!(t.tracked(), model.counts.len());
    let ranked = model.ranked();
    for k in 0..=ranked.len() + 1 {
        let expected: Vec<PageId> = ranked.iter().take(k).map(|&(p, _)| p).collect();
        assert_eq!(t.hottest(k), expected, "hottest({k})");
    }
    let mut listed: Vec<(PageId, u64)> = t.iter().collect();
    listed.sort_unstable();
    let expected: Vec<(PageId, u64)> = model.counts.iter().map(|(&p, &c)| (p, c)).collect();
    assert_eq!(listed, expected, "iter() must list every tracked page once");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dense_tracker_matches_the_ordered_map_model(
        ops in collection::vec(any::<u64>(), 1..160),
        decay_every in 2u64..12,
    ) {
        let mut t = HotnessTracker::new(PAGES);
        let mut model = Model::default();
        for word in ops {
            if word.is_multiple_of(decay_every) {
                t.decay();
                model.decay();
            } else {
                // Skewed pages so counts climb past one and tie often.
                let page = PageId((word >> 8) % PAGES / (1 + (word >> 16) % 3));
                t.record(page);
                model.record(page);
            }
            assert_agree(&t, &model);
        }
    }
}

/// The claim rule on model heatmaps: each host in turn claims up to
/// `hot_capacity` pages no earlier host holds, hottest first; every
/// other observed page is public cold.
fn classify_model(hosts: &[Model], hot_capacity: usize) -> BTreeMap<PageId, PageClass> {
    let mut out = BTreeMap::new();
    for (h, model) in hosts.iter().enumerate() {
        let mut claimed = 0;
        for (page, _) in model.ranked() {
            if claimed == hot_capacity {
                break;
            }
            if let Entry::Vacant(slot) = out.entry(page) {
                slot.insert(PageClass::PrivateHot(h as u16));
                claimed += 1;
            }
        }
    }
    for model in hosts {
        for &page in model.counts.keys() {
            out.entry(page).or_insert(PageClass::PublicCold);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn classify_matches_the_claim_rule_on_the_model(
        ops in collection::vec(any::<u64>(), 0..200),
        n_hosts in 1usize..4,
        hot_capacity in 0usize..12,
    ) {
        let mut g = GlobalHotness::new(n_hosts, PAGES);
        let mut models: Vec<Model> = (0..n_hosts).map(|_| Model::default()).collect();
        for word in ops {
            let h = (word % n_hosts as u64) as usize;
            let page = PageId((word >> 8) % PAGES / (1 + (word >> 16) % 3));
            g.host_mut(h).record(page);
            models[h].record(page);
        }
        g.classify(hot_capacity);
        let classes: BTreeMap<PageId, PageClass> = g.classified().collect();
        prop_assert_eq!(classes, classify_model(&models, hot_capacity));
    }
}

/// The cold-age rule on model heatmaps: each private-hot page of
/// `classes` whose count on its host falls below that host's floor
/// (its `hot_capacity`-th hottest count) scaled by `1 - threshold`,
/// sorted by page id.
fn demotions_model(
    hosts: &[Model],
    classes: &BTreeMap<PageId, PageClass>,
    hot_capacity: usize,
    threshold: f64,
) -> Vec<PageId> {
    let mut out = Vec::new();
    for (h, model) in hosts.iter().enumerate() {
        let cutoff = (model.floor(hot_capacity) as f64 * (1.0 - threshold)).floor() as u64;
        for (&page, &class) in classes {
            let count = model.counts.get(&page).copied().unwrap_or(0);
            if class == PageClass::PrivateHot(h as u16) && count < cutoff {
                out.push(page);
            }
        }
    }
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// One detector across epochs: each epoch records, classifies,
    /// reads every page's class and the demotions, then decays. A class
    /// left over from an earlier epoch (a page no host touches any
    /// more) or a stale floor fails the comparison.
    #[test]
    fn demotions_match_the_cold_age_rule_across_epochs(
        ops in collection::vec(any::<u64>(), 1..400),
        epoch_len in 4usize..60,
        n_hosts in 1usize..4,
    ) {
        let mut g = GlobalHotness::new(n_hosts, PAGES);
        let mut models: Vec<Model> = (0..n_hosts).map(|_| Model::default()).collect();
        for epoch in ops.chunks(epoch_len) {
            for &word in epoch {
                let h = (word % n_hosts as u64) as usize;
                let page = PageId((word >> 8) % PAGES / (1 + (word >> 16) % 3));
                g.host_mut(h).record(page);
                models[h].record(page);
            }
            // Each epoch draws its own capacity and threshold.
            let hot_capacity = (epoch[0] >> 40) as usize % 10;
            let threshold = ((epoch[0] >> 48) % 101) as f64 / 100.0;
            g.classify(hot_capacity);
            let classes = classify_model(&models, hot_capacity);
            for p in 0..PAGES {
                let page = PageId(p);
                prop_assert_eq!(g.class(page), classes.get(&page).copied(), "class of {:?}", page);
            }
            prop_assert_eq!(g.classified().count(), classes.len());
            let expected = demotions_model(&models, &classes, hot_capacity, threshold);
            prop_assert_eq!(g.demotions(threshold), expected.as_slice());
            for (h, model) in models.iter_mut().enumerate() {
                g.host_mut(h).decay();
                model.decay();
            }
        }
    }
}
