//! Access-frequency tracking and global hot/cold classification (§IV-B2).
//!
//! Each host tracks per-page access frequency. Merging the per-host
//! heatmaps yields a *global* temperature, from which the hottest pages
//! are claimed into each host's Private Hot Region (local DRAM) and the
//! rest form the Public Cold Region shared over CXL. A page already
//! claimed by one host is skipped by others, which claim their next
//! hottest candidate instead.

use crate::table::{page_slot, PageId};

/// The ranking order shared by every hotness query: hottest first,
/// page-id ascending on ties — a total order (ids are unique).
fn hotter_first(a: &(PageId, u64), b: &(PageId, u64)) -> std::cmp::Ordering {
    b.1.cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Per-host page-access frequency tracker over a fixed page-id space.
///
/// Counts live in a dense array indexed by page id, so `record` and
/// `count` are one index each; a side list of the pages with a nonzero
/// count lets `decay`, `iter` and the rankings walk only the pages this
/// host touched. A count is 32 bits — a host keeps one per page, and the
/// page manager halves them every epoch — and `record` panics rather
/// than wrap past `u32::MAX`.
///
/// `iter` yields pages in first-touch order. Every reader either ranks
/// by the `(count, page)` total order or folds commutatively, so no
/// result depends on it.
///
/// # Examples
///
/// ```
/// use pagemgmt::{HotnessTracker, PageId};
///
/// let mut t = HotnessTracker::new(16);
/// t.record(PageId(1));
/// t.record(PageId(1));
/// t.record(PageId(2));
/// assert_eq!(t.count(PageId(1)), 2);
/// assert_eq!(t.hottest(1), vec![PageId(1)]);
/// ```
#[derive(Debug, Clone)]
pub struct HotnessTracker {
    /// Access count of each page this epoch, indexed by page id.
    counts: Vec<u32>,
    /// Pages whose count is nonzero, in first-touch order.
    touched: Vec<PageId>,
}

impl HotnessTracker {
    /// Creates an empty tracker for pages `0..n_pages`.
    ///
    /// # Panics
    ///
    /// Panics if `n_pages` exceeds the address space.
    pub fn new(n_pages: u64) -> Self {
        let n = usize::try_from(n_pages).expect("page count exceeds the address space");
        HotnessTracker {
            counts: vec![0; n],
            touched: Vec::new(),
        }
    }

    /// Records one access to `page`.
    ///
    /// # Panics
    ///
    /// Panics if `page` lies outside the tracker's page-id space or its
    /// count would pass `u32::MAX`.
    #[inline]
    pub fn record(&mut self, page: PageId) {
        let c = &mut self.counts[page_slot(page)];
        if *c == 0 {
            self.touched.push(page);
        }
        *c = c.checked_add(1).expect("page access count overflows u32");
    }

    /// Access count of `page` this epoch.
    #[inline]
    pub fn count(&self, page: PageId) -> u64 {
        usize::try_from(page.0)
            .ok()
            .and_then(|i| self.counts.get(i))
            .map_or(0, |&c| u64::from(c))
    }

    /// The `k` most-accessed pages, hottest first (ties broken by page id
    /// for determinism).
    pub fn hottest(&self, k: usize) -> Vec<PageId> {
        let mut ranked = Vec::new();
        self.rank_top(k, &mut ranked);
        ranked.into_iter().map(|(p, _)| p).collect()
    }

    /// Writes the `k` most-accessed `(page, count)` entries into
    /// `ranked`, hottest first by [`hotter_first`] — the one ranking
    /// every hotness query uses.
    ///
    /// `(count, id)` is a total order, so partitioning the top `k` with a
    /// quickselect before sorting only that prefix returns exactly what
    /// a full sort followed by `take(k)` would — at O(n + k log k)
    /// instead of O(n log n), which matters because the page manager
    /// ranks on every epoch boundary. Both steps work in place, so a
    /// reused `ranked` allocates nothing once it has grown.
    fn rank_top(&self, k: usize, ranked: &mut Vec<(PageId, u64)>) {
        ranked.clear();
        if k == 0 {
            return;
        }
        ranked.extend(self.iter());
        if k < ranked.len() {
            ranked.select_nth_unstable_by(k, hotter_first);
            ranked.truncate(k);
        }
        ranked.sort_unstable_by(hotter_first);
    }

    /// Exponentially decays all counts (epoch boundary), dropping pages
    /// that reach zero.
    pub fn decay(&mut self) {
        let counts = &mut self.counts;
        self.touched.retain(|p| {
            let c = &mut counts[page_slot(*p)];
            *c /= 2;
            *c > 0
        });
    }

    /// Number of distinct pages seen.
    pub fn tracked(&self) -> usize {
        self.touched.len()
    }

    /// Iterates over `(page, count)` pairs in first-touch order.
    pub fn iter(&self) -> impl Iterator<Item = (PageId, u64)> + '_ {
        self.touched
            .iter()
            .map(|&p| (p, u64::from(self.counts[page_slot(p)])))
    }
}

/// Classification of one page after global hotness detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageClass {
    /// Claimed into host `h`'s Private Hot Region (local DRAM).
    PrivateHot(u16),
    /// Lives in the shared Public Cold Region (CXL pool).
    PublicCold,
}

/// Merges per-host heatmaps and produces the private/public split.
///
/// The split of the last [`Self::classify`] is dense state: a class per
/// page id, plus the list of pages it classified, in classification
/// order, which the next `classify` walks to reset only those pages.
/// The buffers the rankings write into live here too and are reused, so
/// once they have grown an epoch's `classify`, `demotions` and
/// `hottest_union` allocate nothing. The classified list's order is not
/// a ranking; every reader orders by a total order ending in the page
/// id or folds commutatively.
#[derive(Debug, Clone)]
pub struct GlobalHotness {
    hosts: Vec<HotnessTracker>,
    /// Class of each page at the last `classify`, indexed by page id;
    /// `None` for a page no host touched.
    class: Vec<Option<PageClass>>,
    /// The pages with a class, in classification order.
    classified: Vec<PageId>,
    /// Per host, the count of the page at its claim capacity at the last
    /// `classify`: the demotion floor.
    floors: Vec<u64>,
    /// One host's top-k `(page, count)` entries, hottest first.
    ranked: Vec<(PageId, u64)>,
    /// The page list the last `demotions` or `hottest_union` returned.
    listed: Vec<PageId>,
}

/// Gives `page` class `c` unless it already has one; returns whether it
/// was unclassified.
fn claim(
    class: &mut [Option<PageClass>],
    classified: &mut Vec<PageId>,
    page: PageId,
    c: PageClass,
) -> bool {
    let slot = &mut class[page_slot(page)];
    if slot.is_some() {
        return false;
    }
    *slot = Some(c);
    classified.push(page);
    true
}

impl GlobalHotness {
    /// Creates a detector for `n_hosts` hosts over pages `0..n_pages`.
    ///
    /// # Panics
    ///
    /// Panics if `n_pages` exceeds the address space.
    pub fn new(n_hosts: usize, n_pages: u64) -> Self {
        let n = usize::try_from(n_pages).expect("page count exceeds the address space");
        GlobalHotness {
            hosts: (0..n_hosts).map(|_| HotnessTracker::new(n_pages)).collect(),
            class: vec![None; n],
            classified: Vec::new(),
            floors: Vec::new(),
            ranked: Vec::new(),
            listed: Vec::new(),
        }
    }

    /// The tracker of host `h`.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn host_mut(&mut self, h: usize) -> &mut HotnessTracker {
        &mut self.hosts[h]
    }

    /// Read-only view of host `h`'s tracker.
    ///
    /// # Panics
    ///
    /// Panics if `h` is out of range.
    pub fn host(&self, h: usize) -> &HotnessTracker {
        &self.hosts[h]
    }

    /// Number of hosts.
    pub fn n_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// Global heat of `page`: the sum of every host's count. Each count
    /// is a `u32`, so the sum stays below `n_hosts × 2³²`.
    #[inline]
    pub fn heat(&self, page: PageId) -> u64 {
        self.hosts.iter().map(|t| t.count(page)).sum()
    }

    /// Claims up to `hot_capacity` pages per host into Private Hot
    /// Regions, hottest-first by each host's own heatmap; pages already
    /// claimed by an earlier host are skipped and the host claims its
    /// next candidate ("if a host identifies a page already designated as
    /// a private hot page by another host, it selects its next most
    /// frequently accessed page"). Every other page some host touched is
    /// public cold. The split replaces the previous one; read it with
    /// [`Self::class`] and [`Self::classified`].
    ///
    /// Each host's heatmap is ranked at most once, and that ranking also
    /// records the host's demotion floor for [`Self::demotions`].
    pub fn classify(&mut self, hot_capacity: usize) {
        let GlobalHotness {
            hosts,
            class,
            classified,
            floors,
            ranked,
            ..
        } = self;
        for &page in classified.iter() {
            class[page_slot(page)] = None;
        }
        classified.clear();
        floors.clear();
        for (h, tracker) in hosts.iter().enumerate() {
            let hot = PageClass::PrivateHot(h as u16);
            let floor = if tracker.tracked() <= hot_capacity {
                // The host has room for its whole heatmap, so the claim
                // loop below would never stop early: it claims every
                // page no earlier host holds, whatever the ranking. The
                // floor is the coldest tracked page.
                let mut coldest = None;
                for (page, count) in tracker.iter() {
                    coldest = Some(coldest.map_or(count, |c: u64| c.min(count)));
                    claim(class, classified, page, hot);
                }
                coldest.unwrap_or(0)
            } else if hot_capacity == 0 {
                0
            } else {
                // The claim loop consumes at most `hot_capacity` fresh
                // pages plus one skip per page an earlier host already
                // claimed, so ranking that many candidates is exactly
                // equivalent to ranking the host's whole heatmap. The
                // host tracks more than `hot_capacity` pages, so the
                // ranking reaches its floor.
                tracker.rank_top(hot_capacity + classified.len(), ranked);
                let mut claimed = 0;
                for &(page, _) in ranked.iter() {
                    if claimed >= hot_capacity {
                        break;
                    }
                    // A page another host got to first is skipped.
                    if claim(class, classified, page, hot) {
                        claimed += 1;
                    }
                }
                ranked[hot_capacity - 1].1
            };
            floors.push(floor);
        }
        // Everything observed but unclaimed is public cold.
        for tracker in hosts.iter() {
            for (page, _) in tracker.iter() {
                claim(class, classified, page, PageClass::PublicCold);
            }
        }
    }

    /// Class of `page` at the last [`Self::classify`], or `None` if no
    /// host had touched it.
    pub fn class(&self, page: PageId) -> Option<PageClass> {
        usize::try_from(page.0)
            .ok()
            .and_then(|i| self.class.get(i))
            .copied()
            .flatten()
    }

    /// Every page the last [`Self::classify`] classified, with its class,
    /// in classification order.
    pub fn classified(&self) -> impl Iterator<Item = (PageId, PageClass)> + '_ {
        self.classified.iter().map(|&p| {
            let c = self.class[page_slot(p)].expect("a classified page has a class");
            (p, c)
        })
    }

    /// Cold-age reclassification (§IV-B2): the private-hot pages of the
    /// last [`Self::classify`] whose access count has dropped more than
    /// `cold_age_threshold` (e.g. 0.2) below the least-accessed page
    /// their host claimed by rank — its `hot_capacity`-th hottest page
    /// at that classify. Those pages should be demoted to the Public Cold
    /// Region. Sorted by page id.
    ///
    /// The floors are the last classify's, so call this before the
    /// heatmaps change again.
    pub fn demotions(&mut self, cold_age_threshold: f64) -> &[PageId] {
        let GlobalHotness {
            hosts,
            class,
            classified,
            floors,
            listed,
            ..
        } = self;
        listed.clear();
        for &page in classified.iter() {
            if let Some(PageClass::PrivateHot(h)) = class[page_slot(page)] {
                let h = usize::from(h);
                let cutoff = (floors[h] as f64 * (1.0 - cold_age_threshold)).floor() as u64;
                if hosts[h].count(page) < cutoff {
                    listed.push(page);
                }
            }
        }
        listed.sort_unstable();
        listed
    }

    /// The union of every host's hottest-`k` pages, sorted ascending and
    /// deduplicated (deterministic: each host's ranking total-orders
    /// ties by page id).
    pub fn hottest_union(&mut self, k: usize) -> &[PageId] {
        let GlobalHotness {
            hosts,
            ranked,
            listed,
            ..
        } = self;
        listed.clear();
        for tracker in hosts.iter() {
            tracker.rank_top(k, ranked);
            listed.extend(ranked.iter().map(|&(p, _)| p));
        }
        listed.sort_unstable();
        listed.dedup();
        listed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record_n(t: &mut HotnessTracker, page: u64, n: u64) {
        for _ in 0..n {
            t.record(PageId(page));
        }
    }

    #[test]
    fn hottest_orders_by_frequency_then_id() {
        let mut t = HotnessTracker::new(16);
        record_n(&mut t, 1, 5);
        record_n(&mut t, 2, 5);
        record_n(&mut t, 3, 9);
        assert_eq!(t.hottest(3), vec![PageId(3), PageId(1), PageId(2)]);
    }

    #[test]
    fn decay_halves_and_prunes() {
        let mut t = HotnessTracker::new(16);
        record_n(&mut t, 1, 4);
        record_n(&mut t, 2, 1);
        t.decay();
        assert_eq!(t.count(PageId(1)), 2);
        assert_eq!(t.count(PageId(2)), 0);
        assert_eq!(t.tracked(), 1);
    }

    #[test]
    fn classify_gives_first_host_priority_and_second_its_next_pick() {
        let mut g = GlobalHotness::new(2, 256);
        // Both hosts love page 10; host 1 also likes page 20.
        record_n(g.host_mut(0), 10, 9);
        record_n(g.host_mut(1), 10, 8);
        record_n(g.host_mut(1), 20, 5);
        g.classify(1);
        assert_eq!(g.class(PageId(10)), Some(PageClass::PrivateHot(0)));
        assert_eq!(g.class(PageId(20)), Some(PageClass::PrivateHot(1)));
    }

    #[test]
    fn unclassified_pages_lose_their_class_at_the_next_classify() {
        let mut g = GlobalHotness::new(1, 256);
        record_n(g.host_mut(0), 7, 3);
        g.classify(1);
        assert_eq!(g.class(PageId(7)), Some(PageClass::PrivateHot(0)));
        g.host_mut(0).decay();
        g.host_mut(0).decay();
        g.classify(1);
        assert_eq!(g.class(PageId(7)), None);
        assert_eq!(g.classified().count(), 0);
    }

    #[test]
    fn unclaimed_pages_are_public_cold() {
        let mut g = GlobalHotness::new(1, 256);
        record_n(g.host_mut(0), 1, 9);
        record_n(g.host_mut(0), 2, 1);
        g.classify(1);
        assert_eq!(g.class(PageId(1)), Some(PageClass::PrivateHot(0)));
        assert_eq!(g.class(PageId(2)), Some(PageClass::PublicCold));
    }

    #[test]
    fn demotions_fire_below_the_cold_age_cutoff() {
        let mut g = GlobalHotness::new(2, 256);
        // Host 0 claims pages 1 and 3 first, so host 1, whose two
        // hottest pages those are, claims page 2 far below its floor.
        record_n(g.host_mut(0), 1, 10);
        record_n(g.host_mut(0), 3, 10);
        record_n(g.host_mut(1), 1, 200);
        record_n(g.host_mut(1), 3, 150);
        record_n(g.host_mut(1), 2, 100);
        g.classify(2);
        assert_eq!(g.class(PageId(2)), Some(PageClass::PrivateHot(1)));
        // Host 1's floor is page 3's 150, so the cutoff is 120.
        assert_eq!(g.demotions(0.2), [PageId(2)]);
        // Host 0 holds its whole heatmap, so its floor is its coldest
        // page and not even a zero threshold demotes one of its pages.
        assert_eq!(g.demotions(0.0), [PageId(2)]);
    }

    #[test]
    fn no_demotions_when_everything_stays_hot() {
        let mut g = GlobalHotness::new(1, 256);
        record_n(g.host_mut(0), 1, 50);
        record_n(g.host_mut(0), 2, 50);
        g.classify(2);
        assert!(g.demotions(0.2).is_empty());
    }

    #[test]
    fn hottest_union_merges_every_host_top_k() {
        let mut g = GlobalHotness::new(2, 256);
        record_n(g.host_mut(0), 5, 3);
        record_n(g.host_mut(0), 9, 1);
        record_n(g.host_mut(1), 5, 2);
        record_n(g.host_mut(1), 4, 1);
        assert_eq!(g.hottest_union(1), [PageId(5)]);
        assert_eq!(g.hottest_union(2), [PageId(4), PageId(5), PageId(9)]);
    }
}
