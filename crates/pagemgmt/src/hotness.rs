//! Access-frequency tracking and global hot/cold classification (§IV-B2).
//!
//! Each host tracks per-page access frequency. Merging the per-host
//! heatmaps yields a *global* temperature, from which the hottest pages
//! are claimed into each host's Private Hot Region (local DRAM) and the
//! rest form the Public Cold Region shared over CXL. A page already
//! claimed by one host is skipped by others, which claim their next
//! hottest candidate instead.

use simkit::hash::FastMap;

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
    pub fn count(&self, page: PageId) -> u64 {
        usize::try_from(page.0)
            .ok()
            .and_then(|i| self.counts.get(i))
            .map_or(0, |&c| u64::from(c))
    }

    /// The `k` most-accessed pages, hottest first (ties broken by page id
    /// for determinism).
    ///
    /// `(count, id)` is a total order, so partitioning the top `k` with a
    /// quickselect before sorting only that prefix returns exactly what
    /// a full sort followed by `take(k)` would — at O(n + k log k)
    /// instead of O(n log n), which matters because the page manager
    /// calls this on every epoch boundary.
    pub fn hottest(&self, k: usize) -> Vec<PageId> {
        if k == 0 {
            return Vec::new();
        }
        let mut v = self.ranked_entries();
        if k < v.len() {
            v.select_nth_unstable_by(k, hotter_first);
            v.truncate(k);
        }
        v.sort_unstable_by(hotter_first);
        v.into_iter().map(|(p, _)| p).collect()
    }

    /// All `(page, count)` entries, unordered — the input both ranking
    /// entry points ([`Self::hottest`], [`Self::hottest_floor`]) feed
    /// through [`hotter_first`], so the two stay ordering-consistent by
    /// construction.
    fn ranked_entries(&self) -> Vec<(PageId, u64)> {
        self.iter().collect()
    }

    /// Access count of the `k`-th hottest page (the coldest page
    /// [`Self::hottest`]`(k)` would return), or 0 when nothing is
    /// tracked. Exactly `hottest(k).last()`'s count — the demotion
    /// cutoff — but via a quickselect alone, skipping the top-`k` sort
    /// a full ranking pays.
    pub fn hottest_floor(&self, k: usize) -> u64 {
        if k == 0 || self.touched.is_empty() {
            return 0;
        }
        let mut v = self.ranked_entries();
        if k < v.len() {
            let (_, kth, _) = v.select_nth_unstable_by(k - 1, hotter_first);
            kth.1
        } else {
            // Fewer pages than k: the floor is the coldest tracked page.
            v.iter()
                .min_by(|a, b| hotter_first(b, a))
                .expect("non-empty")
                .1
        }
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
#[derive(Debug, Clone)]
pub struct GlobalHotness {
    hosts: Vec<HotnessTracker>,
}

impl GlobalHotness {
    /// Creates a detector for `n_hosts` hosts over pages `0..n_pages`.
    pub fn new(n_hosts: usize, n_pages: u64) -> Self {
        GlobalHotness {
            hosts: (0..n_hosts).map(|_| HotnessTracker::new(n_pages)).collect(),
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

    /// Claims up to `hot_capacity` pages per host into Private Hot
    /// Regions, hottest-first by each host's own heatmap; pages already
    /// claimed by an earlier host are skipped and the host claims its
    /// next candidate ("if a host identifies a page already designated as
    /// a private hot page by another host, it selects its next most
    /// frequently accessed page").
    pub fn classify(&self, hot_capacity: usize) -> FastMap<PageId, PageClass> {
        let mut out: FastMap<PageId, PageClass> = FastMap::default();
        for (h, tracker) in self.hosts.iter().enumerate() {
            if tracker.tracked() <= hot_capacity {
                // The host has room for its whole heatmap, so the claim
                // loop below would never stop early: it claims every
                // page no earlier host holds, whatever the ranking.
                for (page, _) in tracker.iter() {
                    out.entry(page).or_insert(PageClass::PrivateHot(h as u16));
                }
                continue;
            }
            let mut claimed = 0;
            // The claim loop consumes at most `hot_capacity` fresh pages
            // plus one skip per page an earlier host already claimed, so
            // ranking that many candidates is exactly equivalent to
            // ranking the host's whole heatmap.
            for page in tracker.hottest(hot_capacity + out.len()) {
                if claimed >= hot_capacity {
                    break;
                }
                if out.contains_key(&page) {
                    continue; // another host got here first
                }
                out.insert(page, PageClass::PrivateHot(h as u16));
                claimed += 1;
            }
        }
        // Everything observed but unclaimed is public cold.
        for tracker in &self.hosts {
            for (page, _) in tracker.iter() {
                out.entry(page).or_insert(PageClass::PublicCold);
            }
        }
        out
    }

    /// Cold-age reclassification (§IV-B2): returns the private-hot pages
    /// of `current` whose access frequency has dropped more than
    /// `cold_age_threshold` (e.g. 0.2) below the least-accessed page that
    /// *would* be claimed now. Those pages should be demoted to the
    /// Public Cold Region.
    pub fn demotions(
        &self,
        current: &FastMap<PageId, PageClass>,
        hot_capacity: usize,
        cold_age_threshold: f64,
    ) -> Vec<PageId> {
        let mut demote = Vec::new();
        for (h, tracker) in self.hosts.iter().enumerate() {
            let floor = tracker.hottest_floor(hot_capacity);
            let cutoff = (floor as f64 * (1.0 - cold_age_threshold)).floor() as u64;
            for (&page, &class) in current.iter() {
                if class == PageClass::PrivateHot(h as u16) && tracker.count(page) < cutoff {
                    demote.push(page);
                }
            }
        }
        demote.sort_unstable();
        demote
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
        let classes = g.classify(1);
        assert_eq!(classes[&PageId(10)], PageClass::PrivateHot(0));
        assert_eq!(classes[&PageId(20)], PageClass::PrivateHot(1));
    }

    #[test]
    fn unclaimed_pages_are_public_cold() {
        let mut g = GlobalHotness::new(1, 256);
        record_n(g.host_mut(0), 1, 9);
        record_n(g.host_mut(0), 2, 1);
        let classes = g.classify(1);
        assert_eq!(classes[&PageId(1)], PageClass::PrivateHot(0));
        assert_eq!(classes[&PageId(2)], PageClass::PublicCold);
    }

    #[test]
    fn demotions_fire_below_the_cold_age_cutoff() {
        let mut g = GlobalHotness::new(1, 256);
        record_n(g.host_mut(0), 1, 100);
        record_n(g.host_mut(0), 2, 100);
        let current = g.classify(2);
        // Page 2 cools off dramatically relative to the new floor.
        record_n(g.host_mut(0), 1, 100);
        record_n(g.host_mut(0), 3, 150);
        let demote = g.demotions(&current, 2, 0.2);
        assert_eq!(demote, vec![PageId(2)]);
    }

    #[test]
    fn no_demotions_when_everything_stays_hot() {
        let mut g = GlobalHotness::new(1, 256);
        record_n(g.host_mut(0), 1, 50);
        record_n(g.host_mut(0), 2, 50);
        let current = g.classify(2);
        assert!(g.demotions(&current, 2, 0.2).is_empty());
    }
}
