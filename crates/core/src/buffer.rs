//! The on-switch buffer with Hottest-Recording replacement (§IV-A4).
//!
//! Fetching one address from the CXL pool can take ~270 ns, ~37 % of it
//! CXL I/O port transfers and retimer delays. The on-switch SRAM keeps
//! the hottest embedding rows inside the switch, skipping the device
//! round trip entirely. Unlike LRU/FIFO, the HTR policy ranks rows by an
//! address profiler's access frequency and only caches the
//! highest-priority candidates — the paper shows this tracks embedding
//! reuse better than recency (Fig 15).

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, VecDeque};

use simkit::hash::FastMap;

use simkit::SimDuration;

/// Replacement policy of the on-switch buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferPolicy {
    /// Hottest Recording: frequency-ranked admission and eviction.
    Htr,
    /// Least-recently-used.
    Lru,
    /// First-in first-out.
    Fifo,
}

/// One observed row's state: its profiled access frequency and, while
/// resident, its recency stamp (LRU) or admission stamp (HTR, FIFO).
#[derive(Debug, Clone, Copy)]
struct Slot {
    freq: u64,
    stamp: u64,
}

/// `Slot::stamp` of a row that is profiled but not cached. The clock
/// starts at 1 and counts accesses, so no live stamp reaches it.
const NOT_RESIDENT: u64 = u64::MAX;

impl Slot {
    fn resident(&self) -> bool {
        self.stamp != NOT_RESIDENT
    }
}

/// Eviction rank of resident `key` under `policy`, or `None` when the
/// key is not resident (or the policy keeps no ranks). HTR ranks by
/// profiled frequency, LRU by recency stamp; both only ever grow, which
/// is what makes the lazy heap exact.
fn rank_of(policy: BufferPolicy, slots: &FastMap<u64, Slot>, key: u64) -> Option<u64> {
    let slot = slots.get(&key).filter(|s| s.resident())?;
    match policy {
        BufferPolicy::Htr => Some(slot.freq),
        BufferPolicy::Lru => Some(slot.stamp),
        BufferPolicy::Fifo => None,
    }
}

/// The on-switch SRAM row cache.
///
/// # Examples
///
/// ```
/// use pifs_core::{BufferPolicy, OnSwitchBuffer};
///
/// // 512 KB of SRAM holding 256 B rows.
/// let mut buf = OnSwitchBuffer::new(BufferPolicy::Htr, 512 * 1024, 256);
/// assert!(!buf.access(42));  // cold miss (admitted)
/// assert!(buf.access(42));   // hit
/// assert!(buf.hit_ratio() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct OnSwitchBuffer {
    policy: BufferPolicy,
    capacity_rows: usize,
    capacity_bytes: u64,
    /// Every observed row: the HTR address profiler's frequency plus
    /// the residency stamp, so an access costs one probe. Nothing
    /// iterates it, so its order never reaches a result.
    slots: FastMap<u64, Slot>,
    /// Rows currently cached.
    resident: usize,
    /// Admission order of the resident rows (FIFO only).
    fifo: VecDeque<u64>,
    /// Lazy min-heap of `(rank, key)` eviction candidates, where rank is
    /// the profiled frequency (HTR) or the recency stamp (LRU). Ranks
    /// only ever grow, so a top entry whose rank no longer matches the
    /// key's current rank is a stale lower bound: it is replaced by the
    /// fresh rank and the top re-read. This finds the same coldest
    /// resident as a full scan in amortized O(log n) instead of O(n).
    coldest: BinaryHeap<Reverse<(u64, u64)>>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl OnSwitchBuffer {
    /// Creates a buffer of `capacity_bytes` SRAM caching rows of
    /// `row_bytes` each.
    ///
    /// # Panics
    ///
    /// Panics if the capacity holds fewer than one row.
    pub fn new(policy: BufferPolicy, capacity_bytes: u64, row_bytes: u64) -> Self {
        let capacity_rows = (capacity_bytes / row_bytes.max(1)) as usize;
        assert!(
            capacity_rows >= 1,
            "buffer of {capacity_bytes} B cannot hold a {row_bytes} B row"
        );
        OnSwitchBuffer {
            policy,
            capacity_rows,
            capacity_bytes,
            slots: FastMap::default(),
            resident: 0,
            fifo: VecDeque::new(),
            coldest: BinaryHeap::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up row `key` (a row-granular address), updating profiler and
    /// replacement state; returns `true` on a hit. Misses consider the
    /// row for admission per the policy.
    pub fn access(&mut self, key: u64) -> bool {
        self.clock += 1;
        let slot = self.slots.entry(key).or_insert(Slot {
            freq: 0,
            stamp: NOT_RESIDENT,
        });
        slot.freq += 1;
        if slot.resident() {
            self.hits += 1;
            if self.policy == BufferPolicy::Lru {
                slot.stamp = self.clock;
            }
            return true;
        }
        let freq = slot.freq;
        self.misses += 1;
        self.admit(key, freq);
        false
    }

    /// Refreshes the heap until its top is the coldest resident
    /// `(rank, key)` — the same minimum a full scan of the resident rows
    /// would find — and returns it, still on the heap. Entries for
    /// evicted keys are dropped; a stale entry is replaced in place by
    /// its key's current rank.
    fn coldest_resident(&mut self) -> Option<(u64, u64)> {
        while let Some(mut top) = self.coldest.peek_mut() {
            let Reverse((rank, key)) = *top;
            match rank_of(self.policy, &self.slots, key) {
                Some(cur) if cur == rank => return Some((rank, key)),
                Some(cur) => {
                    debug_assert!(cur > rank, "ranks must be monotonic");
                    *top = Reverse((cur, key));
                }
                None => {
                    PeekMut::pop(top); // evicted since it was pushed
                }
            }
        }
        None
    }

    /// Replaces the heap's top — the victim [`Self::coldest_resident`]
    /// just returned — with `entry`.
    fn replace_coldest(&mut self, entry: (u64, u64)) {
        *self.coldest.peek_mut().expect("the victim tops the heap") = Reverse(entry);
    }

    /// Marks `key` resident (stamped now) or evicted.
    fn set_resident(&mut self, key: u64, resident: bool) {
        let slot = self.slots.get_mut(&key).expect("observed row");
        slot.stamp = if resident { self.clock } else { NOT_RESIDENT };
    }

    /// Admission of missed row `key` with profiled frequency `freq`.
    fn admit(&mut self, key: u64, freq: u64) {
        if self.resident < self.capacity_rows {
            self.set_resident(key, true);
            self.resident += 1;
            match self.policy {
                BufferPolicy::Htr => self.coldest.push(Reverse((freq, key))),
                BufferPolicy::Lru => self.coldest.push(Reverse((self.clock, key))),
                BufferPolicy::Fifo => self.fifo.push_back(key),
            }
            return;
        }
        match self.policy {
            BufferPolicy::Htr => {
                // Admit only if this row is now hotter than the coldest
                // resident row (by profiled frequency).
                // Otherwise the coldest resident survives with its entry.
                if let Some((victim_freq, victim)) = self.coldest_resident() {
                    if freq > victim_freq {
                        self.replace_coldest((freq, key));
                        self.set_resident(victim, false);
                        self.set_resident(key, true);
                    }
                }
            }
            BufferPolicy::Lru => {
                // Every resident row holds exactly one heap entry, so a
                // full buffer always has a victim.
                let (_, victim) = self
                    .coldest_resident()
                    .expect("a full LRU buffer has a resident row");
                self.replace_coldest((self.clock, key));
                self.set_resident(victim, false);
                self.set_resident(key, true);
            }
            BufferPolicy::Fifo => {
                while let Some(v) = self.fifo.pop_front() {
                    if self.slots[&v].resident() {
                        self.set_resident(v, false);
                        self.resident -= 1;
                        break;
                    }
                }
                self.set_resident(key, true);
                self.resident += 1;
                self.fifo.push_back(key);
            }
        }
    }

    /// SRAM access latency for this buffer's capacity. Table II quotes
    /// 0.91–4.19 ns across sizes; the model interpolates logarithmically
    /// from 32 KB (≈1 ns) to 1 MB (≈4 ns) — larger arrays have longer
    /// word lines, which is why the 1 MB point in Fig 15 loses speedup.
    pub fn access_latency(&self) -> SimDuration {
        let kb = (self.capacity_bytes / 1024).max(32) as f64;
        let lg = (kb / 32.0).log2(); // 0 at 32 KB … 5 at 1 MB
        let ns = 0.91 + lg * (4.19 - 0.91) / 5.0;
        SimDuration::from_ns(ns.round().max(1.0) as u64)
    }

    /// Hit ratio so far (0.0 when never accessed).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Resident rows.
    pub fn len(&self) -> usize {
        self.resident
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.resident == 0
    }

    /// The configured policy.
    pub fn policy(&self) -> BufferPolicy {
        self.policy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::DetRng;

    #[test]
    fn capacity_is_respected() {
        for policy in [BufferPolicy::Htr, BufferPolicy::Lru, BufferPolicy::Fifo] {
            let mut buf = OnSwitchBuffer::new(policy, 1024, 256);
            for k in 0..100 {
                buf.access(k * 7 % 13);
                assert!(buf.len() <= 4, "{policy:?}");
            }
            assert_eq!(buf.len(), 4, "{policy:?}");
            // Only FIFO keeps an admission queue.
            assert_eq!(
                buf.fifo.is_empty(),
                policy != BufferPolicy::Fifo,
                "{policy:?}"
            );
        }
    }

    #[test]
    fn lru_keeps_recently_used_rows() {
        let mut buf = OnSwitchBuffer::new(BufferPolicy::Lru, 2 * 256, 256);
        buf.access(1);
        buf.access(2);
        buf.access(1); // 1 is now most recent
        buf.access(3); // evicts 2
        assert!(buf.access(1));
        assert!(!buf.access(2));
    }

    #[test]
    fn fifo_evicts_oldest_insertion() {
        let mut buf = OnSwitchBuffer::new(BufferPolicy::Fifo, 2 * 256, 256);
        buf.access(1);
        buf.access(2);
        buf.access(1); // hit: does not refresh FIFO position
        buf.access(3); // evicts 1 (oldest inserted)
        assert!(!buf.access(1)); // miss — and this admission evicts 2
        assert!(buf.access(3)); // 3 survived both evictions
    }

    #[test]
    fn htr_protects_hot_rows_from_scan_pollution() {
        let mut buf = OnSwitchBuffer::new(BufferPolicy::Htr, 2 * 256, 256);
        // Make rows 1 and 2 hot.
        for _ in 0..10 {
            buf.access(1);
            buf.access(2);
        }
        // A long cold scan must not displace them.
        for k in 100..200 {
            buf.access(k);
        }
        assert!(buf.access(1));
        assert!(buf.access(2));
    }

    #[test]
    fn htr_eventually_admits_a_newly_hot_row() {
        let mut buf = OnSwitchBuffer::new(BufferPolicy::Htr, 2 * 256, 256);
        buf.access(1);
        buf.access(2);
        // Row 3 becomes hotter than both residents.
        for _ in 0..5 {
            buf.access(3);
        }
        assert!(buf.access(3), "profiled-hot row must be cached");
    }

    #[test]
    fn htr_beats_lru_and_fifo_on_skewed_traffic() {
        let run = |policy| {
            let mut buf = OnSwitchBuffer::new(policy, 8 * 256, 256);
            let mut rng = DetRng::new(17);
            for _ in 0..20_000 {
                // 30%: 8 hot rows; 70%: a wide cold space — embedding-like.
                let key = if rng.unit_f64() < 0.3 {
                    rng.below(8)
                } else {
                    100 + rng.below(5_000)
                };
                buf.access(key);
            }
            buf.hit_ratio()
        };
        let htr = run(BufferPolicy::Htr);
        let lru = run(BufferPolicy::Lru);
        let fifo = run(BufferPolicy::Fifo);
        assert!(htr > lru, "htr={htr:.3} lru={lru:.3}");
        assert!(htr > fifo, "htr={htr:.3} fifo={fifo:.3}");
    }

    #[test]
    fn latency_grows_with_capacity() {
        let small = OnSwitchBuffer::new(BufferPolicy::Htr, 64 * 1024, 256);
        let large = OnSwitchBuffer::new(BufferPolicy::Htr, 1024 * 1024, 256);
        assert!(large.access_latency() > small.access_latency());
        assert!(small.access_latency().as_ns() >= 1);
        assert!(large.access_latency().as_ns() <= 5);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn undersized_buffer_rejected() {
        let _ = OnSwitchBuffer::new(BufferPolicy::Htr, 100, 256);
    }

    #[test]
    fn hit_ratio_counts_correctly() {
        let mut buf = OnSwitchBuffer::new(BufferPolicy::Lru, 4 * 256, 256);
        buf.access(1);
        buf.access(1);
        buf.access(1);
        buf.access(2);
        assert_eq!(buf.hits(), 2);
        assert_eq!(buf.misses(), 2);
        assert!((buf.hit_ratio() - 0.5).abs() < 1e-9);
    }
}
