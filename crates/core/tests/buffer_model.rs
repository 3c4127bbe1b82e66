//! Model check for the one-map [`OnSwitchBuffer`]: random key streams
//! drive it and a full-scan reference side by side, for HTR, LRU and
//! FIFO over random capacities, and after every access the two must
//! agree on hit or miss, the hit and miss counts, and the resident
//! count. The reference keeps the obvious representation — a profiler
//! map and a resident map scanned for the victim — so the buffer's
//! lazy heap, FIFO queue and residency sentinel are all checked
//! against it.

use std::collections::HashMap;

use pifs_core::{BufferPolicy, OnSwitchBuffer};
use proptest::prelude::*;

const ROW_BYTES: u64 = 256;

/// Full-scan reference: every miss at capacity scans all residents.
struct Reference {
    policy: BufferPolicy,
    capacity: usize,
    clock: u64,
    /// Profiled frequency of every observed row.
    freq: HashMap<u64, u64>,
    /// Resident row → recency stamp (LRU) or admission stamp (HTR, FIFO).
    resident: HashMap<u64, u64>,
}

impl Reference {
    fn access(&mut self, key: u64) -> bool {
        self.clock += 1;
        *self.freq.entry(key).or_insert(0) += 1;
        if let Some(stamp) = self.resident.get_mut(&key) {
            if self.policy == BufferPolicy::Lru {
                *stamp = self.clock;
            }
            return true;
        }
        if self.resident.len() < self.capacity {
            self.resident.insert(key, self.clock);
            return false;
        }
        // HTR ranks by (frequency, key); LRU and FIFO by (stamp, key).
        let rank = |k: u64, stamp: u64| match self.policy {
            BufferPolicy::Htr => (self.freq[&k], k),
            BufferPolicy::Lru | BufferPolicy::Fifo => (stamp, k),
        };
        let (victim_rank, victim) = self
            .resident
            .iter()
            .map(|(&k, &s)| (rank(k, s), k))
            .min()
            .expect("capacity is at least one row");
        if self.policy != BufferPolicy::Htr || self.freq[&key] > victim_rank.0 {
            self.resident.remove(&victim);
            self.resident.insert(key, self.clock);
        }
        false
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn one_map_buffer_matches_the_full_scan_reference(
        keys in collection::vec(any::<u64>(), 1..400),
        capacity in 1usize..9,
        key_space in 2u64..40,
        policy_pick in 0u8..3,
    ) {
        let policy = [BufferPolicy::Htr, BufferPolicy::Lru, BufferPolicy::Fifo]
            [policy_pick as usize];
        let mut buf = OnSwitchBuffer::new(policy, capacity as u64 * ROW_BYTES, ROW_BYTES);
        let mut reference = Reference {
            policy,
            capacity,
            clock: 0,
            freq: HashMap::new(),
            resident: HashMap::new(),
        };
        let (mut hits, mut misses) = (0u64, 0u64);
        for (i, word) in keys.into_iter().enumerate() {
            // Skewed keys: low ids recur often, so frequencies diverge.
            let key = (word % key_space) / (1 + (word >> 32) % 4);
            let hit = buf.access(key);
            prop_assert_eq!(hit, reference.access(key), "{:?} access {} key {}", policy, i, key);
            if hit { hits += 1 } else { misses += 1 }
            prop_assert_eq!(buf.hits(), hits);
            prop_assert_eq!(buf.misses(), misses);
            prop_assert_eq!(buf.len(), reference.resident.len());
        }
    }
}
