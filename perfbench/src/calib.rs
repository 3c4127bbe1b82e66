//! A fixed calibration kernel: how fast the host runs right now,
//! independent of the simulator's code.
//!
//! On a shared host the simulator's speed drifts by tens of percent over
//! minutes with what other tenants run on the same cores. The kernel does
//! the kinds of work the simulator spends its time on (an event heap,
//! hashed lookups, integer mixing) on fixed inputs, without allocating
//! and without calling into the repository's crates, so its time follows
//! the host's speed and never a change to the program. `run.py` divides
//! the grid's time by it.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap};
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Pending events in the kernel's queue.
const EVENTS: usize = 2048;
/// Distinct keys in the kernel's hashed table.
const KEYS: u64 = 4096;

/// splitmix64 step, for the kernel's fixed inputs.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The kernel's state, allocated once so that timed rounds allocate
/// nothing. `DefaultHasher` has fixed keys, so the table's layout is the
/// same in every process.
struct Kernel {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    bags: HashMap<u64, Vec<u32>, BuildHasherDefault<DefaultHasher>>,
}

impl Kernel {
    fn new() -> Self {
        let mut bags = HashMap::default();
        for k in 0..KEYS {
            bags.insert(k, Vec::with_capacity(9));
        }
        Kernel {
            heap: BinaryHeap::with_capacity(EVENTS),
            bags,
        }
    }

    /// One round (a few milliseconds); returns a checksum so no work is
    /// elided.
    fn round(&mut self, seed: u64) -> u64 {
        let mut state = seed;
        let mut sum = 0u64;

        // An event queue: pop the earliest, schedule a later one.
        self.heap.clear();
        for i in 0..EVENTS as u32 {
            self.heap.push(Reverse((mix(&mut state) % 10_000, i)));
        }
        for _ in 0..30_000 {
            let Reverse((t, id)) = self.heap.pop().expect("non-empty queue");
            sum = sum.wrapping_add(t ^ u64::from(id));
            self.heap.push(Reverse((t + mix(&mut state) % 5_000, id)));
        }

        // Hashed lookups into short bags.
        for _ in 0..20_000 {
            let k = mix(&mut state) % KEYS;
            let bag = self.bags.get_mut(&k).expect("every key is present");
            bag.push(k as u32);
            if bag.len() > 8 {
                sum = sum.wrapping_add(bag.iter().map(|&v| u64::from(v)).sum::<u64>());
                bag.clear();
            }
        }

        // Branchy integer mixing.
        for _ in 0..400_000 {
            let r = mix(&mut state);
            if r & 1 == 0 {
                sum = sum.wrapping_add(r >> 3);
            } else {
                sum ^= r.rotate_left(7);
            }
        }
        sum
    }
}

/// Runs `rounds` rounds of the kernel, after one warm-up round, and
/// returns each round's host seconds.
pub fn sample(rounds: usize) -> Vec<f64> {
    let mut kernel = Kernel::new();
    let mut check = kernel.round(0);
    let times = (1..=rounds as u64)
        .map(|r| {
            let t0 = Instant::now();
            check = check.wrapping_add(kernel.round(r));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    std::hint::black_box(check);
    times
}

/// Fills a fresh buffer of `bytes` with pseudo-random words, the way
/// set-up fills the row store: first touches of fresh pages, then
/// stores. Returns its host seconds, a reference for set-up time taken
/// in the same process a moment later.
pub fn fill(bytes: usize) -> f64 {
    let t0 = Instant::now();
    let mut buf = vec![0u64; bytes / 8];
    let mut state = 0x5eed;
    for w in buf.iter_mut() {
        *w = mix(&mut state);
    }
    std::hint::black_box(&buf);
    t0.elapsed().as_secs_f64()
}
