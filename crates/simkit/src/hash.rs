//! A fast, deterministic hasher for simulation-internal maps.
//!
//! The std `HashMap` defaults to SipHash-1-3, whose per-lookup cost
//! would dominate the simulator's one hashed hot path: the on-switch
//! buffer's row slots. (Everything the page manager keeps per page —
//! hotness, placement, classification and the epoch's access counts —
//! is a dense array indexed by page id instead: its keys are
//! `0..n_pages`. The buffer stays a map because a dense per-row index
//! over every buffered switch costs far more memory than the few rows a
//! buffer holds.) The map keys on integers the workload controls, needs
//! no DoS hardening, and — crucially — never lets iteration order leak
//! into results (every consumer sorts or folds order-independently), so
//! swapping the hasher is an exact-equivalence optimization.
//!
//! The function is the Fx/FireFox multiply-xor fold: one multiply and a
//! rotate per word. It is seed-free and therefore identical across runs,
//! threads and platforms of the same word size.
//!
//! `finish` rotates the folded state left by 26 bits, the finisher
//! rustc-hash 2 adopted. A multiply only moves entropy upwards, so a
//! bare product keeps every trailing zero of its key; hashbrown picks a
//! bucket from a hash's *low* bits. The simulator's hottest keys are
//! byte addresses of embedding rows, multiples of the 256 B or 512 B
//! row size, whose products all end in eight zero bits: without the
//! rotation, RMC1's 8 192 row addresses start on 64 of a
//! 16 384-bucket table's buckets and every probe walks a long chain.
//! The rotation brings the product's well-mixed high bits down to where
//! the bucket index is read.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher (the rustc/Firefox "Fx" function).
///
/// [`Hasher::finish`] returns the state rotated left by 26 bits, so
/// keys that differ only in their high bits — strided addresses — still
/// land on distinct buckets (see the [module docs](self)).
///
/// # Examples
///
/// ```
/// use simkit::hash::FastMap;
///
/// let mut m: FastMap<u64, &str> = FastMap::default();
/// m.insert(7, "seven");
/// assert_eq!(m[&7], "seven");
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn fold(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.fold(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.state.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_keys_hash_identically() {
        let mut a = FxHasher::default();
        let mut b = FxHasher::default();
        a.write_u64(0xDEAD_BEEF);
        b.write_u64(0xDEAD_BEEF);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn different_keys_disperse() {
        let mut seen = std::collections::HashSet::new();
        for k in 0u64..10_000 {
            let mut h = FxHasher::default();
            h.write_u64(k);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 10_000, "no collisions on small dense keys");
    }

    /// Row addresses, the buffer's keys, are multiples of the row size.
    /// They must spread over a 16 384-bucket table as dense keys do, not
    /// pile onto the few buckets their zero low bits would leave.
    #[test]
    fn strided_keys_start_on_distinct_buckets() {
        const MASK: u64 = 16_384 - 1;
        for row_bytes in [256u64, 512] {
            let table_bytes = 1024 * row_bytes;
            let mut buckets = std::collections::HashSet::new();
            for table in 0..8u64 {
                for row in 0..1024u64 {
                    let mut h = FxHasher::default();
                    h.write_u64(table * table_bytes + row * row_bytes);
                    buckets.insert(h.finish() & MASK);
                }
            }
            assert!(
                buckets.len() >= 4096,
                "{row_bytes} B rows start on {} of 16 384 buckets",
                buckets.len()
            );
        }
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FastMap<u64, u64> = FastMap::default();
        for k in 0..1000u64 {
            m.insert(k, k * 2);
        }
        for k in 0..1000u64 {
            assert_eq!(m[&k], k * 2);
        }
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        let mut a = FxHasher::default();
        a.write(&[1, 2, 3]);
        let mut b = FxHasher::default();
        b.write(&[1, 2, 3, 0]);
        // Same padded word, same fold — acceptable for the integer keys
        // this hasher serves; documented, not relied upon.
        let _ = (a.finish(), b.finish());
    }
}
