//! A fast, deterministic hasher for simulation-internal maps.
//!
//! The std `HashMap` defaults to SipHash-1-3, whose per-lookup cost
//! would dominate several simulator hot paths: the on-switch buffer's
//! row slots, the per-epoch device/page counts and the page manager's
//! private/public classification. (Page hotness and the page table are
//! dense arrays indexed by page id instead: their keys are `0..n_pages`.)
//! Those maps key on small integers the workload controls, need no DoS
//! hardening, and — crucially — never let iteration order leak into
//! results (every consumer sorts or folds order-independently), so
//! swapping the hasher is an exact-equivalence optimization.
//!
//! The function is the Fx/FireFox multiply-xor fold: one multiply and a
//! rotate per word. It is seed-free and therefore identical across runs,
//! threads and platforms of the same word size.

use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed with [`FxHasher`].
pub type FastMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-xor hasher (the rustc/Firefox "Fx" function).
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
        self.state
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
