//! Embedding-table layout and procedural row values.
//!
//! Production tables reach terabytes (§III), which a simulation cannot
//! materialize. Row *values* are therefore procedural: `value(row, elem)`
//! is a deterministic hash of (table, row, element), so any two compute
//! sites (host, fabric switch, DIMM) can produce — and tests can verify —
//! bit-identical SLS results without storing a single row.
//!
//! The SLS folds recompute that hash as they go: a fused AVX2 hash+fold
//! when the CPU has AVX2, and otherwise [`EmbeddingTable::value_block`]
//! blocks folded by the wide fold. Every table, whatever its size, takes
//! this one path, so an [`EmbeddingTable`] is a plain value that owns no
//! heap memory. The same hash, stopped at its integer mantissas, gives a
//! row's exact element sum in closed form
//! ([`EmbeddingTable::row_sum_exact`]).
//!
//! On the AVX2 tier the hash has no multiply per element. Within a
//! 256-element chunk an element index only flips the low 8 bits of the
//! row's premixed base, so each element's 64-bit product is one scalar
//! product per chunk plus an entry of a 16 KiB table of multiples built
//! at compile time, added in 8×u32 lanes with the carry taken by a
//! compare (`RowHashAvx2`). The fused fold, the mantissa sum and the
//! value block all run that one kernel, at every dim and offset, and
//! match the scalar hash bit for bit.

/// Procedural value of element `elem` of row `row` of table `id`: a
/// deterministic hash mapped into `[-1, 1)` with 2^-23 granularity so
/// f32 holds it exactly (keeps cross-site accumulation bit-exact).
#[inline]
fn raw_value(id: u32, row: u64, elem: u32) -> f32 {
    let mut h = (id as u64) << 48 ^ row.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ elem as u64;
    h ^= h >> 33;
    h = h.wrapping_mul(MIX);
    h ^= h >> 33;
    let mantissa = (h >> 41) as u32; // 23 bits
    (mantissa as f32) * (2.0 / (1u32 << 23) as f32) - 1.0
}

/// The hash's finalizer multiplier.
const MIX: u64 = 0xFF51_AFD7_ED55_8CCD;

/// The per-row constant of the batched hash: the row's base, pre-mixed
/// (identity 1 of [`raw_value_block`]).
#[inline(always)]
fn premixed(id: u32, row: u64) -> u64 {
    let base = (id as u64) << 48 ^ row.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    base ^ (base >> 33)
}

/// Portable batched form of [`raw_value`]: fills `out[i]` with
/// `raw_value(id, row, elem0 + i)` in one pass, bit-identically.
///
/// The per-element chain shrinks to xor → multiply → shift through two
/// exact integer identities (`e = elem` is a `u32`, so `e >> 33 == 0`):
///
/// 1. pre-mix hoist: `(base ^ e) ^ ((base ^ e) >> 33)
///    = (base ^ (base >> 33)) ^ e`, a per-row constant xor;
/// 2. post-mix no-op: with `p` the multiplied hash, the mantissa is
///    `(p ^ (p >> 33)) >> 41 = (p >> 41) ^ (p >> 74) = p >> 41`,
///    because `p >> 74 == 0` on a 64-bit `p`.
///
/// Every surviving operation is the scalar one, so the fill matches
/// elementwise [`raw_value`] calls bit-for-bit (asserted by this
/// module's tests).
#[inline(always)]
fn raw_value_block(id: u32, row: u64, elem0: u32, out: &mut [f32]) {
    let pre = premixed(id, row);
    for (i, slot) in out.iter_mut().enumerate() {
        let p = (pre ^ (elem0 as u64 + i as u64)).wrapping_mul(MIX);
        let mantissa = (p >> 41) as u32; // 23 bits
        *slot = (mantissa as f32) * (2.0 / (1u32 << 23) as f32) - 1.0;
    }
}

/// Portable integer form of a row's exact sum: `Σ mantissa(id, row, e)`
/// over the elements `elems`, through [`raw_value_block`]'s identities
/// with no float work.
#[inline]
fn raw_mantissa_sum(id: u32, row: u64, elems: core::ops::Range<u32>) -> u64 {
    let pre = premixed(id, row);
    elems
        .map(|e| (pre ^ u64::from(e)).wrapping_mul(MIX) >> 41)
        .sum()
}

/// A row's exact f64 sum from its mantissa sum. Each value is
/// `m·2⁻²² − 1` exactly, so the row sums to `(Σm − dim·2²²)·2⁻²²`: an
/// integer count of 2⁻²² units below `dim·2²²` in magnitude, which one
/// conversion and one power-of-two scaling carry into f64 exactly while
/// `dim < 2³¹` ([`crate::sls::exact_sum_fits`]). A zero sum is `+0.0`,
/// as the elementwise f64 fold gives.
#[inline]
fn row_sum_from_mantissas(mantissas: u64, dim: u32) -> f64 {
    let units = mantissas as i64 - (i64::from(dim) << 22);
    units as f64 * (1.0 / (1u64 << 22) as f64)
}

/// Elements one row-hash chunk covers (`2^CHUNK_BITS`): within a chunk
/// the element index only touches the premixed base's low
/// `CHUNK_BITS` bits, so the hash becomes one table add per element
/// (see [`RowHashAvx2`]).
#[cfg(target_arch = "x86_64")]
const CHUNK_BITS: u32 = 8;

#[cfg(target_arch = "x86_64")]
const CHUNK: usize = 1 << CHUNK_BITS;

/// The multiples `K[j] = j·MIX mod 2⁶⁴`, `j < CHUNK`, as u32 halves,
/// stored once per xor mask `m` of the low three bits: `lo[m][j]` and
/// `hi[m][j]` are the halves of `K[j ^ m]`. An 8-lane block of a row
/// whose premixed base ends in `m` is then 8 contiguous entries of each
/// half (two 32-byte loads, no lane shuffle). 16 KiB in all.
#[cfg(target_arch = "x86_64")]
#[repr(C, align(32))]
struct MixTable {
    lo: [[u32; CHUNK]; 8],
    hi: [[u32; CHUNK]; 8],
}

#[cfg(target_arch = "x86_64")]
impl MixTable {
    const fn new() -> Self {
        let mut t = MixTable {
            lo: [[0; CHUNK]; 8],
            hi: [[0; CHUNK]; 8],
        };
        let mut m = 0;
        while m < 8 {
            let mut j = 0;
            while j < CHUNK {
                let k = ((j ^ m) as u64).wrapping_mul(MIX);
                t.lo[m][j] = k as u32;
                t.hi[m][j] = (k >> 32) as u32;
                j += 1;
            }
            m += 1;
        }
        t
    }
}

/// Built at compile time: no runtime state, no heap.
#[cfg(target_arch = "x86_64")]
static MIX_TABLE: MixTable = MixTable::new();

/// One row's multiply-free AVX2 hash.
///
/// A mantissa is `((pre ^ e)·MIX mod 2⁶⁴) >> 41` (see
/// [`raw_value_block`]). Split `pre ^ c·CHUNK` into `H_c`, its low
/// `CHUNK_BITS` bits cleared, and `L = pre mod CHUNK`. Element
/// `e = c·CHUNK + e'` with `e' < CHUNK` then has
/// `pre ^ e = H_c + (L ^ e')`, so its product is
/// `A_c + K[L ^ e']` with `A_c = H_c·MIX` (one scalar multiply per
/// chunk) and `K` the compile-time [`MixTable`]. For an 8-aligned `e'`
/// the eight lanes `L ^ (e' + i)` are `(L − m) ^ e'` plus `m ^ i`, with
/// `m = L mod 8`: the mask-`m` copy of the table, read contiguously.
#[cfg(target_arch = "x86_64")]
struct RowHashAvx2 {
    pre: u64,
    /// The halves of `K`, in the row's xor-mask copy.
    lo: &'static [u32; CHUNK],
    hi: &'static [u32; CHUNK],
    /// `L` with its low three bits cleared.
    base: usize,
}

/// A chunk's constant `A_c`, as broadcast u32 halves (the high one plus
/// one, see [`RowHashAvx2::mantissas8`]).
#[cfg(target_arch = "x86_64")]
struct ChunkMix {
    a_lo: core::arch::x86_64::__m256i,
    a_hi1: core::arch::x86_64::__m256i,
}

#[cfg(target_arch = "x86_64")]
impl RowHashAvx2 {
    #[inline]
    fn new(id: u32, row: u64) -> Self {
        let pre = premixed(id, row);
        let low = pre as usize % CHUNK;
        let m = low % 8;
        RowHashAvx2 {
            pre,
            lo: &MIX_TABLE.lo[m],
            hi: &MIX_TABLE.hi[m],
            base: low - m,
        }
    }

    /// `A_c` of chunk `c` (elements `c·CHUNK ..`).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn chunk(&self, c: u64) -> ChunkMix {
        use core::arch::x86_64::*;
        let h = (self.pre ^ (c << CHUNK_BITS)) & !(CHUNK as u64 - 1);
        let a = h.wrapping_mul(MIX);
        ChunkMix {
            a_lo: _mm256_set1_epi32(a as u32 as i32),
            a_hi1: _mm256_set1_epi32(((a >> 32) as u32).wrapping_add(1) as i32),
        }
    }

    /// The eight mantissas of the chunk's elements `g .. g + 8` (`g` an
    /// 8-aligned chunk offset) as 8×u32 lanes: bits 41–63 of
    /// `A_c + K[..]`. The low halves add; the carry out of them is
    /// `sum < a_lo`, read as `max(sum, a_lo) == sum` (all ones when
    /// there is *no* carry); the high halves then add as
    /// `(a_hi + 1) + k_hi + no_carry`, and bit 41 is bit 9 of the high
    /// half. Integer ops only, so each lane is exactly
    /// [`raw_value_block`]'s mantissa.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mantissas8(&self, a: &ChunkMix, g: usize) -> core::arch::x86_64::__m256i {
        use core::arch::x86_64::*;
        // A multiple of 8 at most CHUNK − 8 (both operands already are;
        // the mask lets the bounds checks fold).
        let j = (self.base ^ g) & (CHUNK - 8);
        let (k_lo, k_hi) = (&self.lo[j..j + 8], &self.hi[j..j + 8]);
        // SAFETY: each slice is 8 u32s, 32 bytes; the loads are unaligned.
        let (k_lo, k_hi) = unsafe {
            (
                _mm256_loadu_si256(k_lo.as_ptr().cast()),
                _mm256_loadu_si256(k_hi.as_ptr().cast()),
            )
        };
        let lo = _mm256_add_epi32(a.a_lo, k_lo);
        let no_carry = _mm256_cmpeq_epi32(_mm256_max_epu32(lo, a.a_lo), lo);
        let hi = _mm256_add_epi32(_mm256_add_epi32(a.a_hi1, k_hi), no_carry);
        _mm256_srli_epi32(hi, 9)
    }

    /// The eight values of [`Self::mantissas8`]'s elements: the float
    /// with bits `0x4000_0000 | m` is `2 + m·2⁻²²`, exactly, and
    /// subtracting 3 leaves `m·2⁻²² − 1` exactly — the scalar
    /// `m·(2/2²³) − 1`, bit for bit (a zero is `+0.0` in both).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn values8(&self, a: &ChunkMix, g: usize) -> core::arch::x86_64::__m256 {
        use core::arch::x86_64::*;
        let m = self.mantissas8(a, g);
        let two_plus = _mm256_castsi256_ps(_mm256_or_si256(m, _mm256_set1_epi32(0x4000_0000)));
        _mm256_sub_ps(two_plus, _mm256_set1_ps(3.0))
    }
}

/// [`raw_value_block`] on the AVX2 tier: [`RowHashAvx2::values8`] per
/// 8-aligned element group, any `elem0` and length. A group the range
/// cuts is computed whole and only its lanes in range are kept.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn raw_value_block_avx2(id: u32, row: u64, elem0: u32, out: &mut [f32]) {
    use core::arch::x86_64::*;
    let hash = RowHashAvx2::new(id, row);
    let start = u64::from(elem0);
    let end = start + out.len() as u64;
    let mut e = start & !7;
    let mut a = hash.chunk(e >> CHUNK_BITS);
    while e < end {
        let g = e as usize % CHUNK;
        if g == 0 {
            a = hash.chunk(e >> CHUNK_BITS);
        }
        let v = hash.values8(&a, g);
        let (lo, hi) = (e.max(start), (e + 8).min(end));
        let dst = &mut out[(lo - start) as usize..(hi - start) as usize];
        if dst.len() == 8 {
            // SAFETY: `dst` is 8 f32s, 32 bytes; the store is unaligned.
            unsafe { _mm256_storeu_ps(dst.as_mut_ptr(), v) };
        } else {
            let mut buf = [0.0f32; 8];
            // SAFETY: `buf` is 8 f32s, 32 bytes; the store is unaligned.
            unsafe { _mm256_storeu_ps(buf.as_mut_ptr(), v) };
            dst.copy_from_slice(&buf[(lo - e) as usize..(hi - e) as usize]);
        }
        e += 8;
    }
}

/// [`raw_mantissa_sum`] over a whole row of `dim` elements on the AVX2
/// tier: [`RowHashAvx2::mantissas8`] summed in u32 lanes per chunk
/// (each lane takes at most `CHUNK / 8` mantissas below 2²³, so the
/// chunk's eight lanes total under 2³¹) and widened to u64 per chunk.
/// A chunk's last group, if cut by `dim`, keeps its lanes in range.
/// Integer sums are exact in any order, so the total equals the
/// portable one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn raw_mantissa_sum_avx2(id: u32, row: u64, dim: u32) -> u64 {
    use core::arch::x86_64::*;
    let hash = RowHashAvx2::new(id, row);
    let lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    let mut total = 0u64;
    for c in 0..u64::from(dim).div_ceil(CHUNK as u64) {
        let a = hash.chunk(c);
        let len = (u64::from(dim) - c * CHUNK as u64).min(CHUNK as u64) as usize;
        let body = len & !7;
        let mut acc = _mm256_setzero_si256();
        for g in (0..body).step_by(8) {
            acc = _mm256_add_epi32(acc, hash.mantissas8(&a, g));
        }
        if body < len {
            let keep = _mm256_cmpgt_epi32(_mm256_set1_epi32((len - body) as i32), lane);
            acc = _mm256_add_epi32(acc, _mm256_and_si256(keep, hash.mantissas8(&a, body)));
        }
        // The eight lanes' total, folded in halves: under 2³¹, so no
        // u32 step wraps.
        let x = _mm_add_epi32(
            _mm256_castsi256_si128(acc),
            _mm256_extracti128_si256::<1>(acc),
        );
        let x = _mm_add_epi32(x, _mm_shuffle_epi32::<0b01_00_11_10>(x));
        let x = _mm_add_epi32(x, _mm_shuffle_epi32::<0b10_11_00_01>(x));
        total += u64::from(_mm_cvtsi128_si32(x) as u32);
    }
    total
}

/// Fused hash+fold of one whole procedural row on the AVX2 tier:
/// `acc[e] += w * raw_value(id, row, e)` straight from registers, no
/// intermediate value buffer. Per element this is the same two
/// separately-rounded IEEE ops (`mul`, then `add`) as the scalar fold —
/// FMA is never enabled, contraction would change the rounding — so the
/// result is bit-identical to the scalar reference. A last group cut by
/// the row's end folds through an 8-lane stack copy.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn raw_fold_row_avx2(id: u32, row: u64, acc: &mut [f32], w: f32) {
    use core::arch::x86_64::*;
    let hash = RowHashAvx2::new(id, row);
    let wv = _mm256_set1_ps(w);
    for (c, chunk) in (0u64..).zip(acc.chunks_mut(CHUNK)) {
        let a = hash.chunk(c);
        let body = chunk.len() & !7;
        let (whole, tail) = chunk.split_at_mut(body);
        for (g, block) in (0..).step_by(8).zip(whole.chunks_exact_mut(8)) {
            let v = hash.values8(&a, g);
            // SAFETY: `block` is 8 f32s, 32 bytes; the accesses are unaligned.
            unsafe {
                let sum = _mm256_add_ps(_mm256_loadu_ps(block.as_ptr()), _mm256_mul_ps(wv, v));
                _mm256_storeu_ps(block.as_mut_ptr(), sum);
            }
        }
        if !tail.is_empty() {
            let mut buf = [0.0f32; 8];
            buf[..tail.len()].copy_from_slice(tail);
            let v = hash.values8(&a, body);
            // SAFETY: `buf` is 8 f32s, 32 bytes; the accesses are unaligned.
            unsafe {
                let sum = _mm256_add_ps(_mm256_loadu_ps(buf.as_ptr()), _mm256_mul_ps(wv, v));
                _mm256_storeu_ps(buf.as_mut_ptr(), sum);
            }
            tail.copy_from_slice(&buf[..tail.len()]);
        }
    }
}

/// One embedding table: an address range plus procedural contents.
///
/// # Examples
///
/// ```
/// use dlrm::EmbeddingTable;
///
/// let t = EmbeddingTable::new(0, 1024, 64, 0x1000);
/// assert_eq!(t.row_bytes(), 256);
/// assert_eq!(t.row_addr(2), 0x1000 + 512);
/// // Values are deterministic and lie in [-1, 1).
/// assert_eq!(t.value(5, 3), t.value(5, 3));
/// assert!((-1.0..1.0).contains(&t.value(5, 3)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmbeddingTable {
    id: u32,
    rows: u64,
    dim: u32,
    base_addr: u64,
}

impl EmbeddingTable {
    /// Creates table `id` with `rows` rows of `dim` f32 elements laid out
    /// contiguously from `base_addr`.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `dim` is zero.
    pub fn new(id: u32, rows: u64, dim: u32, base_addr: u64) -> Self {
        assert!(rows > 0, "table must have at least one row");
        assert!(dim > 0, "embedding dimension must be positive");
        EmbeddingTable {
            id,
            rows,
            dim,
            base_addr,
        }
    }

    /// Table id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Number of rows.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Embedding dimension in f32 elements.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Bytes per row.
    pub fn row_bytes(&self) -> u64 {
        4 * self.dim as u64
    }

    /// Total bytes of the table.
    pub fn total_bytes(&self) -> u64 {
        self.rows * self.row_bytes()
    }

    /// First byte address of the table.
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }

    /// Byte address of row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn row_addr(&self, row: u64) -> u64 {
        assert!(row < self.rows, "row {row} out of bounds ({})", self.rows);
        self.base_addr + row * self.row_bytes()
    }

    /// `true` if `addr` falls inside this table.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base_addr && addr < self.base_addr + self.total_bytes()
    }

    /// Procedural value of element `elem` of row `row`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `elem` is out of bounds.
    pub fn value(&self, row: u64, elem: u32) -> f32 {
        assert!(row < self.rows, "row {row} out of bounds");
        assert!(elem < self.dim, "element {elem} out of bounds");
        raw_value(self.id, row, elem)
    }

    /// Fills `out` with the procedural values of elements
    /// `elem0 .. elem0 + out.len()` of `row` — the batched form of
    /// [`EmbeddingTable::value`] the wide SLS folds stream from off the
    /// AVX2 tier, and the exact f64 fold always. Bit-identical to
    /// elementwise `value()` calls on every dispatch tier (integer hash
    /// plus exact f32 mapping, per lane).
    ///
    /// # Panics
    ///
    /// Panics if `row` or the element block is out of bounds.
    #[inline]
    pub fn value_block(&self, row: u64, elem0: u32, out: &mut [f32]) {
        assert!(row < self.rows, "row {row} out of bounds");
        assert!(
            elem0 as usize + out.len() <= self.dim as usize,
            "element block {elem0}+{} exceeds dim {}",
            out.len(),
            self.dim
        );
        #[cfg(target_arch = "x86_64")]
        if crate::sls::simd::avx2_detected() {
            // SAFETY: the CPU supports AVX2 (runtime detection above).
            unsafe {
                return raw_value_block_avx2(self.id, row, elem0, out);
            }
        }
        raw_value_block(self.id, row, elem0, out)
    }

    /// The exact f64 sum of row `row`'s procedural values,
    /// `Σₑ value(row, e)` — bit-identical to summing an
    /// [`accumulate_row_exact`](crate::sls::accumulate_row_exact) fold's
    /// elements, in closed form: the row's 23-bit mantissas are summed
    /// as integers (four u64 lanes of the AVX2 hash when the CPU has
    /// AVX2, the portable identity otherwise) and converted once. This
    /// is the cluster layer's per-row checksum term.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds.
    #[inline]
    pub fn row_sum_exact(&self, row: u64) -> f64 {
        assert!(row < self.rows, "row {row} out of bounds");
        debug_assert!(crate::sls::exact_sum_fits(1, self.dim));
        #[cfg(target_arch = "x86_64")]
        if crate::sls::simd::avx2_detected() {
            // SAFETY: the CPU supports AVX2 (runtime detection above).
            let sum = unsafe { raw_mantissa_sum_avx2(self.id, row, self.dim) };
            return row_sum_from_mantissas(sum, self.dim);
        }
        row_sum_from_mantissas(raw_mantissa_sum(self.id, row, 0..self.dim), self.dim)
    }

    /// Fused procedural fold on the AVX2 8-lane tier:
    /// `acc[e] += w * value(row, e)` across the whole row without an
    /// intermediate value buffer (see [`raw_fold_row_avx2`]). The wide
    /// SLS fold takes this path whenever the CPU has AVX2; bit-identical
    /// to the scalar fold.
    ///
    /// # Panics
    ///
    /// Panics if `row` is out of bounds or `acc` is wider than the row.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    pub(crate) fn fold_row_avx2(&self, row: u64, acc: &mut [f32], w: f32) {
        assert!(row < self.rows, "row {row} out of bounds");
        assert!(
            acc.len() <= self.dim as usize,
            "accumulator wider than the row"
        );
        raw_fold_row_avx2(self.id, row, acc, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn layout_is_contiguous() {
        let t = EmbeddingTable::new(1, 100, 16, 4096);
        assert_eq!(t.row_addr(0), 4096);
        assert_eq!(t.row_addr(1), 4096 + 64);
        assert_eq!(t.total_bytes(), 6400);
        assert!(t.contains(4096));
        assert!(t.contains(4096 + 6399));
        assert!(!t.contains(4095));
        assert!(!t.contains(4096 + 6400));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_addr_bounds_checked() {
        let t = EmbeddingTable::new(0, 10, 16, 0);
        let _ = t.row_addr(10);
    }

    #[test]
    fn values_differ_across_tables_rows_elements() {
        let a = EmbeddingTable::new(0, 10, 8, 0);
        let b = EmbeddingTable::new(1, 10, 8, 0);
        assert_ne!(a.value(1, 1), b.value(1, 1));
        assert_ne!(a.value(1, 1), a.value(2, 1));
        assert_ne!(a.value(1, 1), a.value(1, 2));
    }

    #[test]
    fn value_block_matches_elementwise_values() {
        let t = EmbeddingTable::new(6, 40, 100, 0);
        // Every block offset/length class, including unaligned tails.
        for (e0, len) in [(0u32, 100usize), (0, 1), (3, 29), (64, 36), (99, 1)] {
            let mut out = vec![0.0f32; len];
            t.value_block(7, e0, &mut out);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, t.value(7, e0 + i as u32), "mismatch at {e0}+{i}");
            }
        }
    }

    /// `(table, row)` pairs over the whole id and row ranges whose
    /// premixed bases end in every xor mask of the low three bits (so
    /// every copy of the AVX2 table is read) and in both a low and a
    /// high half of a chunk.
    fn hash_rows() -> Vec<(u32, u64)> {
        let mut rows: Vec<(u32, u64)> = [0u32, 6, 0x8000_0001, u32::MAX]
            .into_iter()
            .flat_map(|id| {
                [0u64, 1, 7, 0x5555_5555_5555_5555, u64::MAX - 1, u64::MAX].map(|r| (id, r))
            })
            .collect();
        rows.extend((0..16).map(|r| (6, r)));
        let masks: std::collections::BTreeSet<u64> =
            rows.iter().map(|&(id, r)| premixed(id, r) % 8).collect();
        assert_eq!(masks.len(), 8, "every xor mask is covered");
        let halves: std::collections::BTreeSet<u64> = rows
            .iter()
            .map(|&(id, r)| premixed(id, r) % 256 / 128)
            .collect();
        assert_eq!(halves.len(), 2, "both chunk halves are covered");
        rows
    }

    #[test]
    fn every_hash_tier_matches_elementwise_values() {
        // The portable fill, the AVX2 fill and the fused AVX2 fold are
        // each called directly, so the tier this CPU does not dispatch
        // stays checked too. Every dim from 1 to 300 crosses the AVX2
        // hash's 256-element chunk; the blocks start off the 8-lane grid
        // and end past chunk boundaries, the last ones at the top of the
        // u32 element range.
        #[cfg(target_arch = "x86_64")]
        let avx2 = crate::sls::simd::avx2_detected();
        let blocks = [
            (0u32, 300usize),
            (3, 29),
            (250, 12),
            (255, 1),
            (256, 8),
            (249, 300),
            (u32::MAX - 300, 300),
            (u32::MAX - 5, 5),
        ];
        for (id, row) in hash_rows() {
            for (e0, len) in blocks {
                let want: Vec<f32> = (e0..e0 + len as u32)
                    .map(|e| raw_value(id, row, e))
                    .collect();
                let mut got = vec![0.0f32; len];
                raw_value_block(id, row, e0, &mut got);
                assert_eq!(got, want, "portable fill diverged at {id}/{row} {e0}+{len}");
                #[cfg(target_arch = "x86_64")]
                if avx2 {
                    got.fill(0.0);
                    // SAFETY: the CPU supports AVX2.
                    unsafe { raw_value_block_avx2(id, row, e0, &mut got) };
                    assert_eq!(got, want, "AVX2 fill diverged at {id}/{row} {e0}+{len}");
                }
            }
            #[cfg(target_arch = "x86_64")]
            if avx2 {
                let vals: Vec<f32> = (0..300).map(|e| raw_value(id, row, e)).collect();
                for (dim, w) in (1usize..=300).flat_map(|d| [(d, 1.0f32), (d, -1.25)]) {
                    let mut want = vec![0.5f32; dim];
                    for (slot, &v) in want.iter_mut().zip(&vals) {
                        *slot += w * v;
                    }
                    let mut got = vec![0.5f32; dim];
                    // SAFETY: the CPU supports AVX2.
                    unsafe { raw_fold_row_avx2(id, row, &mut got, w) };
                    assert_eq!(
                        got, want,
                        "fused AVX2 fold diverged at {id}/{row}, dim {dim}, w {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn row_sum_tiers_match_the_exact_fold() {
        // The portable and AVX2 mantissa sums are each called directly,
        // so the tier this CPU does not dispatch stays checked too, at
        // every dim from 1 to 300. The references are the mantissas of
        // the scalar `raw_value` and the elementwise exact fold summed in
        // element order.
        for (id, row) in hash_rows() {
            let mantissas: Vec<u64> = (0..300)
                .map(|e| ((raw_value(id, row, e) + 1.0) * (1u32 << 22) as f32) as u64)
                .collect();
            for dim in 1u32..=300 {
                let want: u64 = mantissas[..dim as usize].iter().sum();
                assert_eq!(
                    raw_mantissa_sum(id, row, 0..dim),
                    want,
                    "portable, {id}/{row} dim {dim}"
                );
                #[cfg(target_arch = "x86_64")]
                if crate::sls::simd::avx2_detected() {
                    // SAFETY: the CPU supports AVX2.
                    let wide = unsafe { raw_mantissa_sum_avx2(id, row, dim) };
                    assert_eq!(wide, want, "AVX2 row sum diverged ({id}/{row}, dim {dim})");
                }
            }
        }
        let tables = [
            EmbeddingTable::new(5, 1000, 1, 0),
            EmbeddingTable::new(u32::MAX, u64::MAX, 1, 0),
        ];
        for dim in [1u32, 3, 7, 8, 9, 64, 100, 128, 255, 256, 257, 300] {
            for t in &tables {
                let t = EmbeddingTable::new(t.id(), t.rows(), dim, 0);
                let end = t.rows();
                for row in [0, 1, end / 2, end - 2, end - 1] {
                    let mut acc = vec![0.0f64; dim as usize];
                    crate::sls::accumulate_row_exact(&mut acc, &t, row, 1.0);
                    let want = acc.iter().fold(0.0f64, |sum, &v| sum + v).to_bits();
                    let portable = raw_mantissa_sum(t.id(), row, 0..dim);
                    assert_eq!(
                        row_sum_from_mantissas(portable, dim).to_bits(),
                        want,
                        "portable row sum diverged (table {}, row {row}, dim {dim})",
                        t.id()
                    );
                    assert_eq!(t.row_sum_exact(row).to_bits(), want);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "element block")]
    fn value_block_bounds_checked() {
        let t = EmbeddingTable::new(6, 40, 100, 0);
        let mut out = vec![0.0f32; 8];
        t.value_block(0, 96, &mut out);
    }

    proptest! {
        #[test]
        fn prop_values_bounded(row in 0u64..1000, elem in 0u32..64) {
            let t = EmbeddingTable::new(9, 1000, 64, 0);
            let v = t.value(row, elem);
            prop_assert!((-1.0..1.0).contains(&v));
            // The batched form agrees with the elementwise value.
            let mut one = [0.0f32];
            t.value_block(row, elem, &mut one);
            prop_assert_eq!(one[0], v);
        }

        #[test]
        fn prop_row_addrs_disjoint(a in 0u64..999, b in 0u64..999) {
            prop_assume!(a != b);
            let t = EmbeddingTable::new(0, 1000, 32, 0);
            let (ra, rb) = (t.row_addr(a), t.row_addr(b));
            // Rows never overlap.
            prop_assert!(ra.abs_diff(rb) >= t.row_bytes());
        }
    }
}
