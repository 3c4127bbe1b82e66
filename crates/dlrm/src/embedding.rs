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

/// Row-constant registers of the vectorized hash: everything
/// [`raw_value_block`]'s identities hoist out of the element loop, in
/// vector form, shared by the fill and the fused-fold kernels.
#[cfg(target_arch = "x86_64")]
struct RowMixAvx2 {
    pre_v: core::arch::x86_64::__m256i,
    hi_v: core::arch::x86_64::__m256i,
    c_lo: core::arch::x86_64::__m256i,
    c_hi: core::arch::x86_64::__m256i,
    scale: core::arch::x86_64::__m256,
    one: core::arch::x86_64::__m256,
    narrow: core::arch::x86_64::__m256i,
}

#[cfg(target_arch = "x86_64")]
impl RowMixAvx2 {
    #[inline]
    #[target_feature(enable = "avx2")]
    fn new(id: u32, row: u64) -> Self {
        use core::arch::x86_64::*;
        let pre = premixed(id, row);
        // h_hi·C_lo: constant across the row because elem xors only h_lo.
        let hi_part = (pre >> 32).wrapping_mul(MIX & 0xFFFF_FFFF);
        RowMixAvx2 {
            pre_v: _mm256_set1_epi64x(pre as i64),
            hi_v: _mm256_set1_epi64x(hi_part as i64),
            c_lo: _mm256_set1_epi64x((MIX & 0xFFFF_FFFF) as i64),
            c_hi: _mm256_set1_epi64x((MIX >> 32) as i64),
            scale: _mm256_set1_ps(2.0 / (1u32 << 23) as f32),
            one: _mm256_set1_ps(1.0),
            // Gathers the low dword of each u64 lane into the low 128 bits.
            narrow: _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0),
        }
    }

    /// The eight mantissas of `raw_value(id, row, e .. e + 8)`, as two
    /// 4×u64 vectors (elements `e .. e + 4`, then `e + 4 .. e + 8`).
    ///
    /// The 64×64→64 multiply AVX2 lacks is built from `vpmuludq`
    /// 32×32→64 partial products:
    /// `h·C mod 2^64 = h_lo·C_lo + ((h_lo·C_hi + h_hi·C_lo) << 32)` — and
    /// because `e` only perturbs the low dword of the premixed base,
    /// `h_hi·C_lo` is one more per-row constant hoisted out of the loop,
    /// leaving two multiplies per vector. Integer ops only, so each lane
    /// is exactly [`raw_value_block`]'s mantissa.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn mantissas8(&self, e: u64) -> (core::arch::x86_64::__m256i, core::arch::x86_64::__m256i) {
        use core::arch::x86_64::*;
        let ev = _mm256_set1_epi64x(e as i64);
        let h0 = _mm256_xor_si256(
            self.pre_v,
            _mm256_add_epi64(ev, _mm256_setr_epi64x(0, 1, 2, 3)),
        );
        let h1 = _mm256_xor_si256(
            self.pre_v,
            _mm256_add_epi64(ev, _mm256_setr_epi64x(4, 5, 6, 7)),
        );
        // p = h·C mod 2^64, then mantissa = p >> 41 (see raw_value_block).
        let lo0 = _mm256_mul_epu32(h0, self.c_lo);
        let lo1 = _mm256_mul_epu32(h1, self.c_lo);
        let mid0 = _mm256_add_epi64(_mm256_mul_epu32(h0, self.c_hi), self.hi_v);
        let mid1 = _mm256_add_epi64(_mm256_mul_epu32(h1, self.c_hi), self.hi_v);
        let p0 = _mm256_add_epi64(lo0, _mm256_slli_epi64(mid0, 32));
        let p1 = _mm256_add_epi64(lo1, _mm256_slli_epi64(mid1, 32));
        (_mm256_srli_epi64(p0, 41), _mm256_srli_epi64(p1, 41))
    }

    /// The eight values `raw_value(id, row, e .. e + 8)` as one vector:
    /// [`Self::mantissas8`] narrowed to one 8×u32 vector and converted
    /// with `vcvtdq2ps` (exact: mantissas are 23 bits), then the same
    /// IEEE single-rounded `·scale − 1` per lane as the scalar code —
    /// bit-identical to [`raw_value_block`].
    #[inline]
    #[target_feature(enable = "avx2")]
    fn values8(&self, e: u64) -> core::arch::x86_64::__m256 {
        use core::arch::x86_64::*;
        let (m0, m1) = self.mantissas8(e);
        let n0 = _mm256_permutevar8x32_epi32(m0, self.narrow);
        let n1 = _mm256_permutevar8x32_epi32(m1, self.narrow);
        let packed = _mm256_inserti128_si256(n0, _mm256_castsi256_si128(n1), 1);
        let f = _mm256_cvtepi32_ps(packed);
        _mm256_sub_ps(_mm256_mul_ps(f, self.scale), self.one)
    }
}

/// [`raw_value_block`] with the multiply hand-vectorized for the 8-lane
/// dispatch tier (LLVM does not auto-vectorize 64-bit multiplies); see
/// [`RowMixAvx2::values8`] for the vector decomposition.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn raw_value_block_avx2(id: u32, row: u64, elem0: u32, out: &mut [f32]) {
    use core::arch::x86_64::*;
    let mix = RowMixAvx2::new(id, row);
    let mut e = elem0 as u64;
    let mut blocks = out.chunks_exact_mut(8);
    for block in &mut blocks {
        let v = mix.values8(e);
        // SAFETY: `block` is a chunk of exactly 8 f32s.
        unsafe { _mm256_storeu_ps(block.as_mut_ptr(), v) };
        e += 8;
    }
    let tail = blocks.into_remainder();
    if !tail.is_empty() {
        raw_value_block(id, row, e as u32, tail);
    }
}

/// [`raw_mantissa_sum`] over a whole row of `dim` elements on the AVX2
/// tier: [`RowMixAvx2::mantissas8`] summed in u64 lanes, no float work,
/// and the `dim % 8` tail through the portable identity. Integer sums
/// are exact in any order, so the total equals the portable one.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn raw_mantissa_sum_avx2(id: u32, row: u64, dim: u32) -> u64 {
    use core::arch::x86_64::*;
    let mix = RowMixAvx2::new(id, row);
    let body = dim & !7;
    let mut acc = _mm256_setzero_si256();
    for e in (0..u64::from(body)).step_by(8) {
        let (m0, m1) = mix.mantissas8(e);
        acc = _mm256_add_epi64(acc, _mm256_add_epi64(m0, m1));
    }
    let mut lanes = [0u64; 4];
    // SAFETY: `lanes` is 32 bytes; the store is unaligned.
    unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), acc) };
    lanes.iter().sum::<u64>() + raw_mantissa_sum(id, row, body..dim)
}

/// Fused hash+fold of one whole procedural row on the AVX2 tier:
/// `acc[e] += w * raw_value(id, row, e)` straight from registers, no
/// intermediate value buffer. Per element this is the same two
/// separately-rounded IEEE ops (`mul`, then `add`) as the scalar fold —
/// FMA is never enabled, contraction would change the rounding — so the
/// result is bit-identical to the scalar reference.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn raw_fold_row_avx2(id: u32, row: u64, acc: &mut [f32], w: f32) {
    use core::arch::x86_64::*;
    let mix = RowMixAvx2::new(id, row);
    let wv = _mm256_set1_ps(w);
    let mut e = 0u64;
    let mut blocks = acc.chunks_exact_mut(8);
    for block in &mut blocks {
        let v = mix.values8(e);
        // SAFETY: `block` is a chunk of exactly 8 f32s.
        unsafe {
            let a = _mm256_loadu_ps(block.as_ptr());
            _mm256_storeu_ps(block.as_mut_ptr(), _mm256_add_ps(a, _mm256_mul_ps(wv, v)));
        }
        e += 8;
    }
    let tail = blocks.into_remainder();
    if !tail.is_empty() {
        let mut buf = [0.0f32; 7];
        let vals = &mut buf[..tail.len()];
        raw_value_block(id, row, e as u32, vals);
        for (slot, &v) in tail.iter_mut().zip(vals.iter()) {
            *slot += w * v;
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

    #[test]
    fn every_hash_tier_matches_elementwise_values() {
        // The portable fill, the AVX2 fill and the fused AVX2 fold are
        // each called directly, so the tier this CPU does not dispatch
        // stays checked too.
        let (id, row) = (6u32, 7u64);
        for (e0, len) in [(0u32, 100usize), (0, 1), (3, 29), (64, 36), (99, 1)] {
            let want: Vec<f32> = (e0..e0 + len as u32)
                .map(|e| raw_value(id, row, e))
                .collect();
            let mut got = vec![0.0f32; len];
            raw_value_block(id, row, e0, &mut got);
            assert_eq!(got, want, "portable fill diverged at {e0}+{len}");
            #[cfg(target_arch = "x86_64")]
            if crate::sls::simd::avx2_detected() {
                // SAFETY: the CPU supports AVX2.
                unsafe { raw_value_block_avx2(id, row, e0, &mut got) };
                assert_eq!(got, want, "AVX2 fill diverged at {e0}+{len}");
            }
        }
        #[cfg(target_arch = "x86_64")]
        if crate::sls::simd::avx2_detected() {
            for (dim, w) in (1usize..=256).flat_map(|d| [(d, 1.0f32), (d, -1.25)]) {
                let mut want = vec![0.5f32; dim];
                for (e, slot) in want.iter_mut().enumerate() {
                    *slot += w * raw_value(id, row, e as u32);
                }
                let mut got = vec![0.5f32; dim];
                // SAFETY: the CPU supports AVX2.
                unsafe { raw_fold_row_avx2(id, row, &mut got, w) };
                assert_eq!(got, want, "fused AVX2 fold diverged at dim {dim}, w {w}");
            }
        }
    }

    #[test]
    fn row_sum_tiers_match_the_exact_fold() {
        // The portable and AVX2 mantissa sums are each called directly,
        // so the tier this CPU does not dispatch stays checked too. The
        // reference is the elementwise exact fold summed in element order.
        let tables = [
            EmbeddingTable::new(5, 1000, 1, 0),
            EmbeddingTable::new(u32::MAX, u64::MAX, 1, 0),
        ];
        for dim in [1u32, 3, 7, 8, 9, 64, 100, 128] {
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
                    #[cfg(target_arch = "x86_64")]
                    if crate::sls::simd::avx2_detected() {
                        // SAFETY: the CPU supports AVX2.
                        let wide = unsafe { raw_mantissa_sum_avx2(t.id(), row, dim) };
                        assert_eq!(
                            row_sum_from_mantissas(wide, dim).to_bits(),
                            want,
                            "AVX2 row sum diverged (table {}, row {row}, dim {dim})",
                            t.id()
                        );
                    }
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
