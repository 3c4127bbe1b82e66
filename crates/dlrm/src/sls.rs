//! The SparseLengthSum (SLS) operator — the kernel PIFS-Rec accelerates.
//!
//! SLS gathers `bag_size` rows from an embedding table and element-wise
//! accumulates them (optionally weighted). The functional kernel here is
//! the *reference*: the host path, the in-switch accumulate logic and the
//! DIMM-side RecNMP path must all reproduce it exactly, which the
//! integration tests assert.

use crate::embedding::EmbeddingTable;

pub mod simd;

/// Reference SLS: accumulates the requested rows of `table`.
///
/// The accumulation order is the order of `indices` — all compute sites
/// in the workspace follow the same order, keeping floating-point sums
/// bit-identical across placements. Each row goes through the wide fold
/// [`accumulate_row`]; [`sls_reference_scalar`] is the retained
/// per-element formulation it is property-tested against.
///
/// # Examples
///
/// ```
/// use dlrm::EmbeddingTable;
/// use dlrm::sls::sls_reference;
///
/// let t = EmbeddingTable::new(0, 100, 4, 0);
/// let sum = sls_reference(&t, &[1, 2], None);
/// assert_eq!(sum[0], t.value(1, 0) + t.value(2, 0));
/// ```
///
/// # Panics
///
/// Panics if any index is out of bounds or the weight count mismatches.
pub fn sls_reference(table: &EmbeddingTable, indices: &[u64], weights: Option<&[f32]>) -> Vec<f32> {
    if let Some(w) = weights {
        assert_eq!(w.len(), indices.len(), "one weight per index required");
    }
    let mut acc = vec![0.0f32; table.dim() as usize];
    for (i, &row) in indices.iter().enumerate() {
        let w = weights.map_or(1.0, |ws| ws[i]);
        accumulate_row(&mut acc, table, row, w);
    }
    acc
}

/// The retained scalar SLS reference: one procedural `value()` call per
/// element, no wide fold. Exists so equivalence of the vectorizable
/// path is a tested property, not an assumption.
///
/// # Panics
///
/// Panics if any index is out of bounds or the weight count mismatches.
pub fn sls_reference_scalar(
    table: &EmbeddingTable,
    indices: &[u64],
    weights: Option<&[f32]>,
) -> Vec<f32> {
    if let Some(w) = weights {
        assert_eq!(w.len(), indices.len(), "one weight per index required");
    }
    let mut acc = vec![0.0f32; table.dim() as usize];
    for (i, &row) in indices.iter().enumerate() {
        let w = weights.map_or(1.0, |ws| ws[i]);
        accumulate_row_scalar(&mut acc, table, row, w);
    }
    acc
}

/// Block size (f32 elements) of the stack buffer the folds stream
/// values through: `value_block` fills a block, the fold consumes it,
/// no heap touched.
const VALUE_BLOCK: usize = 64;

/// Folds one row into `acc` with weight `w` — the per-arrival step
/// every compute site performs (§IV-A5), and the workspace's one f32
/// row fold.
///
/// On the AVX2 tier this is the fused hash+fold: the procedural values
/// are computed in registers and folded straight into `acc`. Off AVX2
/// the values are computed in [`EmbeddingTable::value_block`] blocks on
/// a stack buffer and folded by the explicit lane-width wide fold
/// ([`simd::fold_slice`]). Because the per-element addition order along
/// `dim` is exactly the scalar loop's on every tier, the f32 sums are
/// bit-identical to [`accumulate_row_scalar`].
///
/// # Panics
///
/// Panics if `acc.len()` differs from the table dimension or `row` is out
/// of bounds.
#[inline]
pub fn accumulate_row(acc: &mut [f32], table: &EmbeddingTable, row: u64, w: f32) {
    assert_eq!(
        acc.len(),
        table.dim() as usize,
        "accumulator width must match the table dimension"
    );
    #[cfg(target_arch = "x86_64")]
    if simd::avx2_detected() {
        // SAFETY: the CPU supports AVX2 (runtime detection above).
        unsafe { table.fold_row_avx2(row, acc, w) };
        return;
    }
    let mut buf = [0.0f32; VALUE_BLOCK];
    for (e0, chunk) in (0u32..)
        .step_by(VALUE_BLOCK)
        .zip(acc.chunks_mut(VALUE_BLOCK))
    {
        let vals = &mut buf[..chunk.len()];
        table.value_block(row, e0, vals);
        simd::fold_slice(chunk, vals, w);
    }
}

/// The scalar fold: one procedural `value()` call per element. The
/// reference [`accumulate_row`] must match bit-for-bit.
///
/// # Panics
///
/// Panics if `acc.len()` differs from the table dimension or `row` is out
/// of bounds.
pub fn accumulate_row_scalar(acc: &mut [f32], table: &EmbeddingTable, row: u64, w: f32) {
    assert_eq!(
        acc.len(),
        table.dim() as usize,
        "accumulator width must match the table dimension"
    );
    for (e, slot) in acc.iter_mut().enumerate() {
        *slot += w * table.value(row, e as u32);
    }
}

/// The exact plane's bound on one f64 sum: fewer than 2³¹ terms, each a
/// procedural value (see [`exact_sum_fits`]).
pub const EXACT_SUM_TERMS: u64 = 1 << 31;

/// Whether `rows` unweighted rows of `dim` procedural values sum exactly
/// in f64 — elementwise, or all of their elements into one scalar — in
/// *any* grouping: `rows × dim < 2³¹`. Each value is a multiple of 2⁻²²
/// in [-1, 1), so every partial sum of fewer than 2³¹ of them is a
/// multiple of 2⁻²² below 2³¹ in magnitude: under 2⁵³ units, which f64
/// holds exactly. The product is checked, so an overflowing one is out
/// of bounds rather than wrapped.
///
/// # Examples
///
/// ```
/// use dlrm::sls::exact_sum_fits;
///
/// assert!(exact_sum_fits(1 << 24, 64)); // 2³⁰ terms
/// assert!(!exact_sum_fits(1 << 25, 64)); // 2³¹ terms
/// assert!(!exact_sum_fits(u64::MAX, 2)); // the product overflows
/// ```
pub fn exact_sum_fits(rows: u64, dim: u32) -> bool {
    rows.checked_mul(u64::from(dim))
        .is_some_and(|terms| terms < EXACT_SUM_TERMS)
}

/// Folds one row into an **exact** f64 accumulator — the arithmetic of
/// the cluster layer's partial-sum merge plane.
///
/// Each term is the f32 product `w * value` (one rounding, the same
/// value every compute site produces) widened to f64, which is exact.
/// The accumulation itself is then *provably exact*, not merely more
/// precise: procedural embedding values are exact multiples of 2⁻²² in
/// [-1, 1) (see [`EmbeddingTable`]'s value construction — a 23-bit
/// mantissa scaled by 2/2²³), so an unweighted sum is an integer
/// multiple of 2⁻²² with magnitude below `bag_size`; f64 represents
/// every such sum exactly for any bag under 2³¹ rows
/// ([`exact_sum_fits`] with `dim = 1`). Exact addition is associative, so *any*
/// grouping of the rows — per-shard partials merged in any order —
/// yields bit-identical results. The same holds for weights that are
/// multiples of 2⁻¹⁰ in [-4, 4): products are multiples of 2⁻³² with
/// magnitude < 4, exact for bags under 2¹⁹ rows.
///
/// This is why the cluster's merged embeddings are invariant to shard
/// count and placement policy (asserted by the shard-invariance suite);
/// the fixed shard-index merge order is belt and suspenders, not a
/// correctness requirement.
///
/// The values come in [`EmbeddingTable::value_block`] chunks on a stack
/// buffer, bit-identical to elementwise [`EmbeddingTable::value`] calls
/// on every lane tier, so the sums are too (`tests/exact_fold.rs`
/// asserts this).
///
/// # Panics
///
/// Panics if `acc.len()` differs from the table dimension or `row` is
/// out of bounds.
pub fn accumulate_row_exact(acc: &mut [f64], table: &EmbeddingTable, row: u64, w: f32) {
    assert_eq!(
        acc.len(),
        table.dim() as usize,
        "accumulator width must match the table dimension"
    );
    // Each term: one f32 rounding per product, then an exact f64 addition.
    let mut buf = [0.0f32; VALUE_BLOCK];
    for (e0, chunk) in (0u32..)
        .step_by(VALUE_BLOCK)
        .zip(acc.chunks_mut(VALUE_BLOCK))
    {
        let vals = &mut buf[..chunk.len()];
        table.value_block(row, e0, vals);
        for (slot, &v) in chunk.iter_mut().zip(vals.iter()) {
            *slot += f64::from(w * v);
        }
    }
}

/// Sequential exact SLS: [`accumulate_row_exact`] over `indices` in
/// order — the single-node reference the cluster merge must reproduce
/// bit-for-bit for every shard count and placement (see
/// [`accumulate_row_exact`] for the exactness argument).
///
/// # Panics
///
/// Panics if any index is out of bounds or the weight count mismatches.
pub fn sls_reference_exact(
    table: &EmbeddingTable,
    indices: &[u64],
    weights: Option<&[f32]>,
) -> Vec<f64> {
    if let Some(w) = weights {
        assert_eq!(w.len(), indices.len(), "one weight per index required");
    }
    let mut acc = vec![0.0f64; table.dim() as usize];
    for (i, &row) in indices.iter().enumerate() {
        let w = weights.map_or(1.0, |ws| ws[i]);
        accumulate_row_exact(&mut acc, table, row, w);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn table() -> EmbeddingTable {
        EmbeddingTable::new(2, 256, 8, 0)
    }

    #[test]
    fn empty_bag_gives_zero_vector() {
        let out = sls_reference(&table(), &[], None);
        assert!(out.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn single_row_is_identity() {
        let t = table();
        let row: Vec<f32> = (0..t.dim()).map(|e| t.value(5, e)).collect();
        assert_eq!(sls_reference(&t, &[5], None), row);
    }

    #[test]
    fn weights_scale_rows() {
        let t = table();
        let out = sls_reference(&t, &[3], Some(&[2.0]));
        for (e, &v) in out.iter().enumerate() {
            assert_eq!(v, 2.0 * t.value(3, e as u32));
        }
    }

    #[test]
    fn incremental_accumulation_matches_reference() {
        let t = table();
        let indices = [1u64, 9, 4, 9, 200];
        let reference = sls_reference(&t, &indices, None);
        let mut acc = vec![0.0f32; t.dim() as usize];
        for &row in &indices {
            accumulate_row(&mut acc, &t, row, 1.0);
        }
        assert_eq!(acc, reference);
    }

    #[test]
    fn exact_sum_bound_sits_at_two_to_the_31_terms() {
        for dim in [1u32, 3, 64, 128, u32::MAX] {
            let d = u64::from(dim);
            let last_fit = (EXACT_SUM_TERMS - 1) / d;
            assert!(exact_sum_fits(last_fit, dim), "dim {dim}");
            assert!(!exact_sum_fits(last_fit + 1, dim), "dim {dim}");
        }
        assert!(exact_sum_fits(0, u32::MAX));
        assert!(!exact_sum_fits(EXACT_SUM_TERMS, 1));
        // Overflowing products are out of bounds, not wrapped: 2⁶³ × 2
        // wraps to zero.
        assert!(!exact_sum_fits(1 << 63, 2));
        assert!(!exact_sum_fits(u64::MAX, u32::MAX));
    }

    #[test]
    #[should_panic(expected = "one weight per index")]
    fn weight_count_mismatch_panics() {
        let _ = sls_reference(&table(), &[1, 2], Some(&[1.0]));
    }

    proptest! {
        /// Splitting a bag at any point and accumulating the two halves
        /// sequentially must equal the one-shot reference — this is the
        /// invariant that lets the switch process rows as they arrive.
        #[test]
        fn prop_split_accumulation_is_exact(
            indices in proptest::collection::vec(0u64..256, 1..20),
            split in 0usize..20,
        ) {
            let t = table();
            let split = split.min(indices.len());
            let reference = sls_reference(&t, &indices, None);
            let mut acc = sls_reference(&t, &indices[..split], None);
            for &row in &indices[split..] {
                accumulate_row(&mut acc, &t, row, 1.0);
            }
            prop_assert_eq!(acc, reference);
        }

        /// The wide fold must equal the retained scalar reference
        /// bit-for-bit: unweighted, any dim in 1..=256.
        #[test]
        fn prop_vectorized_matches_scalar_unweighted(
            dim in 1u32..257,
            indices in proptest::collection::vec(0u64..64, 1..16),
        ) {
            let t = EmbeddingTable::new(7, 64, dim, 0);
            prop_assert_eq!(sls_reference(&t, &indices, None), sls_reference_scalar(&t, &indices, None));
        }

        /// Same equivalence with per-row weights.
        #[test]
        fn prop_vectorized_matches_scalar_weighted(
            dim in 1u32..257,
            indices in proptest::collection::vec(0u64..64, 1..16),
            raw_weights in proptest::collection::vec(-4.0f32..4.0, 16..17),
        ) {
            let weights: Vec<f32> = raw_weights[..indices.len()].to_vec();
            let t = EmbeddingTable::new(7, 64, dim, 0);
            prop_assert_eq!(
                sls_reference(&t, &indices, Some(&weights)),
                sls_reference_scalar(&t, &indices, Some(&weights))
            );
        }

        /// The dispatched fold must equal the scalar reference
        /// *bit-for-bit* (not approximately) across dims 1..=256,
        /// weighted and unweighted. Each tier is also checked directly
        /// in [`simd`]'s and [`crate::embedding`]'s tests, so the tiers
        /// this CPU does not dispatch stay covered.
        #[test]
        fn prop_dispatched_fold_matches_scalar_reference(
            dim in 1u32..257,
            indices in proptest::collection::vec(0u64..64, 1..16),
            raw_weights in proptest::collection::vec(-4.0f32..4.0, 16..17),
        ) {
            let weights: Vec<f32> = raw_weights[..indices.len()].to_vec();
            let t = EmbeddingTable::new(7, 64, dim, 0);
            for weighted in [false, true] {
                let ws = weighted.then_some(&weights[..]);
                prop_assert_eq!(
                    sls_reference(&t, &indices, ws),
                    sls_reference_scalar(&t, &indices, ws),
                    "tier {:?} diverged (dim {}, weighted {})",
                    simd::dispatched_width(), dim, weighted
                );
            }
        }

        /// The exact f64 merge plane is partition-invariant: splitting a
        /// bag across k "shards" (any assignment), folding each shard's
        /// rows in bag order, and merging the partials in shard-index
        /// order is *bit-identical* to the sequential exact reference —
        /// the associativity theorem the cluster layer rests on (see
        /// [`accumulate_row_exact`]). Weights are multiples of 2⁻¹⁰ in
        /// [-4, 4), the grid on which weighted sums stay exact.
        #[test]
        fn prop_exact_merge_is_partition_invariant(
            dim in 1u32..256,
            indices in proptest::collection::vec(0u64..64, 1..32),
            owners in proptest::collection::vec(0usize..8, 32..33),
            wticks in proptest::collection::vec(0u32..8192, 32..33),
            k in 1usize..9,
        ) {
            let weights: Vec<f32> =
                wticks[..indices.len()].iter().map(|&t| t as f32 / 1024.0 - 4.0).collect();
            let table = EmbeddingTable::new(7, 64, dim, 0);
            for weighted in [false, true] {
                let ws = weighted.then_some(&weights[..]);
                let reference = sls_reference_exact(&table, &indices, ws);
                // Shard partials: each shard folds only its owned
                // positions, preserving bag order within the shard.
                let mut partials = vec![vec![0.0f64; dim as usize]; k];
                for (i, &row) in indices.iter().enumerate() {
                    let w = ws.map_or(1.0, |x| x[i]);
                    accumulate_row_exact(&mut partials[owners[i] % k], &table, row, w);
                }
                // Fixed shard-index merge order.
                let mut merged = vec![0.0f64; dim as usize];
                for p in &partials {
                    for (m, v) in merged.iter_mut().zip(p) {
                        *m += v;
                    }
                }
                prop_assert_eq!(
                    merged, reference,
                    "exact merge diverged (dim {}, k {}, weighted {})",
                    dim, k, weighted
                );
            }
        }

        /// The exact plane agrees with the f32 [`sls_reference_scalar`]
        /// to within standard f32 accumulation error (dims 1..256,
        /// weighted and unweighted) — the bridge between the cluster's
        /// merge plane and the single-node f32 functional checksum.
        #[test]
        fn prop_exact_plane_tracks_scalar_reference(
            dim in 1u32..256,
            indices in proptest::collection::vec(0u64..64, 1..16),
            raw_weights in proptest::collection::vec(-4.0f32..4.0, 16..17),
        ) {
            let weights: Vec<f32> = raw_weights[..indices.len()].to_vec();
            let t = EmbeddingTable::new(7, 64, dim, 0);
            for weighted in [false, true] {
                let ws = weighted.then_some(&weights[..]);
                let scalar = sls_reference_scalar(&t, &indices, ws);
                let exact = sls_reference_exact(&t, &indices, ws);
                // Worst-case f32 fold error: one rounding per addition,
                // each bounded by eps × the running magnitude ≤ Σ|terms|.
                for e in 0..dim as usize {
                    let sum_abs: f64 = indices
                        .iter()
                        .enumerate()
                        .map(|(i, &row)| {
                            f64::from((ws.map_or(1.0, |x| x[i]) * t.value(row, e as u32)).abs())
                        })
                        .sum();
                    let bound = indices.len() as f64 * f64::from(f32::EPSILON) * sum_abs + 1e-12;
                    prop_assert!(
                        (f64::from(scalar[e]) - exact[e]).abs() <= bound,
                        "element {}: scalar {} vs exact {} (bound {})",
                        e, scalar[e], exact[e], bound
                    );
                }
            }
        }

        /// Where the f32 sum is itself exact — unweighted bags of ≤ 4
        /// rows, whose sums carry at most 2²⁴ units of 2⁻²² — the merged
        /// exact plane equals [`sls_reference_scalar`] bit-for-bit after
        /// the f32 cast. This is the regime in which the satellite's
        /// literal "merge equals the scalar reference" holds as stated.
        #[test]
        fn prop_exact_merge_equals_scalar_reference_on_small_bags(
            dim in 1u32..256,
            indices in proptest::collection::vec(0u64..64, 1..5),
            k in 1usize..4,
        ) {
            let t = EmbeddingTable::new(7, 64, dim, 0);
            let scalar = sls_reference_scalar(&t, &indices, None);
            let mut partials = vec![vec![0.0f64; dim as usize]; k];
            for (i, &row) in indices.iter().enumerate() {
                accumulate_row_exact(&mut partials[i % k], &t, row, 1.0);
            }
            let mut merged = vec![0.0f64; dim as usize];
            for p in &partials {
                for (m, v) in merged.iter_mut().zip(p) {
                    *m += v;
                }
            }
            let cast: Vec<f32> = merged.iter().map(|&v| v as f32).collect();
            prop_assert_eq!(cast, scalar);
        }

        /// Duplicate indices accumulate additively.
        #[test]
        fn prop_duplicates_add(row in 0u64..256, reps in 1usize..8) {
            let t = table();
            let indices = vec![row; reps];
            let out = sls_reference(&t, &indices, None);
            // Weighted single-row fetch with weight = reps is identical
            // only when the sum is exact; repeated addition of the same
            // f32 `reps` times equals reps×v for reps ≤ 8 because the
            // values carry ≤ 23 significant bits and reps is a small
            // integer… verify element 0 within one ULP instead.
            let expect = t.value(row, 0) * reps as f32;
            let got = out[0];
            prop_assert!((got - expect).abs() <= got.abs().max(expect.abs()) * f32::EPSILON * reps as f32 + f32::MIN_POSITIVE);
        }
    }
}
