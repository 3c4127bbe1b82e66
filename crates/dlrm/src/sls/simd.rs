//! Explicit lane-width SLS folds.
//!
//! **Selection rule:** the tier is decided by CPU detection alone. When
//! the CPU offers AVX2 (x86-64), [`accumulate_row`](super::accumulate_row)
//! runs the fused 8-lane row fold compiled with AVX2 codegen
//! (`EmbeddingTable::fold_row_avx2`), which hashes and folds each
//! 8-element block in registers. Otherwise it computes the row's values
//! in blocks and folds them with [`fold_slice`]: fixed `[f32; 4]`
//! accumulator chunks that LLVM lowers to one 128-bit vector
//! multiply/add pair on every SSE2/NEON-class machine, with a scalar
//! tail for `dim % 4` remainders. No option or environment variable
//! overrides the choice.
//!
//! **Determinism:** blocking along `dim` partitions the accumulator
//! into disjoint lane groups; every element still receives exactly the
//! operation `acc[e] += w * v[e]`, in exactly the scalar loop's
//! per-element order. No cross-lane reduction ever happens (an SLS
//! output is a vector, not a scalar), `mul` and `add` stay separately
//! rounded (FMA contraction is never enabled — fusing would change the
//! rounding), so every tier is bit-identical to
//! [`accumulate_row_scalar`](super::accumulate_row_scalar). The tests
//! below call the blocked fold directly, so the portable tier stays
//! checked on an AVX2 host; `accumulate_row`'s own tests cover the
//! fused AVX2 tier.

/// One dispatch tier of the wide SLS fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneWidth {
    /// Portable 4-lane blocks: one 128-bit vector (SSE2/NEON baseline).
    W4,
    /// The fused 8-lane row fold compiled with AVX2 codegen: one
    /// 256-bit vector.
    W8,
}

/// Whether the CPU supports AVX2, so the 8-lane AVX2 kernels may run.
/// The standard library caches the detection, so this is one load.
#[inline]
pub(crate) fn avx2_detected() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The tier the folds run on in this process (see the module docs for
/// the selection rule).
pub fn dispatched_width() -> LaneWidth {
    if avx2_detected() {
        LaneWidth::W8
    } else {
        LaneWidth::W4
    }
}

/// The blocked fold: `L`-lane accumulator chunks plus a scalar tail for
/// the `len % L` remainder. Per-element operation and order are exactly
/// the scalar loop's — the lanes are disjoint accumulator elements, so
/// no floating-point sum is reassociated (the determinism argument in
/// the module docs).
#[inline(always)]
fn fold_blocked<const L: usize>(acc: &mut [f32], vals: &[f32], w: f32) {
    let n = acc.len().min(vals.len());
    let mut a = acc[..n].chunks_exact_mut(L);
    let mut v = vals[..n].chunks_exact(L);
    for (ab, vb) in (&mut a).zip(&mut v) {
        let ab: &mut [f32; L] = ab.try_into().expect("chunk is exactly L wide");
        let vb: &[f32; L] = vb.try_into().expect("chunk is exactly L wide");
        for i in 0..L {
            ab[i] += w * vb[i];
        }
    }
    for (slot, &x) in a.into_remainder().iter_mut().zip(v.remainder()) {
        *slot += w * x;
    }
}

/// Folds `vals` into `acc` with weight `w` in portable 4-lane blocks —
/// the fold [`accumulate_row`](super::accumulate_row) runs off AVX2.
///
/// Bit-identical to the scalar loop; see the module docs.
///
/// # Panics
///
/// Panics if `acc.len() != vals.len()`.
#[inline]
pub fn fold_slice(acc: &mut [f32], vals: &[f32], w: f32) {
    assert_eq!(acc.len(), vals.len(), "fold width mismatch");
    fold_blocked::<4>(acc, vals, w);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vals(n: usize, salt: u32) -> Vec<f32> {
        (0..n)
            .map(|i| ((i as f32 + salt as f32) * 0.37).sin())
            .collect()
    }

    /// One fold tier's signature.
    type Fold = fn(&mut [f32], &[f32], f32);

    /// The reference element loop every tier must match bit for bit.
    fn fold_scalar(acc: &mut [f32], vals: &[f32], w: f32) {
        for (slot, &v) in acc.iter_mut().zip(vals) {
            *slot += w * v;
        }
    }

    #[test]
    fn every_tier_matches_scalar_including_tails() {
        // Every dim up to 256, so each remainder class of 4 and 8 lanes
        // is crossed many times; unit and non-unit weights.
        for (dim, w) in (1usize..=256).flat_map(|d| [(d, 1.0f32), (d, 1.75)]) {
            let v = vals(dim, 3);
            let mut reference = vals(dim, 9);
            fold_scalar(&mut reference, &v, w);
            let tiers: [(&str, Fold); 3] = [
                ("4-lane", fold_blocked::<4>),
                ("8-lane", fold_blocked::<8>),
                ("fold_slice", fold_slice),
            ];
            for (name, fold) in tiers {
                let mut acc = vals(dim, 9);
                fold(&mut acc, &v, w);
                assert_eq!(acc, reference, "{name} tier diverged at dim {dim}, w {w}");
            }
        }
    }

    #[test]
    fn dispatcher_picks_avx2_tier_when_detected() {
        // The 8-lane AVX2 tier whenever the CPU has AVX2, the portable
        // 4-lane tier otherwise; there is no other way in.
        let width = dispatched_width();
        println!("dispatched SLS tier: {width:?}");
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            width == LaneWidth::W8,
            std::arch::is_x86_feature_detected!("avx2")
        );
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(width, LaneWidth::W4);
    }

    #[test]
    #[should_panic(expected = "fold width mismatch")]
    fn width_mismatch_rejected() {
        let mut acc = [0.0f32; 4];
        fold_slice(&mut acc, &[1.0; 5], 1.0);
    }
}
