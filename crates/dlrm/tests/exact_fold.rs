//! The exact f64 fold ([`accumulate_row_exact`]) against the elementwise
//! [`EmbeddingTable::value`] reference, bit for bit.
//!
//! The fold streams a table's values through `value_block`, which takes
//! its AVX2 variant when the CPU has AVX2. `dlrm`'s own tests check the
//! portable fill against `value()` directly on every host.

use dlrm::sls::accumulate_row_exact;
use dlrm::EmbeddingTable;
use proptest::prelude::*;

/// The reference: one `value()` call per element.
fn fold_elementwise(acc: &mut [f64], table: &EmbeddingTable, row: u64, w: f32) {
    for (e, slot) in (0u32..).zip(acc.iter_mut()) {
        *slot += f64::from(w * table.value(row, e));
    }
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    /// Dims 1..=256 (most of them not multiples of the 8-lane or
    /// 64-element blocks), unit weights and weights on the 2⁻¹⁰ grid in
    /// [-4, 4).
    #[test]
    fn prop_exact_fold_matches_elementwise_values(
        dim in 1u32..257,
        indices in proptest::collection::vec(0u64..64, 1..16),
        wticks in proptest::collection::vec(0u32..8192, 16..17),
    ) {
        let weights: Vec<f32> = wticks.iter().map(|&t| t as f32 / 1024.0 - 4.0).collect();
        let table = EmbeddingTable::new(7, 64, dim, 0);
        for weighted in [false, true] {
            let mut got = vec![0.0f64; dim as usize];
            let mut want = vec![0.0f64; dim as usize];
            for (&row, &w) in indices.iter().zip(&weights) {
                let w = if weighted { w } else { 1.0 };
                accumulate_row_exact(&mut got, &table, row, w);
                fold_elementwise(&mut want, &table, row, w);
            }
            prop_assert_eq!(bits(&got), bits(&want), "dim {}, weighted {}", dim, weighted);
        }
    }
}
