//! Pinned draw digests for the Zipf-backed trace families.
//!
//! Every table's sampler in a trace reads the same Zipf CDF; these
//! digests pin `TraceSpec::generate` (and, through the stream contract
//! `stream_equivalence.rs` checks, `QueryStream`) at the 65 536-row ×
//! 8-table scale the figures use, so any change to how that CDF is
//! built or shared that moves a single draw fails here. The values were
//! recorded from the generator that built one CDF per table.

use tracegen::{Distribution, Trace, TraceSpec};

/// FNV-1a over every row index, in batch → table → sample order, with
/// the table id folded in ahead of each table's lookups.
fn digest(trace: &Trace) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for batch in &trace.batches {
        for t in &batch.tables {
            fold(t.table as u64);
            for &row in &t.indices {
                fold(row);
            }
        }
    }
    h
}

fn spec(label: &str) -> TraceSpec {
    TraceSpec {
        distribution: Distribution::parse(label).expect("known family"),
        n_tables: 8,
        rows_per_table: 65_536,
        batch_size: 32,
        n_batches: 8,
        bag_size: 16,
        seed: 0x5eed,
    }
}

const PINNED: [(&str, u64); 3] = [
    ("Meta", 0x9d93_3ea9_80b0_e41c),
    ("ZF", 0x1e19_fde0_b2cb_af18),
    ("zipf_head:1.05", 0x4ec6_683b_d1ee_430a),
];

#[test]
fn zipf_family_draws_match_their_pins() {
    for (label, pin) in PINNED {
        let got = digest(&spec(label).generate());
        assert_eq!(got, pin, "{label}: digest {got:#018x}");
    }
}
