//! Property tests for the cluster placement policies and the exact
//! partial-sum merge: single ownership, routing determinism, the
//! policies' shard-count stability promises, replica/owner agreement,
//! and bitwise equality of the fixed-shard-order merge with the exact
//! whole-bag reference (plus the f32 scalar reference on small bags,
//! where the cast is provably exact).

use dlrm::sls::{sls_reference_exact, sls_reference_scalar};
use dlrm::EmbeddingTable;
use pifs_core::engine::cluster::{
    merged_bag_embedding_at, ClusterConfig, ShardPlacement, ShardPolicy,
};
use pifs_core::engine::serving::TraceArrivals;
use pifs_core::system::SystemConfig;
use proptest::prelude::*;
use simkit::{FaultSchedule, SimTime};
use tracegen::{Batch, TableLookups, Trace};

const POLICIES: [ShardPolicy; 2] = [ShardPolicy::RowHash, ShardPolicy::TablePartition];

/// A placement over `n_tables` tables with no replication.
fn placement(k: u16, policy: ShardPolicy, n_tables: u32) -> ShardPlacement {
    ShardPlacement::from_dims(k, n_tables, policy, &dlrm::ModelConfig::rmc1())
}

/// The fault-free merged embedding of `bag` in table 0.
fn merged(p: &ShardPlacement, table: &EmbeddingTable, bag: &[u64]) -> Vec<f64> {
    merged_bag_embedding_at(
        p,
        &FaultSchedule::none(p.n_shards()),
        SimTime::ZERO,
        &[],
        table,
        0,
        bag,
    )
}

/// A one-batch trace whose single sample's bag (every table) is `bag` —
/// enough to drive the hotness tracker for replication builds.
fn bag_trace(n_tables: u32, rows: u64, bag: &[u64]) -> Trace {
    Trace {
        n_tables,
        rows_per_table: rows,
        batch_size: 1,
        bag_size: bag.len() as u32,
        batches: vec![Batch {
            tables: (0..n_tables)
                .map(|t| TableLookups::fixed(t, bag.to_vec()))
                .collect(),
        }],
    }
}

proptest! {
    #[test]
    fn prop_every_row_has_exactly_one_owner(
        k in 1u16..9,
        n_tables in 1u32..12,
        rows in proptest::collection::vec(0u64..100_000, 1..48),
    ) {
        for policy in POLICIES {
            let p = placement(k, policy, n_tables);
            for t in 0..n_tables {
                let none = FaultSchedule::none(k);
                let mut route = Vec::new();
                p.route_bag_at(t, &rows, SimTime::ZERO, &none, &mut route);
                prop_assert_eq!(route.len(), rows.len());
                for (&row, &s) in rows.iter().zip(&route) {
                    // In range, equal to the owner (no replication), and
                    // a pure function of (table, row).
                    prop_assert!(s < k);
                    prop_assert_eq!(s, p.owner(t, row));
                    prop_assert_eq!(s, p.owner(t, row));
                }
                // Routing is deterministic across calls.
                let mut again = Vec::new();
                p.route_bag_at(t, &rows, SimTime::ZERO, &none, &mut again);
                prop_assert_eq!(&route, &again);
            }
        }
    }

    #[test]
    fn prop_row_hash_owner_is_stable_mod_shard_count(
        k in 1u16..6,
        m in 1u16..6,
        table in 0u32..8,
        row in 0u64..1_000_000,
    ) {
        // The RowHash promise: growing the cluster k → m·k moves a row
        // only within its residue class — owner_at(m·k) ≡ owner_at(k)
        // (mod k), because both reduce the same shard-count-free hash.
        let coarse = ShardPolicy::RowHash.owner(k, 8, table, row);
        let fine = ShardPolicy::RowHash.owner(m * k, 8, table, row);
        prop_assert_eq!(fine % k, coarse);
    }

    #[test]
    fn prop_table_partition_refines_hierarchically(
        k in 1u16..6,
        m in 1u16..6,
        n_tables in 1u32..16,
        row in 0u64..1_000_000,
    ) {
        // The TablePartition promise: each coarse shard's table range
        // splits into its m children — owner_at(k) = ⌊owner_at(m·k)/m⌋
        // — and owners never depend on the row.
        for table in 0..n_tables {
            let coarse = ShardPolicy::TablePartition.owner(k, n_tables, table, row);
            let fine = ShardPolicy::TablePartition.owner(m * k, n_tables, table, row);
            prop_assert_eq!(fine / m, coarse);
            prop_assert_eq!(
                coarse,
                ShardPolicy::TablePartition.owner(k, n_tables, table, 0)
            );
        }
    }

    #[test]
    fn prop_replicas_agree_with_their_owner(
        k in 2u16..8,
        hot in 1u32..8,
        bag in proptest::collection::vec(0u64..256, 1..24),
    ) {
        // Replication must be invisible to the functional plane: the
        // replicated placement's merged embedding is bit-identical to
        // the unreplicated one (replicas carry the owner's values), and
        // every bag row is still served exactly once.
        let trace = bag_trace(2, 256, &bag);
        let queries = TraceArrivals::new(&trace, &[SimTime::ZERO]);
        let mut cfg = ClusterConfig::new(k, ShardPolicy::RowHash, SystemConfig::pifs_rec_default());
        let plain = ShardPlacement::build_streamed(&cfg, &queries);
        cfg.hot_rows_per_table = hot;
        let repl = ShardPlacement::build_streamed(&cfg, &queries);
        let table = EmbeddingTable::new(0, 256, 32, 0);
        let a = merged(&plain, &table, &bag);
        let b = merged(&repl, &table, &bag);
        prop_assert_eq!(a, b);
        let mut route = Vec::new();
        repl.route_bag_at(0, &bag, SimTime::ZERO, &FaultSchedule::none(k), &mut route);
        prop_assert_eq!(route.len(), bag.len());
        for &s in &route {
            prop_assert!(s < k);
        }
    }

    #[test]
    fn prop_merge_in_shard_order_equals_the_exact_reference(
        k in 1u16..9,
        dim in 1u32..256,
        bag in proptest::collection::vec(0u64..4096, 1..32),
    ) {
        // The tentpole invariant: per-shard partials merged in fixed
        // shard-index order are bit-identical to summing the whole bag
        // in one place — for every k, both policies, any dim. (The f64
        // plane is exact, hence associative; see engine::cluster docs.)
        let reference = sls_reference_exact(&EmbeddingTable::new(0, 4096, dim, 0), &bag, None);
        for policy in POLICIES {
            let p = placement(k, policy, 4);
            let table = EmbeddingTable::new(0, 4096, dim, 0);
            let got = merged(&p, &table, &bag);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
            prop_assert_eq!(bits(&got), bits(&reference));
        }
    }

    #[test]
    fn prop_small_bag_merge_casts_to_the_scalar_reference(
        k in 1u16..5,
        dim in 1u32..64,
        bag in proptest::collection::vec(0u64..4096, 1..5),
    ) {
        // Bags of ≤ 4 rows: numerators stay below 2²⁴, so the f32 fold
        // is itself exact and the f64 merge casts to it bitwise.
        let table = EmbeddingTable::new(0, 4096, dim, 0);
        let scalar = sls_reference_scalar(&table, &bag, None);
        for policy in POLICIES {
            let p = placement(k, policy, 4);
            let got = merged(&p, &table, &bag);
            let cast: Vec<u32> = got.iter().map(|&v| (v as f32).to_bits()).collect();
            let want: Vec<u32> = scalar.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(cast, want);
        }
    }
}
