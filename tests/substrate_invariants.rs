//! Property-based invariants spanning crates: the DDR model never
//! violates its timing floor, traces always stay in range, page
//! migration conserves pages, and the full system accounts for every
//! lookup under arbitrary (small) workloads.

use proptest::prelude::*;

use pifs_rec::prelude::*;
use pifs_rec::SystemConfig as Cfg;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// DDR accesses can never complete faster than the zero-load floor
    /// (activate + CAS + one burst).
    #[test]
    fn dram_never_beats_physics(addrs in proptest::collection::vec(0u64..(1 << 30), 1..64)) {
        use memsim::{DramConfig, DramDevice};
        use simkit::SimTime;
        let cfg = DramConfig::ddr5_4800_local();
        let t = cfg.timings;
        let floor = t.cycles(t.rcd + t.cl) + t.burst_time();
        let mut dev = DramDevice::new(cfg);
        for addr in addrs {
            let done = dev.access(SimTime::ZERO, addr);
            prop_assert!(done.as_ns() >= floor.as_ns() - 1,
                "completion {done} beats the physical floor {floor}");
        }
    }

    /// Generated traces never index out of the configured row space and
    /// always carry exactly the promised number of lookups.
    #[test]
    fn traces_stay_in_bounds(
        rows in 1u64..10_000,
        tables in 1u32..6,
        batch in 1u32..16,
        bag in 1u32..8,
        seed in any::<u64>(),
    ) {
        let t = TraceSpec {
            distribution: Distribution::Zipfian { s: 0.9 },
            n_tables: tables,
            rows_per_table: rows,
            batch_size: batch,
            n_batches: 2,
            bag_size: bag,
            seed,
        }.generate();
        prop_assert_eq!(t.total_lookups(), 2 * batch as u64 * tables as u64 * bag as u64);
        for (_, table, _, row) in t.iter_lookups() {
            prop_assert!(table < tables);
            prop_assert!(row < rows);
        }
    }

    /// Page migration conserves pages: whatever the rebalancer does, the
    /// total page population is unchanged and capacities are respected.
    #[test]
    fn rebalance_conserves_pages(
        counts in proptest::collection::vec(
            proptest::collection::vec(0u64..50, 0..12), 2..5),
    ) {
        use pagemgmt::{rebalance, DeviceLoad, PageId, SpreadConfig};
        let mut next_page = 0u64;
        let mut devices: Vec<DeviceLoad> = counts.iter().map(|per_dev| DeviceLoad {
            pages: per_dev.iter().map(|&c| {
                next_page += 1;
                (PageId(next_page), c)
            }).collect(),
            capacity: 32,
        }).collect();
        let before: usize = devices.iter().map(|d| d.pages.len()).sum();
        rebalance(&mut devices, &SpreadConfig::default(), &mut Vec::new(), &mut Vec::new());
        let after: usize = devices.iter().map(|d| d.pages.len()).sum();
        prop_assert_eq!(before, after, "pages must be conserved");
        for d in &devices {
            prop_assert!(d.pages.len() as u64 <= d.capacity);
        }
    }

    /// The full system accounts for every lookup across tiers, and its
    /// makespan is positive, for arbitrary small workloads.
    #[test]
    fn system_accounts_for_all_lookups(
        batch in 1u32..8,
        batches in 1u32..4,
        seed in 0u64..1000,
    ) {
        let model = ModelConfig::rmc1().scaled_down(32);
        let trace = TraceSpec {
            distribution: Distribution::Random,
            n_tables: model.n_tables,
            rows_per_table: model.emb_num,
            batch_size: batch,
            n_batches: batches,
            bag_size: model.bag_size,
            seed,
        }.generate();
        let m = SlsSystem::new(Cfg::pifs_rec(model)).run_trace(&trace);
        prop_assert_eq!(m.lookups, trace.total_lookups());
        prop_assert_eq!(m.lookups, m.local_lookups + m.remote_lookups + m.cxl_lookups);
        prop_assert!(m.total_ns > 0);
        prop_assert!(m.checksum.is_finite());
    }

    /// The instruction codec round-trips through the fabric-switch
    /// repacking path without losing the fields the IIR matches on.
    #[test]
    fn repacking_preserves_iir_keys(
        addr in 0u64..(1 << 47),
        sum_tag in 0u16..512,
        chunks in 1u8..9,
        spid in 0u16..4096,
    ) {
        use cxlsim::M2sReq;
        let orig = M2sReq::data_fetch(addr, sum_tag, chunks, spid);
        let wire = M2sReq::decode(orig.encode()).unwrap();
        let repacked = wire.repack_for_device(1000, 3);
        prop_assert_eq!(repacked.address, orig.address);
        prop_assert_eq!(repacked.sum_tag, orig.sum_tag);
        prop_assert_eq!(repacked.vector_bytes(), orig.vector_bytes());
    }
}
