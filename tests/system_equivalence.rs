//! Cross-crate integration tests: every compute placement and topology
//! must produce the same functional SLS results, and the performance
//! ordering the paper reports must hold end to end.

use pifs_rec::prelude::*;
use pifs_rec::{ComputeSite, SystemConfig as Cfg};

fn model() -> ModelConfig {
    ModelConfig::rmc1().scaled_down(8)
}

fn trace(batches: u32, batch: u32, seed: u64) -> tracegen::Trace {
    let m = model();
    TraceSpec {
        distribution: Distribution::MetaLike {
            reuse_frac: 0.35,
            s: 1.05,
        },
        n_tables: m.n_tables,
        rows_per_table: m.emb_num,
        batch_size: batch,
        n_batches: batches,
        bag_size: m.bag_size,
        seed,
    }
    .generate()
}

fn checksums_close(a: f64, b: f64) {
    let tol = (a.abs() + b.abs()) * 1e-5 + 1e-6;
    assert!((a - b).abs() <= tol, "checksums differ: {a} vs {b}");
}

#[test]
fn all_five_schemes_compute_identical_sls_results() {
    let t = trace(4, 16, 101);
    let mut checks = Vec::new();
    for scheme in Scheme::all() {
        let m = SlsSystem::new(scheme.config(model())).run_trace(&t);
        checks.push((scheme.label(), m.checksum));
    }
    for w in checks.windows(2) {
        checksums_close(w[0].1, w[1].1);
    }
}

#[test]
fn paper_ordering_holds_end_to_end() {
    let t = trace(12, 32, 103);
    let run = |s: Scheme| SlsSystem::new(s.config(model())).run_trace(&t).total_ns;
    let pond = run(Scheme::Pond);
    let beacon = run(Scheme::Beacon);
    let pifs = run(Scheme::PifsRec);
    assert!(pifs < beacon, "pifs={pifs} beacon={beacon}");
    assert!(beacon < pond, "beacon={beacon} pond={pond}");
    let ratio = pond as f64 / pifs as f64;
    assert!(
        (2.0..8.0).contains(&ratio),
        "Pond/PIFS ratio {ratio:.2} should be in the paper's neighbourhood (3.89x)"
    );
}

#[test]
fn multi_switch_topology_preserves_results() {
    let t = trace(3, 8, 107);
    let single = SlsSystem::new(Cfg::pifs_rec(model())).run_trace(&t);
    let mut cfg = Cfg::pifs_rec(model());
    cfg.n_switches = 4;
    cfg.n_hosts = 4;
    let multi = SlsSystem::new(cfg).run_trace(&t);
    checksums_close(single.checksum, multi.checksum);
}

#[test]
fn threading_modes_cover_the_same_work() {
    let t = trace(3, 16, 109);
    let mut a = Cfg::pifs_rec(model());
    a.threading = dlrm::ThreadingMode::Batch;
    let mut b = Cfg::pifs_rec(model());
    b.threading = dlrm::ThreadingMode::Table;
    let ra = SlsSystem::new(a).run_trace(&t);
    let rb = SlsSystem::new(b).run_trace(&t);
    assert_eq!(ra.lookups, rb.lookups);
    checksums_close(ra.checksum, rb.checksum);
}

#[test]
fn warmup_excludes_transients_but_not_correctness() {
    let t = trace(8, 16, 113);
    let cold = SlsSystem::new(Cfg::pifs_rec(model())).run_trace(&t);
    let mut warm_cfg = Cfg::pifs_rec(model());
    warm_cfg.warmup_batches = 4;
    let warm = SlsSystem::new(warm_cfg).run_trace(&t);
    // The warm measurement covers half the batches…
    assert_eq!(warm.bags * 2, cold.bags);
    // …and excludes the PM convergence transient, so its per-bag time is
    // lower.
    let cold_per_bag = cold.total_ns as f64 / cold.bags as f64;
    let warm_per_bag = warm.total_ns as f64 / warm.bags as f64;
    assert!(
        warm_per_bag < cold_per_bag,
        "warm {warm_per_bag:.0} vs cold {cold_per_bag:.0}"
    );
}

#[test]
fn compute_sites_are_exercised() {
    for scheme in Scheme::all() {
        let cfg = scheme.config(model());
        match scheme {
            Scheme::Pond | Scheme::PondPm => assert_eq!(cfg.compute, ComputeSite::Host),
            Scheme::Beacon | Scheme::PifsRec => assert_eq!(cfg.compute, ComputeSite::Switch),
            Scheme::RecNmp => assert_eq!(cfg.compute, ComputeSite::Dimm),
        }
    }
}

#[test]
fn determinism_across_full_stack() {
    let t = trace(4, 16, 127);
    let a = SlsSystem::new(Cfg::pifs_rec(model())).run_trace(&t);
    let b = SlsSystem::new(Cfg::pifs_rec(model())).run_trace(&t);
    assert_eq!(a.total_ns, b.total_ns);
    assert_eq!(a.device_accesses, b.device_accesses);
    assert_eq!(a.migrations, b.migrations);
    assert_eq!(a.checksum, b.checksum);
}

#[test]
fn cnv_fallback_preserves_results_and_costs_bandwidth() {
    // §IV-C2: a remote switch without a process core streams raw rows to
    // the local switch, which computes on its behalf. Results must be
    // identical; latency must not improve.
    let t = trace(4, 16, 131);
    let build = || {
        let mut cfg = Cfg::pifs_rec(model());
        cfg.n_switches = 4;
        cfg.n_hosts = 1;
        cfg
    };
    let with_pc = SlsSystem::new(build()).run_trace(&t);
    let mut crippled = SlsSystem::new(build());
    for idx in 1..4 {
        crippled.disable_process_core(idx);
    }
    let without_pc = crippled.run_trace(&t);
    checksums_close(with_pc.checksum, without_pc.checksum);
    assert!(
        without_pc.total_ns >= with_pc.total_ns,
        "losing remote process cores cannot speed things up: {} vs {}",
        without_pc.total_ns,
        with_pc.total_ns
    );
}

#[test]
fn multi_switch_fold_checksums_are_pinned() {
    // Exact checksum bits of folding runs on four switches, where a
    // bag's CXL rows split into per-switch sub-clusters: each group
    // folds from zero and the partials merge in group order (§IV-A5).
    // Folding the CXL rows in bag order instead moves these bits.
    let m = ModelConfig::rmc1().scaled_down(4);
    let t = TraceSpec {
        distribution: Distribution::MetaLike {
            reuse_frac: 0.35,
            s: 1.05,
        },
        n_tables: m.n_tables,
        rows_per_table: m.emb_num,
        batch_size: 8,
        n_batches: 3,
        bag_size: m.bag_size,
        seed: 107,
    }
    .generate();
    let four = |mut cfg: Cfg| {
        cfg.n_switches = 4;
        cfg.n_hosts = 4;
        cfg
    };
    let pifs = SlsSystem::new(four(Cfg::pifs_rec(m.clone()))).run_trace(&t);
    let beacon = SlsSystem::new(four(Cfg::beacon(m.clone()))).run_trace(&t);
    let mut crippled = SlsSystem::new(four(Cfg::pifs_rec(m.clone())));
    crippled.disable_process_core(1);
    let crippled = crippled.run_trace(&t);
    let arrivals = ArrivalProcess::Poisson { qps: 50_000.0 }.times(24, 77);
    let session = SlsSystem::new(four(Cfg::pifs_rec(m))).run_open_loop(&t, &arrivals);
    let pins: [(&str, f64, f64); 4] = [
        ("PIFS-Rec", pifs.checksum, 3111.5238082408905),
        ("BEACON", beacon.checksum, 3111.523817539215),
        ("no core on switch 1", crippled.checksum, 3111.5238082408905),
        ("open-loop session", session.run.checksum, 3111.523803949356),
    ];
    for (name, got, want) in pins {
        assert_eq!(got.to_bits(), want.to_bits(), "{name}: {got} vs {want}");
    }
}
