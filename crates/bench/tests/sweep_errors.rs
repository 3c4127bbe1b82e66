//! Sweep-level rejection of degenerate serving knobs — the `repro`
//! binary itself, end to end.
//!
//! The regression this pins: `repro sweep ... --param batch_size=0`
//! used to launch the grid and panic inside a worker thread (a
//! half-written `results/` directory and a backtrace instead of a
//! usable message). Every invalid axis value or free-form knob must
//! now die *before any simulation starts*: exit code 2, the parser's
//! own reason on stderr, and no panic anywhere.

use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        // Keep any accidental grid launch tiny and off the real
        // results/ directory.
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("spawn repro")
}

/// Asserts a sweep invocation dies cleanly: exit 2 (the CLI error
/// code), a stderr mentioning every given needle, and no panic.
fn assert_dies(args: &[&str], needles: &[&str]) {
    let out = repro(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?}: expected the clean CLI exit, got {:?}\nstderr: {stderr}",
        out.status
    );
    assert!(
        !stderr.contains("panicked"),
        "{args:?}: worker panic leaked to the user\nstderr: {stderr}"
    );
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "{args:?}: stderr lacks {needle:?}\nstderr: {stderr}"
        );
    }
}

#[test]
fn zero_batch_size_is_a_sweep_level_error_not_a_worker_panic() {
    // Declared axis on `latency_wait`...
    assert_dies(
        &["sweep", "latency_wait", "--param", "batch_size=0"],
        &["batch_size", "must be positive"],
    );
    // ...and the free-form knob route through `custom`.
    assert_dies(
        &["sweep", "custom", "--param", "serving.batch_size=0"],
        &["serving.batch_size", "must be positive"],
    );
}

#[test]
fn degenerate_serving_knobs_die_with_the_parsers_reason() {
    assert_dies(
        &["sweep", "latency_wait", "--param", "max_wait_us=-1"],
        &["max_wait_us"],
    );
    // Past the cap the nanosecond cast used to saturate, and the worker
    // panicked on clock overflow mid-run.
    assert_dies(
        &[
            "sweep",
            "latency_wait",
            "--param",
            "batch_size=32",
            "--param",
            "max_wait_us=1e30",
        ],
        &["serving.max_wait_us"],
    );
    assert_dies(
        &["sweep", "latency_adaptive", "--param", "controller=pid"],
        &["controller", "unknown serving controller"],
    );
    assert_dies(
        &["sweep", "latency_adaptive", "--param", "traffic=sawtooth"],
        &["traffic", "unknown arrival process"],
    );
    // Free-form knobs that don't exist at all.
    assert_dies(
        &["sweep", "custom", "--param", "serving.warp_factor=9"],
        &["unknown SystemConfig knob"],
    );
    // `seed` set a config field no run reads, so two seeds wrote two
    // identical rows; it is no longer a knob.
    assert_dies(
        &["sweep", "custom", "--param", "seed=7"],
        &["unknown SystemConfig knob", "seed"],
    );
    // Non-free-form scenarios must not silently absorb unknown keys.
    assert_dies(
        &["sweep", "latency_qps", "--param", "serving.batch_size=0"],
        &["no parameter", "custom"],
    );
}

#[test]
fn degenerate_rates_die_with_the_arrival_parsers_reason() {
    // A zero, negative or non-finite offered rate used to reach the
    // worker, which panicked on the arrival parser's error mid-grid.
    for scenario in ["latency_qps", "cluster_qps"] {
        for qps in ["0", "-5", "nan", "inf"] {
            let param = format!("qps={qps}");
            assert_dies(
                &["--threads", "1", "sweep", scenario, "--param", &param],
                &["--param qps", "arrival rate must be positive and finite"],
            );
        }
    }
    assert_dies(
        &["sweep", "cluster_qps", "--param", "qps=fast"],
        &["--param qps", "is not a number"],
    );
}

#[test]
fn degenerate_topology_knobs_die_before_the_grid_launches() {
    // Each of these used to panic inside a worker (an empty MLP window,
    // a plant with no hosts, devices or switches, no cores to partition
    // work over, a buffer that holds no row); a negative or NaN local
    // capacity was accepted silently, and so was a non-finite or
    // out-of-range page-management threshold (`inf` made the promote
    // budget unbounded, `nan` silently disabled demotion). An
    // out-of-range or NaN placement fraction panicked a worker at the
    // placement builder's range assert. A huge translation delay wrapped
    // the clock and ran faster than none.
    for knob in [
        "outstanding=0",
        "n_hosts=0",
        "n_devices=0",
        "n_switches=0",
        "cores_per_host=0",
        "buffer.capacity_kb=0",
        "local_capacity_frac=-1",
        "local_capacity_frac=nan",
        "pm.migrate_threshold=inf",
        "pm.migrate_threshold=nan",
        "pm.migrate_threshold=1.5",
        "pm.cold_age_threshold=nan",
        "pm.cold_age_threshold=-0.2",
        "placement.cxl_frac=1.5",
        "placement.remote_frac=nan",
        "translation_ns=18446744073709551615",
    ] {
        let name = knob.split_once('=').expect("k=v").0;
        assert_dies(
            &[
                "sweep",
                "custom",
                "--param",
                "scheme=PIFS-Rec",
                "--param",
                knob,
            ],
            &[name],
        );
    }
}

#[test]
fn degenerate_trace_specs_die_naming_the_trace_axis() {
    // Each of these used to parse, run, and write a meaningless row: a
    // NaN or infinite exponent, a negative one, a reuse fraction outside
    // [0, 1], and a NaN or non-positive normal width.
    for spec in [
        "zipf:nan",
        "zipf:-1",
        "zipf:inf",
        "zipf_head:-2",
        "normal:nan",
        "normal:0",
        "meta:1.5:1.05",
        "meta:nan:1",
        "meta:0.35:-1",
    ] {
        assert_dies(
            &["sweep", "custom", "--param", &format!("trace={spec}")],
            &["--param trace", spec],
        );
    }
    // The Fig 12(b) scenario takes the same axis.
    assert_dies(
        &["sweep", "fig12b", "--param", "trace=zipf:nan"],
        &["--param trace", "zipf:nan"],
    );
}

#[test]
fn out_of_range_cluster_sizes_die_instead_of_wrapping() {
    // Zero shards used to panic a worker; 65537 wrapped to one shard
    // and died in the merge; 2^32 + 64 replicas silently ran as 64.
    assert_dies(
        &["sweep", "cluster_qps", "--param", "nodes=0"],
        &["nodes", "1..=65535"],
    );
    assert_dies(
        &["sweep", "cluster_qps", "--param", "nodes=65537"],
        &["nodes", "1..=65535"],
    );
    assert_dies(
        &[
            "sweep",
            "cluster_faults",
            "--param",
            "replicas=4294967360",
            "--param",
            "fault=none",
            "--param",
            "shed=none",
            "--param",
            "qps=4000000",
        ],
        &["replicas", "0..=4294967295"],
    );
}

#[test]
fn oversized_fault_multipliers_die_instead_of_wrapping_the_clock() {
    // A 1e300 slow-down used to saturate the stretched service span and
    // panic a worker when the wrapped release clock went backwards; the
    // same link multiplier ran and reported an 80-million-second
    // makespan with availability 0.
    for fault in ["slow:100000:1e300", "link:100000:1e300"] {
        assert_dies(
            &[
                "sweep",
                "cluster_faults",
                "--param",
                &format!("fault={fault}"),
                "--param",
                "shed=none",
                "--param",
                "replicas=0",
                "--param",
                "qps=4000000",
            ],
            &["--param fault", fault, "<= 1000000"],
        );
    }
}

#[test]
fn oversized_fault_rates_die_instead_of_growing_the_schedule() {
    // The schedule draws about rate × nodes × horizon events, so an
    // unbounded rate would loop while its event vector grows.
    assert_dies(
        &[
            "sweep",
            "cluster_faults",
            "--param",
            "fault=slow:1e300:2",
            "--param",
            "shed=none",
            "--param",
            "replicas=0",
            "--param",
            "qps=4000000",
        ],
        &[
            "--param fault",
            "slow:1e300:2",
            "rate must be positive and <= 1000000",
        ],
    );
}

#[test]
fn out_of_range_scenario_axes_die_instead_of_wrapping() {
    // `devices=65538` used to wrap to 2 and run, writing the devices=2
    // row under the label 65538; the zeros and the over-long duration
    // used to reach an assert inside a worker.
    assert_dies(
        &[
            "sweep",
            "fig12c",
            "--param",
            "model=RMC1",
            "--param",
            "scheme=Pond",
            "--param",
            "devices=65538",
        ],
        &["devices", "1..=65535"],
    );
    for (id, axis, bad, range) in [
        ("fig12c", "devices", "0", "1..=65535"),
        ("fig13c", "switches", "0", "1..=65535"),
        ("fig13c", "switches", "65536", "1..=65535"),
        ("fig14", "hosts", "65536", "0..=65535"),
        ("fig13c", "batch", "0", "1..=4294967295"),
        ("fig14", "batch", "4294967296", "1..=4294967295"),
        ("fig6", "cores", "0", "1..=4294967295"),
        ("fig6", "dim", "0", "1..=4294967295"),
        ("fig5", "dim", "4294967297", "1..=4294967295"),
        ("latency_diurnal", "duration_s", "61", "0..=60"),
    ] {
        assert_dies(
            &["sweep", id, "--param", &format!("{axis}={bad}")],
            &[axis, range],
        );
    }
}

#[test]
fn a_dim_past_the_exact_sum_bound_dies_before_any_worker_runs() {
    // `dim=400000000` fits the u32 axis, but a bag of 8 rows at that
    // dimension holds 3.2e9 terms: the SLS stage's per-bag assert used
    // to panic a worker and exit 101. 2²⁸ = 2³¹ / 8 is the first dim
    // that breaks the bound for both scenarios' bags of 8.
    for (id, dim) in [
        ("fig5", "400000000"),
        ("fig5", "268435456"),
        ("fig6", "268435456"),
    ] {
        assert_dies(
            &[
                "--threads",
                "1",
                "sweep",
                id,
                "--param",
                &format!("dim={dim}"),
            ],
            &[
                "--param dim",
                "a bag of 8 rows",
                "exact-sum bound (rows × dim < 2³¹)",
            ],
        );
    }
}

#[test]
fn values_on_a_scenarios_own_axis_run() {
    // `policy` names a buffer policy in fig15 and a page-management
    // policy in fig13d. A check keyed on the axis name alone read both
    // as shard policies and refused these values of the scenarios' own
    // grids.
    for args in [
        &[
            "fig15",
            "--param",
            "model=RMC1",
            "--param",
            "capacity_kb=64",
            "--param",
            "policy=LRU",
        ][..],
        &["fig13d", "--param", "policy=TPP"],
        &["fig13d", "--param", "policy=0.5"],
    ] {
        let out = repro(&[&["--threads", "1", "sweep"][..], args].concat());
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn scenario_specific_axes_die_naming_the_axis() {
    // Each of these used to panic a worker (exit 101) or run and print
    // a meaningless row (exit 0): `threshold=nan` printed `"threshold":
    // null` beside a latency, and `phase=bogus` ran the `after` arm.
    for (id, axis, bad, reason) in [
        ("fig13a", "granularity", "bogus", "unknown value"),
        ("fig5", "panel", "bogus", "unknown panel"),
        ("fig5", "size", "0", "1..=1048576"),
        ("fig12d", "dram", "bogus", "unknown capacity"),
        ("fig12e", "stage", "bogus", "unknown ablation stage"),
        (
            "fig15",
            "capacity_kb",
            "18014398509481984",
            "0..=18014398509481983",
        ),
        ("fig13a", "threshold", "nan", "[0, 1]"),
        ("fig13a", "threshold", "-3", "[0, 1]"),
        ("fig12d", "dram", "nan", "[0, 1]"),
        ("fig12d", "dram", "-1", "[0, 1]"),
        ("fig13b", "phase", "bogus", "unknown phase"),
    ] {
        assert_dies(
            &[
                "--threads",
                "1",
                "sweep",
                id,
                "--param",
                &format!("{axis}={bad}"),
            ],
            &[&format!("--param {axis}:"), reason],
        );
    }
}

#[test]
fn the_cli_still_answers_when_asked_politely() {
    let out = repro(&["list"]);
    assert_eq!(out.status.code(), Some(0), "repro list must succeed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("latency_adaptive"),
        "registry listing lost the adaptive scenario"
    );
}
