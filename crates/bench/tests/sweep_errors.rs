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
fn degenerate_topology_knobs_die_before_the_grid_launches() {
    // Each of these used to panic inside a worker (an empty MLP window,
    // a plant with no hosts, devices or switches, no cores to partition
    // work over, a buffer that holds no row); a negative or NaN local
    // capacity was accepted silently, and so was a non-finite or
    // out-of-range page-management threshold (`inf` made the promote
    // budget unbounded, `nan` silently disabled demotion). An
    // out-of-range or NaN placement fraction panicked a worker at the
    // placement builder's range assert.
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
fn the_cli_still_answers_when_asked_politely() {
    let out = repro(&["list"]);
    assert_eq!(out.status.code(), Some(0), "repro list must succeed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("latency_adaptive"),
        "registry listing lost the adaptive scenario"
    );
}
