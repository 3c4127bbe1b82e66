#!/usr/bin/env python3
"""Runs the simulator benchmark and prints its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <paper_figs|serve_node|serve_cluster> \
        --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --pin      # re-pin rows and exact counters

It builds `perfbench` (a package of its own, in this directory) in release
mode, then runs back-to-back passes of the workload, each in a fresh
process on one thread, for at least `--seconds` seconds and at least
three passes, and samples set-up time in further set-up-only processes.
Each pass times every grid point and every scenario summary on its own;
`wall_s` sums each of these tasks' fastest time over the passes, scaled
to a reference host speed by a fixed calibration kernel timed before the
first pass and after each pass.
Every pass byte-compares each grid point's row against its
pinned row and reports its exact work counters, which must match the
pinned snapshot in `pinned/counters.json`. With `--trace 1` one more
pass replays every point through the layers' public calls and reports
the per-layer metrics. The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.

The seed fixes the order the workload's scenarios run in; the grids
themselves always use the repository's pinned workload seed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_figs", "serve_node", "serve_cluster")
MIN_PASSES = 3
# Set-up-only processes per run, so the reported set-up time is a median
# of many short samples.
SETUP_SAMPLES = 24
# The time of the fixed 4 MiB fill each set-up-only process does right
# after set-up (see `calib::fill`), on the reference host. `setup_s` is
# host seconds at this speed.
FILL_REF_S = 4.5e-3
# Rounds of the calibration kernel per sample of the host's speed (about
# 0.3 s); one sample before the first pass and one after each pass.
CALIBRATION_ROUNDS = 60
# The kernel's speed sample (see `calibrate`) on the reference host: a
# 2-vCPU shared VM with AVX2. `wall_s` is host seconds at this speed.
KERNEL_REF_S = 3.3e-3
# Start no new untimed pass after this long, so a run ends well inside
# three minutes even on a slow host.
PASS_DEADLINE_S = 110.0
PASS_TIMEOUT_S = 170.0
MIB = float(1 << 20)
COUNTERS = HERE / "pinned" / "counters.json"

# Work counters: a rise fails the run, a fall is reported (re-pin).
WORK_COUNTERS = ("simkit.events", "allocs.grid", "allocs.run_trace", "allocs.push")

# Modelled-component counters, reported per layer and compared exactly.
MODELLED = {
    "engine.lookups": "count",
    "engine.cxl_lookups": "count",
    "buffer.hit_ratio": "ratio",
    "switch.ooo_stalls": "count",
    "cxlsim.host_link_bytes": "bytes",
    "pagemgmt.migrations": "count",
    "serving.batches": "count",
    "serving.mean_batch_fill": "ratio",
    "pagemgmt.pm_epochs": "count",
    "cluster.mean_fanout": "shards",
    "cluster.agg_bytes": "bytes",
    "cluster.failovers": "count",
    "cluster.timeouts": "count",
    "cluster.hedges": "count",
    "cluster.shed": "count",
}

# Per-layer metrics of the traced pass, with their units.
LAYERS = {
    "scenario.task_ms_p50": "ms",
    "scenario.task_ms_p90": "ms",
    "scenario.self_s": "s",
    "topology.build_ms_total": "ms",
    "tracegen.generate_s": "s",
    "tracegen.stream_ns_per_query": "ns",
    "engine.run_trace_ns_per_lookup": "ns",
    "engine.allocs_per_bag": "count",
    "serving.push_ns_per_query": "ns",
    "serving.finish_ms_total": "ms",
    "serving.allocs_per_push": "count",
    "serving.peak_heap_mib": "MiB",
    "controller.push_overhead_pct": "%",
    "checkpoint.capture_ms_total": "ms",
    "checkpoint.resume_ms_total": "ms",
    "cluster.placement_ns_per_query": "ns",
    "cluster.route_ns_per_query.clean": "ns",
    "cluster.route_ns_per_query.faulted": "ns",
    "cluster.merge_ns_per_query.clean": "ns",
    "cluster.merge_ns_per_query.faulted": "ns",
    "cluster.allocs_per_query": "count",
    "dlrm.row_store_mib": "MiB",
    "simkit.events": "count",
    "simkit.host_ns_per_event": "ns",
    "trace.overhead_s": "s",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def die(msg):
    log(msg)
    sys.exit(2)


def check_sources():
    """The benchmark builds the simulator from this checkout's sources."""
    needed = [
        "Cargo.toml",
        "crates/bench/Cargo.toml",
        "crates/bench/tests/golden/fig13a.jsonl",
        "vendor/serde_json/Cargo.toml",
        "perfbench/Cargo.toml",
    ]
    missing = [n for n in needed if not (ROOT / n).is_file()]
    if missing:
        die(f"not a checkout of the simulator (missing {', '.join(missing)})")


def child_env():
    env = dict(os.environ)
    # Let the SLS dispatcher pick its lane tier, and record which.
    env.pop("PIFS_SLS_LANES", None)
    return env


def build():
    env = child_env()
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    result = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if result.returncode != 0:
        die("build failed")
    return target / "release" / "perfbench"


def run_binary(binary, args):
    """Runs one fresh `perfbench` process; its last stdout line as JSON."""
    try:
        result = subprocess.run(
            [str(binary), *args], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, text=True, timeout=PASS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        log(f"{' '.join(args[:3])}: timed out")
        return None
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        log(f"{' '.join(args[:3])}: exited with {result.returncode}")
        return None
    return json.loads(lines[-1])


def calibrate(binary):
    """One sample of the host's speed: the 10th-percentile round time of
    the fixed calibration kernel, or None if the kernel did not run."""
    res = run_binary(binary, ["calibrate", "--rounds", str(CALIBRATION_ROUNDS)])
    return res and statistics.quantiles(res["round_s"], n=10)[0]


def run_pass(binary, workload, seed, trace=False):
    args = ["pass", "--workload", workload, "--seed", str(seed), "--root", str(ROOT)]
    return run_binary(binary, args + (["--trace"] if trace else []))


def compare(pinned, name, value, problems):
    """Checks one counter against its pin."""
    want = pinned.get(name)
    if want is None:
        problems.append(f"{name}: no pinned value")
    elif name in WORK_COUNTERS:
        if value > want:
            problems.append(f"{name}: {value} is above its pin {want}")
        elif value < want:
            log(f"note: {name} = {value} is below its pin {want}; re-pin with --pin")
    elif value != want:
        problems.append(f"{name}: {value} differs from its pin {want}")


def measure(args):
    check_sources()
    binary = build()
    pinned = json.loads(COUNTERS.read_text())[args.workload]
    problems = []
    started = time.monotonic()
    passes, attempted, failed = [], 0, 0
    speeds = [calibrate(binary)]
    while len(passes) < MIN_PASSES or time.monotonic() - started < args.seconds:
        if time.monotonic() - started > PASS_DEADLINE_S and len(passes) >= MIN_PASSES:
            break
        res = run_pass(binary, args.workload, args.seed)
        if res is None:
            attempted += pinned["points"]
            failed += pinned["points"]
            problems.append("a pass did not complete")
            break
        passes.append(res)
        speeds.append(calibrate(binary))
        attempted += res["attempted"]
        failed += res["failed"]
        for msg in res["failures"]:
            log(f"failed: {msg}")
    for res in passes:
        compare(pinned, "simkit.events", res["events"], problems)
        compare(pinned, "allocs.grid", res["allocs"], problems)
        compare(pinned, "points", res["attempted"], problems)
    if len({(r["events"], r["allocs"], len(r["task_s"])) for r in passes}) > 1:
        problems.append("passes disagree on their exact counters")
    if not passes:
        die("no pass completed")
    if None in speeds:
        die("the calibration kernel did not run")

    # Every pass runs the same tasks in the same order. Bursts of noise
    # from other tenants only ever add time and come and go within a
    # second, so each task's fastest time over the passes is its steady
    # cost. The host's own speed drifts over minutes as well; the
    # kernel's fastest sample, taken the same way between the passes,
    # measures that drift, and scaling by it reports host seconds at the
    # reference host's speed.
    best = [min(ts) for ts in zip(*(r["task_s"] for r in passes))]
    kernel_s = min(speeds)
    grid_s = sum(best) * KERNEL_REF_S / kernel_s
    wall = statistics.median(r["wall_s"] for r in passes)
    host = passes[0]["host"]
    print(f"# workload={args.workload} seed={args.seed} passes={len(passes)} "
          f"sls_lanes={host['sls_lanes']} cores={host['cores']} threads={host['threads']}")
    print(f"# scenario order: {' '.join(passes[0]['order'])}")
    walls = " ".join(f"{r['wall_s']:.3f}" for r in passes)
    print(f"# pass wall_s: {walls}; sum of per-task minima: {sum(best):.3f}; "
          f"kernel ms: {kernel_s * 1e3:.3f} (reference {KERNEL_REF_S * 1e3:.3f})")
    if args.trace:
        res = run_pass(binary, args.workload, args.seed, trace=True)
        if res is None:
            die("the traced pass did not complete")
        attempted += res["attempted"]
        failed += res["failed"] + res["replay_failed"]
        for msg in res["failures"] + res["replay_failures"]:
            log(f"failed: {msg}")
        counters = res["counters"]
        for name, value in counters.items():
            compare(pinned, name, value, problems)
        layers = dict(res["layers"])
        layers["scenario.self_s"] = wall - res["layer_total_s"]
        layers["simkit.host_ns_per_event"] = grid_s / max(res["events"], 1) * 1e9
        layers["trace.overhead_s"] = res["traced_wall_s"] - wall
        metrics = {k: {"value": layers[k], "unit": u} for k, u in LAYERS.items()}
        metrics.update({k: {"value": counters[k], "unit": u} for k, u in MODELLED.items()})
    else:
        # Set-up is mostly first touches of fresh pages, whose cost drifts
        # with the host's load; each sample is scaled by a fixed fill of
        # fresh memory timed in the same process a moment later.
        samples = []
        for _ in range(SETUP_SAMPLES):
            res = run_binary(binary, ["setup", "--workload", args.workload, "--seed", str(args.seed)])
            if res is None:
                die("a set-up run did not complete")
            samples.append(res)
        setups = [r["setup_s"] / r["fill_s"] * FILL_REF_S for r in samples]
        print(f"# set-up ms: {statistics.median(r['setup_s'] for r in samples) * 1e3:.3f}; "
              f"fill ms: {statistics.median(r['fill_s'] for r in samples) * 1e3:.3f} "
              f"(reference {FILL_REF_S * 1e3:.3f})")
        paper_err = passes[0]["paper_err_pct"]
        if paper_err is None:
            res = run_binary(binary, ["paper-err"])
            paper_err = res and res["paper_err_pct"]
        if paper_err is None:
            die("the paper error could not be computed")
        metrics = {
            "wall_s": {"value": grid_s, "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "events_per_s": {"value": passes[0]["events"] / grid_s, "unit": "1/s"},
            "peak_heap_mib": {
                "value": statistics.median(r["peak_heap_bytes"] for r in passes) / MIB,
                "unit": "MiB",
            },
            "allocs_per_query": {
                "value": statistics.median(r["allocs"] for r in passes) / pinned["queries"],
                "unit": "count",
            },
            "paper_err_pct": {"value": paper_err, "unit": "%"},
        }
    for p in problems:
        log(f"counter check: {p}")
    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


def pin():
    """Re-pins the benchmark's own rows and the exact counters."""
    check_sources()
    binary = build()
    snapshot = {}
    for workload in WORKLOADS:
        out = HERE / "pinned" / "rows"
        if run_binary(binary, ["rows", "--workload", workload, "--out", str(out)]) is None:
            die(f"{workload}: writing rows failed")
        plain = run_pass(binary, workload, 0)
        traced = run_pass(binary, workload, 0, trace=True)
        if plain is None or traced is None or plain["failed"] or traced["replay_failed"]:
            die(f"{workload}: the pinning passes did not come out clean")
        snapshot[workload] = {
            "points": plain["attempted"],
            "simkit.events": plain["events"],
            "allocs.grid": plain["allocs"],
            **traced["counters"],
        }
        log(f"{workload}: pinned")
    COUNTERS.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=lambda s: int(s) % (1 << 64), default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true")
    args = ap.parse_args()
    if args.pin:
        pin()
    elif args.workload is None:
        die("--workload is required")
    else:
        measure(args)


if __name__ == "__main__":
    main()
