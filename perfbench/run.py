#!/usr/bin/env python3
"""Build and run the gridlb end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload exp3_agents --seed 2003 --seconds 55 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first run builds the gridlb libraries
and both drivers under .bench_build/perfbench; later runs rebuild only what
changed.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with every end-to-end metric
for --trace 0 and every per-layer metric for --trace 1.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["exp1_fifo", "exp3_agents", "overload4x", "grid96_shards4"]
REFERENCE_SEED = 2003
RUN_TIMEOUT_S = 170

# End-to-end metrics (untraced driver) and their units.
END_TO_END = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "msgs_per_task": "count",
}

# Per-layer metrics (traced driver) and their units.
PER_LAYER = {
    "sim.events": "count",
    "sim.net.messages": "count",
    "sim.net.bytes": "B",
    "sim.engine.self_ns": "ns",
    "sim.net.send_ns": "ns",
    "sim.shard.busy_ns.max": "ns",
    "sim.shard.wait_ns": "ns",
    "sim.shard.imbalance": "ratio",
    "sched.ga.calls": "count",
    "sched.ga.tasks_per_call.mean": "count",
    "sched.ga.call_us.p50": "us",
    "sched.ga.call_us.p99": "us",
    "sched.ga.self_ns": "ns",
    "sched.ga.breed_ns": "ns",
    "sched.ga.eval_ns": "ns",
    "sched.ga.prepare_ns": "ns",
    "sched.ga.decodes": "count",
    "sched.ga.memo_hit_ratio": "ratio",
    "sched.ga.delta_ratio": "ratio",
    "sched.ga.cover_frac": "ratio",
    "sched.fifo.calls": "count",
    "sched.fifo.ns": "ns",
    "sched.fifo.subsets": "count",
    "pace.evaluate.calls": "count",
    "pace.evaluate.ns": "ns",
    "pace.table.reads": "count",
    "pace.cache.misses": "count",
    "pace.cache.hit_ratio": "ratio",
    "agents.self_ns": "ns",
    "agents.mean_hops": "count",
    "agents.forwarded": "count",
    "agents.advertisements": "count",
    "agents.pulls": "count",
    "agents.migrations": "count",
    "agents.dropped": "count",
    "agents.link.retries": "count",
    "xml.parse.calls": "count",
    "xml.parse.ns": "ns",
    "xml.write.calls": "count",
    "xml.write.ns": "ns",
    "core.workload.ns": "ns",
    "core.run.ns": "ns",
    "metrics.report.ns": "ns",
    "trace.overhead_frac": "ratio",
    "grid.beta_pct": "%",
    "grid.util_pct": "%",
    "grid.eps_s": "s",
    "grid.sojourn_p99_s": "s",
    "grid.shed_rate": "ratio",
    "grid.failed_frac": "ratio",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds both drivers; raises on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "-j4", "--target", "perfbench",
         "perfbench_traced"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def drive(binary, args, timeout):
    """Runs one driver; returns its summary (last stdout line) as a dict."""
    proc = subprocess.run([os.path.join(BUILD, binary)] + args,
                          stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=timeout, check=False)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if proc.returncode not in (0, 1) or not lines:
        raise RuntimeError(f"{binary} exited with {proc.returncode}")
    return json.loads(lines[-1])


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units} if correct else {},
    })


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check sim_shards invariance and every pin")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    build()
    if args.self_test:
        proc = subprocess.run([os.path.join(BUILD, "perfbench"), "--self-test"],
                              timeout=RUN_TIMEOUT_S, check=False)
        return proc.returncode

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace == 0:
        plain = drive("perfbench", common + ["--seconds", str(args.seconds)],
                      RUN_TIMEOUT_S)
        for error in plain["errors"]:
            log("check failed: " + error)
        print(result_line(plain["ok"], plain["attempted"], plain["failed"],
                          plain["metrics"], END_TO_END))
        return 0 if plain["ok"] else 1

    # Traced run: half the time untraced, half traced, so the tracing
    # overhead and result identity are measured on the same inputs.
    half = str(args.seconds / 2)
    plain = drive("perfbench", common + ["--seconds", half], RUN_TIMEOUT_S // 2)
    traced = drive("perfbench_traced", common + ["--seconds", half],
                   RUN_TIMEOUT_S // 2)
    layers = traced["layers"]
    layers["trace.overhead_frac"] = (
        layers["core.run.ns"] / (plain["metrics"]["wall_s"] * 1e9) - 1.0)
    correct = plain["ok"] and traced["ok"]
    if plain["digest"] != traced["digest"]:
        log("check failed: traced and untraced results differ")
        correct = False
    for error in plain["errors"] + traced["errors"]:
        log("check failed: " + error)
    print(result_line(correct, traced["attempted"], traced["failed"], layers,
                      PER_LAYER))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, ValueError, KeyError, OSError) as error:
        log(f"perfbench: {error}")
        sys.exit(2)
