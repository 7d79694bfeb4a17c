#!/usr/bin/env python3
"""Gate machine-normalized bench ratios against committed baselines.

Usage:
  check_bench_regression.py <baseline.json> <current.json>
  check_bench_regression.py <baseline.json> <current.json> <ratio-key> [...]
  check_bench_regression.py --self-test

Arguments after the script name are (baseline, current, ratio-key)
triples; the original two-argument form is kept as shorthand for the GA
hot-path key `speedup_vs_full_decode`.  Every report carries a bench
--json schema (the committed baseline may wrap it in a top-level
"current" object, as BENCH_ga_hotpath.json and BENCH_sim_engine.json do).

The gates are machine-normalized: each ratio compares two measurements
taken in the same process on the same machine (hot-path evaluate vs full
decode; sharded campaign vs single-shard campaign), so a slower CI runner
shifts both sides equally and only a real regression moves the ratio.
Raw ns/seconds are printed for context but never gated on.

A key fails (exit 1) when its current ratio drops below 75% of the
committed one.  Additionally, when the *baseline* ratio exceeds 1.0 —
the capturing machine demonstrated a real speedup, as the GA hot path
does — the current ratio must also stay above 1.0.  Baselines captured
at ~1.0 (e.g. the shard-scaling ratio recorded on a single-core box)
don't impose that floor, since the capturing machine could not express
a speedup in the first place.

A ratio key may carry an explicit absolute floor as `key@floor`
(e.g. `plain_vs_observed@0.95`): the current ratio must then stay at or
above that literal value regardless of what the baseline recorded, and
the explicit floor *replaces* the implicit >1.0 rule — a parity bench
captured at 1.01 is noise around 1.0, not a speedup to defend.  This is
how the observability-overhead gate encodes "< 5% overhead": the
plain/observed ratio sits near 1.0 by construction, so a relative
tolerance alone would wave through a 20% slowdown.

A report file that is missing or not valid JSON is malformed input
(exit 2) with a one-line message naming the file, never a traceback.

--self-test fabricates pass/fail report pairs in a temp directory and
asserts the exit codes; it is wired into ctest so the gate logic itself
is under test.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

TOLERANCE = 0.75  # fail below 75% of the committed ratio
DEFAULT_KEY = "speedup_vs_full_decode"


def load_report(path):
    with open(path) as f:
        doc = json.load(f)
    if "current" in doc:  # committed baselines wrap the bench output
        doc = doc["current"]
    return doc


def check_one(baseline_path, current_path, key):
    """Returns 0 on pass, 1 on regression, 2 on malformed input."""
    floor = None
    if "@" in key:
        key, floor_text = key.split("@", 1)
        try:
            floor = float(floor_text)
        except ValueError:
            print(f"ERROR: malformed floor in '{key}@{floor_text}'")
            return 2
    reports = {}
    for name, path in (("baseline", baseline_path), ("current", current_path)):
        try:
            reports[name] = load_report(path)
        except FileNotFoundError:
            print(f"ERROR: {name} report {path} not found")
            return 2
        except json.JSONDecodeError as error:
            print(f"ERROR: {name} report {path} is not valid JSON ({error})")
            return 2
    baseline, current = reports["baseline"], reports["current"]
    for name, doc, path in (("baseline", baseline, baseline_path),
                            ("current", current, current_path)):
        if key not in doc:
            print(f"ERROR: {name} report {path} has no key '{key}'")
            return 2

    base_ratio = float(baseline[key])
    cur_ratio = float(current[key])
    threshold = TOLERANCE * base_ratio

    print(f"== {key} ==")
    bench = current.get("bench", "?")
    workload = current.get("workload", {})
    if workload:
        detail = ", ".join(f"{k}={v}" for k, v in workload.items())
        print(f"workload ({bench})      : {detail}")
    print(f"baseline ratio          : {base_ratio:.3f}")
    print(f"current  ratio          : {cur_ratio:.3f}")
    print(f"threshold ({TOLERANCE:.0%} of base): {threshold:.3f}")

    if floor is not None:
        print(f"absolute floor          : {floor:.3f}")
        if cur_ratio < floor:
            print(f"FAIL: {key} at {cur_ratio:.3f} is below the absolute "
                  f"floor {floor:.3f}")
            return 1
    elif base_ratio > 1.0 and cur_ratio <= 1.0:
        print(f"FAIL: {key} fell to {cur_ratio:.3f} — the measured path is "
              "no longer faster than its in-process reference")
        return 1
    if cur_ratio < threshold:
        print(f"FAIL: {key} regressed more than {1 - TOLERANCE:.0%} vs the "
              "committed baseline")
        return 1
    print(f"PASS: {key} within tolerance of baseline")
    return 0


def self_test():
    """Fabricates report pairs and asserts the gate's exit codes."""
    def write(directory, name, doc):
        path = os.path.join(directory, name)
        with open(path, "w") as f:
            json.dump(doc, f)
        return path

    failures = []

    def expect(label, want, *argv, says=None):
        """`says`: text the gate's output must contain (captured)."""
        output = io.StringIO()
        with contextlib.redirect_stdout(output):
            got = run(list(argv))
        if says is None:
            print(output.getvalue(), end="")
        ok = got == want and (says is None or says in output.getvalue())
        status = "ok" if ok else (f"FAILED (want exit {want} saying "
                                  f"{says!r}, got {got}: "
                                  f"{output.getvalue().strip()!r})")
        print(f"self-test: {label}: exit {got} — {status}")
        if not ok:
            failures.append(label)

    with tempfile.TemporaryDirectory() as tmp:
        # Wrapped baseline (as committed) + bare current, both keys present.
        base = write(tmp, "base.json", {
            "description": "fabricated",
            "current": {"bench": "fake",
                        "workload": {"tasks": 1},
                        "speedup_vs_full_decode": 2.0,
                        "speedup_vs_single_shard": 1.0}})
        good = write(tmp, "good.json", {
            "bench": "fake", "speedup_vs_full_decode": 1.9,
            "speedup_vs_single_shard": 2.5})
        slow = write(tmp, "slow.json", {
            "bench": "fake", "speedup_vs_full_decode": 1.2,
            "speedup_vs_single_shard": 0.4})
        floor = write(tmp, "floor.json", {
            "bench": "fake", "speedup_vs_full_decode": 0.9,
            "speedup_vs_single_shard": 1.0})
        nokey = write(tmp, "nokey.json", {"bench": "fake"})

        expect("two-arg pass", 0, base, good)
        expect("two-arg regression", 1, base, slow)
        # speedup 0.9 still above 0.75*2.0=1.5? No: floor rule — baseline
        # 2.0 > 1.0 so current must stay above 1.0; 0.9 fails.
        expect("hard floor when baseline > 1", 1, base, floor)
        expect("missing key", 2, base, nokey, DEFAULT_KEY)
        expect("triple pass", 0, base, good, "speedup_vs_single_shard")
        # ~1.0 baseline imposes no floor: 0.8 >= 0.75*1.0 passes.
        expect("no floor at ~1.0 baseline", 0,
               write(tmp, "ok80.json",
                     {"bench": "fake", "speedup_vs_single_shard": 0.8}),
               write(tmp, "ok80b.json",
                     {"bench": "fake", "speedup_vs_single_shard": 0.8}),
               "speedup_vs_single_shard")
        expect("triple regression", 1, base, slow, "speedup_vs_single_shard")
        expect("two triples, second fails", 1,
               base, good, DEFAULT_KEY,
               base, slow, "speedup_vs_single_shard")
        expect("two triples pass", 0,
               base, good, DEFAULT_KEY,
               base, good, "speedup_vs_single_shard")

        # key@floor: absolute floors independent of the baseline ratio.
        obs_base = write(tmp, "obs_base.json", {
            "description": "fabricated",
            "current": {"bench": "fake", "plain_vs_observed": 1.01}})
        obs_good = write(tmp, "obs_good.json", {
            "bench": "fake", "plain_vs_observed": 0.97})
        obs_slow = write(tmp, "obs_slow.json", {
            "bench": "fake", "plain_vs_observed": 0.90})
        # Baseline pinned at exactly 1.0 so neither the >1.0 hard-floor
        # rule nor the relative tolerance fires — only the explicit floor
        # decides these cases.
        flat_base = write(tmp, "flat_base.json", {
            "bench": "fake", "plain_vs_observed": 1.0})
        expect("floor pass", 0, flat_base, obs_good,
               "plain_vs_observed@0.95")
        expect("floor fail", 1, flat_base, obs_slow,
               "plain_vs_observed@0.95")
        # Without the floor the same 0.90 sails through the 75% relative
        # tolerance — the floor is what makes the overhead gate bite.
        expect("no floor lets 0.90 pass", 0, flat_base, obs_slow,
               "plain_vs_observed")
        expect("malformed floor", 2, flat_base, obs_good,
               "plain_vs_observed@fast")
        # Wrapped committed baseline at 1.01: without the explicit floor
        # the implicit >1.0 rule would reject 0.97, but a parity bench's
        # 1.01 is noise, not a speedup — the explicit floor replaces it.
        expect("floor with wrapped baseline", 0, obs_base, obs_good,
               "plain_vs_observed@0.95")
        expect("implicit rule without floor", 1, obs_base, obs_good,
               "plain_vs_observed")

        # A baseline the repository does not have (or a bench that wrote
        # no report) is a one-line error naming the file, not a traceback.
        absent = os.path.join(tmp, "BENCH_absent.json")
        expect("missing baseline", 2, absent, good, DEFAULT_KEY,
               says=f"ERROR: baseline report {absent} not found")
        expect("missing current", 2, base, absent, DEFAULT_KEY,
               says=f"ERROR: current report {absent} not found")
        expect("missing baseline among triples", 2,
               base, good, DEFAULT_KEY,
               absent, obs_good, "plain_vs_observed@0.95",
               says=f"ERROR: baseline report {absent} not found")
        garbled = os.path.join(tmp, "garbled.json")
        with open(garbled, "w") as f:
            f.write("{not json")
        expect("garbled baseline", 2, garbled, good, DEFAULT_KEY,
               says=f"ERROR: baseline report {garbled} is not valid JSON")

    if failures:
        print(f"self-test FAILED: {failures}")
        return 1
    print("self-test passed")
    return 0


def run(argv):
    """Gates every (baseline, current, key) triple; worst exit code wins."""
    if len(argv) == 2:
        triples = [(argv[0], argv[1], DEFAULT_KEY)]
    elif len(argv) >= 3 and len(argv) % 3 == 0:
        triples = [tuple(argv[i:i + 3]) for i in range(0, len(argv), 3)]
    else:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    worst = 0
    for baseline, current, key in triples:
        worst = max(worst, check_one(baseline, current, key))
    return worst


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    return run(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
