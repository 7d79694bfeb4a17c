#!/usr/bin/env python3
"""Fail unless a traced perfbench run counted work in the named layers.

Usage:
  check_traced_layers.py <perfbench-output> <metric> [<metric> ...]
  check_traced_layers.py --self-test

<perfbench-output> is the standard output of
`python3 perfbench/run.py --trace 1 ...`, whose last line is one JSON
object with a "metrics" map.  Each named metric (e.g. xml.parse.calls)
must be present and non-zero.

The traced driver counts a layer by wrapping its functions at link time,
by mangled name.  When a signature drifts, the wrapper stops matching,
the layer silently reads zero, and the per-layer split goes blind; this
check turns that drift into a failed step.

Exit codes: 0 every metric non-zero, 1 a metric missing or zero, 2 the
output is unreadable or has no metrics line.
"""

import json
import os
import sys
import tempfile


def load_metrics(path):
    """The metrics map of the output's last line, or None if malformed."""
    try:
        with open(path) as f:
            lines = [line for line in f.read().splitlines() if line.strip()]
        doc = json.loads(lines[-1])
        metrics = doc["metrics"]
    except (OSError, ValueError, IndexError, KeyError, TypeError):
        return None
    return metrics if isinstance(metrics, dict) else None


def run(argv):
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[0])
        print("usage: check_traced_layers.py <perfbench-output> <metric>...")
        return 2
    path, names = argv[0], argv[1:]
    metrics = load_metrics(path)
    if metrics is None:
        print(f"ERROR: {path} does not end in a perfbench metrics line")
        return 2
    status = 0
    for name in names:
        value = metrics.get(name, {}).get("value")
        if not isinstance(value, (int, float)) or value == 0:
            print(f"FAIL: {name} = {value!r}: the traced driver no longer "
                  f"counts this layer")
            status = 1
        else:
            print(f"ok:   {name} = {value}")
    return status


def self_test():
    def report(metrics):
        return "# summary\n" + json.dumps({"correct": True,
                                           "metrics": metrics}) + "\n"

    cases = [
        ("non-zero counters pass", 0,
         report({"xml.parse.calls": {"value": 1199, "unit": "count"},
                 "xml.write.calls": {"value": 1200, "unit": "count"}})),
        ("a zero counter fails", 1,
         report({"xml.parse.calls": {"value": 0, "unit": "count"},
                 "xml.write.calls": {"value": 1200, "unit": "count"}})),
        ("a missing counter fails", 1,
         report({"xml.write.calls": {"value": 1200, "unit": "count"}})),
        ("no metrics line is malformed", 2, "build log only\n"),
        ("empty output is malformed", 2, ""),
    ]
    failures = 0
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "traced.out")
        for label, want, text in cases:
            with open(path, "w") as f:
                f.write(text)
            got = run([path, "xml.parse.calls", "xml.write.calls"])
            if got != want:
                print(f"SELF-TEST FAIL: {label}: exit {got}, want {want}")
                failures += 1
    print("self-test " + ("failed" if failures else "passed"))
    return 1 if failures else 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    return run(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv))
