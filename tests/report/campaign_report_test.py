#!/usr/bin/env python3
"""Renders tools/campaign_report.py from a synthetic two-sample series and a
metrics snapshot whose trace ring dropped events, and checks the report's
warning gives the CLI's advice: trace a shorter or smaller run.

Usage: campaign_report_test.py <path to campaign_report.py>
"""

import importlib.util
import json
import os
import sys
import tempfile


def main(argv):
    spec = importlib.util.spec_from_file_location("campaign_report", argv[1])
    report = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(report)

    with tempfile.TemporaryDirectory() as work:
        series = os.path.join(work, "series.jsonl")
        metrics = os.path.join(work, "metrics.json")
        out = os.path.join(work, "report.html")
        with open(series, "w") as f:
            f.write('{"t": 30, "flow.submitted": 4, "flow.completed": 2}\n')
            f.write('{"t": 60, "flow.submitted": 1, "flow.completed": 3}\n')
        with open(metrics, "w") as f:
            json.dump({"counters": {"obs.trace_events": 500,
                                    "obs.dropped_events": 7},
                       "gauges": {}}, f)
        report.main(["--series", series, "--metrics", metrics,
                     "--out", out])
        with open(out) as f:
            page = f.read()

    failures = []
    if "7 events dropped" not in page:
        failures.append("no dropped-events warning")
    if "trace a shorter or smaller run" not in page:
        failures.append("warning lacks the CLI's advice")
    if "ring capacity" in page:
        failures.append("warning names the ring capacity, which no flag sets")
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print("PASS: the dropped-events warning gives the CLI's advice")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
