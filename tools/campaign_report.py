#!/usr/bin/env python3
"""Fold a campaign's sampler time-series and final metrics snapshot into
one self-contained HTML health report.

Usage:
  campaign_report.py --series series.jsonl --metrics metrics.json \
      --out report.html [--title "..."]

Inputs are what the CLI writes for an observed run:

  gridlb campaign ... --metrics-interval 30 --series-out series.jsonl \
      --metrics-json metrics.json

The series is the obs::Sampler JSONL stream — one object per interval,
`t` plus counter *deltas* (omitted when zero), gauge values, and
histogram percentile columns (DESIGN.md §14).  The metrics file is the
end-of-run MetricsRegistry snapshot.  Everything is inlined: the output
is a single file with no external fetches, viewable offline and safe to
attach as a CI artifact.  Plots are hand-rolled SVG polylines drawn by a
small inline script from the embedded JSON — stdlib only on the Python
side, no JS dependencies on the browser side.

Derived panels:
  in-flight    cumulative flow.submitted − flow.completed − flow.dropped
  utilisation  flow.busy_us per interval / (dt × grid.total_nodes × 1e6)
  rates        flow.submitted and flow.completed per sim-second
"""

import argparse
import html
import json
import sys


def read_series(path):
    rows = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as err:
                raise SystemExit(f"{path}:{lineno}: bad JSONL row: {err}")
            if "t" not in row:
                raise SystemExit(f"{path}:{lineno}: row has no 't'")
            rows.append(row)
    return rows


def column(rows, key, default=0.0):
    return [float(row.get(key, default)) for row in rows]


def cumulative(values):
    out, total = [], 0.0
    for v in values:
        total += v
        out.append(total)
    return out


def intervals(times):
    """Width of each sampling interval; the first starts at t=0."""
    prev = 0.0
    widths = []
    for t in times:
        widths.append(max(t - prev, 1e-9))
        prev = t
    return widths


def build_panels(rows):
    """Returns [{title, unit, series: [{name, points: [[t, v], ...]}]}]."""
    t = [float(row["t"]) for row in rows]
    widths = intervals(t)

    def points(values):
        return [[ti, vi] for ti, vi in zip(t, values)]

    submitted = column(rows, "flow.submitted")
    completed = column(rows, "flow.completed")
    dropped = column(rows, "flow.dropped")
    in_flight = [s - c - d for s, c, d in zip(cumulative(submitted),
                                             cumulative(completed),
                                             cumulative(dropped))]

    panels = [{
        "title": "Tasks in flight",
        "unit": "tasks",
        "series": [{"name": "in flight", "points": points(in_flight)}],
    }, {
        "title": "Arrival / completion rate",
        "unit": "tasks per sim-second",
        "series": [
            {"name": "submitted",
             "points": points([v / w for v, w in zip(submitted, widths)])},
            {"name": "completed",
             "points": points([v / w for v, w in zip(completed, widths)])},
        ],
    }]

    nodes = column(rows, "grid.total_nodes")
    if any(nodes):
        busy = column(rows, "flow.busy_us")
        util = [b / (w * n * 1e6) if n else 0.0
                for b, w, n in zip(busy, widths, nodes)]
        panels.append({
            "title": "Grid utilisation",
            "unit": "busy node-time / capacity",
            "series": [{"name": "utilisation", "points": points(util)}],
        })

    depth_key = "sched.queue_depth.mean"
    if any(depth_key in row for row in rows):
        panels.append({
            "title": "Scheduler queue depth",
            "unit": "tasks (windowed)",
            "series": [
                {"name": "mean", "points": points(column(rows, depth_key))},
                {"name": "p90",
                 "points": points(column(rows, "sched.queue_depth.p90"))},
            ],
        })

    return panels


SUMMARY_ROWS = [
    ("Finished at", "gauges", "sim.finished_at", "sim-seconds"),
    ("Agents", "gauges", "grid.agents", ""),
    ("Grid nodes", "gauges", "grid.total_nodes", ""),
    ("Tasks submitted", "counters", "flow.submitted", ""),
    ("Tasks completed", "counters", "flow.completed", ""),
    ("Tasks dropped", "counters", "flow.dropped", ""),
    ("Network messages", "counters", "net.messages", ""),
    ("Mean discovery hops", "gauges", "discovery.mean_hops", ""),
    ("Trace events recorded", "counters", "obs.trace_events", ""),
    ("Trace events dropped", "counters", "obs.dropped_events", ""),
]


def build_summary(metrics):
    rows = []
    for label, section, key, unit in SUMMARY_ROWS:
        value = metrics.get(section, {}).get(key)
        if value is None:
            continue
        if isinstance(value, float) and not value.is_integer():
            text = f"{value:.3f}"
        else:
            text = f"{int(value)}"
        rows.append((label, text, unit))
    return rows


PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
  body {{ font: 14px/1.5 system-ui, sans-serif; margin: 2em auto;
          max-width: 960px; color: #1a1a2e; }}
  h1 {{ font-size: 1.4em; }}  h2 {{ font-size: 1.05em; margin-bottom: .2em; }}
  table {{ border-collapse: collapse; margin: 1em 0; }}
  td, th {{ border: 1px solid #ccd; padding: .25em .8em; text-align: left; }}
  .unit {{ color: #667; }}
  .panel {{ margin: 1.2em 0; }}
  .legend span {{ margin-right: 1.2em; font-size: .85em; }}
  svg {{ background: #fafaff; border: 1px solid #dde; }}
  .warn {{ background: #fff3e0; border: 1px solid #e8b26a;
           padding: .5em .8em; }}
</style>
</head>
<body>
<h1>{title}</h1>
{warning}
<table>
<tr><th>Metric</th><th>Value</th><th></th></tr>
{summary_rows}
</table>
<div id="panels"></div>
<script id="report-data" type="application/json">
{payload}
</script>
<script>
const COLORS = ["#3355bb", "#cc5533", "#229955", "#884499",
                "#997700", "#116677", "#bb3377", "#556633"];
const data = JSON.parse(document.getElementById("report-data").textContent);
const root = document.getElementById("panels");
const W = 880, H = 180, PAD = 48;

function extent(panels, pick) {{
  let lo = Infinity, hi = -Infinity;
  for (const s of panels) for (const p of s.points) {{
    lo = Math.min(lo, pick(p)); hi = Math.max(hi, pick(p));
  }}
  if (lo === Infinity) {{ lo = 0; hi = 1; }}
  if (lo === hi) {{ hi = lo + 1; }}
  return [lo, hi];
}}

for (const panel of data.panels) {{
  const div = document.createElement("div");
  div.className = "panel";
  const [t0, t1] = extent(panel.series, p => p[0]);
  let [v0, v1] = extent(panel.series, p => p[1]);
  v0 = Math.min(v0, 0);
  const x = t => PAD + (t - t0) / (t1 - t0) * (W - 2 * PAD);
  const y = v => H - PAD / 2 - (v - v0) / (v1 - v0) * (H - PAD);
  let svg = `<svg width="${{W}}" height="${{H}}" role="img">`;
  svg += `<line x1="${{PAD}}" y1="${{y(v0)}}" x2="${{W - PAD}}"` +
         ` y2="${{y(v0)}}" stroke="#99a"/>`;
  for (const v of [v0, (v0 + v1) / 2, v1]) {{
    svg += `<text x="4" y="${{y(v) + 4}}" font-size="10"` +
           ` fill="#667">${{+v.toFixed(2)}}</text>`;
  }}
  for (const t of [t0, (t0 + t1) / 2, t1]) {{
    svg += `<text x="${{x(t)}}" y="${{H - 4}}" font-size="10"` +
           ` fill="#667" text-anchor="middle">${{+t.toFixed(1)}}s</text>`;
  }}
  panel.series.forEach((s, i) => {{
    const pts = s.points.map(p => `${{x(p[0])}},${{y(p[1])}}`).join(" ");
    svg += `<polyline points="${{pts}}" fill="none"` +
           ` stroke="${{COLORS[i % COLORS.length]}}" stroke-width="1.5"/>`;
  }});
  svg += "</svg>";
  const legend = panel.series.map((s, i) =>
    `<span style="color:${{COLORS[i % COLORS.length]}}">▬ ` +
    `${{s.name}}</span>`).join("");
  div.innerHTML = `<h2>${{panel.title}}</h2>` +
    `<div class="legend">${{legend}}` +
    `<span class="unit">${{panel.unit}}</span></div>` + svg;
  root.appendChild(div);
}}
</script>
</body>
</html>
"""


def render(title, panels, summary, dropped):
    summary_html = "\n".join(
        f"<tr><td>{html.escape(label)}</td><td>{html.escape(value)}</td>"
        f"<td class=\"unit\">{html.escape(unit)}</td></tr>"
        for label, value, unit in summary)
    warning = ""
    if dropped:
        warning = (f"<p class=\"warn\">Trace ring overflowed: {dropped} "
                   "events dropped — trace a shorter or smaller run: fewer "
                   "--requests or --requests-per-agent, a shorter --duration "
                   "or fewer --grid-agents.</p>")
    # </script> inside the JSON payload would terminate the data block.
    payload = json.dumps({"panels": panels}).replace("</", "<\\/")
    return PAGE.format(title=html.escape(title), warning=warning,
                       summary_rows=summary_html, payload=payload)


def main(argv):
    parser = argparse.ArgumentParser(
        description="Render a campaign health report as one HTML file.")
    parser.add_argument("--series", required=True,
                        help="sampler JSONL (--series-out)")
    parser.add_argument("--metrics", required=True,
                        help="final metrics snapshot (--metrics-json)")
    parser.add_argument("--out", required=True, help="output HTML path")
    parser.add_argument("--title", default="Campaign health report")
    args = parser.parse_args(argv)

    rows = read_series(args.series)
    if not rows:
        raise SystemExit(f"{args.series}: series is empty — was the run "
                         "started with --metrics-interval?")
    with open(args.metrics) as f:
        metrics = json.load(f)

    dropped = int(metrics.get("counters", {}).get("obs.dropped_events", 0))
    page = render(args.title, build_panels(rows), build_summary(metrics),
                  dropped)
    with open(args.out, "w") as f:
        f.write(page)
    print(f"wrote {args.out}: {len(rows)} samples, "
          f"{len(build_panels(rows))} panels")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
