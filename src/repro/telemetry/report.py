"""Self-contained HTML run reports from JSONL trace files.

``repro report --trace run.jsonl`` turns any telemetry trace — a
``--trace-out`` file of any command, ``bench`` included, or a service's
trace log — into one dependency-free HTML page:

* a **waterfall** of the span forest (depth-indented rows, bars scaled
  to the trace's wall-clock extent, per-process colour),
* a **per-stage table** aggregating wall time by span name,
* **cache** hit/miss rates and **parallel** fallback counts pulled from
  the counter snapshots,
* **histogram** summaries (count / mean / p50 / p90 / p99) and
  **test-zone hit** bar charts from the ``testzones.*`` counters.

Everything is inline — no JS, no external CSS — so the file can be
attached to a CI run or mailed around as-is.
"""

from __future__ import annotations

import html
import json
from typing import Dict, Iterable, List, Optional, Tuple

from .sinks import reconstruct_spans
from .spans import Span, format_duration

__all__ = ["load_trace", "render_run_report", "write_run_report"]

#: Waterfall rows are capped so a million-span trace still renders; the
#: truncation is announced in the page.
MAX_WATERFALL_ROWS = 2000

_PROCESS_COLORS = ("#4c78a8", "#f58518", "#54a24b", "#b279a2",
                   "#e45756", "#72b7b2", "#9d755d", "#eeca3b")

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial, sans-serif;
       margin: 2em auto; max-width: 72em; color: #1a1a2e; }
h1 { font-size: 1.5em; border-bottom: 2px solid #4c78a8; padding-bottom: .3em; }
h2 { font-size: 1.15em; margin-top: 2em; }
table { border-collapse: collapse; margin: .8em 0; font-size: .9em; }
th, td { border: 1px solid #ccd; padding: .25em .6em; text-align: left; }
th { background: #eef1f7; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.waterfall { font-size: .8em; }
.wf-row { display: flex; align-items: center; height: 1.4em;
          white-space: nowrap; }
.wf-label { width: 28em; overflow: hidden; text-overflow: ellipsis;
            flex: none; font-family: ui-monospace, monospace; }
.wf-track { position: relative; flex: 1; height: 1em;
            background: #f4f5f8; }
.wf-bar { position: absolute; height: 100%; min-width: 1px;
          border-radius: 2px; }
.wf-dur { width: 6em; flex: none; text-align: right;
          font-variant-numeric: tabular-nums; padding-left: .6em; }
.wf-error { outline: 1.5px solid #d62728; }
.bar-outer { background: #f4f5f8; width: 16em; display: inline-block;
             height: .85em; vertical-align: middle; }
.bar-inner { background: #4c78a8; height: 100%; display: block; }
.note { color: #667; font-size: .85em; }
.legend span { margin-right: 1.2em; }
.swatch { display: inline-block; width: .8em; height: .8em;
          border-radius: 2px; margin-right: .3em; vertical-align: middle; }
"""


def load_trace(path: str) -> List[Dict[str, object]]:
    """Events from a JSONL trace file, blank lines skipped."""
    events: List[Dict[str, object]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def _latest_metrics(events: Iterable[Dict[str, object]]
                    ) -> Dict[str, Dict[str, object]]:
    latest: Dict[str, Dict[str, object]] = {}
    for e in events:
        if e.get("type") in ("counter", "gauge", "histogram"):
            latest[str(e["name"])] = e
    return latest


def _flatten(roots: List[Span]) -> List[Tuple[Span, int]]:
    """Depth-first (span, depth) rows in waterfall order."""
    rows: List[Tuple[Span, int]] = []
    stack = [(sp, 0) for sp in reversed(roots)]
    while stack:
        sp, depth = stack.pop()
        rows.append((sp, depth))
        for child in reversed(sp.children):
            stack.append((child, depth + 1))
    return rows


def _pid_colors(rows: List[Tuple[Span, int]]) -> Dict[int, str]:
    colors: Dict[int, str] = {}
    for sp, _ in rows:
        if sp.pid not in colors:
            colors[sp.pid] = _PROCESS_COLORS[
                len(colors) % len(_PROCESS_COLORS)]
    return colors


def _waterfall_section(roots: List[Span]) -> List[str]:
    rows = _flatten(roots)
    if not rows:
        return ["<p class='note'>No spans in this trace.</p>"]
    t0 = min(sp.start for sp, _ in rows)
    t1 = max(sp.end if sp.end is not None else sp.start for sp, _ in rows)
    extent = max(t1 - t0, 1e-9)
    out = ["<h2>Span waterfall</h2>"]
    colors = _pid_colors(rows)
    if len(colors) > 1:
        out.append("<p class='legend'>" + "".join(
            f"<span><i class='swatch' style='background:{color}'></i>"
            f"pid {pid}</span>" for pid, color in colors.items()) + "</p>")
    truncated = len(rows) - MAX_WATERFALL_ROWS
    out.append("<div class='waterfall'>")
    for sp, depth in rows[:MAX_WATERFALL_ROWS]:
        dur = sp.duration
        left = 100.0 * (sp.start - t0) / extent
        width = max(100.0 * dur / extent, 0.05)
        label = html.escape(sp.name)
        indent = depth * 1.1
        err = " wf-error" if sp.error else ""
        title = html.escape(
            f"{sp.name} — {format_duration(dur)}"
            + (f" — {sp.error}" if sp.error else ""))
        out.append(
            f"<div class='wf-row' title='{title}'>"
            f"<div class='wf-label' style='padding-left:{indent:.1f}em'>"
            f"{label}</div>"
            f"<div class='wf-track'><div class='wf-bar{err}' "
            f"style='left:{left:.3f}%;width:{width:.3f}%;"
            f"background:{colors[sp.pid]}'></div></div>"
            f"<div class='wf-dur'>{format_duration(dur)}</div>"
            f"</div>")
    out.append("</div>")
    if truncated > 0:
        out.append(f"<p class='note'>… {truncated} more span rows "
                   f"truncated (showing first {MAX_WATERFALL_ROWS}).</p>")
    return out


def _stage_table(roots: List[Span]) -> List[str]:
    agg: Dict[str, List[float]] = {}
    for sp, _ in _flatten(roots):
        entry = agg.setdefault(sp.name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += sp.duration
        entry[2] = max(entry[2], sp.duration)
    if not agg:
        return []
    out = ["<h2>Wall time by stage</h2>",
           "<table><tr><th>span</th><th>count</th><th>total</th>"
           "<th>mean</th><th>max</th></tr>"]
    for name, (n, total, peak) in sorted(agg.items(),
                                         key=lambda kv: -kv[1][1]):
        out.append(
            f"<tr><td>{html.escape(name)}</td>"
            f"<td class='num'>{n}</td>"
            f"<td class='num'>{format_duration(total)}</td>"
            f"<td class='num'>{format_duration(total / n)}</td>"
            f"<td class='num'>{format_duration(peak)}</td></tr>")
    out.append("</table>")
    return out


def _rate_row(label: str, hits: float, misses: float) -> str:
    total = hits + misses
    rate = f"{100.0 * hits / total:.1f}%" if total else "–"
    return (f"<tr><td>{html.escape(label)}</td>"
            f"<td class='num'>{hits:g}</td><td class='num'>{misses:g}</td>"
            f"<td class='num'>{rate}</td></tr>")


def _cache_pair(hit_name: str) -> Optional[Tuple[str, str]]:
    """``(miss_counter, row_label)`` for a hit counter, matching either
    convention: ``<x>.hits``/``<x>.misses`` or the cache store's
    ``cache.hit[.kind]``/``cache.miss[.kind]``."""
    if hit_name.endswith(".hits"):
        stem = hit_name[: -len(".hits")]
        return stem + ".misses", stem
    if hit_name == "cache.hit" or hit_name.startswith("cache.hit."):
        suffix = hit_name[len("cache.hit"):]
        return "cache.miss" + suffix, "cache" + suffix
    return None


def _cache_section(metrics: Dict[str, Dict[str, object]]) -> List[str]:
    pairs: List[Tuple[str, float, float]] = []
    for name, e in sorted(metrics.items()):
        if e["type"] != "counter":
            continue
        pair = _cache_pair(name)
        if pair is None:
            continue
        miss_name, label = pair
        miss = metrics.get(miss_name)
        # A fully-warm cache never instantiates its miss counter; that
        # is 0 misses, not "no cache activity".
        misses = (float(miss["value"])  # type: ignore[arg-type]
                  if miss is not None and miss["type"] == "counter"
                  else 0.0)
        pairs.append((label,
                      float(e["value"]),  # type: ignore[arg-type]
                      misses))
    if not pairs:
        return []
    out = ["<h2>Cache hit rates</h2>",
           "<table><tr><th>cache</th><th>hits</th><th>misses</th>"
           "<th>hit rate</th></tr>"]
    out.extend(_rate_row(label, h, m) for label, h, m in pairs)
    out.append("</table>")
    return out


def _parallel_section(metrics: Dict[str, Dict[str, object]]) -> List[str]:
    names = [n for n in metrics
             if n.startswith("parallel.") and metrics[n]["type"] == "counter"]
    if not names:
        return []
    out = ["<h2>Parallel execution</h2>",
           "<table><tr><th>counter</th><th>value</th></tr>"]
    for name in sorted(names):
        out.append(f"<tr><td>{html.escape(name)}</td>"
                   f"<td class='num'>{metrics[name]['value']}</td></tr>")
    out.append("</table>")
    return out


def _gates_section(metrics: Dict[str, Dict[str, object]]) -> List[str]:
    names = [n for n in metrics
             if n.startswith("gates.") and metrics[n]["type"] == "counter"]
    if not names:
        return []
    out = ["<h2>Gate-level fault sim</h2>",
           "<table><tr><th>counter</th><th>value</th></tr>"]
    for name in sorted(names):
        out.append(f"<tr><td>{html.escape(name)}</td>"
                   f"<td class='num'>{metrics[name]['value']}</td></tr>")
    out.append("</table>")
    return out


def _histogram_section(metrics: Dict[str, Dict[str, object]]) -> List[str]:
    rows = []
    for name, e in sorted(metrics.items()):
        if e["type"] != "histogram" or not e.get("count"):
            continue
        mean = float(e["sum"]) / float(e["count"])  # type: ignore[arg-type]
        cells = [f"<td>{html.escape(name)}</td>",
                 f"<td class='num'>{e['count']}</td>",
                 f"<td class='num'>{mean:.4g}</td>"]
        for key in ("p50", "p90", "p99"):
            value = e.get(key)
            cells.append("<td class='num'>"
                         + (f"{value:.4g}" if value is not None else "–")
                         + "</td>")
        rows.append("<tr>" + "".join(cells) + "</tr>")
    if not rows:
        return []
    return (["<h2>Latency histograms</h2>",
             "<table><tr><th>histogram</th><th>n</th><th>mean</th>"
             "<th>p50</th><th>p90</th><th>p99</th></tr>"]
            + rows + ["</table>"])


def _testzone_section(metrics: Dict[str, Dict[str, object]]) -> List[str]:
    zones = [(n, float(e["value"]))  # type: ignore[arg-type]
             for n, e in sorted(metrics.items())
             if n.startswith("testzones.") and e["type"] == "counter"]
    if not zones:
        return []
    peak = max(v for _, v in zones) or 1.0
    out = ["<h2>Test-zone hits</h2>",
           "<table><tr><th>zone</th><th>hits</th><th></th></tr>"]
    for name, value in zones:
        pct = 100.0 * value / peak
        out.append(
            f"<tr><td>{html.escape(name)}</td><td class='num'>{value:g}</td>"
            f"<td><span class='bar-outer'><span class='bar-inner' "
            f"style='width:{pct:.1f}%'></span></span></td></tr>")
    out.append("</table>")
    return out


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------
def render_run_report(events: List[Dict[str, object]], *,
                      title: str = "repro run report") -> str:
    """The full HTML page for a trace's events."""
    span_events = [e for e in events if e.get("type") == "span"]
    roots = reconstruct_spans(events)
    metrics = _latest_metrics(events)
    trace_id = next((str(e["trace"]) for e in span_events
                     if e.get("trace")), "")
    pids = sorted({int(e.get("pid") or 0) for e in span_events})

    body: List[str] = [f"<h1>{html.escape(title)}</h1>"]
    facts = [f"{len(span_events)} spans", f"{len(metrics)} metrics"]
    if trace_id:
        facts.insert(0, f"trace <code>{html.escape(trace_id)}</code>")
    if pids:
        facts.append(f"{len(pids)} process(es)")
    body.append("<p class='note'>" + " · ".join(facts) + "</p>")
    body.extend(_waterfall_section(roots))
    body.extend(_stage_table(roots))
    body.extend(_cache_section(metrics))
    body.extend(_parallel_section(metrics))
    body.extend(_gates_section(metrics))
    body.extend(_histogram_section(metrics))
    body.extend(_testzone_section(metrics))

    return ("<!DOCTYPE html>\n<html><head><meta charset='utf-8'>"
            f"<title>{html.escape(title)}</title>"
            f"<style>{_CSS}</style></head>\n<body>\n"
            + "\n".join(body) + "\n</body></html>\n")


def write_run_report(path: str, events: List[Dict[str, object]], *,
                     title: str = "repro run report") -> None:
    """Render and write the report page to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render_run_report(events, title=title))
