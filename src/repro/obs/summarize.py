"""Render a trace file human-readable: what did the stack decide, and why?

:func:`summarize_trace` digests a span/event stream into the report the
``repro obs summarize`` subcommand prints:

* **reconfigurations** — how many fired, per structure, and the top
  triggers (probe, controller switch, context switch, process-level
  selection...);
* **interval TPI timeline** — the per-interval TPI the monitoring
  hardware observed, in order;
* **candidate evaluations** — how many configurations were scored;
* **engine runs** — one line per ``engine.map`` span: cells, cache hits
  and misses, elapsed and busy time, worker utilization;
* **hottest evaluators** — wall time per engine cell kind and per
  structure ``run()``.

:func:`profile_report` renders just the last two sections: it is the
wall-time table ``--profile`` prints.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.obs.schema import read_records, validate_trace

#: Most intervals shown individually in the timeline before eliding.
TIMELINE_LIMIT: int = 24


def _fmt(value: Any, spec: str = "") -> str:
    if isinstance(value, (int, float)):
        return format(value, spec)
    return "?"


def _timeline(intervals: Sequence[Mapping[str, Any]]) -> list[str]:
    lines = [f"interval TPI timeline ({len(intervals)} interval(s)):"]
    tpis = [
        s["attrs"]["tpi_ns"]
        for s in intervals
        if isinstance(s["attrs"].get("tpi_ns"), (int, float))
    ]
    shown = intervals[:TIMELINE_LIMIT]
    for i, s in enumerate(shown):
        attrs = s["attrs"]
        label = attrs.get("app", attrs.get("index", i))
        cfg = attrs.get("configuration", "?")
        lines.append(
            f"  [{label}] config={cfg} tpi={_fmt(attrs.get('tpi_ns'), '.4f')} ns"
        )
    if len(intervals) > len(shown):
        lines.append(f"  ... {len(intervals) - len(shown)} more interval(s)")
    if tpis:
        lines.append(
            f"  mean {sum(tpis) / len(tpis):.4f} ns, "
            f"min {min(tpis):.4f} ns, max {max(tpis):.4f} ns"
        )
    return lines


def _worker_chunks(records: Sequence[Mapping[str, Any]]) -> int:
    """Distinct worker-tracer id prefixes (``w<hex>-``) in the records:
    one per chunk evaluation whose spans were stitched in."""
    prefixes = {
        r["id"].partition("-")[0]
        for r in records
        if isinstance(r.get("id"), str) and r["id"].startswith("w") and "-" in r["id"]
    }
    return len(prefixes)


def summarize_trace(records: Sequence[Mapping[str, Any]]) -> str:
    """Human-readable report over validated trace records.

    A file holding one trace renders as a single report.  A stitched or
    multi-request file (several trace ids, worker spans merged in) gets
    a per-trace breakdown: one section per trace id, in order of first
    appearance, each noting how many worker chunks contributed spans.
    """
    validate_trace(records)
    spans = [r for r in records if r["record"] == "span"]
    events = [r for r in records if r["record"] == "event"]
    by_trace: dict[str, list[Mapping[str, Any]]] = {}
    for r in records:
        by_trace.setdefault(r["trace_id"], []).append(r)
    header = (
        f"trace summary: {len(spans)} span(s), {len(events)} event(s), "
        f"{len(by_trace)} trace(s)"
    )
    if len(by_trace) <= 1:
        return "\n".join([header] + _trace_body(spans, events))
    out = [header]
    for tid, recs in by_trace.items():
        t_spans = [r for r in recs if r["record"] == "span"]
        t_events = [r for r in recs if r["record"] == "event"]
        chunks = _worker_chunks(recs)
        title = (
            f"--- trace {tid}: {len(t_spans)} span(s), "
            f"{len(t_events)} event(s)"
        )
        if chunks:
            title += f", {chunks} worker chunk(s)"
        out.append("")
        out.append(title)
        out.extend(_trace_body(t_spans, t_events))
    return "\n".join(out)


def _trace_body(
    spans: Sequence[Mapping[str, Any]], events: Sequence[Mapping[str, Any]]
) -> list[str]:
    """The per-trace report sections (everything below the header)."""
    out: list[str] = []

    # -- reconfigurations -------------------------------------------------
    reconfigures = [s for s in spans if s["level"] == "reconfigure"]
    out.append("")
    out.append(f"reconfigurations: {len(reconfigures)} total")
    by_structure: dict[str, int] = {}
    by_trigger: dict[str, int] = {}
    for s in reconfigures:
        by_structure[str(s["attrs"].get("structure", "?"))] = (
            by_structure.get(str(s["attrs"].get("structure", "?")), 0) + 1
        )
        by_trigger[str(s["attrs"].get("trigger", "?"))] = (
            by_trigger.get(str(s["attrs"].get("trigger", "?")), 0) + 1
        )
    if by_structure:
        out.append(
            "  by structure: "
            + ", ".join(f"{k}={v}" for k, v in sorted(by_structure.items()))
        )
    if by_trigger:
        out.append("  top triggers:")
        for trigger, count in sorted(
            by_trigger.items(), key=lambda kv: (-kv[1], kv[0])
        ):
            out.append(f"    {trigger}: {count}")

    # -- interval timeline ------------------------------------------------
    intervals = [s for s in spans if s["level"] == "interval"]
    out.append("")
    if intervals:
        out.extend(_timeline(intervals))
    else:
        out.append("interval TPI timeline: no interval spans recorded")

    # -- candidate evaluations -------------------------------------------
    candidates = [s for s in spans if s["level"] == "candidate"]
    if candidates:
        per_structure: dict[str, int] = {}
        for s in candidates:
            name = str(s["attrs"].get("structure", "?"))
            per_structure[name] = per_structure.get(name, 0) + 1
        out.append("")
        out.append(
            f"candidate evaluations: {len(candidates)} "
            + "("
            + ", ".join(f"{k}={v}" for k, v in sorted(per_structure.items()))
            + ")"
        )

    out.extend(_engine_runs(spans))
    out.extend(_hottest(spans, events))
    return out


def _engine_runs(spans: Sequence[Mapping[str, Any]]) -> list[str]:
    """One line per ``engine.map`` span; a run that raised before its
    counters were set renders ``?`` for them."""
    runs = [s for s in spans if s["name"] == "engine.map"]
    if not runs:
        return []
    out = ["", f"engine runs: {len(runs)}"]
    for s in runs:
        attrs = s["attrs"]
        elapsed, busy, jobs = (
            attrs.get("elapsed_s"), attrs.get("busy_s"), attrs.get("jobs")
        )
        try:
            util = busy / (elapsed * jobs)
        except (TypeError, ZeroDivisionError):
            util = None
        out.append(
            f"  engine.map {s['id']}: {_fmt(attrs.get('n_cells'))} cells "
            f"({_fmt(attrs.get('cache_hits'))} cached, "
            f"{_fmt(attrs.get('cache_misses'))} computed) "
            f"in {_fmt(elapsed, '.3f')}s on {_fmt(jobs)} job(s), "
            f"busy {_fmt(busy, '.3f')}s, utilization {_fmt(util, '.0%')}"
        )
    return out


def _hottest(
    spans: Sequence[Mapping[str, Any]], events: Sequence[Mapping[str, Any]]
) -> list[str]:
    """Wall time per engine cell kind and per structure ``run()``."""
    hot: dict[str, list[float]] = {}
    for e in events:
        if e["name"] != "engine.cell":
            continue
        kind = str(e["attrs"].get("kind", "?"))
        wall = e["attrs"].get("wall_s")
        entry = hot.setdefault(f"cell:{kind}", [0.0, 0.0])
        entry[0] += 1
        entry[1] += wall if isinstance(wall, (int, float)) else 0.0
    for s in spans:
        if s["level"] != "structure":
            continue
        key = f"structure:{s['attrs'].get('structure', '?')}"
        entry = hot.setdefault(key, [0.0, 0.0])
        entry[0] += 1
        entry[1] += s["dur_s"]
    if not hot:
        return []
    out = ["", "hottest evaluators:"]
    for key, (count, total) in sorted(hot.items(), key=lambda kv: -kv[1][1])[:10]:
        out.append(f"  {key}: {total:.4f}s over {int(count)} run(s)")
    return out


def profile_report(records: Sequence[Mapping[str, Any]]) -> str:
    """The ``--profile`` table: engine runs and hottest evaluators."""
    spans = [r for r in records if r["record"] == "span"]
    events = [r for r in records if r["record"] == "event"]
    lines = _engine_runs(spans) + _hottest(spans, events)
    if not lines:
        return "profile: no sections recorded"
    return "\n".join(["profile: wall time per section"] + lines)


def summarize_path(path: str | Path) -> str:
    """Summarize a JSONL trace file; anything else raises
    :class:`~repro.errors.ObservabilityError`."""
    records = read_records(path)
    if not records:
        return "empty trace"
    return summarize_trace(records)
