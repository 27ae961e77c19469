"""``repro report``: render a Markdown run report from a telemetry stream.

The report is the post-hoc, human-auditable account of one telemetered
run, built entirely from ``events.jsonl`` (no live process needed):

* the **verdict** and exit code from ``run_end``;
* the run's **parameters** from ``run_start`` — the same echo that makes
  a printed violation reproducible from the transcript;
* the **register footprint** table — registers written vs provisioned,
  the exact quantity the paper's covering lower bound reasons about;
* **top spans** by total wall time (where the run actually went);
* **histogram summaries** and the retry / recovery counters.

Durations in the span and histogram sections come from the stream's
volatile section — they are real wall-clock numbers and are expected to
differ between runs; everything else in the report is deterministic.

When the run directory carries a ``profile.folded`` (a ``--profile``
run), the report adds a top-N table of the sampler's hottest frames; and
``repro report --bench`` renders the perf trend table from a
``BENCH_telemetry.json`` aggregate instead of an event stream (the
repository root holds a frozen snapshot of the retired pytest timing
benches' records; ``perfbench/`` measures the engine's speed today).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import ReproError
from repro.telemetry.schema import EVENT_KEYS, _events_path


class TruncatedStream(ReproError):
    """An event stream that exists but cannot be rendered.

    Raised for empty files and mid-write-truncated or otherwise mangled
    lines — the cases ``repro report`` must answer with a one-line
    diagnostic and exit code 1 (a bad artifact), distinct from exit 2
    (no artifact at all, plain :class:`~repro.errors.ReproError`).
    """


def load_events(path) -> List[Dict]:
    """Parse the event stream at *path* (run directory or file).

    Raises a plain :class:`~repro.errors.ReproError` when no stream
    exists, and :class:`TruncatedStream` when one exists but is empty,
    unparseable, or carries events without the required keys — a
    mid-write kill leaves exactly these artifacts, and the renderer must
    diagnose them in one line rather than traceback on a ``KeyError``.
    """
    events_path = _events_path(path)
    if not events_path.exists():
        raise ReproError(
            f"no telemetry stream at {events_path} — run a command with "
            "--telemetry=jsonl first"
        )
    events: List[Dict] = []
    with open(events_path, "r", encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                event = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise TruncatedStream(
                    f"{events_path}:{line_no}: unparseable event ({exc.msg})"
                ) from exc
            if (not isinstance(event, dict)
                    or any(key not in event for key in EVENT_KEYS)):
                raise TruncatedStream(
                    f"{events_path}:{line_no}: malformed event "
                    f"(expected keys {list(EVENT_KEYS)})"
                )
            events.append(event)
    if not events:
        raise TruncatedStream(f"{events_path} is empty")
    return events


def _first(events: List[Dict], type_: str) -> Optional[Dict]:
    for event in events:
        if event["type"] == type_:
            return event
    return None


def _md_table(headers: List[str], rows: List[List[str]]) -> List[str]:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    for row in rows:
        lines.append("| " + " | ".join(str(cell) for cell in row) + " |")
    return lines


def _span_aggregate(events: List[Dict]) -> List[Dict]:
    """Spans grouped by name: count, total / mean / max duration."""
    grouped: Dict[str, Dict] = {}
    for event in events:
        if event["type"] != "span":
            continue
        dur = float(event["vol"].get("dur", 0.0))
        agg = grouped.setdefault(
            event["name"], {"name": event["name"], "count": 0,
                            "total": 0.0, "max": 0.0}
        )
        agg["count"] += 1
        agg["total"] += dur
        agg["max"] = max(agg["max"], dur)
    return sorted(grouped.values(), key=lambda a: -a["total"])


def _metric(metrics: Optional[Dict], group: str, name: str,
            default=None):
    """Look *name* up across the deterministic and volatile sides."""
    if metrics is None:
        return default
    for side in ("attrs", "vol"):
        value = metrics.get(side, {}).get(group, {}).get(name)
        if value is not None:
            return value
    return default


def render_report(path) -> str:
    """The Markdown run report for the stream at *path*."""
    events = load_events(path)
    start = _first(events, "run_start")
    end = _first(events, "run_end")
    metrics = _first(events, "metrics")
    command = start["name"] if start else "unknown"
    lines: List[str] = [f"# Run report — `repro {command}`", ""]

    # Verdict ------------------------------------------------------ #
    if end is not None:
        verdict = end["attrs"].get("verdict") or "unknown"
        code = end["attrs"].get("exit_code")
        wall = end["vol"].get("ts")
        wall_text = f", {wall:.2f}s wall" if isinstance(wall, (int, float)) else ""
        lines += [f"**Verdict:** {verdict} (exit code {code}{wall_text})", ""]
    else:
        lines += ["**Verdict:** stream has no `run_end` — the run was "
                  "interrupted before closing its telemetry session.", ""]

    # Parameters --------------------------------------------------- #
    if start is not None and start["attrs"]:
        lines += ["## Parameters", ""]
        rows = [
            [f"`{key}`", repr(value)]
            for key, value in sorted(start["attrs"].items())
        ]
        lines += _md_table(["parameter", "value"], rows) + [""]

    # Register footprint ------------------------------------------- #
    written = _metric(metrics, "gauges", "footprint.registers_written")
    provisioned = _metric(metrics, "gauges", "footprint.registers_provisioned")
    memory_steps = _metric(metrics, "counters", "footprint.memory_steps")
    write_steps = _metric(metrics, "counters", "footprint.write_steps")
    if written is not None or provisioned is not None:
        lines += [
            "## Register footprint",
            "",
            "Registers *written* is the run's actual space use — the "
            "quantity the Figure 1 covering argument bounds; *provisioned* "
            "is the layout's static allocation.",
            "",
        ]
        rows = []
        if provisioned is not None:
            rows.append(["registers provisioned", int(provisioned)])
        if written is not None:
            rows.append(["registers written", int(written)])
        if provisioned and written is not None:
            rows.append(
                ["utilization", f"{100.0 * written / provisioned:.0f}%"]
            )
        if memory_steps is not None:
            rows.append(["memory steps", int(memory_steps)])
        if write_steps is not None:
            rows.append(["write steps", int(write_steps)])
        lines += _md_table(["measure", "value"], rows) + [""]

    # Top spans ---------------------------------------------------- #
    aggregates = _span_aggregate(events)
    if aggregates:
        lines += ["## Top spans (by total wall time)", ""]
        rows = [
            [f"`{agg['name']}`", agg["count"], f"{agg['total']:.3f}s",
             f"{agg['total'] / agg['count']:.4f}s", f"{agg['max']:.4f}s"]
            for agg in aggregates[:12]
        ]
        lines += _md_table(
            ["span", "count", "total", "mean", "max"], rows
        ) + [""]

    # Profile ------------------------------------------------------ #
    lines += _profile_section(path)

    # Histograms --------------------------------------------------- #
    histogram_rows = []
    if metrics is not None:
        for side in ("attrs", "vol"):
            for name, data in sorted(
                metrics.get(side, {}).get("histograms", {}).items()
            ):
                count = data.get("count", 0)
                mean = data.get("total", 0.0) / count if count else 0.0
                histogram_rows.append(
                    [f"`{name}`", count, f"{mean:.4f}",
                     "volatile" if side == "vol" else "deterministic"]
                )
    if histogram_rows:
        lines += ["## Histograms", ""]
        lines += _md_table(
            ["histogram", "count", "mean", "kind"], histogram_rows
        ) + [""]

    # Resilience counters ------------------------------------------ #
    resilience = [
        ("worker retries", "explore.worker_retries"),
        ("campaign retries", "faults.retries"),
        ("journal appends", "durable.appends"),
        ("journal checkpoints", "durable.checkpoints"),
        ("journal recoveries", "durable.recoveries"),
        ("journal records recovered", "durable.records_recovered"),
    ]
    rows = []
    for label, name in resilience:
        value = _metric(metrics, "counters", name)
        if value is not None:
            rows.append([label, int(value)])
    if rows:
        lines += ["## Retries and recovery", ""]
        lines += _md_table(["counter", "value"], rows) + [""]

    lines += [
        "---",
        f"_Rendered from `{Path(_events_path(path))}` "
        f"({len(events)} events)._",
        "",
    ]
    return "\n".join(lines)


def _profile_section(path) -> List[str]:
    """The sampler's top-N table, when the run directory has a profile."""
    from repro.telemetry.profile import read_folded, span_totals, top_frames
    from repro.telemetry.sinks import PROFILE_FILE

    profile_path = Path(_events_path(path)).parent / PROFILE_FILE
    if not profile_path.exists():
        return []
    try:
        entries = read_folded(profile_path)
    except OSError:  # pragma: no cover — unreadable profile is advisory
        return []
    if not entries:
        return []
    total = sum(count for _, count in entries)
    lines = [
        "## Profile (statistical, by sampled stack)",
        "",
        f"{total} samples from `{profile_path.name}`; self time goes to "
        "the leaf frame, attributed to the innermost open span.",
        "",
    ]
    rows = [
        [f"`{span}`", f"`{frame}`", count, f"{100.0 * count / total:.1f}%"]
        for span, frame, count in top_frames(entries)
    ]
    lines += _md_table(["span", "frame", "self samples", "share"], rows) + [""]
    span_rows = [
        [f"`{span}`", count, f"{100.0 * count / total:.1f}%"]
        for span, count in span_totals(entries)[:8]
    ]
    lines += ["### Cumulative samples per span", ""]
    lines += _md_table(["span", "samples", "share"], span_rows) + [""]
    return lines


def render_bench_report(path) -> str:
    """The Markdown perf-trend table for a ``BENCH_telemetry.json``.

    The aggregate's records carry provenance since schema 2 (git commit,
    host fingerprint); the table groups records by name so the trajectory
    of one benchmark across commits reads top to bottom.
    """
    aggregate_path = Path(path)
    if aggregate_path.is_dir():
        aggregate_path = aggregate_path / "BENCH_telemetry.json"
    if not aggregate_path.exists():
        raise ReproError(
            f"no benchmark aggregate at {aggregate_path} — pass the "
            "repository root, whose BENCH_telemetry.json holds the "
            "recorded benchmark history"
        )
    try:
        aggregate = json.loads(aggregate_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise TruncatedStream(
            f"{aggregate_path}: unreadable benchmark aggregate ({exc})"
        ) from exc
    records = aggregate.get("records") if isinstance(aggregate, dict) else None
    if isinstance(records, dict):  # the aggregate keys records by name
        records = list(records.values())
    if not isinstance(records, list) or not records:
        raise TruncatedStream(f"{aggregate_path}: no benchmark records")
    lines = [
        "# Benchmark trend report",
        "",
        f"Schema {aggregate.get('schema')}, {len(records)} records from "
        f"`{aggregate_path}`.",
        "",
    ]
    rows = []
    for record in sorted(
        records, key=lambda r: (str(r.get("name", "")), str(r.get("commit", "")))
    ):
        if not isinstance(record, dict):
            continue
        host = record.get("host") or {}
        host_text = (
            f"{host.get('platform', '?')}/{host.get('cpus', '?')}cpu"
            if isinstance(host, dict) else "?"
        )
        wall = record.get("wall_s")
        rss = record.get("peak_rss_mb")
        rows.append([
            f"`{record.get('name', '?')}`",
            record.get("commit", "?"),
            f"{wall:.3f}s" if isinstance(wall, (int, float)) else "?",
            f"{rss:.0f}MiB" if isinstance(rss, (int, float)) else "?",
            host_text,
        ])
    lines += _md_table(
        ["benchmark", "commit", "wall", "peak rss", "host"], rows
    ) + [""]
    return "\n".join(lines)
