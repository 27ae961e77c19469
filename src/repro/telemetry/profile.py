"""Span-scoped statistical profiler: where the wall time actually went.

Spans say *that* ``explore.batch`` took 40% of the run; they cannot say
*which frames inside it* burned the time.  This module adds that second
axis without touching the per-step hot loop (the PR 5 constraint): a
daemon thread wakes every ``interval`` seconds, grabs the main thread's
current stack via ``sys._current_frames()`` — a single C-level dict read,
zero cost to the profiled code between samples — and attributes the
sample to the innermost open telemetry span by reading the active
session's open-span stack.  No ``sys.setprofile`` hook is ever installed,
so the interpreter runs at full speed and verdicts are bit-identical with
profiling on or off.

Output is the collapsed-stack ("folded") format flamegraph tooling eats::

    explore.batch;repro.explore.frontier:_expand_batch;... 128

one line per distinct ``span;frame;frame...`` stack with its sample
count, root-first, sorted for stable diffs.  The first segment is the
span name (``(no span)`` outside any span), the rest are ``module:func``
frames with repro files rendered as dotted module paths.  ``repro
report`` renders the top-N table from ``profile.folded`` when present;
the profiler writes no events into the JSONL stream, so golden streams
are untouched.

Being statistical, counts are estimates: a frame with N samples at
interval ``i`` held the main thread for roughly ``N*i`` seconds.  The
profile is inherently volatile (it measures the host's clock), which is
why it lives in its own file and never in ``attrs``.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Default sampling period: 5ms ≈ 200Hz, coarse enough to be invisible,
#: fine enough to resolve batch-scale work.
DEFAULT_INTERVAL = 0.005

#: The span label for samples taken outside any open span.
NO_SPAN = "(no span)"


def frame_label(filename: str, funcname: str) -> str:
    """A stack frame as ``module:func``, with repro files dotted.

    ``.../src/repro/explore/frontier.py`` + ``_expand_one`` becomes
    ``repro.explore.frontier:_expand_one``; files outside the package
    keep their bare stem so stdlib frames stay short.
    """
    path = Path(filename)
    parts = path.with_suffix("").parts
    if "repro" in parts:
        module = ".".join(parts[parts.index("repro"):])
    else:
        module = path.stem
    return f"{module}:{funcname}"


class SpanProfiler:
    """Samples the main thread's stack, attributed to open span names.

    Usage::

        profiler = SpanProfiler()
        profiler.start()
        ...  # the run
        profiler.stop()
        profiler.write(run_dir / "profile.folded")

    ``start``/``stop`` are cheap and idempotent-safe in the intended
    one-shot lifecycle (the CLI dispatcher owns exactly one profiler per
    command).  The sampling thread is a daemon, so a crashed run never
    hangs on it.
    """

    def __init__(self, interval: float = DEFAULT_INTERVAL) -> None:
        self.interval = interval
        self.samples: Dict[Tuple[str, ...], int] = {}
        self._target: Optional[int] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def start(self) -> None:
        """Begin sampling the calling thread from a background thread."""
        if self._thread is not None:
            return
        self._target = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the sampling thread and wait for it to exit."""
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join(timeout=2.0)
        self._thread = None

    def _span_label(self) -> str:
        from repro.telemetry import session

        active = session.active()
        if active is None:
            return NO_SPAN
        open_spans = active.open_spans()
        return open_spans[-1][1] if open_spans else NO_SPAN

    def _sample_once(self) -> None:
        frames = sys._current_frames()
        frame = frames.get(self._target) if self._target is not None else None
        if frame is None:
            return
        stack: List[str] = []
        while frame is not None:
            stack.append(
                frame_label(frame.f_code.co_filename, frame.f_code.co_name)
            )
            frame = frame.f_back
        stack.reverse()
        key = (self._span_label(), *stack)
        self.samples[key] = self.samples.get(key, 0) + 1

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample_once()

    def folded_lines(self) -> List[str]:
        """The collected samples as sorted collapsed-stack lines."""
        return [
            ";".join(stack) + f" {count}"
            for stack, count in sorted(self.samples.items())
        ]

    def write(self, path) -> int:
        """Write ``profile.folded`` at *path*; returns the sample count."""
        lines = self.folded_lines()
        Path(path).write_text(
            "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8"
        )
        return sum(self.samples.values())


# ----------------------------------------------------------------- #
# Reading profiles back (the report side)
# ----------------------------------------------------------------- #


def read_folded(path) -> List[Tuple[Tuple[str, ...], int]]:
    """Parse a collapsed-stack file into ``(stack, count)`` pairs.

    Malformed lines (no count, non-integer count) are skipped rather
    than fatal, and a missing file reads as no samples — a profile is
    advisory, never load-bearing.
    """
    entries: List[Tuple[Tuple[str, ...], int]] = []
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return entries
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack_part, _, count_part = line.rpartition(" ")
        if not stack_part or not count_part.isdigit():
            continue
        entries.append((tuple(stack_part.split(";")), int(count_part)))
    return entries


def span_totals(
    entries: List[Tuple[Tuple[str, ...], int]]
) -> List[Tuple[str, int]]:
    """Cumulative samples per span name, heaviest first."""
    totals: Dict[str, int] = {}
    for stack, count in entries:
        totals[stack[0]] = totals.get(stack[0], 0) + count
    return sorted(totals.items(), key=lambda item: (-item[1], item[0]))


def top_frames(
    entries: List[Tuple[Tuple[str, ...], int]], limit: int = 12
) -> List[Tuple[str, str, int]]:
    """The hottest ``(span, leaf frame, self samples)`` rows.

    Self time goes to the leaf frame of each sampled stack — the frame
    that actually held the interpreter when the sample fired.
    """
    self_counts: Dict[Tuple[str, str], int] = {}
    for stack, count in entries:
        leaf = stack[-1] if len(stack) > 1 else "(unknown)"
        key = (stack[0], leaf)
        self_counts[key] = self_counts.get(key, 0) + count
    ranked = sorted(
        self_counts.items(), key=lambda item: (-item[1], item[0])
    )
    return [(span, frame, count) for (span, frame), count in ranked[:limit]]
