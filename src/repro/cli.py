"""Command-line interface: run, explore, and reproduce from the shell.

Installed as ``python -m repro``.  Sub-commands mirror the library's main
entry points:

* ``bounds``    — print the Figure 1 table for one (n, m, k);
* ``run``       — run a protocol under a chosen adversary and report
  outputs, step counts and (optionally) a space-time diagram;
* ``explore``   — exhaustively model-check a small instance;
* ``covering``  — run the Theorem 2 covering construction against an
  under-provisioned Figure 4 and print the certified violation;
* ``glue``      — run the Lemma 9 clone construction against the anonymous
  one-shot algorithm;
* ``faults``    — run a seeded chaos campaign (process crashes, register
  corruption) and report replay-certified outcomes;
* ``analyze``   — static analysis of the reproduction itself: the
  determinism/purity lint, the symbolic register-footprint checker, and
  (with ``--sanitize``) sanitized smoke runs; the CI gate;
* ``serve``     — the supervised verification daemon (see
  :mod:`repro.serve` and ``docs/serving.md``);
* ``top``       — live operator view of a running daemon: polls its
  ``status`` op and repaints a one-line summary, the LiveSink renderer
  turned outward;
* ``report``    — render a Markdown run report from a telemetry stream
  written by ``--telemetry=jsonl`` (see :mod:`repro.telemetry`), or —
  with ``--bench`` — the perf trend table from a benchmark aggregate.

``run``, ``explore``, ``faults`` and ``serve`` accept ``--telemetry``
(``off`` / ``live`` / ``jsonl``): ``live`` paints a progress line on
stderr, ``jsonl`` writes the machine-readable event stream + multi-lane
Chrome trace under ``--telemetry-dir``.  They also accept ``--profile``,
which statistically samples the main thread off-loop and writes a
collapsed-stack ``profile.folded`` next to the stream.  The session
wraps the whole command — the dispatch wrapper closes it with the final
exit code and verdict — and neither telemetry nor profiling can ever
change an exit code or a verdict (enforced by the on/off bit-identity
tests).

Every command prints plain text and exits non-zero on failure, so the CLI
can anchor shell-based regression checks.  The exit-code discipline is
uniform across commands (enforced by one dispatch wrapper): **0** — the
command ran and the checked claim held; **1** — a genuine, certified
refutation (violation witness, failed construction) — never an error;
**2** — configuration or engine error (bad arguments, a crashed worker,
any :class:`~repro.errors.ReproError`), reported on stderr; **3** — the
run hit a watchdog limit (``--deadline``, ``--max-rss``), checkpointed,
and exited incomplete (rerun with ``--resume`` to continue); **130** —
interrupted by Ctrl-C, with worker pools torn down, never hung; **143**
— stopped by SIGTERM, checkpointing first when a journaled run was in
flight (the dispatcher installs the graceful handler from
:mod:`repro.durable.watchdog` for every command).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import List, Optional, Tuple

from repro import (
    AnonymousRepeatedSetAgreement,
    OneShotSetAgreement,
    RepeatedSetAgreement,
    System,
    run,
)
from repro.agreement.anonymous import AnonymousOneShotSetAgreement
from repro.bench.tables import format_table
from repro.bench.workloads import distinct_inputs
from repro.explore import explore_safety
from repro.lowerbounds import covering_construction, figure1_table
from repro.lowerbounds.cloning import lemma9_glue
from repro.objects import implemented_snapshot_layout
from repro.sched import NAMED_SCHEDULERS, build_scheduler
from repro.spec import check_safety, execution_stats, publish_stats
from repro.trace import space_time_diagram

PROTOCOLS = {
    "oneshot": OneShotSetAgreement,
    "repeated": RepeatedSetAgreement,
    "anonymous": AnonymousRepeatedSetAgreement,
    "anonymous-oneshot": AnonymousOneShotSetAgreement,
}

SCHEDULERS = NAMED_SCHEDULERS


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser with all sub-commands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'On the Space Complexity of Set Agreement' "
            "(PODC 2015)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bounds = sub.add_parser("bounds", help="print the Figure 1 bounds table")
    _add_nmk(bounds)

    runner = sub.add_parser("run", help="run a protocol under an adversary")
    runner.add_argument("--protocol", choices=sorted(PROTOCOLS), default="oneshot")
    _add_nmk(runner)
    runner.add_argument("--instances", type=int, default=1)
    runner.add_argument("--components", type=int, default=None,
                        help="override the snapshot component count")
    runner.add_argument("--scheduler", choices=SCHEDULERS, default="bounded")
    runner.add_argument("--seed", type=int, default=1)
    runner.add_argument("--substrate", default="atomic",
                        help="snapshot substrate (atomic, double-collect, "
                             "wait-free, swmr, anonymous-double-collect)")
    runner.add_argument("--max-steps", type=int, default=200_000)
    runner.add_argument("--diagram", action="store_true",
                        help="print a space-time diagram of the run")
    runner.add_argument("--sanitize", action="store_true",
                        help="run under the register-access sanitizer: "
                             "purity checks on every step plus trace-time "
                             "covering/torn-read diagnostics")
    _add_telemetry_flags(runner)

    explorer = sub.add_parser("explore", help="exhaustive safety check")
    explorer.add_argument("--protocol", choices=sorted(PROTOCOLS),
                          default="oneshot")
    _add_nmk(explorer)
    explorer.add_argument("--components", type=int, default=None)
    explorer.add_argument("--max-configs", type=int, default=200_000)
    explorer.add_argument("--workers", type=int, default=1,
                          help="shard frontier expansion across this many "
                               "processes (verdicts are identical for every "
                               "worker count)")
    explorer.add_argument("--canonicalize", action="store_true",
                          help="quotient the visited set by process-identity "
                               "orbits (anonymous protocols with symmetric "
                               "workloads only; inert otherwise)")
    explorer.add_argument("--resume", action="store_true",
                          help="persist/resume exploration state under the "
                               "cache directory instead of restarting")
    explorer.add_argument("--cache-dir", default=".repro-cache",
                          help="cache directory used by --resume")
    explorer.add_argument("--reduction", choices=["none", "local-first"],
                          default="none",
                          help="sound partial-order reduction to apply")
    explorer.add_argument("--cluster-inputs", type=int, default=None,
                          metavar="CLUSTERS",
                          help="propose only CLUSTERS distinct values "
                               "(round-robin) instead of globally distinct "
                               "inputs — this is what gives --canonicalize "
                               "orbits to quotient")
    explorer.add_argument("--batch-timeout", type=float, default=None,
                          metavar="SECONDS",
                          help="bound the wait for any one worker batch; on "
                               "timeout the pool is rebuilt and the batch "
                               "resubmitted (verdicts unchanged); default "
                               "waits forever")
    explorer.add_argument("--max-retries", type=int, default=2,
                          help="pool rebuilds to attempt before degrading "
                               "to serial in-process expansion")
    explorer.add_argument("--checkpoint-every", type=int, default=64,
                          metavar="BATCHES",
                          help="with --resume, compact the durable run "
                               "journal into a sealed checkpoint every "
                               "this many merged batches")
    explorer.add_argument("--sanitize", action="store_true",
                          help="explore with per-step purity checks "
                               "(mutation-after-freeze, nondeterministic "
                               "step); forces --workers 1 because the "
                               "sanitizer's collector is in-process state")
    _add_watchdog_flags(explorer)
    _add_telemetry_flags(explorer)

    faults = sub.add_parser(
        "faults", help="seeded chaos campaign with replay-certified verdicts"
    )
    faults.add_argument("--protocol", choices=sorted(PROTOCOLS),
                        default="oneshot")
    _add_nmk(faults)
    faults.add_argument("--instances", type=int, default=1)
    faults.add_argument("--plan-family", choices=("crashes", "corruption"),
                        default="crashes",
                        help="'crashes' stays inside the paper's fault model "
                             "(must stay safe); 'corruption' leaves it "
                             "(expected to yield certified violations)")
    faults.add_argument("--trials", type=int, default=12,
                        help="number of seeded plans to run")
    faults.add_argument("--seed", type=int, default=1,
                        help="seed for the plan family (same seed, same "
                             "plans, same verdicts)")
    faults.add_argument("--budget", type=int, default=20_000,
                        help="step budget for the first attempt of each "
                             "trial")
    faults.add_argument("--retry-budget", type=int, default=3,
                        help="extra attempts (with exponentially doubled "
                             "step budgets) before a trial is declared "
                             "inconclusive")
    faults.add_argument("--resume", action="store_true",
                        help="persist/resume campaign progress (a durable "
                             "per-trial journal) under the cache directory "
                             "instead of restarting")
    faults.add_argument("--cache-dir", default=".repro-cache",
                        help="cache directory used by --resume")
    faults.add_argument("--checkpoint-every", type=int, default=8,
                        metavar="TRIALS",
                        help="with --resume, compact the durable run "
                             "journal into a sealed checkpoint every "
                             "this many completed trials")
    _add_watchdog_flags(faults)
    _add_telemetry_flags(faults)

    covering = sub.add_parser(
        "covering", help="Theorem 2 construction vs under-provisioned Fig. 4"
    )
    _add_nmk(covering)
    covering.add_argument("--registers", type=int, default=None,
                          help="registers to attack (default n+m-k-1)")
    covering.add_argument("--instances", type=int, default=12)
    covering.add_argument("--save-certificate", metavar="PATH", default=None,
                          help="archive the violation as a re-checkable "
                               "JSON certificate")

    glue = sub.add_parser(
        "glue", help="Lemma 9 clone construction vs the anonymous algorithm"
    )
    glue.add_argument("--k", type=int, default=1)
    glue.add_argument("--registers", type=int, default=2)

    verify = sub.add_parser(
        "verify", help="re-check a saved violation certificate"
    )
    verify.add_argument("certificate", help="path to a certificate JSON")

    analyze = sub.add_parser(
        "analyze",
        help="static analysis: determinism lint, footprint check, simsan",
    )
    analyze.add_argument("paths", nargs="*", default=["src/repro"],
                         help="files or directories to lint "
                              "(default: src/repro)")
    analyze.add_argument("--strict", action="store_true",
                         help="exit 1 on warnings too, not just errors "
                              "(the CI gate)")
    analyze.add_argument("--all-rules", action="store_true",
                         help="apply every lint rule to every given path, "
                              "ignoring the step-path scope tables (used "
                              "to exercise the known-bad fixtures)")
    analyze.add_argument("--json", action="store_true",
                         help="emit the report as JSON (the CI artifact)")
    analyze.add_argument("--no-footprint", action="store_true",
                         help="skip the symbolic Figure 1 footprint pass")
    analyze.add_argument("--concurrency", action="store_true",
                         help="also run the concurrency-safety pass "
                              "(CONC* rules: fork-shared state, pickle "
                              "boundary, file-write protocol, signal "
                              "handlers, stale allows); implied by "
                              "--strict")
    analyze.add_argument("--sanitize", action="store_true",
                         help="also run one sanitized smoke execution per "
                              "algorithm family and fold SAN* findings "
                              "into the report")
    analyze.add_argument("--rules", action="store_true",
                         help="print the rule catalog and exit")

    server = sub.add_parser(
        "serve",
        help="verification daemon: verify jobs over a JSON socket, "
             "memoized verdicts, crash-safe queue",
    )
    server.add_argument("--host", default="127.0.0.1",
                        help="interface to bind (default loopback)")
    server.add_argument("--port", type=int, default=0,
                        help="TCP port; 0 picks an ephemeral port, printed "
                             "on startup and written to the data dir's "
                             "endpoint file")
    server.add_argument("--data-dir", default=".repro-serve",
                        help="daemon state: content-addressed verdict "
                             "store, write-ahead job journal, endpoint "
                             "file; restarting on the same directory "
                             "resumes journaled jobs")
    server.add_argument("--queue-capacity", type=int, default=64,
                        help="bound on queued + running jobs; past it, "
                             "submissions get an explicit busy response "
                             "with a retry-after hint instead of "
                             "unbounded buffering")
    server.add_argument("--workers", type=int, default=1,
                        help="supervised worker processes; the pool is "
                             "rebuilt on failure and degrades to serial "
                             "in-process execution after repeated "
                             "incidents")
    server.add_argument("--retry-after", type=float, default=1.0,
                        metavar="SECONDS",
                        help="hint returned with busy responses")
    server.add_argument("--max-jobs", type=int, default=None,
                        help="exit 0 after completing this many jobs "
                             "(smoke tests and CI)")
    server.add_argument("--job-deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="per-job wall-clock budget, enforced by an "
                             "in-worker watchdog; an over-deadline job "
                             "reports incomplete and is never cached")
    server.add_argument("--job-max-rss", type=float, default=None,
                        metavar="MB",
                        help="per-job resident-set ceiling in MiB "
                             "(in-worker watchdog, like --job-deadline)")
    _add_telemetry_flags(server)

    reporter = sub.add_parser(
        "report", help="render a Markdown run report from a telemetry stream"
    )
    reporter.add_argument("run_dir",
                          help="telemetry directory (or events.jsonl path) "
                               "written by a --telemetry=jsonl run; with "
                               "--bench, a BENCH_telemetry.json aggregate "
                               "(or the directory holding one)")
    reporter.add_argument("--check", action="store_true",
                          help="validate the event stream against the "
                               "telemetry schema first; schema problems "
                               "print to stderr (naming the first bad "
                               "seq) and exit 1")
    reporter.add_argument("--bench", action="store_true",
                          help="render the benchmark trend table from a "
                               "BENCH_telemetry.json aggregate instead of "
                               "an event stream")

    top = sub.add_parser(
        "top", help="live operator view of a running serve daemon"
    )
    top.add_argument("endpoint",
                     help="daemon endpoint as host:port, or the daemon's "
                          "--data-dir (its endpoint file is read)")
    top.add_argument("--interval", type=float, default=2.0,
                     metavar="SECONDS",
                     help="seconds between status polls (default 2)")
    top.add_argument("--count", type=int, default=0, metavar="N",
                     help="stop after N polls (default 0: poll until "
                          "Ctrl-C)")
    top.add_argument("--timeout", type=float, default=5.0,
                     metavar="SECONDS",
                     help="per-request socket timeout (default 5)")

    return parser


def _add_nmk(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=4)
    parser.add_argument("--m", type=int, default=1)
    parser.add_argument("--k", type=int, default=1)


def _add_watchdog_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock budget for the run; on expiry it "
                             "checkpoints (with --resume) and exits 3 — "
                             "rerun with --resume to continue")
    parser.add_argument("--max-rss", type=float, default=None, metavar="MB",
                        help="resident-set ceiling in MiB; on reaching it "
                             "the run checkpoints (with --resume) and "
                             "exits 3")


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--telemetry", choices=("off", "live", "jsonl"),
                        default="off",
                        help="observability for the run: 'live' paints a "
                             "progress line (rate, ETA, RSS heartbeat) on "
                             "stderr; 'jsonl' writes the machine-readable "
                             "event stream + Chrome trace under "
                             "--telemetry-dir (render it with 'repro "
                             "report'); never changes verdicts or exit "
                             "codes")
    parser.add_argument("--telemetry-dir", default=".repro-telemetry",
                        metavar="DIR",
                        help="directory for --telemetry=jsonl artifacts "
                             "(events.jsonl, trace.json, profile.folded)")
    parser.add_argument("--profile", action="store_true",
                        help="statistically sample the main thread "
                             "(~200Hz, off the per-step loop) and write "
                             "a collapsed-stack profile.folded under "
                             "--telemetry-dir, with samples attributed "
                             "to open telemetry spans; never changes "
                             "verdicts or exit codes")


def _open_telemetry(args) -> Optional[object]:
    """Open the command's telemetry session per ``--telemetry``, if any.

    The ``run_start`` event echoes every scalar argument of the command
    (seed, scheduler, n/m/k, budgets …), which is what makes a stream —
    and the report rendered from it — reproducible from the transcript
    alone.
    """
    mode = getattr(args, "telemetry", "off")
    if mode == "off":
        return None
    from repro import telemetry
    from repro.telemetry.schema import SCHEMA_VERSION
    from repro.telemetry.sinks import JsonlSink, LiveSink

    sink = (JsonlSink(args.telemetry_dir) if mode == "jsonl"
            else LiveSink())
    attrs = {"schema": SCHEMA_VERSION}
    for key, value in sorted(vars(args).items()):
        # Observability knobs are not run parameters: the stream (and the
        # trace id derived from these attrs) must not depend on whether
        # the run was profiled.
        if key in ("command", "telemetry", "telemetry_dir", "profile"):
            continue
        if value is None or isinstance(value, (bool, int, float, str)):
            attrs[key] = value
    session = telemetry.start(
        command=args.command, mode=mode, sinks=[sink], attrs=attrs
    )
    if isinstance(sink, LiveSink):
        sink.attach(session)
    return session


def _start_profiler(args) -> Optional[object]:
    """Start the span-scoped sampling profiler when ``--profile`` was given.

    Runs whether or not a telemetry session is open — without one the
    samples are attributed to ``(no span)``, which is still a usable
    flat profile.
    """
    if not getattr(args, "profile", False):
        return None
    from repro.telemetry.profile import SpanProfiler

    profiler = SpanProfiler()
    profiler.start()
    return profiler


def _finish_profiler(profiler, args) -> None:
    """Stop the sampler and write ``profile.folded``; never raises.

    Profiling is observability: like telemetry, a failure here prints a
    note to stderr and cannot change the command's exit code.
    """
    from pathlib import Path

    try:
        profiler.stop()
        from repro.telemetry.sinks import PROFILE_FILE

        directory = Path(getattr(args, "telemetry_dir", ".repro-telemetry"))
        directory.mkdir(parents=True, exist_ok=True)
        target = directory / PROFILE_FILE
        samples = profiler.write(target)
        print(f"profile: {samples} samples -> {target}", file=sys.stderr)
    except Exception as exc:  # noqa: BLE001 — profiling must not mask the code
        print(f"profile: failed: {exc}", file=sys.stderr)


#: Exit code → run_end verdict, for the telemetry stream and live line.
_VERDICTS = {
    0: "ok",
    1: "refuted",
    2: "error",
    3: "checkpointed",
    130: "interrupted",
    141: "broken-pipe",
    143: "terminated",
}


def _build_watchdog(args) -> Tuple[Optional[object], Optional[str]]:
    """The command's watchdog (or ``None``), plus a usage error if any."""
    if args.deadline is not None and args.deadline <= 0:
        return None, f"--deadline must be positive, got {args.deadline}"
    if args.max_rss is not None and args.max_rss <= 0:
        return None, f"--max-rss must be positive, got {args.max_rss}"
    if args.checkpoint_every < 1:
        return None, (
            f"--checkpoint-every must be >= 1, got {args.checkpoint_every}"
        )
    if args.deadline is None and args.max_rss is None:
        return None, None
    from repro.durable.watchdog import Watchdog

    return Watchdog(deadline=args.deadline, max_rss_mb=args.max_rss), None


def cmd_bounds(args) -> int:
    """Print the Figure 1 bounds table at (n, m, k)."""
    table = figure1_table(args.n, args.m, args.k)
    rows = [(cell, str(bound)) for cell, bound in table.items()]
    print(format_table(
        ["cell", "bound"], rows,
        title=f"Figure 1 at n={args.n}, m={args.m}, k={args.k}",
    ))
    return 0


def _make_scheduler(args, n, m):
    return build_scheduler(args.scheduler, seed=args.seed, m=m)


def cmd_run(args) -> int:
    """Run a protocol under the chosen adversary and report outcomes."""
    protocol_cls = PROTOCOLS[args.protocol]
    kwargs = dict(n=args.n, m=args.m, k=args.k)
    if args.components is not None:
        kwargs["components"] = args.components
    protocol = protocol_cls(**kwargs)
    layout = implemented_snapshot_layout(protocol, args.substrate)
    system = System(
        protocol,
        workloads=distinct_inputs(args.n, instances=args.instances),
        layout=layout,
    )
    scheduler = _make_scheduler(args, args.n, args.m)
    sanitizer = None
    monitors = None
    if args.sanitize:
        from repro.analysis.sanitizer import (
            RegisterSanitizer,
            SanitizedSystem,
            SanitizerCollector,
        )

        collector = SanitizerCollector()
        system = SanitizedSystem(system, collector)
        sanitizer = RegisterSanitizer(system, collector)
        monitors = [sanitizer]
    execution = run(system, scheduler, max_steps=args.max_steps,
                    on_limit="return", monitors=monitors,
                    telemetry_span="runtime.run")

    stats = execution_stats(execution)
    publish_stats(stats)
    print(f"protocol:  {protocol.describe()} on {args.substrate}")
    print(f"scheduler: {args.scheduler} (seed {args.seed}, "
          f"max-steps {args.max_steps}, instances {args.instances})")
    print(f"registers: {system.layout.register_count()}")
    print(f"steps:     {stats.total_steps} "
          f"({stats.memory_steps} memory, {stats.decisions} decisions)")
    for instance in range(1, args.instances + 1):
        outputs = sorted(set(execution.instance_outputs(instance)), key=repr)
        print(f"instance {instance}: outputs {outputs}")
    violations = check_safety(execution, args.k)
    for violation in violations:
        print(f"VIOLATION: {violation}")
    if args.diagram:
        print()
        print(space_time_diagram(execution, length=min(execution.steps, 72)))
    if sanitizer is not None:
        report = sanitizer.report()
        print()
        print(report.render())
        if not report.ok:
            return 1
    return 1 if violations else 0


def cmd_explore(args) -> int:
    """Exhaustively model-check a small instance.

    Exit codes: 0 — explored without violations; 1 — a violation was found
    (witness schedule printed); 2 — invalid arguments, or an exploration
    worker failed (the structured failure is printed and the pool is torn
    down, never hung); 3 — a watchdog (--deadline / --max-rss) fired and
    the run checkpointed incomplete; 143 — SIGTERM arrived and the run
    checkpointed before exiting.  Exit 1 always means a refutation, never
    an error.
    """
    from repro.errors import ExplorationEngineError

    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 2
    if args.cluster_inputs is not None and args.cluster_inputs < 1:
        print(f"error: --cluster-inputs must be >= 1, got "
              f"{args.cluster_inputs}", file=sys.stderr)
        return 2
    watchdog, usage_error = _build_watchdog(args)
    if usage_error is not None:
        print(f"error: {usage_error}", file=sys.stderr)
        return 2
    protocol_cls = PROTOCOLS[args.protocol]
    kwargs = dict(n=args.n, m=args.m, k=args.k)
    if args.components is not None:
        kwargs["components"] = args.components
    protocol = protocol_cls(**kwargs)
    if args.cluster_inputs is not None:
        from repro.bench.workloads import clustered_inputs

        workloads = clustered_inputs(args.n, args.cluster_inputs)
    else:
        workloads = distinct_inputs(args.n)
    system = System(protocol, workloads=workloads)
    collector = None
    if args.sanitize:
        from repro.analysis.sanitizer import SanitizedSystem, SanitizerCollector

        if args.workers > 1:
            print("note: --sanitize forces --workers 1 (the sanitizer "
                  "collector is in-process state)", file=sys.stderr)
            args.workers = 1
        collector = SanitizerCollector()
        system = SanitizedSystem(system, collector)
    try:
        result = explore_safety(
            system,
            k=args.k,
            max_configs=args.max_configs,
            reduction=args.reduction,
            workers=args.workers,
            canonicalize=args.canonicalize,
            batch_timeout=args.batch_timeout,
            max_retries=args.max_retries,
            journal_dir=args.cache_dir if args.resume else None,
            checkpoint_every=args.checkpoint_every,
            watchdog=watchdog,
        )
    except ExplorationEngineError as exc:
        print(f"ENGINE FAILURE: {exc}")
        print(exc.failure.traceback, end="")
        return 2
    if result.recovery is not None:
        print(result.recovery.describe())
    print(result.summary())
    print(f"  {result.footprint_summary()} "
          f"(layout provisions {system.layout.register_count()})")
    if args.canonicalize:
        print(f"  distinct states visited: {result.configs_discovered} "
              "(orbit representatives)")
    for violation in result.safety_violations:
        print(f"  witness schedule ({len(violation.schedule)} steps): "
              f"{list(violation.schedule)}")
        print(f"  {violation.detail}")
    if collector is not None:
        sanitizer_report = collector.report()
        print(sanitizer_report.render())
        if not sanitizer_report.ok:
            return 1
    if result.safety_violations:
        return 1
    if result.interrupted == "sigterm":
        return 143
    if result.interrupted is not None:
        return 3
    return 0


def cmd_faults(args) -> int:
    """Run a seeded fault-injection campaign and print certified verdicts.

    Exit codes follow the shared discipline: 0 — every trial safe (or
    inconclusive, which is a budget statement, not a verdict); 1 — at least
    one replay-certified violation (expected for ``--plan-family
    corruption``, a refutation of the fault model's boundary for
    ``crashes``); 2 — configuration or engine error; 3 — a watchdog
    (--deadline / --max-rss) fired and the campaign checkpointed
    incomplete; 143 — SIGTERM arrived and the campaign checkpointed
    before exiting.
    """
    from repro.faults import build_family, run_campaign

    watchdog, usage_error = _build_watchdog(args)
    if usage_error is not None:
        print(f"error: {usage_error}", file=sys.stderr)
        return 2
    protocol_cls = PROTOCOLS[args.protocol]
    protocol = protocol_cls(n=args.n, m=args.m, k=args.k)
    system = System(
        protocol,
        workloads=distinct_inputs(args.n, instances=args.instances),
    )
    plans = build_family(
        args.plan_family, system, trials=args.trials, seed=args.seed
    )
    report = run_campaign(
        system, plans, family=args.plan_family, k=args.k,
        budget=args.budget, max_retries=args.retry_budget,
        journal_dir=args.cache_dir if args.resume else None,
        checkpoint_every=args.checkpoint_every,
        watchdog=watchdog,
    )
    print(f"protocol: {protocol.describe()}")
    if report.recovery is not None:
        print(report.recovery.describe())
    for trial in report.trials:
        print(f"  {trial.describe()}")
    print(report.summary())
    if report.interrupted is not None:
        print(f"campaign checkpointed on {report.interrupted}; rerun with "
              "--resume to continue")
    if args.plan_family == "crashes" and not report.crash_safety_holds():
        print("POSITIVE CONTROL FAILED: a crash-only plan violated safety")
    if report.certified_violations:
        return 1
    if report.interrupted == "sigterm":
        return 143
    if report.interrupted is not None:
        return 3
    return 0


def cmd_covering(args) -> int:
    """Run the Theorem 2 covering construction and print its narrative."""
    registers = (
        args.registers if args.registers is not None
        else args.n + args.m - args.k - 1
    )
    protocol = RepeatedSetAgreement(
        n=args.n, m=args.m, k=args.k, components=registers
    )
    system = System(
        protocol, workloads=distinct_inputs(args.n, instances=args.instances)
    )
    result = covering_construction(system, m=args.m, k=args.k)
    for line in result.narrative:
        print(line)
    print(result.summary())
    if result.success and args.save_certificate:
        from repro.lowerbounds.certificates import (
            certificate_for_system,
            save_certificate,
        )

        certificate = certificate_for_system(
            system, result.schedule,
            claim=(
                f"Theorem 2: repeated {args.k}-set agreement (m={args.m}) "
                f"among {args.n} processes violates k-Agreement with "
                f"{registers} registers"
            ),
        )
        save_certificate(certificate, args.save_certificate)
        print(f"certificate saved to {args.save_certificate}")
    return 0 if result.success else 1


def cmd_glue(args) -> int:
    """Run the Lemma 9 clone construction and print its narrative."""
    def factory(n):
        return AnonymousOneShotSetAgreement(
            n=n, m=1, k=args.k, components=args.registers
        )

    result = lemma9_glue(
        factory, k=args.k, inputs=[f"v{i}" for i in range(args.k + 1)]
    )
    for line in result.narrative:
        print(line)
    print(result.summary())
    return 0 if result.success else 1


def cmd_verify(args) -> int:
    """Re-check a saved violation certificate by replay."""
    from repro.errors import SpecificationViolation
    from repro.lowerbounds.certificates import load_certificate, verify_certificate

    certificate = load_certificate(args.certificate)
    print(f"claim: {certificate.claim}")
    try:
        violations = verify_certificate(certificate)
    except SpecificationViolation as exc:
        print(f"FAILED: {exc}")
        return 1
    for violation in violations:
        print(f"verified: {violation}")
    return 0


def cmd_analyze(args) -> int:
    """Run the static-analysis passes and report through one AnalysisReport.

    Exit codes follow the shared discipline: 0 — every pass ran and no
    gating finding (errors, plus warnings under ``--strict``) was
    reported; 1 — findings (printed, or emitted as JSON with ``--json``);
    2 — an analysis pass itself failed (unparseable input, missing
    module); 130/143 — interrupted, via the shared dispatcher.
    """
    from pathlib import Path

    import repro
    from repro.analysis.determinism import lint_paths
    from repro.analysis.footprint import check_footprints
    from repro.analysis.report import AnalysisReport, catalog_table
    from repro.errors import ReproError

    if args.rules:
        for rule_id, severity, summary in catalog_table():
            print(f"{rule_id}  {severity:8s}  {summary}")
        return 0

    run_concurrency = args.concurrency or args.strict
    # The stale-allow audit needs the suppression consumptions of every
    # pass, so the usage table is threaded through the determinism lint
    # and into the concurrency pass — but only when the latter runs
    # (CONC allows would otherwise always look stale).
    usage = {} if run_concurrency else None
    report = AnalysisReport()
    try:
        report.extend(
            lint_paths(args.paths, all_rules=args.all_rules, usage=usage)
        )
        if not args.no_footprint:
            # Resolve the shipped families from the installed package, so
            # the footprint contract is checked no matter which paths (or
            # working directory) the lint half was pointed at.
            package_root = Path(repro.__file__).resolve().parents[1]
            report.extend(check_footprints(str(package_root)))
        if run_concurrency:
            from repro.analysis.concurrency import analyze_concurrency

            report.extend(analyze_concurrency(
                args.paths, all_rules=args.all_rules, usage=usage
            ))
        if args.sanitize:
            from repro.analysis.sanitizer import sanitize_execution
            from repro.bench.workloads import distinct_inputs as _inputs

            for name in sorted(PROTOCOLS):
                protocol = PROTOCOLS[name](n=3, m=1, k=1)
                system = System(protocol, workloads=_inputs(3))
                smoke = sanitize_execution(system)
                smoke.passes_run = (f"sanitizer:{name}",)
                report.extend(smoke)
    except ReproError:
        raise
    except Exception as exc:  # noqa: BLE001 - exit-2 contract for pass crashes
        raise ReproError(f"analysis pass failed: {exc}") from exc

    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 1 if report.gating_findings(strict=args.strict) else 0


def _first_bad_seq(problems: List[str]) -> Optional[int]:
    """The seq of the first schema-bad event, parsed from problem lines.

    ``validate_lines`` prefixes per-event problems with ``line N:``; the
    stream sequences contiguously from 0, so line ``N`` holds seq
    ``N - 1``.  Stream-level problems (no prefix) yield ``None``.
    """
    lines = []
    for problem in problems:
        head, sep, _ = problem.partition(":")
        if sep and head.startswith("line ") and head[5:].isdigit():
            lines.append(int(head[5:]))
    return min(lines) - 1 if lines else None


def cmd_report(args) -> int:
    """Render the Markdown run report for one telemetry stream.

    Exit codes: 0 — report rendered; 1 — ``--check`` found schema
    problems (printed to stderr, naming the first bad seq), or the
    stream / benchmark aggregate exists but is empty or truncated (a
    one-line diagnostic, not a traceback); 2 — no artifact at the given
    path at all.
    """
    from repro.telemetry.report import (
        TruncatedStream, render_bench_report, render_report,
    )
    from repro.telemetry.schema import validate_stream

    if args.bench:
        try:
            print(render_bench_report(args.run_dir))
        except TruncatedStream as exc:
            print(f"report: {exc}", file=sys.stderr)
            return 1
        return 0
    if args.check:
        problems = validate_stream(args.run_dir)
        if problems:
            bad_seq = _first_bad_seq(problems)
            if bad_seq is not None:
                print(f"schema: first bad event at seq {bad_seq}",
                      file=sys.stderr)
            for problem in problems:
                print(f"schema: {problem}", file=sys.stderr)
            return 1
    try:
        print(render_report(args.run_dir))
    except TruncatedStream as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_serve(args) -> int:
    """Run the verification daemon until shutdown or SIGTERM.

    Exit codes: 0 — graceful stop (a ``shutdown`` op, or ``--max-jobs``
    reached); 2 — configuration error (bad flags, port in use); 143 —
    SIGTERM, after closing the queue (pending jobs stay journaled and
    resume on the next start against the same ``--data-dir``).  See
    ``docs/serving.md`` for the protocol and the kill-and-resume
    runbook.
    """
    from repro.serve.server import ReproServer

    if args.queue_capacity < 1:
        print(f"error: --queue-capacity must be >= 1, got "
              f"{args.queue_capacity}", file=sys.stderr)
        return 2
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}",
              file=sys.stderr)
        return 2
    for name in ("job_deadline", "job_max_rss", "retry_after"):
        value = getattr(args, name)
        if value is not None and value <= 0:
            flag = "--" + name.replace("_", "-")
            print(f"error: {flag} must be positive, got {value}",
                  file=sys.stderr)
            return 2
    try:
        server = ReproServer(
            host=args.host,
            port=args.port,
            data_dir=args.data_dir,
            queue_capacity=args.queue_capacity,
            workers=args.workers,
            job_deadline=args.job_deadline,
            job_max_rss=args.job_max_rss,
            retry_after=args.retry_after,
            max_jobs=args.max_jobs,
        )
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}",
              file=sys.stderr)
        return 2
    server.start()
    replayed = server.queue.depth()
    print(f"repro serve listening on {server.host}:{server.port} "
          f"(data: {args.data_dir}, queue: {args.queue_capacity}, "
          f"workers: {args.workers})", flush=True)
    if replayed:
        print(f"replaying {replayed} journaled job"
              f"{'s' if replayed != 1 else ''} from a previous run",
              flush=True)
    try:
        return server.serve_forever()
    finally:
        server.close()


def _top_endpoint(text: str) -> Tuple[str, int]:
    """Resolve ``repro top``'s endpoint argument to ``(host, port)``.

    Accepts either ``host:port`` directly or a daemon ``--data-dir``,
    whose endpoint file records where that daemon is listening.
    """
    from pathlib import Path

    from repro.errors import ReproError
    from repro.serve.client import connect

    if Path(text).is_dir():
        return connect(Path(text))
    host, sep, port = text.rpartition(":")
    if sep and port.isdigit():
        return host or "127.0.0.1", int(port)
    raise ReproError(
        f"endpoint {text!r} is neither host:port nor a daemon --data-dir"
    )


def _format_top_line(snapshot) -> str:
    """One status line for ``repro top``, from a ``status`` op payload."""
    queue = snapshot.get("queue") or {}
    cache = snapshot.get("cache") or {}
    supervisor = snapshot.get("supervisor") or {}
    hits = int(cache.get("hits") or 0)
    misses = int(cache.get("misses") or 0)
    lookups = hits + misses
    ratio = f"{100.0 * hits / lookups:.0f}%" if lookups else "-"
    degraded = " DEGRADED" if supervisor.get("degraded") else ""
    return (
        f"{snapshot.get('endpoint', '?')} "
        f"up {float(snapshot.get('uptime_s') or 0.0):.0f}s | "
        f"jobs {snapshot.get('jobs_completed', 0)} | "
        f"queue {queue.get('depth', 0)}/{queue.get('capacity', 0)} "
        f"(+{queue.get('in_flight', 0)} in flight) | "
        f"cache {hits}h/{misses}m {ratio} | "
        f"rebuilds {supervisor.get('pool_rebuilds', 0)}{degraded}"
    )


def cmd_top(args) -> int:
    """Live operator view: poll a daemon's ``status`` op, repaint one line.

    Exit codes: 0 — ``--count`` polls completed; 2 — bad endpoint, or
    the daemon became unreachable; 130 — Ctrl-C, the usual way out of
    the default poll-forever mode.
    """
    import time

    from repro.errors import ReproError
    from repro.serve import client
    from repro.telemetry.sinks import StatusLine

    if args.interval <= 0:
        print(f"error: --interval must be positive, got {args.interval}",
              file=sys.stderr)
        return 2
    if args.count < 0:
        print(f"error: --count must be >= 0, got {args.count}",
              file=sys.stderr)
        return 2
    host, port = _top_endpoint(args.endpoint)
    status_line = StatusLine(sys.stdout)
    polls = 0
    try:
        while True:
            response = client.status(host, port, timeout=args.timeout)
            payload = response.get("status") if response.get("ok") else None
            if not isinstance(payload, dict):
                raise ReproError(
                    f"status poll of {host}:{port} failed: "
                    f"{response.get('error', 'malformed response')}"
                )
            polls += 1
            final = args.count > 0 and polls >= args.count
            status_line.paint(_format_top_line(payload), final=final)
            if final:
                return 0
            time.sleep(args.interval)
    except (Exception, KeyboardInterrupt):
        status_line.close()  # clear the partial line before any stderr text
        raise


COMMANDS = {
    "bounds": cmd_bounds,
    "run": cmd_run,
    "explore": cmd_explore,
    "faults": cmd_faults,
    "covering": cmd_covering,
    "glue": cmd_glue,
    "verify": cmd_verify,
    "analyze": cmd_analyze,
    "serve": cmd_serve,
    "top": cmd_top,
    "report": cmd_report,
}


def _dispatch(handler, args) -> int:
    """Run one command under the shared exit-code discipline.

    Historically only ``explore`` translated engine errors to exit 2 and
    survived Ctrl-C cleanly; every command now goes through this wrapper,
    so a :class:`~repro.errors.ReproError` from any of them lands on
    stderr with exit 2 (command handlers may still catch specific errors
    first to print richer context), and ``KeyboardInterrupt`` exits 130 —
    after running ``finally`` blocks, which is what tears worker pools
    down instead of leaving them hung.

    SIGTERM is handled symmetrically with Ctrl-C: the dispatcher installs
    the graceful handler from :mod:`repro.durable.watchdog` for the span
    of the command (and restores the previous disposition afterwards, so
    embedding the CLI does not hijack the host's signals).  A journaled
    run absorbs the signal as a checkpoint request and returns normally
    (its handler maps that to 143); a command with nothing to checkpoint
    unwinds via :class:`~repro.durable.watchdog.Terminated` — through
    every ``finally`` block, so pools still die — and exits 143 here.

    A downstream reader closing the pipe early (``repro analyze --rules |
    head``) surfaces as :class:`BrokenPipeError` under Python's ignored
    ``SIGPIPE``; the dispatcher exits 141 — the POSIX ``SIGPIPE`` death
    code, deliberately neither 0 nor 1 since the truncated output proves
    nothing — after pointing stdout at ``/dev/null`` so the interpreter's
    exit-time flush cannot raise a second traceback.
    """
    from repro.durable.watchdog import Terminated, install_sigterm_handler
    from repro.errors import ReproError

    try:
        previous = install_sigterm_handler()
    except ValueError:  # not the main thread: leave signal handling alone
        previous = None
    session = None
    profiler = None
    code = 2
    try:
        try:
            session = _open_telemetry(args)
            profiler = _start_profiler(args)
            code = handler(args)
        except KeyboardInterrupt:
            print("interrupted", file=sys.stderr)
            code = 130
        except Terminated:
            print("terminated", file=sys.stderr)
            code = 143
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            code = 2
        except BrokenPipeError:
            try:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            except (OSError, ValueError):  # stdout has no real fd (embedding)
                pass
            code = 141
        return code
    finally:
        # The session observes the command's true outcome — including the
        # exception paths above — and must release its sinks even when the
        # handler re-raises something unanticipated.  The flush runs under
        # an armed watchdog mailbox: a SIGTERM landing *during* close is
        # absorbed as a flag instead of raising Terminated mid-write,
        # which would truncate events.jsonl (no run_end => schema-invalid)
        # and replace the already-computed exit code.  A sink failure
        # likewise cannot change the exit code — telemetry never does.
        if profiler is not None:
            _finish_profiler(profiler, args)
        if session is not None:
            from repro.durable.watchdog import Watchdog

            try:
                with Watchdog():
                    session.close(
                        exit_code=code, verdict=_VERDICTS.get(code, "unknown")
                    )
            except Terminated:
                pass  # signal raced the arming instant; the code stands
            except Exception as exc:  # noqa: BLE001 — flush must not mask code
                print(f"telemetry: close failed: {exc}", file=sys.stderr)
        if previous is not None:
            signal.signal(signal.SIGTERM, previous)


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _dispatch(COMMANDS[args.command], args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
