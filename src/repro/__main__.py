"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``     — the kernel registry with threads and fault-site counts
  (``--json`` for a machine-readable inventory).
* ``profile``  — estimate a kernel's resilience profile via pruning.
* ``baseline`` — run a statistical random-injection baseline.
* ``stages``   — show the per-stage fault-site reduction for a kernel.
* ``metrics``  — run a small instrumented campaign and print counters,
  gauges and histograms (timings are the ``*_s`` histograms).
* ``report``   — campaign report from telemetry artifacts (pass event
  logs and/or manifests), or a markdown resilience report for a kernel
  key; ``--propagation`` adds the provenance sections, ``--diff A B``
  compares two report JSONs.
* ``trace-fault`` — deep-dive one injection's propagation: corruption
  lineage, divergence/masking points, heap and output geometry.
* ``watch``    — in-terminal live dashboard for a running campaign:
  point it at a ``--live-status`` file, a ``--live-port`` port, or a
  full ``/status`` URL.
* ``bench-check`` — compare the newest benchmark observations against
  ``benchmarks/results/history.jsonl`` (host-keyed baselines; ``--host``
  overrides) and fail on regressions.

``profile``/``baseline``/``stages`` accept instrumentation flags:
``--telemetry-out events.jsonl`` streams typed events, ``--progress``
renders a rate/ETA line to stderr, and ``--manifest run.json``
writes an auditable run manifest (config, git rev, versions, profile,
wall clock, metrics) — see ``docs/observability.md``.  ``--workers N``
fans the campaign's injections over N worker processes (see
``docs/performance.md``); profiles are identical to serial runs.

``profile``/``baseline``/``metrics`` additionally accept the live
monitoring flags: ``--live-port``/``--live-status`` expose rolling
campaign status (outcome shares, per-worker liveness, throughput) while
the campaign runs, and ``--flight-recorder`` writes a post-mortem dump
if the campaign dies.  ``baseline``/``metrics`` also take ``--until-ci``:
their sampled shares carry Wilson CIs, and the campaign stops early
once every half-width is at most the target.  The live plane is
advisory — profiles are byte-identical with it on or off.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import (
    FaultInjector,
    ProgressivePruner,
    all_kernels,
    load_instance,
    random_campaign,
    resolve_executor,
)
from .gpu.simulator import VECTORIZED_MIN_LANES
from .stats import sample_size_worst_case
from .telemetry import (
    NULL_TELEMETRY,
    InjectionEvent,
    JsonlSink,
    NullSink,
    RunManifest,
    Telemetry,
)

#: User-facing ``--backend`` values.  The compiled and vectorized backends
#: are what ``auto`` picks; only the library API forces them.
BACKEND_CHOICES = ("auto", "interpreter")


def _add_instrumentation_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--telemetry-out",
        metavar="PATH",
        default=None,
        help="stream JSONL telemetry events to PATH",
    )
    sub.add_argument(
        "--progress",
        action="store_true",
        help="render campaign progress (rate/ETA) to stderr",
    )
    sub.add_argument(
        "--manifest",
        metavar="PATH",
        default=None,
        help="write a reproducibility manifest (config, git rev, profile) to PATH",
    )
    sub.add_argument(
        "--workers",
        type=int,
        metavar="N",
        default=1,
        help="fan injections over N worker processes (1 = serial; "
        "profiles are identical either way)",
    )
    sub.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help="multiprocessing start method for --workers pools "
        "(default: fork where available)",
    )
    sub.add_argument(
        "--backend",
        choices=BACKEND_CHOICES,
        default="auto",
        help="execution backend: 'auto' (default) picks vectorized for CTAs "
        f"of {VECTORIZED_MIN_LANES}+ threads and compiled for narrower ones; "
        "'interpreter' forces the reference interpreter (outcomes are "
        "identical either way; manifests record the backend that ran)",
    )
    sub.add_argument(
        "--propagation",
        action="store_true",
        help="trace fault propagation per injection (corruption lineage, "
        "divergence/masking points, output geometry); records ride the "
        "telemetry event stream and feed 'repro report --propagation'",
    )


def _add_live_args(sub: argparse.ArgumentParser, sampled: bool = False) -> None:
    live = sub.add_argument_group("live monitoring")
    live.add_argument(
        "--live-port",
        type=int,
        metavar="PORT",
        default=None,
        help="serve rolling campaign status over HTTP on 127.0.0.1:PORT "
        "(/status JSON + self-refreshing HTML dashboard; 0 binds an "
        "ephemeral port, printed to stderr)",
    )
    live.add_argument(
        "--live-status",
        metavar="PATH",
        default=None,
        help="write rolling JSON status snapshots to PATH (atomic "
        "replace; point 'repro watch PATH' at it)",
    )
    live.add_argument(
        "--flight-recorder",
        metavar="PATH",
        default=None,
        help="if the campaign crashes, write a post-mortem dump "
        "(recent-event rings, crash site, final status, manifest) to PATH",
    )
    if sampled:
        live.add_argument(
            "--until-ci",
            type=float,
            metavar="HW",
            default=None,
            help="convergence target: stop early once every outcome "
            "share's Wilson CI half-width is at most HW (0.03 = ±3pp)",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-site pruning for GPGPU reliability analysis "
        "(MICRO 2018 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    list_cmd = sub.add_parser("list", help="list registered kernels")
    list_cmd.add_argument(
        "--json", action="store_true", help="machine-readable kernel inventory"
    )

    profile = sub.add_parser("profile", help="pruned-space resilience profile")
    profile.add_argument("kernel", help="kernel key, e.g. gemm.k1")
    profile.add_argument("--loop-iters", type=int, default=5)
    profile.add_argument("--bits", type=int, default=16)
    profile.add_argument("--seed", type=int, default=2018)
    profile.add_argument(
        "--audit-groups",
        type=int,
        metavar="K",
        default=0,
        help="after the campaign, audit up to K pruned thread groups for "
        "propagation-signature coherence (implies --propagation; serial)",
    )
    _add_instrumentation_args(profile)
    _add_live_args(profile)

    baseline = sub.add_parser("baseline", help="random statistical baseline")
    baseline.add_argument("kernel")
    baseline.add_argument("--confidence", type=float, default=0.95)
    baseline.add_argument("--margin", type=float, default=0.03)
    baseline.add_argument("--seed", type=int, default=2018)
    _add_instrumentation_args(baseline)
    _add_live_args(baseline, sampled=True)

    stages = sub.add_parser("stages", help="per-stage site reduction")
    stages.add_argument("kernel")
    stages.add_argument("--loop-iters", type=int, default=5)
    stages.add_argument("--bits", type=int, default=16)
    _add_instrumentation_args(stages)

    metrics = sub.add_parser(
        "metrics", help="instrumented mini-campaign: counters, gauges and timings"
    )
    metrics.add_argument("kernel")
    metrics.add_argument("--runs", type=int, default=30, help="random injections")
    metrics.add_argument("--seed", type=int, default=2018)
    _add_instrumentation_args(metrics)
    _add_live_args(metrics, sampled=True)

    report = sub.add_parser(
        "report",
        help="campaign report from telemetry files, or a markdown "
        "resilience report for a kernel key",
    )
    report.add_argument(
        "target",
        nargs="*",
        help="telemetry files (event logs / manifests) for a campaign "
        "report, or a single kernel key for a resilience report",
    )
    report.add_argument("--loop-iters", type=int, default=5)
    report.add_argument("--bits", type=int, default=8)
    report.add_argument(
        "--format",
        choices=("text", "json", "markdown"),
        default="text",
        help="campaign-report output format",
    )
    report.add_argument(
        "--manifest",
        action="append",
        default=None,
        metavar="PATH",
        help="additional run manifest(s) for the campaign report",
    )
    report.add_argument(
        "--propagation",
        action="store_true",
        help="include the propagation sections (PC vulnerability map, "
        "masking histograms, SDC signatures, group coherence); needs a "
        "campaign run with --propagation",
    )
    report.add_argument(
        "--diff",
        nargs=2,
        metavar=("A", "B"),
        default=None,
        help="compare two 'repro report --format json' files "
        "(A = baseline, B = candidate) instead of rendering one report",
    )
    report.add_argument(
        "--fail-on-regression",
        action="store_true",
        help="with --diff: exit nonzero when any outcome-share delta is "
        "CI-significant (the Wilson intervals are disjoint)",
    )
    report.add_argument("--out", default=None, help="write to file instead of stdout")

    trace = sub.add_parser(
        "trace-fault",
        help="deep-dive one injection: corruption lineage, divergence, "
        "masking and output geometry",
    )
    trace.add_argument("kernel", help="kernel key, e.g. gemm.k1")
    trace.add_argument(
        "site",
        help="fault site as printed by reports/logs: t<T>/i<D>/b<B>, "
        "ioa:t<T>/i<D>/b<B> or rf:t<T>/i<D>/<REG>/b<B>",
    )
    trace.add_argument(
        "--backend",
        choices=BACKEND_CHOICES,
        default="auto",
        help="execution backend for the classification and the trace "
        "('auto' decides from the CTA width, as for profile)",
    )
    trace.add_argument(
        "--json", action="store_true", help="emit the raw record as JSON"
    )

    watch_cmd = sub.add_parser(
        "watch",
        help="in-terminal live dashboard for a running campaign",
    )
    watch_cmd.add_argument(
        "target",
        help="where the campaign publishes status: a --live-status file "
        "path, a --live-port port number (local), host:port, or a full "
        "http(s) URL",
    )
    watch_cmd.add_argument(
        "--interval",
        type=float,
        metavar="S",
        default=1.0,
        help="seconds between refreshes",
    )
    watch_cmd.add_argument(
        "--once",
        action="store_true",
        help="render a single snapshot and exit",
    )
    watch_cmd.add_argument(
        "--json",
        action="store_true",
        help="print the raw status JSON instead of the dashboard",
    )
    watch_cmd.add_argument(
        "--timeout",
        type=float,
        metavar="S",
        default=None,
        help="give up after S seconds if the target never appears "
        "(default: wait forever)",
    )

    bench = sub.add_parser(
        "bench-check",
        help="check newest benchmark results against the recorded history",
    )
    bench.add_argument(
        "--results-dir",
        default="benchmarks/results",
        help="directory holding history.jsonl and BENCH_*.json",
    )
    bench.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="allowed fractional drift around the baseline "
        "(default: repro.observe.history.DEFAULT_TOLERANCE)",
    )
    bench.add_argument("--suite", default=None, help="check one suite only")
    bench.add_argument(
        "--host",
        default=None,
        help="check against baselines recorded for HOST instead of this "
        "machine's hostname (e.g. a stable CI runner label)",
    )
    bench.add_argument(
        "--advisory",
        action="store_true",
        help="report regressions but always exit 0",
    )
    bench.add_argument(
        "--json", action="store_true", help="machine-readable findings"
    )
    return parser


def _build_injector(args, telemetry, manifest: RunManifest | None) -> FaultInjector:
    """The campaign's injector; the manifest records the backend and the
    checkpoint interval that ran (both resolve per kernel)."""
    injector = FaultInjector(
        load_instance(args.kernel),
        telemetry=telemetry,
        backend=args.backend,
        propagation=args.propagation,
    )
    if manifest is not None:
        manifest.config["backend"] = injector.backend
        manifest.config["checkpoint_interval"] = injector.checkpoint_interval
    return injector


def _live_wanted(args) -> bool:
    """Does any flag read the live plane (``--progress`` or a live flag)?"""
    if args.progress:
        return True
    if not hasattr(args, "live_port"):
        return False
    return (
        args.live_port is not None
        or bool(args.live_status)
        or bool(args.flight_recorder)
        or getattr(args, "until_ci", None) is not None
    )


def _live_config(args) -> dict:
    """Manifest config entries for the live flags — only keys actually
    set, so manifests from live-less runs are byte-identical to before."""
    config: dict = {}
    if getattr(args, "start_method", None):
        config["start_method"] = args.start_method
    if not hasattr(args, "live_port"):
        return config
    if args.live_port is not None:
        config["live_port"] = args.live_port
    if args.live_status:
        config["live_status"] = args.live_status
    if getattr(args, "until_ci", None) is not None:
        config["until_ci"] = args.until_ci
    if args.flight_recorder:
        config["flight_recorder"] = args.flight_recorder
    return config


class _LivePlane:
    """One campaign's live plane: the aggregator plus its front-ends."""

    def __init__(self, aggregator, server=None, writers=()):
        self.aggregator = aggregator
        self.server = server
        self.writers = writers

    def close(self) -> None:
        # Writers first: their final flush records the terminal state
        # before the HTTP endpoint disappears.
        for writer in self.writers:
            writer.stop()
        if self.server is not None:
            self.server.stop()


def _make_live(args, manifest: RunManifest | None = None) -> _LivePlane | None:
    """Build the live plane when ``--progress`` or a live flag asks for it."""
    if not _live_wanted(args):
        return None
    from .observe.live import FlightRecorder, LiveAggregator
    from .observe.statusd import ProgressWriter, StatusFileWriter, StatusServer

    aggregator = LiveAggregator(until_ci=getattr(args, "until_ci", None))
    if args.flight_recorder:
        aggregator.flight_recorder = FlightRecorder(
            args.flight_recorder, manifest=manifest
        )
    server = None
    if args.live_port is not None:
        server = StatusServer(aggregator, port=args.live_port)
        server.start()
        print(f"live status: {server.url}", file=sys.stderr)
    writers = []
    if args.live_status:
        writers.append(StatusFileWriter(aggregator, args.live_status))
    if args.progress:
        writers.append(ProgressWriter(aggregator, sys.stderr))
    for writer in writers:
        writer.start()
    return _LivePlane(aggregator, server=server, writers=writers)


def _print_convergence(args, result) -> None:
    """One line on the ``--until-ci`` verdict after a sampled campaign."""
    if getattr(args, "until_ci", None) is None:
        return
    target = f"±{100 * args.until_ci:.1f}pp"
    if result.stopped_early:
        print(
            f"converged: every outcome share within {target} after "
            f"{result.profile.n_injections} injections — stopped early"
        )
    elif result.converged:
        print(f"converged: every outcome share within {target}")
    else:
        print(f"not converged: outcome shares wider than {target}")


def _make_telemetry(args) -> Telemetry:
    """A live Telemetry when any instrumentation flag is set, else null."""
    if args.telemetry_out:
        return Telemetry(sink=JsonlSink(args.telemetry_out))
    if args.manifest or _live_wanted(args):
        return Telemetry(sink=NullSink())
    return NULL_TELEMETRY


def _finish_manifest(
    manifest: RunManifest | None,
    telemetry: Telemetry,
    t0: float,
    profile=None,
    path: str | None = None,
) -> None:
    telemetry.close()
    if manifest is None:
        return
    if profile is not None:
        manifest.record_profile(profile)
    manifest.finalize(telemetry, wall_clock_s=time.perf_counter() - t0)
    manifest.write(path)
    print(f"wrote manifest {path}")


def cmd_list(args) -> int:
    rows = []
    for spec in all_kernels():
        injector = FaultInjector(spec.build())
        rows.append(
            {
                "key": spec.key,
                "suite": spec.suite,
                "kernel": spec.kernel_name,
                "threads": injector.instance.geometry.n_threads,
                "fault_sites": injector.space.total_sites,
            }
        )
    if args.json:
        print(json.dumps(rows, indent=1))
        return 0
    print(f"{'key':16s} {'suite':10s} {'kernel':20s} {'threads':>8s} "
          f"{'fault sites':>12s}")
    for row in rows:
        print(
            f"{row['key']:16s} {row['suite']:10s} {row['kernel']:20s} "
            f"{row['threads']:8d} {row['fault_sites']:12,}"
        )
    return 0


def cmd_profile(args) -> int:
    telemetry = _make_telemetry(args)
    manifest = None
    if args.audit_groups:
        args.propagation = True  # signatures are the audited quantity
    if args.manifest:
        manifest = RunManifest.create(
            kernel=args.kernel,
            command="profile",
            config={
                "loop_iters": args.loop_iters,
                "bits": args.bits,
                "seed": args.seed,
                "workers": args.workers,
                "backend": args.backend,
                "propagation": args.propagation,
                "audit_groups": args.audit_groups,
                **_live_config(args),
            },
            seed=args.seed,
            events_path=args.telemetry_out,
        )
    t0 = time.perf_counter()
    injector = _build_injector(args, telemetry, manifest)
    pruner = ProgressivePruner(
        num_loop_iters=args.loop_iters, n_bits=args.bits, seed=args.seed
    )
    space = pruner.prune(injector)
    plane = _make_live(args, manifest=manifest)
    try:
        profile = space.estimate_profile(
            injector,
            executor=resolve_executor(
                args.workers, start_method=args.start_method
            ),
            live=plane.aggregator if plane is not None else None,
        )
    finally:
        if plane is not None:
            plane.close()
    print(f"{args.kernel}: {space.total_sites:,} sites -> "
          f"{space.n_injections:,} injections "
          f"({space.reduction_factor():,.0f}x)")
    print(profile)
    if args.audit_groups:
        from .faults import run_coherence_audit

        audit = run_coherence_audit(injector, max_groups=args.audit_groups)
        print(
            f"coherence audit: {len(audit.groups)} group(s), "
            f"agreement {audit.agreement:.1%}"
        )
        for group in audit.incoherent_groups:
            print(
                f"  {group.group} (icnt {group.icnt},"
                f" {group.n_threads} threads):"
                f" agreement {group.agreement:.1%},"
                f" {len(group.mismatches)} mismatching probe(s)"
            )
    _finish_manifest(manifest, telemetry, t0, profile=profile, path=args.manifest)
    return 0


def cmd_baseline(args) -> int:
    telemetry = _make_telemetry(args)
    manifest = None
    n = sample_size_worst_case(args.margin, args.confidence)
    if args.manifest:
        manifest = RunManifest.create(
            kernel=args.kernel,
            command="baseline",
            config={
                "confidence": args.confidence,
                "margin": args.margin,
                "seed": args.seed,
                "runs": n,
                "workers": args.workers,
                "backend": args.backend,
                **_live_config(args),
            },
            seed=args.seed,
            events_path=args.telemetry_out,
        )
    t0 = time.perf_counter()
    injector = _build_injector(args, telemetry, manifest)
    plane = _make_live(args, manifest=manifest)
    try:
        result = random_campaign(
            injector,
            n,
            rng=args.seed,
            executor=resolve_executor(
                args.workers, start_method=args.start_method
            ),
            live=plane.aggregator if plane is not None else None,
            until_ci=args.until_ci,
            early_stop=args.until_ci is not None,
        )
    finally:
        if plane is not None:
            plane.close()
    print(f"{args.kernel}: {result.n_runs} random injections "
          f"({100 * args.confidence:.1f}% CI, ±{100 * args.margin:.1f}pp)")
    print(result.profile)
    _print_convergence(args, result)
    _finish_manifest(
        manifest, telemetry, t0, profile=result.profile, path=args.manifest
    )
    return 0


def cmd_stages(args) -> int:
    telemetry = _make_telemetry(args)
    manifest = None
    if args.manifest:
        manifest = RunManifest.create(
            kernel=args.kernel,
            command="stages",
            config={
                "loop_iters": args.loop_iters,
                "bits": args.bits,
                "workers": args.workers,
                "backend": args.backend,
            },
            events_path=args.telemetry_out,
        )
    t0 = time.perf_counter()
    injector = _build_injector(args, telemetry, manifest)
    pruner = ProgressivePruner(num_loop_iters=args.loop_iters, n_bits=args.bits)

    def progress(done: int, total: int) -> None:
        print(f"{args.kernel} stages: {done}/{total}", file=sys.stderr)

    space = pruner.prune(injector, progress=progress if args.progress else None)
    print(f"{args.kernel}: exhaustive {space.total_sites:,}")
    for stage in space.stages:
        print(f"  after {stage.name:17s}: {stage.sites_after:10,}")
    _finish_manifest(manifest, telemetry, t0, path=args.manifest)
    return 0


def cmd_metrics(args) -> int:
    telemetry = (
        Telemetry(sink=JsonlSink(args.telemetry_out))
        if args.telemetry_out
        else Telemetry()
    )
    manifest = None
    if args.manifest:
        manifest = RunManifest.create(
            kernel=args.kernel,
            command="metrics",
            config={
                "runs": args.runs,
                "seed": args.seed,
                "workers": args.workers,
                "backend": args.backend,
                **_live_config(args),
            },
            seed=args.seed,
            events_path=args.telemetry_out,
        )
    t0 = time.perf_counter()
    injector = _build_injector(args, telemetry, manifest)
    plane = _make_live(args, manifest=manifest)
    try:
        result = random_campaign(
            injector,
            args.runs,
            rng=args.seed,
            executor=resolve_executor(
                args.workers, start_method=args.start_method
            ),
            live=plane.aggregator if plane is not None else None,
            until_ci=args.until_ci,
            early_stop=args.until_ci is not None,
        )
    finally:
        if plane is not None:
            plane.close()
    print(f"{args.kernel}: {result.n_runs} instrumented random injections")
    print(result.profile)
    _print_convergence(args, result)
    print()
    print(telemetry.metrics.render())
    _finish_manifest(
        manifest, telemetry, t0, profile=result.profile, path=args.manifest
    )
    return 0


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def cmd_report(args) -> int:
    import os

    if args.diff is not None:
        from .observe import diff_reports, load_report_json, render_diff_text

        diff = diff_reports(
            load_report_json(args.diff[0]), load_report_json(args.diff[1])
        )
        if args.format == "json":
            _emit(json.dumps(diff, indent=1, sort_keys=True) + "\n", args.out)
        else:
            _emit(render_diff_text(diff), args.out)
        if args.fail_on_regression:
            shifted = [
                row["outcome"]
                for row in diff["outcomes"]
                if row["significant"]
            ]
            if shifted:
                print(
                    "FAIL: outcome profile shifted beyond sampling noise "
                    f"({', '.join(shifted)})",
                    file=sys.stderr,
                )
                return 1
        return 0

    targets = list(args.target)
    if not targets:
        from .errors import ReproError

        raise ReproError("report needs telemetry files, a kernel key, or --diff A B")
    if all(os.path.exists(t) for t in targets):
        from .observe import (
            build_report,
            load_campaign,
            render_json,
            render_markdown,
            render_text,
        )

        log = load_campaign(targets, manifest_paths=args.manifest)
        report = build_report(log, propagation=args.propagation)
        renderer = {
            "text": render_text,
            "json": render_json,
            "markdown": render_markdown,
        }[args.format]
        _emit(renderer(report), args.out)
        return 0

    if len(targets) != 1:
        from .errors import ReproError

        missing = [t for t in targets if not os.path.exists(t)]
        raise ReproError(
            f"campaign report needs existing telemetry files; missing: "
            f"{', '.join(missing)}"
        )

    from .analysis import render_report

    telemetry = Telemetry()  # its weighted events rank the hardening priorities
    injector = FaultInjector(load_instance(targets[0]), telemetry=telemetry)
    pruner = ProgressivePruner(num_loop_iters=args.loop_iters, n_bits=args.bits)
    space = pruner.prune(injector)
    profile = space.estimate_profile(injector)
    events = telemetry.sink.of_type(InjectionEvent)
    _emit(render_report(injector, space, profile, events), args.out)
    return 0


def cmd_trace_fault(args) -> int:
    from .faults import FaultSite, parse_site
    from .observe import render_trace_text

    site = parse_site(args.site)
    injector = FaultInjector(
        load_instance(args.kernel), backend=args.backend, propagation=True
    )
    if isinstance(site, FaultSite):
        outcome = injector.inject(site)
    else:
        outcome = injector.inject_spec(site.thread, site.spec(), label=str(site))
    record = injector.propagation_records[-1]
    if args.json:
        print(json.dumps(record.to_dict(), indent=1, sort_keys=True))
    else:
        print(f"{args.kernel} {site}: {outcome.value}")
        print(render_trace_text(record.to_dict()), end="")
    return 0


def cmd_watch(args) -> int:
    from .observe.statusd import watch

    return watch(
        args.target,
        interval_s=args.interval,
        once=args.once,
        as_json=args.json,
        timeout_s=args.timeout,
    )


def cmd_bench_check(args) -> int:
    from .observe.history import (
        DEFAULT_TOLERANCE,
        MIN_BLOCKING_SAMPLES,
        check_history,
    )

    tolerance = args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    findings = check_history(
        args.results_dir, tolerance=tolerance, suite=args.suite, host=args.host
    )
    regressions = [f for f in findings if f["status"] == "regression"]
    blocking = [f for f in regressions if not f.get("advisory")]
    advisory = [f for f in regressions if f.get("advisory")]
    if args.json:
        print(json.dumps(
            {"tolerance": tolerance, "findings": findings,
             "regressions": len(regressions),
             "blocking": len(blocking)},
            indent=1,
        ))
    else:
        print(f"bench-check: {len(findings)} series, tolerance ±{tolerance:.0%}")
        for f in findings:
            baseline = (
                f"baseline {f['baseline']:.6g}" if f["baseline"] is not None
                else "no baseline"
            )
            tag = "advisory" if f.get("advisory") else f["status"]
            print(
                f"  [{tag:<11s}] {f['suite']}/{f['kernel']}"
                f" {f['metric']}={f['value']:.6g}{f['unit']}"
                f" ({baseline}, {f['observations']} obs)"
            )
        if advisory:
            print(
                f"WARNING: {len(advisory)} regression(s) backed by fewer "
                f"than {MIN_BLOCKING_SAMPLES} baseline samples — advisory "
                "only, not gating"
            )
        if blocking:
            print(f"{len(blocking)} regression(s) beyond ±{tolerance:.0%}")
    if blocking and not args.advisory:
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list(args)
    if args.command == "profile":
        return cmd_profile(args)
    if args.command == "baseline":
        return cmd_baseline(args)
    if args.command == "stages":
        return cmd_stages(args)
    if args.command == "metrics":
        return cmd_metrics(args)
    if args.command == "report":
        return cmd_report(args)
    if args.command == "trace-fault":
        return cmd_trace_fault(args)
    if args.command == "watch":
        return cmd_watch(args)
    if args.command == "bench-check":
        return cmd_bench_check(args)
    raise AssertionError("unreachable")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
