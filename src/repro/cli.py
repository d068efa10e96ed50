"""Command-line interface: regenerate any paper figure from a shell.

Examples::

    python -m repro figures               # list everything available
    python -m repro figure 9              # Figure 9's table
    python -m repro figure 13a            # a Section 6 snapshot
    python -m repro ablation granularity  # one of the ablations
    python -m repro extension concert     # TLB/bpred/joint studies
    python -m repro suite                 # the calibrated workload suite
    python -m repro clock                 # the CAP's predetermined clocks
    python -m repro power                 # Section 4.1 operating points

The public query API (see docs/service.md)::

    python -m repro query iqueue compress          # answer locally
    python -m repro serve --port 8337 --jobs 4     # run the sweep service
    python -m repro query tlb compress --url http://127.0.0.1:8337
    python -m repro loadtest --tenants 4 --requests 8   # load + SLO check

Every ``figure``/``ablation``/``extension`` run goes through the
experiment engine and accepts its knobs::

    python -m repro figure 9 --jobs 8 --cache-dir .repro-cache
    python -m repro cache-clear --cache-dir .repro-cache

Observability (see docs/observability.md)::

    python -m repro figure 9 --trace t.jsonl --metrics m.prom --profile
    python -m repro obs summarize t.jsonl
    python -m repro obs critical-path t.jsonl --trace-id abc123

Fault tolerance (see docs/resilience.md); a killed run re-run with the
same ``--cache-dir`` recomputes only the cells it had not finished::

    python -m repro figure 9 --jobs 8 --retries 5 --timeout 120 \\
        --cache-dir .repro-cache
    python -m repro cache-verify --cache-dir .repro-cache
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence, TypeVar

from repro.engine.cells import cell_kinds
from repro.engine.engine import ExperimentEngine
from repro.experiments.reporting import format_series, format_table

T = TypeVar("T")


# ---------------------------------------------------------------------------
# figure printers
# ---------------------------------------------------------------------------


def _print_wire_figure(series) -> None:
    print(format_series(series.x_label, series.x_values, series.as_series_dict()))
    for feature in sorted(series.buffered_ns, reverse=True):
        print(f"  buffering pays from x = {series.crossover(feature)} at {feature}u")


def _figure_1a(engine: ExperimentEngine) -> None:
    from repro.experiments.wire_delay import figure1

    print("Figure 1(a): cache wire delay (ns), 2KB subarrays")
    _print_wire_figure(figure1(subarray_kb=2))


def _figure_1b(engine: ExperimentEngine) -> None:
    from repro.experiments.wire_delay import figure1

    print("Figure 1(b): cache wire delay (ns), 4KB subarrays")
    _print_wire_figure(figure1(subarray_kb=4))


def _figure_2(engine: ExperimentEngine) -> None:
    from repro.experiments.wire_delay import figure2

    print("Figure 2: integer queue wire delay (ns)")
    _print_wire_figure(figure2())


def _print_tpi_panels(panels, x_label: str) -> None:
    for domain in ("integer", "floating"):
        panel = panels[domain]
        apps = sorted(panel)
        xs = sorted(next(iter(panel.values())))
        series = {app: [panel[app][x] for x in xs] for app in apps}
        print(f"\n[{domain}]")
        print(format_series(x_label, xs, series))


def _figure_7(engine: ExperimentEngine) -> None:
    from repro.experiments.cache_study import figure7

    print("Figure 7: Avg TPI (ns) vs L1 D-cache size, fixed boundary")
    _print_tpi_panels(figure7(engine=engine), "L1 KB")


def _figure_8_9(metric: str, engine: ExperimentEngine) -> None:
    from repro.experiments.cache_study import figure8_9

    study = figure8_9(engine=engine)
    comparison = study.tpi_miss if metric == "miss" else study.tpi
    label = "TPImiss" if metric == "miss" else "TPI"
    print(
        f"Figure {'8' if metric == 'miss' else '9'}: Avg {label} (ns), conventional "
        f"{study.conventional_l1_kb:.0f}KB L1 vs process-level adaptive"
    )
    rows = [
        [app, f"{8 * study.best_boundaries[app]}K",
         comparison.conventional[app], comparison.adaptive[app]]
        for app in comparison.applications
    ]
    rows.append(["average", "-", comparison.average_conventional(),
                 comparison.average_adaptive()])
    print(format_table(["app", "adaptive L1", "conventional", "adaptive"], rows))
    print(f"average reduction: {comparison.average_reduction_percent():.1f}%")


def _figure_10(engine: ExperimentEngine) -> None:
    from repro.experiments.queue_study import figure10

    print("Figure 10: Avg TPI (ns) vs instruction queue size")
    _print_tpi_panels(figure10(engine=engine), "entries")


def _figure_11(engine: ExperimentEngine) -> None:
    from repro.experiments.queue_study import figure11

    study = figure11(engine=engine)
    print(
        f"Figure 11: Avg TPI (ns), conventional {study.conventional_size}-entry "
        "queue vs process-level adaptive"
    )
    rows = [
        [app, study.best_sizes[app], study.tpi.conventional[app],
         study.tpi.adaptive[app]]
        for app in study.tpi.applications
    ]
    rows.append(["average", "-", study.tpi.average_conventional(),
                 study.tpi.average_adaptive()])
    print(format_table(["app", "adaptive entries", "conventional", "adaptive"], rows))
    print(f"average reduction: {study.tpi.average_reduction_percent():.1f}%")


def _print_interval_result(result) -> None:
    windows = result.windows
    rows = [
        [i] + [float(result.series[w].tpi_ns[i]) for w in windows]
        for i in range(len(result.series[windows[0]]))
    ]
    print(format_table(["interval"] + [f"{w}" for w in windows], rows))


def _figure_12(engine: ExperimentEngine) -> None:
    from repro.experiments.interval_study import figure12

    print("Figure 12: turb3d interval TPI (ns), 64 vs 128 entries")
    _print_interval_result(figure12(intervals_per_phase=30, engine=engine))


def _figure_13(regular: bool, engine: ExperimentEngine) -> None:
    from repro.experiments.interval_study import figure13

    panel = "a (regular)" if regular else "b (irregular)"
    print(f"Figure 13{panel}: vortex interval TPI (ns), 16 vs 64 entries")
    _print_interval_result(figure13(regular=regular, engine=engine))


_FIGURES: dict[str, Callable[[ExperimentEngine], None]] = {
    "1a": _figure_1a,
    "1b": _figure_1b,
    "2": _figure_2,
    "7": _figure_7,
    "8": lambda engine: _figure_8_9("miss", engine),
    "9": lambda engine: _figure_8_9("total", engine),
    "10": _figure_10,
    "11": _figure_11,
    "12": _figure_12,
    "13a": lambda engine: _figure_13(True, engine),
    "13b": lambda engine: _figure_13(False, engine),
}


# ---------------------------------------------------------------------------
# ablations and extensions
# ---------------------------------------------------------------------------


def _ablation(name: str, engine: ExperimentEngine) -> None:
    from repro.experiments import ablations
    from repro.experiments.interval_study import figure13

    if name == "granularity":
        r = ablations.increment_granularity_ablation(engine=engine)
        print(format_table(
            ["design", "cycle @16KB", "conventional TPI", "adaptive TPI"],
            [["8KB 2-way (paper)", r.paper_cycle_at_16kb, r.paper_suite_tpi_ns,
              r.paper_adaptive_tpi_ns],
             ["4KB direct-mapped", r.fine_cycle_at_16kb, r.fine_suite_tpi_ns,
              r.fine_adaptive_tpi_ns]],
        ))
    elif name == "latency-mode":
        r = ablations.latency_mode_ablation(engine=engine)
        winners = r.winners()
        rows = [[a, r.clock_mode_tpi[a], r.latency_mode_tpi[a], winners[a]]
                for a in sorted(r.clock_mode_tpi)]
        print(format_table(["app", "clock mode", "latency mode", "winner"], rows))
    elif name == "flush":
        r = ablations.flush_reconfiguration_ablation()
        print(f"{r.app}: {r.preserved_misses} misses preserving data, "
              f"{r.flushed_misses} with a flush "
              f"(+{r.extra_misses}, {r.extra_miss_ns / 1000:.1f} us)")
    elif name == "confidence":
        sweep = ablations.confidence_threshold_sweep(
            figure13(regular=False, engine=engine)
        )
        print(format_table(
            ["threshold", "TPI (ns)", "switches"],
            [[t, o.tpi_ns, o.n_switches] for t, o in sorted(sweep.items())],
        ))
    elif name == "switch-cost":
        sweep = ablations.switch_cost_sensitivity(
            figure13(regular=True, engine=engine)
        )
        print(format_table(
            ["pause (cycles)", "TPI (ns)", "switches"],
            [[p, o.tpi_ns, o.n_switches] for p, o in sorted(sweep.items())],
        ))
    else:
        raise SystemExit(f"unknown ablation {name!r}; see `repro ablations`")


_ABLATIONS = ("granularity", "latency-mode", "flush", "confidence", "switch-cost")


def _extension(name: str, engine: ExperimentEngine) -> None:
    from repro.branch.predictors import PredictorKind
    from repro.experiments import extended_structures as ext
    from repro.experiments.interval_study import cache_interval_study, predictor_study

    if name == "tlb":
        study = ext.tlb_study(engine=engine)
        rows = [[a, study.best_configs[a], study.tpi.conventional[a],
                 study.tpi.adaptive[a]] for a in study.tpi.applications]
        print(format_table(["app", "best fast entries", "conventional", "adaptive"],
                           rows))
        print(f"conventional fast section: {study.conventional_config}; "
              f"average reduction {study.tpi.average_reduction_percent():.1f}%")
    elif name == "bpred":
        for kind in (PredictorKind.GSHARE, PredictorKind.BIMODAL):
            study = ext.branch_study(kind, engine=engine)
            print(f"{kind.value}: conventional {study.conventional_config} entries, "
                  f"average reduction {study.tpi.average_reduction_percent():.1f}%")
    elif name == "concert":
        study = ext.concert_study(engine=engine)
        conv = study.conventional
        print(f"conventional: L1 {8 * conv.cache_boundary}KB, "
              f"queue {conv.queue_entries}, TLB fast {conv.tlb_fast_entries}, "
              f"bpred {conv.predictor_entries}")
        rows = [[a, f"{8 * c.cache_boundary}K", c.queue_entries,
                 c.tlb_fast_entries, c.predictor_entries]
                for a, c in study.best_configs.items()]
        print(format_table(["app", "L1", "queue", "TLB fast", "bpred"], rows))
        print(f"average joint reduction: {study.tpi.average_reduction_percent():.1f}%")
    elif name == "cache-intervals":
        study = cache_interval_study()
        ps = predictor_study(study, confidence_threshold=0.7)
        print(f"best static: {ps.best_static_tpi_ns:.3f} ns; "
              f"predictor: {ps.adaptive.tpi_ns:.3f} ns "
              f"({ps.adaptive.n_switches} switches); "
              f"oracle: {ps.oracle.tpi_ns:.3f} ns")
    else:
        raise SystemExit(f"unknown extension {name!r}; see `repro extensions`")


_EXTENSIONS = ("tlb", "bpred", "concert", "cache-intervals")


# ---------------------------------------------------------------------------
# info commands
# ---------------------------------------------------------------------------


def _suite() -> None:
    from repro.workloads.suite import all_profiles

    rows = []
    for p in all_profiles():
        if p.memory is None:
            memory = "(not traced — Atom could not instrument go)"
        else:
            memory = ", ".join(
                f"{c.kind.value}:{c.size_kb:g}KB@{c.weight:g}"
                for c in p.memory.components
            )
        rows.append([p.name, p.suite.value, p.domain, memory])
    print(format_table(["app", "suite", "domain", "working-set components"], rows))


def _clock() -> None:
    from repro import CapProcessor

    cpu = CapProcessor()
    print(cpu.describe())
    print("\nAll predetermined clock periods:")
    for period in cpu.clock.available_speeds_ns():
        print(f"  {period:.3f} ns  ({1.0 / period:.2f} GHz)")


def _power() -> None:
    from repro import AdaptiveCacheHierarchy, AdaptiveInstructionQueue
    from repro.core.power import PowerModel, PowerMode

    model = PowerModel(
        structures=(AdaptiveCacheHierarchy(), AdaptiveInstructionQueue())
    )
    rows = []
    for mode in (PowerMode.HIGH_PERFORMANCE, PowerMode.BALANCED, PowerMode.LOW_POWER):
        est = model.mode_estimate(mode)
        rows.append([mode.value, str(est.configs), est.cycle_time_ns,
                     est.relative_power])
    print(format_table(["mode", "configs", "clock (ns)", "relative power"], rows))


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _engine_options(run_sinks: bool = True) -> argparse.ArgumentParser:
    """Shared engine, resilience and observability options for every
    subcommand that runs experiments.  ``run_sinks`` adds ``--metrics``
    and ``--profile``, which only one-shot commands honour."""
    opts = argparse.ArgumentParser(add_help=False)
    group = opts.add_argument_group("engine options")
    group.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for sweep cells (default: 1, serial)",
    )
    group.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="content-addressed result cache directory (default: no cache)",
    )
    group.add_argument(
        "--no-cache", action="store_true",
        help="bypass the result cache even if --cache-dir is set",
    )
    group.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="cells per worker chunk (default: automatic load-balancing "
        "heuristic)",
    )
    res_group = opts.add_argument_group("resilience options")
    res_group.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="total attempts per chunk before a transient failure is fatal "
        "(default: 3)",
    )
    res_group.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-chunk deadline in seconds; a chunk exceeding it is treated "
        "as a hung worker (default: no deadline)",
    )
    obs_group = opts.add_argument_group("observability options")
    obs_group.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a structured span/event decision trace as JSONL to PATH",
    )
    if run_sinks:
        obs_group.add_argument(
            "--metrics", default=None, metavar="PATH",
            help="write a Prometheus text snapshot of the metrics registry "
            "to PATH",
        )
        obs_group.add_argument(
            "--profile", action="store_true",
            help="print a wall-time profile (engine runs, per evaluator "
            "kind, per structure) to stderr after the run",
        )
    return opts


def _engine_from_args(args: argparse.Namespace) -> ExperimentEngine:
    from repro.errors import EngineError
    from repro.resilience import RetryPolicy

    try:
        retry = None
        if args.retries is not None or args.timeout is not None:
            defaults = RetryPolicy()
            retry = RetryPolicy(
                max_attempts=(
                    args.retries if args.retries is not None else defaults.max_attempts
                ),
                timeout_s=args.timeout,
            )
        return ExperimentEngine(
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            use_cache=not args.no_cache,
            chunk_size=args.chunk_size,
            retry=retry,
        )
    except EngineError as exc:
        raise SystemExit(f"error: {exc}")


def _run_observed(
    args: argparse.Namespace, span_name: str, runner: Callable[[], T],
    **span_attrs,
) -> T:
    """Run one command under the requested observability sinks.

    ``--trace`` activates a tracer (the whole command becomes one
    ``run``-level span), ``--profile`` prints a wall-time table built
    from the trace's records to stderr (an in-memory tracer stands in
    when no ``--trace`` file is given), and ``--metrics`` snapshots the
    process-wide registry to a Prometheus text file after the run.
    """
    from contextlib import ExitStack

    from repro.obs import metrics
    from repro.obs.summarize import profile_report
    from repro.obs.trace import Tracer, span

    tracer = None
    with ExitStack() as stack:
        if args.trace or args.profile:
            tracer = stack.enter_context(Tracer(args.trace))
        with span(span_name, level="run", **span_attrs):
            result = runner()
    if args.metrics:
        metrics().write_prometheus(args.metrics)
    if tracer is not None and args.profile:
        print(profile_report(tracer.records), file=sys.stderr)
    return result


def _obs_summarize(path: str) -> int:
    from repro.errors import ObservabilityError
    from repro.obs.summarize import summarize_path

    try:
        print(summarize_path(path))
    except ObservabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _obs_critical_path(path: str, trace_id: str | None) -> int:
    from repro.errors import ObservabilityError
    from repro.obs import read_records
    from repro.obs.critical import critical_path, format_report

    try:
        report = critical_path(read_records(path), trace_id=trace_id)
    except ObservabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(format_report(report))
    return 0


def _cache_verify(cache_dir: str) -> int:
    """Integrity-check a result cache; exit non-zero if anything is corrupt."""
    from repro.engine.cache import ResultCache

    cache = ResultCache(cache_dir)
    report = cache.verify()
    print(
        f"{cache_dir}: {report.total} entr{'y' if report.total == 1 else 'ies'} "
        f"checked, {report.ok} ok, {report.stale} stale, "
        f"{len(report.corrupt)} corrupt"
    )
    for key in report.corrupt:
        print(f"  quarantined {key[:16]}… -> {cache.quarantine_dir}")
    return 0 if report.healthy else 1


def _degrade(args, engine: ExperimentEngine) -> None:
    """Print the graceful-degradation study's retained-TPI grid."""
    from repro.experiments.degradation_study import degradation_study

    study = degradation_study(
        fail_fractions=tuple(args.faults),
        noise_fractions=tuple(args.noise),
        seed=args.seed,
        n_rounds=args.rounds,
        engine=engine,
    )
    print(
        "Graceful degradation: TPI retained vs the fault-free oracle "
        f"(seed {study.seed}, {study.n_rounds} adaptation rounds)"
    )
    rows = [
        [
            c.structure,
            f"{c.fail_fraction:.0%}",
            f"{c.noise_fraction:.0%}",
            f"{c.n_reachable}/{c.n_designed}",
            c.oracle_tpi_ns,
            c.final_tpi_ns,
            f"{c.retained:.1%}",
            f"{c.n_fallbacks}/{c.n_regressions}",
        ]
        for c in study.cells
    ]
    print(format_table(
        ["structure", "faults", "noise", "reachable", "oracle TPI",
         "final TPI", "retained", "fallbacks/regr"],
        rows,
    ))
    print(
        f"worst retained: {study.worst_retained():.1%}; "
        f"unrecovered regressions: {study.total_unrecovered()}"
    )


def _serve(args, engine: ExperimentEngine) -> int:
    """Boot the sweep service and block until interrupted."""
    from contextlib import ExitStack

    from repro.dispatch.plane import DispatchPolicy
    from repro.obs.trace import Tracer
    from repro.service import QuotaPolicy, ServiceConfig, run_service
    from repro.service.breaker import BreakerPolicy

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        quota=QuotaPolicy(
            burst=args.quota_burst,
            rate_per_s=args.quota_rate,
            max_inflight=args.quota_inflight,
        ),
        warm_entries=args.warm_entries,
        batch_window_s=args.batch_window,
        journal_path=args.job_journal,
        max_jobs=args.max_jobs,
        breaker=BreakerPolicy(
            failure_threshold=args.breaker_failures,
            reset_timeout_s=args.breaker_reset,
        ),
        drain_timeout_s=args.drain_timeout,
        workers=args.workers,
        dispatch=DispatchPolicy(lease_s=args.lease),
    )

    def on_ready(service) -> None:
        # The CI smoke test parses this line for the bound port.
        print(f"serving on http://{config.host}:{service.port}", flush=True)

    with ExitStack() as stack:
        if args.trace:
            # Every request span, queue wait, batch and stitched worker
            # shard of the service's lifetime lands in this one file.
            stack.enter_context(Tracer(args.trace))
        run_service(engine, config, on_ready=on_ready)
    return 0


def _worker(args) -> int:
    """Serve one dispatch worker until SIGTERM/SIGINT."""
    from repro.dispatch.worker import WorkerConfig, run_worker

    config = WorkerConfig(
        host=args.host,
        port=args.port,
        slots=args.slots,
        broker_url=args.broker,
    )

    def on_ready(server) -> None:
        # The chaos drill and smoke script parse this line for the port.
        print(
            f"worker serving on http://{config.host}:{server.port}",
            flush=True,
        )

    run_worker(config, on_ready=on_ready)
    return 0


def _loadtest(args) -> int:
    """Drive a load/SLO run against a live or self-hosted service."""
    from contextlib import ExitStack

    from repro.errors import ReproError
    from repro.obs.trace import Tracer
    from repro.service import ServiceConfig, ServiceThread
    from repro.service.loadtest import (
        SloPolicy,
        append_bench,
        format_report,
        run_loadtest,
    )

    slo = SloPolicy(
        p50_s=args.slo_p50,
        p95_s=args.slo_p95,
        p99_s=args.slo_p99,
        max_error_rate=args.slo_max_error_rate,
        max_throttle_rate=args.slo_max_429_rate,
    )
    try:
        with ExitStack() as stack:
            if args.trace:
                stack.enter_context(Tracer(args.trace))
            url = args.url
            if url is None:
                engine = _engine_from_args(args)
                service = stack.enter_context(
                    ServiceThread(engine, ServiceConfig(port=0))
                )
                url = service.url
            report = run_loadtest(
                url,
                tenants=args.tenants,
                requests_per_tenant=args.requests,
                seed=args.seed,
                warm_fraction=args.warm_fraction,
                slo=slo,
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(format_report(report))
    if args.bench:
        append_bench(args.bench, report, label=args.label)
        print(f"appended run record to {args.bench}")
    return 0 if report.passed else 1


def _query(args, engine: ExperimentEngine) -> int:
    """Answer one optimization request, locally or against a service."""
    from repro.api import OptimizationRequest, run_query
    from repro.errors import ReproError

    def ask():
        request = OptimizationRequest(
            args.structure,
            args.workload,
            tenant=args.tenant,
            predictor=args.predictor,
        )
        if args.url:
            from repro.service.client import ServiceClient

            return ServiceClient(args.url).optimize(request)
        return run_query(request, engine=engine)

    try:
        result = _run_observed(
            args, "query", ask, structure=args.structure, workload=args.workload
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    request = result.request
    if args.json:
        print(result.to_json())
        return 0
    print(
        f"{request.structure}/{request.workload}: best configuration "
        f"{result.best.config} (TPI {result.best.tpi_ns:.6f} ns, "
        f"IPC {result.best.ipc:.4f}, cycle {result.best.cycle_time_ns:.4f} ns)"
    )
    rows = [
        [point.config, point.tpi_ns, point.ipc, point.cycle_time_ns]
        for point in result.sweep
    ]
    print(format_table(["config", "TPI (ns)", "IPC", "cycle (ns)"], rows))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Complexity-Adaptive Processors: regenerate the paper.",
    )
    engine_opts = _engine_options()
    # Long-running commands honour --trace only: no end-of-run snapshot.
    service_opts = _engine_options(run_sinks=False)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("figures", help="list regenerable figures")
    fig = sub.add_parser(
        "figure", help="print one figure's data", parents=[engine_opts]
    )
    fig.add_argument("id", choices=sorted(_FIGURES))
    sub.add_parser("ablations", help="list ablation studies")
    abl = sub.add_parser("ablation", help="run one ablation", parents=[engine_opts])
    abl.add_argument("name", choices=_ABLATIONS)
    sub.add_parser("extensions", help="list extension studies")
    extp = sub.add_parser(
        "extension", help="run one extension study", parents=[engine_opts]
    )
    extp.add_argument("name", choices=_EXTENSIONS)
    exp = sub.add_parser("export", help="write figure data as CSV")
    exp.add_argument("id", help="figure id, or 'all'")
    exp.add_argument("--out", default="figures", help="output directory")
    clear = sub.add_parser("cache-clear", help="drop cached sweep results")
    clear.add_argument(
        "--cache-dir", required=True, metavar="DIR",
        help="cache directory to clear",
    )
    clear.add_argument(
        "--kind", default=None, choices=sorted(cell_kinds()),
        help="only drop entries of this cell kind (default: all)",
    )
    obsp = sub.add_parser(
        "obs", help="observability: summarize a decision trace or its "
        "critical path"
    )
    obs_sub = obsp.add_subparsers(dest="obs_command", required=True)
    osum = obs_sub.add_parser(
        "summarize",
        help="render a trace file human-readable",
    )
    osum.add_argument("path", help="JSONL trace file written via --trace")
    ocp = obs_sub.add_parser(
        "critical-path",
        help="decompose a trace's end-to-end latency along the critical "
             "path of its span tree",
    )
    ocp.add_argument("path", help="JSONL trace file written via --trace")
    ocp.add_argument(
        "--trace-id", default=None, metavar="ID",
        help="analyse this trace id (default: the trace with the longest "
             "root span)",
    )
    cver = sub.add_parser(
        "cache-verify",
        help="integrity-check every cached result, quarantining corrupt ones",
    )
    cver.add_argument(
        "--cache-dir", required=True, metavar="DIR",
        help="cache directory to verify",
    )
    deg = sub.add_parser(
        "degrade",
        help="graceful-degradation study: TPI retained with failed "
             "increments and noisy sensors",
        parents=[engine_opts],
    )
    deg.add_argument(
        "--faults", type=float, nargs="+", default=[0.25], metavar="F",
        help="fractions of non-minimal increments to fail (default: 0.25)",
    )
    deg.add_argument(
        "--noise", type=float, nargs="+", default=[0.10], metavar="F",
        help="multiplicative TPI sensor noise levels (default: 0.10)",
    )
    deg.add_argument(
        "--seed", type=int, default=0,
        help="seed for fault draws and sensor noise (default: 0)",
    )
    deg.add_argument(
        "--rounds", type=int, default=12,
        help="adaptation rounds per grid cell (default: 12)",
    )
    servep = sub.add_parser(
        "serve",
        help="run the multi-tenant TPI-optimization sweep service "
             "(POST /v1/optimize, GET /v1/jobs/{id}, GET /metrics)",
        parents=[service_opts],
    )
    servep.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    servep.add_argument(
        "--port", type=int, default=8337,
        help="bind port; 0 picks an ephemeral port (default: 8337)",
    )
    servep.add_argument(
        "--quota-burst", type=int, default=8, metavar="N",
        help="per-tenant token-bucket burst capacity (default: 8)",
    )
    servep.add_argument(
        "--quota-rate", type=float, default=4.0, metavar="R",
        help="per-tenant sustained admissions per second (default: 4)",
    )
    servep.add_argument(
        "--quota-inflight", type=int, default=16, metavar="N",
        help="per-tenant concurrent job cap (default: 16)",
    )
    servep.add_argument(
        "--warm-entries", type=int, default=256, metavar="N",
        help="warm result store capacity, LRU-evicted (default: 256)",
    )
    servep.add_argument(
        "--batch-window", type=float, default=0.02, metavar="S",
        help="seconds a new cell waits for batch companions (default: 0.02)",
    )
    servep.add_argument(
        "--job-journal", default=None, metavar="PATH",
        help="durable job journal (JSONL WAL); admitted jobs survive a "
             "crash and are recovered on restart (default: disabled)",
    )
    servep.add_argument(
        "--max-jobs", type=int, default=4096, metavar="N",
        help="hard cap on the job table; admission past it answers 429 "
             "(default: 4096)",
    )
    servep.add_argument(
        "--breaker-failures", type=int, default=3, metavar="N",
        help="consecutive failed engine batches before the circuit "
             "breaker opens (default: 3)",
    )
    servep.add_argument(
        "--breaker-reset", type=float, default=5.0, metavar="S",
        help="seconds an open breaker sheds before probing (default: 5)",
    )
    servep.add_argument(
        "--drain-timeout", type=float, default=10.0, metavar="S",
        help="SIGTERM drain budget for in-flight batches (default: 10)",
    )
    servep.add_argument(
        "--workers", action="store_true",
        help="enable the distributed worker plane: expose /v1/workers/* "
             "registration routes and dispatch cell chunks to registered "
             "`repro worker` processes under time-bounded leases "
             "(default: evaluate locally)",
    )
    servep.add_argument(
        "--lease", type=float, default=30.0, metavar="S",
        help="seconds a worker holds a chunk lease before the broker "
             "declares it lost and fails the chunk over (default: 30)",
    )
    workerp = sub.add_parser(
        "worker",
        help="serve one dispatch worker: register with a `repro serve "
             "--workers` broker, heartbeat, and evaluate leased cell "
             "chunks (POST /v1/evaluate, GET /healthz)",
    )
    workerp.add_argument(
        "--broker", default=None, metavar="URL",
        help="broker base URL to register with and heartbeat against "
             "(default: standalone, no registration)",
    )
    workerp.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    workerp.add_argument(
        "--port", type=int, default=0,
        help="bind port; 0 picks an ephemeral port (default: 0)",
    )
    workerp.add_argument(
        "--slots", type=int, default=1, metavar="N",
        help="concurrent chunk leases this worker accepts (default: 1)",
    )
    chaosp = sub.add_parser(
        "chaos",
        help="run the deterministic chaos drill: SIGKILL/recovery, "
             "breaker open/close, journal corruption — exits 0 only if "
             "every invariant holds",
    )
    chaosp.add_argument(
        "--seed", type=int, default=0,
        help="fault-plan seed; same seed, same drill (default: 0)",
    )
    chaosp.add_argument(
        "--workdir", default=None, metavar="DIR",
        help="directory for journals/cache scratch (default: a fresh "
             "temporary directory, kept for post-mortems)",
    )
    loadp = sub.add_parser(
        "loadtest",
        help="drive a deterministic multi-tenant load mix at a sweep "
             "service, judge latency SLOs, append to BENCH_service.json",
        parents=[service_opts],
    )
    loadp.add_argument(
        "--url", default=None, metavar="URL",
        help="target a running `repro serve` instance (default: self-host "
             "an ephemeral service built from the engine options)",
    )
    loadp.add_argument(
        "--tenants", type=int, default=2, metavar="N",
        help="concurrent tenants, one thread each (default: 2)",
    )
    loadp.add_argument(
        "--requests", type=int, default=4, metavar="M",
        help="requests per tenant (default: 4)",
    )
    loadp.add_argument(
        "--seed", type=int, default=0,
        help="traffic-mix seed; same seed, same requests (default: 0)",
    )
    loadp.add_argument(
        "--warm-fraction", type=float, default=0.5, metavar="F",
        help="fraction of requests repeating the shared warm cell "
             "(default: 0.5)",
    )
    loadp.add_argument(
        "--bench", default="BENCH_service.json", metavar="PATH",
        help="benchmark trajectory file to append the run record to; "
             "empty string disables (default: BENCH_service.json)",
    )
    loadp.add_argument(
        "--label", default="loadtest",
        help="label stored on the run record (default: loadtest)",
    )
    slo_group = loadp.add_argument_group("SLO thresholds")
    slo_group.add_argument(
        "--slo-p50", type=float, default=2.0, metavar="S",
        help="max p50 latency in seconds (default: 2.0)",
    )
    slo_group.add_argument(
        "--slo-p95", type=float, default=15.0, metavar="S",
        help="max p95 latency in seconds (default: 15.0)",
    )
    slo_group.add_argument(
        "--slo-p99", type=float, default=30.0, metavar="S",
        help="max p99 latency in seconds (default: 30.0)",
    )
    slo_group.add_argument(
        "--slo-max-error-rate", type=float, default=0.0, metavar="F",
        help="max fraction of requests ending in error (default: 0)",
    )
    slo_group.add_argument(
        "--slo-max-429-rate", type=float, default=0.9, metavar="F",
        help="max fraction of requests seeing a 429 (default: 0.9)",
    )
    queryp = sub.add_parser(
        "query",
        help="answer one TPI-optimization query (locally, or against a "
             "running service with --url)",
        parents=[engine_opts],
    )
    queryp.add_argument(
        "structure", choices=("dcache", "iqueue", "tlb", "bpred"),
        help="adaptive structure to optimize",
    )
    queryp.add_argument("workload", help="application name (see `repro suite`)")
    queryp.add_argument(
        "--predictor", choices=("gshare", "bimodal"), default="gshare",
        help="predictor organisation for bpred queries (default: gshare)",
    )
    queryp.add_argument(
        "--tenant", default="anonymous",
        help="tenant to bill the query to with --url (default: anonymous)",
    )
    queryp.add_argument(
        "--url", default=None, metavar="URL",
        help="query a running `repro serve` instance instead of computing "
             "locally",
    )
    queryp.add_argument(
        "--json", action="store_true",
        help="print the full OptimizationResult as JSON",
    )
    lintp = sub.add_parser(
        "lint",
        help="domain-aware static analysis: determinism, unit safety, "
             "conventions (RPR rules)",
    )
    lintp.add_argument(
        "paths", nargs="*", default=["src"], metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lintp.add_argument(
        "--format", dest="output_format", choices=("human", "json", "sarif"),
        default="human", help="output format (default: human)",
    )
    lintp.add_argument(
        "--select", default=None, metavar="RULES",
        help="comma-separated rule ids to run (default: all registered)",
    )
    lintp.add_argument(
        "--list-rules", action="store_true",
        help="list registered rules and exit",
    )
    lintp.add_argument(
        "--graph", action="store_true",
        help="dump the resolved cross-module call graph as JSON and exit",
    )
    lintp.add_argument(
        "--no-project", action="store_true",
        help="skip the cross-module project pass (RPR009-RPR012)",
    )
    lintp.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the on-disk analysis cache",
    )
    sub.add_parser("suite", help="print the calibrated application suite")
    sub.add_parser("clock", help="print the CAP clock table")
    sub.add_parser("power", help="print the Section 4.1 power modes")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    try:
        return _dispatch(build_parser().parse_args(argv))
    except BrokenPipeError:
        # output piped into a pager/head that closed early: not an error
        import os

        try:
            sys.stdout.close()
        except BrokenPipeError:
            os.close(1)
        return 0


def _dispatch(args) -> int:
    if args.command == "figures":
        print("regenerable figures:", ", ".join(sorted(_FIGURES)))
    elif args.command == "figure":
        engine = _engine_from_args(args)
        _run_observed(
            args, "figure", lambda: _FIGURES[args.id](engine), figure=args.id
        )
    elif args.command == "ablations":
        print("ablations:", ", ".join(_ABLATIONS))
    elif args.command == "ablation":
        engine = _engine_from_args(args)
        _run_observed(
            args, "ablation", lambda: _ablation(args.name, engine),
            ablation=args.name,
        )
    elif args.command == "extensions":
        print("extensions:", ", ".join(_EXTENSIONS))
    elif args.command == "extension":
        engine = _engine_from_args(args)
        _run_observed(
            args, "extension", lambda: _extension(args.name, engine),
            extension=args.name,
        )
    elif args.command == "obs":
        if args.obs_command == "summarize":
            return _obs_summarize(args.path)
        return _obs_critical_path(args.path, args.trace_id)
    elif args.command == "cache-verify":
        return _cache_verify(args.cache_dir)
    elif args.command == "degrade":
        engine = _engine_from_args(args)
        _run_observed(args, "degrade", lambda: _degrade(args, engine))
    elif args.command == "serve":
        return _serve(args, _engine_from_args(args))
    elif args.command == "worker":
        return _worker(args)
    elif args.command == "loadtest":
        return _loadtest(args)
    elif args.command == "chaos":
        from repro.service.chaos import format_report, run_chaos

        report = run_chaos(seed=args.seed, workdir=args.workdir)
        print(format_report(report))
        return 0 if report.passed else 1
    elif args.command == "query":
        return _query(args, _engine_from_args(args))
    elif args.command == "lint":
        from repro.analysis import main as lint_main

        select = (
            [r.strip() for r in args.select.split(",") if r.strip()]
            if args.select
            else None
        )
        return lint_main(
            args.paths,
            output_format=args.output_format,
            select=select,
            list_rules=args.list_rules,
            project=not args.no_project,
            use_cache=not args.no_cache,
            graph=args.graph,
        )
    elif args.command == "cache-clear":
        engine = ExperimentEngine(cache_dir=args.cache_dir)
        dropped = engine.invalidate_cache(kind=args.kind)
        print(f"dropped {dropped} cached result(s) from {args.cache_dir}")
    elif args.command == "export":
        from repro.experiments.export import export_all, export_figure

        if args.id == "all":
            for path in export_all(args.out):
                print(f"wrote {path}")
        else:
            print(f"wrote {export_figure(args.id, args.out)}")
    elif args.command == "suite":
        _suite()
    elif args.command == "clock":
        _clock()
    elif args.command == "power":
        _power()
    return 0


if __name__ == "__main__":
    sys.exit(main())
