"""The ``python -m repro`` command line (also the ``repro`` console script).

Sub-commands::

    repro list                         # registered figures and grid sizes
    repro run fig19 --reduced          # one figure, reduced grid
    repro run all --reduced --jobs 2   # full evaluation grid, 2 lanes
    repro plan '<json>'                # evaluate one Scenario (or '-': stdin)
    repro plan '[<json>, ...]'         # batch: array in, array out, one
                                       # shared PlanService across the batch
    repro plan --file scenario.json --solve
    repro serve --port 8099 --jobs 2   # long-lived cached plan server
    repro serve --deadline 30 --max-queue 256   # + deadlines, load shedding
    repro serve --chaos worker-crash:once       # + deterministic fault injection
    repro serve --store plans.sqlite   # SQLite result store, kept across restarts
    repro submit '<json>' --port 8099  # submit scenario(s) to a server
    repro store stats plans.sqlite     # entries / file size
    repro loadtest --requests 200 --dedup-ratio 0.95 --concurrency 8
                                       # replay synthetic plans against a live
                                       # server: p50/p95/p99, cache-hit rate
    repro sweep fig13 --reduced        # Scenario figure's grid -> manifest
    repro sweep fig13 --server 127.0.0.1:8099   # same sweep, remote
    repro sweep --file portfolio.json  # ad-hoc portfolio document
    repro sweep --list                 # sweepable figures
    repro check                        # every figure has a valid manifest
    repro docs [--check]               # (re)generate / verify EXPERIMENTS.md
                                       # and BENCHMARKS.md
    repro bench all --repeat 3 --json BENCH_ci.json   # run benchmark suite
    repro bench --list                 # registered benchmarks
    repro bench --compare BENCH_baseline.json BENCH_ci.json --threshold 40
    repro obs summarize out.jsonl      # per-span-name timing table
    repro obs chrome out.jsonl -o out.trace.json  # chrome://tracing export

The evaluation verbs (``plan``, ``run``, ``sweep``, ``serve``, ``bench``)
accept ``--trace PATH`` to record nested timing spans as JSON lines —
including spans drained back from pool workers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.obs.tracing import configure_tracing, disable_tracing
from repro.runner import docs as docs_module
from repro.runner import manifest as manifest_module
from repro.runner import orchestrator, registry

#: Default artifact directory.
DEFAULT_OUTPUT_DIR = "results"


def _jobs(text: str) -> int:
    """``--jobs``: a whole number of worker lanes, at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree of the CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Registry-driven runner for the paper's figure "
                    "reproductions.")
    sub = parser.add_subparsers(dest="command", required=True)

    # The flag shared by the evaluation verbs; argparse merges a parent
    # parser into each subparser.
    traced = argparse.ArgumentParser(add_help=False)
    traced.add_argument("--trace", metavar="PATH", default=None,
                        help="record timing spans to this JSON-lines file "
                             "(summarize with 'repro obs summarize PATH')")

    list_parser = sub.add_parser(
        "list",
        help="list registered figures (or topologies)")
    list_parser.add_argument(
        "--topologies", action="store_true",
        help="list the registered interconnect fabric families instead")

    run = sub.add_parser("run", parents=[traced],
                         help="run one figure (or 'all')")
    run.add_argument("figure", help="registered figure id, or 'all'")
    run.add_argument("--reduced", action="store_true",
                     help="use the fast reduced grids (CI fidelity)")
    run.add_argument("--jobs", type=_jobs, default=1, metavar="N",
                     help="scheduler lanes of the Scenario figures' sweeps "
                          "(default: %(default)s, in-process); computed "
                          "figures run in-process")
    run.add_argument("--output-dir", default=DEFAULT_OUTPUT_DIR,
                     help="manifest directory (default: %(default)s)")
    run.add_argument("--no-write", action="store_true",
                     help="run without writing manifests")

    plan = sub.add_parser(
        "plan", parents=[traced],
        help="evaluate Scenario API request(s) (JSON object or array) "
             "end to end")
    plan.add_argument(
        "scenario", nargs="?", default=None,
        help="scenario JSON document (object, or array for batch mode), "
             "or '-' to read it from stdin")
    plan.add_argument("--file", metavar="PATH",
                      help="read the scenario JSON from a file instead")
    plan.add_argument("--solve", action="store_true",
                      help="run the dual-level solver instead of the "
                           "evaluation path")
    plan.add_argument("--validate", action="store_true",
                      help="schema-check the emitted result(s) and fail on "
                           "problems (used by the CI smoke step)")
    plan.add_argument("--stats", action="store_true",
                      help="print the PlanService counters (plan-cache "
                           "hits/misses) to stderr after evaluating")
    plan.add_argument("--indent", type=int, default=2, metavar="N",
                      help="JSON output indentation (default: %(default)s)")

    serve = sub.add_parser(
        "serve", parents=[traced],
        help="run the long-lived plan server (deduplicated, disk-cached "
             "Scenario serving over HTTP)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: %(default)s)")
    serve.add_argument("--port", type=int, default=8099,
                       help="bind port; 0 picks an ephemeral one "
                            "(default: %(default)s)")
    serve.add_argument("--jobs", type=_jobs, default=1, metavar="N",
                       help="evaluation workers: 1 serves from one "
                            "in-process PlanService, N>1 from N persistent "
                            "worker processes (default: %(default)s)")
    serve.add_argument("--store", metavar="PATH", default=None,
                       help="SQLite result-store file; repeated requests "
                            "are served from it across restarts (default: "
                            "memory only)")
    serve.add_argument("--deadline", type=float, default=None,
                       metavar="SECONDS",
                       help="per-request deadline; an expired request gets "
                            "a structured deadline_expired error (504) "
                            "instead of hanging (default: none)")
    serve.add_argument("--max-queue", type=int, default=None, metavar="N",
                       help="admission-control bound on unique in-flight "
                            "requests; beyond it new work is shed with a "
                            "503 + Retry-After (default: unbounded)")
    serve.add_argument("--durable", action="store_true",
                       help="write the result store with synchronous=FULL "
                            "(a host crash then cannot lose acknowledged "
                            "records)")
    serve.add_argument("--chaos", default=None, metavar="SPEC",
                       help="arm deterministic fault injection, e.g. "
                            "'worker-crash:once,slow-eval:0.2' (default: "
                            "none)")

    submit = sub.add_parser(
        "submit",
        help="submit scenario(s) to a running plan server")
    submit.add_argument(
        "scenario", nargs="?", default=None,
        help="scenario JSON document (object, or array for batch mode), "
             "or '-' to read it from stdin")
    submit.add_argument("--file", metavar="PATH",
                        help="read the scenario JSON from a file instead")
    submit.add_argument("--host", default="127.0.0.1",
                        help="plan server address (default: %(default)s)")
    submit.add_argument("--port", type=int, default=8099,
                        help="plan server port (default: %(default)s)")
    submit.add_argument("--timeout", type=float, default=120.0,
                        metavar="SECONDS",
                        help="request timeout (default: %(default)s)")
    submit.add_argument("--validate", action="store_true",
                        help="schema-check the returned result(s) and fail "
                             "on problems")
    submit.add_argument("--expect-source",
                        choices=("store", "inflight", "evaluated"),
                        help="fail unless the (single) result was served "
                             "from this path (used by the CI smoke step)")
    submit.add_argument("--indent", type=int, default=2, metavar="N",
                        help="JSON output indentation (default: %(default)s)")

    store = sub.add_parser(
        "store", help="inspect result-store files")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    store_stats_p = store_sub.add_parser(
        "stats", help="entries and on-disk size")
    store_stats_p.add_argument("path", help="result-store file")

    loadtest = sub.add_parser(
        "loadtest",
        help="replay synthetic plan requests against a live server and "
             "report p50/p95/p99 latency, cache-hit rate, and shed counts")
    loadtest.add_argument("--server", metavar="URL", default="127.0.0.1:8099",
                          help="plan server ('HOST:PORT' or "
                               "'http://HOST:PORT', default: %(default)s)")
    loadtest.add_argument("--requests", type=int, default=200, metavar="N",
                          help="total plan requests (default: %(default)s)")
    loadtest.add_argument("--dedup-ratio", type=float, default=0.95,
                          metavar="R",
                          help="fraction of requests repeating an earlier "
                               "scenario; 0 makes every request unique "
                               "(default: %(default)s)")
    loadtest.add_argument("--concurrency", type=int, default=8, metavar="N",
                          help="concurrent client connections "
                               "(default: %(default)s)")
    loadtest.add_argument("--timeout", type=float, default=30.0,
                          metavar="SECONDS",
                          help="per-request timeout (default: %(default)s)")
    loadtest.add_argument("--json", metavar="OUT", dest="json_out",
                          default=None,
                          help="also write the full report as JSON here")
    loadtest.add_argument("--min-cache-hit-rate", type=float, default=None,
                          metavar="R",
                          help="fail (exit 1) when the cache-hit rate lands "
                               "below this SLO (default: no gate)")

    sweep = sub.add_parser(
        "sweep", parents=[traced],
        help="expand a portfolio (a named family of scenarios) through the "
             "plan scheduler and emit a validated manifest")
    sweep.add_argument(
        "portfolio", nargs="?", default=None,
        help="sweepable figure (see --list), e.g. 'fig13'")
    sweep.add_argument("--file", metavar="PATH",
                       help="read an ad-hoc portfolio JSON document instead "
                            "of a figure's grid")
    sweep.add_argument("--list", action="store_true", dest="list_portfolios",
                       help="list the sweepable figures and exit")
    sweep.add_argument("--reduced", action="store_true",
                       help="build the reduced (CI fidelity) portfolio")
    sweep.add_argument("--jobs", type=_jobs, default=1, metavar="N",
                       help="local evaluation workers (default: %(default)s; "
                            "ignored with --server)")
    sweep.add_argument("--server", metavar="URL", default=None,
                       help="sweep via a running plan server "
                            "('HOST:PORT' or 'http://HOST:PORT') instead of "
                            "a local scheduler")
    sweep.add_argument("--store", metavar="PATH", default=None,
                       help="SQLite result-store file for the local "
                            "scheduler (repeats served across sweeps)")
    sweep.add_argument("--output-dir", default=DEFAULT_OUTPUT_DIR,
                       help="manifest directory (default: %(default)s)")
    sweep.add_argument("--no-write", action="store_true",
                       help="run without writing the manifest")
    sweep.add_argument("--timeout", type=float, default=120.0,
                       metavar="SECONDS",
                       help="server-mode per-request timeout "
                            "(default: %(default)s)")

    check = sub.add_parser(
        "check",
        help="validate that every registered figure has a manifest")
    check.add_argument("--output-dir", default=DEFAULT_OUTPUT_DIR,
                       help="manifest directory (default: %(default)s)")

    docs = sub.add_parser(
        "docs",
        help="regenerate EXPERIMENTS.md and BENCHMARKS.md from "
             "the registries")
    docs.add_argument("--check", action="store_true",
                      help="verify the generated docs are up to date "
                           "instead of writing them")
    docs.add_argument("--output", default=docs_module.DEFAULT_PATH,
                      help="EXPERIMENTS.md path (default: %(default)s)")
    docs.add_argument("--benchmarks-output",
                      default=docs_module.BENCHMARKS_PATH,
                      help="BENCHMARKS.md path (default: %(default)s)")

    bench = sub.add_parser(
        "bench", parents=[traced],
        help="run registered benchmarks (warmup + timed repeats) and emit "
             "or compare BENCH_*.json perf reports")
    bench.add_argument("name", nargs="?", default="all",
                       help="benchmark name, or 'all' (default)")
    bench.add_argument("--list", action="store_true", dest="list_benchmarks",
                       help="list the registered benchmarks and exit")
    bench.add_argument("--repeat", type=int, default=None, metavar="N",
                       help="timed runs per benchmark (default: each "
                            "benchmark's own)")
    bench.add_argument("--warmup", type=int, default=None, metavar="N",
                       help="untimed warmup runs (default: each "
                            "benchmark's own)")
    bench.add_argument("--json", metavar="OUT", dest="json_out", default=None,
                       help="write the schema-validated BENCH report here")
    bench.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                       default=None,
                       help="compare two BENCH reports instead of running; "
                            "exits non-zero on a median regression beyond "
                            "--threshold")
    bench.add_argument("--threshold", type=float, default=20.0,
                       metavar="PCT",
                       help="regression threshold for --compare, in "
                            "percent (default: %(default)s)")

    obs = sub.add_parser(
        "obs",
        help="analyze --trace files (per-span summaries, Chrome export)")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    summarize = obs_sub.add_parser(
        "summarize",
        help="per-span-name count/total/mean/p50/p95/max table")
    # dest avoids colliding with the --trace *output* flag in main().
    summarize.add_argument("trace_file", metavar="TRACE",
                           help="JSON-lines trace file (--trace output)")
    summarize.add_argument("--json", action="store_true", dest="json_out",
                           help="emit the summary rows as JSON instead of "
                                "a table")
    chrome = obs_sub.add_parser(
        "chrome",
        help="convert a trace to the Chrome trace_event JSON format "
             "(chrome://tracing, Perfetto)")
    chrome.add_argument("trace_file", metavar="TRACE",
                        help="JSON-lines trace file (--trace output)")
    chrome.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="output path (default: stdout)")
    return parser


def _cmd_list(args: Optional[argparse.Namespace] = None) -> int:
    if args is not None and getattr(args, "topologies", False):
        return _cmd_list_topologies()
    experiments = registry.all_experiments()
    width = max(len(exp.figure) for exp in experiments)
    print(f"{'figure':<{width}}  {'paper':<12} {'cells':>7} {'reduced':>8}  "
          f"title")
    for exp in experiments:
        print(f"{exp.figure:<{width}}  {exp.paper:<12} "
              f"{len(exp.cells(False)):>7} {len(exp.cells(True)):>8}  "
              f"{exp.title}")
    return 0


def _cmd_list_topologies() -> int:
    from repro.hardware.topologies import topology_table

    rows = topology_table()
    name_width = max(len(row["name"]) for row in rows)
    params_width = max(max(len(row["params"]) for row in rows), len("params"))
    print(f"{'fabric':<{name_width}}  {'default':<8} {'params':<{params_width}}"
          f"  link model")
    for row in rows:
        print(f"{row['name']:<{name_width}}  {row['default'] or '-':<8} "
              f"{row['params']:<{params_width}}  {row['link_model']}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    figures = (registry.figure_ids() if args.figure == "all"
               else [args.figure])
    try:
        experiments = {figure: registry.get_experiment(figure)
                       for figure in figures}
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    manifests = orchestrator.run_all(
        figures, reduced=args.reduced, jobs=args.jobs,
        output_dir=None if args.no_write else args.output_dir,
        progress=print)
    failures: List[str] = []
    for figure, manifest in manifests.items():
        problems = manifest_module.validate_manifest(manifest,
                                                     experiments[figure])
        if problems:
            failures.append(figure)
            for problem in problems:
                print(f"  !! {figure}: {problem}", file=sys.stderr)
    if failures:
        print(f"FAILED figures: {', '.join(failures)}", file=sys.stderr)
        return 1
    return 0


def _read_request_text(args: argparse.Namespace) -> Optional[str]:
    """The scenario JSON text of a ``plan``/``submit`` invocation."""
    if args.file is not None:
        try:
            with open(args.file, encoding="utf-8") as handle:
                return handle.read()
        except OSError as error:
            print(f"error: cannot read {args.file}: {error}", file=sys.stderr)
            return None
    if args.scenario in (None, "-"):
        return sys.stdin.read()
    return args.scenario


def _validate_payloads(payloads: List[dict], batch: bool,
                       solve: bool = False) -> int:
    """Schema-check emitted result payloads (solver outcomes when
    ``solve``); returns the exit status."""
    from repro.api.service import (
        PlanResult,
        SolverOutcome,
        validate_result_payload,
    )

    record = SolverOutcome if solve else PlanResult
    status = 0
    for index, payload in enumerate(payloads):
        label = f"result[{index}]" if batch else "result"
        if "error" in payload:
            print(f"{label} is an error: {payload['error']}",
                  file=sys.stderr)
            status = 1
            continue
        for problem in validate_result_payload(payload, record):
            print(f"invalid {label}: {problem}", file=sys.stderr)
            status = 1
    return status


def _cmd_plan(args: argparse.Namespace) -> int:
    from repro.api.scenario import Scenario
    from repro.api.service import PlanService

    text = _read_request_text(args)
    if text is None:
        return 2
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        print(f"error: invalid scenario JSON: {error}", file=sys.stderr)
        return 2

    # A JSON array is batch mode: the offline twin of /v1/plan/batch — one
    # PlanService (one PlanCache, one wafer per geometry) serves the batch.
    batch = isinstance(document, list)
    try:
        scenarios = [Scenario.from_dict(item)
                     for item in (document if batch else [document])]
        service = PlanService()
        if args.solve:
            payloads = [service.solve(scenario).to_dict()
                        for scenario in scenarios]
        else:
            payloads = [service.evaluate(scenario).to_dict()
                        for scenario in scenarios]
    except (KeyError, TypeError, ValueError) as error:
        # ScenarioError (a ValueError) covers parse/validation problems;
        # KeyError/TypeError/ValueError covers evaluation-path failures
        # driven by the request (e.g. no feasible configuration, a
        # wrong-typed field) — report cleanly instead of a traceback.
        message = error.args[0] if error.args else error
        print(f"error: {message}", file=sys.stderr)
        return 2

    status = (_validate_payloads(payloads, batch, args.solve)
              if args.validate else 0)
    print(json.dumps(payloads if batch else payloads[0], indent=args.indent,
                     sort_keys=True, allow_nan=False))
    if args.stats:
        print(json.dumps(service.stats(), sort_keys=True), file=sys.stderr)
    return status


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.server.faults import FaultInjector, FaultSpecError
    from repro.server.http import PlanServer
    from repro.server.scheduler import PlanScheduler
    from repro.server.store import ResultStore, StoreError

    try:
        chaos = FaultInjector.from_spec(args.chaos)
    except FaultSpecError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    # Opened before the port is bound, so a bad store file is reported as
    # itself and not as a bind failure.
    try:
        store = ResultStore(args.store, durable=args.durable)
    except StoreError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    async def _serve() -> None:
        scheduler = PlanScheduler(
            store=store,
            jobs=args.jobs,
            deadline=args.deadline,
            max_queue=args.max_queue,
            chaos=chaos,
        )
        server = PlanServer(scheduler, host=args.host, port=args.port)
        await server.start()
        chaos_note = f", chaos={chaos.spec!r}" if chaos is not None else ""
        print(f"plan server listening on http://{args.host}:{server.port} "
              f"(jobs={args.jobs}, store={args.store or 'memory-only'}"
              f"{chaos_note})",
              flush=True)
        # SIGTERM (``kill``) stops the server the way Ctrl-C does: both
        # cancel this task. A second SIGTERM takes the default action.
        loop = asyncio.get_running_loop()
        task = asyncio.current_task()

        def _terminate() -> None:
            loop.remove_signal_handler(signal.SIGTERM)
            task.cancel()

        loop.add_signal_handler(signal.SIGTERM, _terminate)
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            # Drains queued and in-flight requests before the pool stops.
            await server.close()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    except ValueError as error:  # bad scheduler knobs (deadline, max-queue)
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: cannot serve on {args.host}:{args.port}: {error}",
              file=sys.stderr)
        return 2
    finally:
        store.close()  # idempotent; the scheduler closes it on a clean stop
    print("plan server stopped", file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.server.client import PlanClient, PlanServerError

    text = _read_request_text(args)
    if text is None:
        return 2
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        print(f"error: invalid scenario JSON: {error}", file=sys.stderr)
        return 2

    batch = isinstance(document, list)
    if args.expect_source and batch:
        print("error: --expect-source only applies to a single scenario",
              file=sys.stderr)
        return 2

    client = PlanClient(host=args.host, port=args.port,
                        timeout=args.timeout)
    try:
        if batch:
            payloads = client.plan_batch(document)
        else:
            payloads = [client.plan(document)]
            print(f"served from: {client.last_source}", file=sys.stderr)
    except PlanServerError as error:
        detail = (error.payload.get("error", error.payload)
                  if isinstance(error.payload, dict) else error.payload)
        print(f"error: plan server returned {error.status}: {detail}",
              file=sys.stderr)
        return 2
    except (OSError, TimeoutError) as error:
        print(f"error: cannot reach plan server at "
              f"{args.host}:{args.port}: {error}", file=sys.stderr)
        return 2

    status = 0
    if args.expect_source and client.last_source != args.expect_source:
        print(f"error: expected the result to be served from "
              f"{args.expect_source!r}, got {client.last_source!r}",
              file=sys.stderr)
        status = 1
    if args.validate:
        status = max(status, _validate_payloads(payloads, batch))
    print(json.dumps(payloads if batch else payloads[0], indent=args.indent,
                     sort_keys=True, allow_nan=False))
    return status


def _parse_server_url(url: str):
    """``--server`` value -> ``(host, port)``; None on a malformed value."""
    from urllib.parse import urlparse

    target = url if "//" in url else f"//{url}"
    try:
        parsed = urlparse(target)
        host, port = parsed.hostname, parsed.port
    except ValueError:
        return None
    if not host:
        return None
    return host, port if port is not None else 8099


def _cmd_sweep(args: argparse.Namespace) -> int:
    import time

    from repro.api.portfolio import Portfolio, PortfolioError
    from repro.server.client import PlanServerError
    from repro.server.portfolio import (
        MAX_POINTS,
        build_sweep_manifest,
        run_portfolio_local,
        run_portfolio_remote,
    )
    from repro.server.store import ResultStore, StoreError

    # Every figure with a row mapper is sweepable.
    sweepable = {experiment.figure: experiment
                 for experiment in registry.all_experiments()
                 if experiment.row is not None}
    if args.list_portfolios:
        width = max(len(name) for name in sweepable)
        for name, experiment in sweepable.items():
            portfolio = experiment.portfolio(args.reduced)
            print(f"{name:<{width}}  {portfolio.num_points():>5} points  "
                  f"{experiment.title}")
        return 0

    if (args.portfolio is None) == (args.file is None):
        print("error: give exactly one of a sweepable figure or "
              "--file PATH (or --list)", file=sys.stderr)
        return 2

    # Resolve the portfolio (and, for a figure, the experiment whose
    # manifest identity and row schema the sweep reproduces).
    experiment = None
    try:
        if args.file is not None:
            with open(args.file, encoding="utf-8") as handle:
                portfolio = Portfolio.from_json(handle.read())
        else:
            experiment = sweepable.get(args.portfolio)
            if experiment is None:
                print(f"error: unknown portfolio {args.portfolio!r}; "
                      f"sweepable figures: {', '.join(sweepable)}",
                      file=sys.stderr)
                return 2
            portfolio = experiment.portfolio(args.reduced)
        points = portfolio.expand(max_points=MAX_POINTS)
    except OSError as error:
        print(f"error: cannot read {args.file}: {error}", file=sys.stderr)
        return 2
    except PortfolioError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    def _progress(completed, total, outcome):
        params = ", ".join(f"{key}={value}"
                           for key, value in outcome.params.items())
        print(f"  [{portfolio.name}] {completed}/{total}: {params} "
              f"({outcome.wall_seconds:.2f}s, {outcome.source})")

    print(f"sweep {portfolio.describe()}")
    start = time.perf_counter()
    if args.server is not None:
        location = _parse_server_url(args.server)
        if location is None:
            print(f"error: malformed --server value {args.server!r}; "
                  f"expected HOST:PORT or http://HOST:PORT", file=sys.stderr)
            return 2
        host, port = location
        try:
            outcomes = run_portfolio_remote(
                portfolio, host, port, points=points, on_unique=_progress,
                timeout=args.timeout)
        except PlanServerError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        except OSError as error:
            print(f"error: cannot sweep via plan server at {host}:{port}: "
                  f"{error}", file=sys.stderr)
            return 2
        mode, jobs = "server", 0
    else:
        try:
            store = (ResultStore(args.store) if args.store is not None
                     else None)
        except StoreError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        try:
            outcomes = run_portfolio_local(
                portfolio, jobs=args.jobs, store=store,
                points=points, on_unique=_progress)
        except PortfolioError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        mode, jobs = "local", args.jobs
    total_seconds = time.perf_counter() - start

    manifest = build_sweep_manifest(
        portfolio, outcomes, reduced=args.reduced, jobs=jobs,
        total_seconds=total_seconds, mode=mode, experiment=experiment)
    problems = manifest_module.validate_manifest(manifest, experiment)
    errors = sum(1 for cell in manifest["cells"] if cell["error"])
    oom = sum(cell["oom_rows"] for cell in manifest["cells"])
    print(f"  -> {len(manifest['rows'])} rows, {oom} OOM, {errors} errors, "
          f"{manifest['sweep']['unique']}/{manifest['sweep']['points']} "
          f"unique, {total_seconds:.2f}s total")
    status = 0
    for problem in problems:
        print(f"  !! {problem}", file=sys.stderr)
        status = 1
    if not args.no_write:
        path = manifest_module.write_manifest(manifest, args.output_dir)
        print(f"  wrote {path}")
    return status


def _cmd_store(args: argparse.Namespace) -> int:
    from repro.server.store import StoreError, store_stats

    if not os.path.exists(args.path):
        print(f"error: no such store file: {args.path}", file=sys.stderr)
        return 2
    try:
        document = store_stats(args.path)
    except StoreError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(json.dumps(document, indent=2, sort_keys=True))
    return 0


def _cmd_loadtest(args: argparse.Namespace) -> int:
    from repro.server.loadtest import render_report, run_loadtest, write_report

    location = _parse_server_url(args.server)
    if location is None:
        print(f"error: malformed --server value {args.server!r}; expected "
              f"HOST:PORT or http://HOST:PORT", file=sys.stderr)
        return 2
    host, port = location
    try:
        report = run_loadtest(
            host=host, port=port, requests=args.requests,
            dedup_ratio=args.dedup_ratio, concurrency=args.concurrency,
            timeout=args.timeout)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(render_report(report))
    if args.json_out is not None:
        write_report(report, args.json_out)
        print(f"wrote {args.json_out}")
    if report["completed"] == 0:
        print(f"error: no request completed against {host}:{port} "
              f"(is the server up?)", file=sys.stderr)
        return 1
    if (args.min_cache_hit_rate is not None
            and report["cache_hit_rate"] < args.min_cache_hit_rate):
        print(f"error: cache-hit rate {report['cache_hit_rate']:.3f} below "
              f"the --min-cache-hit-rate SLO {args.min_cache_hit_rate:.3f}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    status = 0
    for experiment in registry.all_experiments():
        path = manifest_module.manifest_path(args.output_dir,
                                             experiment.figure)
        if not os.path.exists(path):
            print(f"{experiment.figure}: MISSING manifest ({path})",
                  file=sys.stderr)
            status = 1
            continue
        try:
            manifest = manifest_module.read_manifest(path)
        except (OSError, json.JSONDecodeError) as error:
            print(f"{experiment.figure}: unreadable manifest: {error}",
                  file=sys.stderr)
            status = 1
            continue
        problems = manifest_module.validate_manifest(manifest, experiment)
        if problems:
            status = 1
            for problem in problems:
                print(f"{experiment.figure}: {problem}", file=sys.stderr)
        else:
            print(f"{experiment.figure}: ok ({len(manifest['rows'])} rows)")
    return status


def _cmd_docs(args: argparse.Namespace) -> int:
    documents = (
        (args.output, docs_module.check_experiments_md,
         docs_module.write_experiments_md),
        (args.benchmarks_output, docs_module.check_benchmarks_md,
         docs_module.write_benchmarks_md),
    )
    if args.check:
        status = 0
        for path, check, _ in documents:
            if check(path):
                print(f"{path} is up to date")
            else:
                print(f"{path} is stale; regenerate with "
                      f"`python -m repro docs`", file=sys.stderr)
                status = 1
        return status
    for path, _, write in documents:
        print(f"wrote {write(path)}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro import bench

    if args.compare is not None:
        old_path, new_path = args.compare
        try:
            old = bench.load_report(old_path)
            new = bench.load_report(new_path)
            regressions, notes = bench.compare_reports(
                old, new, threshold_pct=args.threshold)
        except (OSError, json.JSONDecodeError, ValueError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        for note in notes:
            print(f"  ok {note}")
        for regression in regressions:
            print(f"  REGRESSION {regression}", file=sys.stderr)
        if regressions:
            print(f"{len(regressions)} benchmark(s) regressed beyond "
                  f"{args.threshold:g}%", file=sys.stderr)
            return 1
        print(f"no regressions beyond {args.threshold:g}% "
              f"({len(new['benchmarks'])} benchmarks compared)")
        return 0

    if args.list_benchmarks:
        benchmarks = bench.all_benchmarks()
        width = max(len(entry.name) for entry in benchmarks)
        for entry in benchmarks:
            print(f"{entry.name:<{width}}  repeat={entry.repeat} "
                  f"warmup={entry.warmup}  {entry.title}")
        return 0

    if args.name == "all":
        names = bench.benchmark_names()
        suite = "ci" if args.json_out else "all"
    else:
        try:
            bench.get_benchmark(args.name)
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
        names = [args.name]
        suite = args.name

    def _progress(completed, total, entry):
        print(f"  [{completed}/{total}] {entry['name']}: "
              f"median {entry['median_seconds']:.4f}s "
              f"(p10 {entry['p10_seconds']:.4f}s, "
              f"p90 {entry['p90_seconds']:.4f}s, "
              f"repeat {entry['repeat']})")

    report = bench.run_suite(names, suite=suite, repeat=args.repeat,
                             warmup=args.warmup, progress=_progress)
    if args.json_out is not None:
        path = bench.write_report(report, args.json_out)
        print(f"wrote {path}")
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    from repro.obs.tracing import read_trace, summarize_trace, to_chrome_trace

    try:
        records = read_trace(args.trace_file)
    except OSError as error:
        print(f"error: cannot read {args.trace_file}: {error}",
              file=sys.stderr)
        return 2
    if not records:
        print(f"error: no span records in {args.trace_file}",
              file=sys.stderr)
        return 1

    if args.obs_command == "chrome":
        document = json.dumps(to_chrome_trace(records), sort_keys=True)
        if args.output is None:
            print(document)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(document + "\n")
            print(f"wrote {args.output} ({len(records)} spans)")
        return 0

    rows = summarize_trace(records)
    if args.json_out:
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    width = max(len(str(row["name"])) for row in rows)
    print(f"{'span':<{width}}  {'count':>6} {'total':>10} {'mean':>10} "
          f"{'p50':>10} {'p95':>10} {'max':>10}")
    for row in rows:
        print(f"{row['name']:<{width}}  {row['count']:>6} "
              f"{row['total_seconds']:>10.4f} {row['mean_seconds']:>10.4f} "
              f"{row['p50_seconds']:>10.4f} {row['p95_seconds']:>10.4f} "
              f"{row['max_seconds']:>10.4f}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if trace_path is not None:
        configure_tracing(path=trace_path)
    try:
        if args.command == "list":
            return _cmd_list(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "plan":
            return _cmd_plan(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "store":
            return _cmd_store(args)
        if args.command == "loadtest":
            return _cmd_loadtest(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "docs":
            return _cmd_docs(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "obs":
            return _cmd_obs(args)
        raise AssertionError(f"unhandled command {args.command!r}")
    finally:
        if trace_path is not None:
            disable_tracing()


if __name__ == "__main__":
    sys.exit(main())
