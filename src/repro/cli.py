"""Command-line interface.

Subcommands::

    repro datasets list                      # the Table 1 catalog
    repro datasets generate KEY --out DIR    # write left/right/truth .nt files
    repro link LEFT.nt RIGHT.nt [options]    # run the automatic linker
    repro query DATA.nt 'SELECT ...'         # run SPARQL over a file
    repro explain DATA.nt 'SELECT ...'       # EXPLAIN / EXPLAIN ANALYZE plan tree
    repro lint-query 'SELECT ...'            # static analysis (ALEX-* codes)
    repro lint-data DATA.nt [RIGHT.nt]       # RDF graph & link-set validation
    repro run SCENARIO                       # run one experiment scenario
    repro figures all | FIGURE               # regenerate paper figures
    repro stats                              # exercise the stack, print obs metrics
    repro health                             # engine/pool/cache health as JSON
    repro slowlog                            # slowest queries and episodes
    repro trace show|summary FILE.jsonl      # replay an exported trace

Every command writes human-readable text to stdout and exits non-zero on
error, so the tool composes in shell pipelines.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Sequence

from repro.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ALEX reproduction toolkit: linking, feedback-driven "
        "exploration, and the paper's experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    datasets = subparsers.add_parser("datasets", help="dataset catalog operations")
    datasets_sub = datasets.add_subparsers(dest="datasets_command", required=True)
    datasets_sub.add_parser("list", help="show the Table 1 catalog")
    generate = datasets_sub.add_parser("generate", help="generate a pair to .nt files")
    generate.add_argument("key", help="catalog key, e.g. dbpedia_nytimes")
    generate.add_argument("--out", default=".", help="output directory")
    generate.add_argument("--seed", type=int, default=None, help="override the seed")

    link = subparsers.add_parser("link", help="run the PARIS-style automatic linker")
    link.add_argument("left", help="left dataset (N-Triples)")
    link.add_argument("right", help="right dataset (N-Triples)")
    link.add_argument("--threshold", type=float, default=0.9, help="score threshold")
    link.add_argument(
        "--all-pairs",
        action="store_true",
        help="keep every scored pair above the threshold (no mutual-best assignment)",
    )
    link.add_argument("--out", default=None, help="write owl:sameAs links to this file")

    query = subparsers.add_parser("query", help="run a SPARQL query over an N-Triples file")
    query.add_argument("data", help="dataset (N-Triples)")
    query.add_argument("sparql", help="the query text")
    query.add_argument(
        "--strict",
        action="store_true",
        help="reject the query if static analysis finds error-level diagnostics",
    )

    explain = subparsers.add_parser(
        "explain",
        help="show the optimized query plan; --analyze executes with "
        "per-operator rows and timings (EXPLAIN ANALYZE)",
    )
    explain.add_argument("data", help="dataset (N-Triples)")
    explain.add_argument("sparql", help="the query text (or @FILE to read it from a file)")
    explain.add_argument(
        "--analyze", action="store_true",
        help="execute the query and annotate operators with rows/timings",
    )
    explain.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    explain.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="with --analyze: export the run's trace events as JSONL",
    )

    lint = subparsers.add_parser(
        "lint-query",
        help="statically analyze a SPARQL query and print ALEX-* diagnostics",
    )
    lint.add_argument("sparql", help="the query text (or @FILE to read it from a file)")
    lint.add_argument(
        "--data", default=None, metavar="FILE",
        help="N-Triples file enabling cardinality-based cost lints",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    lint.add_argument(
        "--fail-on", choices=("error", "warning", "info"), default="error",
        help="exit non-zero when a diagnostic at or above this severity exists",
    )

    lint_data = subparsers.add_parser(
        "lint-data",
        help="statically validate RDF data and sameAs link sets (ALEX-D* diagnostics)",
    )
    lint_data.add_argument(
        "data", nargs="+",
        help="one or two dataset files (.nt, .nq, or .ttl); with two files "
        "and --links, the first is the left side and the second the right",
    )
    lint_data.add_argument(
        "--links", default=None, metavar="FILE",
        help="owl:sameAs link set (N-Triples) to validate against the data",
    )
    lint_data.add_argument(
        "--theta", type=float, default=None,
        help="flag links scored below this threshold (requires scores in --links)",
    )
    lint_data.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    lint_data.add_argument(
        "--fail-on", choices=("error", "warning", "info"), default="error",
        help="exit non-zero when a diagnostic at or above this severity exists",
    )
    lint_data.add_argument(
        "--strict", action="store_true",
        help="shorthand for --fail-on warning",
    )

    lint_code = subparsers.add_parser(
        "lint-code",
        help="run the code-level contract analyzer (ALEX-C* + repo invariants) "
             "over the codebase",
    )
    lint_code.add_argument(
        "paths", nargs="*",
        help="files or directories to analyze (default: src tools benchmarks)",
    )
    lint_code.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format",
    )
    lint_code.add_argument(
        "--fail-on", choices=("error", "warning", "info"), default="error",
        help="exit non-zero when a non-baselined finding at or above this "
             "severity exists",
    )
    lint_code.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline JSON suppressing accepted findings (default: "
             "tools/repro_analyzer/baseline.json; 'none' disables)",
    )
    lint_code.add_argument(
        "--check-baseline", action="store_true",
        help="validate the baseline file (format + registered codes) and exit",
    )
    lint_code.add_argument(
        "--rules", default="repo,encoding,rng,mutation,cost,concurrency",
        help="comma-separated rule families to run",
    )
    lint_code.add_argument(
        "--writers", default=None, metavar="FILE",
        help="write the mutation-safety writer inventory (writers.json) here",
    )
    lint_code.add_argument(
        "--locks", default=None, metavar="FILE",
        help="write the concurrency lock inventory (locks.json) here",
    )
    lint_code.add_argument(
        "--changed", nargs="?", const="HEAD", default=None, metavar="GITREF",
        help="analyze only Python files changed relative to GITREF (default "
             "HEAD) plus untracked ones; mutually exclusive with explicit paths",
    )

    describe = subparsers.add_parser("describe", help="print statistics of an N-Triples file")
    describe.add_argument("data", help="dataset (N-Triples)")

    run = subparsers.add_parser("run", help="run one experiment scenario")
    run.add_argument("scenario", help="scenario key, e.g. fig2a")
    run.add_argument("--max-episodes", type=int, default=None)
    run.add_argument("--csv", default=None, help="export the per-episode curve as CSV")
    run.add_argument(
        "--obs-json", default=None, metavar="PATH",
        help="dump the run's observability snapshot as JSON",
    )
    run.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record a decision audit trail and export it as JSONL",
    )
    run.add_argument(
        "--trace-sample", type=float, default=1.0,
        help="fraction of episode traces --trace-out keeps, each one whole "
        "(default 1.0)",
    )

    stats = subparsers.add_parser(
        "stats",
        help="run a small end-to-end workload (linking, feedback episodes, "
        "local + federated SPARQL) and print the collected obs metrics",
    )
    stats.add_argument(
        "--pair", default="dbpedia_nba_nytimes", help="dataset pair to exercise"
    )
    stats.add_argument("--episodes", type=int, default=3, help="feedback episodes to run")
    stats.add_argument("--json", default=None, metavar="PATH", help="also dump JSON here")
    stats.add_argument(
        "--from", dest="from_file", default=None, metavar="FILE",
        help="render a previously dumped snapshot instead of running the workload",
    )
    stats.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="limit every section to its N largest entries",
    )
    stats.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="record the workload's trace events and export them as JSONL",
    )
    stats.add_argument(
        "--watch", type=float, default=None, metavar="SECONDS",
        help="re-render every SECONDS (Ctrl-C stops): with --from the file "
        "is re-read each tick; without, the workload re-runs each tick and "
        "the registry accumulates",
    )
    stats.add_argument(
        "--iterations", type=int, default=None, metavar="M",
        help="with --watch: stop after M renders instead of running forever",
    )
    stats.add_argument(
        "--prom-out", default=None, metavar="PATH",
        help="also write the final snapshot as Prometheus text exposition "
        "(version 0.0.4)",
    )
    stats.add_argument(
        "--report-out", default=None, metavar="PATH",
        help="run the workload under a background Reporter appending "
        "interval samples (repro-report/1 JSONL) to PATH",
    )
    stats.add_argument(
        "--report-interval", type=float, default=0.5, metavar="S",
        help="Reporter sampling interval for --report-out (default: 0.5s)",
    )

    health = subparsers.add_parser(
        "health",
        help="run the stats workload to warm the engine, then print its "
        "health (pool, caches, trace ring, slowlog, dictionaries) as JSON",
    )
    health.add_argument(
        "--pair", default="dbpedia_nba_nytimes", help="dataset pair to exercise"
    )
    health.add_argument(
        "--episodes", type=int, default=2, help="feedback episodes to run"
    )

    slowlog_cmd = subparsers.add_parser(
        "slowlog",
        help="run the stats workload with the slow-operation log (and "
        "per-query accounting) enabled, then print the slowest operations",
    )
    slowlog_cmd.add_argument(
        "--pair", default="dbpedia_nba_nytimes", help="dataset pair to exercise"
    )
    slowlog_cmd.add_argument(
        "--episodes", type=int, default=2, help="feedback episodes to run"
    )
    slowlog_cmd.add_argument(
        "--threshold", type=float, default=0.0, metavar="SECONDS",
        help="record only operations at least this slow (default 0: all)",
    )
    slowlog_cmd.add_argument(
        "--top", type=int, default=None, metavar="N",
        help="show only the N slowest entries",
    )
    slowlog_cmd.add_argument(
        "--json", default=None, metavar="PATH",
        help="also flush the repro-slowlog/1 payload here",
    )

    trace_cmd = subparsers.add_parser(
        "trace", help="render exported trace files (repro-trace/1 JSONL)"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    trace_show = trace_sub.add_parser(
        "show", help="per-trace waterfall: span tree, timings, events"
    )
    trace_show.add_argument("file", help="trace JSONL file")
    trace_show.add_argument(
        "--trace", default=None, metavar="ID",
        help="show only the trace whose id starts with ID",
    )
    trace_summary = trace_sub.add_parser(
        "summary", help="event counts by type and the slowest spans"
    )
    trace_summary.add_argument("file", help="trace JSONL file")
    trace_summary.add_argument("--top", type=int, default=10, help="slowest spans to list")

    figures = subparsers.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("figure", help="'all', 'table1', or a figure id like fig2a / fig10")

    report = subparsers.add_parser(
        "report", help="regenerate every table/figure into one Markdown report"
    )
    report.add_argument("--out", default="report.md", help="output path")
    return parser


def _cmd_datasets_list() -> int:
    from repro.datasets import catalog_keys, pair_spec

    from repro.evaluation.report import format_table

    rows = []
    for key in catalog_keys():
        spec = pair_spec(key)
        rows.append(
            (key, spec.left_name, spec.right_name, spec.n_shared,
             spec.n_left_only + spec.n_shared, spec.n_right_only + spec.n_shared)
        )
    print(format_table(
        ("pair", "left", "right", "ground truth", "left entities", "right entities"), rows
    ))
    return 0


def _cmd_datasets_generate(key: str, out_dir: str, seed: int | None) -> int:
    from repro.datasets import load_pair
    from repro.rdf import ntriples

    pair = load_pair(key, seed=seed)
    os.makedirs(out_dir, exist_ok=True)
    left_path = os.path.join(out_dir, f"{key}_left.nt")
    right_path = os.path.join(out_dir, f"{key}_right.nt")
    truth_path = os.path.join(out_dir, f"{key}_truth.nt")
    ntriples.dump_file(pair.left, left_path)
    ntriples.dump_file(pair.right, right_path)
    ntriples.dump_file(pair.ground_truth.to_graph(), truth_path)
    print(f"wrote {left_path} ({len(pair.left)} triples)")
    print(f"wrote {right_path} ({len(pair.right)} triples)")
    print(f"wrote {truth_path} ({len(pair.ground_truth)} links)")
    return 0


def _cmd_link(left_path: str, right_path: str, threshold: float, all_pairs: bool,
              out_path: str | None) -> int:
    from repro.paris import paris_links
    from repro.rdf import ntriples

    left = ntriples.load_file(left_path)
    right = ntriples.load_file(right_path)
    links = paris_links(left, right, score_threshold=threshold, mutual_best=not all_pairs)
    print(f"{len(links)} links above threshold {threshold}")
    if out_path is not None:
        ntriples.dump_file(links.to_graph(), out_path)
        print(f"wrote {out_path}")
    else:
        for link in sorted(links, key=lambda l: (l.left.value, l.right.value)):
            print(f"  {link}  (score {links.score(link):.3f})")
    return 0


def _cmd_query(data_path: str, sparql: str, strict: bool = False) -> int:
    from repro.rdf import ntriples
    from repro.rdf.graph import Graph
    from repro.sparql import QueryResult, query as run_query

    graph = ntriples.load_file(data_path)
    result = run_query(graph, sparql, strict=strict)
    if isinstance(result, bool):
        print("yes" if result else "no")
        return 0
    if isinstance(result, Graph):
        print(ntriples.serialize(result.triples()), end="")
        return 0
    assert isinstance(result, QueryResult)
    print("\t".join(str(var) for var in result.variables))
    for row in result.as_tuples():
        print("\t".join("" if term is None else str(term) for term in row))
    print(f"({len(result)} rows)", file=sys.stderr)
    return 0


def _cmd_explain(
    data_path: str,
    sparql: str,
    analyze: bool,
    output_format: str,
    trace_out: str | None,
) -> int:
    import json

    from repro.obs import trace
    from repro.rdf import ntriples
    from repro.sparql.explain import explain

    if sparql.startswith("@"):
        with open(sparql[1:], "r", encoding="utf-8") as handle:
            sparql = handle.read()
    graph = ntriples.load_file(data_path)
    tracer = None
    if trace_out is not None and analyze:
        tracer = trace.install()
    plan = explain(graph, sparql, analyze=analyze)
    if output_format == "json":
        print(json.dumps(plan.to_dict(), indent=2, sort_keys=True))
    else:
        print(plan.render())
    if tracer is not None:
        tracer.write_jsonl(trace_out)
        print(f"wrote {trace_out} ({len(tracer)} trace records)", file=sys.stderr)
        trace.uninstall()
    return 0


def _cmd_trace(
    trace_command: str, path: str, trace_id: str | None = None, top: int = 10
) -> int:
    from repro.obs import trace

    payload = trace.load_jsonl(path)
    if trace_command == "summary":
        print(trace.render_summary(payload["records"], top=top, dropped=payload["dropped"]))
    else:
        print(trace.render_waterfall(payload["records"], trace_id=trace_id))
    return 0


def _render_diagnostics(diagnostics, output_format: str, fail_on: str) -> int:
    """Print diagnostics (text or JSON) and compute the exit code against
    the ``--fail-on`` severity threshold (shared across the lint commands
    via :func:`repro.diagnostics.severity_exit_code`)."""
    import json

    from repro.diagnostics import severity_exit_code

    if output_format == "json":
        print(json.dumps([d.to_dict() for d in diagnostics], indent=2))
    else:
        for diagnostic in diagnostics:
            print(diagnostic.format())
        errors = sum(1 for d in diagnostics if d.severity == "error")
        warnings = sum(1 for d in diagnostics if d.severity == "warning")
        infos = len(diagnostics) - errors - warnings
        print(f"{errors} error(s), {warnings} warning(s), {infos} info(s)")
    return severity_exit_code((d.severity for d in diagnostics), fail_on)


def _count_lint_run(tool: str) -> None:
    """``lint.runs{tool=...}`` — one counter, emitted consistently by all
    three lint commands (query/data/code)."""
    from repro import obs

    obs.inc("lint.runs", tool=tool)


def _cmd_lint_query(
    sparql: str, data_path: str | None, output_format: str, fail_on: str = "error"
) -> int:
    """Statically analyze a query; exit 1 at/above the --fail-on severity."""
    from repro.sparql import analyze_query

    _count_lint_run("query")
    if sparql.startswith("@"):
        with open(sparql[1:], "r", encoding="utf-8") as handle:
            sparql = handle.read()
    graph = None
    if data_path is not None:
        from repro.rdf import ntriples

        graph = ntriples.load_file(data_path)
    diagnostics = analyze_query(sparql, graph=graph)
    return _render_diagnostics(diagnostics, output_format, fail_on)


def _load_data_file(path: str):
    """Load ``path`` by extension: .nq -> Dataset, .ttl -> Graph, else
    N-Triples Graph."""
    if path.endswith(".nq"):
        from repro.rdf import nquads

        return nquads.load_file(path)
    if path.endswith(".ttl"):
        from repro.rdf import turtle

        with open(path, encoding="utf-8") as handle:
            return turtle.load(handle.read(), name=path)
    from repro.rdf import ntriples

    return ntriples.load_file(path)


def _cmd_lint_data(
    data_paths: list[str],
    links_path: str | None,
    theta: float | None,
    output_format: str,
    fail_on: str,
    strict: bool,
) -> int:
    """Validate RDF files (and optionally a link set against them)."""
    from repro.links import LinkSet
    from repro.rdf import ntriples
    from repro.rdf.dataset import Dataset
    from repro.rdf.validate import validate_dataset, validate_graph, validate_links

    _count_lint_run("data")
    if strict and fail_on == "error":
        fail_on = "warning"
    if len(data_paths) > 2:
        print("error: lint-data takes at most two dataset files", file=sys.stderr)
        return 2
    graphs = []
    diagnostics = []
    for path in data_paths:
        loaded = _load_data_file(path)
        if isinstance(loaded, Dataset):
            diagnostics.extend(validate_dataset(loaded))
            graphs.append(loaded.union())
        else:
            diagnostics.extend(validate_graph(loaded))
            graphs.append(loaded)
    if links_path is not None:
        links = LinkSet.from_graph(ntriples.load_file(links_path), name=links_path)
        left = graphs[0] if graphs else None
        right = graphs[1] if len(graphs) > 1 else left
        diagnostics.extend(validate_links(links, left=left, right=right, theta=theta))
    return _render_diagnostics(diagnostics, output_format, fail_on)


def _import_analyzer():
    """Import :mod:`repro_analyzer` (the code-level analyzer under
    ``tools/``); falls back to inserting the repo's ``tools`` directory on
    ``sys.path`` for source checkouts run via ``PYTHONPATH=src``."""
    try:
        import repro_analyzer
    except ImportError:
        repo_root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        tools_dir = os.path.join(repo_root, "tools")
        if not os.path.isdir(os.path.join(tools_dir, "repro_analyzer")):
            raise ReproError(
                "repro_analyzer not importable and no tools/repro_analyzer "
                "directory next to the package; install or PYTHONPATH the "
                "analyzer to use lint-code"
            ) from None
        sys.path.insert(0, tools_dir)
        import repro_analyzer
    return repro_analyzer


def _cmd_lint_code(
    paths: list[str],
    output_format: str,
    fail_on: str,
    baseline: str | None,
    check_baseline: bool,
    rules: str,
    writers_out: str | None,
    locks_out: str | None = None,
    changed: str | None = None,
) -> int:
    """Run the code-level contract analyzer (ALEX-C* + migrated R00x) over
    ``paths``; exit 1 at/above --fail-on after baseline suppression, 2 on
    baseline/usage errors."""
    import json

    from repro.diagnostics import severity_exit_code

    analyzer = _import_analyzer()
    from repro_analyzer.baseline import BaselineError
    from repro_analyzer.cli import (
        changed_python_files,
        default_baseline_path,
        repo_root_default,
    )

    _count_lint_run("code")
    root = repo_root_default()
    if changed is not None and paths:
        print("error: --changed and explicit paths are mutually exclusive",
              file=sys.stderr)
        return 2
    if changed is not None:
        try:
            paths = changed_python_files(root, changed)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if not paths:
            print(f"no Python files changed vs {changed}; nothing to analyze")
            return 0
    elif not paths:
        paths = [p for p in ("src", "tools", "benchmarks")
                 if os.path.isdir(os.path.join(root, p))]
    families = tuple(f.strip() for f in rules.split(",") if f.strip())

    if baseline is None and os.path.isfile(default_baseline_path()):
        baseline = default_baseline_path()
    if baseline == "none":
        baseline = None

    registered = analyzer.collect_registered_codes(root)
    entries = []
    if baseline is not None:
        try:
            entries = analyzer.load_baseline(baseline)
        except (OSError, BaselineError) as error:
            print(f"baseline error: {error}", file=sys.stderr)
            return 2
        problems = analyzer.validate_codes(entries, registered | set(analyzer.all_rule_codes()))
        if problems:
            for problem in problems:
                print(f"baseline error: {problem}", file=sys.stderr)
            return 2
        if check_baseline:
            print(f"baseline OK: {len(entries)} bucket(s), codes all registered")
            return 0
    elif check_baseline:
        print("baseline error: no baseline file found", file=sys.stderr)
        return 2

    try:
        result = analyzer.analyze_paths(
            paths, root, families=families, registered_codes=registered
        )
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if writers_out:
        with open(writers_out, "w", encoding="utf-8") as handle:
            json.dump(result.writer_inventory, handle, indent=2, sort_keys=True)
            handle.write("\n")

    if locks_out:
        with open(locks_out, "w", encoding="utf-8") as handle:
            json.dump(result.lock_inventory, handle, indent=2, sort_keys=True)
            handle.write("\n")

    surviving, suppressed, stale = analyzer.apply_baseline(result.findings, entries)
    for warning in stale:
        print(f"note: {warning}", file=sys.stderr)

    if output_format == "json":
        print(analyzer.render_json(surviving, suppressed))
    elif output_format == "sarif":
        print(analyzer.render_sarif(surviving, analyzer.all_rule_codes(families)))
    else:
        print(analyzer.render_text(surviving, suppressed))
    return severity_exit_code((f.severity for f in surviving), fail_on)


def _cmd_describe(data_path: str) -> int:
    from repro.rdf import ntriples
    from repro.rdf.stats import graph_statistics

    graph = ntriples.load_file(data_path)
    print(graph_statistics(graph).render())
    return 0


def _cmd_run(
    scenario_key: str,
    max_episodes: int | None,
    csv_path: str | None = None,
    obs_json: str | None = None,
    trace_out: str | None = None,
    trace_sample: float = 1.0,
) -> int:
    from repro.evaluation.export import write_csv
    from repro.evaluation.report import quality_curve_table
    from repro.experiments import run_scenario, scenario

    tracer = None
    if trace_out is not None:
        from repro.obs import trace

        tracer = trace.install(sample=trace_sample, seed=0)
    spec = scenario(scenario_key)
    if max_episodes is not None:
        spec = spec.with_changes(max_episodes=max_episodes)
    result = run_scenario(spec)
    if tracer is not None:
        from repro.obs import trace

        tracer.write_jsonl(trace_out)
        print(f"wrote {trace_out} ({len(tracer)} trace records)")
        trace.uninstall()
    if csv_path is not None:
        write_csv(result.tracker, csv_path, label=scenario_key)
        print(f"wrote {csv_path}")
    print(quality_curve_table(result.tracker, title=f"scenario {scenario_key}"))
    print(f"initial: {result.initial_quality}")
    print(f"final:   {result.final_quality}")
    print(
        f"episodes: {result.episodes_run}, converged at {result.converged_at}, "
        f"relaxed at {result.relaxed_converged_at}, "
        f"new links: {result.new_links_found}/{result.ground_truth_size}"
    )
    if obs_json is not None:
        from repro import obs

        obs.dump_json(obs_json)
        print(f"wrote {obs_json}")
    return 0


def _run_stats_workload(pair_key: str, episodes: int):
    """The miniature end-to-end workload behind ``stats``/``health``/
    ``slowlog``: dataset → PARIS → θ-filtered space → feedback episodes →
    local SPARQL → federated SPARQL with sameAs rewriting. Returns the warm
    ``(engine, pair)``.
    """
    from repro.core.config import AlexConfig
    from repro.core.engine import AlexEngine
    from repro.datasets import load_pair
    from repro.features.space import FeatureSpace
    from repro.federation import Endpoint, FederatedEngine
    from repro.feedback import FeedbackSession, GroundTruthOracle
    from repro.paris import paris_links
    from repro.sparql import query as run_query

    pair = load_pair(pair_key)
    initial = paris_links(pair.left, pair.right, score_threshold=0.8)
    space = FeatureSpace.build(pair.left, pair.right)
    engine = AlexEngine(space, initial, AlexConfig(episode_size=10, seed=7))
    session = FeedbackSession(engine, GroundTruthOracle(pair.ground_truth), seed=7)
    session.run(episode_size=10, max_episodes=episodes)

    run_query(pair.left, "SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 5")
    federation = FederatedEngine(
        [Endpoint(pair.left, "left"), Endpoint(pair.right, "right")],
        engine.candidates,
    )
    federation.select("SELECT ?s ?p ?o WHERE { ?s ?p ?o } LIMIT 5")
    return engine, pair


def _render_metrics_file(path: str, top: int | None = None) -> str:
    """Render an obs snapshot JSON *or* a repro-report/1 JSONL file."""
    from repro import obs
    from repro.obs import report as obs_report

    with open(path, encoding="utf-8") as handle:
        head = handle.readline()
    try:
        first = json.loads(head) if head.strip() else {}
    except json.JSONDecodeError:
        first = {}
    if isinstance(first, dict) and first.get("schema") == obs_report.REPORT_SCHEMA:
        loaded = obs_report.load_report(path)
        samples = loaded["samples"]
        if not samples:
            return f"(report {path}: no samples yet)"
        return obs_report.render_sample(samples[-1], top=top)
    registry = obs.Registry(path)
    registry.merge(obs.load_snapshot(path))
    return registry.render(top=top)


def _cmd_stats(
    pair_key: str,
    episodes: int,
    json_path: str | None,
    from_file: str | None,
    top: int | None = None,
    trace_out: str | None = None,
    watch: float | None = None,
    iterations: int | None = None,
    prom_out: str | None = None,
    report_out: str | None = None,
    report_interval: float = 0.5,
) -> int:
    from repro import obs

    if from_file is not None:
        print(_render_metrics_file(from_file, top=top))
        if watch is not None:
            rendered = 1
            try:
                while iterations is None or rendered < iterations:
                    time.sleep(watch)
                    print()
                    print(_render_metrics_file(from_file, top=top))
                    rendered += 1
            except KeyboardInterrupt:
                pass
        return 0

    tracer = None
    if trace_out is not None:
        from repro.obs import trace

        tracer = trace.install(seed=0)

    reporter = None
    if report_out is not None:
        # One reporter for the whole command: --watch iterations extend one
        # series in one file.
        reporter = obs.Reporter(report_interval, report_out).start()
    rendered = 0
    try:
        while True:
            _run_stats_workload(pair_key, episodes)
            if reporter is not None:
                # Let the reporter take at least two interval samples even
                # when the workload itself outran the sampling interval.
                time.sleep(report_interval * 2.2)
            print(obs.render(top=top))
            rendered += 1
            if watch is None or (iterations is not None and rendered >= iterations):
                break
            time.sleep(watch)
            print()
    except KeyboardInterrupt:
        pass
    finally:
        if reporter is not None:
            reporter.stop()

    if json_path is not None:
        obs.dump_json(json_path)
        print(f"wrote {json_path}")
    if prom_out is not None:
        with open(prom_out, "w", encoding="utf-8") as handle:
            handle.write(obs.render_prometheus(obs.snapshot()))
        print(f"wrote {prom_out}")
    if report_out is not None:
        print(f"wrote {report_out}")
    if tracer is not None:
        from repro.obs import trace

        tracer.write_jsonl(trace_out)
        print(f"wrote {trace_out} ({len(tracer)} trace records)")
        trace.uninstall()
    return 0


def _cmd_health(pair_key: str, episodes: int) -> int:
    """Warm the engine with the stats workload, print health, exit non-zero
    when degraded."""
    engine, pair = _run_stats_workload(pair_key, episodes)
    health = engine.health(graphs={"left": pair.left, "right": pair.right})
    print(json.dumps(health, indent=2, sort_keys=True))
    return 0 if health["status"] == "ok" else 1


def _cmd_slowlog(
    pair_key: str,
    episodes: int,
    threshold: float,
    top: int | None,
    json_out: str | None,
) -> int:
    from repro.obs import accounting, slowlog

    slog = slowlog.configure(threshold=threshold)
    accounting.enable()
    try:
        _run_stats_workload(pair_key, episodes)
    finally:
        accounting.disable()
        slowlog.disable()
    print(slog.render(top=top))
    if json_out is not None:
        slog.flush(json_out)
        print(f"wrote {json_out}")
    return 0


_FIGURES = {
    "table1": "table_1",
    "fig2a": "figure_2a", "fig2b": "figure_2b", "fig2c": "figure_2c",
    "fig3a": "figure_3a", "fig3b": "figure_3b", "fig3c": "figure_3c",
    "fig4a": "figure_4a", "fig4b": "figure_4b", "fig4c": "figure_4c",
    "fig4d": "figure_4d",
    "fig5": "figure_5", "fig6": "figure_6", "fig7": "figure_7",
    "fig8": "figure_8", "fig9": "figure_9", "fig10": "figure_10",
    "fig11": "figure_11", "timing": "execution_time",
}


def _cmd_figures(figure: str) -> int:
    import repro.experiments as experiments

    keys = list(_FIGURES) if figure == "all" else [figure]
    unknown = [key for key in keys if key not in _FIGURES]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)}; known: {', '.join(_FIGURES)}",
              file=sys.stderr)
        return 2
    for key in keys:
        report = getattr(experiments, _FIGURES[key])()
        print(report.render())
        print()
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "datasets":
            if args.datasets_command == "list":
                return _cmd_datasets_list()
            return _cmd_datasets_generate(args.key, args.out, args.seed)
        if args.command == "link":
            return _cmd_link(args.left, args.right, args.threshold, args.all_pairs, args.out)
        if args.command == "query":
            return _cmd_query(args.data, args.sparql, strict=args.strict)
        if args.command == "explain":
            return _cmd_explain(
                args.data, args.sparql, args.analyze, args.format, args.trace_out
            )
        if args.command == "trace":
            return _cmd_trace(
                args.trace_command,
                args.file,
                trace_id=getattr(args, "trace", None),
                top=getattr(args, "top", 10),
            )
        if args.command == "lint-query":
            return _cmd_lint_query(args.sparql, args.data, args.format, args.fail_on)
        if args.command == "lint-data":
            return _cmd_lint_data(
                args.data, args.links, args.theta, args.format, args.fail_on, args.strict
            )
        if args.command == "lint-code":
            return _cmd_lint_code(
                args.paths, args.format, args.fail_on, args.baseline,
                args.check_baseline, args.rules, args.writers,
                locks_out=args.locks, changed=args.changed,
            )
        if args.command == "describe":
            return _cmd_describe(args.data)
        if args.command == "run":
            return _cmd_run(
                args.scenario, args.max_episodes, args.csv, args.obs_json,
                args.trace_out, args.trace_sample,
            )
        if args.command == "stats":
            return _cmd_stats(
                args.pair, args.episodes, args.json, args.from_file,
                top=args.top, trace_out=args.trace_out,
                watch=args.watch, iterations=args.iterations,
                prom_out=args.prom_out, report_out=args.report_out,
                report_interval=args.report_interval,
            )
        if args.command == "health":
            return _cmd_health(args.pair, args.episodes)
        if args.command == "slowlog":
            return _cmd_slowlog(
                args.pair, args.episodes, args.threshold, args.top, args.json
            )
        if args.command == "figures":
            return _cmd_figures(args.figure)
        if args.command == "report":
            from repro.experiments.report_md import write_report

            write_report(args.out, progress=lambda heading: print(f"... {heading}"))
            print(f"wrote {args.out}")
            return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    raise SystemExit(main())
