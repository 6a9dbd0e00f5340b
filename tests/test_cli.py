"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDatasets:
    def test_list(self, capsys):
        code, out, _ = run_cli(capsys, "datasets", "list")
        assert code == 0
        assert "dbpedia_nytimes" in out
        assert "ground truth" in out

    def test_generate(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "datasets", "generate", "opencyc_nba_nytimes", "--out", str(tmp_path)
        )
        assert code == 0
        files = os.listdir(tmp_path)
        assert {
            "opencyc_nba_nytimes_left.nt",
            "opencyc_nba_nytimes_right.nt",
            "opencyc_nba_nytimes_truth.nt",
        } <= set(files)

    def test_generate_unknown_key(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "datasets", "generate", "nope", "--out", str(tmp_path))
        assert code == 1
        assert "unknown dataset pair" in err


class TestLinkAndQuery:
    @pytest.fixture()
    def generated(self, capsys, tmp_path):
        run_cli(capsys, "datasets", "generate", "opencyc_nba_nytimes", "--out", str(tmp_path))
        return (
            str(tmp_path / "opencyc_nba_nytimes_left.nt"),
            str(tmp_path / "opencyc_nba_nytimes_right.nt"),
        )

    def test_link_prints_links(self, capsys, generated):
        left, right = generated
        code, out, _ = run_cli(capsys, "link", left, right, "--threshold", "0.8")
        assert code == 0
        assert "links above threshold" in out
        assert "sameAs" in out

    def test_link_writes_file(self, capsys, generated, tmp_path):
        left, right = generated
        out_file = str(tmp_path / "links.nt")
        code, out, _ = run_cli(capsys, "link", left, right, "--out", out_file)
        assert code == 0
        assert os.path.exists(out_file)

    def test_link_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "link", "/nope/a.nt", "/nope/b.nt")
        assert code == 1
        assert "error" in err

    def test_query_select(self, capsys, generated):
        left, _ = generated
        code, out, _ = run_cli(
            capsys, "query", left, "SELECT ?s WHERE { ?s ?p ?o } LIMIT 3"
        )
        assert code == 0
        assert out.startswith("?s")
        assert len(out.strip().splitlines()) == 4  # header + 3 rows

    def test_query_ask(self, capsys, generated):
        left, _ = generated
        code, out, _ = run_cli(capsys, "query", left, "ASK { ?s ?p ?o }")
        assert code == 0
        assert out.strip() == "yes"

    def test_query_construct(self, capsys, generated):
        left, _ = generated
        code, out, _ = run_cli(
            capsys, "query", left,
            "CONSTRUCT { ?s <http://x/p> ?o } WHERE { ?s <http://x/none> ?o }",
        )
        assert code == 0
        assert out == ""

    def test_query_aggregate(self, capsys, generated):
        left, _ = generated
        code, out, _ = run_cli(
            capsys, "query", left, "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }"
        )
        assert code == 0
        assert int(out.strip().splitlines()[1]) > 0


class TestLintQuery:
    def test_clean_query_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "lint-query", "SELECT ?s WHERE { ?s ?p ?o }")
        assert code == 0
        assert "0 error(s)" in out

    def test_error_diagnostics_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "lint-query", "SELECT ?name WHERE { ?s ?p ?o }")
        assert code == 1
        assert "ALEX-E001" in out
        assert "1 error(s)" in out

    def test_text_output_has_positions(self, capsys):
        code, out, _ = run_cli(
            capsys, "lint-query", "SELECT * WHERE { ?s <http://x/p> ?o FILTER(1 > 2) }"
        )
        assert code == 1
        assert "1:37: ALEX-E004 error:" in out

    def test_json_output(self, capsys):
        import json

        code, out, _ = run_cli(
            capsys, "lint-query", "--format", "json", "SELECT ?s ?s WHERE { ?s ?p ?o }"
        )
        assert code == 0  # warnings only
        payload = json.loads(out)
        assert payload[0]["code"] == "ALEX-W106"
        assert payload[0]["severity"] == "warning"

    def test_query_from_file(self, capsys, tmp_path):
        query_file = tmp_path / "q.rq"
        query_file.write_text("SELECT ?s WHERE { ?s ?p ?o }")
        code, out, _ = run_cli(capsys, "lint-query", f"@{query_file}")
        assert code == 0

    def test_data_enables_cost_lint(self, capsys, tmp_path):
        data = tmp_path / "d.nt"
        data.write_text(
            "".join(
                f"<http://x/s{i}> <http://x/p> <http://x/o{i}> .\n" for i in range(12)
            )
        )
        code, out, _ = run_cli(
            capsys, "lint-query", "--data", str(data),
            "SELECT * WHERE { ?s <http://x/p> ?o }",
        )
        assert code == 0
        assert "ALEX-I201" in out

    def test_syntax_error_is_reported(self, capsys):
        code, _, err = run_cli(capsys, "lint-query", "SELECT WHERE {")
        assert code == 1
        assert "error" in err

    def test_strict_query_rejects_errors(self, capsys, tmp_path):
        data = tmp_path / "d.nt"
        data.write_text("<http://x/s> <http://x/p> <http://x/o> .\n")
        code, _, err = run_cli(
            capsys, "query", "--strict", str(data), "SELECT ?name WHERE { ?s ?p ?o }"
        )
        assert code == 1
        assert "ALEX-E001" in err

    def test_default_query_still_runs_bad_projection(self, capsys, tmp_path):
        data = tmp_path / "d.nt"
        data.write_text("<http://x/s> <http://x/p> <http://x/o> .\n")
        code, out, _ = run_cli(
            capsys, "query", str(data), "SELECT ?name WHERE { ?s ?p ?o }"
        )
        assert code == 0


class TestFailOn:
    def test_lint_query_fail_on_warning(self, capsys):
        code, out, _ = run_cli(
            capsys, "lint-query", "--fail-on", "warning", "SELECT ?s ?s WHERE { ?s ?p ?o }"
        )
        assert code == 1
        assert "ALEX-W106" in out

    def test_lint_query_default_passes_warnings(self, capsys):
        code, _, _ = run_cli(capsys, "lint-query", "SELECT ?s ?s WHERE { ?s ?p ?o }")
        assert code == 0

    def test_lint_query_fail_on_info(self, capsys):
        code, out, _ = run_cli(
            capsys, "lint-query", "--fail-on", "info", "SELECT * WHERE { ?s ?p ?o }"
        )
        assert code == 1
        assert "ALEX-I201" in out


class TestLintData:
    @pytest.fixture()
    def bad_nt(self, tmp_path):
        data = tmp_path / "bad.nt"
        data.write_text(
            '<http://x/a> <http://x/age> '
            '"abc"^^<http://www.w3.org/2001/XMLSchema#integer> .\n'
            "<http://x/b> <http://x/p> <http://x/c> .\n"
            '<http://x/d> <http://x/p> "mixed" .\n'
        )
        return str(data)

    @pytest.fixture()
    def clean_nt(self, tmp_path):
        data = tmp_path / "clean.nt"
        data.write_text('<http://x/a> <http://x/name> "Alpha" .\n')
        return str(data)

    def test_clean_file_exits_zero(self, capsys, clean_nt):
        code, out, _ = run_cli(capsys, "lint-data", clean_nt)
        assert code == 0
        assert "0 error(s)" in out

    def test_errors_exit_one(self, capsys, bad_nt):
        code, out, _ = run_cli(capsys, "lint-data", bad_nt)
        assert code == 1
        assert "ALEX-D101" in out
        assert "ALEX-D201" in out  # reported but not fatal by default

    def test_json_output(self, capsys, bad_nt):
        import json

        code, out, _ = run_cli(capsys, "lint-data", "--format", "json", bad_nt)
        assert code == 1
        payload = json.loads(out)
        assert payload[0]["code"] == "ALEX-D101"
        assert payload[0]["severity"] == "error"
        assert "subject" in payload[0]

    def test_strict_fails_on_warnings(self, capsys, tmp_path):
        data = tmp_path / "warn.nt"
        data.write_text(
            "<http://x/b> <http://x/p> <http://x/c> .\n"
            '<http://x/d> <http://x/p> "mixed" .\n'
        )
        code, _, _ = run_cli(capsys, "lint-data", str(data))
        assert code == 0
        code, out, _ = run_cli(capsys, "lint-data", "--strict", str(data))
        assert code == 1
        assert "ALEX-D201" in out

    def test_links_tier(self, capsys, tmp_path, clean_nt):
        links = tmp_path / "links.nt"
        links.write_text(
            "<http://x/a> <http://www.w3.org/2002/07/owl#sameAs> <http://x/ghost> .\n"
        )
        code, out, _ = run_cli(capsys, "lint-data", clean_nt, clean_nt, "--links", str(links))
        assert code == 1
        assert "ALEX-D304" in out

    def test_generated_bundle_is_clean(self, capsys, tmp_path):
        run_cli(capsys, "datasets", "generate", "opencyc_nba_nytimes", "--out", str(tmp_path))
        left = str(tmp_path / "opencyc_nba_nytimes_left.nt")
        right = str(tmp_path / "opencyc_nba_nytimes_right.nt")
        truth = str(tmp_path / "opencyc_nba_nytimes_truth.nt")
        code, out, _ = run_cli(capsys, "lint-data", left, right, "--links", truth)
        assert code == 0
        assert "0 error(s)" in out

    def test_too_many_files(self, capsys, clean_nt):
        code, _, err = run_cli(capsys, "lint-data", clean_nt, clean_nt, clean_nt)
        assert code == 2
        assert "at most two" in err

    def test_nquads_input(self, capsys, tmp_path):
        data = tmp_path / "d.nq"
        data.write_text(
            '<http://x/a> <http://x/age> '
            '"nope"^^<http://www.w3.org/2001/XMLSchema#integer> <http://x/g> .\n'
        )
        code, out, _ = run_cli(capsys, "lint-data", str(data))
        assert code == 1
        assert "ALEX-D101" in out
        assert "[http://x/g]" in out


class TestRunAndFigures:
    def test_run_scenario(self, capsys):
        code, out, _ = run_cli(capsys, "run", "fig4d", "--max-episodes", "5")
        assert code == 0
        assert "scenario fig4d" in out
        assert "episodes:" in out

    def test_run_unknown_scenario(self, capsys):
        code, _, err = run_cli(capsys, "run", "nope")
        assert code == 1

    def test_figures_single(self, capsys):
        code, out, _ = run_cli(capsys, "figures", "table1")
        assert code == 0
        assert "Table 1" in out

    def test_figures_unknown(self, capsys):
        code, _, err = run_cli(capsys, "figures", "fig99")
        assert code == 2
        assert "unknown figure" in err


class TestExplain:
    @pytest.fixture()
    def generated(self, capsys, tmp_path):
        run_cli(capsys, "datasets", "generate", "opencyc_nba_nytimes", "--out", str(tmp_path))
        return str(tmp_path / "opencyc_nba_nytimes_left.nt")

    QUERY = "SELECT ?s ?o WHERE { ?s ?p ?o } LIMIT 3"

    def test_static_explain(self, capsys, generated):
        code, out, _ = run_cli(capsys, "explain", generated, self.QUERY)
        assert code == 0
        assert out.startswith("EXPLAIN\n")
        assert "pattern" in out and "est=" in out
        assert "rows=" not in out

    def test_analyze_prints_rows_and_total(self, capsys, generated):
        code, out, _ = run_cli(capsys, "explain", generated, self.QUERY, "--analyze")
        assert code == 0
        assert out.startswith("EXPLAIN ANALYZE\n")
        assert "rows=" in out and "time=" in out
        assert "total:" in out

    def test_json_format(self, capsys, generated):
        import json

        code, out, _ = run_cli(capsys, "explain", generated, self.QUERY, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "repro-plan/1"
        assert payload["analyzed"] is False

    def test_query_from_file(self, capsys, generated, tmp_path):
        query_file = tmp_path / "q.rq"
        query_file.write_text(self.QUERY)
        code, out, _ = run_cli(capsys, "explain", generated, "@" + str(query_file))
        assert code == 0
        assert "EXPLAIN" in out

    def test_missing_data_file(self, capsys):
        code, _, err = run_cli(capsys, "explain", "/nope/x.nt", self.QUERY)
        assert code == 1
        assert "error" in err


class TestTraceCli:
    @pytest.fixture()
    def trace_file(self, capsys, tmp_path):
        run_cli(capsys, "datasets", "generate", "opencyc_nba_nytimes", "--out", str(tmp_path))
        data = str(tmp_path / "opencyc_nba_nytimes_left.nt")
        out_path = str(tmp_path / "trace.jsonl")
        code, out, err = run_cli(
            capsys, "explain", data, "SELECT ?s WHERE { ?s ?p ?o } LIMIT 3",
            "--analyze", "--trace-out", out_path,
        )
        assert code == 0
        assert "wrote" in err
        return out_path

    def test_trace_out_round_trips(self, trace_file):
        from repro.obs.trace import load_jsonl

        payload = load_jsonl(trace_file)
        names = {record["name"] for record in payload["records"]}
        assert "sparql.query.explain" in names
        assert "sparql.operator.eval" in names

    def test_trace_show(self, capsys, trace_file):
        code, out, _ = run_cli(capsys, "trace", "show", trace_file)
        assert code == 0
        assert "trace " in out
        assert "sparql.query.explain" in out

    def test_trace_show_unknown_prefix(self, capsys, trace_file):
        code, out, _ = run_cli(capsys, "trace", "show", trace_file, "--trace", "zzzz")
        assert code == 0
        assert "no trace matching" in out

    def test_trace_summary(self, capsys, trace_file):
        code, out, _ = run_cli(capsys, "trace", "summary", trace_file)
        assert code == 0
        assert "events by type:" in out
        assert "slowest spans" in out

    def test_trace_rejects_non_trace_file(self, capsys, tmp_path):
        junk = tmp_path / "junk.jsonl"
        junk.write_text('{"schema": "nope"}\n')
        code, _, err = run_cli(capsys, "trace", "summary", str(junk))
        assert code == 1
        assert "error" in err


class TestStatsAndRunTracing:
    def test_stats_top_limits_sections(self, capsys, tmp_path):
        snapshot = str(tmp_path / "snap.json")
        code, _, _ = run_cli(capsys, "stats", "--episodes", "1", "--json", snapshot)
        assert code == 0
        code, out, _ = run_cli(capsys, "stats", "--from", snapshot, "--top", "2")
        assert code == 0
        assert "more)" in out  # sections got clipped

    def test_run_trace_out(self, capsys, tmp_path):
        from repro.obs.trace import load_jsonl

        out_path = str(tmp_path / "run-trace.jsonl")
        code, out, _ = run_cli(
            capsys, "run", "fig4d", "--max-episodes", "3", "--trace-out", out_path
        )
        assert code == 0
        assert f"wrote {out_path}" in out
        payload = load_jsonl(out_path)
        names = {record["name"] for record in payload["records"]}
        assert "alex.episode.run" in names
        assert "alex.feature.select" in names

    def test_run_trace_sample_keeps_some_episode_traces(self, capsys, tmp_path):
        from repro.obs.trace import load_jsonl

        out_path = str(tmp_path / "sampled-trace.jsonl")
        code, _, _ = run_cli(
            capsys, "run", "fig4d", "--max-episodes", "6",
            "--trace-out", out_path, "--trace-sample", "0.5",
        )
        assert code == 0
        records = load_jsonl(out_path)["records"]
        episodes = [r for r in records if r["name"] == "alex.episode.run"]
        # sampling is decided per episode: each kept episode is its own
        # root trace, and some but not all of the six are kept
        assert 0 < len(episodes) < 6
        assert all(r["parent"] is None for r in episodes)
        kept = {r["trace"] for r in episodes}
        assert len(kept) == len(episodes)
        # a kept trace is complete: its episode-end event is in it
        assert {r["trace"] for r in records if r["name"] == "alex.episode.end"} == kept


class TestHealthCli:
    def test_health_prints_json_and_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "health", "--episodes", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] in ("ok", "degraded")
        assert "plan_cache" in payload["caches"]
        assert "left" in payload["dictionaries"]


class TestSlowlogCli:
    def test_slowlog_renders_entries(self, capsys):
        code, out, _ = run_cli(capsys, "slowlog", "--episodes", "1")
        assert code == 0
        assert "slowlog" in out
        assert "episode" in out  # feedback episodes always record

    def test_slowlog_json_flush(self, capsys, tmp_path):
        target = str(tmp_path / "slow.json")
        code, out, _ = run_cli(
            capsys, "slowlog", "--episodes", "1", "--json", target
        )
        assert code == 0
        payload = json.loads(open(target).read())
        assert payload["schema"] == "repro-slowlog/1"
        assert payload["entries"]

    def test_slowlog_threshold_filters_everything(self, capsys):
        code, out, _ = run_cli(
            capsys, "slowlog", "--episodes", "1", "--threshold", "3600"
        )
        assert code == 0
        assert "no slow operations" in out


class TestStatsExports:
    def test_prom_out_writes_valid_exposition(self, capsys, tmp_path):
        from tests.prometheus_reference import validate_exposition

        prom = str(tmp_path / "metrics.prom")
        code, out, _ = run_cli(
            capsys, "stats", "--episodes", "1", "--prom-out", prom
        )
        assert code == 0
        text = open(prom).read()
        assert validate_exposition(text) > 0
        assert f"wrote {prom}" in out

    def test_report_out_collects_interval_samples(self, capsys, tmp_path):
        from repro.obs.report import load_report

        report = str(tmp_path / "report.jsonl")
        code, out, _ = run_cli(
            capsys, "stats", "--episodes", "1",
            "--report-out", report, "--report-interval", "0.05",
        )
        assert code == 0
        loaded = load_report(report)
        assert loaded["header"]["schema"] == "repro-report/1"
        assert len(loaded["samples"]) >= 2
        assert f"wrote {report}" in out

    def test_stats_from_report_file(self, capsys, tmp_path):
        report = str(tmp_path / "report.jsonl")
        run_cli(
            capsys, "stats", "--episodes", "1",
            "--report-out", report, "--report-interval", "0.05",
        )
        code, out, _ = run_cli(capsys, "stats", "--from", report)
        assert code == 0
        assert "seq=" in out  # rendered the latest report sample

    def test_watch_from_file_stops_after_iterations(self, capsys, tmp_path):
        snapshot = str(tmp_path / "snap.json")
        run_cli(capsys, "stats", "--episodes", "1", "--json", snapshot)
        code, out, _ = run_cli(
            capsys, "stats", "--from", snapshot,
            "--watch", "0.01", "--iterations", "2",
        )
        assert code == 0
        assert out.count("registry") >= 2  # two renders
