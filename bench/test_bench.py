"""Smoke test of the benchmark, run with ``pytest bench -q``.

Short runs (``--seconds 1``) of every workload in both modes check that
every metric ``BENCHMARK.json`` names is emitted with its unit, that the
trace files load, and that a failed check makes the run exit non-zero.
"""

from __future__ import annotations

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load("run")
compare = _load("compare")

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
               "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def test_benchmark_json_matches_run_py():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {
        name: unit for name, (unit, _) in run.LAYER.items()}
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = WORKLOADS + list(bounds) + [m["name"] for m in BENCHMARK["per_layer"]]
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    completed = _run(workload, trace)
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        sys.path.insert(0, str(ROOT / "src"))
        from repro.obs.trace import load_jsonl

        payload = load_jsonl(str(BENCH / "out" / f"{workload}.trace.jsonl"))
        assert payload["records"]
    else:
        assert all(entry["value"] != 0 for entry in result["metrics"].values())


def _digest_differs(children):
    children[1]["sessions"][0]["digest"] = "0" * 16


def _every_session_raised(children):
    for child in children:
        child["sessions"] = []
        child["errors"] = ["session 1: RuntimeError: boom"]
        child["failed"] = 1


@pytest.mark.parametrize("tamper", [_digest_differs, _every_session_raised])
def test_a_failed_check_exits_non_zero(tamper, monkeypatch, capsys):
    real = run.run_children

    def tampered(args, run_dir):
        children = real(args, run_dir)
        tamper(children)
        return children

    monkeypatch.setattr(run, "run_children", tampered)
    code = run.main(["--workload", "query-hot", "--seed", "3", "--seconds", "1", "--trace", "0"])
    assert code == 1
    printed = capsys.readouterr()
    assert "CHECK FAILED" in printed.err
    result = json.loads(printed.out.strip().splitlines()[-1])
    assert result["correct"] is False and result["attempted"] >= 1


def test_an_exact_metric_is_worse_on_any_paired_drop():
    old = [0.55] * 10
    new = old[:9] + [0.54]
    assert compare.verdict(old, new, 0.2, True, wins=0) == "unchanged"
    assert compare.verdict(old, new, 0.2, True, wins=0, exact=True) == "worse"
    assert compare.verdict(old, old, 0.2, True, wins=0, exact=True) == "unchanged"
    assert "mean_f1" in compare.EXACT


def test_without_the_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    completed = _run("query-hot", 0, cwd=tmp_path)
    assert completed.returncode != 0
    assert not completed.stdout.strip()
