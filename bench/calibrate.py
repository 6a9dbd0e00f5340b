"""Run the benchmark over many seeds and report each metric's spread.

::

    python3 bench/calibrate.py --seeds 1-10 --out bench/out/runs.json
    python3 bench/calibrate.py --workload query-hot --seeds 1-10 \\
        --checkout ../parent --out old.json --checkout . --out new.json

Each (workload, seed) runs ``bench/run.py`` once in every checkout, one run
at a time; with two checkouts the order alternates from seed to seed, which
gives the paired runs ``bench/compare.py`` reads. The runs file keeps every
run's metrics. The table printed per checkout gives, for every workload and
end-to-end metric, the median, the quartiles and the spread: the distance
between the quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median, next to a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS_FORMAT = "alex-bench-runs/1"


def parse_seeds(text: str) -> list[int]:
    """``"1-10"`` or ``"1,4,9"``."""
    if "-" in text:
        low, high = text.split("-", 1)
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    started = time.perf_counter()
    completed = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    wall = time.perf_counter() - started
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited with {completed.returncode}")
    result = json.loads(lines[-1])
    return {
        "workload": workload,
        "seed": seed,
        "wall_s": wall,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def report(runs: list[dict], benchmark: dict) -> list[str]:
    """The spread table; returns the (workload, metric) pairs over a third
    of their bound. ``setup_s`` is exempt: set-up is held to its median,
    not to its spread."""
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    over = []
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        walls = [run["wall_s"] for run in mine]
        print(f"{workload}: {len(mine)} runs, invocation wall median {statistics.median(walls):.1f} s, "
              f"max {max(walls):.1f} s")
        if len(mine) < 2:
            continue
        for name, bound in bounds.items():
            values = [run["metrics"][name] for run in mine]
            median, q1, q3, share = spread(values)
            flag = ""
            if share > bound / 3:
                flag = "  (setup_s: exempt)" if name == "setup_s" else "  OVER"
                if name != "setup_s":
                    over.append(f"{workload}/{name}")
            print(f"  {name:<14} median {median:>12.6g}  q1 {q1:>12.6g}  q3 {q3:>12.6g}  "
                  f"spread {share:7.2%}  bound/3 {bound / 3:7.2%}{flag}")
    return over


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seeds", default="1-10", help="A-B or a comma list (default 1-10)")
    parser.add_argument("--checkout", action="append", type=Path,
                        help="checkout root to run (repeatable; default: this one)")
    parser.add_argument("--out", action="append", required=True, type=Path,
                        help="runs file, one per --checkout, in the same order")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    checkouts = [path.resolve() for path in (args.checkout or [ROOT])]
    if len(args.out) != len(checkouts):
        parser.error("give one --out per --checkout")
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    runs: dict[Path, list[dict]] = {checkout: [] for checkout in checkouts}
    for workload in workloads:
        for number, seed in enumerate(parse_seeds(args.seeds)):
            order = checkouts if number % 2 == 0 else checkouts[::-1]
            for position, checkout in enumerate(order):
                run = run_once(checkout, workload, seed, benchmark["run_seconds"])
                run["order"] = position
                runs[checkout].append(run)
                print(f"{checkout.name}: {workload} seed {seed}: {run['wall_s']:.1f} s", file=sys.stderr)

    over = []
    for checkout, out in zip(checkouts, args.out):
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({
            "format": RUNS_FORMAT,
            "run_seconds": benchmark["run_seconds"],
            "runs": runs[checkout],
        }, indent=1))
        print(f"== {checkout} -> {out}")
        over += report(runs[checkout], benchmark)
    if over:
        print(f"spread over a third of the bound: {', '.join(over)}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
