"""Compare two sets of benchmark runs, one row per workload and metric.

::

    python3 bench/compare.py OLD.json NEW.json

OLD and NEW are runs files written by ``bench/calibrate.py``; run both
checkouts in one ``calibrate.py`` call so that the pairs alternate. Runs
pair up by workload and seed. Each row shows both medians with their
quartiles, NEW's median as a ratio of OLD's (with the base), the share of
pairs NEW won, and a verdict:

* ``improved`` -- at least 10 pairs, NEW wins at least 9 in 10 of them (a
  tie is no win), and the medians differ by more than OLD's interquartile
  range;
* ``worse`` -- NEW's median is worse than OLD's by more than the metric's
  bound in ``BENCHMARK.json``; for a metric in ``EXACT``, NEW is worse
  than OLD in any pair;
* ``unresolved`` -- OLD's own interquartile range is wider than the bound,
  unless every NEW run beats (or loses to) every OLD run;
* ``unchanged`` -- otherwise.

The exit code is 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Metrics that repeat exactly for a given seed, so two runs of one seed
#: differ only when the code changed what it computes. Their bound in
#: BENCHMARK.json covers how much they vary from seed to seed, which is far
#: looser than "any drop", so here any paired drop counts as worse.
EXACT = {"mean_f1"}


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def paired(old: list[dict], new: list[dict]) -> dict[str, list[tuple[dict, dict]]]:
    """Runs of each workload paired by seed, in the order they were run."""
    pending: dict[tuple, list[dict]] = defaultdict(list)
    for run in new:
        pending[(run["workload"], run["seed"])].append(run)
    pairs: dict[str, list[tuple[dict, dict]]] = defaultdict(list)
    for run in old:
        matches = pending[(run["workload"], run["seed"])]
        if matches:
            pairs[run["workload"]].append((run, matches.pop(0)))
    return pairs


def verdict(old: list[float], new: list[float], bound: float, higher: bool, wins: int,
            exact: bool = False) -> str:
    """``old`` and ``new`` are paired: ``old[i]`` and ``new[i]`` share a seed."""
    sign = 1.0 if higher else -1.0
    old_median, new_median = statistics.median(old), statistics.median(new)
    q1, q3 = quartiles(old)
    gain = sign * (new_median - old_median)
    if exact:
        if any(sign * (n - o) < 0 for o, n in zip(old, new)):
            return "worse"
    elif (q3 - q1) > bound * abs(old_median):
        if all(sign * (n - o) > 0 for n in new for o in old):
            return "improved"
        if all(sign * (n - o) < 0 for n in new for o in old):
            return "worse"
        return "unresolved"
    if gain < -bound * abs(old_median):
        return "worse"
    if len(old) >= 10 and wins >= 0.9 * len(old) and gain > q3 - q1:
        return "improved"
    return "unchanged"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, help="runs file of the parent commit")
    parser.add_argument("new", type=Path, help="runs file of the change")
    args = parser.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    old_runs = json.loads(args.old.read_text())["runs"]
    new_runs = json.loads(args.new.read_text())["runs"]
    header = (f"{'workload':<18} {'metric':<12} {'old median [q1, q3]':>34} "
              f"{'new median [q1, q3]':>34} {'new/old (base)':>24} {'wins':>7}  verdict")
    print(header)
    worse = False
    for workload, pairs in paired(old_runs, new_runs).items():
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            old = [o["metrics"][name] for o, _ in pairs]
            new = [n["metrics"][name] for _, n in pairs]
            wins = sum(1 for o, n in zip(old, new) if (n > o if higher else n < o))
            result = verdict(old, new, metric["bound"], higher, wins, exact=name in EXACT)
            worse = worse or result == "worse"
            old_median, new_median = statistics.median(old), statistics.median(new)
            ratio = f"x{new_median / old_median:.3f} of {old_median:.4g}" if old_median else "n/a"
            print(f"{workload:<18} {name:<12} "
                  f"{old_median:>12.5g} [{quartiles(old)[0]:>8.4g}, {quartiles(old)[1]:>8.4g}] "
                  f"{new_median:>12.5g} [{quartiles(new)[0]:>8.4g}, {quartiles(new)[1]:>8.4g}] "
                  f"{ratio:>24} {wins:>3}/{len(pairs):<3}  {result}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
