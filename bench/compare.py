#!/usr/bin/env python3
"""Compare benchmark result sets from two commits, one row per workload x metric.

    python3 bench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by ``bench/run.py`` (the
``*.json`` files under ``bench/results``).  Runs are paired by seed, so run
both commits on the same seeds, alternating which side runs first.  Each
row gives both sides' median and quartiles with the run count, the share
of pairs the new commit wins (ties count for neither side) and a verdict:

- ``improved``: at least ten pairs, the new commit wins at least nine
  tenths of them, and the medians differ by more than the base's
  interquartile distance;
- ``worse``: the new median is worse than the base median by more than
  the metric's bound in ``BENCHMARK.json`` (for per-layer metrics, which
  have no bound: the improved rule in the other direction);
- ``unresolved``: the run-to-run spread of either side is wider than the
  bound and not every new run beats every base run;
- ``unchanged``: otherwise.

Exit code 1 when any end-to-end row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_results(directory: Path) -> dict[tuple[str, str], dict[int, list[float]]]:
    """(workload, metric) -> seed -> values, from every result file in a directory."""
    out: dict[tuple[str, str], dict[int, list[float]]] = {}
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if "metrics" not in record or "workload" not in record:
            continue
        for name, metric in record["metrics"].items():
            out.setdefault((record["workload"], name), {}).setdefault(record["seed"], []).append(metric["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(base: dict[int, list[float]], new: dict[int, list[float]], lower_better: bool, bound: float | None) -> dict:
    b = [v for vs in base.values() for v in vs]
    n = [v for vs in new.values() for v in vs]
    bq1, bmed, bq3 = quartiles(b)
    nq1, nmed, nq3 = quartiles(n)
    sign = 1 if lower_better else -1

    def better(x: float, y: float) -> bool:  # x beats y
        return sign * (y - x) > 0

    pairs = [(x, y) for seed in sorted(set(base) & set(new)) for x, y in zip(base[seed], new[seed])]
    wins = sum(better(y, x) for x, y in pairs)
    losses = sum(better(x, y) for x, y in pairs)
    base_iqr = bq3 - bq1
    scale = abs(bmed) or 1.0
    worse_by = sign * (nmed - bmed) / scale
    spread = max(base_iqr / scale, (nq3 - nq1) / (abs(nmed) or 1.0))
    enough = len(pairs) >= 10
    if enough and wins >= 0.9 * len(pairs) and abs(nmed - bmed) > base_iqr:
        result = "improved"
    elif bound is None:
        if enough and losses >= 0.9 * len(pairs) and abs(nmed - bmed) > base_iqr:
            result = "worse"
        else:
            result = "unchanged" if abs(nmed - bmed) <= base_iqr else "unresolved"
    elif worse_by > bound:
        result = "worse"
    elif spread > bound and not all(better(y, x) for x in b for y in n):
        result = "unresolved"
    else:
        result = "unchanged"
    return {
        "base": (bmed, bq1, bq3, len(b)),
        "new": (nmed, nq1, nq3, len(n)),
        "change": (nmed - bmed) / scale,
        "wins": wins,
        "pairs": len(pairs),
        "verdict": result,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two sets of bench/run.py result files")
    parser.add_argument("base", type=Path, help="directory of the parent commit's result files")
    parser.add_argument("new", type=Path, help="directory of the new commit's result files")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    directions = {m["name"]: (m["better"] == "lower", m.get("bound")) for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load_results(args.base), load_results(args.new)
    rows = sorted(set(base) & set(new), key=lambda k: (k[0], k[1] not in {m["name"] for m in spec["end_to_end"]}, k[1]))
    if not rows:
        print("no workload x metric present in both result sets", file=sys.stderr)
        return 2
    print(f"{'workload':17s} {'metric':46s} {'base median [q1, q3] (runs)':34s} {'new median [q1, q3] (runs)':34s} {'change':>8s} {'wins':>7s}  verdict")
    regressed = False
    for workload, metric in rows:
        lower_better, bound = directions.get(metric, (True, None))
        row = verdict(base[(workload, metric)], new[(workload, metric)], lower_better, bound)
        regressed |= bound is not None and row["verdict"] == "worse"
        b, n = row["base"], row["new"]
        print(
            f"{workload:17s} {metric:46s} {b[0]:10.4g} [{b[1]:.4g}, {b[2]:.4g}] ({b[3]})".ljust(100)
            + f" {n[0]:10.4g} [{n[1]:.4g}, {n[2]:.4g}] ({n[3]})".ljust(35)
            + f" {row['change']:+8.1%} {row['wins']:>3d}/{row['pairs']:<3d}  {row['verdict']}"
        )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
