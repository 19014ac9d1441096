#!/usr/bin/env python3
"""Per-check wall time of ``cartankit verify --all``, over warm passes.

Runs one untimed pass of the bundled catalog and its power-map models,
then ``--passes`` timed ones, and prints each check id's median wall
time per pass (its ``applies`` and its function, summed over every
fixture or model it runs on), its share of the median pass, and the time
outside every check (loading, report assembly).  Each pass loads the
algebras afresh, so a memoized invariant or a context's cached property
is charged to the first check that asks for it, as in a real run.

    PYTHONPATH=src python scripts/verify_timings.py --passes 5
    PYTHONPATH=src python scripts/verify_timings.py --passes 5 --json

The report that ``verify`` builds is left as it is; the timings go to
standard output only.
"""

import argparse
import json
import statistics
import time
from collections import defaultdict
from dataclasses import replace

from cartankit import verify

TABLES = (verify._FIXTURE_CHECKS, verify._INSTANCE_CHECKS, verify._TRIPLES_CHECKS)


def _timed(fn, check_id, spent):
    def run(ctx):
        start = time.perf_counter()
        try:
            return fn(ctx)
        finally:
            spent[check_id] += time.perf_counter() - start

    return run


def timed_passes(passes: int) -> tuple[list[float], dict[str, list[float]]]:
    """The wall time of each timed pass, and of each check id in each pass."""
    originals = [list(table) for table in TABLES]
    spent: dict[str, float] = defaultdict(float)
    for table in TABLES:
        table[:] = [
            replace(c, fn=_timed(c.fn, c.check_id, spent), applies=_timed(c.applies, c.check_id, spent))
            for c in table
        ]
    totals, per_check = [], defaultdict(list)
    try:
        verify.run_verification()  # warm-up: imports, fixture files, interpreter caches
        for _ in range(passes):
            spent.clear()
            start = time.perf_counter()
            verify.run_verification()
            totals.append(time.perf_counter() - start)
            for table in TABLES:
                for c in table:
                    per_check[c.check_id].append(spent[c.check_id])
    finally:
        for table, original in zip(TABLES, originals):
            table[:] = original
    return totals, dict(per_check)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--passes", type=int, default=5, help="timed passes after the warm-up (default 5)")
    parser.add_argument("--json", action="store_true", help="print one JSON object instead of a table")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    totals, per_check = timed_passes(args.passes)
    pass_s = statistics.median(totals)
    checks = sorted(((statistics.median(v), k) for k, v in per_check.items()), reverse=True)
    outside = statistics.median(t - sum(v[i] for v in per_check.values()) for i, t in enumerate(totals))
    if args.json:
        payload = {"passes": args.passes, "pass_s": pass_s, "outside_checks_s": outside}
        payload["checks_s"] = {k: s for s, k in checks}
        print(json.dumps(payload, indent=2))
        return
    print(f"{'check':44s} {'median_s':>10s} {'share':>7s}")
    for s, k in checks:
        print(f"{k:44s} {s:10.4f} {s / pass_s:7.1%}")
    print(f"{'(outside every check)':44s} {outside:10.4f} {outside / pass_s:7.1%}")
    print(f"{'pass':44s} {pass_s:10.4f}   median of {args.passes}")


if __name__ == "__main__":
    main()
