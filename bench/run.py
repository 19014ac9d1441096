#!/usr/bin/env python3
"""cartankit benchmark: one closed-loop caller, every output checked.

    python3 bench/run.py --workload ladder-rebased --seed 3 --seconds 35 --trace 0
    python3 bench/run.py --workload all

A run sets up its workload several times (fresh import of ``cartankit``
from ``src``, ladder generation, loading) and reports the median as
``setup_s``.  It then runs whole passes over the workload's op list, each
op starting when the previous one returns.  It starts another pass only
when that pass should end within ``--seconds``, and runs at least one.
Each op has a wall-clock cap of ``CAP_S``; an op that hits it, exits
non-zero or gives a wrong answer counts as failed.  Op times are reported
at the speed of a reference computation timed before every op (see
``reference``).

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
traced and untraced passes alternate, traced first, and the per-layer
metrics of the traced passes are printed, per pass.  The last line of
standard output is one JSON object; a result file with provenance goes to
``bench/results``.  The exit code is 1 on any wrong answer, 2 when
``cartankit`` cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

CAP_S = 15.0  # per-op wall-clock cap; part of the benchmark, same on every commit
# Set-up runs at least SETUP_MIN_RUNS times and until SETUP_MIN_SECONDS have
# been spent, so a cheap set-up still gets a steady median.
SETUP_MIN_RUNS = 3
SETUP_MIN_SECONDS = 4.0
SETUP_MAX_RUNS = 40
RESULTS = BENCH / "results"

END_TO_END = {
    "pass_s": "ref_s",
    "op_p50_ms": "ref_ms",
    "op_p90_ms": "ref_ms",
    "ops_ok_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_FN_METRICS = [
    "linalg.mat_pow.calls",
    "linalg.mat_pow.self_s",
    "linalg.mat_mul.calls",
    "linalg.mat_mul.self_s",
    "cartan.regular_element_csa.calls",
    "cartan.regular_element_csa.self_s",
    "cartan.regular_element_csa.failed",
    "linalg.rref.calls",
    "linalg.rref.self_s",
    "linalg.kernel.self_s",
    "linalg.solve.self_s",
    "levi.levi_decomposition.calls",
    "levi.levi_decomposition.self_s",
    "linalg.char_poly.self_s",
    "linalg.semisimple_part.calls",
    "linalg.semisimple_part.self_s",
    "radicals.nilradical.calls",
    "radicals.nilradical.self_s",
    "radicals.radical.calls",
    "radicals.radical.self_s",
    "algebra.killing_form.calls",
    "algebra.killing_form.self_s",
    "algebra.normalizer.self_s",
    "algebra.centralizer.self_s",
    "algebra.bracket_span.self_s",
    "algebra.subalgebra_closure.self_s",
    "radicals.enumerate_ideal_candidates.calls",
    "radicals.enumerate_ideal_candidates.self_s",
    "algebra.LieAlgebra.calls",
    "algebra.LieAlgebra.self_s",
    "catalog.load_algebra.calls",
    "catalog.load_algebra.self_s",
    "levi.induced_algebra.calls",
    "levi.induced_algebra.self_s",
    "quotient.quotient_algebra.self_s",
    "quotient.push_cartan.self_s",
    "quotient.lift_cartan.self_s",
    "cartan.composite_csa.self_s",
    "cartan.normalizer_chain_csa.self_s",
    "cartan.is_cartan_subalgebra.calls",
    "cartan.is_cartan_subalgebra.self_s",
    "powermap.powers_surjective_bruteforce.calls",
    "powermap.powers_surjective_bruteforce.self_s",
    "powermap.pk_surjective.calls",
    "verify.verify_fixture.self_s",
    "verify.verify_models.self_s",
    "cli.main.self_s",
]


def _unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s"
    return {"max_bits": "bits", "mat_pow_per_call": "ratio", "overhead_ratio": "ratio"}.get(name.rsplit(".", 1)[1], "count")


PER_LAYER = {
    name: _unit(name)
    for name in [f"{layer}.self_s" for layer in tracing.LAYERS]
    + _FN_METRICS
    + [
        "cartan.regular_element_csa.mat_pow_per_call",
        "linalg.rref.max_bits",
        "radicals.nilradical.fallbacks",
        "trace.overhead_ratio",
    ]
}


class OpTimeout(BaseException):
    """Raised by the alarm when an op reaches its cap; not an ``Exception``,
    so no handler inside the package can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


@dataclass
class OpResult:
    label: str
    seconds: float
    reason: str | None  # None when the op succeeded and its output checked out
    reference_s: float  # the reference computation timed just before the op


# A shared host drifts in speed by 20-40 % over tens of seconds, and the drift
# slows every computation alike.  So a fixed exact-arithmetic computation that
# does not use cartankit is timed before every op, and op times are reported
# at the reference speed: scaled, pass by pass, by REFERENCE_NOMINAL_S over
# the pass's mean reference time.  Raw wall times stay in the result file.
REFERENCE_NOMINAL_S = 0.02
_REFERENCE_ROWS = tuple(tuple(Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(9)) for i in range(8))


def reference() -> float:
    """Seconds for ten Gauss-Jordan eliminations of a fixed 8 x 9 rational matrix."""
    start = time.perf_counter()
    for _ in range(10):
        rows = [list(r) for r in _REFERENCE_ROWS]
        for col in range(9):
            pivot = next((r for r in rows if r[col] != 0 and not any(r[:col])), None)
            if pivot is None:
                continue
            for other in rows:
                if other is not pivot and other[col] != 0:
                    f = other[col] / pivot[col]
                    other[:] = [a - f * b for a, b in zip(other, pivot)]
    return time.perf_counter() - start


def call_capped(fn, cap: float):
    """(output, failure reason) of ``fn()`` under a wall-clock cap."""
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            return fn(), None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        return None, "timeout"
    except workloads.CommandFailed as exc:
        return None, f"exit-{exc.code}"
    except Exception as exc:  # an uncaught error ends a real process with code 1
        return None, f"exit-1 ({type(exc).__name__}: {exc})"


def run_pass(session: workloads.Session, workload: workloads.Workload, tracer, first_op_id: int):
    """One closed-loop pass; returns the op results and a pass-level wrong answer."""
    results, outputs = [], []
    for i, op in enumerate(workload.ops):
        if tracer:
            tracer.op_id = first_op_id + i
        ref = reference()
        start = time.perf_counter()
        out, reason = call_capped(op.run, CAP_S)
        seconds = time.perf_counter() - start
        if tracer:
            tracer.end_op()
        if reason is None and op.check is not None:
            if tracer:
                tracer.recording = False
            try:
                reason = op.check(out)
            finally:
                if tracer:
                    tracer.recording = True
        results.append(OpResult(op.label, seconds, reason, ref))
        outputs.append(out)
    pass_error = None
    if workload.pass_check and all(r.reason is None for r in results):
        pass_error = workload.pass_check(outputs)
    return results, pass_error


def percentile(values: list[float], p: int) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A mean of all order statistics weighted by the Beta(q(n+1), (1-q)(n+1))
    mass over each one's share of [0, 1] (Harrell and Davis, Biometrika
    69, 1982).  With a few dozen ops of very different sizes a single order
    statistic jumps with the noise of one or two ops; this spreads the
    weight over the neighbours.  The Beta mass is integrated by the midpoint
    rule and normalized, which is exact enough for a timing.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    q = p / 100
    a, b = q * (n + 1) - 1, (1 - q) * (n + 1) - 1
    steps = 64
    weights = [
        sum(t**a * (1 - t) ** b for t in ((i + (j + 0.5) / steps) / n for j in range(steps)))
        for i in range(n)
    ]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def git_sha(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup(name: str, seed: int, workdir: Path):
    """Import, generate and load from scratch; returns the session and workload."""
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    session = workloads.Session(workloads.Kit())
    return session, workloads.WORKLOADS[name](session, seed, workdir)


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    workdir = BENCH / ".work" / f"{name}-{os.getpid()}"
    setup_times, references = [], []
    try:
        while len(setup_times) < SETUP_MIN_RUNS or (
            sum(setup_times) < SETUP_MIN_SECONDS and len(setup_times) < SETUP_MAX_RUNS
        ):
            start = time.perf_counter()
            session, workload = setup(name, seed, workdir)
            setup_times.append(time.perf_counter() - start)
            gc.collect()  # drop the modules of earlier set-ups, untimed
            # reference timings worth about a tenth of the set-up, right after it
            share = round(0.1 * setup_times[-1] / REFERENCE_NOMINAL_S)
            references.extend(reference() for _ in range(max(1, share)))
        previous = signal.signal(signal.SIGALRM, _alarm)
        try:
            record = measure(session, workload, seconds, trace)
        finally:
            signal.signal(signal.SIGALRM, previous)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["setup_runs_s"] = setup_times
    setup_scale = REFERENCE_NOMINAL_S / statistics.fmean(references)
    record["setup_reference_scale"] = setup_scale
    if not trace:
        # seconds at the reference speed, like the op times; the raw median is kept
        record["raw_wall"]["setup_s"] = statistics.median(setup_times)
        record["metrics"]["setup_s"] = {"value": statistics.median(setup_times) * setup_scale, "unit": "s"}
        record["samples"]["setup_s"] = len(setup_times)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        record["metrics"]["peak_rss_mb"] = {"value": rss, "unit": "MB"}
        record["samples"]["peak_rss_mb"] = 1
        record["metrics"] = {k: record["metrics"][k] for k in END_TO_END}
    record.update(workload=name, seed=seed, seconds=seconds, trace=int(trace))
    return record


def measure(session, workload, seconds: int, trace: bool) -> dict:
    tracer = tracing.Tracer() if trace else None
    passes = []  # (traced, results)
    wrong = []
    began = time.perf_counter()
    while True:
        # traced passes come first, like the first pass of an untraced run
        traced = trace and len(passes) % 2 == 0
        if traced:
            session.tracer = tracer
            tracer.install()
        start = time.perf_counter()
        try:
            results, pass_error = run_pass(session, workload, tracer if traced else None, len(passes) * len(workload.ops))
        finally:
            if traced:
                tracer.uninstall()
                session.tracer = None
        passes.append((traced, results))
        if pass_error:
            wrong.append({"pass": len(passes) - 1, "reason": f"wrong-answer: {pass_error}"})
        now = time.perf_counter()
        # start another pass only if it should end within the run's seconds
        if (not trace or len(passes) >= 2) and (now - began) + (now - start) > seconds:
            break

    all_results = [r for _, results in passes for r in results]
    failures = [
        {"pass": p, "op": r.label, "reason": r.reason, "cap_s": CAP_S, "seconds": r.seconds}
        for p, (_, results) in enumerate(passes)
        for r in results
        if r.reason is not None
    ]
    correct = not wrong and not any(f["reason"].startswith("wrong-answer") for f in failures)
    scales = [REFERENCE_NOMINAL_S * len(results) / sum(r.reference_s for r in results) for _, results in passes]
    untraced = [(results, k) for (traced, results), k in zip(passes, scales) if not traced]
    plain = [pass_time(results, k) for results, k in untraced]
    ok_ms = [r.seconds * 1000 * k for results, k in untraced for r in results if r.reason is None]
    raw_ms = [r.seconds * 1000 for results, _ in untraced for r in results if r.reason is None]
    attempted = len(all_results)
    record = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures + wrong,
        "passes": len(passes),
        "ops_per_pass": len(workload.ops),
        "pass_sum_s": [sum(r.seconds for r in results) for _, results in passes],
        "reference_scale": scales,
        "op_seconds": _op_seconds(passes),
        "metrics": {},
        "samples": {},
    }
    m, n = record["metrics"], record["samples"]
    if not trace:
        m["pass_s"] = {"value": statistics.median(plain), "unit": "ref_s"}
        n["pass_s"] = len(plain)
        # with no successful op at all, the latency percentiles read the cap
        latencies = ok_ms or [CAP_S * 1000]
        m["op_p50_ms"] = {"value": percentile(latencies, 50), "unit": "ref_ms"}
        m["op_p90_ms"] = {"value": percentile(latencies, 90), "unit": "ref_ms"}
        n["op_p50_ms"] = n["op_p90_ms"] = len(ok_ms)
        raw = raw_ms or [CAP_S * 1000]
        record["raw_wall"] = {
            "pass_s": statistics.median(sum(r.seconds for r in results) for results, _ in untraced),
            "op_p50_ms": percentile(raw, 50),
            "op_p90_ms": percentile(raw, 90),
        }
        m["ops_ok_ratio"] = {"value": (attempted - len(failures)) / attempted, "unit": "ratio"}
        n["ops_ok_ratio"] = attempted
        return record
    traced_sums = [sum(r.seconds for r in results) for traced, results in passes if traced]
    traced_scaled = [pass_time(results, k) for (traced, results), k in zip(passes, scales) if traced]
    record.update(per_layer(tracer, traced_sums, statistics.median(traced_scaled) / statistics.median(plain)))
    return record


def pass_time(results: list[OpResult], scale: float) -> float:
    """A pass's op time at the reference speed; a timeout counts its wall-clock cap."""
    return sum(r.seconds if r.reason == "timeout" else r.seconds * scale for r in results)


def _op_seconds(passes) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for _, results in passes:
        for r in results:
            out.setdefault(r.label, []).append(r.seconds)
    return dict(sorted(out.items()))


def per_layer(tracer: tracing.Tracer, traced_sums: list[float], overhead: float) -> dict:
    """Per-layer metrics per traced pass (wall seconds), and how the traced time splits."""
    k = len(traced_sums)
    layer = tracer.layer_self_s()
    values = {f"{name}.self_s": secs / k for name, secs in layer.items()}
    for name in _FN_METRICS:
        values[name] = tracer.metric(name) / k
    scans = tracer.metric("cartan.regular_element_csa.calls")
    powers = tracer.nested_calls("linalg.mat_pow", "cartan.regular_element_csa")
    values["cartan.regular_element_csa.mat_pow_per_call"] = powers / scans if scans else 0.0
    values["linalg.rref.max_bits"] = tracer.rref_max_bits
    values["radicals.nilradical.fallbacks"] = (
        tracer.nested_calls("radicals.bruteforce_max_nilpotent_ideal", "radicals.nilradical") / k
    )
    values["trace.overhead_ratio"] = overhead
    traced_total = sum(traced_sums)
    layers_total = sum(layer.values())
    accounting = {
        "traced_pass_s": traced_total / k,
        "layers_self_s": layers_total / k,
        "tracer_s": tracer.tracer_s / k,
        "benchmark_s": (traced_total - layers_total - tracer.tracer_s) / k,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return {
        "metrics": metrics,
        "samples": {name: k for name in PER_LAYER},
        "trace_accounting": accounting,
        "tracer": tracer,
    }


def provenance() -> dict:
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "cap_s": CAP_S,
        "setup_min_runs": SETUP_MIN_RUNS,
        "setup_min_seconds": SETUP_MIN_SECONDS,
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def write_result(record: dict, meta: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-{time.strftime('%Y%m%dT%H%M%S', time.gmtime())}-{os.getpid()}"
    tracer = record.pop("tracer", None)
    if tracer is not None:
        record["spans"] = tracer.write_spans(RESULTS / f"{stem}.spans.jsonl.gz")
        record["spans_file"] = f"{stem}.spans.jsonl.gz"
    path = RESULTS / f"{stem}.json"
    path.write_text(json.dumps({**meta, **record}, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def print_table(record: dict) -> None:
    for name, metric in record["metrics"].items():
        print(f"{record['workload']:17s} {name:48s} {metric['value']:14.6f} {metric['unit']:6s} n={record['samples'][name]}")
    print(
        f"{record['workload']:17s} ops attempted {record['attempted']}, failed {record['failed']} "
        f"({record['failed'] / record['attempted']:.4f}), passes {record['passes']}, cap {CAP_S:g} s"
    )
    for f in record["failures"]:
        print(f"{record['workload']:17s} failed: {f.get('op', 'pass')} [{f['reason']}]")
    acc = record.get("trace_accounting")
    if acc:
        print(
            f"{record['workload']:17s} traced pass {acc['traced_pass_s']:.3f} s = layers {acc['layers_self_s']:.3f} s"
            f" + tracer {acc['tracer_s']:.3f} s + benchmark {acc['benchmark_s']:.3f} s"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        workloads.Kit()
    except ImportError as exc:
        print(f"cannot import cartankit from {workloads.SRC}: {exc}", file=sys.stderr)
        return 2
    meta = provenance()
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    records = []
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace))
        path = write_result(record, meta)
        print_table(record)
        print(f"{name:17s} result file: {path.relative_to(ROOT)}")
        records.append(record)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
