"""Tests of the benchmark's own parts: ladder generator, oracles, checks, compare.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import compare  # noqa: E402
import ladder  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

ALL_SPECS = sorted(set(workloads.CHEVALLEY + workloads.REBASED + ["b4"]))
SMALL = ["gl3", "sl3", "b3", "n4", "h5", "sl2+b3"]


@pytest.fixture(scope="module")
def kit():
    return workloads.Kit()


def _load(kit, alg):
    return kit.catalog.algebra_from_dict(json.loads(json.dumps(alg.to_json())))


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_jacobi_holds_in_both_bases(spec):
    alg = ladder.family(spec)
    assert ladder.jacobi_residual(alg) is None
    assert ladder.jacobi_residual(ladder.rebase(alg, random.Random(7))) is None


def test_jacobi_residual_finds_a_broken_table():
    alg = ladder.family("sl2")
    broken = ladder.LadderAlgebra("bad", alg.labels, {**alg.constants, (0, 1): {1: Fraction(3)}}, (), alg.oracle)
    assert ladder.jacobi_residual(broken) == (0, 1, 2)


def test_dimensions():
    dims = {"gl3": 9, "sl3": 8, "b3": 6, "b4": 10, "n4": 6, "n5": 10, "h7": 7, "h9": 9, "sl2+b3": 9, "sl3+h5": 13}
    assert {s: ladder.family(s).dim for s in dims} == dims


def test_rebase_is_seeded_and_dense_rational():
    alg = ladder.family("b4")
    a = ladder.rebase(alg, random.Random(3))
    assert a == ladder.rebase(alg, random.Random(3))
    assert a.constants != ladder.rebase(alg, random.Random(4)).constants
    assert any(c.denominator > 1 for row in a.constants.values() for c in row.values())
    assert a.oracle == alg.oracle


@pytest.mark.parametrize("spec", ["gl3", "b3", "n4", "h7", "sl3+h5"])
def test_centre_vectors_are_central_in_both_bases(kit, spec):
    for alg in (ladder.family(spec), ladder.rebase(ladder.family(spec), random.Random(1))):
        g = _load(kit, alg)
        for v in alg.centre:
            assert all(not any(g.bracket_basis_vec(i, v)) for i in range(g.dim))
        assert kit.algebra.centralizer(g.whole()).dim == alg.oracle.centre


@pytest.mark.parametrize("rebased", [False, True], ids=["standard", "rebased"])
def test_rank_gl3_is_3(kit, rebased):
    alg = ladder.family("gl3")
    if rebased:
        alg = ladder.rebase(alg, random.Random(11))
    assert kit.cartan.regular_element_csa(_load(kit, alg)).csa.dim == 3


@pytest.mark.parametrize("spec", SMALL)
@pytest.mark.parametrize("rebased", [False, True], ids=["standard", "rebased"])
def test_oracle_table_matches_cartankit(kit, spec, rebased):
    alg = ladder.family(spec)
    if rebased:
        alg = ladder.rebase(alg, random.Random(5))
    g = _load(kit, alg)
    o = alg.oracle
    assert kit.radicals.radical(g).dim == o.radical
    assert kit.radicals.nilradical(g).dim == o.nilradical
    assert kit.levi.levi_decomposition(g).levi.dim == o.levi
    assert kit.cartan.composite_csa(g).csa.dim == o.rank


def test_checks_reject_wrong_answers(kit, tmp_path):
    session = workloads.Session(kit)
    plan = [("b3", [("cartan", "regular"), ("levi",), ("quotient",)])]
    ops = {op.label: op for op in workloads.ladder_ops(session, plan, tmp_path, None)}
    for op in ops.values():
        out = op.run()
        assert op.check(out) is None, op.label
        payload = json.loads(out)
        if "basis" in payload:
            payload["basis"] = payload["basis"][:-1]
        elif "levi" in payload:
            payload["radical"] = payload["radical"][:-1]
        else:
            payload["lifted_cartan"] = payload["lifted_cartan"][:-1]
        assert op.check(json.dumps(payload)).startswith("wrong-answer"), op.label
    assert ops["cartan regular:b3"].check("not json").startswith("wrong-answer")


def test_command_failure_carries_the_exit_code(kit, tmp_path):
    session = workloads.Session(kit)
    missing = tmp_path / "missing.json"
    with pytest.raises(workloads.CommandFailed) as info:
        session.cli(["levi", str(missing), "--json"])
    assert info.value.code == 2


def test_cap_reports_timeout():
    import signal

    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        start = time.perf_counter()
        out, reason = run.call_capped(lambda: [None for _ in iter(int, 1)], 0.2)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert (out, reason) == (None, "timeout")
    assert time.perf_counter() - start < 2


def test_tracer_self_time_and_restore(kit):
    tracer = run.tracing.Tracer()
    original = kit.linalg.rref
    tracer.install()
    try:
        assert kit.linalg.rref is not original
        g = _load(kit, ladder.family("sl2"))
        kit.radicals.radical(g)
    finally:
        tracer.uninstall()
    assert kit.linalg.rref is original
    assert tracer.metric("radicals.radical.calls") == 1
    assert tracer.metric("algebra.killing_form.calls") == 1
    assert tracer.metric("linalg.rref.calls") > 0
    root = tracer.span_parent.index(-1, 1)  # first root span after the constructor
    assert tracer.names[tracer.span_name[root]] == "radicals.radical"
    assert all(s >= 0 for s in tracer.self_s)


def test_end_op_repairs_a_span_cut_short():
    tracer = run.tracing.Tracer()
    tracer._enter(0)
    tracer._enter(1)  # an alarm left both open
    tracer.span_parent.append(0)  # and cut a third entry short
    tracer.end_op()
    lengths = {len(a) for a in (tracer.span_parent, tracer.span_op, tracer.span_start, tracer.span_end, tracer.span_name)}
    assert lengths == {2}
    assert all(end > 0 for end in tracer.span_end)
    assert not tracer._stack and not any(tracer._open)


def test_harrell_davis_percentile():
    assert run.percentile([5.0], 90) == 5.0
    assert run.percentile([3.0] * 7, 50) == pytest.approx(3.0)
    assert run.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == pytest.approx(3.0)  # symmetric sample
    values = [float(x) for x in range(1, 41)]
    assert 35 < run.percentile(values, 90) < 38
    assert run.percentile(values, 50) < run.percentile(values, 90)


def test_pass_time_scales_all_but_timeouts():
    results = [run.OpResult("a", 2.0, None, 0.04), run.OpResult("b", 15.0, "timeout", 0.04)]
    assert run.pass_time(results, 0.5) == pytest.approx(2.0 * 0.5 + 15.0)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_compare_verdicts():
    base = {s: [10.0 + 0.01 * s] for s in range(10)}
    faster = {s: [8.0 + 0.01 * s] for s in range(10)}
    slower = {s: [13.0 + 0.01 * s] for s in range(10)}
    same = {s: [10.0 + 0.01 * ((s + 5) % 10)] for s in range(10)}
    assert compare.verdict(base, faster, True, 0.1)["verdict"] == "improved"
    assert compare.verdict(base, slower, True, 0.1)["verdict"] == "worse"
    assert compare.verdict(base, same, True, 0.1)["verdict"] == "unchanged"
    noisy = {s: [10.0 * (1 + 0.5 * (s % 2))] for s in range(10)}
    assert compare.verdict(noisy, noisy, True, 0.1)["verdict"] == "unresolved"
    assert compare.verdict(base, faster, False, 0.1)["verdict"] == "worse"
