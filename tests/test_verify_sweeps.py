"""Verify's integer sweeps and ideal lattice against the code they replaced.

``core-jacobi`` sums its Jacobiators in Python ints, ``core-killing-invariance``
reads a basis bracket table built once, ``killing_value`` converts no entry
to ``Fraction``, and ``enumerate_ideal_candidates`` forms no join a + b with
b inside a.  The oracles below are the earlier versions, kept here: every
bracket a ``Fraction`` vector from ``LieAlgebra.bracket``, the Killing value
summed in ``Fraction``, and every join formed by ``Subspace.sum``.  Each pair
must agree exactly: None, or the same witness dict; the same candidate
list, in the same order.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from cartankit import linalg, verify
from cartankit.algebra import LieAlgebra, Subspace, killing_form, killing_value
from cartankit.radicals import candidate_vector_pool, enumerate_ideal_candidates, ideal_closure

# denominators of the seeded broken tables
DENOMINATORS = (1, 2, 3, 5, 7)


def oracle_killing_value(form, x, y):
    """x^T form y, summed over the nonzero entries of x and y in Fraction."""
    ys = [(j, F(yj)) for j, yj in enumerate(y) if yj]
    total = F(0)
    for xi, row in zip(x, form):
        if xi:
            total += F(xi) * sum((row[j] * yj for j, yj in ys), F(0))
    return total


def oracle_jacobi(g):
    vectors = [linalg.unit_vec(g.dim, i) for i in range(g.dim)]
    vectors += candidate_vector_pool(g)[g.dim : g.dim + 4]
    for x, y, z in itertools.combinations(vectors, 3):
        res = g.bracket(g.bracket(x, y), z)
        res = linalg.vec_add(res, g.bracket(g.bracket(y, z), x))
        res = linalg.vec_add(res, g.bracket(g.bracket(z, x), y))
        if not linalg.is_zero_vec(res):
            return {"triple": [[str(e) for e in v] for v in (x, y, z)], "residual": [str(e) for e in res]}
    return None


def oracle_killing_invariance(g, form):
    basis = [linalg.unit_vec(g.dim, i) for i in range(g.dim)]
    for x, y, z in itertools.product(basis, repeat=3):
        lhs = oracle_killing_value(form, g.bracket(x, y), z)
        rhs = oracle_killing_value(form, x, g.bracket(y, z))
        if lhs != rhs:
            return {"triple": [[str(e) for e in v] for v in (x, y, z)], "lhs": str(lhs), "rhs": str(rhs)}
    return None


def oracle_ideal_candidates(g):
    principal = {}
    for v in candidate_vector_pool(g):
        closed = ideal_closure(g, [v])
        principal.setdefault(closed._echelon, closed)
    seen = {(): Subspace(g, ())}
    seen.update(principal)
    frontier = list(principal.values())
    while frontier:
        joins = {}
        for a in frontier:
            for b in principal.values():
                joined = a.sum(b)
                if joined._echelon not in seen:
                    joins.setdefault(joined._echelon, joined)
        seen.update(joins)
        frontier = list(joins.values())
    return sorted(seen.values(), key=lambda s: s.matrix)


def context(g):
    return verify._FixtureContext("probe", g, {})


def broken_algebra(seed):
    """Random rational constants over DENOMINATORS, not checked for Jacobi."""
    rng = random.Random(seed)
    dim = rng.randint(3, 6)
    constants = {}
    for i, j in itertools.combinations(range(dim), 2):
        if rng.random() < 0.5:
            constants[(i, j)] = {k: F(rng.randint(-3, 3), rng.choice(DENOMINATORS)) for k in rng.sample(range(dim), 2)}
    return LieAlgebra(dim, constants, check_jacobi=False)


def test_sweeps_match_the_fraction_oracles_on_every_fixture(catalog):
    assert len(catalog) == 18
    for name, g in catalog.items():
        ctx = context(g)
        assert verify._check_jacobi(ctx) is None is oracle_jacobi(g), name
        assert verify._check_killing_invariance(ctx) is None is oracle_killing_invariance(g, killing_form(g)), name


def test_jacobi_sweep_matches_the_oracle_on_seeded_broken_tables():
    failed = 0
    for seed in range(40):
        g = broken_algebra(seed)
        witness = verify._check_jacobi(context(g))
        assert witness == oracle_jacobi(g), seed
        failed += witness is not None
    assert failed > 20
    assert {broken_algebra(seed)._d for seed in range(40)} & {7, 14, 21, 35}


def test_jacobi_witness_holds_the_exact_residual():
    # [x,y] = x/2, [x,z] = z/3, [y,z] = 5y/7, so D = 42, and the Jacobiator
    # of (x, y, z) is z/6 - 5x/14 + 5y/21
    g = LieAlgebra(3, {(0, 1): {0: F(1, 2)}, (0, 2): {2: F(1, 3)}, (1, 2): {1: F(5, 7)}}, check_jacobi=False)
    witness = verify._check_jacobi(context(g))
    assert witness["triple"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert witness["residual"] == ["-5/14", "5/21", "1/6"]
    assert witness == oracle_jacobi(g)


def test_killing_invariance_matches_the_oracle_on_broken_tables():
    failed = passed = 0
    for seed in range(40):
        g = broken_algebra(seed)
        witness = verify._check_killing_invariance(context(g))
        assert witness == oracle_killing_invariance(g, killing_form(g)), seed
        failed += witness is not None
        passed += witness is None
    assert failed > 10 and passed > 0


@pytest.mark.parametrize("name", ["sl2", "gl2", "heisenberg5", "sl2xheis"])
def test_killing_invariance_matches_the_oracle_on_a_shifted_form(catalog, monkeypatch, name):
    g = catalog[name]
    form = killing_form(g)
    # k + I/3 is not invariant on a non-abelian algebra
    shifted = tuple(tuple(e + (F(1, 3) if i == j else 0) for j, e in enumerate(row)) for i, row in enumerate(form))
    monkeypatch.setattr(verify, "killing_form", lambda h: shifted)
    witness = verify._check_killing_invariance(context(g))
    assert witness is not None
    assert witness == oracle_killing_invariance(g, shifted)


def random_vector(rng, n):
    kind = rng.choice(["zero", "int", "fraction", "mixed"])
    if kind == "zero":
        return [0] * n
    if kind == "int":
        return [rng.randint(-3, 3) for _ in range(n)]
    if kind == "fraction":
        return [F(rng.randint(-4, 4), rng.choice(DENOMINATORS)) for _ in range(n)]
    return [rng.choice([0, rng.randint(-2, 2), F(rng.randint(-4, 4), rng.choice(DENOMINATORS))]) for _ in range(n)]


@pytest.mark.parametrize("seed", range(4))
def test_killing_value_matches_the_oracle(catalog, seed):
    rng = random.Random(seed)
    forms = [killing_form(g) for g in catalog.values()]
    for n in (3, 5):
        forms.append(tuple(tuple(F(rng.randint(-3, 3), rng.choice(DENOMINATORS)) for _ in range(n)) for _ in range(n)))
    for form in forms:
        for _ in range(8):
            x, y = random_vector(rng, len(form)), random_vector(rng, len(form))
            value = killing_value(form, x, y)
            assert type(value) is F
            assert value == oracle_killing_value(form, x, y)
    assert type(killing_value(((1, 0), (0, 1)), (1, 2), (3, 0))) is F


def test_ideal_candidates_match_the_oracle_in_order(catalog):
    small = {name: g for name, g in catalog.items() if g.dim <= verify.BRUTEFORCE_RADICAL_DIM}
    assert len(small) == 15
    for name, g in small.items():
        got, want = enumerate_ideal_candidates(g), oracle_ideal_candidates(g)
        assert [type(s) for s in got] == [type(s) for s in want], name
        assert [s._echelon for s in got] == [s._echelon for s in want], name
