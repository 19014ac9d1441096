"""The integer bracket paths against the Fraction constructions they replaced.

``bracket_span``, ``normalizer``, ``centralizer`` and ``Subspace.intersect``
take their brackets from the integer structure table and eliminate in
integers.  The oracles below build every bracket as a ``Fraction`` vector
with ``LieAlgebra.bracket`` and eliminate by Gauss-Jordan in ``Fraction``
arithmetic, as those constructions did before; the canonical rows must be
identical.
"""

import random
from fractions import Fraction as F

import pytest

from cartankit import linalg
from cartankit.algebra import (
    Ideal,
    Subalgebra,
    Subquotient,
    Subspace,
    bracket_span,
    centralizer,
    normalizer,
)
from cartankit.cartan import regular_element_csa
from cartankit.errors import NotClosed, NotIdeal
from cartankit.radicals import nilradical, radical

LADDER = ["gl3", "sl3", "b3", "b4", "sl2+b3", "sl3+h5"]


def gauss_jordan(rows):
    """Canonical rows by Fraction elimination, zero rows dropped."""
    work = [list(map(F, r)) for r in rows]
    out = []
    for col in range(len(work[0]) if work else 0):
        work = [r for r in work if any(r)]
        pr = next((r for r in work if r[col] != 0), None)
        if pr is None:
            continue
        work.remove(pr)
        pr = [e / pr[col] for e in pr]
        work, out = ([[e - r[col] * p for e, p in zip(r, pr)] if r[col] else r for r in block] for block in (work, out))
        out.append(pr)
    return tuple(tuple(r) for r in out)


def fraction_residual(v, canonical):
    out = list(map(F, v))
    for row in canonical:
        p = next(j for j, e in enumerate(row) if e)
        c = out[p]
        if c:
            out = [e - c * r for e, r in zip(out, row)]
    return out


def fraction_kernel(conditions, width):
    """{x : c x = 0}, canonical, read off the Fraction echelon form."""
    m = gauss_jordan(conditions)
    pivots = [next(j for j, e in enumerate(row) if e) for row in m]
    basis = []
    for free in range(width):
        if free not in pivots:
            x = [F(0)] * width
            x[free] = F(1)
            for row, p in zip(m, pivots):
                x[p] = -row[free]
            basis.append(x)
    return gauss_jordan(basis)


def oracle_bracket_span(a, b):
    g = a.ambient
    return gauss_jordan([g.bracket(x, y) for x in a.matrix for y in b.matrix])


def oracle_normalizer(sub):
    g = sub.ambient
    conditions = []
    for row in sub.matrix:
        cols = [fraction_residual(g.bracket_basis_vec(i, row), sub.matrix) for i in range(g.dim)]
        conditions.extend(zip(*cols))
    return fraction_kernel(conditions, g.dim)


def oracle_centralizer(sub):
    g = sub.ambient
    conditions = []
    for row in sub.matrix:
        conditions.extend(zip(*[g.bracket_basis_vec(i, row) for i in range(g.dim)]))
    return fraction_kernel(conditions, g.dim)


def oracle_intersect(a, b):
    n = a.ambient.dim
    conditions = []
    for sub in (a, b):
        conditions.extend(zip(*[fraction_residual(linalg.unit_vec(n, i), sub.matrix) for i in range(n)]))
    return fraction_kernel(conditions, n)


def probe_subspaces(g):
    """Named subspaces of g: invariant ones and a few that are not."""
    rng = random.Random(g.dim)
    whole = g.whole()
    half = Subspace(g, [linalg.unit_vec(g.dim, i) for i in range(g.dim // 2 + 1)])
    mixed = Subspace(g, [[rng.randint(-2, 2) for _ in range(g.dim)] for _ in range(2)])
    return {
        "whole": whole,
        "derived": bracket_span(whole, whole),
        "radical": radical(g),
        "nilradical": nilradical(g),
        "cartan": regular_element_csa(g).csa,
        "centre": centralizer(whole),
        "half": half,
        "mixed": mixed,
        "zero": g.zero_subspace(),
    }


def assert_matches_fraction_oracles(g):
    subs = probe_subspaces(g)
    for name, sub in subs.items():
        assert normalizer(sub).matrix == oracle_normalizer(sub), name
        assert centralizer(sub).matrix == oracle_centralizer(sub), name
    subs["whole copy"] = Subspace(g, g.whole().matrix)  # same rows, another object
    pairs = [
        ("whole", "whole"), ("whole", "whole copy"), ("whole", "radical"), ("radical", "radical"),
        ("derived", "nilradical"), ("cartan", "whole"), ("half", "mixed"), ("half", "half"),
        ("mixed", "zero"), ("nilradical", "radical"),
    ]
    for x, y in pairs:
        a, b = subs[x], subs[y]
        assert bracket_span(a, b).matrix == oracle_bracket_span(a, b), (x, y)
        assert a.intersect(b).matrix == oracle_intersect(a, b), (x, y)


def test_integer_paths_match_fraction_oracles_on_fixtures(catalog):
    assert len(catalog) == 18
    for g in catalog.values():
        assert_matches_fraction_oracles(g)


@pytest.mark.parametrize("seed", [None, 0], ids=["standard", "rebased"])
@pytest.mark.parametrize("name", LADDER)
def test_integer_paths_match_fraction_oracles_on_ladder(ladder_algebra, name, seed):
    assert_matches_fraction_oracles(ladder_algebra(name, seed=seed))


def oracle_operator(frame, x):
    """ad x on U/L: Fraction brackets, Fraction residuals, entries at the basis pivots."""
    g = frame.upper.ambient
    pivots = linalg.pivot_columns(frame.basis.matrix)
    cols = [fraction_residual(g.bracket(x, b), frame.lower.matrix) for b in frame.basis.matrix]
    return tuple(tuple(col[p] for col in cols) for p in pivots)


@pytest.mark.parametrize("name", ["gl3", "sl2+b3", "sl3+h5"])
def test_subquotient_operator_matches_fraction_oracle(ladder_algebra, name):
    g = ladder_algebra(name, seed=0)
    whole, rad = g.whole(), radical(g)
    frames = [
        Subquotient(whole, centralizer(whole)),
        Subquotient(rad, bracket_span(whole, rad)),
        Subquotient(regular_element_csa(g).csa, g.zero_subspace()),
    ]
    for frame in frames:
        for x in frame.upper.matrix:
            assert frame.operator(x) == oracle_operator(frame, x)
        t = frame.target
        for i, a in enumerate(frame.basis.matrix):
            for j, b in enumerate(frame.basis.matrix):
                coords = fraction_residual(g.bracket(a, b), frame.lower.matrix)
                assert t.bracket_basis(i, j) == tuple(coords[p] for p in linalg.pivot_columns(frame.basis.matrix))


def vector_text(v):
    """A vector as the failure messages write it: (1, 0, -3/2)."""
    return "(" + ", ".join(str(x) for x in v) + ")"


def test_open_span_and_non_ideal_messages_are_unchanged(sl2):
    # apart from the rationals, which the messages write as 1 or -3/2
    with pytest.raises(NotClosed) as exc:
        Subalgebra(sl2, [(0, 1, 0), (0, 0, 1)])
    assert str(exc.value) == "bracket of basis rows leaves the span: [(0, 1, 0), (0, 0, 1)] = (1, 0, 0)"
    with pytest.raises(NotClosed) as exc:
        Subalgebra(sl2, [(1, 1, 0), (0, 0, 1)])
    assert str(exc.value) == "bracket of basis rows leaves the span: [(1, 1, 0), (0, 0, 1)] = (1, 0, -2)"
    with pytest.raises(NotIdeal) as exc:
        Ideal(sl2, [(1, 0, 0)])
    assert str(exc.value) == "[e, row] leaves the span: row (1, 0, 0), bracket (0, -2, 0)"
    with pytest.raises(NotIdeal) as exc:
        Ideal(sl2, [(0, 1, 0)])
    assert str(exc.value) == "[f, row] leaves the span: row (0, 1, 0), bracket (-1, 0, 0)"
    with pytest.raises(NotIdeal) as exc:
        Ideal(sl2, [(2, 1, 0)])
    assert str(exc.value) == "[h, row] leaves the span: row (1, 1/2, 0), bracket (0, 1, 0)"


def first_open_pair(g, rows):
    """The message for the first pair i < j of canonical rows whose bracket leaves the span."""
    canonical = gauss_jordan(rows)
    for i, a in enumerate(canonical):
        for b in canonical[i + 1 :]:
            w = g.bracket(a, b)
            if any(fraction_residual(w, canonical)):
                return f"bracket of basis rows leaves the span: [{vector_text(a)}, {vector_text(b)}] = {vector_text(w)}"
    return None


def first_escape(g, rows):
    canonical = gauss_jordan(rows)
    for i in range(g.dim):
        for a in canonical:
            w = g.bracket_basis_vec(i, a)
            if any(fraction_residual(w, canonical)):
                return f"[{g.basis_labels[i]}, row] leaves the span: row {vector_text(a)}, bracket {vector_text(w)}"
    return None


def test_rebased_failure_messages_name_the_first_failing_bracket(ladder_algebra):
    g = ladder_algebra("sl2+b3", seed=0)
    rng = random.Random(7)
    for _ in range(6):
        rows = [[F(rng.randint(-3, 3), rng.choice([1, 2, 5])) for _ in range(g.dim)] for _ in range(3)]
        expected = first_open_pair(g, rows)
        assert expected is not None
        with pytest.raises(NotClosed) as exc:
            Subalgebra(g, rows)
        assert str(exc.value) == expected
    for sub in (regular_element_csa(g).csa, Subspace(g, rows)):
        expected = first_escape(g, sub.matrix)
        assert expected is not None
        with pytest.raises(NotIdeal) as exc:
            Ideal(g, sub.matrix)
        assert str(exc.value) == expected
