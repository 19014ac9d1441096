"""The integer Levi correction against the Fraction loop it replaced.

``levi._complement_rows`` builds and solves its correction system in
integers, with one equation per pair of rows and coordinate of
R_i/R_{i+1}.  The oracle below is the earlier construction: every bracket,
residual and column a ``Fraction`` vector, one equation per ambient
coordinate, solved by the ``Fraction`` solve it called.  Both keep the
free variables zero, so the rows must be identical.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from cartankit import linalg
from cartankit.algebra import Subquotient, derived_series
from cartankit.catalog import algebra_from_dict, bundled_fixtures
from cartankit.levi import _complement_rows, levi_decomposition
from cartankit.radicals import radical

LADDER = ["gl3", "sl3", "b3", "b4", "sl2+b3", "sl2+h5", "sl3+h5", "gl4"]


def fraction_solve(rows, rhs, width=None):
    """One solution of M x = b with free variables zero, from ``linalg.rref``."""
    if not rows:
        return linalg.zero_vec(width)
    ncols = len(rows[0])
    aug = linalg.rref([tuple(linalg.vec(r)) + (F(b),) for r, b in zip(rows, rhs)])
    x = [F(0)] * ncols
    for row in aug:
        lead = next((j for j in range(ncols) if row[j] != 0), None)
        if lead is None:
            if row[ncols] != 0:
                return None
        else:
            x[lead] = row[ncols]
    return tuple(x)


def fraction_complement_rows(g, rad):
    quotient = Subquotient(g.whole(), rad)
    rows = list(quotient.basis.matrix)
    series = derived_series(rad)
    for upper, lower in zip(series, series[1:]):
        basis = upper.matrix
        m = len(basis)
        acts = [[lower.residual(g.bracket(r, a)) for a in basis] for r in rows]
        reduced = [lower.residual(a) for a in basis]
        system, rhs = [], []
        for t1, t2 in itertools.combinations(range(len(rows)), 2):
            b = g.bracket(rows[t1], rows[t2])
            w = quotient.push_vector(b)
            defect = b
            for t, row in enumerate(rows):
                defect = linalg.vec_sub(defect, linalg.vec_scale(w[t], row))
            columns = []
            for t in range(len(rows)):
                for u in range(m):
                    col = linalg.vec_scale(-w[t], reduced[u])
                    if t == t2:
                        col = linalg.vec_add(col, acts[t1][u])
                    if t == t1:
                        col = linalg.vec_sub(col, acts[t2][u])
                    columns.append(col)
            system.extend(linalg.transpose(tuple(columns)))
            rhs.extend(-d for d in lower.residual(defect))
        solution = fraction_solve(system, rhs, width=len(rows) * m)
        assert solution is not None
        for t in range(len(rows)):
            for u, a in enumerate(basis):
                rows[t] = linalg.vec_add(rows[t], linalg.vec_scale(solution[t * m + u], a))
    return tuple(rows)


def assert_same_rows(g):
    rad = radical(g)
    rows = _complement_rows(g, rad)
    assert rows == fraction_complement_rows(g, rad)
    assert all(type(e) is F for row in rows for e in row)
    if 0 < rad.dim < g.dim:
        assert levi_decomposition(g).levi.matrix == linalg.rref(rows)


def rebased_fixture(ladder, g, seed):
    """A fixture in the random basis ``ladder.rebase`` draws from ``seed``."""
    constants = {}
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            entry = {k: c for k, c in enumerate(g.bracket_basis(i, j)) if c}
            if entry:
                constants[(i, j)] = entry
    alg = ladder.LadderAlgebra("fixture", g.basis_labels, constants, (), None)
    return algebra_from_dict(ladder.rebase(alg, random.Random(seed)).to_json())


@pytest.mark.parametrize("seed", [None, 0], ids=["std", "rebased"])
@pytest.mark.parametrize("name", sorted(bundled_fixtures()))
def test_levi_rows_match_fraction_oracle_on_fixtures(catalog, ladder, name, seed):
    # in a random basis the start rows of a semidirect product such as
    # sl2xR2 are not closed, so every term of the correction counts
    g = catalog[name]
    assert_same_rows(g if seed is None else rebased_fixture(ladder, g, seed))


@pytest.mark.parametrize("seed", [None, 0], ids=["std", "rebased"])
@pytest.mark.parametrize("spec", LADDER)
def test_levi_rows_match_fraction_oracle_on_ladder(ladder_algebra, spec, seed):
    assert_same_rows(ladder_algebra(spec, seed))
