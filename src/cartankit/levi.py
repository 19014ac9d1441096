"""Levi decomposition g = s + r, and subalgebras as standalone algebras.

The complement is built in ambient coordinates.  Start from the basis of
g/R, the unit rows at the columns that are not pivots of the radical R,
and walk down the derived series of R; at each step one linear correction
solve makes the complement closed modulo the next derived algebra, because
the step between two derived algebras is abelian.  The solve runs in
integers, with one equation per pair of rows and coordinate of
R_i/R_{i+1}.  The coefficients of a bracket over the complement are its
push to g/R, read through the same ``Subquotient`` that gives the quotient
and induced algebras their coordinates.  Whitehead's vanishing lemma
guarantees each correction system is consistent in characteristic zero;
an inconsistent system therefore signals a bug, not bad input.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import linalg
from .algebra import Ideal, LieAlgebra, Subalgebra, Subquotient, Subspace, derived_series, per_algebra
from .algebra import _residual_conditions
from .errors import InternalInconsistency, LiftFailure
from .linalg import Mat
from .radicals import radical


@dataclass(frozen=True)
class LeviDecomposition:
    levi: Subalgebra
    radical: Ideal


def induced_algebra(sub: Subspace) -> Subquotient:
    """A bracket-closed subspace S as a standalone algebra: S/0 in S's basis.

    The target's constants are the coordinates of brackets of S's canonical
    rows and its labels are the ambient labels at their pivot columns.  An
    open span raises NotClosed.
    """
    frame = Subquotient(sub, sub.ambient.zero_subspace())
    frame.target  # builds the constants now, so an open span fails here
    return frame


@per_algebra
def levi_decomposition(g: LieAlgebra) -> LeviDecomposition:
    """A Levi complement of the radical, deterministic on ties.

    The result is checked only as a complement: the dimensions add up, the
    Levi part S meets the radical R in 0, and S is closed under the
    bracket.  That suffices for semisimplicity.  ``radical`` checks that R
    is a solvable ideal, and by Cartan's criterion every solvable ideal is
    Killing-orthogonal to [g, g], so it lies in R; hence g/R is semisimple.
    S + R = g and S meeting R in 0 make the subalgebra S isomorphic to g/R.
    Verify's ``levi-split`` check confirms it from the Killing form of S.
    """
    rad = radical(g)
    if rad.dim == 0:
        levi = g.whole()
    elif rad.dim == g.dim:
        levi = g.zero_subalgebra()
    else:
        levi = Subalgebra(g, _complement_rows(g, rad))
    if levi.dim + rad.dim != g.dim:
        raise InternalInconsistency("Levi and radical dimensions do not add up")
    if levi.intersect(rad).dim != 0:
        raise InternalInconsistency("Levi part meets the radical")
    return LeviDecomposition(levi=levi, radical=rad)


def _complement_rows(g: LieAlgebra, rad: Subspace) -> Mat:
    """Rows of a Levi complement of ``rad`` (assumed = radical(g)).

    Start from the basis of g/R, the unit rows e_c at the columns c that
    are not pivots of ``rad``, and walk down the derived series
    R = R_0 > R_1 > ... > R_k = 0.  At step R_i > R_{i+1} the rows span a
    subspace closed modulo R_i; add to row t the element sum_u x_tu a_u of
    R_i (a_u its integer echelon rows) so that it becomes closed modulo
    R_{i+1}.  Every row stays e_c + (an element of R), so the coefficient
    of row t in a bracket is entry t of the bracket's push to g/R.  The
    terms [a, a'] with a, a' in R_i lie in R_{i+1}, so the conditions are
    linear in the x_tu; Whitehead's vanishing lemma makes them consistent
    in characteristic zero, and an inconsistent system signals a bug.

    Rows, brackets and the system are integers.  Every term of a condition
    lies in R_i, where the residual modulo R_{i+1} is zero iff it is zero
    at the pivots of R_i/R_{i+1} (R_i's pivots that are not R_{i+1}'s); the
    equations at the other coordinates are combinations of these.  Dropping
    them and scaling equations or unknowns by positive numbers move neither
    the pivot columns nor the solution with free variables zero.
    """
    quotient = Subquotient(g.whole(), rad)
    rows = quotient.basis._rows_ints()  # unit rows
    scale = 1  # the complement rows are rows[t] / scale
    n = len(rows)
    series = derived_series(rad)
    for upper, lower in zip(series, series[1:]):
        basis = [a for _, a, _ in upper._echelon]
        m, width = len(basis), n * len(basis)
        conditions = _residual_conditions(lower, [[int(j == i) for j in range(g.dim)] for i in range(g.dim)])
        # a multiple of the residual modulo R_{i+1}, read at the pivots of R_i
        # that are not R_{i+1}'s (its rows at R_{i+1}'s pivots are zero)
        rho = [conditions[p] for p, _, _ in upper._echelon if any(conditions[p])]

        def read(v: list[int]) -> list[int]:
            return [sum(c * x for c, x in zip(row, v)) for row in rho]

        sparse = [[(k, x) for k, x in enumerate(r) if x] for r in rows]
        reduced = [[sum(row[k] * x for k, x in a) for row in rho] for a in basis]
        acts = [[read(g._bracket_ints(r, a)) for a in basis] for r in sparse]
        at_rows = [read(r) for r in rows]
        system = []
        for t1, t2 in itertools.combinations(range(n), 2):
            # b = D scale^2 [row_t1, row_t2] with push w / s to g/R; the
            # condition is scaled by s D scale^3, its unknowns are scale x_tu
            b = g._bracket_ints(sparse[t1], sparse[t2])
            w, s = quotient._push_ints(b)
            f, at_b = s * scale, read(b)
            for j in range(len(rho)):
                eq = [0] * width + [sum(w[t] * at_rows[t][j] for t in range(n)) - f * at_b[j]]
                for t in filter(w.__getitem__, range(n)):  # skips zero columns
                    for u in range(m):
                        eq[t * m + u] = -w[t] * reduced[u][j]
                for u in range(m):
                    eq[t2 * m + u] += f * acts[t1][u][j]
                    eq[t1 * m + u] -= f * acts[t2][u][j]
                system.append(eq)
        solution = linalg.solve_ints(system, width)
        if solution is None:
            raise LiftFailure("Levi correction system is inconsistent")
        z, den = solution  # scale x_tu = z[t m + u] / den
        for t, r in enumerate(rows):
            r[:] = [den * x for x in r]
            for u, a in enumerate(basis):
                for k, x in a:
                    r[k] += z[t * m + u] * x
        h = math.gcd(scale * den, *(x for r in rows for x in r))
        rows, scale = [[x // h for x in r] for r in rows], scale * den // h
    return tuple(linalg.over(r, scale) for r in rows)
