"""Levi decomposition g = s + r, and subalgebras as standalone algebras.

The complement is built in ambient coordinates.  Start from the basis of
g/R, the unit rows at the columns that are not pivots of the radical R,
and walk down the derived series of R; at each step one linear correction
solve makes the complement closed modulo the next derived algebra, because
the step between two derived algebras is abelian.  The coefficients of a
bracket over the complement are its push to g/R, read through the same
``Subquotient`` that gives the quotient and induced algebras their
coordinates.  Whitehead's vanishing lemma guarantees each correction
system is consistent in characteristic zero; an inconsistent system
therefore signals a bug, not bad input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg
from .algebra import Ideal, LieAlgebra, Subalgebra, Subquotient, Subspace, derived_series, per_algebra
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
    R_i (a_u its canonical rows) so that it becomes closed modulo R_{i+1}.
    Every row stays e_c + (an element of R), so the coefficient of row t in
    a bracket is entry t of the bracket's push to g/R.  The terms
    [a, a'] with a, a' in R_i lie in R_{i+1}, so the conditions are linear
    in the x_tu; Whitehead's vanishing lemma makes them consistent in
    characteristic zero, and an inconsistent system signals a bug.
    """
    quotient = Subquotient(g.whole(), rad)
    rows = list(quotient.basis.matrix)
    series = derived_series(rad)
    for upper, lower in zip(series, series[1:]):
        basis = upper.matrix
        m = len(basis)
        # the linear parts, reduced modulo R_{i+1}: [row_t, a_u] and a_u
        acts = [[lower.residual(g.bracket(r, a)) for a in basis] for r in rows]
        reduced = [lower.residual(a) for a in basis]
        system: list = []
        rhs: list = []
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
        solution = linalg.solve(system, rhs, width=len(rows) * m)
        if solution is None:
            raise LiftFailure("Levi correction system is inconsistent")
        for t in range(len(rows)):
            for u, a in enumerate(basis):
                rows[t] = linalg.vec_add(rows[t], linalg.vec_scale(solution[t * m + u], a))
    return tuple(rows)
