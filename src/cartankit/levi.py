"""Levi decomposition g = s + r and induced algebras of subalgebras.

The complement is built in ambient coordinates.  Start from the coordinate
complement of the radical and walk down its derived series; at each step
one linear correction solve makes the complement closed modulo the next
derived algebra, because the step between two derived algebras is abelian.
Whitehead's vanishing lemma guarantees each correction system is
consistent in characteristic zero; an inconsistent system therefore
signals a bug, not bad input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg
from .algebra import Ideal, LieAlgebra, Subalgebra, Subspace, derived_series, per_algebra
from .errors import InternalInconsistency, LiftFailure, NotClosed
from .linalg import Mat, Vec
from .radicals import radical


@dataclass(frozen=True)
class LeviDecomposition:
    levi: Subalgebra
    radical: Ideal


@dataclass(frozen=True)
class InducedAlgebra:
    """A subalgebra rewritten in its own canonical basis.

    ``inclusion`` rows are the canonical basis vectors in ambient
    coordinates, so subspaces of the induced algebra can be mapped back.
    """

    algebra: LieAlgebra
    ambient: LieAlgebra
    inclusion: Mat

    def to_ambient_vector(self, v) -> Vec:
        return linalg.apply_mat(linalg.transpose(self.inclusion), v)

    def to_ambient(self, sub: Subspace) -> Subspace:
        rows = [self.to_ambient_vector(r) for r in sub.matrix]
        return Subspace(self.ambient, rows)

    def from_ambient_vector(self, v) -> Vec:
        coords = linalg.row_coordinates(linalg.vec(v), self.inclusion)
        if coords is None:
            raise InternalInconsistency("vector lies outside the induced subalgebra")
        return coords

    def from_ambient(self, sub: Subspace) -> Subspace:
        rows = [self.from_ambient_vector(r) for r in sub.matrix]
        return Subspace(self.algebra, rows)


def induced_algebra(sub: Subspace) -> InducedAlgebra:
    """Express a bracket-closed subspace as a standalone algebra."""
    g = sub.ambient
    rows = sub.matrix
    constants: dict[tuple[int, int], dict[int, object]] = {}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            w = g.bracket(rows[i], rows[j])
            coords = linalg.row_coordinates(w, rows)
            if coords is None:
                raise NotClosed(f"bracket of rows {i},{j} leaves the subspace")
            entry = {k: c for k, c in enumerate(coords) if c != 0}
            if entry:
                constants[(i, j)] = entry
    labels = [f"v{i}" for i in range(len(rows))]
    algebra = LieAlgebra(len(rows), constants, labels)
    return InducedAlgebra(algebra=algebra, ambient=g, inclusion=rows)


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

    Start from the coordinate complement, the unit rows e_c at the columns
    c that are not pivots of ``rad``, and walk down the derived series
    R = R_0 > R_1 > ... > R_k = 0.  At step R_i > R_{i+1} the rows span a
    subspace closed modulo R_i; add to row t the element sum_u x_tu a_u of
    R_i (a_u its canonical rows) so that it becomes closed modulo R_{i+1}.
    Every row stays e_c + (an element of R), so the coefficient of row t in
    a bracket is that bracket's residual modulo R at column c_t.  The terms
    [a, a'] with a, a' in R_i lie in R_{i+1}, so the conditions are linear
    in the x_tu; Whitehead's vanishing lemma makes them consistent in
    characteristic zero, and an inconsistent system signals a bug.
    """
    pivots = set(linalg.pivot_columns(rad.matrix))
    cols = [c for c in range(g.dim) if c not in pivots]
    rows = [linalg.unit_vec(g.dim, c) for c in cols]
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
            w = rad.residual(b)
            defect = b
            for t, c in enumerate(cols):
                defect = linalg.vec_sub(defect, linalg.vec_scale(w[c], rows[t]))
            columns = []
            for t, c in enumerate(cols):
                for u in range(m):
                    col = linalg.vec_scale(-w[c], reduced[u])
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
