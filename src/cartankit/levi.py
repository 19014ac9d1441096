"""Levi decomposition g = s + r and induced algebras of subalgebras.

The complement is built by the classical lifting: quotient by the derived
algebra of the radical, split there (the radical becomes abelian, so one
linear correction system suffices), then recurse on the preimage whose
radical has strictly shorter derived series.  Whitehead's vanishing lemma
guarantees the correction system is consistent in characteristic zero; an
inconsistent system therefore signals a bug, not bad input.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import Ideal, LieAlgebra, Subalgebra, Subspace, bracket_span, per_algebra
from .errors import InternalInconsistency, LiftFailure, NotClosed
from .linalg import Mat, Vec
from .quotient import QuotientMap, quotient_algebra
from .radicals import is_semisimple, radical


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
    """A semisimple complement of the radical, deterministic on ties."""
    rad = radical(g)
    if rad.dim == 0:
        levi = g.whole()
    elif rad.dim == g.dim:
        levi = g.zero_subalgebra()
    else:
        levi = Subalgebra(g, _complement_rows(g, rad))
    _verify_levi(g, levi, rad)
    return LeviDecomposition(levi=levi, radical=rad)


def _verify_levi(g: LieAlgebra, levi: Subalgebra, rad: Ideal) -> None:
    if levi.dim + rad.dim != g.dim:
        raise InternalInconsistency("Levi and radical dimensions do not add up")
    if levi.intersect(rad).dim != 0:
        raise InternalInconsistency("Levi part meets the radical")
    if levi.dim and not is_semisimple(induced_algebra(levi).algebra):
        raise InternalInconsistency("Levi part is not semisimple")


def _complement_rows(g: LieAlgebra, rad: Subspace) -> Mat:
    """Rows of a semisimple complement of ``rad`` (assumed = radical(g))."""
    derived = bracket_span(rad, rad)
    if derived.dim == 0:
        return _complement_abelian(g, rad)
    # split modulo [r, r], where the image radical is abelian...
    q = quotient_algebra(g, Ideal(g, derived.matrix))
    rad_image = q.push_subspace(rad)
    upper_rows = _complement_rows(q.target, rad_image)
    # ...then recurse inside the preimage, whose radical is [r, r]
    preimage_rows = tuple(q.lift_vector(r) for r in upper_rows) + derived.matrix
    frame = induced_algebra(Subalgebra(g, preimage_rows))
    derived_inside = frame.from_ambient(derived)
    inner_rows = _complement_rows(frame.algebra, derived_inside)
    return tuple(frame.to_ambient_vector(r) for r in inner_rows)


def _complement_abelian(g: LieAlgebra, rad: Subspace) -> Mat:
    """Complement for an abelian radical via one linear correction solve.

    Start from the coordinate section s0 of g/rad and correct it by a map
    tau: g/rad -> rad chosen so that s0 + tau is a homomorphism.  The
    unknowns are the coefficients of tau over the radical's basis rows; the
    equations state that the corrected bracket defect vanishes.
    """
    q = quotient_algebra(g, Ideal(g, rad.matrix))
    sdim, adim = q.target.dim, rad.dim
    sigma0 = [q.lift_vector(linalg.unit_vec(sdim, t)) for t in range(sdim)]
    nvars = sdim * adim
    if nvars == 0:
        return tuple(sigma0)

    def var(t: int, u: int) -> int:
        return t * adim + u

    rows: list[list] = []
    rhs: list = []
    for t1 in range(sdim):
        for t2 in range(t1 + 1, sdim):
            defect = linalg.vec_sub(
                g.bracket(sigma0[t1], sigma0[t2]),
                q.lift_vector(q.target.bracket_basis(t1, t2)),
            )
            coeff_rows = [[linalg.ZERO] * nvars for _ in range(g.dim)]
            for u, a_u in enumerate(rad.matrix):
                act1 = g.bracket(sigma0[t1], a_u)
                act2 = g.bracket(sigma0[t2], a_u)
                for c in range(g.dim):
                    coeff_rows[c][var(t2, u)] += act1[c]
                    coeff_rows[c][var(t1, u)] -= act2[c]
            w = q.target.bracket_basis(t1, t2)
            for t, wt in enumerate(w):
                if wt == 0:
                    continue
                for u, a_u in enumerate(rad.matrix):
                    for c in range(g.dim):
                        coeff_rows[c][var(t, u)] -= wt * a_u[c]
            rows.extend(coeff_rows)
            rhs.extend(-d for d in defect)
    solution = linalg.solve(rows, rhs, width=nvars)
    if solution is None:
        raise LiftFailure("Levi correction system is inconsistent")
    out = []
    for t in range(sdim):
        v = sigma0[t]
        for u, a_u in enumerate(rad.matrix):
            v = linalg.vec_add(v, linalg.vec_scale(solution[var(t, u)], a_u))
        out.append(v)
    return tuple(out)
