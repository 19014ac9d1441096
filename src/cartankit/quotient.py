"""Quotient algebras and the Cartan-subalgebra correspondence.

The projection kills an ideal and keeps the non-pivot coordinates of its
canonical form as the quotient basis; the section sends those coordinates
straight back.  Pushing a Cartan subalgebra forward lands on a Cartan
subalgebra of the quotient, and every Cartan subalgebra of the quotient
lifts: take any Cartan subalgebra of the full preimage.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .algebra import Ideal, LieAlgebra, Subalgebra, Subspace
from .cartan import fitting_null_recursion, is_cartan_subalgebra
from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    NotCartan,
    PostconditionFailure,
)
from .linalg import Mat


@dataclass(frozen=True)
class QuotientMap:
    source: LieAlgebra
    ideal: Ideal
    target: LieAlgebra
    projection: Mat  # target.dim x source.dim
    section: Mat  # source.dim x target.dim, projection o section = id

    def push_vector(self, v) -> linalg.Vec:
        return linalg.apply_mat(self.projection, v)

    def push_subspace(self, sub: Subspace) -> Subspace:
        rows = [self.push_vector(r) for r in sub.matrix]
        return Subspace(self.target, rows)

    def lift_vector(self, v) -> linalg.Vec:
        return linalg.apply_mat(self.section, v)

    def preimage_subspace(self, sub: Subspace) -> Subspace:
        rows = [self.lift_vector(r) for r in sub.matrix]
        return Subspace(self.source, list(rows) + list(self.ideal.matrix))


def quotient_algebra(g: LieAlgebra, ideal: Ideal | Subspace) -> QuotientMap:
    """Quotient by an ideal, with projection, section, and induced constants."""
    if not isinstance(ideal, Ideal):
        ideal = Ideal(g, ideal.matrix)  # raises NotIdeal when unstable
    pivots = set(linalg.pivot_columns(ideal.matrix))
    complement = [c for c in range(g.dim) if c not in pivots]
    tdim = len(complement)

    # pi(x) = residual of x modulo the ideal, read off at non-pivot columns
    residual_cols = [ideal.residual(linalg.unit_vec(g.dim, i)) for i in range(g.dim)]
    projection = tuple(
        tuple(residual_cols[i][c] for i in range(g.dim)) for c in complement
    )
    section = tuple(
        tuple(linalg.ONE if (t < tdim and i == complement[t]) else linalg.ZERO for t in range(tdim))
        for i in range(g.dim)
    )

    constants: dict[tuple[int, int], dict[int, object]] = {}
    for a in range(tdim):
        for b in range(a + 1, tdim):
            w = g.bracket(linalg.unit_vec(g.dim, complement[a]), linalg.unit_vec(g.dim, complement[b]))
            img = linalg.apply_mat(projection, w)
            entry = {k: c for k, c in enumerate(img) if c != 0}
            if entry:
                constants[(a, b)] = entry
    labels = [g.basis_labels[c] for c in complement]
    target = LieAlgebra(tdim, constants, labels)

    q = QuotientMap(source=g, ideal=ideal, target=target, projection=projection, section=section)
    _verify_quotient(q)
    return q


def _verify_quotient(q: QuotientMap) -> None:
    g, t = q.source, q.target
    composed = linalg.mat_mul(q.projection, q.section)
    if composed != linalg.identity(t.dim):
        raise InternalInconsistency("projection o section is not the identity")
    if linalg.rref(linalg.kernel(q.projection, width=g.dim)) != q.ideal.matrix:
        raise InternalInconsistency("kernel of the projection is not the ideal")
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = q.push_vector(g.bracket_basis(i, j))
            rhs = t.bracket(q.push_vector(linalg.unit_vec(g.dim, i)), q.push_vector(linalg.unit_vec(g.dim, j)))
            if lhs != rhs:
                raise InternalInconsistency(
                    f"projection is not a homomorphism on basis pair ({i},{j})"
                )


def push_cartan(h: Subspace, q: QuotientMap) -> Subalgebra:
    """Image of a Cartan subalgebra: a Cartan subalgebra of the quotient."""
    if h.ambient != q.source:
        raise DimensionMismatch("subalgebra does not live in the quotient source")
    if not is_cartan_subalgebra(h):
        raise NotCartan("push_cartan requires a Cartan subalgebra of the source")
    image = q.push_subspace(h)
    out = Subalgebra(q.target, image.matrix)
    if not is_cartan_subalgebra(out):
        raise PostconditionFailure("pushed image fails the Cartan axioms in the quotient")
    return out


def lift_cartan(h_target: Subspace, q: QuotientMap) -> Subalgebra:
    """A Cartan subalgebra of the source projecting exactly onto ``h_target``.

    Mirrors the existence proof: take the full preimage of the target
    Cartan subalgebra and return a Cartan subalgebra of that preimage,
    found by the Fitting-null recursion run on the preimage where it sits
    in the source (the preimage need not be solvable, so the normalizer
    chain is not available here).
    """
    if h_target.ambient != q.target:
        raise DimensionMismatch("subalgebra does not live in the quotient target")
    if not is_cartan_subalgebra(h_target):
        raise NotCartan("lift_cartan requires a Cartan subalgebra of the quotient")
    preimage = Subalgebra(q.source, q.preimage_subspace(h_target).matrix)
    lifted = fitting_null_recursion(preimage).csa
    if q.push_subspace(lifted).matrix != linalg.rref(h_target.matrix):
        raise PostconditionFailure("lifted Cartan subalgebra does not project onto the input")
    if not is_cartan_subalgebra(lifted):
        raise PostconditionFailure("lifted subalgebra fails the Cartan axioms in the source")
    return lifted
