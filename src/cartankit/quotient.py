"""Quotient algebras and the Cartan-subalgebra correspondence.

The quotient g/I is the subquotient ``Subquotient(g.whole(), I)``: its
basis is the unit rows at the columns that are not pivots of I's canonical
form, a vector pushes to its residual modulo I read off at those columns,
and coordinates lift back to those unit rows.  Pushing a Cartan subalgebra
forward lands on a Cartan subalgebra of the quotient, and every Cartan
subalgebra of the quotient lifts: take any Cartan subalgebra of the full
preimage.
"""

from __future__ import annotations

from . import linalg
from .algebra import Ideal, LieAlgebra, Subalgebra, Subquotient, Subspace
from .cartan import fitting_null_recursion, is_cartan_subalgebra
from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    NotCartan,
    PostconditionFailure,
)


def quotient_algebra(g: LieAlgebra, ideal: Ideal | Subspace) -> Subquotient:
    """Quotient by an ideal: push, lift and the induced constants, checked."""
    if not isinstance(ideal, Ideal):
        ideal = Ideal(g, ideal)  # raises NotIdeal when unstable
    q = Subquotient(g.whole(), ideal)
    _verify_quotient(q)
    return q


def _verify_quotient(q: Subquotient) -> None:
    g, t = q.upper.ambient, q.target
    for i, e in enumerate(linalg.identity(t.dim)):
        if q.push_vector(q.lift_vector(e)) != e:
            raise InternalInconsistency(f"push o lift is not the identity on target basis vector {i}")
    if t.dim + q.lower.dim != g.dim or any(any(q.push_vector(r)) for r in q.lower.matrix):
        raise InternalInconsistency("the kernel of the push is not the ideal")
    pushed = [q.push_vector(e) for e in linalg.identity(g.dim)]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            if q.push_vector(g.bracket_basis(i, j)) != t.bracket(pushed[i], pushed[j]):
                raise InternalInconsistency(
                    f"the push is not a homomorphism on basis pair ({i},{j})"
                )


def push_cartan(h: Subspace, q: Subquotient) -> Subalgebra:
    """Image of a Cartan subalgebra: a Cartan subalgebra of the quotient."""
    if h.ambient != q.upper.ambient:
        raise DimensionMismatch("subalgebra does not live in the quotient source")
    if not is_cartan_subalgebra(h):
        raise NotCartan("push_cartan requires a Cartan subalgebra of the source")
    image = q.push_subspace(h)
    out = Subalgebra(q.target, image)
    if not is_cartan_subalgebra(out):
        raise PostconditionFailure("pushed image fails the Cartan axioms in the quotient")
    return out


def lift_cartan(h_target: Subspace, q: Subquotient) -> Subalgebra:
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
    preimage = Subalgebra(q.upper.ambient, q.preimage_subspace(h_target))
    lifted = fitting_null_recursion(preimage).csa
    if q.push_subspace(lifted) != h_target:
        raise PostconditionFailure("lifted Cartan subalgebra does not project onto the input")
    if not is_cartan_subalgebra(lifted):
        raise PostconditionFailure("lifted subalgebra fails the Cartan axioms in the source")
    return lifted
