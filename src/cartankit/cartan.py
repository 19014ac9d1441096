"""Cartan subalgebras: the defining check and three constructions.

A Cartan subalgebra is a nilpotent subalgebra equal to its own normalizer.
Self-normalizing already forces maximal nilpotency: inside any larger
nilpotent subalgebra a proper member strictly grows under the normalizer,
so the two-condition check is the right finite-dimensional criterion.

Three routes are provided: the Fitting-null recursion (shrink a subalgebra
K to the Fitting null component of a non-nilpotent adjoint until it is
nilpotent; it runs on any subalgebra and always terminates), the
normalizer chain for solvable algebras (iterate L -> N(L) to the fixed
point), and the composite construction (Cartan subalgebra of a Levi part,
joined with one of its centralizer's inside the radical).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from . import linalg
from .algebra import (
    LieAlgebra,
    Subalgebra,
    Subquotient,
    Subspace,
    centralizer,
    is_nilpotent,
    is_solvable,
    normalizer,
    per_algebra,
)
from .errors import (
    HypothesisViolated,
    InternalInconsistency,
    NonNilpotentIterate,
    NotClosed,
    NotSolvable,
)
from .levi import LeviDecomposition, levi_decomposition
from .radicals import nilradical


class CsaMethod(enum.Enum):
    REGULAR_ELEMENT = "regular_element"
    NORMALIZER_CHAIN = "normalizer_chain"
    COMPOSITE = "composite"


@dataclass(frozen=True)
class CartanResult:
    csa: Subalgebra
    method: CsaMethod
    trace: tuple[Subspace, ...]


def is_cartan_subalgebra(h: Subspace) -> bool:
    """Nilpotent and self-normalizing."""
    sub = h if isinstance(h, Subalgebra) else Subalgebra(h.ambient, h)
    if not is_nilpotent(sub):
        return False
    return normalizer(sub) == sub


def fitting_null(k: Subspace, x) -> Subspace:
    """Fitting null component of ad(x) on a subalgebra K: ker(ad_K x)^dim K.

    ``x`` must lie in K.  The matrix of ad_K x is the operator of x on the
    subquotient K/0, whose coordinates are entries at K's pivot columns, so
    the matrix that is raised to a power has size dim K.  With
    ``K = g.whole()`` it is ad(x) itself.  The kernel rows are coordinates
    over K's basis and lift by one product with it.
    """
    if not k.contains(x):
        raise HypothesisViolated("the element does not lie in the subalgebra")
    return _fitting_null(Subquotient(k, k.ambient.zero_subspace()), x)


def _fitting_null(frame: Subquotient, x) -> Subspace:
    """``fitting_null`` on the frame K/0 of K, for an x known to lie in K."""
    null = linalg.kernel(linalg.mat_pow(frame.operator(x), frame.dim), width=frame.dim)
    return Subspace(frame.upper.ambient, linalg.mat_mul(null, frame.basis.matrix))


def fitting_null_recursion(k: Subalgebra) -> CartanResult:
    """A Cartan subalgebra of the subalgebra K, in ambient coordinates.

    While K is not nilpotent, take the first canonical row of K whose
    adjoint action on K is not nilpotent, or failing that the first sum of
    two rows, and replace K by its Fitting null component K_0(ad_K x).
    That is a proper subalgebra, and a Cartan subalgebra of it is one of K
    (de Graaf, *Lie Algebras: Theory and Algorithms*, 2000, ch. 3; de
    Graaf, Ivanyos and Ronyai, "Computing Cartan subalgebras of Lie
    algebras", AAECC 7, 1996).  Each step lowers dim K, so the loop ends
    after at most dim K steps and needs no search budget.

    The candidates always suffice.  If every row and every pairwise sum
    acted nilpotently, each would be isotropic for the Killing form of K,
    so by polarization k(a, b) = (k(a+b, a+b) - k(a, a) - k(b, b)) / 2 the
    form would vanish on the basis, and K would be solvable by Cartan's
    criterion.  By Lie's theorem the ad-nilpotent elements of a solvable K
    form a subspace; it contains the basis, so it is all of K, and K is
    nilpotent by Engel's theorem.

    The trace is the chain K = K_0 > K_1 > ... > K_r, whose last member is
    the returned Cartan subalgebra.  Callers check the result in their own
    ambient algebra.
    """
    chain: list[Subspace] = [k]
    while not is_nilpotent(chain[-1]):
        current = chain[-1]
        frame = Subquotient(current, current.ambient.zero_subspace())
        rows = current.matrix
        sums = (linalg.vec_add(a, b) for a, b in itertools.combinations(rows, 2))
        for x in itertools.chain(rows, sums):
            component = _fitting_null(frame, x)
            if component.dim < current.dim:
                chain.append(component)
                break
        else:
            raise InternalInconsistency(
                f"no row or pairwise sum acts non-nilpotently on a non-nilpotent subalgebra of dim {current.dim}"
            )
    csa = Subalgebra(k.ambient, chain[-1])
    return CartanResult(csa=csa, method=CsaMethod.REGULAR_ELEMENT, trace=tuple(chain))


@per_algebra
def regular_element_csa(g: LieAlgebra) -> CartanResult:
    """The Fitting-null recursion on the whole algebra, checked in g."""
    result = fitting_null_recursion(g.whole())
    if not is_cartan_subalgebra(result.csa):
        raise InternalInconsistency("Fitting-null recursion result fails the Cartan axioms")
    return result


def rank(g: LieAlgebra) -> int:
    """The dimension shared by all Cartan subalgebras of g.

    It equals the minimal generalized nullity of an adjoint; it is read off
    the Cartan subalgebra that the Fitting-null recursion returns.
    """
    return regular_element_csa(g).csa.dim


def normalizer_chain_csa(g: LieAlgebra, start: Subspace | None = None) -> CartanResult:
    """Iterate L -> N(L) from a nilpotent L with L + nilradical = g.

    Each iterate strictly grows until the chain hits a self-normalizing
    member, and every iterate must stay nilpotent; the fixed point is then
    a Cartan subalgebra.  Without an explicit start the Cartan subalgebra
    from the Fitting-null recursion is used: it satisfies the hypotheses
    (for solvable g, H + [g, g] = g and [g, g] lies in the nilradical), and
    being self-normalizing it ends the chain at once.
    """
    whole = g.whole()
    if not is_solvable(whole):
        raise NotSolvable("the normalizer chain requires a solvable algebra")
    nil = nilradical(g)
    if start is None:
        start = regular_element_csa(g).csa
    current = start if isinstance(start, Subalgebra) else Subalgebra(g, start)
    if not is_nilpotent(current):
        raise HypothesisViolated("starting subalgebra is not nilpotent")
    if current.sum(nil).dim != g.dim:
        raise HypothesisViolated("starting subalgebra does not complement the nilradical")
    trace = [current]
    while True:
        bigger = normalizer(current)
        if bigger == current:
            break
        if not bigger.contains_subspace(current):
            raise InternalInconsistency("normalizer chain failed to grow monotonically")
        try:
            current = Subalgebra(g, bigger)
        except NotClosed as exc:
            raise InternalInconsistency(f"normalizer iterate is not a subalgebra: {exc}") from exc
        if not is_nilpotent(current):
            raise NonNilpotentIterate(
                f"normalizer chain iterate of dim {current.dim} is not nilpotent"
            )
        trace.append(current)
    if not is_cartan_subalgebra(current):
        raise InternalInconsistency("normalizer chain limit fails the Cartan axioms")
    return CartanResult(csa=current, method=CsaMethod.NORMALIZER_CHAIN, trace=tuple(trace))


def centralizer_in_radical(h_levi: Subspace, decomp: LeviDecomposition) -> Subalgebra:
    """Centralizer of a Levi-part subalgebra, intersected with the radical."""
    if not decomp.levi.contains_subspace(h_levi):
        raise HypothesisViolated("subalgebra is not contained in the Levi part")
    section = centralizer(h_levi).intersect(decomp.radical)
    return Subalgebra(section.ambient, section)


@per_algebra
def composite_csa(g: LieAlgebra) -> CartanResult:
    """Cartan subalgebra of the Levi part, extended through its centralizer.

    With H_S a Cartan subalgebra of the Levi part and Z the centralizer of
    H_S inside the radical, H_S + H_Z is a Cartan subalgebra of g for any
    Cartan subalgebra H_Z of Z.  Both inner Cartan subalgebras come from the
    Fitting-null recursion, run on the Levi part and on Z where they sit in
    g; only the joined result is checked against the Cartan axioms in g.
    The normalizer chain is exposed separately as the solvable-side route
    and cross-checked in the test suite.

    The trace holds the parts in the order (H_S, Z_R(H_S), H_Z, H), all in
    ambient coordinates, with H = H_S + H_Z the returned Cartan subalgebra.
    """
    decomp = levi_decomposition(g)
    h_levi = fitting_null_recursion(decomp.levi).csa
    section = centralizer_in_radical(h_levi, decomp)
    h_section = fitting_null_recursion(section).csa
    if h_levi.intersect(h_section).dim != 0:
        raise InternalInconsistency("composite parts are not complementary")
    joined = Subalgebra(g, h_levi.sum(h_section))
    if not is_cartan_subalgebra(joined):
        raise InternalInconsistency("composite construction fails the Cartan axioms")
    return CartanResult(csa=joined, method=CsaMethod.COMPOSITE, trace=(h_levi, section, h_section, joined))
