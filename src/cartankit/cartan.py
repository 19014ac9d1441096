"""Cartan subalgebras: the defining check and three constructions.

A Cartan subalgebra is a nilpotent subalgebra equal to its own normalizer.
Self-normalizing already forces maximal nilpotency: inside any larger
nilpotent subalgebra a proper member strictly grows under the normalizer,
so the two-condition check is the right finite-dimensional criterion.

Three routes are provided: the regular-element oracle (Fitting null
component of an adjoint with minimal generalized nullity), the normalizer
chain for solvable algebras (iterate L -> N(L) to the fixed point), and the
composite construction (Cartan subalgebra of a Levi part, joined with one
of its centralizer's inside the radical).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from . import linalg
from .algebra import (
    LieAlgebra,
    Subalgebra,
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
    SearchExhausted,
)
from .levi import LeviDecomposition, induced_algebra, levi_decomposition
from .linalg import Vec
from .radicals import nilradical

SEARCH_BUDGET_FACTOR = 10


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
    sub = h if isinstance(h, Subalgebra) else Subalgebra(h.ambient, h.matrix)
    if not is_nilpotent(sub):
        return False
    return normalizer(sub).matrix == sub.matrix


def fitting_null(g: LieAlgebra, x) -> Subspace:
    """Generalized 0-eigenspace of ad(x): ker(ad x)^dim."""
    power = linalg.mat_pow(g.ad(x), g.dim)
    return Subspace(g, linalg.kernel(power, width=g.dim))


def regular_element_candidates(dim: int):
    """Basis vectors, then {-1,0,1} combinations in graded lex order.

    Sign patterns fix the first nonzero entry to +1 since x and -x have the
    same Fitting null component.
    """
    for i in range(dim):
        yield linalg.unit_vec(dim, i)
    for weight in range(2, dim + 1):
        for support in itertools.combinations(range(dim), weight):
            for signs in itertools.product((1, -1), repeat=weight - 1):
                v = [0] * dim
                v[support[0]] = 1
                for pos, s in zip(support[1:], signs):
                    v[pos] = s
                yield linalg.vec(v)


@per_algebra
def regular_element_csa(g: LieAlgebra) -> CartanResult:
    """Fitting null component of a minimal-nullity element in the search order.

    Returns the first candidate attaining the minimal generalized nullity.
    A strict-improvement candidate whose Fitting null passes the Cartan
    axioms has nullity equal to the rank, so nothing later in the sequence
    can beat it and nothing earlier could have tied it (a tie would have
    been regular and returned already); stopping there is exact.
    """
    if g.dim == 0:
        whole = g.whole()
        return CartanResult(csa=whole, method=CsaMethod.REGULAR_ELEMENT, trace=(whole,))
    budget = SEARCH_BUDGET_FACTOR * g.dim * g.dim
    scanned = 0
    best: int | None = None
    trace: list[Subspace] = []
    for x in itertools.islice(regular_element_candidates(g.dim), budget):
        scanned += 1
        nullity = g.dim - linalg.rank(linalg.mat_pow(g.ad(x), g.dim))
        if best is not None and nullity >= best:
            continue
        best = nullity
        component = fitting_null(g, x)
        trace.append(component)
        sub = Subalgebra(g, component.matrix)
        if is_cartan_subalgebra(sub):
            return CartanResult(csa=sub, method=CsaMethod.REGULAR_ELEMENT, trace=tuple(trace))
    raise SearchExhausted(
        f"no candidate among {scanned} produced a Cartan subalgebra; "
        "the search budget is too small for this algebra"
    )


def rank(g: LieAlgebra) -> int:
    """Minimal generalized nullity of an adjoint; the common CSA dimension."""
    return regular_element_csa(g).csa.dim


def normalizer_chain_csa(g: LieAlgebra, start: Subspace | None = None) -> CartanResult:
    """Iterate L -> N(L) from a nilpotent L with L + nilradical = g.

    Each iterate strictly grows until the chain hits a self-normalizing
    member, and every iterate must stay nilpotent; the fixed point is then
    a Cartan subalgebra.  Without an explicit start the Fitting null
    component of a regular element is used, which already satisfies the
    hypotheses and keeps the chain short.
    """
    whole = g.whole()
    if not is_solvable(whole):
        raise NotSolvable("the normalizer chain requires a solvable algebra")
    nil = nilradical(g)
    if start is None:
        start = regular_element_csa(g).csa
    current = start if isinstance(start, Subalgebra) else Subalgebra(g, start.matrix)
    if not is_nilpotent(current):
        raise HypothesisViolated("starting subalgebra is not nilpotent")
    if current.sum(nil).dim != g.dim:
        raise HypothesisViolated("starting subalgebra does not complement the nilradical")
    trace = [Subspace(g, current.matrix)]
    while True:
        bigger = normalizer(current)
        if bigger.matrix == current.matrix:
            break
        if not bigger.contains_subspace(current):
            raise InternalInconsistency("normalizer chain failed to grow monotonically")
        try:
            current = Subalgebra(g, bigger.matrix)
        except NotClosed as exc:
            raise InternalInconsistency(f"normalizer iterate is not a subalgebra: {exc}") from exc
        if not is_nilpotent(current):
            raise NonNilpotentIterate(
                f"normalizer chain iterate of dim {current.dim} is not nilpotent"
            )
        trace.append(Subspace(g, current.matrix))
    if not is_cartan_subalgebra(current):
        raise InternalInconsistency("normalizer chain limit fails the Cartan axioms")
    return CartanResult(csa=current, method=CsaMethod.NORMALIZER_CHAIN, trace=tuple(trace))


def centralizer_in_radical(h_levi: Subspace, decomp: LeviDecomposition) -> Subalgebra:
    """Centralizer of a Levi-part subalgebra, intersected with the radical."""
    if not decomp.levi.contains_subspace(h_levi):
        raise HypothesisViolated("subalgebra is not contained in the Levi part")
    section = centralizer(h_levi).intersect(decomp.radical)
    return Subalgebra(section.ambient, section.matrix)


@per_algebra
def composite_csa(g: LieAlgebra) -> CartanResult:
    """Cartan subalgebra of the Levi part, extended through its centralizer.

    With H_S a Cartan subalgebra of the Levi part and Z the centralizer of
    H_S inside the radical, H_S + H_Z is a Cartan subalgebra of g for any
    Cartan subalgebra H_Z of Z.  The inner Cartan subalgebras come from the
    regular-element oracle; the normalizer chain is exposed separately as
    the solvable-side route and cross-checked in the test suite.

    The trace holds the parts in the order (H_S, Z_R(H_S), H_Z, H), all in
    ambient coordinates, with H = H_S + H_Z the returned Cartan subalgebra.
    """
    decomp = levi_decomposition(g)
    if decomp.levi.dim:
        levi_frame = induced_algebra(decomp.levi)
        h_levi = Subalgebra(
            g, levi_frame.to_ambient(regular_element_csa(levi_frame.algebra).csa).matrix
        )
    else:
        h_levi = g.zero_subalgebra()
    section = centralizer_in_radical(h_levi, decomp)
    if section.dim:
        section_frame = induced_algebra(section)
        h_section = Subalgebra(
            g, section_frame.to_ambient(regular_element_csa(section_frame.algebra).csa).matrix
        )
    else:
        h_section = g.zero_subalgebra()
    if h_levi.intersect(h_section).dim != 0:
        raise InternalInconsistency("composite parts are not complementary")
    joined = Subalgebra(g, h_levi.sum(h_section).matrix)
    if not is_cartan_subalgebra(joined):
        raise InternalInconsistency("composite construction fails the Cartan axioms")
    trace = (
        Subspace(g, h_levi.matrix),
        Subspace(g, section.matrix),
        Subspace(g, h_section.matrix),
        Subspace(g, joined.matrix),
    )
    return CartanResult(csa=joined, method=CsaMethod.COMPOSITE, trace=trace)
