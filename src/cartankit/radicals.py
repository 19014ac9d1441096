"""Radical, nilradical, and the semisimplicity test.

The radical comes from Cartan's solvability criterion: in characteristic
zero it is the Killing-orthogonal complement of the derived algebra.  The
nilradical is the set of radical elements with nilpotent adjoint action;
that set is carved out exactly, layer by layer, as described below.  Both
results are verified before they are returned; a result that fails its
verification raises InternalInconsistency, since it signals a bug.  Both
are memoized per algebra instance.  Brute-force ideal enumeration stays
available as the independent oracle for the verification harness and the
tests; no production path falls back to it.
"""

from __future__ import annotations

from . import linalg
from .algebra import (
    Ideal,
    LieAlgebra,
    Subquotient,
    Subspace,
    bracket_span,
    is_ideal,
    is_nilpotent,
    is_solvable,
    killing_form,
    per_algebra,
)
from .errors import InternalInconsistency, NotIdeal
from .linalg import EchelonForm, Vec


@per_algebra
def radical(g: LieAlgebra) -> Ideal:
    """Largest solvable ideal: {x : k(x, [g,g]) = 0} in characteristic 0."""
    derived = bracket_span(g.whole(), g.whole())
    # k(e_i, d) for each integer row d of [g, g]: the form is symmetric, so
    # the condition is sum_j d_j k(e_j, -), over one integer scaling of k
    form, _ = linalg.integer_rows(killing_form(g))
    conditions = [[0] * g.dim for _ in derived._echelon]
    for row, (_, pairs, _) in zip(conditions, derived._echelon):
        for j, x in pairs:
            for i, k in form[j]:
                row[i] += x * k
    try:
        out = Ideal(g, linalg.kernel(conditions, width=g.dim))
    except NotIdeal as exc:
        raise InternalInconsistency(f"computed radical is not an ideal: {exc}") from exc
    if not is_solvable(out):
        raise InternalInconsistency("computed radical is not solvable")
    return out


def is_semisimple(g: LieAlgebra) -> bool:
    """Cartan's criterion: the Killing form is nondegenerate."""
    form = killing_form(g)
    return linalg.rank(form) == g.dim


def _nilradical_layered(g: LieAlgebra, rad: Ideal) -> Subspace:
    """{x in rad : ad(x) nilpotent} as an exact kernel intersection.

    Let J = [g, rad].  Along the flag g >= rad >= J >= J_2 >= ... built from
    the lower central series of J, ad(x) for x in rad strictly drops the
    first two levels and preserves the rest, so ad(x) is nilpotent iff its
    induced action on every layer J_i/J_{i+1} is nilpotent.  That action is
    ``Subquotient(J_i, J_{i+1}).operator(x)``; a layer that ad(x) does not
    preserve raises InternalInconsistency.  Elements of J act trivially on
    those layers, hence the induced operators of the rad basis commute
    there, their Jordan-Chevalley semisimple parts add, and the nilpotency
    condition per layer is the linear system sum_t c_t S_t = 0.  A change
    of layer basis conjugates every S_t by one matrix, so the solutions do
    not depend on the basis.
    """
    j = bracket_span(g.whole(), rad)
    series = [j]
    while series[-1].dim:
        nxt = bracket_span(j, series[-1])
        if nxt == series[-1]:
            raise InternalInconsistency("[g, rad] is not nilpotent")  # impossible in char 0
        series.append(nxt)

    conditions: list[Vec] = []
    for upper, lower in zip(series, series[1:]):
        layer = Subquotient(upper, lower)
        semisimple_parts = [linalg.semisimple_part(layer.operator(x)) for x in rad.matrix]
        # one scalar condition per matrix entry of sum_t c_t S_t
        for a in range(layer.dim):
            for b in range(layer.dim):
                conditions.append(tuple(s[a][b] for s in semisimple_parts))
    coeffs = linalg.kernel(conditions, width=rad.dim)
    return Subspace(g, linalg.mat_mul(coeffs, rad.matrix))


def _verify_nilradical(g: LieAlgebra, rad: Ideal, candidate: Subspace) -> bool:
    if not rad.contains_subspace(candidate):
        return False
    if not is_ideal(candidate):
        return False
    if not is_nilpotent(candidate):
        return False
    if not candidate.contains_subspace(bracket_span(g.whole(), rad)):
        return False
    # membership characterization on the basis: ad(x)^dim = 0 exactly
    for row in candidate.matrix:
        if not linalg.is_nilpotent_mat(g.ad(row)):
            return False
    return True


@per_algebra
def nilradical(g: LieAlgebra) -> Ideal:
    """Largest nilpotent ideal: radical elements with nilpotent ad."""
    rad = radical(g)
    if rad.dim == 0:
        return Ideal(g, ())
    candidate = _nilradical_layered(g, rad)
    if not _verify_nilradical(g, rad, candidate):
        raise InternalInconsistency("layered nilradical failed verification")
    return Ideal(g, candidate)


# ---------------------------------------------------------------------------
# Brute-force ideal enumeration: the independent oracle for desk-scale tests
# and the verification harness.
# ---------------------------------------------------------------------------


def candidate_vector_pool(g: LieAlgebra) -> list[Vec]:
    """Basis vectors plus pairwise sums and differences, in a fixed order."""
    pool = [linalg.unit_vec(g.dim, i) for i in range(g.dim)]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            pool.append(linalg.vec_add(pool[i], pool[j]))
            pool.append(linalg.vec_sub(pool[i], pool[j]))
    return pool


def ideal_closure(g: LieAlgebra, rows) -> Subspace:
    """Smallest ideal containing the rows: iterate span + [g, span]."""
    current = Subspace(g, rows)
    while True:
        bigger = current.sum(bracket_span(g.whole(), current))
        if bigger == current:
            return current
        current = bigger


def enumerate_ideal_candidates(g: LieAlgebra) -> list[Subspace]:
    """The zero ideal and every join of the principal ideals of the pool.

    The ideal generated by {a, b} is the ideal generated by a plus the ideal
    generated by b, so ideals generated by several pool vectors add nothing
    beyond joins of principal ideals.  Every member of the join closure is a
    join of principal ideals, so the collection is closed under joins once
    it is closed under joins with the principal ideals; a frontier loop of
    new members times principal ideals reaches that.

    A join a + b reduces b's integer rows against a's echelon form; when
    every residual is zero, b lies in a and the join is a itself, already
    seen, so none is formed.  Otherwise a's rows and the nonzero residuals
    span a + b.  Only ``verify`` and the tests call it.
    """
    principal: dict[EchelonForm, Subspace] = {}
    for v in candidate_vector_pool(g):
        closed = ideal_closure(g, [v])
        principal.setdefault(closed._echelon, closed)
    seen: dict[EchelonForm, Subspace] = {(): Subspace(g, ())}
    seen.update(principal)
    principal_rows = [b._rows_ints() for b in principal.values()]
    frontier = list(principal.values())
    while frontier:
        joins: dict[EchelonForm, Subspace] = {}
        for a in frontier:
            a_rows = a._rows_ints()
            for b_rows in principal_rows:
                residuals = [r for r in (linalg.reduce_ints(u, 1, a._echelon)[0] for u in b_rows) if any(r)]
                if not residuals:
                    continue
                joined = Subspace._from_ints(g, a_rows + residuals)
                if joined._echelon not in seen:
                    joins.setdefault(joined._echelon, joined)
        seen.update(joins)
        frontier = list(joins.values())
    return sorted(seen.values(), key=lambda s: s.matrix)


def _unique_max(candidates: list[Subspace], kind: str) -> Subspace:
    best = max(candidates, key=lambda s: s.dim)
    for c in candidates:
        if not best.contains_subspace(c):
            raise InternalInconsistency(f"brute-force {kind} ideals have no unique maximum")
    return best


def bruteforce_max_solvable_ideal(g: LieAlgebra, candidates=None) -> Subspace:
    """Unique maximal solvable member of the enumerated ideal lattice."""
    if candidates is None:
        candidates = enumerate_ideal_candidates(g)
    return _unique_max([c for c in candidates if is_solvable(c)], "solvable")


def bruteforce_max_nilpotent_ideal(g: LieAlgebra, candidates=None) -> Subspace:
    """Unique maximal nilpotent member of the enumerated ideal lattice."""
    if candidates is None:
        candidates = enumerate_ideal_candidates(g)
    return _unique_max([c for c in candidates if is_nilpotent(c)], "nilpotent")
