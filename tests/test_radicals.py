import itertools

import pytest

from cartankit import linalg
from cartankit.algebra import (
    LieAlgebra,
    Subspace,
    bracket_span,
    is_nilpotent,
    is_solvable,
    killing_form,
)
from cartankit import radicals
from cartankit.catalog import load_bundled
from cartankit.errors import InternalInconsistency
from cartankit.radicals import (
    bruteforce_max_nilpotent_ideal,
    bruteforce_max_solvable_ideal,
    enumerate_ideal_candidates,
    is_semisimple,
    nilradical,
    radical,
)


def test_radical_of_sl2_is_zero(sl2):
    assert radical(sl2).dim == 0


def test_radical_of_solvable_is_everything(aff1, e2, oscillator, catalog):
    for g in [aff1, e2, oscillator, catalog["r3_half"], catalog["abelian2"]]:
        assert radical(g).dim == g.dim


def test_radical_of_sl2xr2_by_bruteforce(sl2xr2):
    rad = radical(sl2xr2)
    plane = Subspace(sl2xr2, [linalg.unit_vec(5, 3), linalg.unit_vec(5, 4)])
    assert rad.matrix == plane.matrix
    assert rad.matrix == bruteforce_max_solvable_ideal(sl2xr2).matrix


def test_nilradical_of_aff1(aff1):
    nil = nilradical(aff1)
    assert nil.matrix == Subspace(aff1, [(0, 1)]).matrix
    assert nil.matrix == bruteforce_max_nilpotent_ideal(aff1).matrix


def test_nilradical_of_nilpotent_is_everything(h3, catalog):
    for g in [h3, catalog["heisenberg5"], catalog["abelian3"]]:
        assert nilradical(g).dim == g.dim


def test_nilradical_of_e2(e2):
    nil = nilradical(e2)
    assert nil.matrix == Subspace(e2, [(0, 1, 0), (0, 0, 1)]).matrix
    assert nil.matrix == bruteforce_max_nilpotent_ideal(e2).matrix


def test_nilradical_of_oscillator(oscillator):
    assert nilradical(oscillator).matrix == Subspace(
        oscillator, [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    ).matrix


def test_radical_of_gl3_is_the_scalars(ladder_algebra):
    # the ladder lists the off-diagonal units first, then E00, E11, E22
    g = ladder_algebra("gl3")
    assert radical(g).matrix == Subspace(g, [(0,) * 6 + (1, 1, 1)]).matrix


def test_nilradical_of_b3_is_n3_plus_scalars(ladder_algebra):
    # E01, E02, E12 span n3; then E00, E11, E22
    g = ladder_algebra("b3")
    expected = [linalg.unit_vec(6, i) for i in range(3)] + [(0, 0, 0, 1, 1, 1)]
    assert nilradical(g).matrix == Subspace(g, expected).matrix


def test_nilradical_wrong_layered_result_raises(monkeypatch):
    # a wrong layered result is a bug: no silent brute-force fallback, even
    # on an algebra small enough to enumerate
    g = load_bundled("e2")  # fresh instance: nothing memoized yet
    assert g.dim <= 6
    monkeypatch.setattr(radicals, "_nilradical_layered", lambda g, rad: g.zero_subspace())
    with pytest.raises(InternalInconsistency):
        nilradical(g)


def test_nilradical_needs_more_than_trace_forms():
    # x acts with eigenvalues +-i, 1, 1: the Killing form vanishes although
    # the algebra is not nilpotent, so any trace-form shortcut would lump x
    # into the nilradical
    g = LieAlgebra(
        5,
        {(0, 1): {2: 1}, (0, 2): {1: -1}, (0, 3): {3: 1}, (0, 4): {4: 1}},
        ["x", "y1", "y2", "z1", "z2"],
    )
    assert killing_form(g) == linalg.zero_mat(5, 5)
    assert not is_nilpotent(g.whole())
    nil = nilradical(g)
    assert nil.matrix == Subspace(g, [linalg.unit_vec(5, i) for i in range(1, 5)]).matrix
    assert nil.matrix == bruteforce_max_nilpotent_ideal(g).matrix


def test_radical_pair_invariants(catalog):
    for g in catalog.values():
        rad, nil = radical(g), nilradical(g)
        assert rad.contains_subspace(nil)
        assert is_solvable(rad)
        assert is_nilpotent(nil)
        whole = g.whole()
        assert nil.contains_subspace(bracket_span(whole, rad))
        assert nil.contains_subspace(bracket_span(rad, rad))


def test_nilradical_membership_characterization(catalog):
    for name in ["aff1", "e2", "oscillator", "r3_0", "gl2", "sl2xR2"]:
        g = catalog[name]
        rad, nil = radical(g), nilradical(g)
        assert rad.contains_subspace(nil)
        for row in nil.matrix:
            assert linalg.is_nilpotent_mat(g.ad(row))
        # radical basis rows outside the nilradical have non-nilpotent ad
        for row in rad.matrix:
            if not nil.contains(row):
                assert not linalg.is_nilpotent_mat(g.ad(row))


def test_is_semisimple(sl2, h3, catalog):
    assert is_semisimple(sl2)
    assert is_semisimple(catalog["sl2xsl2"])
    assert not is_semisimple(h3)
    assert not is_semisimple(catalog["abelian1"])
    assert not is_semisimple(catalog["gl2"])


def test_semisimple_iff_zero_radical(catalog):
    for g in catalog.values():
        assert is_semisimple(g) == (radical(g).dim == 0)


def test_bruteforce_agreement_small_fixtures(catalog):
    for name, g in catalog.items():
        if g.dim > 5:
            continue
        candidates = enumerate_ideal_candidates(g)
        assert radical(g).matrix == bruteforce_max_solvable_ideal(g, candidates).matrix
        assert nilradical(g).matrix == bruteforce_max_nilpotent_ideal(g, candidates).matrix


def pair_enumeration(g):
    """The enumeration before the principal-ideal rewrite: every ideal
    generated by one or two pool vectors, closed under pairwise joins."""
    pool = radicals.candidate_vector_pool(g)
    seen = {(): Subspace(g, ())}
    for size in (1, 2):
        for combo in itertools.combinations(pool, size):
            closed = radicals.ideal_closure(g, combo)
            seen.setdefault(closed.matrix, closed)
    while True:
        joins = {}
        for a, b in itertools.combinations(list(seen.values()), 2):
            joined = a.sum(b)
            if joined.matrix not in seen:
                joins.setdefault(joined.matrix, joined)
        if not joins:
            return sorted(seen)
        seen.update(joins)


def test_principal_join_closure_matches_pair_enumeration(catalog):
    for name, g in catalog.items():
        if g.dim > 5:
            continue
        assert [c.matrix for c in enumerate_ideal_candidates(g)] == pair_enumeration(g), name


def test_enumerated_candidates_are_ideals(sl2xr2):
    from cartankit.algebra import is_ideal

    for c in enumerate_ideal_candidates(sl2xr2):
        assert is_ideal(c)


def test_zero_dimensional_algebra():
    g = LieAlgebra(0, {})
    assert radical(g).dim == 0
    assert nilradical(g).dim == 0
    assert is_semisimple(g)
