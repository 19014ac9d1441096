import itertools

import pytest

from cartankit import linalg
from cartankit.algebra import (
    LieAlgebra,
    Subalgebra,
    Subspace,
    centralizer,
    is_nilpotent,
    is_solvable,
    normalizer,
    subalgebra_closure,
)
from cartankit.cartan import (
    CsaMethod,
    centralizer_in_radical,
    composite_csa,
    fitting_null,
    fitting_null_recursion,
    is_cartan_subalgebra,
    normalizer_chain_csa,
    rank,
    regular_element_csa,
)
from cartankit.errors import HypothesisViolated, NotSolvable
from cartankit.levi import levi_decomposition
from cartankit.radicals import radical

H = (1, 0, 0)


# ---------------------------------------------------------------------------
# the defining check
# ---------------------------------------------------------------------------


def test_whole_nilpotent_algebra_is_cartan(h3):
    assert is_cartan_subalgebra(h3.whole())


def test_span_h_is_cartan_in_sl2(sl2):
    assert is_cartan_subalgebra(Subspace(sl2, [H]))


def test_span_e_is_not_cartan_in_sl2(sl2):
    # h normalizes span{e}, so the normalizer is strictly larger
    assert not is_cartan_subalgebra(Subspace(sl2, [(0, 1, 0)]))


def test_compact_style_cartan_of_sl2(sl2):
    # span{e - f} is a second, non-conjugate-over-Q Cartan subalgebra
    assert is_cartan_subalgebra(Subspace(sl2, [(0, 1, -1)]))


def test_borel_is_not_cartan(sl2):
    assert not is_cartan_subalgebra(Subspace(sl2, [H, (0, 1, 0)]))  # not nilpotent


def test_cartan_check_rejects_open_spans(sl2):
    from cartankit.errors import NotClosed

    with pytest.raises(NotClosed):
        is_cartan_subalgebra(Subspace(sl2, [(0, 1, 0), (0, 0, 1)]))


# ---------------------------------------------------------------------------
# regular-element construction
# ---------------------------------------------------------------------------


def test_fitting_null_of_h(sl2):
    component = fitting_null(sl2.whole(), H)
    assert component.matrix == Subspace(sl2, [H]).matrix
    # grid oracle: the component is exactly the kernel of ad(h)^3
    power = linalg.mat_pow(sl2.ad(H), 3)
    for v in itertools.product(range(-2, 3), repeat=3):
        inside = all(sum(x * y for x, y in zip(row, v)) == 0 for row in power)
        assert component.contains(v) == inside


def test_regular_csa_sl2(sl2):
    result = regular_element_csa(sl2)
    assert result.method is CsaMethod.REGULAR_ELEMENT
    assert result.csa.matrix == Subspace(sl2, [H]).matrix  # h is tried first
    assert result.trace and result.trace[-1].matrix == result.csa.matrix
    assert rank(sl2) == 1


def test_fitting_null_follows_the_subalgebra(gl2):
    # ad(h) on gl2 kills h and the centre z; on the sl2 part only h
    levi = Subalgebra(gl2, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
    assert fitting_null(gl2.whole(), H + (0,)).matrix == Subspace(gl2, [(1, 0, 0, 0), (0, 0, 0, 1)]).matrix
    assert fitting_null(levi, H + (0,)).matrix == Subspace(gl2, [(1, 0, 0, 0)]).matrix
    with pytest.raises(HypothesisViolated):
        fitting_null(levi, (0, 0, 0, 1))


def test_regular_csa_nilpotent_returns_whole(h3):
    assert regular_element_csa(h3).csa.dim == 3


def test_regular_csa_gl2(gl2):
    result = regular_element_csa(gl2)
    assert result.csa.matrix == Subspace(gl2, [(1, 0, 0, 0), (0, 0, 0, 1)]).matrix
    assert rank(gl2) == 2


def test_regular_csa_zero_dim():
    g = LieAlgebra(0, {})
    result = regular_element_csa(g)
    assert result.csa.dim == 0 and len(result.trace) == 1


def test_recursion_takes_a_pairwise_sum():
    # sl2 in the basis u0 = e, u1 = f, u2 = h + e - f: every basis vector is
    # ad-nilpotent, so the first non-nilpotent candidate is u0 + u1 = e + f
    g = LieAlgebra(
        3,
        {
            (0, 1): {0: -1, 1: 1, 2: 1},
            (0, 2): {0: -1, 1: -1, 2: -1},
            (1, 2): {0: 1, 1: 1, 2: -1},
        },
    )
    for i in range(3):
        assert linalg.is_nilpotent_mat(g.ad(linalg.unit_vec(3, i)))
    assert not is_nilpotent(g.whole())
    result = regular_element_csa(g)
    assert result.csa.matrix == Subspace(g, [(1, 1, 0)]).matrix
    assert [s.dim for s in result.trace] == [3, 1]


def test_rank_catalog_values(catalog):
    expected = {
        "abelian1": 1, "abelian2": 2, "abelian3": 3,
        "heisenberg": 3, "heisenberg5": 5,
        "aff1": 1, "e2": 1, "oscillator": 2,
        "sl2": 1, "gl2": 2, "sl2xsl2": 2,
        "sl2xR2": 1, "sl2xR2xR": 2, "sl2xheis": 2,
        "r3_0": 2, "r3_half": 1, "r3_1": 1, "r3_m1": 1,
    }
    for name, g in catalog.items():
        assert rank(g) == expected[name], name


LADDER_RANKS = {"gl3": 3, "sl3": 2, "b3": 3, "b4": 4}


@pytest.mark.parametrize("spec", sorted(LADDER_RANKS))
def test_rank_ladder_closed_form(ladder_algebra, spec):
    # rank(gl_n) = n, rank(sl_n) = n - 1, rank(b_n) = n
    assert rank(ladder_algebra(spec)) == LADDER_RANKS[spec]


@pytest.mark.parametrize("spec", sorted(LADDER_RANKS))
def test_composite_and_chain_match_ladder_rank(ladder_algebra, spec):
    g = ladder_algebra(spec)
    assert composite_csa(g).csa.dim == LADDER_RANKS[spec]
    if is_solvable(g.whole()):
        assert normalizer_chain_csa(g).csa.dim == LADDER_RANKS[spec]


# ---------------------------------------------------------------------------
# normalizer chain
# ---------------------------------------------------------------------------


def test_chain_rejects_non_solvable(sl2):
    with pytest.raises(NotSolvable):
        normalizer_chain_csa(sl2, Subspace(sl2, [H]))


def test_chain_rejects_non_nilpotent_start(aff1):
    with pytest.raises(HypothesisViolated):
        normalizer_chain_csa(aff1, aff1.whole())  # aff1 is not nilpotent


def test_chain_rejects_start_missing_nilradical_complement(e2):
    with pytest.raises(HypothesisViolated):
        normalizer_chain_csa(e2, e2.zero_subspace())  # 0 + N is not everything


def test_chain_whole_nilpotent(h3):
    result = normalizer_chain_csa(h3, h3.whole())
    assert result.csa.dim == 3
    assert len(result.trace) == 1


def test_chain_aff1_stabilizes_immediately(aff1):
    result = normalizer_chain_csa(aff1, Subspace(aff1, [(1, 0)]))
    assert result.csa.matrix == Subspace(aff1, [(1, 0)]).matrix
    assert [s.dim for s in result.trace] == [1]


def test_chain_aff1_rotated_start(aff1):
    result = normalizer_chain_csa(aff1, Subspace(aff1, [(1, 1)]))
    assert result.csa.matrix == Subspace(aff1, [(1, 1)]).matrix


def test_chain_e2(e2):
    result = normalizer_chain_csa(e2, Subspace(e2, [(1, 0, 0)]))
    assert result.csa.matrix == Subspace(e2, [(1, 0, 0)]).matrix


def test_chain_h3_grows_strictly(h3):
    result = normalizer_chain_csa(h3, Subspace(h3, [(1, 0, 0)]))
    assert [s.dim for s in result.trace] == [1, 2, 3]
    assert result.trace[1].matrix == Subspace(h3, [(1, 0, 0), (0, 0, 1)]).matrix
    assert result.csa.dim == 3


def test_chain_oscillator(oscillator):
    result = normalizer_chain_csa(oscillator, Subspace(oscillator, [(1, 0, 0, 0)]))
    assert [s.dim for s in result.trace] == [1, 2]
    assert result.csa.matrix == Subspace(oscillator, [(1, 0, 0, 0), (0, 0, 0, 1)]).matrix


def test_chain_oscillator_tilted_start(oscillator):
    result = normalizer_chain_csa(oscillator, Subspace(oscillator, [(1, 1, 0, 0)]))
    assert result.csa.matrix == Subspace(oscillator, [(1, 1, 0, 0), (0, 0, 0, 1)]).matrix
    assert is_cartan_subalgebra(result.csa)


def test_chain_default_start(catalog):
    for name in ["aff1", "e2", "oscillator", "r3_0", "heisenberg", "abelian2"]:
        g = catalog[name]
        result = normalizer_chain_csa(g)
        assert is_cartan_subalgebra(result.csa)
        assert result.csa.dim == rank(g)


def test_chain_contains_start_and_monotone(catalog):
    g = catalog["r3_0"]
    start = Subspace(g, [(1, 1, 0)])
    result = normalizer_chain_csa(g, start)
    assert result.csa.contains_subspace(start)
    for earlier, later in zip(result.trace, result.trace[1:]):
        assert later.contains_subspace(earlier) and later.dim > earlier.dim
    assert result.csa.matrix == Subspace(g, [(1, 1, 0), (0, 0, 1)]).matrix


# ---------------------------------------------------------------------------
# composite construction
# ---------------------------------------------------------------------------


def test_composite_solvable_reduces_to_whole_radical(aff1):
    result = composite_csa(aff1)
    assert result.method is CsaMethod.COMPOSITE
    assert result.csa.matrix == Subspace(aff1, [(1, 0)]).matrix
    # trace records H_S, Z_R(H_S), H_Z, and the joined result
    assert [s.dim for s in result.trace] == [0, 2, 1, 1]


def test_composite_sl2xr2(sl2xr2):
    result = composite_csa(sl2xr2)
    assert result.csa.matrix == Subspace(sl2xr2, [(1, 0, 0, 0, 0)]).matrix
    # ad(h) is invertible on the plane, so the centralizer section vanishes
    assert result.trace[1].dim == 0


def test_composite_with_trivial_summand(catalog):
    g = catalog["sl2xR2xR"]
    result = composite_csa(g)
    assert result.csa.matrix == Subspace(
        g, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)]
    ).matrix


def test_composite_sl2xheis(sl2xheis):
    result = composite_csa(sl2xheis)
    assert result.csa.matrix == Subspace(
        sl2xheis, [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)]
    ).matrix


def test_composite_passes_cartan_check_everywhere(catalog):
    for g in catalog.values():
        result = composite_csa(g)
        assert is_cartan_subalgebra(result.csa)
        assert result.trace[-1].matrix == result.csa.matrix


def test_composite_dim_matches_rank(catalog):
    for g in catalog.values():
        assert composite_csa(g).csa.dim == rank(g)


# ---------------------------------------------------------------------------
# centralizer in the radical
# ---------------------------------------------------------------------------


def test_centralizer_in_radical_of_zero_is_radical(e2):
    decomp = levi_decomposition(e2)
    z = centralizer_in_radical(e2.zero_subalgebra(), decomp)
    assert z.matrix == decomp.radical.matrix


def test_centralizer_in_radical_sl2xr2(sl2xr2):
    decomp = levi_decomposition(sl2xr2)
    z = centralizer_in_radical(Subalgebra(sl2xr2, [(1, 0, 0, 0, 0)]), decomp)
    assert z.dim == 0


def test_centralizer_in_radical_sl2xheis(sl2xheis):
    decomp = levi_decomposition(sl2xheis)
    z = centralizer_in_radical(Subalgebra(sl2xheis, [(1, 0, 0, 0, 0, 0)]), decomp)
    assert z.matrix == Subspace(sl2xheis, [(0, 0, 0, 0, 0, 1)]).matrix
    # grid oracle on the heisenberg part: [h, v] = 0 forces the center
    for v in itertools.product(range(-1, 2), repeat=3):
        vec6 = (0, 0, 0) + v
        inside = linalg.is_zero_vec(sl2xheis.bracket((1, 0, 0, 0, 0, 0), vec6))
        assert z.contains(vec6) == inside


def test_centralizer_in_radical_requires_levi_containment(sl2xr2):
    decomp = levi_decomposition(sl2xr2)
    with pytest.raises(HypothesisViolated):
        centralizer_in_radical(Subalgebra(sl2xr2, [(0, 0, 0, 1, 0)]), decomp)


# ---------------------------------------------------------------------------
# structural properties across the catalog
# ---------------------------------------------------------------------------


def test_cartan_subalgebras_of_torus_centralizers(catalog):
    """For t in the radical with ad t semisimple and nonzero, span t is a
    torus of the radical, and a Cartan subalgebra of its centralizer is one
    of g: the Lie-algebra form of "Cartan subgroups are those of the
    centralizer of a maximal compact subgroup of the radical"."""
    covered = set()
    for name, g in sorted(catalog.items()):
        for t in radical(g).matrix:
            ad = g.ad(t)
            if linalg.is_zero_mat(ad) or linalg.semisimple_part(ad) != ad:
                continue
            h = fitting_null_recursion(Subalgebra(g, centralizer(Subspace(g, [t])))).csa
            assert is_cartan_subalgebra(h) and h.dim == rank(g), name
            covered.add(name)
    assert covered >= {"aff1", "e2", "oscillator", "r3_0", "r3_1", "r3_half", "r3_m1"}


def test_all_methods_agree_on_rank(catalog):
    for name, g in catalog.items():
        rank_dim = rank(g)
        assert composite_csa(g).csa.dim == rank_dim
        if is_solvable(g.whole()):
            assert normalizer_chain_csa(g).csa.dim == rank_dim


def test_semisimple_cartan_is_self_centralizing(catalog):
    for name in ["sl2", "sl2xsl2"]:
        csa = regular_element_csa(catalog[name]).csa
        assert centralizer(csa).matrix == csa.matrix


def test_nilpotent_self_normalizing_iff_cartan_bruteforce(catalog):
    # solvable fixtures of dim <= 4: enumerate pool subalgebras and compare
    # the Cartan check against maximality among nilpotent pool members
    for name in ["abelian2", "aff1", "e2", "oscillator", "r3_0", "r3_m1"]:
        g = catalog[name]
        pool_vectors = [linalg.unit_vec(g.dim, i) for i in range(g.dim)]
        pool_vectors += [
            linalg.vec_add(a, b) for a, b in itertools.combinations(pool_vectors, 2)
        ]
        pool_vectors += [
            linalg.vec_sub(a, b) for a, b in itertools.combinations(pool_vectors[: g.dim], 2)
        ]
        subs = {}
        for size in (1, 2):
            for combo in itertools.combinations(pool_vectors, size):
                sub = subalgebra_closure(g, combo)
                subs.setdefault(sub.matrix, sub)
        nilpotent = [s for s in subs.values() if is_nilpotent(s)]
        for sub in subs.values():
            claimed = is_cartan_subalgebra(sub)
            axioms = is_nilpotent(sub) and normalizer(sub).matrix == sub.matrix
            assert claimed == axioms
            if claimed:
                assert sub.dim == rank(g)
                for other in nilpotent:
                    assert not (other.dim > sub.dim and other.contains_subspace(sub))
