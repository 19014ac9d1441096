import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartankit import linalg
from cartankit.algebra import (
    Ideal,
    LieAlgebra,
    Subalgebra,
    Subspace,
    bracket_span,
    centralizer,
    derived_series,
    is_ideal,
    is_nilpotent,
    is_solvable,
    killing_form,
    killing_value,
    lower_central_series,
    normalizer,
    subalgebra_closure,
)
from cartankit.errors import (
    DimensionMismatch,
    JacobiViolation,
    NotClosed,
    NotIdeal,
)

H, E, FV = (1, 0, 0), (0, 1, 0), (0, 0, 1)  # sl2 basis coordinates


def naive_bracket(table, x, y):
    """Independent bilinear expansion over a fully antisymmetrized table."""
    n = len(x)
    out = [F(0)] * n
    for i in range(n):
        for j in range(n):
            c = F(x[i]) * F(y[j])
            if c == 0:
                continue
            for k in range(n):
                out[k] += c * table[i][j][k]
    return tuple(out)


def full_table(g):
    return [
        [g.bracket_basis(i, j) for j in range(g.dim)] for i in range(g.dim)
    ]


def grid(dim, bound=2):
    return itertools.product(range(-bound, bound + 1), repeat=dim)


# ---------------------------------------------------------------------------
# bracket
# ---------------------------------------------------------------------------


def test_bracket_of_element_with_itself_is_zero(sl2):
    assert sl2.bracket(H, H) == linalg.zero_vec(3)


def test_bracket_structure_constant_lookup(sl2):
    assert sl2.bracket(H, E) == (F(0), F(2), F(0))


def test_bracket_bilinear_expansion(sl2):
    # [e+f, h] expanded term by term: [e,h] + [f,h] = -2e + 2f
    expected = naive_bracket(full_table(sl2), (0, 1, 1), H)
    assert expected == (F(0), F(-2), F(2))
    assert sl2.bracket((0, 1, 1), H) == expected


@given(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_bracket_matches_naive_expansion(sl2, x, y):
    assert sl2.bracket(x, y) == naive_bracket(full_table(sl2), x, y)


@given(st.lists(st.integers(-3, 3), min_size=3, max_size=3),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3))
def test_bracket_antisymmetric(sl2, x, y):
    assert sl2.bracket(x, y) == linalg.vec_scale(F(-1), sl2.bracket(y, x))


def random_rational_vector(rng, dim):
    """Mostly nonzero entries with negative numerators and mixed denominators."""
    return tuple(
        F(rng.randint(-9, 9), rng.choice([1, 2, 3, 5, 12, 49])) if rng.random() < 0.8 else F(0)
        for _ in range(dim)
    )


@pytest.mark.parametrize("spec", ["sl2+b3", "sl3"])
def test_bracket_ad_match_naive_on_rebased_algebra(ladder_algebra, spec):
    # a random basis makes the constants dense with mixed denominators
    g = ladder_algebra(spec, 0)
    table = full_table(g)
    assert any(c.denominator > 1 for row in table for v in row for c in v)
    rng = random.Random(spec)
    units = [linalg.unit_vec(g.dim, j) for j in range(g.dim)]
    for _ in range(6):
        x, y = random_rational_vector(rng, g.dim), random_rational_vector(rng, g.dim)
        assert g.bracket(x, y) == naive_bracket(table, x, y)
        columns = [naive_bracket(table, x, e) for e in units]
        assert g.ad(x) == linalg.transpose(tuple(columns))
        i = rng.randrange(g.dim)
        assert g.bracket_basis_vec(i, y) == naive_bracket(table, units[i], y)


def test_bracket_dimension_mismatch(sl2):
    with pytest.raises(DimensionMismatch):
        sl2.bracket((1, 0), (0, 1, 0))


def test_jacobi_rejected_at_construction():
    with pytest.raises(JacobiViolation) as exc:
        LieAlgebra(3, {(0, 1): {1: 1}, (1, 2): {0: 1}, (0, 2): {2: 1}})
    assert exc.value.triple == (0, 1, 2)
    assert exc.value.residual == (F(2), F(0), F(0))


def naive_jacobi_violation(g):
    """First basis triple i < j < k with a nonzero Jacobiator, by Fractions."""
    table = full_table(g)
    units = [linalg.unit_vec(g.dim, i) for i in range(g.dim)]
    for i, j, k in itertools.combinations(range(g.dim), 3):
        res = [F(0)] * g.dim
        for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
            res = linalg.vec_add(res, naive_bracket(table, table[a][b], units[c]))
        if not linalg.is_zero_vec(res):
            return (i, j, k), res
    return None


@pytest.mark.parametrize(
    "constants, triple, residual",
    [
        # [[e0,e1],e2] = 1/6 e0 and [[e2,e0],e1] = 1/6 e0
        ({(0, 1): {1: F(1, 2)}, (1, 2): {0: F(1, 3)}, (0, 2): {2: F(1, 2)}},
         (0, 1, 2), (F(1, 3), F(0), F(0))),
        # (0, 1, 2) holds; on (0, 1, 3) only [[e1,e3],e0] = 2/3 [e1,e0] = 2/9 e2 survives
        ({(0, 1): {2: F(-1, 3)}, (0, 3): {1: F(1, 2)}, (1, 3): {0: F(5, 7), 1: F(2, 3)}},
         (0, 1, 3), (F(0), F(0), F(2, 9), F(0))),
    ],
)
def test_jacobi_violation_with_rational_constants(constants, triple, residual):
    broken = LieAlgebra(len(residual), constants, check_jacobi=False)
    assert naive_jacobi_violation(broken) == (triple, residual)
    with pytest.raises(JacobiViolation) as exc:
        LieAlgebra(len(residual), constants)
    assert exc.value.triple == triple
    assert exc.value.residual == residual
    assert all(type(c) is F for c in exc.value.residual)


def test_jacobi_check_skippable():
    g = LieAlgebra(3, {(0, 1): {1: 1}, (1, 2): {0: 1}, (0, 2): {2: 1}}, check_jacobi=False)
    assert g.dim == 3


@given(st.sampled_from(["sl2", "heisenberg", "e2", "oscillator", "sl2xR2"]),
       st.data())
@settings(max_examples=60, deadline=None)
def test_jacobi_residual_zero_on_catalog(catalog, name, data):
    g = catalog[name]
    coords = st.lists(st.integers(-2, 2), min_size=g.dim, max_size=g.dim)
    x, y, z = (data.draw(coords) for _ in range(3))
    res = g.bracket(g.bracket(x, y), z)
    res = linalg.vec_add(res, g.bracket(g.bracket(y, z), x))
    res = linalg.vec_add(res, g.bracket(g.bracket(z, x), y))
    assert linalg.is_zero_vec(res)


# ---------------------------------------------------------------------------
# subspaces and closures
# ---------------------------------------------------------------------------


def test_subspace_canonical_equality(sl2):
    a = Subspace(sl2, [(1, 2, 0), (0, 0, 3)])
    b = Subspace(sl2, [(2, 4, 6), (0, 0, -1), (1, 2, 9)])
    assert a == b and a.matrix == b.matrix


@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=1, max_size=3),
       st.integers(1, 5))
def test_subspace_canonical_under_rescaling(sl2, rows, scale):
    a = Subspace(sl2, rows)
    b = Subspace(sl2, [linalg.vec_scale(F(scale), linalg.vec(r)) for r in reversed(rows)])
    assert a == b


def test_closure_of_single_nilpotent_generator(sl2):
    assert subalgebra_closure(sl2, [E]).matrix == Subspace(sl2, [E]).matrix


def test_closure_of_e_f_is_everything(sl2):
    assert subalgebra_closure(sl2, [E, FV]).dim == 3


def test_closure_of_nothing_is_zero(sl2):
    assert subalgebra_closure(sl2, []).dim == 0


def test_subalgebra_rejects_open_span(sl2):
    with pytest.raises(NotClosed):
        Subalgebra(sl2, [E, FV])


def test_ideal_rejects_non_ideal(sl2):
    with pytest.raises(NotIdeal):
        Ideal(sl2, [H])


# ---------------------------------------------------------------------------
# normalizer / centralizer
# ---------------------------------------------------------------------------


def test_normalizer_of_h_span(sl2):
    sub = Subspace(sl2, [H])
    nrm = normalizer(sub)
    assert nrm.matrix == sub.matrix
    # grid oracle: membership in the normalizer is the bracket condition
    for v in grid(3):
        assert nrm.contains(v) == sub.contains(sl2.bracket(v, H))


def test_normalizer_of_whole_and_zero(sl2):
    assert normalizer(sl2.whole()).dim == 3
    assert normalizer(sl2.zero_subspace()).dim == 3


def test_normalizer_of_e_span_is_borel(sl2):
    # h normalizes span{e}, so the normalizer is the span of h and e
    assert normalizer(Subspace(sl2, [E])).matrix == Subspace(sl2, [H, E]).matrix


def test_centralizer_of_heisenberg_is_center(h3):
    c = centralizer(h3.whole())
    assert c.matrix == Subspace(h3, [(0, 0, 1)]).matrix
    for v in grid(3):
        member = all(
            linalg.is_zero_vec(h3.bracket(v, row)) for row in h3.whole().matrix
        )
        assert c.contains(v) == member


def test_centralizer_of_zero_subspace(sl2):
    assert centralizer(sl2.zero_subspace()).dim == 3


def test_centralizer_of_h_span(sl2):
    assert centralizer(Subspace(sl2, [H])).matrix == Subspace(sl2, [H]).matrix


def test_centralizer_inside_normalizer(catalog):
    for g in catalog.values():
        for i in range(g.dim):
            sub = subalgebra_closure(g, [linalg.unit_vec(g.dim, i)])
            nrm = normalizer(sub)
            assert nrm.contains_subspace(sub)
            assert nrm.contains_subspace(centralizer(sub))


# ---------------------------------------------------------------------------
# series, killing form, ideals
# ---------------------------------------------------------------------------


def test_abelian_is_nilpotent_and_solvable(catalog):
    g = catalog["abelian3"]
    assert is_nilpotent(g.whole()) and is_solvable(g.whole())


def test_heisenberg_nilpotent_in_two_steps(h3):
    series = lower_central_series(h3.whole())
    assert [s.dim for s in series] == [3, 1, 0]
    assert is_nilpotent(h3.whole())


def test_sl2_not_solvable(sl2):
    series = derived_series(sl2.whole())
    assert series[-1].dim == 3
    assert not is_solvable(sl2.whole())
    assert not is_nilpotent(sl2.whole())


def test_oscillator_solvable_not_nilpotent(oscillator):
    assert is_solvable(oscillator.whole())
    assert not is_nilpotent(oscillator.whole())


def test_killing_form_sl2(sl2):
    form = killing_form(sl2)
    assert form[0][0] == F(8)  # trace of ad(h)^2 with eigenvalues 2, -2, 0
    a, b, c = form[0]
    d, e_, f = form[1]
    g_, h_, i = form[2]
    sarrus = a * e_ * i + b * f * g_ + c * d * h_ - c * e_ * g_ - b * d * i - a * f * h_
    assert sarrus == F(-128)


def killing_by_definition(g):
    """trace(ad e_i o ad e_j) from dense ad matrices built from bracket_basis."""
    # ad(e_i)[k][j] is coordinate k of [e_i, e_j]
    ads = [linalg.transpose(tuple(g.bracket_basis(i, j) for j in range(g.dim))) for i in range(g.dim)]
    return tuple(
        tuple(
            sum((a[l][k] * b[k][l] for k in range(g.dim) for l in range(g.dim)), F(0))
            for b in ads
        )
        for a in ads
    )


def test_killing_form_matches_definition_on_catalog(catalog):
    assert len(catalog) == 18
    for g in catalog.values():
        assert killing_form(g) == killing_by_definition(g)


@pytest.mark.parametrize("seed", [None, 0])
@pytest.mark.parametrize("spec", ["gl3", "sl3", "b3", "b4", "sl2+b3", "sl3+h5"])
def test_killing_form_matches_definition_on_ladder(ladder_algebra, spec, seed):
    g = ladder_algebra(spec, seed)
    assert killing_form(g) == killing_by_definition(g)


def test_killing_form_vanishes_for_nilpotent(h3, catalog):
    assert killing_form(h3) == linalg.zero_mat(3, 3)
    assert killing_form(catalog["abelian2"]) == linalg.zero_mat(2, 2)


def test_killing_invariance(catalog):
    for name in ["sl2", "aff1", "e2", "oscillator", "gl2"]:
        g = catalog[name]
        form = killing_form(g)
        basis = [linalg.unit_vec(g.dim, i) for i in range(g.dim)]
        for x, y, z in itertools.product(basis, repeat=3):
            assert killing_value(form, g.bracket(x, y), z) == killing_value(
                form, x, g.bracket(y, z)
            )


def test_is_ideal(h3, sl2):
    assert is_ideal(Subspace(h3, [(0, 0, 1)]))
    assert not is_ideal(Subspace(sl2, [H]))
    assert is_ideal(sl2.whole())


def test_bracket_span(sl2):
    assert bracket_span(sl2.whole(), sl2.whole()).dim == 3
    assert bracket_span(Subspace(sl2, [H]), Subspace(sl2, [E])).matrix == Subspace(sl2, [E]).matrix


def test_proper_subalgebras_grow_in_nilpotent_algebras(catalog):
    for name in ["heisenberg", "heisenberg5", "abelian3"]:
        g = catalog[name]
        pool = [linalg.unit_vec(g.dim, i) for i in range(g.dim)]
        pool += [linalg.vec_add(a, b) for a, b in itertools.combinations(pool, 2)]
        for vecs in itertools.combinations(pool, 2):
            sub = subalgebra_closure(g, vecs)
            if sub.dim < g.dim:
                assert normalizer(sub).dim > sub.dim


def test_label_rendering(sl2):
    assert sl2.label_vector((1, 0, 0)) == "h"
    assert sl2.label_vector((0, -2, 0)) == "-2*e"
    assert sl2.label_vector((F(1, 2), 0, -1)) == "1/2*h - f"
    assert sl2.label_vector((0, 0, 0)) == "0"


def test_subspace_rejects_vectors_of_the_wrong_length(sl2):
    sub = Subspace(sl2, [(1, 0, 0)])
    for method in (sub.contains, sub.residual, sub.coordinates):
        for v in ((1, 0), (1, 0, 0, 5)):
            with pytest.raises(DimensionMismatch):
                method(v)


@pytest.mark.parametrize("spec", ["sl2+b3", "gl3"])
def test_subspace_integer_form_matches_linalg_on_rebased_algebra(ladder_algebra, spec):
    from cartankit.levi import levi_decomposition
    from cartankit.radicals import nilradical

    g = ladder_algebra(spec, 0)
    n = g.dim
    rng = random.Random(7)
    basis = [linalg.unit_vec(n, i) for i in range(n)]
    decomp = levi_decomposition(g)
    subspaces = [
        g.zero_subspace(),
        g.whole(),
        decomp.levi,
        decomp.radical,
        nilradical(g),
        Subspace(g, [g.bracket(basis[0], b) for b in basis[:3]]),
    ]
    for sub in subspaces:
        probes = list(basis) + [g.bracket(a, b) for a, b in itertools.combinations(basis[:4], 2)]
        for _ in range(3):
            coeffs = tuple(F(rng.randint(-3, 3), rng.choice([1, 2, 5])) for _ in sub.matrix)
            inside = tuple(sum((c * r[k] for c, r in zip(coeffs, sub.matrix)), F(0)) for k in range(n))
            assert sub.coordinates(inside) == coeffs
            probes.append(inside)
        # the same rows in an abelian algebra: reduction sees only the rows
        twin = Subspace(LieAlgebra(n, {}), sub.matrix)
        for v in probes:
            assert sub.contains(v) == twin.contains(v)
            assert sub.residual(v) == twin.residual(v)
            assert sub.coordinates(v) == twin.coordinates(v)
        for other in subspaces:
            assert sub.contains_subspace(other) == all(twin.contains(r) for r in other.matrix)


# ---------------------------------------------------------------------------
# the integer echelon form is the identity of a subspace
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", ["sl2+b3", "gl3"])
def test_rational_and_integer_rows_give_one_subspace(ladder_algebra, spec):
    from test_linalg import fraction_rref

    g = ladder_algebra(spec, 0)
    rng = random.Random(spec)
    for k in range(8):
        rows = [random_rational_vector(rng, g.dim) for _ in range(k)]
        if k > 2:
            rows.append(linalg.vec_add(rows[0], linalg.vec_scale(F(-3, 7), rows[1])))  # dependent
        ints = [linalg.scaled_ints(r)[0] for r in rows]
        a, b = Subspace(g, rows), Subspace._from_ints(g, ints)
        assert a == b and hash(a) == hash(b) and a.dim == min(k, g.dim)
        assert "matrix" not in vars(b)  # built on first use
        assert b.matrix == a.matrix == fraction_rref(rows)


def test_retype_runs_no_elimination(sl2xheis, monkeypatch):
    g = sl2xheis
    derived = bracket_span(g.whole(), g.whole())
    calls = []
    rref_ints = linalg.rref_ints
    monkeypatch.setattr(linalg, "rref_ints", lambda rows: calls.append(1) or rref_ints(rows))
    retyped = [Subspace(g, derived), Subalgebra(g, derived), Ideal(g, derived)]
    assert calls == []
    assert [type(s) for s in retyped] == [Subspace, Subalgebra, Ideal]
    assert all(s == derived for s in retyped)


def test_retype_runs_the_class_check(sl2):
    with pytest.raises(NotClosed):
        Subalgebra(sl2, Subspace(sl2, [E, FV]))
    with pytest.raises(NotIdeal):
        Ideal(sl2, Subalgebra(sl2, [H]))
    with pytest.raises(DimensionMismatch):
        Subalgebra(LieAlgebra(2, {}), Subspace(sl2, [H]))


def test_series_start_at_their_input(catalog):
    for g in catalog.values():
        sub = g.whole()
        assert derived_series(sub)[0] is sub
        assert lower_central_series(sub)[0] is sub
