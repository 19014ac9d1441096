from fractions import Fraction as F

import pytest

from cartankit import linalg
from cartankit.algebra import Ideal, Subalgebra, Subspace, killing_form
from cartankit.cartan import is_cartan_subalgebra, regular_element_csa
from cartankit.errors import NotCartan, NotIdeal
from cartankit.quotient import lift_cartan, push_cartan, quotient_algebra
from cartankit.radicals import is_semisimple


@pytest.fixture()
def q_sl2xr2(sl2xr2):
    plane = Ideal(sl2xr2, [(0, 0, 0, 1, 0), (0, 0, 0, 0, 1)])
    return quotient_algebra(sl2xr2, plane)


def test_quotient_by_everything_is_zero(sl2):
    q = quotient_algebra(sl2, Ideal(sl2, linalg.identity(3)))
    assert q.target.dim == 0
    assert q.basis.matrix == ()
    assert q.push_vector((1, 2, 3)) == ()


def test_quotient_rejects_non_ideal(sl2):
    with pytest.raises(NotIdeal):
        quotient_algebra(sl2, Subspace(sl2, [(1, 0, 0)]))


def test_heisenberg_mod_center_is_abelian(h3):
    q = quotient_algebra(h3, Ideal(h3, [(0, 0, 1)]))
    assert q.target.dim == 2
    assert q.target.bracket_basis(0, 1) == (F(0), F(0))


def test_sl2xr2_mod_plane_is_sl2(q_sl2xr2):
    t = q_sl2xr2.target
    assert t.dim == 3
    assert t.bracket_basis(0, 1) == (F(0), F(2), F(0))
    assert t.bracket_basis(0, 2) == (F(0), F(0), F(-2))
    assert t.bracket_basis(1, 2) == (F(1), F(0), F(0))
    assert is_semisimple(t)
    # the Killing form of sl2 in the basis (h, e, f); its determinant is -128
    assert killing_form(t) == linalg.mat([[8, 0, 0], [0, 0, 4], [0, 4, 0]])


def test_projection_section_identity(q_sl2xr2):
    q = q_sl2xr2
    for e in linalg.identity(3):
        assert q.push_vector(q.lift_vector(e)) == e
    # the push kills exactly the ideal: its matrix has the ideal as kernel
    push = linalg.transpose(tuple(q.push_vector(e) for e in linalg.identity(5)))
    assert linalg.kernel(push, width=5) == q.lower.matrix


def test_projection_is_homomorphism(q_sl2xr2, sl2xr2):
    q = q_sl2xr2
    for i in range(5):
        for j in range(i + 1, 5):
            lhs = q.push_vector(sl2xr2.bracket_basis(i, j))
            rhs = q.target.bracket(
                q.push_vector(linalg.unit_vec(5, i)), q.push_vector(linalg.unit_vec(5, j))
            )
            assert lhs == rhs


def test_push_identity_quotient(sl2):
    q = quotient_algebra(sl2, Ideal(sl2, []))
    h = Subalgebra(sl2, [(1, 0, 0)])
    assert push_cartan(h, q).matrix == h.matrix
    assert lift_cartan(h, q).matrix == h.matrix


def test_push_cartan_sl2xr2(q_sl2xr2, sl2xr2):
    pushed = push_cartan(Subalgebra(sl2xr2, [(1, 0, 0, 0, 0)]), q_sl2xr2)
    assert pushed.matrix == Subspace(q_sl2xr2.target, [(1, 0, 0)]).matrix
    assert is_cartan_subalgebra(pushed)


def test_push_whole_nilpotent(h3):
    q = quotient_algebra(h3, Ideal(h3, [(0, 0, 1)]))
    pushed = push_cartan(h3.whole(), q)
    assert pushed.dim == 2  # the full abelian quotient


def test_push_rejects_non_cartan(q_sl2xr2, sl2xr2):
    with pytest.raises(NotCartan):
        push_cartan(Subalgebra(sl2xr2, [(0, 1, 0, 0, 0)]), q_sl2xr2)


def test_lift_cartan_sl2xr2(q_sl2xr2, sl2xr2):
    target_csa = Subalgebra(q_sl2xr2.target, [(1, 0, 0)])
    lifted = lift_cartan(target_csa, q_sl2xr2)
    assert lifted.matrix == Subspace(sl2xr2, [(1, 0, 0, 0, 0)]).matrix
    assert is_cartan_subalgebra(lifted)
    assert q_sl2xr2.push_subspace(lifted).matrix == target_csa.matrix


def test_lift_through_zero_quotient(sl2):
    q = quotient_algebra(sl2, Ideal(sl2, linalg.identity(3)))
    lifted = lift_cartan(Subalgebra(q.target, []), q)
    assert is_cartan_subalgebra(lifted)
    assert lifted.dim == 1


def test_lift_rank_inequality(catalog):
    g = catalog["sl2xheis"]
    q = quotient_algebra(g, Ideal(g, [(0, 0, 0, 1, 0, 0), (0, 0, 0, 0, 1, 0), (0, 0, 0, 0, 0, 1)]))
    target_csa = regular_element_csa(q.target).csa
    lifted = lift_cartan(target_csa, q)
    assert lifted.dim >= target_csa.dim
    # here the centralizer of h inside the heisenberg radical is the center
    assert lifted.dim == target_csa.dim + 1


def test_roundtrip_push_lift_push(catalog):
    g = catalog["gl2"]
    q = quotient_algebra(g, Ideal(g, [(0, 0, 0, 1)]))
    h = regular_element_csa(g).csa
    pushed = push_cartan(h, q)
    again = push_cartan(lift_cartan(pushed, q), q)
    assert again.matrix == pushed.matrix


def test_quotient_with_scaled_ideal_basis(sl2xr2):
    # the ideal span is canonicalized, so any spanning set works
    q = quotient_algebra(sl2xr2, Ideal(sl2xr2, [(0, 0, 0, 2, 2), (0, 0, 0, 0, -3)]))
    assert q.target.dim == 3
    assert is_semisimple(q.target)
