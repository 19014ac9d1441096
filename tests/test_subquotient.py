"""The one coordinate map on U/L: quotients, induced algebras and layers."""

import itertools
from fractions import Fraction as F

import pytest

from cartankit import linalg
from cartankit.algebra import Ideal, LieAlgebra, Subquotient, Subspace, centralizer
from cartankit.catalog import bundled_fixtures
from cartankit.errors import DimensionMismatch, InternalInconsistency, NotClosed
from cartankit.levi import induced_algebra, levi_decomposition
from cartankit.quotient import quotient_algebra
from cartankit.radicals import nilradical

FIXTURES = sorted(bundled_fixtures())
LADDER = [(spec, seed) for spec in ("gl3", "b3", "n4", "sl2+b3") for seed in (None, 0)]


def assert_subquotient_laws(sq: Subquotient) -> None:
    """push o lift = id, push is a homomorphism on basis pairs of U, and the
    preimage of the whole target is U."""
    g, t = sq.upper.ambient, sq.target
    for e in linalg.identity(t.dim):
        assert sq.push_vector(sq.lift_vector(e)) == e
    pushed = [sq.push_vector(u) for u in sq.upper.matrix]
    for (a, pa), (b, pb) in itertools.combinations(zip(sq.upper.matrix, pushed), 2):
        assert sq.push_vector(g.bracket(a, b)) == t.bracket(pa, pb)
    assert sq.preimage_subspace(t.whole()).matrix == sq.upper.matrix


def assert_centre_and_levi_laws(g: LieAlgebra) -> None:
    q = quotient_algebra(g, Ideal(g, centralizer(g.whole()).matrix))
    assert_subquotient_laws(q)
    # on a quotient of the whole algebra the operator of x is ad of its push
    for x in g.whole().matrix:
        assert q.operator(x) == q.target.ad(q.push_vector(x))
    assert_subquotient_laws(induced_algebra(levi_decomposition(g).levi))


@pytest.mark.parametrize("name", FIXTURES)
def test_subquotient_laws_on_fixtures(catalog, name):
    assert_centre_and_levi_laws(catalog[name])


@pytest.mark.parametrize("spec,seed", LADDER)
def test_subquotient_laws_on_ladder(ladder_algebra, spec, seed):
    assert_centre_and_levi_laws(ladder_algebra(spec, seed))


@pytest.mark.parametrize("spec,seed", LADDER)
def test_nilradical_matches_ladder_closed_form(ladder, ladder_algebra, spec, seed):
    assert nilradical(ladder_algebra(spec, seed)).dim == ladder.family(spec).oracle.nilradical


def test_quotient_basis_is_the_unit_rows_off_the_ideal_pivots(sl2xr2):
    q = quotient_algebra(sl2xr2, Ideal(sl2xr2, [(0, 0, 0, 1, 1), (0, 0, 0, 0, 1)]))
    assert q.basis.matrix == linalg.identity(5)[:3]
    assert q.target.basis_labels == sl2xr2.basis_labels[:3]
    assert q.push_vector((1, 2, 3, 4, 5)) == (F(1), F(2), F(3))


def test_layer_coordinates_are_residual_entries_at_the_basis_pivots(h3):
    # h3 modulo its centre z: the layer basis is x, y and z pushes to zero
    layer = Subquotient(h3.whole(), Subspace(h3, [(0, 0, 1)]))
    assert layer.basis.matrix == ((F(1), F(0), F(0)), (F(0), F(1), F(0)))
    assert layer.push_vector((F(1, 2), -3, 7)) == (F(1, 2), F(-3))
    assert layer.lift_vector((2, 5)) == (F(2), F(5), F(0))
    # ad x sends y to z, which is zero on the layer
    assert layer.operator((1, 0, 0)) == ((F(0), F(0)), (F(0), F(0)))


def test_push_outside_the_subquotient_and_open_targets(sl2):
    line = Subquotient(Subspace(sl2, [(0, 1, 0)]), sl2.zero_subspace())
    with pytest.raises(InternalInconsistency):
        line.push_vector((1, 0, 0))
    with pytest.raises(InternalInconsistency):
        line.operator((0, 0, 1))  # [f, e] = -h leaves the line
    with pytest.raises(DimensionMismatch):
        line.lift_vector((1, 2))
    with pytest.raises(NotClosed):
        Subquotient(Subspace(sl2, [(0, 1, 0), (0, 0, 1)]), sl2.zero_subspace()).target
