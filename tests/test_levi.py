from fractions import Fraction as F

import pytest

from cartankit import linalg
from cartankit.algebra import LieAlgebra, Subalgebra, Subspace, bracket_span, killing_form, per_algebra
from cartankit.catalog import load_bundled
from cartankit.errors import InternalInconsistency, LiftFailure, NotClosed
from cartankit.levi import induced_algebra, levi_decomposition
from cartankit.radicals import is_semisimple, radical


def change_basis(g, p):
    """Rewrite g in the basis given by the rows of the invertible matrix p."""
    p = linalg.mat(p)
    n = g.dim
    # coordinates of an old-basis vector in the new basis: solve rows
    constants = {}
    for i in range(n):
        for j in range(i + 1, n):
            w = g.bracket(p[i], p[j])
            coords = linalg.solve(linalg.transpose(p), w, width=n)
            assert coords is not None
            entry = {k: c for k, c in enumerate(coords) if c != 0}
            if entry:
                constants[(i, j)] = entry
    return LieAlgebra(n, constants, [f"b{i}" for i in range(n)])


def killing_is_indefinite(g):
    """Nondegenerate with value-sign witnesses both ways (split, not compact)."""
    import itertools

    form = killing_form(g)
    if linalg.rank(form) != g.dim:
        return False
    values = [
        killing_value_quadratic(form, v)
        for v in itertools.product((-1, 0, 1), repeat=g.dim)
    ]
    return any(v > 0 for v in values) and any(v < 0 for v in values)


def killing_value_quadratic(form, v):
    return sum(
        F(v[i]) * form[i][j] * F(v[j]) for i in range(len(form)) for j in range(len(form))
    )


def test_semisimple_algebra_is_its_own_levi(sl2):
    decomp = levi_decomposition(sl2)
    assert decomp.levi.dim == 3 and decomp.radical.dim == 0


def test_solvable_algebra_has_zero_levi(aff1, oscillator):
    for g in [aff1, oscillator]:
        decomp = levi_decomposition(g)
        assert decomp.levi.dim == 0 and decomp.radical.dim == g.dim


def test_sl2xr2_levi(sl2xr2):
    decomp = levi_decomposition(sl2xr2)
    assert decomp.levi.matrix == Subspace(
        sl2xr2, [linalg.unit_vec(5, i) for i in range(3)]
    ).matrix
    assert decomp.radical.matrix == Subspace(
        sl2xr2, [linalg.unit_vec(5, 3), linalg.unit_vec(5, 4)]
    ).matrix
    induced = induced_algebra(decomp.levi).target
    assert is_semisimple(induced)
    # split three-dimensional simple algebra: indefinite Killing form
    assert killing_is_indefinite(induced)


def test_levi_after_basis_scramble(sl2xr2):
    # mix radical directions into the complement coordinates so the
    # correction solve actually has work to do
    p = [
        [1, 0, 0, 1, 0],  # h + u
        [0, 1, 0, 0, 1],  # e + v
        [0, 0, 1, 1, 1],  # f + u + v
        [0, 0, 0, 1, 0],
        [0, 0, 0, 0, 1],
    ]
    g = change_basis(sl2xr2, p)
    decomp = levi_decomposition(g)
    assert decomp.levi.dim == 3 and decomp.radical.dim == 2
    assert decomp.levi.intersect(decomp.radical).dim == 0
    assert is_semisimple(induced_algebra(decomp.levi).target)


def test_levi_with_nonabelian_radical(sl2xheis):
    decomp = levi_decomposition(sl2xheis)
    assert decomp.levi.dim == 3 and decomp.radical.dim == 3
    assert is_semisimple(induced_algebra(decomp.levi).target)


def test_levi_with_nonabelian_radical_scrambled(sl2xheis):
    p = [
        [1, 0, 0, 0, 0, 1],  # h + z
        [0, 1, 0, 1, 0, 0],  # e + x
        [0, 0, 1, 0, 1, 0],  # f + y
        [0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 1, 0],
        [0, 0, 0, 0, 0, 1],
    ]
    g = change_basis(sl2xheis, p)
    decomp = levi_decomposition(g)
    assert decomp.levi.dim == 3
    assert is_semisimple(induced_algebra(decomp.levi).target)
    assert decomp.levi.intersect(decomp.radical).dim == 0
    assert decomp.levi.sum(decomp.radical).dim == 6


def test_levi_dimensions_add_on_catalog(catalog):
    for g in catalog.values():
        decomp = levi_decomposition(g)
        assert decomp.levi.dim + decomp.radical.dim == g.dim
        assert decomp.radical.matrix == radical(g).matrix


def test_gl2_levi(gl2):
    decomp = levi_decomposition(gl2)
    assert decomp.levi.matrix == Subspace(gl2, [linalg.unit_vec(4, i) for i in range(3)]).matrix
    assert decomp.radical.matrix == Subspace(gl2, [linalg.unit_vec(4, 3)]).matrix


def test_levi_of_gl3_is_trace_zero(ladder_algebra):
    # gl3's radical is central, so sl3 is its only Levi part; the ladder
    # lists the off-diagonal units first, then E00, E11, E22
    g = ladder_algebra("gl3")
    trace_zero = linalg.kernel([(0,) * 6 + (1, 1, 1)])
    assert levi_decomposition(g).levi.matrix == Subspace(g, trace_zero).matrix


@pytest.mark.parametrize("spec", ["gl3", "gl4"])
def test_reductive_levi_part_is_the_derived_algebra(ladder_algebra, spec):
    # gl_n is reductive: its radical is the centre and its Levi part [g, g]
    g = ladder_algebra(spec, 0)
    assert levi_decomposition(g).levi.matrix == bracket_span(g.whole(), g.whole()).matrix


def test_inconsistent_correction_raises_lift_failure(monkeypatch):
    g = load_bundled("sl2xheis")  # a fresh instance: nothing memoized
    calls = []

    def inconsistent(rows, width):
        calls.append(width)
        return None

    monkeypatch.setattr(linalg, "solve_ints", inconsistent)
    with pytest.raises(LiftFailure, match="inconsistent"):
        levi_decomposition(g)
    assert calls


# closed-form (Levi, radical) dimensions: dim sl_n = n^2 - 1, and b3 (dim 6)
# and h5 (dim 5) are solvable
LADDER_LEVI_DIMS = {"sl2+b3": (3, 6), "sl2+h5": (3, 5), "sl3+h5": (8, 5)}


@pytest.mark.parametrize(
    "spec, seed",
    [("sl2+b3", None), ("sl3+h5", None), ("sl2+b3", 0), ("sl2+h5", 0), ("sl3+h5", 0)],
    ids=["sl2+b3", "sl3+h5", "sl2+b3-rebased", "sl2+h5-rebased", "sl3+h5-rebased"],
)
def test_ladder_levi_closed_form(ladder_algebra, spec, seed):
    g = ladder_algebra(spec, seed)
    decomp = levi_decomposition(g)
    assert (decomp.levi.dim, decomp.radical.dim) == LADDER_LEVI_DIMS[spec]
    assert decomp.levi.intersect(decomp.radical).dim == 0
    assert decomp.levi.sum(decomp.radical).dim == g.dim
    assert is_semisimple(induced_algebra(decomp.levi).target)


def test_induced_algebra_zero_and_one_dim(sl2):
    assert induced_algebra(sl2.zero_subalgebra()).target.dim == 0
    one = induced_algebra(Subalgebra(sl2, [(1, 0, 0)]))
    assert one.target.dim == 1
    assert one.target.bracket((1,), (1,)) == (F(0),)


def test_induced_algebra_of_levi_part(sl2xr2):
    decomp = levi_decomposition(sl2xr2)
    frame = induced_algebra(decomp.levi)
    # same constants as sl2 in the canonical ordering of the complement
    assert frame.target.bracket_basis(0, 1) == (F(0), F(2), F(0))
    assert frame.target.bracket_basis(0, 2) == (F(0), F(0), F(-2))
    assert frame.target.bracket_basis(1, 2) == (F(1), F(0), F(0))
    # the labels are the ambient labels at the pivot columns of the rows
    assert frame.target.basis_labels == ("h", "e", "f")


def test_induced_algebra_rejects_open_span(sl2):
    open_span = Subspace(sl2, [(0, 1, 0), (0, 0, 1)])
    with pytest.raises(NotClosed):
        induced_algebra(open_span)


def test_induced_roundtrip(sl2xheis):
    decomp = levi_decomposition(sl2xheis)
    frame = induced_algebra(decomp.levi)
    inner = Subspace(frame.target, [(1, 0, 0)])
    ambient = frame.preimage_subspace(inner)
    assert frame.push_subspace(ambient).matrix == inner.matrix
    again = frame.preimage_subspace(frame.push_subspace(ambient))
    assert again.matrix == ambient.matrix


def test_invariants_are_memoized_per_algebra():
    g = load_bundled("sl2xheis")
    assert radical(g) is radical(g)
    assert levi_decomposition(g).radical is radical(g)
    # the memo lives on the instance: an equal algebra computes its own
    twin = load_bundled("sl2xheis")
    assert twin == g and radical(twin) is not radical(g)
    # a call that raises stores nothing
    attempts = []

    @per_algebra
    def fails_once(h):
        attempts.append(h)
        if len(attempts) == 1:
            raise InternalInconsistency("first call")
        return len(attempts)

    with pytest.raises(InternalInconsistency):
        fails_once(g)
    assert fails_once(g) == 2 and fails_once(g) == 2
