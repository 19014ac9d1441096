import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cartankit import linalg
from cartankit.algebra import LieAlgebra, Subspace
from cartankit.errors import DimensionMismatch

small_entries = st.integers(min_value=-4, max_value=4)


def small_matrix(max_rows=4, max_cols=4):
    return st.integers(1, max_rows).flatmap(
        lambda r: st.integers(1, max_cols).flatmap(
            lambda c: st.lists(
                st.lists(small_entries, min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


def test_rref_known_form():
    m = linalg.rref([[0, 2, 4], [1, 1, 1]])
    assert m == ((F(1), F(0), F(-1)), (F(0), F(1), F(2)))
    assert linalg.pivot_columns(m) == (0, 1)


def test_rref_drops_zero_rows():
    assert linalg.rref([[0, 0], [0, 0]]) == ()
    assert linalg.rref([]) == ()


@given(small_matrix())
def test_rref_idempotent(rows):
    once = linalg.rref(rows)
    assert linalg.rref(once) == once


@given(small_matrix(), small_entries, st.integers(0, 3), st.integers(0, 3))
def test_rref_invariant_under_row_operations(rows, scale, i, j):
    base = linalg.rref(rows)
    work = [list(map(F, r)) for r in rows]
    i, j = i % len(work), j % len(work)
    if i != j:
        work[i] = [a + scale * b for a, b in zip(work[i], work[j])]
    work.append([F(scale) * e for e in work[0]])
    assert linalg.rref(work) == base


def row_space(rows, width=None):
    """The span of the rows inside an abelian algebra of their width."""
    return Subspace(LieAlgebra(len(rows[0]) if width is None else width, {}), rows)


def test_residual_and_membership():
    rows = row_space([[1, 0, 1], [0, 1, 2]])
    assert rows.contains([2, 3, 8])
    assert not rows.contains([0, 0, 1])
    assert rows.residual([2, 3, 8]) == (F(0), F(0), F(0))


def test_row_coordinates_roundtrip():
    rows = row_space([[1, 2, 0], [0, 0, 1]])
    coords = rows.coordinates([3, 6, 5])
    assert coords == (F(3), F(5))
    assert rows.coordinates([1, 0, 0]) is None


def test_kernel_of_known_system():
    # x + 2y - z = 0 has kernel spanned by (-2,1,0) and (1,0,1)
    ker = linalg.kernel([[1, 2, -1]])
    assert ker == linalg.rref([[-2, 1, 0], [1, 0, 1]])
    for row in ker:
        assert sum(c * x for c, x in zip([1, 2, -1], row)) == 0


def test_kernel_needs_width_for_empty_system():
    assert linalg.kernel([], width=3) == linalg.identity(3)
    with pytest.raises(DimensionMismatch):
        linalg.kernel([])


@given(small_matrix())
def test_kernel_rank_nullity(rows):
    width = len(rows[0])
    ker = linalg.kernel(rows)
    assert linalg.rank(rows) + len(ker) == width
    for k in ker:
        assert all(sum(a * b for a, b in zip(row, k)) == 0 for row in rows)


def test_solve_particular_solution():
    sol = linalg.solve([[1, 1, 0], [0, 1, 1]], [3, 5])
    assert sol is not None
    assert sol[0] + sol[1] == 3 and sol[1] + sol[2] == 5


def test_solve_inconsistent_returns_none():
    assert linalg.solve([[1, 1], [2, 2]], [1, 3]) is None


def test_solve_empty_system_uses_width():
    assert linalg.solve([], [], width=4) == linalg.zero_vec(4)


def test_char_poly_companion():
    # companion matrix of t^2 - t - 1
    m = linalg.mat([[0, 1], [1, 1]])
    assert linalg.char_poly(m) == (F(-1), F(-1), F(1))


def test_mat_pow_and_nilpotency():
    n = linalg.mat([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert linalg.mat_pow(n, 3) == linalg.zero_mat(3, 3)
    assert linalg.is_nilpotent_mat(n)
    assert not linalg.is_nilpotent_mat(linalg.identity(2))


def naive_mat_mul(a, b):
    """Fraction triple loop; a has len(b) columns."""
    width = len(b[0]) if b else 0
    return tuple(
        tuple(sum((a[r][k] * b[k][c] for k in range(len(b))), F(0)) for c in range(width))
        for r in range(len(a))
    )


def naive_mat_pow(m, k):
    out = linalg.identity(len(m))
    for _ in range(k):
        out = naive_mat_mul(out, m)
    return out


def random_rational_matrix(rng, rows, cols):
    """Zero rows, zero entries, negative values and large denominators."""
    def entry():
        if rng.random() < 0.3:
            return F(0)
        den = rng.choice([1, 1, 2, 3, 7, 10**12 + 39, 2**61 - 1])
        return F(rng.randint(-10**6, 10**6), den)

    return tuple(
        linalg.zero_vec(cols) if rng.random() < 0.15 else tuple(entry() for _ in range(cols))
        for _ in range(rows)
    )


@pytest.mark.parametrize("seed", range(6))
def test_mat_mul_matches_naive(seed):
    rng = random.Random(seed)
    shapes = [(1, 1, 1), (1, 5, 1), (1, 4, 6), (5, 1, 3), (3, 4, 2), (6, 6, 6), (2, 7, 4)]
    for r, k, c in shapes:
        a, b = random_rational_matrix(rng, r, k), random_rational_matrix(rng, k, c)
        product = linalg.mat_mul(a, b)
        assert product == naive_mat_mul(a, b)
        assert all(type(e) is F for row in product for e in row)
        assert linalg.mat_mul(a, linalg.zero_mat(k, c)) == linalg.zero_mat(r, c)


def test_mat_mul_empty_shapes():
    assert linalg.mat_mul((), ()) == ()
    assert linalg.mat_mul((), linalg.mat([[1, 2]])) == ()
    # n x 0 times 0 x 0: n empty rows
    assert linalg.mat_mul(((), ()), ()) == ((), ())


@pytest.mark.parametrize(
    "a, b",
    [
        ([[1, 2]], [[1, 2]]),
        ([[1], [2]], [[1], [2]]),
        ([[1, 2, 3]], [[1], [2]]),
        ([[1, 2]], []),
    ],
)
def test_mat_mul_rejects_bad_shapes(a, b):
    with pytest.raises(DimensionMismatch):
        linalg.mat_mul(linalg.mat(a), linalg.mat(b))


@pytest.mark.parametrize("seed", range(4))
def test_mat_pow_matches_naive(seed):
    rng = random.Random(100 + seed)
    for n in (1, 2, 4, 5):
        m = random_rational_matrix(rng, n, n)
        for k in (0, 1, 2, 3, 6):
            assert linalg.mat_pow(m, k) == naive_mat_pow(m, k)
    assert linalg.mat_pow((), 3) == ()


def test_poly_gcd_and_squarefree():
    # (t-1)^2 (t+2) has squarefree part (t-1)(t+2) = t^2 + t - 2
    p = linalg.poly_mul(linalg.poly_mul((F(-1), F(1)), (F(-1), F(1))), (F(2), F(1)))
    assert linalg.squarefree_part(p) == (F(-2), F(1), F(1))


def test_semisimple_part_of_jordan_block():
    # [[2,1],[0,2]] has semisimple part 2*I and nilpotent part [[0,1],[0,0]]
    m = linalg.mat([[2, 1], [0, 2]])
    s = linalg.semisimple_part(m)
    assert s == linalg.mat([[2, 0], [0, 2]])
    assert linalg.is_nilpotent_mat(linalg.mat_add(m, linalg.mat_scale(F(-1), s)))


def test_semisimple_part_fixes_diagonalizable():
    m = linalg.mat([[0, -1], [1, 0]])  # eigenvalues +-i, already semisimple
    assert linalg.semisimple_part(m) == m


@given(small_matrix(max_rows=3, max_cols=3).filter(lambda r: len(r) == len(r[0])))
@settings(max_examples=40, deadline=None)
def test_semisimple_part_properties(rows):
    m = linalg.mat(rows)
    s = linalg.semisimple_part(m)
    n = linalg.mat_add(m, linalg.mat_scale(F(-1), s))
    assert linalg.is_nilpotent_mat(n)
    # s is a polynomial in m, so the parts commute
    assert linalg.mat_mul(s, n) == linalg.mat_mul(n, s)


# ---------------------------------------------------------------------------
# The integer core against the Fraction elimination it replaced.
# ---------------------------------------------------------------------------


def fraction_rref(rows):
    """Gauss-Jordan elimination in Fraction arithmetic, zero rows dropped."""
    work = [list(linalg.vec(r)) for r in rows]
    if not work:
        return ()
    pivot_row = 0
    for col in range(len(work[0])):
        pr = next((r for r in range(pivot_row, len(work)) if work[r][col] != 0), None)
        if pr is None:
            continue
        work[pivot_row], work[pr] = work[pr], work[pivot_row]
        inv = 1 / work[pivot_row][col]
        work[pivot_row] = [inv * e for e in work[pivot_row]]
        for r in range(len(work)):
            if r != pivot_row and work[r][col] != 0:
                f = work[r][col]
                work[r] = [e - f * p for e, p in zip(work[r], work[pivot_row])]
        pivot_row += 1
        if pivot_row == len(work):
            break
    return tuple(tuple(r) for r in work[:pivot_row])


def fraction_kernel(rows):
    """The free-variable basis of {x : M x = 0} from ``fraction_rref``, reduced."""
    width = len(rows[0])
    m = fraction_rref(rows)
    pivots = linalg.pivot_columns(m)
    basis = []
    for free in range(width):
        if free not in pivots:
            x = [F(0)] * width
            x[free] = F(1)
            for row, p in zip(m, pivots):
                x[p] = -row[free]
            basis.append(x)
    return fraction_rref(basis)


def fraction_residual(v, rref_rows):
    out = list(linalg.vec(v))
    for row, p in zip(rref_rows, linalg.pivot_columns(rref_rows)):
        c = out[p]
        if c != 0:
            out = [e - c * r for e, r in zip(out, row)]
    return tuple(out)


def fraction_row_coordinates(v, rref_rows):
    out = list(linalg.vec(v))
    coords = []
    for row, p in zip(rref_rows, linalg.pivot_columns(rref_rows)):
        c = out[p]
        coords.append(c)
        if c != 0:
            out = [e - c * r for e, r in zip(out, row)]
    if any(out):
        return None
    return tuple(coords)


def assert_reductions_match(v, canonical):
    sub = row_space(canonical, width=len(v))
    assert sub.matrix == canonical
    res = fraction_residual(v, canonical)
    assert sub.residual(v) == res
    assert sub.contains(v) == (not any(res))
    assert sub.coordinates(v) == fraction_row_coordinates(v, canonical)


def oracle_matrix(rng, rows, cols, big=True):
    """Random rational rows with a zero column, duplicate rows and rank deficiency."""
    if big:
        m = [list(r) for r in random_rational_matrix(rng, rows, cols)]
    else:
        m = [[F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3])) for _ in range(cols)] for _ in range(rows)]
    if cols > 1:
        z = rng.randrange(cols)
        for r in m:
            r[z] = F(0)
    if rows > 2:
        m[rng.randrange(rows)] = list(m[rng.randrange(rows)])
        a, b = rng.sample(range(rows), 2)
        c = F(rng.randint(-3, 3), rng.choice([1, 2, 2**61 - 1]))
        m[rng.randrange(rows)] = [x - c * y for x, y in zip(m[a], m[b])]
    return tuple(tuple(r) for r in m)


ORACLE_SHAPES = [(1, 1), (1, 5), (5, 1), (2, 2), (3, 5), (5, 3), (6, 6), (8, 4), (4, 9)]


def probe_vectors(rng, rows, width):
    """Vectors outside and inside the row space, and the zero vector."""
    probes = [linalg.zero_vec(width), tuple(F(rng.randint(-5, 5), rng.choice([1, 7, 2**61 - 1])) for _ in range(width))]
    probes += [linalg.unit_vec(width, i) for i in range(min(width, 3))]
    for _ in range(2):
        v = linalg.zero_vec(width)
        for r in rows:
            v = linalg.vec_add(v, linalg.vec_scale(F(rng.randint(-4, 4), rng.choice([1, 3])), r))
        probes.append(v)
    return probes


def fraction_solve(rows, rhs, width=None):
    """Free variables zero, read off ``fraction_rref`` of the augmented rows."""
    if not rows:
        return linalg.zero_vec(width)
    ncols = len(rows[0])
    x = [F(0)] * ncols
    for row in fraction_rref([tuple(r) + (b,) for r, b in zip(rows, rhs)]):
        lead = next(j for j, e in enumerate(row) if e != 0)
        if lead == ncols:
            return None
        x[lead] = row[ncols]
    return tuple(x)


@pytest.mark.parametrize("seed", range(8))
def test_integer_core_matches_fraction_oracle(seed):
    rng = random.Random(seed)
    for shape in ORACLE_SHAPES:
        m = oracle_matrix(rng, *shape)
        canonical = linalg.rref(m)
        assert canonical == fraction_rref(m)
        assert all(type(e) is F for row in canonical for e in row)
        width = shape[1]
        rhs = tuple(F(rng.randint(-5, 5), rng.choice([1, 2**61 - 1])) for _ in m)
        consistent = tuple(sum((a * b for a, b in zip(row, m[0])), F(0)) for row in m)
        for v in probe_vectors(rng, canonical, width):
            assert_reductions_match(v, canonical)
        assert linalg.kernel(m) == fraction_kernel(m)
        got = (linalg.solve(m, rhs), linalg.solve(m, consistent))
        assert got == (fraction_solve(m, rhs), fraction_solve(m, consistent))
        assert got[1] is not None


def test_solve_matches_fraction_oracle_on_edge_cases():
    cases = [
        ([[1, 1], [2, 2]], [1, 3], None),  # inconsistent
        ([[0, 0, 0]], [F(1, 2)], None),  # 0 = 1/2
        ([[0, 0, 0]], [0], None),
        ([[F(1, 3), 0, 2], [0, 0, 1], [F(2, 3), 0, 5]], [1, F(-1, 7), F(13, 7)], None),
        ([], [], 4),  # empty: the width gives the length
        ([], [], 0),
        ([[F(2, 3)]], [F(-5, 2)], None),
    ]
    for rows, rhs, width in cases:
        assert linalg.solve(rows, rhs, width) == fraction_solve(rows, rhs, width)
    with pytest.raises(DimensionMismatch):
        linalg.solve([], [])
    with pytest.raises(DimensionMismatch):
        linalg.solve([[1, 2]], [1, 2])


def test_solve_ints_is_solve_in_integers():
    # 2x + 4y = 3 and z = -1: y is free, x = 3/2, z = -1
    assert linalg.solve_ints([[2, 4, 0, 3], [0, 0, 5, -5]], 3) == ([3, 0, -2], 2)
    assert linalg.solve_ints([[1, 1, 1], [2, 2, 3]], 2) is None
    assert linalg.solve_ints([], 3) == ([0, 0, 0], 1)
    assert linalg.solve_ints([[0, 0, 0]], 2) == ([0, 0], 1)
    for bad in ([[1, 2]], [[1, 2, 3], [1, 2]]):
        with pytest.raises(DimensionMismatch):
            linalg.solve_ints(bad, 2)


def test_integer_core_matches_fraction_oracle_60x40():
    rng = random.Random(60)
    m = oracle_matrix(rng, 60, 40, big=False)  # small entries keep the Fraction oracle fast
    # rank deficiency: the last 30 rows are combinations of the first 30
    combos = [[(F(rng.randint(-2, 2)), r) for r in rng.sample(m[:30], 3)] for _ in range(30)]
    m = m[:30] + tuple(tuple(sum((c * r[j] for c, r in combo), F(0)) for j in range(40)) for combo in combos)
    canonical = linalg.rref(m)
    assert canonical == fraction_rref(m)
    assert len(canonical) <= 30
    for v in probe_vectors(rng, canonical, 40):
        assert_reductions_match(v, canonical)
    assert linalg.kernel(m) == fraction_kernel(m)


def test_integer_core_empty_shapes():
    assert linalg.rref([]) == fraction_rref([]) == ()
    assert linalg.rref([(), ()]) == ()
    assert linalg.rref([[0, 0, 0]]) == ()
    assert row_space((), width=0).residual([]) == ()
    assert row_space((), width=2).residual([F(1, 3), F(-2)]) == (F(1, 3), F(-2))
    assert row_space((), width=2).coordinates([0, 0]) == ()
    assert row_space((), width=2).coordinates([1, 0]) is None
    assert row_space((), width=2).contains([0, 0])
    assert linalg.kernel([[0, 0]]) == linalg.identity(2)
    for ragged in ([[1, 2], [1]], [[0, 0], [0]], [[], [1]]):
        with pytest.raises(DimensionMismatch):
            linalg.rref(ragged)


def assert_integer_echelon(pivot_rows, width):
    """Ascending pivots; each row primitive, positive at its pivot, zero at the others."""
    pivots = [p for p, _ in pivot_rows]
    assert pivots == sorted(set(pivots))
    for p, r in pivot_rows:
        assert len(r) == width and all(type(x) is int for x in r)
        assert next(j for j, x in enumerate(r) if x) == p and r[p] > 0
        assert math.gcd(*r) == 1
        assert all(r[q] == 0 for q in pivots if q != p)


@pytest.mark.parametrize("seed", range(6))
def test_rref_ints_matches_rref(seed):
    rng = random.Random(500 + seed)
    matrices = [oracle_matrix(rng, *shape) for shape in ORACLE_SHAPES]
    matrices += [random_rational_matrix(rng, 5, 4), linalg.zero_mat(3, 4)]
    for m in matrices:
        width = len(m[0])
        # any positive scale per row spans the same rows
        scales = [rng.randint(1, 9) for _ in m]
        ints = [[c * x for x in linalg.scaled_ints(r)[0]] for c, r in zip(scales, m)]
        pivot_rows = linalg.rref_ints(ints)
        assert_integer_echelon(pivot_rows, width)
        assert linalg.canonical_rows(pivot_rows) == linalg.rref(m) == fraction_rref(m)
        basis = linalg.kernel_ints(pivot_rows, width)
        assert len(basis) == width - len(pivot_rows)
        assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in ints for x in basis)
        assert linalg.canonical_rows(linalg.rref_ints(basis)) == linalg.kernel(m) == fraction_kernel(m)


def test_rref_ints_empty_shapes():
    assert linalg.rref_ints([]) == []
    assert linalg.rref_ints([[], []]) == []
    assert linalg.rref_ints([[0, 0, 0], [0, 0, 0]]) == []
    assert linalg.kernel_ints([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert linalg.kernel_ints([], 0) == []
    for ragged in ([[1, 2], [1]], [[0, 0], [0]], [[], [1]]):
        with pytest.raises(DimensionMismatch):
            linalg.rref_ints(ragged)


def sympy_rref(sympy, rows):
    """Canonical rows from sympy's rref, zero rows dropped, as Fractions."""
    if not rows:
        return ()
    reduced, _ = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator) for e in r] for r in rows]).rref()
    out = [tuple(F(int(e.p), int(e.q)) for e in reduced.row(i)) for i in range(reduced.rows)]
    return tuple(r for r in out if any(r))


@pytest.mark.parametrize("seed", range(4))
def test_rref_matches_sympy(seed):
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1000 + seed)
    for shape in ORACLE_SHAPES:
        m = oracle_matrix(rng, *shape)
        assert linalg.rref(m) == sympy_rref(sympy, m)


def test_rref_of_rebased_ad_matrices_matches_sympy(ladder_algebra):
    sympy = pytest.importorskip("sympy")
    g = ladder_algebra("sl2+b3", seed=0)
    for i in range(g.dim):
        ad = g.ad(linalg.unit_vec(g.dim, i))
        assert linalg.rref(ad) == sympy_rref(sympy, ad)
