"""Exact linear algebra over the rationals.

Vectors are tuples of ``fractions.Fraction``; matrices are tuples of row
vectors.  No floating point is used anywhere: rank and kernel decisions must
be exact because the fixed-point iterations built on top of them detect
stabilization by syntactic equality of canonical forms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DimensionMismatch, InternalInconsistency

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vec(entries: Iterable) -> Vec:
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


def zero_vec(n: int) -> Vec:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vec:
    return tuple(ONE if j == i else ZERO for j in range(n))


def is_zero_vec(v: Sequence[Fraction]) -> bool:
    return all(e == 0 for e in v)


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(c: Fraction, a: Vec) -> Vec:
    return tuple(c * x for x in a)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def identity(n: int) -> Mat:
    return tuple(unit_vec(n, i) for i in range(n))


def zero_mat(rows: int, cols: int) -> Mat:
    return tuple(zero_vec(cols) for _ in range(rows))


def is_zero_mat(m: Mat) -> bool:
    return all(is_zero_vec(r) for r in m)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def mat_add(a: Mat, b: Mat) -> Mat:
    return tuple(vec_add(x, y) for x, y in zip(a, b))


def mat_scale(c: Fraction, a: Mat) -> Mat:
    return tuple(vec_scale(c, r) for r in a)


def integer_rows(m: Sequence[Sequence]) -> tuple[list[list[tuple[int, int]]], int]:
    """Each row's nonzero entries as (column, integer) pairs, and their scale.

    The scale d is the least common denominator of every entry of m, and
    entry m[r][c] is the integer of pair (c, .) in row r divided by d.
    """
    d = math.lcm(*{e.denominator for row in m for e in row if e})
    return [[(c, e.numerator * (d // e.denominator)) for c, e in enumerate(row) if e] for row in m], d


def over(nums: Sequence[int], den: int) -> Vec:
    """The vector nums / den, one canonical Fraction per entry."""
    return tuple(Fraction(a, den) if a else ZERO for a in nums)


def mat_mul(a: Mat, b: Mat) -> Mat:
    """Exact product a b.

    Both operands are scaled to integer rows over one denominator each; the
    products of nonzero entries are summed in Python ints and each output
    entry is divided once.
    """
    width = len(b[0]) if b else 0
    if a and len(a[0]) != len(b):
        raise DimensionMismatch(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{width}")
    arows, da = integer_rows(a)
    brows, db = integer_rows(b)
    den = da * db
    out = []
    for row in arows:
        acc = [0] * width
        for c, x in row:
            for j, y in brows[c]:
                acc[j] += x * y
        out.append(over(acc, den))
    return tuple(out)


def apply_mat(m: Mat, v: Sequence[Fraction]) -> Vec:
    """Apply an out x in matrix to a length-in coordinate vector."""
    if m and len(m[0]) != len(v):
        raise DimensionMismatch(f"matrix of width {len(m[0])} applied to vector of length {len(v)}")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def mat_pow(m: Mat, k: int) -> Mat:
    n = len(m)
    out = identity(n)
    base = m
    while k > 0:
        if k & 1:
            out = mat_mul(out, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return out


def trace(m: Mat) -> Fraction:
    return sum((m[i][i] for i in range(len(m))), ZERO)


def rref(rows: Iterable[Sequence[Fraction]]) -> Mat:
    """Reduced row echelon form with zero rows dropped and pivots scaled to 1.

    The output is the unique canonical representative of the row space, so
    subspace equality is plain tuple equality of the results.
    """
    work = [list(vec(r)) for r in rows]
    if not work:
        return ()
    ncols = len(work[0])
    for r in work:
        if len(r) != ncols:
            raise DimensionMismatch("ragged matrix")
    pivot_row = 0
    pivot_cols = []
    for col in range(ncols):
        pr = None
        for r in range(pivot_row, len(work)):
            if work[r][col] != 0:
                pr = r
                break
        if pr is None:
            continue
        work[pivot_row], work[pr] = work[pr], work[pivot_row]
        inv = ONE / work[pivot_row][col]
        work[pivot_row] = [inv * e for e in work[pivot_row]]
        for r in range(len(work)):
            if r != pivot_row and work[r][col] != 0:
                f = work[r][col]
                work[r] = [e - f * p for e, p in zip(work[r], work[pivot_row])]
        pivot_cols.append(col)
        pivot_row += 1
        if pivot_row == len(work):
            break
    return tuple(tuple(r) for r in work[:pivot_row])


def pivot_columns(rref_rows: Mat) -> tuple[int, ...]:
    cols = []
    for row in rref_rows:
        for j, e in enumerate(row):
            if e != 0:
                cols.append(j)
                break
    return tuple(cols)


def rank(rows: Iterable[Sequence[Fraction]]) -> int:
    return len(rref(rows))


def residual(v: Sequence[Fraction], rref_rows: Mat) -> Vec:
    """Reduce v against canonical rows; zero iff v lies in their row space.

    The reduction map is linear in v for a fixed canonical basis, which is
    what lets membership conditions enter linear systems.
    """
    out = list(vec(v))
    for row, p in zip(rref_rows, pivot_columns(rref_rows)):
        c = out[p]
        if c != 0:
            out = [e - c * r for e, r in zip(out, row)]
    return tuple(out)


def in_row_space(v: Sequence[Fraction], rref_rows: Mat) -> bool:
    return is_zero_vec(residual(v, rref_rows))


def row_coordinates(v: Sequence[Fraction], rref_rows: Mat) -> Vec | None:
    """Coefficients expressing v over canonical rows, or None if outside."""
    out = list(vec(v))
    coords = []
    for row, p in zip(rref_rows, pivot_columns(rref_rows)):
        c = out[p]
        coords.append(c)
        if c != 0:
            out = [e - c * r for e, r in zip(out, row)]
    if not is_zero_vec(out):
        return None
    return tuple(coords)


def kernel(rows: Iterable[Sequence[Fraction]], width: int | None = None) -> Mat:
    """Canonical basis of {x : M x = 0}, rows of M acting as functionals.

    ``width`` must be given when M has no rows at all (the kernel is then
    the full space).
    """
    rows = [vec(r) for r in rows]
    if rows and width is None:
        width = len(rows[0])
    m = rref(rows)
    if not m:
        if width is None:
            raise DimensionMismatch("kernel of an empty system needs an explicit width")
        return identity(width)
    ncols = len(m[0])
    pivots = pivot_columns(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        x = [ZERO] * ncols
        x[free] = ONE
        for row, p in zip(m, pivots):
            x[p] = -row[free]
        basis.append(tuple(x))
    return rref(basis)


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], width: int | None = None) -> Vec | None:
    """One exact solution of M x = b with free variables set to zero.

    Returns None when the system is inconsistent.  The free-variable
    convention makes every solver-backed construction deterministic.  In
    reduced echelon form every non-pivot coefficient multiplies a free
    variable, so each pivot variable equals its reduced right-hand side.
    """
    if len(rows) != len(rhs):
        raise DimensionMismatch("rhs length does not match row count")
    if not rows:
        if width is None:
            raise DimensionMismatch("solving an empty system needs an explicit width")
        return zero_vec(width)
    ncols = len(rows[0])
    aug = rref([tuple(vec(r)) + (Fraction(b),) for r, b in zip(rows, rhs)])
    x = [ZERO] * ncols
    for row in aug:
        lead = next((j for j in range(ncols) if row[j] != 0), None)
        if lead is None:
            if row[ncols] != 0:
                return None
        else:
            x[lead] = row[ncols]
    return tuple(x)


def det(m: Mat) -> Fraction:
    n = len(m)
    if n == 0:
        return ONE
    work = [list(r) for r in m]
    out = ONE
    for col in range(n):
        pr = next((r for r in range(col, n) if work[r][col] != 0), None)
        if pr is None:
            return ZERO
        if pr != col:
            work[col], work[pr] = work[pr], work[col]
            out = -out
        out *= work[col][col]
        inv = ONE / work[col][col]
        for r in range(col + 1, n):
            if work[r][col] != 0:
                f = work[r][col] * inv
                work[r] = [e - f * p for e, p in zip(work[r], work[col])]
    return out


# ---------------------------------------------------------------------------
# Polynomials over Q: coefficient tuples indexed by power (low order first).
# Used only for the exact Jordan-Chevalley split inside the nilradical.
# ---------------------------------------------------------------------------


def poly_trim(p: Sequence[Fraction]) -> Vec:
    out = list(p)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_deg(p: Sequence[Fraction]) -> int:
    return len(poly_trim(p)) - 1


def poly_add(a, b) -> Vec:
    n = max(len(a), len(b))
    a = tuple(a) + (ZERO,) * (n - len(a))
    b = tuple(b) + (ZERO,) * (n - len(b))
    return poly_trim(vec_add(a, b))


def poly_scale(c: Fraction, a) -> Vec:
    return poly_trim(tuple(c * x for x in a))


def poly_mul(a, b) -> Vec:
    a, b = poly_trim(a), poly_trim(b)
    if not a or not b:
        return ()
    out = [ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_divmod(a, b) -> tuple[Vec, Vec]:
    a, b = list(poly_trim(a)), poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [ZERO] * max(0, len(a) - len(b) + 1)
    inv = ONE / b[-1]
    while len(a) >= len(b) and a:
        c = a[-1] * inv
        d = len(a) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            a[d + i] -= c * y
        while a and a[-1] == 0:
            a.pop()
    return poly_trim(q), poly_trim(a)


def poly_monic(p) -> Vec:
    p = poly_trim(p)
    if not p:
        return ()
    return poly_scale(ONE / p[-1], p)


def poly_gcd(a, b) -> Vec:
    a, b = poly_trim(a), poly_trim(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    return poly_monic(a)


def poly_xgcd(a, b) -> tuple[Vec, Vec, Vec]:
    """Extended Euclid: returns (g, u, v) monic with u*a + v*b = g."""
    r0, r1 = poly_trim(a), poly_trim(b)
    u0, u1 = (ONE,), ()
    v0, v1 = (), (ONE,)
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, poly_add(u0, poly_scale(-ONE, poly_mul(q, u1)))
        v0, v1 = v1, poly_add(v0, poly_scale(-ONE, poly_mul(q, v1)))
    if not r0:
        return (), u0, v0
    lead = ONE / r0[-1]
    return poly_scale(lead, r0), poly_scale(lead, u0), poly_scale(lead, v0)


def poly_derivative(p) -> Vec:
    p = poly_trim(p)
    return poly_trim(tuple(Fraction(i) * p[i] for i in range(1, len(p))))


def squarefree_part(p) -> Vec:
    p = poly_monic(p)
    if poly_deg(p) <= 0:
        return p
    g = poly_gcd(p, poly_derivative(p))
    q, r = poly_divmod(p, g)
    if r:
        raise InternalInconsistency("squarefree division left a remainder")
    return poly_monic(q)


def poly_eval_mat(p, m: Mat) -> Mat:
    n = len(m)
    out = zero_mat(n, n)
    for c in reversed(poly_trim(p)):
        out = mat_mul(out, m)
        if c != 0:
            out = mat_add(out, mat_scale(c, identity(n)))
    return out


def char_poly(m: Mat) -> Vec:
    """Characteristic polynomial (monic, low order first) via Faddeev-LeVerrier."""
    n = len(m)
    coeffs = [ZERO] * (n + 1)
    coeffs[n] = ONE
    mk = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(m, mk)
        c = -trace(am) / k
        coeffs[n - k] = c
        mk = mat_add(am, mat_scale(c, identity(n)))
    return tuple(coeffs)


def is_nilpotent_mat(m: Mat) -> bool:
    n = len(m)
    if n == 0:
        return True
    return is_zero_mat(mat_pow(m, n))


def semisimple_part(m: Mat) -> Mat:
    """Semisimple summand of the Jordan-Chevalley decomposition over Q.

    Newton iteration on the squarefree part g of the characteristic
    polynomial: with u*g + v*g' = 1, the map S -> S - g(S) v(S) squares the
    ideal generated by g(S), so it reaches g(S) = 0 in at most
    ceil(log2(dim)) + 1 steps.  The result is a polynomial in m, hence
    commutes with everything m commutes with.
    """
    n = len(m)
    if n == 0:
        return ()
    f = char_poly(m)
    g = squarefree_part(f)
    one, _, v = poly_xgcd(g, poly_derivative(g))
    if one != (ONE,):
        raise InternalInconsistency("squarefree part is not coprime with its derivative")
    s = m
    for _ in range(n + 2):
        gs = poly_eval_mat(g, s)
        if is_zero_mat(gs):
            return s
        s = mat_add(s, mat_scale(-ONE, mat_mul(gs, poly_eval_mat(v, s))))
    raise InternalInconsistency("Jordan-Chevalley iteration failed to converge")

