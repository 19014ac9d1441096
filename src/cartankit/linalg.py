"""Exact linear algebra over the rationals.

Vectors are tuples of ``fractions.Fraction``; matrices are tuples of row
vectors.  No floating point is used anywhere: rank and kernel decisions must
be exact because the fixed-point iterations built on top of them detect
stabilization by syntactic equality of canonical forms.

``Fraction`` is the interface, Python ints are the inside.  Products,
elimination and reduction scale each row or vector to integers over one
denominator, work fraction-free, and build one canonical ``Fraction`` per
output entry at the end.  Callers that hold integer rows, such as
brackets from the structure table, enter at ``rref_ints``, ``kernel_ints``,
``reduce_ints`` and ``solve_ints``; ``rref``, ``kernel`` and ``solve``
convert and call the same.
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
    rows = [[(c, p, q) for c, (p, q) in enumerate([e.as_integer_ratio() for e in row]) if p] for row in m]
    d = math.lcm(*{q for row in rows for _, _, q in row})
    return [[(c, p * (d // q)) for c, p, q in row] for row in rows], d


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


def scaled_ints(row: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integers and their scale d, the lcm of the denominators: row = ints / d."""
    pairs = [e.as_integer_ratio() for e in row]
    d = math.lcm(*[q for _, q in pairs])
    return [p * (d // q) if p else 0 for p, q in pairs], d


def _clear(r: Sequence[int], pivot: Sequence[int], col: int) -> list[int]:
    """r <- (a/g) r - (b/g) pivot with a, b the entries at col; then primitive."""
    a, b = pivot[col], r[col]
    g = math.gcd(a, b)
    a, b = a // g, b // g
    r = [a * x - b * y for x, y in zip(r, pivot)]
    h = math.gcd(*r)
    return [x // h for x in r] if h > 1 else r


# (pivot column, row) per reduced echelon row, ascending; the row is
# primitive integers, positive at its pivot: the canonical row times that.
PivotRows = list[tuple[int, Sequence[int]]]


def rref_ints(rows: Iterable[Sequence[int]]) -> PivotRows:
    """The reduced echelon form of integer rows, in integers.

    Fraction-free (Bareiss 1968; Cohen 1993, sec. 2.2): rows are divided
    by their content and zero rows dropped at once, and each row with a
    nonzero entry in the pivot column is cleared by cross-multiplication
    and divided by its content again.  Scaling an input row by a positive
    integer does not change the result.
    """
    active: list[Sequence[int]] = []
    widths = set()
    for r in rows:
        widths.add(len(r))
        h = math.gcd(*r)
        if h:
            active.append([x // h for x in r] if h > 1 else r)
    if len(widths) > 1:
        raise DimensionMismatch("ragged matrix")
    ncols = widths.pop() if widths else 0
    done: list[Sequence[int]] = []
    cols: list[int] = []
    for col in range(ncols):
        hits = [i for i, r in enumerate(active) if r[col]]
        if not hits:
            continue
        # the smallest pivot entry keeps the cross-multipliers small
        pivot = active.pop(min(hits, key=lambda i: abs(active[i][col])))
        for block in (active, done):
            for t, r in enumerate(block):
                if r[col]:
                    block[t] = _clear(r, pivot, col)
        active = [r for r in active if any(r)]
        done.append(pivot)
        cols.append(col)
        if not active:
            break
    return [(c, r if r[c] > 0 else [-x for x in r]) for c, r in zip(cols, done)]


def canonical_rows(pivot_rows: PivotRows) -> Mat:
    """The canonical ``Fraction`` rows: each integer row over its pivot entry."""
    return tuple(over(r, r[c]) for c, r in pivot_rows)


def rref(rows: Iterable[Sequence[Fraction]]) -> Mat:
    """Reduced row echelon form with zero rows dropped and pivots scaled to 1.

    The output is the unique canonical representative of the row space, so
    subspace equality is plain tuple equality of the results.  Rows are
    scaled to integers, eliminated by ``rref_ints`` and each divided by its
    pivot entry once at the end.
    """
    return canonical_rows(rref_ints([scaled_ints(vec(r))[0] for r in rows]))


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


# The sparse form of integer echelon rows: per row, its pivot column, the
# nonzero (column, entry) pairs of its integer row, and that row's pivot
# entry, which is positive.
EchelonForm = tuple[tuple[int, tuple[tuple[int, int], ...], int], ...]


def echelon_form(pivot_rows: PivotRows) -> EchelonForm:
    return tuple((p, tuple((j, x) for j, x in enumerate(r) if x), r[p]) for p, r in pivot_rows)


def reduce_ints(v: Sequence[int], s: int, form: EchelonForm) -> tuple[list[int], int]:
    """The residual of v / s against the rows of ``form``, as (integers, scale).

    The running vector starts as the integers v over the scale s.  At each
    pivot p with a nonzero entry c of the running vector, the row is cleared
    by cross-multiplication as in ``rref_ints``: with a the row's pivot
    entry and g = gcd(a, c), the vector is multiplied by a/g and c/g times
    the row is subtracted.  When a/g > 1, s takes the same factor and the
    gcd of s and the entries is divided out.  The residual is the integers
    over s, and it is zero iff the integers are, so the membership test
    needs no division and takes any scale.
    """
    out = list(v)
    for p, pairs, a in form:
        c = out[p]
        if not c:
            continue
        g = math.gcd(a, c)
        a, c = a // g, c // g
        if a != 1:
            out = [a * x for x in out]
            s *= a
        for j, x in pairs:
            out[j] -= c * x
        if a != 1:
            h = math.gcd(s, *out)
            if h > 1:
                out = [x // h for x in out]
                s //= h
    return out, s


def kernel_ints(pivot_rows: PivotRows, width: int) -> list[list[int]]:
    """An integer basis of {x : M x = 0} read off M's ``rref_ints`` rows: per
    free column f, m at f and -r[f] m / r[p] at each pivot p, m an lcm."""
    pivots = {p for p, _ in pivot_rows}
    basis = []
    for f in range(width):
        if f in pivots:
            continue
        hits = [(p, r) for p, r in pivot_rows if r[f]]
        m = math.lcm(*(r[p] for p, r in hits))
        x = [0] * width
        x[f] = m
        for p, r in hits:
            x[p] = -r[f] * (m // r[p])
        basis.append(x)
    return basis


def kernel(rows: Iterable[Sequence[Fraction]], width: int | None = None) -> Mat:
    """Canonical basis of {x : M x = 0}, rows of M acting as functionals.

    ``width`` must be given when M has no rows at all (the kernel is then
    the full space).
    """
    rows = [scaled_ints(vec(r))[0] for r in rows]
    if rows:
        width = len(rows[0])
    elif width is None:
        raise DimensionMismatch("kernel of an empty system needs an explicit width")
    return canonical_rows(rref_ints(kernel_ints(rref_ints(rows), width)))


def solve_ints(rows: Sequence[Sequence[int]], width: int) -> tuple[list[int], int] | None:
    """One solution of M x = b from the integer rows [M | b], M of ``width``
    columns, as (integers, denominator); None when it is inconsistent.

    Free variables are zero, which makes every solver-backed construction
    deterministic: in reduced echelon form each pivot variable is then its
    row's last entry over its pivot entry.  A pivot in the last column is
    an equation 0 = c with c nonzero.
    """
    if any(len(r) != width + 1 for r in rows):
        raise DimensionMismatch(f"augmented rows must have length {width + 1}")
    pivot_rows = rref_ints(rows)
    if pivot_rows and pivot_rows[-1][0] == width:
        return None
    den = math.lcm(*(r[c] for c, r in pivot_rows))
    x = [0] * width
    for c, r in pivot_rows:
        x[c] = r[width] * (den // r[c])
    return x, den


def solve(rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], width: int | None = None) -> Vec | None:
    """One exact solution of M x = b with free variables set to zero, or None
    when the system is inconsistent: ``solve_ints`` on the scaled rows."""
    if len(rows) != len(rhs):
        raise DimensionMismatch("rhs length does not match row count")
    if rows:
        width = len(rows[0])
    elif width is None:
        raise DimensionMismatch("solving an empty system needs an explicit width")
    solution = solve_ints([scaled_ints(vec(tuple(r) + (b,)))[0] for r, b in zip(rows, rhs)], width)
    return None if solution is None else over(*solution)


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

