"""Structure-constant Lie algebras over exact rationals.

An algebra is given by sparse constants c^k_{ij} for i < j; the (j, i) side
is derived, so antisymmetry cannot be broken by construction.  A subspace is
its canonical integer echelon form, built the moment the subspace is, and all
equality is syntactic equality of those forms; its ``Fraction`` rows are a
view.  Every object is an immutable value after construction.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import linalg
from .errors import DimensionMismatch, InternalInconsistency, JacobiViolation, NotClosed, NotIdeal
from .linalg import Mat, Vec

# Above this dimension the O(dim^4) construction-time Jacobi sweep must be
# requested explicitly.
JACOBI_CHECK_LIMIT = 32


def per_algebra(fn):
    """Compute ``fn(g)`` once per algebra instance and keep it on the instance.

    Algebras are immutable after construction, so a derived invariant never
    goes stale.  The memo is keyed by identity of the instance, not by
    equality, and a call that raises stores nothing.
    """

    @functools.wraps(fn)
    def memoized(g):
        memo = g._memo
        if fn not in memo:
            memo[fn] = fn(g)
        return memo[fn]

    return memoized


class LieAlgebra:
    """A finite-dimensional Lie algebra over Q in a fixed basis.

    The structure constants are held once, as a sparse integer table over
    their least common denominator D: ``_ints[i]`` maps j to the pairs
    (k, D c^k_ij) with a nonzero coefficient, ascending in k, and has no
    key j where [e_i, e_j] = 0.  The bracket, ``ad``, the Killing form and
    the Jacobi sweep sum Python ints over this table and divide once per
    output entry, so every result is an exact, canonical ``Fraction``.
    """

    def __init__(
        self,
        dim: int,
        structure_constants: Mapping[tuple[int, int], Mapping[int, object]],
        basis_labels: Sequence[str] | None = None,
        check_jacobi: bool | None = None,
        name: str | None = None,
    ):
        if dim < 0:
            raise DimensionMismatch("dimension must be non-negative")
        self.dim = dim
        self.name = name  # display metadata; not part of equality
        if basis_labels is None:
            basis_labels = tuple(f"e{i}" for i in range(dim))
        else:
            basis_labels = tuple(basis_labels)
            if len(basis_labels) != dim:
                raise DimensionMismatch("basis label count does not match dimension")
        self.basis_labels = basis_labels

        constants: dict[tuple[int, int], list[tuple[int, Fraction]]] = {}
        for (i, j), entry in structure_constants.items():
            if not (0 <= i < j < dim):
                raise DimensionMismatch(f"structure constant key ({i},{j}) needs 0 <= i < j < dim={dim}")
            row: dict[int, Fraction] = {}
            for k, c in entry.items():
                if not (0 <= int(k) < dim):
                    raise DimensionMismatch(f"structure constant target index {k} out of range")
                row[int(k)] = Fraction(c)
            nonzero = sorted((k, c) for k, c in row.items() if c != 0)
            if nonzero:
                constants[(i, j)] = nonzero
        d = math.lcm(*(c.denominator for pairs in constants.values() for _, c in pairs))
        ints: list[dict[int, tuple[tuple[int, int], ...]]] = [{} for _ in range(dim)]
        for (i, j), pairs in constants.items():
            scaled = tuple((k, c.numerator * (d // c.denominator)) for k, c in pairs)
            ints[i][j] = scaled
            ints[j][i] = tuple((k, -c) for k, c in scaled)
        self._d = d
        self._ints = tuple(ints)
        # D and the scaled constants determine the constants and vice versa
        self._canonical = (d, tuple(sorted((key, ints[key[0]][key[1]]) for key in constants)))
        self._memo: dict = {}  # derived invariants, filled by per_algebra

        if check_jacobi is None:
            check_jacobi = dim <= JACOBI_CHECK_LIMIT
        if check_jacobi:
            self._check_jacobi()

    def _check_jacobi(self) -> None:
        # each term is quadratic in the constants, so the sum is D^2 times
        # the Jacobiator and the zero test needs no division
        ints = self._ints
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    acc = [0] * self.dim
                    for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                        for m, cm in ints[a].get(b, ()):
                            for l, cl in ints[m].get(c, ()):
                                acc[l] += cm * cl
                    if any(acc):
                        raise JacobiViolation((i, j, k), linalg.over(acc, self._d * self._d))

    def _bracket_ints(self, xs, ys) -> list[int]:
        """D times [x, y] for integer (index, entry) pairs of x and y."""
        ints = self._ints
        acc = [0] * self.dim
        for i, xi in xs:
            row = ints[i]
            for j, yj in ys:
                pairs = row.get(j)
                if pairs:
                    f = xi * yj
                    for k, c in pairs:
                        acc[k] += f * c
        return acc

    def bracket_basis(self, i: int, j: int) -> Vec:
        acc = [0] * self.dim
        for k, c in self._ints[i].get(j, ()):
            acc[k] = c
        return linalg.over(acc, self._d)

    def bracket_basis_vec(self, i: int, y: Sequence) -> Vec:
        """[e_i, y] from the integer table; one Fraction per output entry."""
        (ys,), dy = linalg.integer_rows((y,))
        return linalg.over(self._bracket_ints(((i, 1),), ys), dy * self._d)

    def bracket(self, x: Sequence, y: Sequence) -> Vec:
        """[x, y] by bilinear extension of the structure constants.

        x and y are scaled to integers and the products x_i y_j c^k_ij are
        summed in Python ints; each output entry is divided once.
        """
        if len(x) != self.dim or len(y) != self.dim:
            raise DimensionMismatch(f"bracket arguments must have length {self.dim}")
        (xs,), dx = linalg.integer_rows((x,))
        (ys,), dy = linalg.integer_rows((y,))
        return linalg.over(self._bracket_ints(xs, ys), dx * dy * self._d)

    def ad(self, x: Sequence) -> Mat:
        """Matrix of ad(x): y -> [x, y] acting on coordinate vectors.

        Column j is [x, e_j]; x is scaled to integers and each entry is
        divided once.
        """
        if len(x) != self.dim:
            raise DimensionMismatch(f"ad argument must have length {self.dim}")
        (xs,), dx = linalg.integer_rows((x,))
        acc = [[0] * self.dim for _ in range(self.dim)]
        for i, xi in xs:
            for j, pairs in self._ints[i].items():
                for k, c in pairs:
                    acc[k][j] += xi * c
        den = dx * self._d
        return tuple(linalg.over(row, den) for row in acc)

    @per_algebra
    def whole(self) -> "Subalgebra":
        return Subalgebra._from_ints(self, [[int(i == j) for j in range(self.dim)] for i in range(self.dim)])

    def zero_subspace(self) -> "Subspace":
        return Subspace(self, ())

    def zero_subalgebra(self) -> "Subalgebra":
        return Subalgebra(self, ())

    def label_vector(self, v: Sequence) -> str:
        """Render a coordinate vector as a combination of basis labels."""
        parts = []
        for c, name in zip(v, self.basis_labels):
            c = Fraction(c)
            if c == 0:
                continue
            if c == 1:
                parts.append(f"+ {name}")
            elif c == -1:
                parts.append(f"- {name}")
            elif c < 0:
                parts.append(f"- {-c}*{name}")
            else:
                parts.append(f"+ {c}*{name}")
        if not parts:
            return "0"
        first = parts[0]
        first = first[2:] if first.startswith("+ ") else "-" + first[2:]
        return " ".join([first] + parts[1:])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LieAlgebra)
            and self.dim == other.dim
            and self.basis_labels == other.basis_labels
            and self._canonical == other._canonical
        )

    def __hash__(self) -> int:
        return hash((self.dim, self.basis_labels, self._canonical))

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim}, labels={list(self.basis_labels)})"


class Subspace:
    """A linear subspace, identified by its canonical integer echelon form.

    ``_echelon`` (``linalg.EchelonForm``: primitive rows, positive at their
    pivots) is the whole state; equality, membership, residuals and bracket
    spans work on it in Python ints.  ``matrix``, the canonical ``Fraction``
    rows, is a view built on first use.  ``Subspace(g, rows)`` converts
    rational rows and ``_from_ints`` integer rows; a subspace passed as
    ``rows`` is retyped with no elimination, running only the class's check.
    """

    def __init__(self, ambient: LieAlgebra, rows: Iterable[Sequence] | Subspace):
        self.ambient = ambient
        if isinstance(rows, Subspace):
            self._require_same_ambient(rows)
            self._echelon = rows._echelon
            return
        rows = [linalg.vec(r) for r in rows]
        for r in rows:
            if len(r) != ambient.dim:
                raise DimensionMismatch(f"subspace row of length {len(r)} in ambient of dim {ambient.dim}")
        self.matrix = linalg.rref(rows)
        # a canonical row over the lcm d of its denominators is primitive, and d sits first at its pivot
        self._echelon = linalg.echelon_form([(r.index(d), r) for r, d in map(linalg.scaled_ints, self.matrix)])

    @property
    def dim(self) -> int:
        return len(self._echelon)

    @classmethod
    def _from_ints(cls, ambient: LieAlgebra, rows: Iterable[Sequence[int]]) -> "Subspace":
        """The span of integer rows, with no check of the subclass."""
        obj = cls.__new__(cls)
        obj.ambient = ambient
        obj._echelon = linalg.echelon_form(linalg.rref_ints(rows))
        return obj

    def _rows_ints(self) -> list[list[int]]:
        """The integer echelon rows, dense."""
        rows = []
        for _, pairs, _ in self._echelon:
            row = [0] * self.ambient.dim
            for j, x in pairs:
                row[j] = x
            rows.append(row)
        return rows

    @functools.cached_property
    def matrix(self) -> Mat:
        """The canonical rows: each integer row over its pivot entry."""
        return tuple(linalg.over(r, a) for r, (_, _, a) in zip(self._rows_ints(), self._echelon))

    def _fit(self, v: Sequence) -> Vec:
        if len(v) != self.ambient.dim:
            raise DimensionMismatch("vector length does not match ambient dimension")
        return linalg.vec(v)

    def _contains_ints(self, v: Sequence[int]) -> bool:
        return not any(linalg.reduce_ints(v, 1, self._echelon)[0])

    def contains(self, v: Sequence) -> bool:
        return self._contains_ints(linalg.scaled_ints(self._fit(v))[0])

    def contains_subspace(self, other: "Subspace") -> bool:
        self._require_same_ambient(other)
        return all(self._contains_ints(r) for r in other._rows_ints())

    def residual(self, v: Sequence) -> Vec:
        return linalg.over(*linalg.reduce_ints(*linalg.scaled_ints(self._fit(v)), self._echelon))

    def coordinates(self, v: Sequence) -> Vec | None:
        # every other canonical row is zero at a row's pivot column
        v = self._fit(v)
        return tuple(v[p] for p, _, _ in self._echelon) if self.contains(v) else None

    def sum(self, other: "Subspace") -> "Subspace":
        self._require_same_ambient(other)
        return Subspace._from_ints(self.ambient, self._rows_ints() + other._rows_ints())

    def intersect(self, other: "Subspace") -> "Subspace":
        self._require_same_ambient(other)
        n = self.ambient.dim
        # x is in sub iff reducing x against sub's rows leaves zero
        units = [[1 if j == i else 0 for j in range(n)] for i in range(n)]
        conditions = _residual_conditions(self, units) + _residual_conditions(other, units)
        return _kernel_subspace(self.ambient, conditions)

    def _require_same_ambient(self, other: "Subspace") -> None:
        if self.ambient.dim != other.ambient.dim:
            raise DimensionMismatch("subspaces live in different ambient dimensions")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient == other.ambient
            and self._echelon == other._echelon
        )

    def __hash__(self) -> int:
        return hash((self.ambient, self._echelon))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim} of {self.ambient.dim})"


def _text(v) -> str:
    """A vector as error messages write it: (1, 0, -3/2)."""
    return f"({', '.join(map(str, v))})"


class Subalgebra(Subspace):
    """A subspace closed under the bracket."""

    def __init__(self, ambient: LieAlgebra, rows: Iterable[Sequence] | Subspace):
        super().__init__(ambient, rows)
        # antisymmetry handles the diagonal and the transposed pairs; the
        # integer rows are positive multiples of the canonical ones
        pairs = [r for _, r, _ in self._echelon]
        for i, x in enumerate(pairs):
            for j in range(i + 1, len(pairs)):
                if not self._contains_ints(ambient._bracket_ints(x, pairs[j])):
                    a, b = self.matrix[i], self.matrix[j]
                    raise NotClosed(
                        f"bracket of basis rows leaves the span: "
                        f"[{_text(a)}, {_text(b)}] = {_text(ambient.bracket(a, b))}"
                    )


class Ideal(Subalgebra):
    """A subalgebra stable under bracketing with the whole algebra."""

    def __init__(self, ambient: LieAlgebra, rows: Iterable[Sequence] | Subspace):
        Subspace.__init__(self, ambient, rows)
        escape = _escaping_bracket(self)
        if escape:
            i, t = escape
            a = self.matrix[t]
            raise NotIdeal(
                f"[{ambient.basis_labels[i]}, row] leaves the span: "
                f"row {_text(a)}, bracket {_text(ambient.bracket_basis_vec(i, a))}"
            )


class Subquotient:
    """Coordinates on U/L for subspaces L <= U of one algebra.

    The residual of a vector modulo L's canonical rows vanishes at L's pivot
    columns, and the residuals of U's rows span a complement of L in U + L.
    ``basis`` is the canonical form of those residuals, so the coordinates
    of v + L are the entries of v's residual at the pivot columns of
    ``basis`` (de Graaf, *Lie Algebras: Theory and Algorithms*, 2000, ch. 1
    and 4).  A quotient g/I, a subalgebra in its own basis (L = 0) and a
    layer J_i/J_{i+1} of the nilradical's flag all take coordinates this
    way.  When L does not lie in U, the maps describe (U + L)/L.
    """

    def __init__(self, upper: Subspace, lower: Subspace):
        upper._require_same_ambient(lower)
        self.upper = upper
        self.lower = lower
        # modulo 0 the residuals are U's canonical rows themselves
        self.basis = upper
        if lower.dim:
            residuals = [linalg.reduce_ints(u, 1, lower._echelon)[0] for u in upper._rows_ints()]
            self.basis = Subspace._from_ints(upper.ambient, residuals)

    @property
    def dim(self) -> int:
        return self.basis.dim

    def _push_ints(self, v: Sequence[int]) -> tuple[list[int], int]:
        """Coordinates of v + L as (integers, scale): the residual's entries at
        the pivots of ``basis``.

        The pushes and ``operator`` take vectors of U + L by construction, so
        a vector outside signals a bug and raises InternalInconsistency.
        """
        res, s = linalg.reduce_ints(v, 1, self.lower._echelon)
        if not self.basis._contains_ints(res):
            raise InternalInconsistency("vector lies outside the subquotient")
        return [res[p] for p, _, _ in self.basis._echelon], s

    def push_vector(self, v: Sequence) -> Vec:
        """Coordinates of v + L over ``basis``."""
        ints, d = linalg.scaled_ints(self.lower._fit(v))
        pushed, s = self._push_ints(ints)
        return linalg.over(pushed, s * d)

    def push_subspace(self, sub: Subspace) -> Subspace:
        return Subspace._from_ints(self.target, [self._push_ints(r)[0] for r in sub._rows_ints()])

    def lift_vector(self, v: Sequence) -> Vec:
        """The element sum_t v_t b_t of U, for coordinates v over ``basis``."""
        if len(v) != self.dim:
            raise DimensionMismatch(f"subquotient coordinates must have length {self.dim}")
        if not v:
            return linalg.zero_vec(self.upper.ambient.dim)
        return linalg.mat_mul((linalg.vec(v),), self.basis.matrix)[0]

    def preimage_subspace(self, sub: Subspace) -> Subspace:
        """The full preimage of a subspace of the target: its lift plus L."""
        return Subspace(self.upper.ambient, [self.lift_vector(r) for r in sub.matrix]).sum(self.lower)

    def operator(self, x: Sequence) -> Mat:
        """Matrix of ad x on U/L: column t holds the coordinates of [x, b_t]."""
        g = self.upper.ambient
        (xs,), dx = linalg.integer_rows((self.lower._fit(x),))
        cols = []
        for _, r, a in self.basis._echelon:
            pushed, s = self._push_ints(g._bracket_ints(xs, r))
            cols.append(linalg.over(pushed, s * g._d * dx * a))  # b_t = r / a
        return linalg.transpose(tuple(cols))

    @functools.cached_property
    def target(self) -> LieAlgebra:
        """U/L as an algebra in ``basis``; L must be an ideal of U.

        Its constants are the coordinates of the brackets of basis rows, and
        its labels are the ambient labels at the pivot columns of ``basis``.
        A bracket that leaves U + L raises NotClosed.
        """
        g = self.upper.ambient
        rows = self.basis._echelon
        constants: dict[tuple[int, int], dict[int, Fraction]] = {}
        for i, (_, x, a) in enumerate(rows):
            for j in range(i + 1, len(rows)):
                _, y, b = rows[j]
                try:
                    pushed, s = self._push_ints(g._bracket_ints(x, y))
                except InternalInconsistency:
                    raise NotClosed(f"bracket of basis rows {i},{j} leaves the subquotient") from None
                entry = {k: Fraction(c, s * g._d * a * b) for k, c in enumerate(pushed) if c}
                if entry:
                    constants[(i, j)] = entry
        labels = [g.basis_labels[p] for p, _, _ in rows]
        return LieAlgebra(len(rows), constants, labels)


def subalgebra_closure(ambient: LieAlgebra, vectors: Iterable[Sequence]) -> Subalgebra:
    """Smallest bracket-closed subspace containing the vectors."""
    current = Subspace(ambient, vectors)
    while True:
        bigger = current.sum(bracket_span(current, current))
        if bigger == current:
            return Subalgebra(ambient, current)
        current = bigger


def bracket_span(a: Subspace, b: Subspace) -> Subspace:
    """Span of [a_i, b_j] over basis rows; the subspace [A, B].

    The integer rows are positive multiples of the canonical rows, so their
    integer brackets span the same space; with equal rows only i < j count.
    """
    a._require_same_ambient(b)
    g = a.ambient
    xs = [r for _, r, _ in a._echelon]
    if a._echelon == b._echelon:
        rows = [g._bracket_ints(x, y) for i, x in enumerate(xs) for y in xs[i + 1 :]]
    else:
        rows = [g._bracket_ints(x, y) for x in xs for _, y, _ in b._echelon]
    return Subspace._from_ints(g, rows)


def _residual_conditions(sub: Subspace, cols: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Integer rows of x -> residual of sum_i x_i cols[i] modulo sub: the
    columns' residuals, brought to the lcm of their scales, transposed."""
    reduced = [linalg.reduce_ints(c, 1, sub._echelon) for c in cols]
    m = math.lcm(*(s for _, s in reduced))
    return list(zip(*([x * (m // s) for x in r] for r, s in reduced)))


def _kernel_subspace(g: LieAlgebra, conditions: Sequence[Sequence[int]]) -> Subspace:
    """{x : c x = 0 for every integer condition row c}."""
    return Subspace._from_ints(g, linalg.kernel_ints(linalg.rref_ints(conditions), g.dim))


def normalizer(sub: Subspace) -> Subspace:
    """{x : [x, L] is contained in L}, by exact linear solving."""
    g = sub.ambient
    conditions = []
    for _, r, _ in sub._echelon:
        conditions += _residual_conditions(sub, [g._bracket_ints(((i, 1),), r) for i in range(g.dim)])
    return _kernel_subspace(g, conditions)


def centralizer(sub: Subspace) -> Subspace:
    """{x : [x, s] = 0 for every s in S}; centralizer(whole) is the center."""
    g = sub.ambient
    conditions = []
    for _, r, _ in sub._echelon:
        conditions += zip(*[g._bracket_ints(((i, 1),), r) for i in range(g.dim)])
    return _kernel_subspace(g, conditions)


def lower_central_series(sub: Subspace) -> list[Subspace]:
    """A = A^1 >= A^2 = [A, A^1] >= ... until stabilization."""
    series = [sub]
    while True:
        nxt = bracket_span(sub, series[-1])
        if nxt == series[-1]:
            return series
        series.append(nxt)


def derived_series(sub: Subspace) -> list[Subspace]:
    series = [sub]
    while True:
        nxt = bracket_span(series[-1], series[-1])
        if nxt == series[-1]:
            return series
        series.append(nxt)


def is_nilpotent(sub: Subspace) -> bool:
    return lower_central_series(sub)[-1].dim == 0


def is_solvable(sub: Subspace) -> bool:
    return derived_series(sub)[-1].dim == 0


@per_algebra
def killing_form(g: LieAlgebra) -> Mat:
    """k(e_i, e_j) = trace(ad e_i o ad e_j); symmetric and invariant.

    Read off the integer table as k(e_i, e_j) = sum over k, l of
    c^l_ik c^k_jl, summed over the nonzero constants in Python ints and
    divided by D^2 once per entry; no ad matrix is built.
    """
    n = g.dim
    # ads[i][(l, k)] = D c^l_ik, the nonzero entries of D ad(e_i)
    ads = [{(l, k): c for k, pairs in row.items() for l, c in pairs} for row in g._ints]
    form = [[linalg.ZERO] * n for _ in range(n)]
    d2 = g._d * g._d
    for i in range(n):
        for j in range(i, n):
            aj = ads[j]
            s = sum(c * aj.get((k, l), 0) for (l, k), c in ads[i].items())
            if s:
                form[i][j] = form[j][i] = Fraction(s, d2)
    return tuple(tuple(row) for row in form)


def killing_value(form: Mat, x: Sequence, y: Sequence) -> Fraction:
    """x^T form y, over the nonzero products x_i k_ij y_j only.

    No entry is converted to ``Fraction``; the value is one all the same,
    as the sum starts at ``linalg.ZERO``.  Only ``verify`` and the tests
    call it.
    """
    ys = [(j, yj) for j, yj in enumerate(y) if yj]
    return sum((xi * row[j] * yj for xi, row in zip(x, form) if xi for j, yj in ys if row[j]), linalg.ZERO)


def _escaping_bracket(sub: Subspace) -> tuple[int, int] | None:
    """(i, t) for the first [e_i, row t] outside sub, or None for an ideal."""
    g = sub.ambient
    for i in range(g.dim):
        for t, (_, r, _) in enumerate(sub._echelon):
            if not sub._contains_ints(g._bracket_ints(((i, 1),), r)):
                return i, t
    return None


def is_ideal(sub: Subspace) -> bool:
    return _escaping_bracket(sub) is None
