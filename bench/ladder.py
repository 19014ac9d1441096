"""Generated algebra ladder with closed-form oracles.

Classical families in their standard sparse integral bases:

- ``gl_n``: matrix units E_ij, dim n^2;
- ``sl_n``: off-diagonal E_ij plus H_i = E_ii - E_(i+1)(i+1), dim n^2 - 1;
- ``b_n``: upper-triangular E_ij (i <= j), dim n(n+1)/2;
- ``n_n``: strictly upper-triangular E_ij (i < j), dim n(n-1)/2;
- ``h_(2k+1)``: Heisenberg x_1..x_k, y_1..y_k, z with [x_i, y_i] = z;

plus direct sums and a seeded change of basis.  Each generated algebra
carries its invariants in closed form (de Graaf, *Lie Algebras: Theory and
Algorithms*, 2000): rank (gl_n: n, sl_n: n - 1, b_n: n, nilpotent: dim),
the dimensions of the radical, nilradical, Levi part and centre.  All of
them are dimensions of canonical subspaces, so they survive any change of
basis.

The module is standard library only and does not import ``cartankit``, so
it stays an independent oracle for what the package computes.
"""

from __future__ import annotations

import functools
import random
import re
from dataclasses import dataclass
from fractions import Fraction

Constants = dict[tuple[int, int], dict[int, Fraction]]


@dataclass(frozen=True)
class Invariants:
    rank: int
    radical: int
    nilradical: int
    levi: int
    centre: int

    def __add__(self, other: "Invariants") -> "Invariants":
        return Invariants(*(a + b for a, b in zip(self._values(), other._values())))

    def _values(self):
        return (self.rank, self.radical, self.nilradical, self.levi, self.centre)


@dataclass(frozen=True)
class LadderAlgebra:
    """Structure constants, one spanning set of the centre, and the oracles."""

    name: str
    labels: tuple[str, ...]
    constants: Constants
    centre: tuple[tuple[Fraction, ...], ...]
    oracle: Invariants

    @property
    def dim(self) -> int:
        return len(self.labels)

    @property
    def solvable(self) -> bool:
        return self.oracle.radical == self.dim

    def to_json(self) -> dict:
        """The algebra file format ``cartankit`` loads; rationals as strings."""
        return {
            "name": self.name,
            "dim": self.dim,
            "basis": list(self.labels),
            "brackets": {
                f"{i},{j}": {str(k): str(c) for k, c in sorted(row.items())}
                for (i, j), row in sorted(self.constants.items())
            },
        }


# ---------------------------------------------------------------------------
# Matrix families
# ---------------------------------------------------------------------------


def _matrix_algebra(name: str, n: int, positions, traceless: bool, centre, oracle: Invariants) -> LadderAlgebra:
    """Subalgebra of gl_n spanned by E_ij for ``positions`` (plus H_i if traceless).

    With ``traceless`` the diagonal is spanned by H_i = E_ii - E_(i+1)(i+1);
    a traceless diagonal d has coordinate d_0 + ... + d_i on H_i.  ``centre``
    lists n x n matrices (as {(row, col): entry}) spanning the centre.
    """
    units = [(i, j) for i, j in positions if i != j]  # off-diagonal first, then E_ii
    if not traceless:
        units += [(i, j) for i, j in positions if i == j]
    index = {p: a for a, p in enumerate(units)}
    labels = [f"E{i}{j}" for i, j in units]
    h_base = len(units)
    if traceless:
        labels += [f"H{i}" for i in range(n - 1)]
    dim = len(labels)

    def basis_matrix(a: int) -> dict[tuple[int, int], int]:
        if a < h_base:
            return {units[a]: 1}
        i = a - h_base
        return {(i, i): 1, (i + 1, i + 1): -1}

    def coordinates(m: dict[tuple[int, int], int]) -> dict[int, Fraction]:
        out = {index[p]: Fraction(v) for p, v in m.items() if v and not (traceless and p[0] == p[1])}
        if traceless:
            running = 0
            for i in range(n - 1):
                running += m.get((i, i), 0)
                if running:
                    out[h_base + i] = Fraction(running)
        return out

    def commutator(x, y):
        out: dict[tuple[int, int], int] = {}
        for (r, s), u in x.items():
            for (t, w), v in y.items():
                if s == t:
                    out[(r, w)] = out.get((r, w), 0) + u * v
                if w == r:
                    out[(t, s)] = out.get((t, s), 0) - u * v
        return {p: v for p, v in out.items() if v}

    mats = [basis_matrix(a) for a in range(dim)]
    constants: Constants = {}
    for a in range(dim):
        for b in range(a + 1, dim):
            row = coordinates(commutator(mats[a], mats[b]))
            if row:
                constants[(a, b)] = row

    def dense(m) -> tuple[Fraction, ...]:
        sparse = coordinates(m)
        return tuple(sparse.get(a, Fraction(0)) for a in range(dim))

    return LadderAlgebra(name, tuple(labels), constants, tuple(dense(m) for m in centre), oracle)


def _identity(n: int) -> dict[tuple[int, int], int]:
    return {(i, i): 1 for i in range(n)}


def gl(n: int) -> LadderAlgebra:
    positions = [(i, j) for i in range(n) for j in range(n)]
    oracle = Invariants(rank=n, radical=1, nilradical=1, levi=n * n - 1, centre=1)
    return _matrix_algebra(f"gl{n}", n, positions, False, [_identity(n)], oracle)


def sl(n: int) -> LadderAlgebra:
    positions = [(i, j) for i in range(n) for j in range(n)]
    oracle = Invariants(rank=n - 1, radical=0, nilradical=0, levi=n * n - 1, centre=0)
    return _matrix_algebra(f"sl{n}", n, positions, True, [], oracle)


def borel(n: int) -> LadderAlgebra:
    positions = [(i, j) for i in range(n) for j in range(i, n)]
    dim = n * (n + 1) // 2
    # the scalars are central, so the nilradical is n_n plus the centre
    oracle = Invariants(rank=n, radical=dim, nilradical=n * (n - 1) // 2 + 1, levi=0, centre=1)
    return _matrix_algebra(f"b{n}", n, positions, False, [_identity(n)], oracle)


def strictly_upper(n: int) -> LadderAlgebra:
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    dim = n * (n - 1) // 2
    oracle = Invariants(rank=dim, radical=dim, nilradical=dim, levi=0, centre=1)
    return _matrix_algebra(f"n{n}", n, positions, False, [{(0, n - 1): 1}], oracle)


def heisenberg(dim: int) -> LadderAlgebra:
    if dim < 3 or dim % 2 == 0:
        raise ValueError(f"Heisenberg algebras have odd dimension >= 3, got {dim}")
    k = (dim - 1) // 2
    labels = [f"x{i + 1}" for i in range(k)] + [f"y{i + 1}" for i in range(k)] + ["z"]
    constants = {(i, k + i): {dim - 1: Fraction(1)} for i in range(k)}
    centre = (tuple(Fraction(1 if a == dim - 1 else 0) for a in range(dim)),)
    oracle = Invariants(rank=dim, radical=dim, nilradical=dim, levi=0, centre=1)
    return LadderAlgebra(f"h{dim}", tuple(labels), constants, centre, oracle)


def direct_sum(a: LadderAlgebra, b: LadderAlgebra) -> LadderAlgebra:
    shift = a.dim
    constants = dict(a.constants)
    for (i, j), row in b.constants.items():
        constants[(i + shift, j + shift)] = {k + shift: c for k, c in row.items()}
    zero_a = (Fraction(0),) * a.dim
    zero_b = (Fraction(0),) * b.dim
    centre = tuple(v + zero_b for v in a.centre) + tuple(zero_a + v for v in b.centre)
    labels = tuple(f"{a.name}.{x}" for x in a.labels) + tuple(f"{b.name}.{x}" for x in b.labels)
    return LadderAlgebra(f"{a.name}+{b.name}", labels, constants, centre, a.oracle + b.oracle)


_FAMILIES = {"gl": gl, "sl": sl, "b": borel, "n": strictly_upper, "h": heisenberg}


def family(spec: str) -> LadderAlgebra:
    """Build an algebra from a name such as ``gl3``, ``h7`` or ``sl2+b3``."""
    return functools.reduce(direct_sum, map(_single, spec.split("+")))


def _single(spec: str) -> LadderAlgebra:
    match = re.fullmatch(r"(gl|sl|b|n|h)(\d+)", spec)
    if match is None:
        raise ValueError(f"unknown ladder algebra {spec!r}")
    return _FAMILIES[match.group(1)](int(match.group(2)))


# ---------------------------------------------------------------------------
# Seeded change of basis
# ---------------------------------------------------------------------------


def _inverse(p: list[list[int]]) -> list[list[Fraction]] | None:
    """Exact inverse by Gauss-Jordan elimination; None when singular."""
    n = len(p)
    aug = [[Fraction(x) for x in row] + [Fraction(int(r == c)) for c in range(n)] for r, row in enumerate(p)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def random_basis(dim: int, rng: random.Random):
    """An invertible integer matrix with entries in [-2, 2], and its inverse."""
    while True:
        p = [[rng.randint(-2, 2) for _ in range(dim)] for _ in range(dim)]
        p_inv = _inverse(p)
        if p_inv is not None:
            return p, p_inv


def rebase(alg: LadderAlgebra, rng: random.Random) -> LadderAlgebra:
    """The same algebra in the basis f_a = sum_i P[a][i] e_i for a random P.

    A coordinate row vector v in the old basis becomes v P^-1 in the new one,
    so [f_a, f_b] = sum_ij P[a][i] P[b][j] [e_i, e_j], rewritten by P^-1.
    """
    n = alg.dim
    p, p_inv = random_basis(n, rng)

    def to_new(v) -> list[Fraction]:
        return [sum((v[i] * p_inv[i][k] for i in range(n) if v[i]), Fraction(0)) for k in range(n)]

    table = {}
    for (i, j), row in alg.constants.items():
        table[(i, j)] = row
        table[(j, i)] = {k: -c for k, c in row.items()}
    constants: Constants = {}
    for a in range(n):
        for b in range(a + 1, n):
            old = [Fraction(0)] * n
            for i in range(n):
                if not p[a][i]:
                    continue
                for j in range(n):
                    row = table.get((i, j))
                    if row and p[b][j]:
                        scale = p[a][i] * p[b][j]
                        for k, c in row.items():
                            old[k] += scale * c
            if any(old):
                new = to_new(old)
                constants[(a, b)] = {k: c for k, c in enumerate(new) if c}
    centre = tuple(tuple(to_new(v)) for v in alg.centre)
    labels = tuple(f"f{a}" for a in range(n))
    return LadderAlgebra(f"{alg.name}~", labels, constants, centre, alg.oracle)


# ---------------------------------------------------------------------------
# Direct oracle checks (no cartankit): Jacobi on the generated constants
# ---------------------------------------------------------------------------


def jacobi_residual(alg: LadderAlgebra) -> tuple[int, int, int] | None:
    """First basis triple violating Jacobi, or None."""
    n = alg.dim
    table = {}
    for (i, j), row in alg.constants.items():
        table[(i, j)] = row
        table[(j, i)] = {k: -c for k, c in row.items()}

    def bracket_with_basis(v: dict[int, Fraction], k: int) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for i, c in v.items():
            for t, d in table.get((i, k), {}).items():
                out[t] = out.get(t, 0) + c * d
        return out

    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total: dict[int, Fraction] = {}
                for v, w in (((i, j), k), ((j, k), i), ((k, i), j)):
                    for t, c in bracket_with_basis(table.get(v, {}), w).items():
                        total[t] = total.get(t, 0) + c
                if any(total.values()):
                    return (i, j, k)
    return None
