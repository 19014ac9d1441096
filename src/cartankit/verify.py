"""Verification harness: every invariant suite over the bundled catalog.

Each check has a stable id, a one-line statement of the identity it tests
(the anchor), and produces a concrete witness on failure.  The JSON report
is byte-deterministic: no timestamps, no environment data, stable ordering.
Advisory checks report failures without affecting the exit status.  A check
is declared once, by a decorator at its function that adds it to the table
of its context (fixture, model instance, or model triples); one runner runs
every table.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable

from . import linalg
from .algebra import (
    Ideal,
    LieAlgebra,
    Subalgebra,
    Subquotient,
    Subspace,
    bracket_span,
    centralizer,
    is_nilpotent,
    is_solvable,
    killing_form,
    killing_value,
    normalizer,
    subalgebra_closure,
)
from .cartan import (
    CartanResult,
    composite_csa,
    fitting_null_recursion,
    is_cartan_subalgebra,
    normalizer_chain_csa,
    regular_element_csa,
)
from .catalog import (
    bundled_fixtures,
    bundled_models,
    load_algebra,
    load_verification_matrix,
    parse_vector,
)
from .errors import CartanKitError, JacobiViolation
from .levi import induced_algebra, levi_decomposition
from .powermap import (
    GroupDensityInstance,
    ModelTriple,
    composition_holds,
    density_from_cartans,
    load_instance,
    load_triples,
    pk_surjective,
    powers_surjective_bruteforce,
    weakly_exponential_model,
)
from .quotient import lift_cartan, push_cartan, quotient_algebra
from .radicals import (
    bruteforce_max_nilpotent_ideal,
    bruteforce_max_solvable_ideal,
    candidate_vector_pool,
    enumerate_ideal_candidates,
    is_semisimple,
    nilradical,
    radical,
)


BRUTEFORCE_RADICAL_DIM = 5
BRUTEFORCE_CARTAN_DIM = 4
POOL_LIMIT = 30


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    anchor: str
    status: str  # "pass", "fail", or "reported" for a failed advisory check
    witness: dict | None


@dataclass(frozen=True)
class FixtureReport:
    fixture: str
    results: tuple[CheckResult, ...]


@dataclass(frozen=True)
class VerificationReport:
    fixtures: tuple[FixtureReport, ...]

    @property
    def summary(self) -> dict:
        counts = Counter(r.status for f in self.fixtures for r in f.results)
        return {
            "checks": counts.total(),
            "failed": counts["fail"],
            "advisory_reported": counts["reported"],
            "passed": counts["pass"],
        }

    @property
    def ok(self) -> bool:
        return self.summary["failed"] == 0


def _strings(rows) -> list[list[str]]:
    return [[str(e) for e in row] for row in rows]


def _witness(**parts) -> dict:
    """A failure witness: each subspace as its canonical rows, other values as given."""
    return {k: _strings(v.matrix) if isinstance(v, Subspace) else v for k, v in parts.items()}


@dataclass(frozen=True)
class _Check:
    """A check that runs on the contexts of its table where ``applies``."""

    check_id: str
    anchor: str
    fn: Callable
    applies: Callable
    advisory: bool


def _check(table: list, check_id: str, anchor: str, applies: Callable = lambda ctx: True, advisory: bool = False):
    """Declare the decorated ``fn(ctx)`` as a check of ``table``.

    ``fn`` returns None on pass or a witness dict on failure.
    """
    def register(fn: Callable) -> Callable:
        table.append(_Check(check_id, anchor, fn, applies, advisory))
        return fn
    return register


def _run_checks(checks: list[_Check], ctx) -> tuple[CheckResult, ...]:
    """Run every applicable check; a typed error, in ``applies`` or the check, is a failure with a witness."""
    results = []
    for check in checks:
        try:
            if not check.applies(ctx):
                continue
            witness = check.fn(ctx)
        except CartanKitError as exc:
            witness = {"error": f"{type(exc).__name__}: {exc}"}
        status = "pass" if witness is None else "reported" if check.advisory else "fail"
        results.append(CheckResult(check.check_id, check.anchor, status, witness))
    return tuple(sorted(results, key=lambda r: r.check_id))


class _FixtureContext:
    """Per-fixture data that is not an invariant of the algebra.

    Invariants (radical, Levi decomposition, Cartan subalgebras, ...) are
    memoized on the algebra itself, so checks call those functions directly.
    The matrix entries are built once; an entry that fails to build raises
    its typed error in every check that reads it.
    """

    def __init__(self, name: str, algebra: LieAlgebra, matrix: dict):
        self.name = name
        self.g = algebra
        self.matrix = matrix

    @cached_property
    def ideal_candidates(self):
        return enumerate_ideal_candidates(self.g)

    @cached_property
    def pool_subalgebras(self) -> list[Subalgebra]:
        """Deterministic small pool of subalgebras for property sweeps."""
        vectors = candidate_vector_pool(self.g)
        seen: dict = {(): self.g.zero_subalgebra()}
        for v in vectors:
            sub = subalgebra_closure(self.g, [v])
            seen.setdefault(sub._echelon, sub)
        for a, b in itertools.combinations(vectors[: self.g.dim + 4], 2):
            if len(seen) >= POOL_LIMIT:
                break
            sub = subalgebra_closure(self.g, [a, b])
            seen.setdefault(sub._echelon, sub)
        return sorted(seen.values(), key=lambda s: s.matrix)

    @cached_property
    def levi_frame(self) -> Subquotient:
        """The Levi part as a standalone algebra, shared by the Levi checks."""
        return induced_algebra(levi_decomposition(self.g).levi)

    def _entries(self, section: str, build: Callable) -> dict:
        """``{label: build(g, rows)}`` for this fixture's entries of a matrix section."""
        entries = self.matrix.get(section, {}).get(self.name, {})
        return {
            label: build(self.g, [parse_vector(row, self.g.dim) for row in rows])
            for label, rows in sorted(entries.items())
        }

    @cached_property
    def chain_starts(self) -> dict[str, Subspace]:
        return self._entries("chain_starts", Subspace)

    @cached_property
    def ideals(self) -> dict[str, Ideal]:
        return self._entries("ideals", Ideal)


# Per-fixture checks: one context per algebra.
_FIXTURE_CHECKS: list[_Check] = []
_fixture_check = partial(_check, _FIXTURE_CHECKS)


@_fixture_check("core-jacobi", "[[x,y],z] + [[y,z],x] + [[z,x],y] = 0")
def _check_jacobi(ctx: _FixtureContext):
    """The Jacobiator of every triple of basis and pool vectors, in ints.

    With the vectors as integer rows over their scale d, each first bracket
    D d^2 [x, y] is built once per pair and each Jacobiator summed at the
    scale D^2 d^3, using [[z,x],y] = -[[x,z],y].  Only a failing residual
    is divided back to ``Fraction``.  It does not call the
    ``LieAlgebra._check_jacobi`` that it checks.
    """
    g = ctx.g
    vectors = [linalg.unit_vec(g.dim, i) for i in range(g.dim)]
    vectors += candidate_vector_pool(g)[g.dim : g.dim + 4]
    rows, d = linalg.integer_rows(vectors)
    first = {
        (a, b): [(k, c) for k, c in enumerate(g._bracket_ints(rows[a], rows[b])) if c]
        for a, b in itertools.combinations(range(len(rows)), 2)
    }
    for a, b, c in itertools.combinations(range(len(rows)), 3):
        xy_z = g._bracket_ints(first[a, b], rows[c])
        yz_x = g._bracket_ints(first[b, c], rows[a])
        xz_y = g._bracket_ints(first[a, c], rows[b])
        res = [p + q - r for p, q, r in zip(xy_z, yz_x, xz_y)]
        if any(res):
            residual = [str(e) for e in linalg.over(res, g._d**2 * d**3)]
            return {"triple": _strings([vectors[a], vectors[b], vectors[c]]), "residual": residual}
    return None


@_fixture_check("core-normalizer-containments", "L <= N(L) and Z(L) <= N(L) for every pool subalgebra L")
def _check_normalizer_containments(ctx: _FixtureContext):
    for sub in ctx.pool_subalgebras:
        nrm = normalizer(sub)
        if not nrm.contains_subspace(sub) or not nrm.contains_subspace(centralizer(sub)):
            return _witness(subalgebra=sub)
    return None


@_fixture_check(
    "core-nilpotent-normalizer-growth",
    "every proper subalgebra of a nilpotent algebra grows under N(.)",
    applies=lambda c: is_nilpotent(c.g.whole()),
)
def _check_nilpotent_normalizer_growth(ctx: _FixtureContext):
    for sub in ctx.pool_subalgebras:
        if sub.dim == ctx.g.dim:
            continue
        if normalizer(sub).dim <= sub.dim:
            return _witness(proper_subalgebra=sub)
    return None


@_fixture_check("core-canonical-form", "respanned subspaces reduce to identical canonical matrices")
def _check_canonical_form(ctx: _FixtureContext):
    g = ctx.g
    for sub in ctx.pool_subalgebras:
        if sub.dim == 0:
            continue
        rows = list(sub.matrix)
        scrambled = [linalg.vec_scale(Fraction(3, 2), r) for r in reversed(rows)]
        if len(rows) > 1:
            scrambled[0] = linalg.vec_add(scrambled[0], rows[-1])
        rebuilt = Subspace(g, scrambled)
        if rebuilt != sub:
            return _witness(original=sub, rebuilt=rebuilt)
    return None


@_fixture_check("core-killing-invariance", "k([x,y],z) = k(x,[y,z]) on basis triples")
def _check_killing_invariance(ctx: _FixtureContext):
    """Both sides of every basis triple through ``killing_value``, reading
    each [e_i, e_j] from a table built once (n^2 ``bracket_basis`` calls)."""
    g = ctx.g
    form = killing_form(g)
    basis = [linalg.unit_vec(g.dim, i) for i in range(g.dim)]
    brackets = [[g.bracket_basis(i, j) for j in range(g.dim)] for i in range(g.dim)]
    for i, j, k in itertools.product(range(g.dim), repeat=3):
        lhs = killing_value(form, brackets[i][j], basis[k])
        rhs = killing_value(form, basis[i], brackets[j][k])
        if lhs != rhs:
            return {"triple": _strings([basis[i], basis[j], basis[k]]), "lhs": str(lhs), "rhs": str(rhs)}
    return None


@_fixture_check(
    "radicals-bruteforce-radical",
    "the radical is the unique maximal solvable enumerated ideal",
    applies=lambda c: c.g.dim <= BRUTEFORCE_RADICAL_DIM,
)
def _check_bruteforce_radical(ctx: _FixtureContext):
    oracle = bruteforce_max_solvable_ideal(ctx.g, ctx.ideal_candidates)
    rad = radical(ctx.g)
    if oracle != rad:
        return _witness(radical=rad, bruteforce=oracle)
    return None


@_fixture_check(
    "radicals-bruteforce-nilradical",
    "the nilradical is the unique maximal nilpotent enumerated ideal",
    applies=lambda c: c.g.dim <= BRUTEFORCE_RADICAL_DIM,
)
def _check_bruteforce_nilradical(ctx: _FixtureContext):
    oracle = bruteforce_max_nilpotent_ideal(ctx.g, ctx.ideal_candidates)
    nil = nilradical(ctx.g)
    if oracle != nil:
        return _witness(nilradical=nil, bruteforce=oracle)
    return None


@_fixture_check("radicals-containments", "[g,R] <= N <= R and [R,R] <= N")
def _check_radical_containments(ctx: _FixtureContext):
    g = ctx.g
    rad, nil = radical(g), nilradical(g)
    if not rad.contains_subspace(nil):
        return _witness(nilradical=nil)
    if not nil.contains_subspace(bracket_span(g.whole(), rad)):
        return _witness(bracket_g_radical=bracket_span(g.whole(), rad))
    if not nil.contains_subspace(bracket_span(rad, rad)):
        return _witness(derived_radical=bracket_span(rad, rad))
    return None


@_fixture_check("radicals-semisimple", "Killing form nondegenerate iff the radical vanishes")
def _check_semisimple_consistency(ctx: _FixtureContext):
    flag = is_semisimple(ctx.g)
    rad = radical(ctx.g)
    if flag != (rad.dim == 0):
        return {"is_semisimple": flag, "radical_dim": rad.dim}
    return None


@_fixture_check("levi-split", "g = S (+) R with S semisimple and R the radical")
def _check_levi_split(ctx: _FixtureContext):
    decomp = levi_decomposition(ctx.g)
    if decomp.levi.dim + decomp.radical.dim != ctx.g.dim:
        return {"levi_dim": decomp.levi.dim, "radical_dim": decomp.radical.dim}
    if decomp.levi.intersect(decomp.radical).dim != 0:
        return _witness(intersection=decomp.levi.intersect(decomp.radical))
    if decomp.levi.dim and not is_semisimple(ctx.levi_frame.target):
        return _witness(levi=decomp.levi)
    if decomp.radical != radical(ctx.g):
        return _witness(radical=decomp.radical)
    return None


@_fixture_check("levi-roundtrip", "induced-to-ambient coordinate maps compose to the identity")
def _check_levi_roundtrip(ctx: _FixtureContext):
    decomp = levi_decomposition(ctx.g)
    if decomp.levi.dim == 0:
        return None
    frame = ctx.levi_frame
    h_levi = composite_csa(ctx.g).trace[0]
    back = frame.preimage_subspace(frame.push_subspace(h_levi))
    if back != h_levi:
        return _witness(inner=h_levi, roundtrip=back)
    return None


def _cartan_axiom_witness(result: CartanResult):
    if not is_cartan_subalgebra(result.csa):
        return _witness(csa=result.csa)
    if not result.trace or result.trace[-1] != result.csa:
        return {"trace_length": len(result.trace)}
    return None


@_fixture_check("cartan-axioms-regular", "the regular-element construction is nilpotent and self-normalizing")
def _check_axioms_regular(ctx: _FixtureContext):
    return _cartan_axiom_witness(regular_element_csa(ctx.g))


@_fixture_check("cartan-axioms-composite", "H_S (+) H_{Z_R(H_S)} is nilpotent and self-normalizing")
def _check_axioms_composite(ctx: _FixtureContext):
    return _cartan_axiom_witness(composite_csa(ctx.g))


@_fixture_check(
    "cartan-axioms-chain",
    "the normalizer chain grows strictly to a Cartan subalgebra within dim steps",
    applies=lambda c: is_solvable(c.g.whole()),
)
def _check_chain_recipe(ctx: _FixtureContext):
    g = ctx.g
    for label, start in ctx.chain_starts.items():
        result = normalizer_chain_csa(g, start)
        witness = _cartan_axiom_witness(result)
        if witness is not None:
            witness["start"] = label
            return witness
        if len(result.trace) - 1 > g.dim:
            return {"start": label, "steps": len(result.trace) - 1}
        for earlier, later in zip(result.trace, result.trace[1:]):
            if later.dim <= earlier.dim or not later.contains_subspace(earlier):
                return {"start": label, "chain_dims": [s.dim for s in result.trace]}
        for step in result.trace:
            if not is_nilpotent(Subalgebra(g, step)):
                return {"start": label, "non_nilpotent_dim": step.dim}
        if not result.csa.contains_subspace(start):
            return {"start": label, "missing_start": True}
    # the default start (Fitting null of a regular element) must also work
    return _cartan_axiom_witness(normalizer_chain_csa(g))


@_fixture_check("cartan-rank-consistency", "every construction returns a subalgebra of the rank dimension")
def _check_rank_consistency(ctx: _FixtureContext):
    rank_dim = regular_element_csa(ctx.g).csa.dim
    composite_dim = composite_csa(ctx.g).csa.dim
    if composite_dim != rank_dim:
        return {"regular_dim": rank_dim, "composite_dim": composite_dim}
    if is_solvable(ctx.g.whole()):
        for label, start in ctx.chain_starts.items():
            chain_dim = normalizer_chain_csa(ctx.g, start).csa.dim
            if chain_dim != rank_dim:
                return {"start": label, "chain_dim": chain_dim, "regular_dim": rank_dim}
    return None


@_fixture_check(
    "cartan-maximal-nilpotent",
    "nilpotent self-normalizing pool subalgebras are maximal nilpotent of rank dimension",
    applies=lambda c: c.g.dim <= BRUTEFORCE_CARTAN_DIM and is_solvable(c.g.whole()),
)
def _check_maximal_nilpotent(ctx: _FixtureContext):
    rank_dim = regular_element_csa(ctx.g).csa.dim
    pool = ctx.pool_subalgebras
    nilpotent_pool = [s for s in pool if is_nilpotent(s)]
    for sub in nilpotent_pool:
        if normalizer(sub) != sub:
            continue
        # a self-normalizing nilpotent subalgebra is a Cartan subalgebra:
        # nothing nilpotent in the pool may strictly contain it, and its
        # dimension must be the rank
        if sub.dim != rank_dim:
            return _witness(csa_candidate=sub, dim=sub.dim, rank=rank_dim)
        for other in nilpotent_pool:
            if other.dim > sub.dim and other.contains_subspace(sub):
                return _witness(larger_nilpotent=other)
    return None


@_fixture_check(
    "cartan-selfcentralizing",
    "a Cartan subalgebra of a semisimple algebra is its own centralizer",
    applies=lambda c: is_semisimple(c.g),
)
def _check_selfcentralizing(ctx: _FixtureContext):
    csa = regular_element_csa(ctx.g).csa
    if centralizer(csa) != csa:
        return _witness(centralizer=centralizer(csa))
    return None


@_fixture_check("cartan-decomposition-radical", "Z_R(H_S) + N = R and H_Z + N = R")
def _check_decomposition_radical(ctx: _FixtureContext):
    rad, nil = radical(ctx.g), nilradical(ctx.g)
    _, z, hz, _ = composite_csa(ctx.g).trace
    if z.sum(nil) != rad:
        return _witness(z_plus_n=z.sum(nil), radical=rad)
    if hz.sum(nil) != rad:
        return _witness(hz_plus_n=hz.sum(nil), radical=rad)
    return None


@_fixture_check(
    "cartan-nilpotent-radical-form",
    "with nilpotent radical the composite equals H_S (+) Z_N(H_S)",
    applies=lambda c: is_nilpotent(radical(c.g)),
)
def _check_nilpotent_radical_form(ctx: _FixtureContext):
    composite = composite_csa(ctx.g)
    h_levi = composite.trace[0]
    z_nil = centralizer(h_levi).intersect(nilradical(ctx.g))
    expected = h_levi.sum(z_nil)
    if composite.csa != expected:
        return _witness(composite=composite.csa, hs_plus_zn=expected)
    return None


@_fixture_check("quotient-correspondence", "Cartan subalgebras push to and lift from every quotient in the matrix")
def _check_quotient_pairs(ctx: _FixtureContext):
    g = ctx.g
    for label, ideal in ctx.ideals.items():
        q = quotient_algebra(g, ideal)
        source_csa = composite_csa(g).csa
        pushed = push_cartan(source_csa, q)  # raises on any axiom failure
        target_csa = regular_element_csa(q.target).csa
        lifted = lift_cartan(target_csa, q)
        if q.push_subspace(lifted) != target_csa:
            return {"ideal": label, "stage": "lift-projection"}
        if lifted.dim < target_csa.dim:
            return {"ideal": label, "stage": "rank-inequality"}
        again = push_cartan(lift_cartan(pushed, q), q)
        if again != pushed:
            return _witness(ideal=label, pushed=pushed, roundtrip=again)
    return None


@_fixture_check(
    "quotient-subideal-csa",
    "H ∩ I lies in a Cartan subalgebra of I (reported, not asserted)",
    advisory=True,
)
def _check_subideal_csa(ctx: _FixtureContext):
    """Advisory: H ∩ I sits inside the Cartan subalgebra of I that the recursion finds."""
    for label, ideal in ctx.ideals.items():
        meet = composite_csa(ctx.g).csa.intersect(ideal)
        if not fitting_null_recursion(ideal).csa.contains_subspace(meet):
            return _witness(ideal=label, meet=meet)
    return None


def verify_fixture(name: str, algebra: LieAlgebra, matrix: dict) -> FixtureReport:
    ctx = _FixtureContext(name, algebra, matrix)
    return FixtureReport(fixture=name, results=_run_checks(_FIXTURE_CHECKS, ctx))


# Power-map model checks: one context per model instance, one for the triples.

@dataclass(frozen=True)
class _ModelContext:
    """A power-map input: a model instance, or the model triples."""

    name: str
    subject: GroupDensityInstance | list[ModelTriple]
    k_max: int
    order_limit: int


_INSTANCE_CHECKS: list[_Check] = []
_TRIPLES_CHECKS: list[_Check] = []
_instance_check = partial(_check, _INSTANCE_CHECKS)


@_instance_check("powermap-bruteforce", "gcd surjectivity criterion matches finite enumeration")
def _check_model_bruteforce(ctx: _ModelContext):
    for idx, model in enumerate(ctx.subject.cartan_models):
        if math.prod(model.component_orders) > ctx.order_limit:
            continue
        for k in range(1, ctx.k_max + 1):
            fast = pk_surjective(model, k)
            slow = powers_surjective_bruteforce(model.component_orders, k) if model.component_orders else True
            if fast != slow:
                return {"class": idx, "k": k, "fast": fast, "bruteforce": slow}
    return None


@_instance_check("powermap-k1", "the first power map is onto every model")
def _check_model_k1(ctx: _ModelContext):
    if not density_from_cartans(ctx.subject, 1):
        return {"k": 1}
    return None


@_instance_check("powermap-multiplicativity", "surjective for k1*k2 iff surjective for k1 and for k2")
def _check_model_multiplicativity(ctx: _ModelContext):
    for idx, model in enumerate(ctx.subject.cartan_models):
        for k1 in range(1, 13):
            for k2 in range(1, 13):
                joint = pk_surjective(model, k1 * k2)
                split = pk_surjective(model, k1) and pk_surjective(model, k2)
                if joint != split:
                    return {"class": idx, "k1": k1, "k2": k2}
    return None


@_instance_check("powermap-weak-exponentiality", "dense for every k iff no finite component anywhere")
def _check_model_weak_exponentiality(ctx: _ModelContext):
    verdict = weakly_exponential_model(ctx.subject)
    enumerated = all(density_from_cartans(ctx.subject, k) for k in range(1, 102))
    if verdict != enumerated:
        return {"verdict": verdict, "enumdensity_to_101": enumerated}
    return None


@_instance_check(
    "powermap-sl2r-parity",
    "the split Cartan class blocks exactly the even powers",
    applies=lambda c: c.name == "sl2r-model",
)
def _check_sl2r_parity(ctx: _ModelContext):
    for k in range(1, ctx.k_max + 1):
        dense = density_from_cartans(ctx.subject, k)
        if dense != (k % 2 == 1):
            return {"k": k, "dense": dense}
    return None


@_check(_TRIPLES_CHECKS, "powermap-composition", "density on subgroup and quotient implies density on the group")
def _check_composition(ctx: _ModelContext):
    for triple in ctx.subject:
        for k in range(1, ctx.k_max + 1):
            h = density_from_cartans(triple.subgroup, k)
            q = density_from_cartans(triple.quotient, k)
            g = density_from_cartans(triple.group, k)
            if not composition_holds(h, q, g):
                return {"triple": triple.name, "k": k, "h": h, "quotient": q, "group": g}
    return None


def verify_models(matrix: dict) -> list[FixtureReport]:
    cfg = matrix.get("powermap", {})
    models = bundled_models()
    k_max, order_limit = int(cfg.get("k_max", 99)), int(cfg.get("bruteforce_order_limit", 10000))
    runs = [
        (_INSTANCE_CHECKS, _ModelContext(name, load_instance(models[name]), k_max, order_limit))
        for name in sorted(set(cfg.get("instances", [])))
    ]
    triples = load_triples(models[cfg.get("triples", "triples")])
    runs.append((_TRIPLES_CHECKS, _ModelContext("triples", triples, k_max, order_limit)))
    return [
        FixtureReport(fixture=f"model:{ctx.name}", results=_run_checks(checks, ctx))
        for checks, ctx in runs
    ]


def _verify_file(path, bundled: dict, matrix: dict) -> FixtureReport:
    """One explicit file; the matrix entries apply only if it holds the bundled fixture of its name."""
    try:
        algebra = load_algebra(path)
    except JacobiViolation as exc:
        witness = {"triple": list(exc.triple), "residual": [str(e) for e in exc.residual]}
        result = CheckResult("load-jacobi", "structure constants satisfy the Jacobi identity", "fail", witness)
        return FixtureReport(fixture=str(path), results=(result,))
    name = algebra.name or str(path)
    own = name in bundled and load_algebra(bundled[name]) == algebra
    return verify_fixture(name, algebra, matrix if own else {})


def run_verification(paths=None) -> VerificationReport:
    """Verify explicit fixture files, or the whole bundled catalog and the power-map models.

    A file that parses but violates the Jacobi identity counts as a failed
    check (the harness must flag corrupted catalogs), while an unreadable
    file stays an input error.
    """
    matrix = load_verification_matrix()
    bundled = bundled_fixtures()
    if paths is None:
        reports = [verify_fixture(name, load_algebra(path), matrix) for name, path in bundled.items()]
        reports += verify_models(matrix)
    else:
        reports = [_verify_file(path, bundled, matrix) for path in paths]
    return VerificationReport(fixtures=tuple(sorted(reports, key=lambda r: r.fixture)))


def report_to_json(report: VerificationReport) -> str:
    payload = {
        "fixtures": [
            {
                "fixture": f.fixture,
                "results": [
                    {"check": r.check_id, "anchor": r.anchor, "status": r.status, "witness": r.witness}
                    for r in f.results
                ],
            }
            for f in report.fixtures
        ],
        "summary": report.summary,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def report_to_text(report: VerificationReport) -> str:
    lines = []
    for f in report.fixtures:
        for r in f.results:
            lines.append(f"{r.status.upper():8s} {f.fixture:24s} {r.check_id}")
            if r.status != "pass" and r.witness:
                lines.append(f"         anchor: {r.anchor}")
                lines.append(f"         witness: {json.dumps(r.witness, sort_keys=True)}")
    s = report.summary
    lines.append(
        f"{s['checks']} checks: {s['passed']} passed, {s['failed']} failed, "
        f"{s['advisory_reported']} advisory reported"
    )
    return "\n".join(lines)
