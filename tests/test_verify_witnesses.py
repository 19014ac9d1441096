"""Golden digests of the witnesses that ``cartankit verify`` reports.

The bundled catalog passes every check, so ``verify --all --json`` never
shows a failure witness.  Each case below breaks one name that
``cartankit.verify`` imports (or hands the checks a broken algebra or a
broken verification matrix), runs the checks on a few small fixtures or on
the power-map models, and compares the SHA-256 of the ``report_to_json``
text with a recorded digest.  A change to how checks are declared, run or
reported has to keep every digest, and together the cases make every
check id fail at least once.
"""

import hashlib
import json
from functools import cache

import pytest

from cartankit import verify
from cartankit.algebra import (
    LieAlgebra,
    Subalgebra,
    Subquotient,
    Subspace,
    centralizer,
    killing_value,
    subalgebra_closure,
)
from cartankit.cartan import CartanResult, composite_csa, fitting_null_recursion, regular_element_csa
from cartankit.catalog import bundled_fixtures, load_algebra, load_verification_matrix
from cartankit.levi import LeviDecomposition, levi_decomposition
from cartankit.powermap import density_from_cartans, weakly_exponential_model
from cartankit.quotient import push_cartan
from cartankit.radicals import nilradical, radical

FIXTURES = ("aff1", "e2", "heisenberg", "sl2", "sl2xR2")

# [x,y] = x, [x,z] = z, [y,z] = y: bilinear and antisymmetric, not a Lie algebra
BROKEN = {(0, 1): {0: 1}, (0, 2): {2: 1}, (1, 2): {1: 1}}


@cache
def relabelled_copy(g):
    """g with a prime on every basis label: an equal bracket, another algebra."""
    constants = {(i, j): dict(enumerate(g.bracket_basis(i, j))) for i in range(g.dim) for j in range(i + 1, g.dim)}
    return LieAlgebra(g.dim, constants, basis_labels=[f"{label}'" for label in g.basis_labels])


def relabelled_closure(g, vectors):
    return Subalgebra(relabelled_copy(g), subalgebra_closure(g, vectors).matrix)


def with_csa(result, csa):
    return CartanResult(csa=csa, method=result.method, trace=result.trace)


def quotient_by_last_row(sub):
    # L = span of S's last canonical row: rarely an ideal of S, never all of a non-line S
    return Subquotient(sub, Subspace(sub.ambient, sub.matrix[-1:]))


# case -> (fixture names, or "models", and the names replaced in cartankit.verify)
CASES = {
    "radical-is-nilradical": (FIXTURES, {"radical": nilradical}),
    "nilradical-is-radical": (FIXTURES, {"nilradical": radical}),
    "normalizer-is-input": (FIXTURES, {"normalizer": lambda sub: sub}),
    "normalizer-is-zero": (FIXTURES, {"normalizer": lambda sub: sub.ambient.zero_subalgebra()}),
    "centralizer-is-zero": (FIXTURES, {"centralizer": lambda sub: sub.ambient.zero_subalgebra()}),
    "killing-value-shifted": (
        FIXTURES,
        {"killing_value": lambda form, x, y: killing_value(form, x, y) + x[0]},
    ),
    "is-semisimple-always": (FIXTURES, {"is_semisimple": lambda g: True}),
    "regular-csa-is-whole": (
        FIXTURES,
        {"regular_element_csa": lambda g: with_csa(regular_element_csa(g), g.whole())},
    ),
    "composite-csa-is-levi-part": (
        FIXTURES,
        {"composite_csa": lambda g: with_csa(composite_csa(g), Subalgebra(g, composite_csa(g).trace[0]))},
    ),
    "levi-is-zero": (
        FIXTURES,
        {"levi_decomposition": lambda g: LeviDecomposition(g.zero_subalgebra(), levi_decomposition(g).radical)},
    ),
    "induced-algebra-mod-last-row": (FIXTURES, {"induced_algebra": quotient_by_last_row}),
    "push-cartan-is-zero": (FIXTURES, {"push_cartan": lambda h, q: q.target.zero_subalgebra()}),
    "lift-cartan-is-zero": (FIXTURES, {"lift_cartan": lambda h, q: q.upper.ambient.zero_subalgebra()}),
    "lift-cartan-is-whole": (FIXTURES, {"lift_cartan": lambda h, q: q.upper.ambient.whole()}),
    "push-cartan-of-lift-is-whole": (
        FIXTURES,
        {"push_cartan": lambda h, q: push_cartan(h, q) if h is composite_csa(h.ambient).csa else q.target.whole()},
    ),
    "fitting-null-is-zero": (
        FIXTURES,
        {"fitting_null_recursion": lambda sub: with_csa(fitting_null_recursion(sub), sub.ambient.zero_subalgebra())},
    ),
    "is-nilpotent-never": (FIXTURES, {"is_nilpotent": lambda sub: False}),
    "is-cartan-never": (FIXTURES, {"is_cartan_subalgebra": lambda h: False}),
    "bracket-span-is-whole": (FIXTURES, {"bracket_span": lambda a, b: a.ambient.whole()}),
    "closure-in-relabelled-copy": (FIXTURES, {"subalgebra_closure": relabelled_closure}),
    "pk-surjective-always": ("models", {"pk_surjective": lambda model, k: True}),
    "pk-surjective-not-at-6": ("models", {"pk_surjective": lambda model, k: k != 6}),
    "density-always": ("models", {"density_from_cartans": lambda instance, k: True}),
    "density-never": ("models", {"density_from_cartans": lambda instance, k: False}),
    "density-odd-only": ("models", {"density_from_cartans": lambda instance, k: k % 2 == 1}),
    "weak-exponentiality-negated": (
        "models",
        {"weakly_exponential_model": lambda instance: not weakly_exponential_model(instance)},
    ),
    "composition-never-holds": ("models", {"composition_holds": lambda h, q, g: False}),
}

# cases that change the input instead of a name
BROKEN_ALGEBRA = "jacobi-broken-algebra"
BAD_MATRIX = "matrix-with-bad-entries"

# recorded before the checks became one declaration each; the two cases
# that change the input were recorded again when failure messages began to
# write rationals as 1 or -3/2 in place of Fraction reprs
DIGESTS = {
    "bracket-span-is-whole": "6590924c838bd75365961be613d371f20ffe4ca2b8c41fb327a86e2a6eb3a978",
    "centralizer-is-zero": "9aa193a9c613057a9a5eaa41e7f750b1c7d4d643f2463a2421f8c8b0c3e15323",
    "closure-in-relabelled-copy": "dbfc2f0f1eaa2739c52231e7a26736e245e1ea4aa0830b244bb7ec07d06800de",
    "composite-csa-is-levi-part": "ea861b0d87d6c98efe56931c2b385d65219a5fdae3a3aafc82bb0f4b871cb44d",
    "composition-never-holds": "c4b7a44d4b6fc8fdeef203926c00ef2ec60a168665d79b62007c24f3264b170c",
    "density-always": "3041da4c445b146d92c895ed61e98195b4dc42067bb09bc4e411f54eb357b881",
    "density-never": "759237bcb95225c80f9e8749256f2d6f409563d215dbda5bc4d92016ee1ce58a",
    "density-odd-only": "e843fb6bc4759dcf3f63e73004149a10d8ecc5405b5dc7677b4b666b427b3aa4",
    "fitting-null-is-zero": "9a87e44a2b08933f53e2ebff189f2fa77814eeeb4c011d80eef4a1d80c2f20e8",
    "induced-algebra-mod-last-row": "c23cd96fb47ae2f8ae494176be68a57a76c8ee97b8f8e5bd645196b453b7039e",
    "is-cartan-never": "2271f6d4d2c40603608c84e6e22e88992c2636b2a5d4494703e79bed0cb5506c",
    "is-nilpotent-never": "c0b9084728aca8cf4558b0b0b63311df3b925e3a4671f0d4dd8927495f8a2092",
    "is-semisimple-always": "f74170a73e49beeb3ded46871ddd9672fcd4afccd4cd98b381eee8043cffb299",
    "jacobi-broken-algebra": "bff2dd6c292f0532f0f83c8352851551ed05f1f0c2119b13c1ccc369f1ea22c3",
    "killing-value-shifted": "35ceec01362489b031578ec64d24cb8d8f164703eb51409135ff8bbf03a1773d",
    "levi-is-zero": "9f0b6ef4fa33754702ad3a5db8142cb3efb906911571f5d21ceda7131c6eafbb",
    "lift-cartan-is-whole": "e50999617196064fb3d03ad4ab0c6fb3f7d5574ee23abf8ce8a7db6280396c81",
    "lift-cartan-is-zero": "8762a74ad421340281fa0b2f8848a922d35b00cd390cbb6cd49e4cd43bf1e3d9",
    "matrix-with-bad-entries": "5c57ce4736f63f0930f59e55020038341bdf45aac958a885b17c70b49219ee1b",
    "nilradical-is-radical": "3457ae389711aff3617e83277e1ddb157f967d4934accdbaa64a1af3563fad48",
    "normalizer-is-input": "6e639ca9a45d1cb8ecdc8591b9cef2d1ac63f4c5a69f61ff3bb05c686d6138eb",
    "normalizer-is-zero": "6e639ca9a45d1cb8ecdc8591b9cef2d1ac63f4c5a69f61ff3bb05c686d6138eb",
    "pk-surjective-always": "6053e0fad4dc2b1feb8ed6f30253fecc7499fe2695232e719bc7a7b133bd04da",
    "pk-surjective-not-at-6": "4d50f5321caa1db8eaad179527f4acb42702bbfda7917b2a894304983e80140a",
    "push-cartan-is-zero": "798f70da25b5bebe5b515a249093b9abc4a00e0fcf17fc2c0d2e209924c80ef6",
    "push-cartan-of-lift-is-whole": "5c41267ad004457ed55242b6447fca91fe1cfbbff9a76571f734e4c7077f54c3",
    "radical-is-nilradical": "ceee9b914d187908f8b662b2c735b6a470cd847cf3a5db6946d42e9165febd5c",
    "regular-csa-is-whole": "48087fa45beaa00f3f320f950cbca665aeb2d22fdb071b986a486320e30d2c2a",
    "weak-exponentiality-negated": "72b20c66290f7a73628228a958c15027a0cdcd0130b8abbeef895c80554eb6c0",
}


def _reports(fixtures, matrix):
    if fixtures == "models":
        return verify.verify_models(matrix)
    paths = bundled_fixtures()
    return [verify.verify_fixture(name, load_algebra(paths[name]), matrix) for name in fixtures]


@cache
def run_case(case: str) -> str:
    """``report_to_json`` of the case, on freshly loaded algebras."""
    matrix = load_verification_matrix()
    if case == BROKEN_ALGEBRA:
        g = LieAlgebra(3, BROKEN, basis_labels=["x", "y", "z"], check_jacobi=False, name="broken")
        reports = [verify.verify_fixture("broken", g, matrix)]
    elif case == BAD_MATRIX:
        bad = {
            "ideals": {"heisenberg": {"x": [["1", "0", "0"]]}, "aff1": {"short": [["1"]]}},
            "chain_starts": {"e2": {"long": [["1", "0", "0", "0"]]}, "aff1": {"y": [["0", "1"]]}},
        }
        reports = _reports(("aff1", "e2", "heisenberg"), bad)
    else:
        fixtures, patches = CASES[case]
        with pytest.MonkeyPatch.context() as mp:
            for name, replacement in patches.items():
                mp.setattr(verify, name, replacement)
            reports = _reports(fixtures, matrix)
    report = verify.VerificationReport(fixtures=tuple(sorted(reports, key=lambda r: r.fixture)))
    return verify.report_to_json(report)


ALL_CASES = sorted([*CASES, BROKEN_ALGEBRA, BAD_MATRIX])


@pytest.mark.parametrize("case", ALL_CASES)
def test_witness_report_is_as_recorded(case):
    text = run_case(case)
    assert '"status": "fail"' in text or '"status": "reported"' in text
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DIGESTS[case]


def test_cases_make_every_check_fail():
    catalog_ids = {r.check_id for f in verify.run_verification().fixtures for r in f.results}
    failing = {
        r["check"]
        for case in ALL_CASES
        for f in json.loads(run_case(case))["fixtures"]
        for r in f["results"]
        if r["status"] != "pass"
    }
    assert len(catalog_ids) == 27
    assert failing == catalog_ids


def test_typed_error_in_applies_is_the_witness():
    # radical() raises on this bracket, inside the applies predicate of
    # cartan-nilpotent-radical-form: the error is that check's witness and
    # the other checks still run
    g = LieAlgebra(3, {(0, 1): {1: 1}, (1, 2): {0: 1}, (0, 2): {2: 1}}, check_jacobi=False)
    results = {r.check_id: r for r in verify.verify_fixture("broken", g, {}).results}
    assert results["core-jacobi"].status == "fail"
    assert results["cartan-nilpotent-radical-form"].witness["error"].startswith("InternalInconsistency: ")
    assert results["radicals-semisimple"].status != "pass"
