"""Acceptance suite: one test per criterion, printing one verdict line each.

Everything here is exact rational arithmetic, so every comparison is
equality of canonical forms; there are no numeric tolerances to tune.
Run with ``pytest -s tests/test_acceptance.py`` to see the verdict lines.
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from cartankit.algebra import (
    Ideal,
    Subalgebra,
    Subspace,
    centralizer,
    is_nilpotent,
    is_solvable,
    normalizer,
)
from cartankit.cartan import (
    centralizer_in_radical,
    composite_csa,
    is_cartan_subalgebra,
    normalizer_chain_csa,
    regular_element_csa,
)
from cartankit.catalog import (
    bundled_models,
    load_verification_matrix,
    parse_vector,
)
from cartankit.cli import main
from cartankit.levi import induced_algebra, levi_decomposition
from cartankit.powermap import (
    composition_holds,
    density_from_cartans,
    load_instance,
    load_triples,
    pk_surjective,
    powers_surjective_bruteforce,
)
from cartankit.quotient import lift_cartan, push_cartan, quotient_algebra
from cartankit.radicals import (
    bruteforce_max_nilpotent_ideal,
    bruteforce_max_solvable_ideal,
    enumerate_ideal_candidates,
    is_semisimple,
    nilradical,
    radical,
)


def report(number: int, description: str, passed: bool) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {verdict}: {description}")
    assert passed, f"acceptance criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def matrix():
    return load_verification_matrix()


def chain_start_pool(g, matrix, name):
    starts = matrix["chain_starts"].get(name, {})
    return {
        label: Subspace(g, [parse_vector(row, g.dim) for row in rows])
        for label, rows in sorted(starts.items())
    }


def test_criterion_1_cartan_axiom_suite(catalog, matrix):
    ok = True
    for name, g in sorted(catalog.items()):
        results = [regular_element_csa(g), composite_csa(g)]
        if is_solvable(g.whole()):
            results.append(normalizer_chain_csa(g))
            for label, start in chain_start_pool(g, matrix, name).items():
                results.append(normalizer_chain_csa(g, start))
        for result in results:
            sub = Subalgebra(g, result.csa.matrix)
            if not is_nilpotent(sub) or normalizer(sub).matrix != sub.matrix:
                ok = False
    report(1, "all constructions return nilpotent self-normalizing subalgebras", ok)


def test_criterion_2_composite_construction(catalog):
    ok = True
    for name, g in sorted(catalog.items()):
        composite = composite_csa(g)
        if not is_cartan_subalgebra(composite.csa):
            ok = False
        if composite.csa.dim != regular_element_csa(g).csa.dim:
            ok = False
    report(2, "composite construction passes everywhere and matches the rank", ok)


def test_criterion_3_normalizer_chain_recipe(catalog, matrix):
    ok = True
    for name, g in sorted(catalog.items()):
        if not is_solvable(g.whole()):
            continue
        for label, start in chain_start_pool(g, matrix, name).items():
            result = normalizer_chain_csa(g, start)
            if len(result.trace) - 1 > g.dim:
                ok = False
            for step in result.trace:
                if not is_nilpotent(Subalgebra(g, step.matrix)):
                    ok = False
            if not is_cartan_subalgebra(result.csa):
                ok = False
            if not result.csa.contains_subspace(start):
                ok = False
    report(3, "normalizer chains stabilize nilpotently at Cartan subalgebras", ok)


def test_criterion_4_radical_oracles(catalog):
    ok = True
    for name, g in sorted(catalog.items()):
        if g.dim > 5:
            continue
        candidates = enumerate_ideal_candidates(g)
        if radical(g).matrix != bruteforce_max_solvable_ideal(g, candidates).matrix:
            ok = False
        if nilradical(g).matrix != bruteforce_max_nilpotent_ideal(g, candidates).matrix:
            ok = False
    report(4, "radical and nilradical equal the brute-force lattice maxima", ok)


def test_criterion_5_quotient_correspondence(catalog, matrix):
    ok = True
    for name, g in sorted(catalog.items()):
        for label, rows in sorted(matrix["ideals"].get(name, {}).items()):
            ideal = Ideal(g, [parse_vector(r, g.dim) for r in rows])
            q = quotient_algebra(g, ideal)
            pushed = push_cartan(composite_csa(g).csa, q)
            if not is_cartan_subalgebra(pushed):
                ok = False
            target_csa = regular_element_csa(q.target).csa
            lifted = lift_cartan(target_csa, q)
            if not is_cartan_subalgebra(lifted):
                ok = False
            if q.push_subspace(lifted).matrix != target_csa.matrix:
                ok = False
    report(5, "Cartan subalgebras push to and lift from every matrix quotient", ok)


def test_criterion_6_structural_decompositions(catalog):
    ok = True
    for name, g in sorted(catalog.items()):
        rad, nil = radical(g), nilradical(g)
        decomp = levi_decomposition(g)
        if decomp.levi.dim:
            frame = induced_algebra(decomp.levi)
            h_levi = Subalgebra(
                g, frame.preimage_subspace(regular_element_csa(frame.target).csa).matrix
            )
        else:
            h_levi = g.zero_subalgebra()
        section = centralizer_in_radical(h_levi, decomp)
        if section.sum(nil).matrix != rad.matrix:
            ok = False
        if section.dim:
            frame = induced_algebra(section)
            h_section = frame.preimage_subspace(regular_element_csa(frame.target).csa)
        else:
            h_section = g.zero_subspace()
        if h_section.sum(nil).matrix != rad.matrix:
            ok = False
        if is_semisimple(g):
            csa = regular_element_csa(g).csa
            if centralizer(csa).matrix != csa.matrix:
                ok = False
    report(6, "Z_R(H_S) + N = R, H_Z + N = R, and semisimple CSAs self-centralize", ok)


def test_criterion_7_power_map_suite(matrix):
    ok = True
    cfg = matrix["powermap"]
    models = bundled_models()
    k_max = cfg["k_max"]
    order_limit = cfg["bruteforce_order_limit"]
    for name in cfg["instances"]:
        instance = load_instance(models[name])
        for model in instance.cartan_models:
            total = 1
            for m in model.component_orders:
                total *= m
            if total > order_limit:
                continue
            for k in range(1, 61):
                slow = (
                    powers_surjective_bruteforce(model.component_orders, k)
                    if model.component_orders
                    else True
                )
                if pk_surjective(model, k) != slow:
                    ok = False
    sl2r = load_instance(models["sl2r-model"])
    for k in range(1, k_max + 1):
        if density_from_cartans(sl2r, k) != (k % 2 == 1):
            ok = False
    for triple in load_triples(models[cfg["triples"]]):
        for k in range(1, k_max + 1):
            if not composition_holds(
                density_from_cartans(triple.subgroup, k),
                density_from_cartans(triple.quotient, k),
                density_from_cartans(triple.group, k),
            ):
                ok = False
    report(7, "power-map criterion matches enumeration; parity and composition hold", ok)


EXPECTED_VERIFY = Path(__file__).resolve().parent.parent / "bench" / "expected_verify.json"


def test_criterion_8_deterministic_reports():
    runner = CliRunner()
    first = runner.invoke(main, ["verify", "--all", "--json"])
    second = runner.invoke(main, ["verify", "--all", "--json"])
    ok = first.exit_code == 0 and second.exit_code == 0 and first.output == second.output
    # the recorded digest pins the report bytes across changes, not only runs
    expected = json.loads(EXPECTED_VERIFY.read_text(encoding="utf-8"))["verify_all_sha256"]
    ok = ok and hashlib.sha256(first.output.encode("utf-8")).hexdigest() == expected
    report(8, "repeated verify --json runs are byte-identical, green and as recorded", ok)
