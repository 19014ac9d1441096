import importlib.util
import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from cartankit.catalog import algebra_from_dict, bundled_fixtures, load_algebra

LADDER = Path(__file__).resolve().parents[1] / "bench" / "ladder.py"

# The same Hypothesis examples on every run: draws are seeded from each
# test, and no example database replays earlier failures.  Tests keep
# their own max_examples and deadline.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def catalog():
    """Every bundled fixture algebra, loaded once per session."""
    return {name: load_algebra(path) for name, path in bundled_fixtures().items()}


@pytest.fixture(scope="session")
def sl2(catalog):
    return catalog["sl2"]


@pytest.fixture(scope="session")
def h3(catalog):
    return catalog["heisenberg"]


@pytest.fixture(scope="session")
def aff1(catalog):
    return catalog["aff1"]


@pytest.fixture(scope="session")
def e2(catalog):
    return catalog["e2"]


@pytest.fixture(scope="session")
def oscillator(catalog):
    return catalog["oscillator"]


@pytest.fixture(scope="session")
def gl2(catalog):
    return catalog["gl2"]


@pytest.fixture(scope="session")
def sl2xr2(catalog):
    return catalog["sl2xR2"]


@pytest.fixture(scope="session")
def sl2xheis(catalog):
    return catalog["sl2xheis"]


@pytest.fixture(scope="session")
def ladder():
    """The benchmark's ladder module, with its closed-form ``oracle`` per family.

    ``bench/ladder.py`` is imported read-only from its file; it does not
    import cartankit, so its closed-form answers stay independent oracles.
    """
    spec = importlib.util.spec_from_file_location("bench_ladder", LADDER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def ladder_algebra(ladder):
    """Algebras of the benchmark's generated ladder, e.g. ``gl3`` or ``b4``.

    With a ``seed`` the algebra comes in the random basis that
    ``ladder.rebase`` draws from ``random.Random(seed)``.
    """

    def build(name, seed=None):
        alg = ladder.family(name)
        if seed is not None:
            alg = ladder.rebase(alg, random.Random(seed))
        return algebra_from_dict(alg.to_json())

    return build
