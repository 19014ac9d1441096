"""No production path reaches the verification oracles.

The brute-force ideal lattice (``radicals.enumerate_ideal_candidates`` and
the ``bruteforce_max_*`` searches) and ``algebra.killing_value`` serve
``cartankit verify`` and the tests only.  With every one of them patched to
raise, the ``cartan``, ``levi`` and ``quotient`` commands still answer, with
the same bytes, on ladder algebras in standard and in random bases.  So a
change to these oracles cannot change what those commands compute.
"""

import json
import random
import sys

import pytest
from click.testing import CliRunner

from cartankit.cli import main

ORACLES = (
    "enumerate_ideal_candidates",
    "bruteforce_max_solvable_ideal",
    "bruteforce_max_nilpotent_ideal",
    "killing_value",
)


def commands(alg, path):
    out = [["cartan", path, "--method", method, "--json"] for method in ("regular", "composite")]
    if alg.solvable:
        out.append(["cartan", path, "--method", "chain", "--json"])
    out.append(["levi", path, "--json"])
    if alg.centre:
        centre = json.dumps([[str(x) for x in v] for v in alg.centre])
        out.append(["quotient", path, "--ideal", centre, "--json"])
    return out


def refuse(*args, **kwargs):
    raise AssertionError("a verification oracle was reached from a production path")


@pytest.mark.parametrize("seed", [None, 0], ids=["standard", "rebased"])
@pytest.mark.parametrize("name", ["b3", "gl3", "sl2+h3"])
def test_commands_give_the_same_bytes_with_the_oracles_patched_to_raise(ladder, tmp_path, monkeypatch, name, seed):
    alg = ladder.family(name)
    if seed is not None:
        alg = ladder.rebase(alg, random.Random(seed))
    path = tmp_path / "algebra.json"
    path.write_text(json.dumps(alg.to_json()), encoding="utf-8")
    argvs = commands(alg, str(path))
    assert {argv[0] for argv in argvs} == {"cartan", "levi", "quotient"}
    runner = CliRunner()
    plain = [runner.invoke(main, argv) for argv in argvs]
    assert all(r.exit_code == 0 for r in plain), [(argv, r.output) for argv, r in zip(argvs, plain)]
    # every binding of the names, including copies made by ``from ... import``
    patched = 0
    for module in [m for n, m in sys.modules.items() if n == "cartankit" or n.startswith("cartankit.")]:
        for oracle in ORACLES:
            if hasattr(module, oracle):
                monkeypatch.setattr(module, oracle, refuse)
                patched += 1
    assert patched >= len(ORACLES)
    for argv, before in zip(argvs, plain):
        after = runner.invoke(main, argv)
        assert after.exit_code == 0, (argv, after.output, after.exception)
        assert after.output == before.output, argv
