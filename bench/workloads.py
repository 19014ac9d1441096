"""The three workloads: their set-up, their ops and the check of every output.

An op is one call a user makes and waits for.  ``Op.run`` is the timed part;
``Op.check`` runs afterwards, outside the timed region, and returns None or
the reason the output is wrong.  Set-up imports ``cartankit`` from the
checkout's ``src`` afresh, so the import is part of the measured set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import ladder

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
EXPECTED_FILE = BENCH / "expected_verify.json"

# ladder-chevalley: standard sparse integral bases.  sl4 and gl4 are left out
# for run length; b4 and sl2+b3 already put the regular-element scan on the
# critical path.
CHEVALLEY = ["gl3", "sl3", "b3", "n4", "n5", "h7", "h9", "sl2+b3", "sl3+h5"]
CHEVALLEY_QUOTIENT = {"gl3", "b3", "n4", "h7", "sl3+h5"}
# b4 only through the regular scan and levi: composite and chain reach the
# same scan, so one capped op per pass shows the defect.
CHEVALLEY_B4 = [("b4", ("cartan", "regular")), ("b4", ("levi",))]
# ladder-rebased: each algebra in one random basis drawn from BASES_SEED.  The
# bases do not follow --seed, which only shuffles op order as elsewhere: from
# seed to seed the bit size of the constants moves by about 10 %, which would
# show as run-to-run spread instead of as a property of the code.
REBASED = ["b3", "n4", "h7", "sl3", "gl3", "b4", "n5", "sl2+b3"]
BASES_SEED = 0
REBASED_QUOTIENT = {"n4", "h7", "gl3"}

MODULES = ("linalg", "algebra", "radicals", "quotient", "levi", "cartan", "powermap", "catalog", "verify", "cli", "errors")


class Kit:
    """``cartankit`` imported afresh from the checkout; modules by short name."""

    def __init__(self):
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        for name in [n for n in sys.modules if n == "cartankit" or n.startswith("cartankit.")]:
            del sys.modules[name]
        package = importlib.import_module("cartankit")
        if Path(package.__file__).resolve().parent != SRC / "cartankit":
            raise ImportError(f"cartankit was imported from {package.__file__}, not from {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"cartankit.{name}"))


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None] | None


@dataclass
class Workload:
    ops: list[Op]
    # Check over the outputs of one whole pass, in op order; None or a reason.
    pass_check: Callable[[list], str | None] | None = None


class CommandFailed(Exception):
    """The in-process command ended with a non-zero exit code."""

    def __init__(self, code: int):
        super().__init__(f"exit-{code}")
        self.code = code


class Session:
    """What ops share with the runner: the modules and the tracer, if any."""

    def __init__(self, kit: Kit):
        self.kit = kit
        self.tracer = None

    def cli(self, argv: list[str]) -> str:
        """``cartankit <argv>`` in-process, as one shell command; returns stdout."""
        out = io.StringIO()
        code = 0
        span = self.tracer.span("cli.main") if self.tracer else contextlib.nullcontext()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), span:
            try:
                self.kit.cli.main.main(args=argv, prog_name="cartankit", standalone_mode=True)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        if code:
            raise CommandFailed(code)
        return out.getvalue()


# ---------------------------------------------------------------------------
# catalog-verify
# ---------------------------------------------------------------------------


def report_digest(kit: Kit, reports) -> str:
    """SHA-256 of the reports as ``cartankit verify --json`` prints them."""
    report = kit.verify.VerificationReport(fixtures=tuple(sorted(reports, key=lambda r: r.fixture)))
    return hashlib.sha256((kit.verify.report_to_json(report) + "\n").encode("utf-8")).hexdigest()


def catalog_ops(kit: Kit, expected: dict | None) -> list[Op]:
    """One op per bundled fixture (load, then verify_fixture) plus the model corpus."""
    matrix = kit.catalog.load_verification_matrix()

    def check(label):
        def digest_matches(reports):
            return None if report_digest(kit, reports) == expected["ops"].get(label) else "wrong-answer"

        return digest_matches

    def fixture_run(name, path):
        return lambda: [kit.verify.verify_fixture(name, kit.catalog.load_algebra(path), matrix)]

    runs = {f"verify:{n}": fixture_run(n, p) for n, p in kit.catalog.bundled_fixtures().items()}
    runs["verify:models"] = lambda: kit.verify.verify_models(matrix)
    return [Op(label, run, check(label) if expected else None) for label, run in runs.items()]


def catalog_verify(session: Session, seed: int, workdir: Path) -> Workload:
    kit = session.kit
    expected = json.loads(EXPECTED_FILE.read_text(encoding="utf-8"))
    ops = catalog_ops(kit, expected)
    random.Random(seed).shuffle(ops)

    def assembled(outputs):
        reports = [r for out in outputs for r in out]
        summary = kit.verify.VerificationReport(fixtures=tuple(reports)).summary
        want = expected["checks"]
        if summary["checks"] != want or summary["passed"] != want:
            return f"verify --all: {summary['passed']}/{summary['checks']} passed, expected {want}/{want}"
        if report_digest(kit, reports) != expected["verify_all_sha256"]:
            return "verify --all --json digest differs from the recorded one"
        return None

    return Workload(ops, assembled)


def record_expected() -> dict:
    """Digests of every catalog op's report and of the whole ``verify --all --json``."""
    kit = Kit()
    outputs = {op.label: op.run() for op in catalog_ops(kit, None)}
    reports = [r for out in outputs.values() for r in out]
    return {
        "checks": kit.verify.VerificationReport(fixtures=tuple(reports)).summary["checks"],
        "verify_all_sha256": report_digest(kit, reports),
        "ops": {label: report_digest(kit, out) for label, out in sorted(outputs.items())},
    }


# ---------------------------------------------------------------------------
# Ladder workloads
# ---------------------------------------------------------------------------


def _queries(alg: ladder.LadderAlgebra, with_quotient: bool) -> list[tuple[str, ...]]:
    out = [("cartan", "regular"), ("cartan", "composite")]
    if alg.solvable:
        out.append(("cartan", "chain"))
    out.append(("levi",))
    if with_quotient:
        out.append(("quotient",))
    return out


def _rows(kit: Kit, entries, dim: int):
    return [kit.catalog.parse_vector(r, dim) for r in entries]


def _cartan_error(kit: Kit, g, entries, rank: int, what: str) -> str | None:
    """Why ``entries`` is not the basis of a Cartan subalgebra of dim ``rank``."""
    try:
        sub = kit.algebra.Subalgebra(g, _rows(kit, entries, g.dim))
    except kit.errors.CartanKitError as exc:
        return f"wrong-answer: {what} is not a subalgebra ({type(exc).__name__})"
    if sub.dim != rank:
        return f"wrong-answer: {what} has dim {sub.dim}, expected rank {rank}"
    if not kit.cartan.is_cartan_subalgebra(sub):
        return f"wrong-answer: {what} is not a Cartan subalgebra"
    return None


def _checker(kit: Kit, g, alg: ladder.LadderAlgebra, query: tuple[str, ...]):
    oracle = alg.oracle

    def check(text: str) -> str | None:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError:
            return "wrong-answer: output is not JSON"
        try:
            if query[0] == "cartan":
                return _cartan_error(kit, g, payload["basis"], oracle.rank, "basis")
            if query[0] == "levi":
                levi = _rows(kit, payload["levi"], g.dim)
                rad = _rows(kit, payload["radical"], g.dim)
                if (len(levi), len(rad)) != (oracle.levi, oracle.radical):
                    return f"wrong-answer: levi/radical dims {len(levi)}/{len(rad)}, expected {oracle.levi}/{oracle.radical}"
                if kit.linalg.rank(levi + rad) != g.dim:
                    return "wrong-answer: levi + radical does not span the algebra"
                kit.algebra.Subalgebra(g, levi)
                if not kit.algebra.is_solvable(kit.algebra.Ideal(g, rad)):
                    return "wrong-answer: radical is not solvable"
                return None
            # quotient by the centre
            want = g.dim - oracle.centre
            if payload["quotient_dim"] != want or payload["roundtrip_exact"] is not True:
                return f"wrong-answer: quotient dim {payload['quotient_dim']} (expected {want}) or round trip not exact"
            target = kit.catalog.algebra_from_dict(
                {"dim": want, "basis": payload["quotient_basis"], "brackets": payload["quotient_brackets"]}
            )
            return _cartan_error(kit, target, payload["pushed_cartan"], oracle.rank - oracle.centre, "pushed cartan") or (
                _cartan_error(kit, g, payload["lifted_cartan"], oracle.rank, "lifted cartan")
            )
        except (KeyError, TypeError, kit.errors.CartanKitError) as exc:
            return f"wrong-answer: {type(exc).__name__}: {exc}"

    return check


def ladder_ops(session: Session, plan, workdir: Path, rng: random.Random | None) -> list[Op]:
    """Write each algebra of ``plan`` to a file and build one op per query.

    ``plan`` lists (family spec, queries); with ``rng`` every algebra is
    first rewritten in a random basis drawn from it.
    """
    kit = session.kit
    ops = []
    for spec, queries in plan:
        alg = ladder.family(spec)
        if rng is not None:
            alg = ladder.rebase(alg, rng)
        path = workdir / f"{alg.name.replace('+', '_').replace('~', '_r')}.json"
        path.write_text(json.dumps(alg.to_json(), sort_keys=True), encoding="utf-8")
        g = kit.catalog.load_algebra(path)  # the checker's copy; validates the file
        centre = json.dumps([[str(x) for x in v] for v in alg.centre])
        for query in queries:
            if query[0] == "cartan":
                argv = ["cartan", str(path), "--method", query[1], "--json"]
            elif query[0] == "quotient":
                argv = ["quotient", str(path), "--ideal", centre, "--json"]
            else:
                argv = [query[0], str(path), "--json"]
            label = f"{' '.join(query)}:{spec}"
            ops.append(Op(label, lambda argv=argv: session.cli(argv), _checker(kit, g, alg, query)))
    return ops


def ladder_chevalley(session: Session, seed: int, workdir: Path) -> Workload:
    plan = [(s, _queries(ladder.family(s), s in CHEVALLEY_QUOTIENT)) for s in CHEVALLEY]
    plan += [(spec, [query]) for spec, query in CHEVALLEY_B4]
    ops = ladder_ops(session, plan, workdir, None)
    random.Random(seed).shuffle(ops)
    return Workload(ops)


def ladder_rebased(session: Session, seed: int, workdir: Path) -> Workload:
    plan = [(s, _queries(ladder.family(s), s in REBASED_QUOTIENT)) for s in REBASED]
    ops = ladder_ops(session, plan, workdir, random.Random(BASES_SEED))
    random.Random(seed).shuffle(ops)
    return Workload(ops)


WORKLOADS = {
    "catalog-verify": catalog_verify,
    "ladder-chevalley": ladder_chevalley,
    "ladder-rebased": ladder_rebased,
}


if __name__ == "__main__":
    # Regenerate the recorded digests (run at the commit whose output is the reference).
    EXPECTED_FILE.write_text(json.dumps(record_expected(), indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED_FILE}")
