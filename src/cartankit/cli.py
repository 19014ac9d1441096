"""Command-line surface: analyze | cartan | levi | quotient | powermap | verify.

Exit codes: 0 success, 1 verification failure, 2 input error, 3 any other
toolkit error, which signals a bug.  An input error is an InputError (see
``cartankit.errors``) or a file that cannot be read: missing, a directory,
unreadable, or not UTF-8.  Commands raise and never catch; the command
group maps each error to its one ``error:`` line and its exit code.  Any
other exception propagates with its traceback.
"""

from __future__ import annotations

import json
import math
import sys

import click

from .algebra import Ideal, LieAlgebra, Subspace
from .cartan import (
    composite_csa,
    normalizer_chain_csa,
    regular_element_csa,
)
from .catalog import (
    bundled_fixtures,
    bundled_models,
    format_vector,
    load_algebra,
    parse_ideal_spec,
)
from .errors import CartanKitError, InputError
from .levi import levi_decomposition
from .powermap import density_from_cartans, load_instance, pk_surjective
from .quotient import lift_cartan, push_cartan, quotient_algebra
from .radicals import is_semisimple, nilradical, radical
from .verify import report_to_json, report_to_text, run_verification

EXIT_VERIFICATION_FAILURE = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL = 3

# an unreadable input file: missing, a directory, unreadable, or not UTF-8
_READ_ERRORS = (OSError, UnicodeDecodeError)


def _echo(message: str) -> None:
    # click.echo without a file caches the current sys.stdout in a dict keyed
    # by the stream itself, so every redirected buffer would stay alive
    click.echo(message, file=sys.stdout)


def _subspace_labels(g: LieAlgebra, sub: Subspace) -> list[str]:
    return [g.label_vector(row) for row in sub.matrix]


class _ErrorBoundary(click.Group):
    """Maps every error a command raises to one ``error:`` line and an exit code."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise  # click's own handling: exit 1, no message
        except (CartanKitError, *_READ_ERRORS) as exc:
            click.echo(f"error: {exc}", file=sys.stderr)
            sys.exit(EXIT_INPUT_ERROR if isinstance(exc, (InputError, *_READ_ERRORS)) else EXIT_INTERNAL)


@click.group(cls=_ErrorBoundary)
def main() -> None:
    """Exact computations with Cartan subalgebras of rational Lie algebras."""


@main.command()
@click.argument("path")
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
@click.option("--skip-jacobi", is_flag=True, help="skip the construction-time Jacobi sweep")
def analyze(path: str, as_json: bool, skip_jacobi: bool) -> None:
    """Structure report: radical, nilradical, Levi split, rank, one CSA per method."""
    g = load_algebra(path, skip_jacobi=skip_jacobi)
    rad = radical(g)
    nil = nilradical(g)
    decomp = levi_decomposition(g)
    regular = regular_element_csa(g)
    composite = composite_csa(g)
    solvable = rad.dim == g.dim
    chain = normalizer_chain_csa(g) if solvable else None
    if as_json:
        payload = {
            "name": g.name,
            "dim": g.dim,
            "radical": [format_vector(r) for r in rad.matrix],
            "nilradical": [format_vector(r) for r in nil.matrix],
            "semisimple": is_semisimple(g),
            "levi_dim": decomp.levi.dim,
            "radical_dim": rad.dim,
            "rank": regular.csa.dim,
            "cartan": {
                "regular": [format_vector(r) for r in regular.csa.matrix],
                "composite": [format_vector(r) for r in composite.csa.matrix],
                "chain": [format_vector(r) for r in chain.csa.matrix] if chain else None,
            },
        }
        _echo(json.dumps(payload, indent=2, sort_keys=True))
        return
    _echo(f"algebra: {g.name or '?'} (dim {g.dim})")
    _echo(f"radical: dim {rad.dim}, basis [{', '.join(_subspace_labels(g, rad))}]")
    _echo(f"nilradical: dim {nil.dim}, basis [{', '.join(_subspace_labels(g, nil))}]")
    _echo(f"semisimple: {str(is_semisimple(g)).lower()}")
    _echo(f"levi: dim {decomp.levi.dim}; radical: dim {rad.dim}")
    _echo(f"rank: {regular.csa.dim}")
    _echo(f"cartan (regular): dim {regular.csa.dim}, basis [{', '.join(_subspace_labels(g, regular.csa))}]")
    _echo(f"cartan (composite): dim {composite.csa.dim}, basis [{', '.join(_subspace_labels(g, composite.csa))}]")
    if chain is not None:
        _echo(f"cartan (chain): dim {chain.csa.dim}, basis [{', '.join(_subspace_labels(g, chain.csa))}]")
    else:
        _echo("cartan (chain): n/a (algebra not solvable)")


@main.command()
@click.argument("path")
@click.option(
    "--method",
    type=click.Choice(["regular", "chain", "composite"]),
    default="regular",
    show_default=True,
)
@click.option("--json", "as_json", is_flag=True)
@click.option("--skip-jacobi", is_flag=True)
def cartan(path: str, method: str, as_json: bool, skip_jacobi: bool) -> None:
    """One Cartan subalgebra by the chosen construction, with its trace."""
    g = load_algebra(path, skip_jacobi=skip_jacobi)
    if method == "regular":
        result = regular_element_csa(g)
    elif method == "chain":
        result = normalizer_chain_csa(g)
    else:
        result = composite_csa(g)
    if as_json:
        payload = {
            "method": result.method.value,
            "dim": result.csa.dim,
            "basis": [format_vector(r) for r in result.csa.matrix],
            "trace_dims": [s.dim for s in result.trace],
        }
        _echo(json.dumps(payload, indent=2, sort_keys=True))
        return
    _echo(f"method: {result.method.value}")
    _echo(f"cartan subalgebra: dim {result.csa.dim}, basis [{', '.join(_subspace_labels(g, result.csa))}]")
    _echo(f"trace dims: {[s.dim for s in result.trace]}")


@main.command()
@click.argument("path")
@click.option("--json", "as_json", is_flag=True)
@click.option("--skip-jacobi", is_flag=True)
def levi(path: str, as_json: bool, skip_jacobi: bool) -> None:
    """Levi decomposition: semisimple part and radical."""
    g = load_algebra(path, skip_jacobi=skip_jacobi)
    decomp = levi_decomposition(g)
    if as_json:
        payload = {
            "levi": [format_vector(r) for r in decomp.levi.matrix],
            "radical": [format_vector(r) for r in decomp.radical.matrix],
        }
        _echo(json.dumps(payload, indent=2, sort_keys=True))
        return
    _echo(f"levi: dim {decomp.levi.dim}, basis [{', '.join(_subspace_labels(g, decomp.levi))}]")
    _echo(f"radical: dim {decomp.radical.dim}, basis [{', '.join(_subspace_labels(g, decomp.radical))}]")


@main.command()
@click.argument("path")
@click.option(
    "--ideal",
    "ideal_spec",
    required=True,
    help="JSON list of coordinate vectors (rational strings) spanning the ideal",
)
@click.option("--json", "as_json", is_flag=True)
@click.option("--skip-jacobi", is_flag=True)
def quotient(path: str, ideal_spec: str, as_json: bool, skip_jacobi: bool) -> None:
    """Quotient by an ideal plus the push/lift Cartan round trip."""
    g = load_algebra(path, skip_jacobi=skip_jacobi)
    rows = parse_ideal_spec(ideal_spec, g.dim)
    ideal = Ideal(g, rows)
    q = quotient_algebra(g, ideal)
    source_csa = composite_csa(g).csa
    pushed = push_cartan(source_csa, q)
    lifted = lift_cartan(pushed, q)
    constants = {
        f"{i},{j}": {
            str(k): str(c)
            for k, c in enumerate(q.target.bracket_basis(i, j))
            if c != 0
        }
        for i in range(q.target.dim)
        for j in range(i + 1, q.target.dim)
        if any(c != 0 for c in q.target.bracket_basis(i, j))
    }
    if as_json:
        payload = {
            "quotient_dim": q.target.dim,
            "quotient_basis": list(q.target.basis_labels),
            "quotient_brackets": constants,
            "pushed_cartan": [format_vector(r) for r in pushed.matrix],
            "lifted_cartan": [format_vector(r) for r in lifted.matrix],
            "roundtrip_exact": q.push_subspace(lifted) == pushed,
        }
        _echo(json.dumps(payload, indent=2, sort_keys=True))
        return
    _echo(f"quotient: dim {q.target.dim}, basis [{', '.join(q.target.basis_labels)}]")
    _echo(f"quotient brackets: {json.dumps(constants, sort_keys=True)}")
    _echo(
        f"pushed cartan: dim {pushed.dim}, basis [{', '.join(_subspace_labels(q.target, pushed))}]"
    )
    _echo(f"lifted cartan: dim {lifted.dim}, basis [{', '.join(_subspace_labels(g, lifted))}]")
    _echo(f"roundtrip exact: {str(q.push_subspace(lifted) == pushed).lower()}")


@main.command()
@click.argument("path")
@click.option("-k", "exponent", type=int, required=True, help="power-map exponent")
@click.option("--json", "as_json", is_flag=True)
def powermap(path: str, exponent: int, as_json: bool) -> None:
    """Per-class surjectivity verdicts and the density verdict for one k."""
    instance = load_instance(path)
    verdicts = [pk_surjective(m, exponent) for m in instance.cartan_models]
    dense = density_from_cartans(instance, exponent)
    if as_json:
        payload = {
            "instance": instance.name,
            "k": exponent,
            "classes": [
                {
                    "vector_rank": m.vector_rank,
                    "torus_rank": m.torus_rank,
                    "component_orders": list(m.component_orders),
                    "surjective": v,
                }
                for m, v in zip(instance.cartan_models, verdicts)
            ],
            "dense": dense,
        }
        _echo(json.dumps(payload, indent=2, sort_keys=True))
        return
    _echo(f"instance: {instance.name} ({len(instance.cartan_models)} cartan classes)")
    for idx, (m, v) in enumerate(zip(instance.cartan_models, verdicts), start=1):
        _echo(
            f"class {idx} (vector_rank={m.vector_rank}, torus_rank={m.torus_rank}, "
            f"orders={list(m.component_orders)}): surjective for k={exponent}: {str(v).lower()}"
        )
    if dense:
        _echo(f"dense: true (k={exponent} passes every class)")
    else:
        idx = verdicts.index(False)
        m = instance.cartan_models[idx]
        blocking = sorted(o for o in m.component_orders if math.gcd(exponent, o) > 1)
        _echo(f"dense: false (class {idx + 1} fails: order {blocking[0]})")


@main.command()
@click.argument("paths", nargs=-1)
@click.option("--all", "run_all", is_flag=True, help="verify the bundled catalog")
@click.option("--json", "as_json", is_flag=True)
def verify(paths: tuple[str, ...], run_all: bool, as_json: bool) -> None:
    """Run every invariant suite; nonzero exit iff any non-advisory check fails."""
    if run_all and paths:
        raise InputError("--all verifies the bundled catalog and takes no paths")
    if run_all:
        report = run_verification()
    else:
        # explicit paths only; none given means zero checks, exit 0
        report = run_verification(paths=list(paths))
    _echo(report_to_json(report) if as_json else report_to_text(report))
    if not report.ok:
        sys.exit(EXIT_VERIFICATION_FAILURE)


@main.command("catalog")
@click.option("--json", "as_json", is_flag=True)
def catalog_cmd(as_json: bool) -> None:
    """List the bundled fixtures and model instances."""
    fixtures = sorted(bundled_fixtures())
    models = sorted(bundled_models())
    if as_json:
        _echo(json.dumps({"fixtures": fixtures, "models": models}, indent=2, sort_keys=True))
        return
    _echo("fixtures: " + ", ".join(fixtures))
    _echo("models: " + ", ".join(models))


if __name__ == "__main__":
    main()
