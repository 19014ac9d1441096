"""Fixture catalog: algebra files, bundled examples, and vector parsing.

Algebra files are JSON with rational entries written as strings ("3/2",
"-1") so round trips are bit-exact; omitted bracket entries mean zero and
only keys "i,j" with i < j are allowed.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

from .algebra import LieAlgebra
from .errors import IndexOutOfRange, ParseError
from .linalg import Vec


def _fixture_root():
    return resources.files(__package__) / "fixtures"


MATRIX_FILE = "verification_matrix.json"


def bundled_fixtures() -> dict[str, Path]:
    """Name -> path of every bundled algebra file, sorted by name."""
    root = _fixture_root()
    out = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json") and entry.name != MATRIX_FILE:
            out[entry.name[: -len(".json")]] = Path(str(entry))
    return out


def bundled_models() -> dict[str, Path]:
    root = _fixture_root() / "models"
    out = {}
    for entry in sorted(root.iterdir(), key=lambda e: e.name):
        if entry.name.endswith(".json"):
            out[entry.name[: -len(".json")]] = Path(str(entry))
    return out


def matrix_path() -> Path:
    return Path(str(_fixture_root() / MATRIX_FILE))


def _distinct_keys(pairs) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise ParseError(f"key {key!r} repeats inside one object")
        out[key] = value
    return out


def _json_int(text: str) -> int:
    """A JSON integer; one past the interpreter's digit limit raises ParseError."""
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"an integer of {len(text)} digits is too long") from exc


def read_json(path):
    """Parse a JSON file; a key repeated inside one object raises ParseError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_distinct_keys, parse_int=_json_int)
    except (json.JSONDecodeError, ParseError) as exc:
        raise ParseError(f"{path}: {exc}") from exc


def load_verification_matrix() -> dict:
    return read_json(matrix_path())


def parse_rational(value) -> Fraction:
    """Exact scalar from a file entry: a string like "3/2" or an integer."""
    if isinstance(value, bool):
        raise ParseError(f"boolean {value!r} is not a rational entry")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except ValueError as exc:
            if len(value) <= 40:
                raise ParseError(f"bad rational string {value!r}: {exc}") from exc
            # quote the head only; the interpreter's own message quotes it all
            digits = sum(map(str.isdigit, value))
            limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
            reason = "not a rational"
            if 0 < limit < digits:
                reason = f"{digits} digits, past the interpreter's limit of {limit} per integer"
            raise ParseError(f"bad rational string {value[:24]!r}... of {len(value)} characters: {reason}") from exc
        except ZeroDivisionError as exc:
            raise ParseError(f"bad rational string {value!r}: the denominator is zero") from exc
    raise ParseError(
        f"rational entries must be strings or integers, got {type(value).__name__} "
        "(floats would break bit-exact round trips)"
    )


def parse_vector(entries, dim: int) -> Vec:
    if not isinstance(entries, (list, tuple)):
        raise ParseError("a coordinate vector must be a list of rational strings")
    if len(entries) != dim:
        raise ParseError(f"coordinate vector of length {len(entries)}, expected {dim}")
    return tuple(parse_rational(e) for e in entries)


def parse_ideal_spec(text: str, dim: int) -> list[Vec]:
    """The rows of an ``--ideal`` value: a JSON list of coordinate vectors."""
    try:
        raw = json.loads(text, parse_int=_json_int)
    except (json.JSONDecodeError, ParseError) as exc:
        raise ParseError(f"bad --ideal JSON: {exc}") from exc
    if not isinstance(raw, list):
        raise ParseError("--ideal must be a JSON list of coordinate vectors")
    return [parse_vector(r, dim) for r in raw]


def format_rational(value: Fraction) -> str:
    return str(value)


def format_vector(v) -> list[str]:
    return [format_rational(Fraction(e)) for e in v]


def algebra_from_dict(data: dict, skip_jacobi: bool = False) -> LieAlgebra:
    if not isinstance(data, dict):
        raise ParseError("algebra file must be a JSON object")
    try:
        dim = data["dim"]
        basis = data["basis"]
        brackets = data.get("brackets", {})
    except KeyError as exc:
        raise ParseError(f"missing field: {exc}") from exc
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
        raise ParseError(f"dim must be a non-negative integer, got {dim!r}")
    if not isinstance(basis, list) or len(basis) != dim:
        raise ParseError("basis must list exactly dim labels")
    if not all(isinstance(label, str) and label for label in basis) or len(set(basis)) != dim:
        raise ParseError(f"basis labels must be distinct non-empty strings, got {basis!r}")
    if not isinstance(brackets, dict):
        raise ParseError("brackets must be an object keyed by 'i,j'")

    constants: dict[tuple[int, int], dict[int, Fraction]] = {}
    for key, entry in brackets.items():
        try:
            i_text, j_text = key.split(",")
            i, j = int(i_text), int(j_text)
        except (ValueError, AttributeError) as exc:
            raise ParseError(f"bad bracket key {key!r}: expected 'i,j'") from exc
        if not (0 <= i < dim and 0 <= j < dim):
            raise IndexOutOfRange(f"bracket key {key!r} indexes outside dim {dim}")
        if i >= j:
            raise ParseError(f"bracket key {key!r} must have i < j; the other side is derived")
        if (i, j) in constants:
            raise ParseError(f"bracket key {key!r} repeats the pair ({i},{j})")
        if not isinstance(entry, dict):
            raise ParseError(f"bracket entry for {key!r} must map k -> rational string")
        row: dict[int, Fraction] = {}
        for k_text, value in entry.items():
            try:
                k = int(k_text)
            except ValueError as exc:
                raise ParseError(f"bad target index {k_text!r} under {key!r}") from exc
            if not (0 <= k < dim):
                raise IndexOutOfRange(f"target index {k} under {key!r} outside dim {dim}")
            if k in row:
                raise ParseError(f"target index {k_text!r} under {key!r} repeats index {k}")
            row[k] = parse_rational(value)
        constants[(i, j)] = row

    name = data.get("name")
    return LieAlgebra(
        dim,
        constants,
        basis,
        check_jacobi=not skip_jacobi,
        name=name if isinstance(name, str) else None,
    )


def load_algebra(path, skip_jacobi: bool = False) -> LieAlgebra:
    """Load and validate an algebra file; Jacobi is checked by default."""
    path = Path(path)
    algebra = algebra_from_dict(read_json(path), skip_jacobi=skip_jacobi)
    if algebra.name is None:
        algebra.name = path.stem  # fall back to the file stem for display
    return algebra


def load_bundled(name: str, skip_jacobi: bool = False) -> LieAlgebra:
    fixtures = bundled_fixtures()
    if name not in fixtures:
        raise ParseError(f"no bundled fixture named {name!r}")
    return load_algebra(fixtures[name], skip_jacobi=skip_jacobi)
