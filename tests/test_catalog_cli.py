import contextlib
import errno
import gc
import io
import json
import sys
import weakref
from fractions import Fraction as F

import pytest
from click.testing import CliRunner

from cartankit.catalog import (
    algebra_from_dict,
    bundled_fixtures,
    format_vector,
    load_algebra,
    load_bundled,
    load_verification_matrix,
    parse_rational,
    parse_vector,
)
from cartankit import cli, errors, verify
from cartankit.cli import main
from cartankit.errors import (
    CartanKitError,
    IndexOutOfRange,
    InputError,
    JacobiViolation,
    ParseError,
)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


BAD_JACOBI = {
    "name": "broken",
    "dim": 3,
    "basis": ["x", "y", "z"],
    "brackets": {"0,1": {"1": "1"}, "1,2": {"0": "1"}, "0,2": {"2": "1"}},
}


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def test_bundled_catalog_contents():
    names = set(bundled_fixtures())
    expected = {
        "abelian1", "abelian2", "abelian3", "heisenberg", "heisenberg5",
        "aff1", "e2", "oscillator", "sl2", "gl2", "sl2xsl2",
        "sl2xR2", "sl2xR2xR", "sl2xheis", "r3_0", "r3_half", "r3_1", "r3_m1",
    }
    assert names == expected


def test_load_sl2(sl2):
    assert sl2.dim == 3
    assert sl2.basis_labels == ("h", "e", "f")
    assert sl2.bracket_basis(1, 2) == (F(1), F(0), F(0))


def test_empty_brackets_is_abelian():
    g = algebra_from_dict({"name": "a", "dim": 2, "basis": ["p", "q"], "brackets": {}})
    assert g.bracket((1, 0), (0, 1)) == (F(0), F(0))


def test_jacobi_violation_reported_with_witness(tmp_path):
    path = write_json(tmp_path, "broken.json", BAD_JACOBI)
    with pytest.raises(JacobiViolation) as exc:
        load_algebra(path)
    assert exc.value.triple == (0, 1, 2)
    assert exc.value.residual == (F(2), F(0), F(0))
    # loadable when the check is explicitly skipped
    assert load_algebra(path, skip_jacobi=True).dim == 3


def test_rational_strings_roundtrip():
    assert parse_rational("3/2") == F(3, 2)
    assert parse_rational("-1") == F(-1)
    assert parse_rational(4) == F(4)
    assert format_vector([F(3, 2), F(-1)]) == ["3/2", "-1"]
    assert parse_vector(["3/2", "-1"], 2) == (F(3, 2), F(-1))


def test_zero_denominator_is_named():
    with pytest.raises(ParseError) as exc:
        parse_rational("1/0")
    assert str(exc.value) == "bad rational string '1/0': the denominator is zero"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
def test_rational_string_past_the_digit_limit_is_quoted_short():
    # the message used to quote all 5,000 digits and the interpreter's advice
    limit = sys.get_int_max_str_digits()
    with pytest.raises(ParseError) as exc:
        parse_rational("9" * 5000)
    message = str(exc.value)
    assert message == (
        f"bad rational string {'9' * 24!r}... of 5000 characters: "
        f"5000 digits, past the interpreter's limit of {limit} per integer"
    )
    assert "set_int_max_str_digits" not in message


def test_long_bad_rational_string_is_quoted_short():
    with pytest.raises(ParseError) as exc:
        parse_rational("x" * 5000)
    assert str(exc.value) == f"bad rational string {'x' * 24!r}... of 5000 characters: not a rational"
    # a short one keeps the whole string and the parser's reason
    with pytest.raises(ParseError) as exc:
        parse_rational("3/x")
    assert str(exc.value) == "bad rational string '3/x': Invalid literal for Fraction: '3/x'"


def test_cli_rational_string_past_the_digit_limit_exits_2(runner):
    ideal = json.dumps([["9" * 5000, "0", "0"]])
    result = runner.invoke(main, ["quotient", fixture_path("sl2"), "--ideal", ideal])
    assert result.exit_code == 2, result.output
    assert "of 5000 characters" in result.stderr
    assert len(result.stderr) < 200


def test_floats_rejected():
    with pytest.raises(ParseError):
        parse_rational(0.5)
    with pytest.raises(ParseError):
        algebra_from_dict(
            {"dim": 2, "basis": ["a", "b"], "brackets": {"0,1": {"0": 0.5}}}
        )


def test_index_out_of_range(tmp_path):
    payload = {"dim": 2, "basis": ["a", "b"], "brackets": {"0,5": {"0": "1"}}}
    with pytest.raises(IndexOutOfRange):
        algebra_from_dict(payload)
    payload = {"dim": 2, "basis": ["a", "b"], "brackets": {"0,1": {"7": "1"}}}
    with pytest.raises(IndexOutOfRange):
        algebra_from_dict(payload)


def test_lower_triangle_keys_rejected():
    with pytest.raises(ParseError):
        algebra_from_dict({"dim": 2, "basis": ["a", "b"], "brackets": {"1,0": {"0": "1"}}})


def test_malformed_files(tmp_path):
    path = tmp_path / "nonsense.json"
    path.write_text("{", encoding="utf-8")
    with pytest.raises(ParseError):
        load_algebra(path)
    with pytest.raises(ParseError):
        algebra_from_dict({"dim": "three", "basis": [], "brackets": {}})
    with pytest.raises(ParseError):
        load_bundled("no-such-fixture")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no integer digit limit")
def test_cli_integer_past_the_digit_limit_is_an_input_error(runner, tmp_path):
    # json parses such an integer with a plain ValueError, which used to end
    # in a traceback for algebra files
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    algebra = tmp_path / "algebra.json"
    algebra.write_text(f'{{"dim": {digits}, "basis": []}}', encoding="utf-8")
    model = tmp_path / "model.json"
    model.write_text(f'{{"name": "m", "cartan_classes": [{{"vector_rank": {digits}, "torus_rank": 0}}]}}')
    for args in (["analyze", str(algebra)], ["powermap", str(model), "-k", "2"],
                 ["quotient", fixture_path("sl2"), "--ideal", f"[[{digits}, 0, 0]]"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert result.stderr.endswith(f"an integer of {len(digits)} digits is too long\n")


def test_verification_matrix_references_catalog():
    matrix = load_verification_matrix()
    fixtures = set(bundled_fixtures())
    assert set(matrix["ideals"]) <= fixtures
    assert set(matrix["chain_starts"]) <= fixtures


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


@pytest.fixture()
def runner():
    return CliRunner()


def fixture_path(name):
    return str(bundled_fixtures()[name])


def test_cli_releases_redirected_output_buffers():
    # in-process callers redirect stdout to a fresh buffer per command;
    # none of those buffers may outlive its command
    refs = []
    for _ in range(20):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), pytest.raises(SystemExit) as exc:
            main.main(args=["levi", fixture_path("sl2"), "--json"], prog_name="cartankit")
        assert exc.value.code == 0
        assert json.loads(buf.getvalue())["radical"] == []
        refs.append(weakref.ref(buf))
        del buf
    gc.collect()
    assert [r for r in refs if r() is not None] == []


def test_cli_analyze_sl2(runner):
    result = runner.invoke(main, ["analyze", fixture_path("sl2")])
    assert result.exit_code == 0
    assert "rank: 1" in result.output
    assert "semisimple: true" in result.output
    assert "radical: dim 0" in result.output


def test_cli_analyze_heisenberg(runner):
    result = runner.invoke(main, ["analyze", fixture_path("heisenberg")])
    assert result.exit_code == 0
    assert "rank: 3" in result.output
    assert "nilradical: dim 3" in result.output


def test_cli_analyze_aff1(runner):
    result = runner.invoke(main, ["analyze", fixture_path("aff1")])
    assert result.exit_code == 0
    assert "rank: 1" in result.output
    assert "nilradical: dim 1" in result.output


def test_cli_analyze_missing_file_exit_2(runner):
    result = runner.invoke(main, ["analyze", "no-such-file.json"])
    assert result.exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["analyze"],
        ["cartan"],
        ["levi"],
        ["quotient", "--ideal", "[]"],
        ["powermap", "-k", "2"],
        ["verify"],
    ],
    ids=lambda args: args[0],
)
@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_cli_unreadable_input_exit_2(runner, tmp_path, args, kind):
    if kind == "directory":
        path = tmp_path
    else:
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\xff\xfe")
    result = runner.invoke(main, [args[0], str(path), *args[1:]])
    assert result.exit_code == 2, result.output
    assert "error:" in result.output
    assert "Traceback" not in result.output


def test_cli_analyze_jacobi_violation_exit_2(runner, tmp_path):
    path = write_json(tmp_path, "broken.json", BAD_JACOBI)
    result = runner.invoke(main, ["analyze", str(path)])
    assert result.exit_code == 2


def test_cli_cartan_methods(runner):
    for method, expected_dim in [("regular", 1), ("composite", 1)]:
        result = runner.invoke(main, ["cartan", fixture_path("sl2"), "--method", method])
        assert result.exit_code == 0
        assert f"dim {expected_dim}" in result.output
    result = runner.invoke(main, ["cartan", fixture_path("sl2"), "--method", "chain"])
    assert result.exit_code == 2  # chain needs a solvable algebra


def toolkit_errors():
    """CartanKitError and every class below it in cartankit.errors."""
    found, todo = {CartanKitError}, [CartanKitError]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__ == errors.__name__ and sub not in found:
                found.add(sub)
                todo.append(sub)
    return sorted(found, key=lambda cls: cls.__name__)


INPUT_ERRORS = [cls for cls in toolkit_errors() if issubclass(cls, InputError)]


def test_input_errors_are_the_documented_ones():
    assert {cls.__name__ for cls in INPUT_ERRORS} == {
        "InputError", "ParseError", "IndexOutOfRange", "JacobiViolation", "NotIdeal", "NotCartan",
        "NotSolvable", "HypothesisViolated", "InvalidOrder", "EmptyInstance", "InvalidExponent",
    }


def inject(monkeypatch, error):
    def broken(g):
        raise error((0, 1, 2), (), "injected") if error is JacobiViolation else error("injected")

    monkeypatch.setattr(cli, "regular_element_csa", broken)


@pytest.mark.parametrize("error", [cls for cls in toolkit_errors() if cls not in INPUT_ERRORS])
def test_cli_other_library_errors_exit_3(runner, monkeypatch, error):
    # every library error that is not an input error is internal: exit 3, no traceback
    inject(monkeypatch, error)
    result = runner.invoke(main, ["cartan", fixture_path("sl2")])
    assert result.exit_code == 3
    assert isinstance(result.exception, SystemExit)
    assert (result.stdout, result.stderr) == ("", "error: injected\n")


@pytest.mark.parametrize("error", INPUT_ERRORS)
def test_cli_input_errors_exit_2(runner, monkeypatch, error):
    inject(monkeypatch, error)
    result = runner.invoke(main, ["cartan", fixture_path("sl2")])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert (result.stdout, result.stderr) == ("", "error: injected\n")


@pytest.mark.parametrize("error", [RuntimeError, ValueError, ZeroDivisionError, KeyError])
def test_cli_non_toolkit_exceptions_propagate(runner, monkeypatch, error):
    # the builtin ValueError is a bug here, not an input error
    def broken(g):
        raise error("injected")

    monkeypatch.setattr(cli, "regular_element_csa", broken)
    with pytest.raises(error, match="injected"):
        runner.invoke(main, ["cartan", fixture_path("sl2")], catch_exceptions=False)


def test_cli_broken_pipe_exits_1_without_a_message(runner, monkeypatch):
    # a closed stdout is not an unreadable input: click's own handling stays
    def closed(message):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    monkeypatch.setattr(cli, "_echo", closed)
    result = runner.invoke(main, ["catalog"])
    assert (result.exit_code, result.stdout, result.stderr) == (1, "", "")


def test_cli_runs_as_a_standalone_main(tmp_path, capsys):
    # the way scripts and the benchmark call it: click's main raises SystemExit
    args = ["powermap", str(tmp_path / "missing.json"), "-k", "2"]
    with pytest.raises(SystemExit) as exc:
        main.main(args=args, prog_name="cartankit", standalone_mode=True)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")


def test_cli_levi(runner):
    result = runner.invoke(main, ["levi", fixture_path("sl2xR2"), "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert len(payload["levi"]) == 3 and len(payload["radical"]) == 2


def test_cli_quotient_roundtrip(runner):
    result = runner.invoke(
        main,
        [
            "quotient",
            fixture_path("sl2xR2"),
            "--ideal",
            '[["0","0","0","1","0"],["0","0","0","0","1"]]',
        ],
    )
    assert result.exit_code == 0
    assert "quotient: dim 3" in result.output
    assert "pushed cartan: dim 1" in result.output
    assert "roundtrip exact: true" in result.output


def test_cli_quotient_full_ideal(runner):
    result = runner.invoke(
        main,
        ["quotient", fixture_path("heisenberg"), "--ideal",
         '[["1","0","0"],["0","1","0"],["0","0","1"]]'],
    )
    assert result.exit_code == 0
    assert "quotient: dim 0" in result.output


def test_cli_quotient_rejects_non_ideal(runner):
    result = runner.invoke(
        main, ["quotient", fixture_path("sl2"), "--ideal", '[["1","0","0"]]']
    )
    assert result.exit_code == 2


def test_cli_powermap_verdict_lines(runner):
    models_dir = fixture_path("sl2").rsplit("/", 1)[0] + "/models"
    result = runner.invoke(main, ["powermap", f"{models_dir}/sl2r-model.json", "-k", "2"])
    assert result.exit_code == 0
    assert "dense: false (class 2 fails: order 2)" in result.output
    result = runner.invoke(main, ["powermap", f"{models_dir}/sl2r-model.json", "-k", "3"])
    assert result.exit_code == 0
    assert "dense: true" in result.output


def test_cli_verify_empty_list(runner):
    result = runner.invoke(main, ["verify"])
    assert result.exit_code == 0
    assert "0 checks" in result.output


def test_cli_verify_single_fixture(runner):
    result = runner.invoke(main, ["verify", fixture_path("aff1")])
    assert result.exit_code == 0
    assert "failed" in result.output


def test_cli_verify_all_with_paths_is_an_input_error(runner):
    result = runner.invoke(main, ["verify", "--all", fixture_path("aff1")])
    assert result.exit_code == 2
    assert "error:" in result.output
    assert "checks" not in result.output


def unnamed_copy(tmp_path, fixture, file_name):
    payload = json.loads(bundled_fixtures()[fixture].read_text(encoding="utf-8"))
    del payload["name"]
    return str(write_json(tmp_path, file_name, payload))


def test_cli_verify_file_named_like_another_fixture(runner, tmp_path):
    # e2 saved without its name as heisenberg.json: heisenberg's ideals and
    # chain starts from the verification matrix do not apply to it
    result = runner.invoke(main, ["verify", unnamed_copy(tmp_path, "e2", "heisenberg.json")])
    assert result.exit_code == 0, result.output
    assert "18 checks: 18 passed, 0 failed, 0 advisory reported" in result.output


@pytest.mark.parametrize(
    ("fixture", "file_name", "applied"),
    [("aff1", None, True), ("aff1", "aff1.json", True), ("e2", "heisenberg.json", False)],
)
def test_cli_verify_applies_matrix_entries_to_the_bundled_algebra_only(
    runner, tmp_path, monkeypatch, fixture, file_name, applied
):
    # a lift that is always zero fails quotient-correspondence on every
    # ideal of the matrix, so the check fails exactly when entries apply
    monkeypatch.setattr(verify, "lift_cartan", lambda h, q: q.upper.ambient.zero_subalgebra())
    path = fixture_path(fixture) if file_name is None else unnamed_copy(tmp_path, fixture, file_name)
    result = runner.invoke(main, ["verify", path])
    assert result.exit_code == (1 if applied else 0), result.output
    assert ("FAIL     " in result.output) == applied


def test_cli_verify_flags_corrupted_fixture(runner, tmp_path):
    path = write_json(tmp_path, "broken.json", BAD_JACOBI)
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 1
    assert "load-jacobi" in result.output


def test_cli_verify_json_shape(runner):
    result = runner.invoke(main, ["verify", fixture_path("abelian1"), "--json"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["summary"]["failed"] == 0
    assert payload["fixtures"][0]["fixture"] == "abelian1"


def test_cli_catalog_listing(runner):
    result = runner.invoke(main, ["catalog"])
    assert result.exit_code == 0
    assert "sl2xheis" in result.output
    assert "sl2r-model" in result.output


def test_rescaled_sl2_is_a_valid_algebra_and_passes(runner, tmp_path):
    # doubling [e,f] only rescales the basis: the result is isomorphic to
    # sl2, satisfies Jacobi, and passes every invariant
    payload = {
        "name": "sl2-rescaled",
        "dim": 3,
        "basis": ["h", "e", "f"],
        "brackets": {"0,1": {"1": "2"}, "0,2": {"2": "-2"}, "1,2": {"0": "2"}},
    }
    path = write_json(tmp_path, "sl2-rescaled.json", payload)
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 0


@pytest.mark.parametrize(
    "payload",
    [
        {"dim": True, "basis": ["x"], "brackets": {}},
        {"dim": 2, "basis": ["a", "b"], "brackets": {"0,1": {"1": "1"}, " 0,1": {"1": "2"}}},
        {"dim": 2, "basis": ["a", "b"], "brackets": {"0,1": {"1": "1", "01": "2"}}},
    ],
    ids=["dim-true", "repeated-pair", "repeated-target"],
)
def test_cli_rejects_ambiguous_algebra_file(runner, tmp_path, payload):
    # each file used to load as some other algebra: dim 1, or the later of
    # two entries for the same bracket
    path = write_json(tmp_path, "ambiguous.json", payload)
    result = runner.invoke(main, ["analyze", str(path)])
    assert result.exit_code == 2, result.output
    assert "error:" in result.output


def test_cli_rejects_repeated_json_key(runner, tmp_path):
    # json.load keeps the later of two equal keys, so this file used to load
    # silently as the algebra with [a, b] = 2b
    path = tmp_path / "repeated.json"
    path.write_text(
        '{"dim": 2, "basis": ["a", "b"], "brackets": {"0,1": {"1": "1"}, "0,1": {"1": "2"}}}',
        encoding="utf-8",
    )
    result = runner.invoke(main, ["cartan", str(path)])
    assert result.exit_code == 2, result.output
    assert "error:" in result.output and "repeats" in result.output


@pytest.mark.parametrize(
    "basis",
    [[1, 2, 3], ["h", "h", "f"], ["h", "", "f"], ["h", None, "f"]],
    ids=["integers", "repeated", "empty", "null"],
)
@pytest.mark.parametrize(
    "args",
    [["cartan"], ["quotient", "--ideal", '[["1","0","0"]]']],
    ids=["cartan", "quotient"],
)
def test_cli_rejects_bad_basis_labels(runner, tmp_path, basis, args):
    # integer labels used to crash `quotient` with a TypeError and print as
    # numbers in `cartan`; repeated or empty labels made output ambiguous
    path = write_json(tmp_path, "labels.json", {"dim": 3, "basis": basis, "brackets": {}})
    result = runner.invoke(main, [args[0], str(path), *args[1:]])
    assert result.exit_code == 2, result.output
    assert "error:" in result.output
