"""Every check of ``cartankit.verify`` is declared once and runs.

A check joins its table through the decorator at its function, so a
``_check_*`` function that lost its decorator would stop running without a
sound.  Each such function must sit in exactly one table, the check ids
must be distinct and written once in the module, and the registered ids
must be the ones that ``verify --all --json`` reports.
"""

import json
from collections import Counter
from pathlib import Path

from click.testing import CliRunner

from cartankit import verify
from cartankit.cli import main


def tables() -> list[list]:
    return [v for v in vars(verify).values() if isinstance(v, list) and v and isinstance(v[0], verify._Check)]


def registered():
    return [check for table in tables() for check in table]


def test_every_check_function_is_registered_once():
    functions = {name: fn for name, fn in vars(verify).items() if name.startswith("_check_") and callable(fn)}
    counts = Counter(check.fn.__name__ for check in registered())
    assert counts == Counter(functions.keys())  # one registration per function, and nothing else registered
    assert all(check.fn is functions[check.fn.__name__] for check in registered())


def test_check_ids_are_distinct_and_written_once():
    ids = [check.check_id for check in registered()]
    assert len(ids) == len(set(ids))
    source = Path(verify.__file__).read_text(encoding="utf-8")
    assert [i for i in ids if source.count(f'"{i}"') != 1] == []


def test_registered_ids_are_the_reported_ones():
    result = CliRunner().invoke(main, ["verify", "--all", "--json"])
    assert result.exit_code == 0
    reported = {r["check"] for f in json.loads(result.output)["fixtures"] for r in f["results"]}
    assert len(reported) == 27
    assert {check.check_id for check in registered()} == reported
