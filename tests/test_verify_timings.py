"""``scripts/verify_timings.py``: one timing per check id, and the report untouched."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from cartankit import verify

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "verify_timings.py"


def load_script():
    spec = importlib.util.spec_from_file_location("verify_timings", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_timed_pass_covers_every_check_and_restores_the_tables(monkeypatch, capsys):
    script = load_script()
    tables = [list(t) for t in script.TABLES]
    before = verify.report_to_json(verify.run_verification())
    monkeypatch.setattr(sys, "argv", ["verify_timings.py", "--passes", "1", "--json"])
    script.main()
    payload = json.loads(capsys.readouterr().out)
    ids = {c.check_id for table in tables for c in table}
    assert set(payload["checks_s"]) == ids
    assert payload["passes"] == 1
    assert sum(payload["checks_s"].values()) + payload["outside_checks_s"] == pytest.approx(payload["pass_s"])
    assert [list(t) for t in script.TABLES] == tables
    assert verify.report_to_json(verify.run_verification()) == before
