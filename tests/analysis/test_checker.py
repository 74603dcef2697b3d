"""Baseline reconciliation and the run_check orchestrator."""

import json

import pytest

from repro.analysis.checker import PASSES, run_check
from repro.analysis.findings import (
    CHECK_CATALOG,
    Baseline,
    CheckFinding,
    GLOBAL_REBIND,
    UNSAFE_LAZY_INIT,
)
from repro.analysis.diagnostics import Severity


def finding(code=GLOBAL_REBIND, symbol="f:_S", location="m.py"):
    return CheckFinding(
        code=code, location=location, symbol=symbol, message="boom"
    )


class TestCheckFinding:
    def test_key_and_render(self):
        f = finding()
        assert f.key == f"{GLOBAL_REBIND} m.py::f:_S"
        assert GLOBAL_REBIND in f.render()
        assert "boom" in f.render()

    def test_every_catalogued_code_has_a_severity(self):
        for code in CHECK_CATALOG:
            assert finding(code=code).severity is Severity.ERROR


class TestBaseline:
    def test_split_new_suppressed_stale(self):
        base = Baseline(
            {
                finding(symbol="old:_A").key: "reviewed",
                f"{UNSAFE_LAZY_INIT} gone.py::x:_y": "was fixed",
            }
        )
        current = [finding(symbol="old:_A"), finding(symbol="new:_B")]
        new, suppressed, stale = base.split(current)
        assert [f.symbol for f in new] == ["new:_B"]
        assert [f.symbol for f in suppressed] == ["old:_A"]
        assert stale == [f"{UNSAFE_LAZY_INIT} gone.py::x:_y"]

    def test_round_trips_through_json(self, tmp_path):
        path = tmp_path / "baseline.json"
        original = Baseline({finding().key: "because"})
        original.save(path)
        loaded = Baseline.load(path)
        assert loaded.suppressions == original.suppressions
        data = json.loads(path.read_text())
        assert data["version"] == 1
        assert data["suppressions"][0]["reason"] == "because"

    def test_empty_baseline_marks_everything_new(self):
        new, suppressed, stale = Baseline.empty().split([finding()])
        assert len(new) == 1 and not suppressed and not stale


class TestRunCheck:
    def test_unknown_pass_is_rejected(self):
        with pytest.raises(ValueError):
            run_check(passes=["spellcheck"])

    def test_concurrency_pass_over_fixture_paths(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "_S = None\n"
            "def f():\n"
            "    global _S\n"
            "    _S = 1\n"
        )
        result = run_check(paths=[bad], passes=["concurrency"])
        assert result.per_pass == {"concurrency": 1}
        assert [f.code for f in result.new] == [GLOBAL_REBIND]
        assert result.exit_code() == 1

    def test_baseline_suppresses_and_detects_staleness(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            "_S = None\n"
            "def f():\n"
            "    global _S\n"
            "    _S = 1\n"
        )
        result = run_check(paths=[bad], passes=["concurrency"])
        key = result.new[0].key
        base = Baseline({key: "reviewed", "CC104 x.py::a:_b": "stale"})
        result = run_check(
            paths=[bad], baseline=base, passes=["concurrency"]
        )
        assert not result.new
        assert [f.key for f in result.suppressed] == [key]
        assert result.stale == ["CC104 x.py::a:_b"]
        assert result.exit_code() == 0
        assert result.exit_code(strict_baseline=True) == 1
        rendered = result.render()
        assert "suppressed" in rendered and "stale" in rendered

    def test_clean_paths_render_a_summary(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("def f():\n    return 1\n")
        result = run_check(paths=[clean], passes=["concurrency"])
        assert result.exit_code(strict_baseline=True) == 0
        assert "0 new, 0 suppressed, 0 stale" in result.render()


class TestRepositoryContract:
    """The acceptance criteria: the repo itself checks clean."""

    def test_package_concurrency_findings_match_the_baseline(self):
        from pathlib import Path

        baseline_path = (
            Path(__file__).resolve().parents[2]
            / "tools"
            / "check_baseline.json"
        )
        baseline = Baseline.load(baseline_path)
        result = run_check(baseline=baseline, passes=["concurrency"])
        assert result.new == [], [f.render() for f in result.new]
        assert result.stale == []

    def test_pass_registry_is_stable(self):
        assert PASSES == ("concurrency", "cardinality")
