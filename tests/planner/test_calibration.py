"""Calibration tests: table round-trip, activation scoping, drift.

``repro calibrate`` measures the cost model's constants; these tests
pin the machinery around the measurement — persistence, the
``calibrated()`` indirection every planner costing goes through, the
registry drift check CI runs against the committed table, and the
byte-identity guarantee (a calibrated planner annotates, never changes
results).
"""

import json
from pathlib import Path

import pytest

from repro import Engine
from repro.planner import (
    DEFAULT_CONSTANTS,
    CalibrationTable,
    active_calibration,
    calibrated,
    check_table,
    expected_operator_names,
    plan_physical,
    run_calibration,
    set_calibration,
    use_calibration,
)
from repro.planner.calibration import (
    BATCH_CONVERT_RANGE,
    BATCH_SAVING_RANGE,
)
from tests.conftest import TINY_AUCTION

REPO_TABLE = Path(__file__).resolve().parents[2] / "CALIBRATION.json"

QUERY = (
    'FOR $o IN document("auction.xml")//open_auction, '
    '$p IN document("auction.xml")//person '
    "WHERE $o/bidder/personref/@person = $p/@id "
    "RETURN <w>{$p/name/text()}</w>"
)


def sample_table(**overrides):
    fields = dict(
        factor=0.01,
        repeats=2,
        cpu_count=4,
        queries=23,
        unit_us=0.1,
        batch_saving_per_row=0.2,
        batch_convert_per_row=0.7,
        operators={
            name: {
                "self_seconds": 0.01,
                "rows": 100,
                "us_per_row": 0.5,
                "measured": True,
            }
            for name in expected_operator_names()
        },
    )
    fields.update(overrides)
    return CalibrationTable(**fields)


class TestTableRoundTrip:
    def test_save_load_preserves_everything(self, tmp_path):
        table = sample_table(note="unit test")
        path = tmp_path / "cal.json"
        table.save(str(path))
        loaded = CalibrationTable.load(str(path))
        assert loaded == table

    def test_from_dict_rejects_unknown_versions(self):
        with pytest.raises(ValueError):
            CalibrationTable.from_dict({"version": 2})
        with pytest.raises(ValueError):
            CalibrationTable.from_dict([])

    def test_file_with_a_retired_constant_still_loads(self, tmp_path):
        """A table written when the cost model still priced a second
        join engine carries ``legacy_join_factor``; the unknown constant
        is ignored and the table validates."""
        payload = sample_table().to_dict()
        payload["constants"]["legacy_join_factor"] = 5.9141
        path = tmp_path / "old.json"
        path.write_text(json.dumps(payload))
        loaded = CalibrationTable.load(str(path))
        assert loaded == sample_table()
        assert check_table(loaded) == []
        assert "legacy_join_factor" not in loaded.to_dict()["constants"]


class TestCheckTable:
    def test_well_formed_table_has_no_problems(self):
        assert check_table(sample_table()) == []

    def test_missing_operator_key_is_drift(self):
        table = sample_table()
        del table.operators["Join"]
        problems = check_table(table)
        assert any("Join" in p for p in problems)

    def test_unknown_operator_key_is_drift(self):
        table = sample_table()
        table.operators["Teleport"] = {
            "self_seconds": 0, "rows": 0,
            "us_per_row": 1.0, "measured": False,
        }
        problems = check_table(table)
        assert any("Teleport" in p for p in problems)

    def test_constants_outside_their_clamps_are_flagged(self):
        bad = sample_table(
            batch_saving_per_row=BATCH_SAVING_RANGE[1] + 1,
            batch_convert_per_row=BATCH_CONVERT_RANGE[1] + 1,
        )
        assert len(check_table(bad)) >= 2


class TestCommittedTable:
    """The repo-root CALIBRATION.json that ``repro calibrate`` wrote."""

    def test_table_exists_and_is_loadable(self):
        assert REPO_TABLE.exists(), (
            "CALIBRATION.json missing — run: python -m repro calibrate"
        )
        table = CalibrationTable.load(str(REPO_TABLE))
        assert table.version == 1
        assert table.queries > 0

    def test_operator_keys_match_the_registry(self):
        """The CI drift gate: adding a core operator without
        re-calibrating must fail here."""
        table = CalibrationTable.load(str(REPO_TABLE))
        assert check_table(table) == []
        assert set(table.operators) == set(expected_operator_names())

    def test_constants_are_exactly_the_ones_the_planner_reads(self):
        payload = json.loads(REPO_TABLE.read_text())
        assert set(payload["constants"]) == set(DEFAULT_CONSTANTS)


class TestMeasurement:
    def test_sweep_writes_exactly_the_planner_constants(self):
        """``repro calibrate``'s body on a two-query sweep: a table
        that validates and carries the constants the planner reads —
        no more (one join engine, so no engine ratio), no fewer."""
        table = run_calibration(
            factor=0.002, repeats=1, queries=["x1", "x9"]
        )
        assert check_table(table) == []
        assert set(table.to_dict()["constants"]) == set(DEFAULT_CONSTANTS)
        assert table.queries == 2
        assert table.operators["Select"]["measured"]


class TestActivation:
    def test_defaults_without_a_table(self):
        assert active_calibration() is None
        for name, value in DEFAULT_CONSTANTS.items():
            assert calibrated(name) == value

    def test_unknown_constant_is_a_loud_error(self):
        with pytest.raises(KeyError):
            calibrated("batch_saving_per_rwo")

    def test_retired_constant_is_unknown(self):
        with pytest.raises(KeyError):
            calibrated("legacy_join_factor")
        with use_calibration(sample_table()):
            with pytest.raises(KeyError):
                calibrated("legacy_join_factor")

    def test_use_calibration_scopes_the_override(self):
        table = sample_table()
        with use_calibration(table):
            assert active_calibration() is table
            assert calibrated("batch_saving_per_row") == 0.2
            assert calibrated("batch_convert_per_row") == 0.7
        assert active_calibration() is None
        assert calibrated("batch_saving_per_row") == DEFAULT_CONSTANTS[
            "batch_saving_per_row"
        ]

    def test_set_calibration_returns_previous(self):
        table = sample_table()
        assert set_calibration(table) is None
        try:
            assert set_calibration(None) is table
        finally:
            set_calibration(None)

    def test_env_variable_loads_lazily(self, tmp_path, monkeypatch):
        import repro.planner.calibration as cal

        path = tmp_path / "cal.json"
        sample_table().save(str(path))
        monkeypatch.setenv(cal.CALIBRATION_ENV, str(path))
        monkeypatch.setattr(cal, "_env_checked", False)
        monkeypatch.setattr(cal, "_active", None)
        try:
            table = active_calibration()
            assert table is not None
            assert table.batch_saving_per_row == 0.2
        finally:
            set_calibration(None)

    def test_broken_env_file_falls_back_to_defaults(
        self, tmp_path, monkeypatch
    ):
        import repro.planner.calibration as cal

        path = tmp_path / "broken.json"
        path.write_text("{not json")
        monkeypatch.setenv(cal.CALIBRATION_ENV, str(path))
        monkeypatch.setattr(cal, "_env_checked", False)
        monkeypatch.setattr(cal, "_active", None)
        try:
            assert active_calibration() is None
            assert (
                calibrated("batch_saving_per_row")
                == DEFAULT_CONSTANTS["batch_saving_per_row"]
            )
        finally:
            set_calibration(None)


class TestCalibratedPlanning:
    def test_results_stay_byte_identical_under_calibration(self):
        engine = Engine()
        engine.load_xml("auction.xml", TINY_AUCTION)
        baseline = [t.to_xml() for t in engine.run(QUERY, optimize=True)]
        # extreme-but-valid constants: whatever shape they pick, the
        # annotations must not change a single result byte
        table = sample_table(
            batch_saving_per_row=BATCH_SAVING_RANGE[1],
            batch_convert_per_row=BATCH_CONVERT_RANGE[0],
        )
        with use_calibration(table):
            translation = engine.plan(QUERY, "tlc", True, planner=True)
            from repro.core.base import Context
            from repro.core.evaluator import evaluate

            result = evaluate(
                translation.plan, Context(engine.db)
            )
        assert [t.to_xml() for t in result] == baseline

    def test_calibrated_constants_move_the_cost_report(self):
        engine = Engine()
        engine.load_xml("auction.xml", TINY_AUCTION)
        translation = engine.plan(QUERY, "tlc", False, planner=False)
        default_decision = plan_physical(
            translation.plan, engine.cardinality_stats(), apply=False
        )
        with use_calibration(sample_table(batch_convert_per_row=9.0)):
            calibrated_decision = plan_physical(
                translation.plan, engine.cardinality_stats(), apply=False
            )

        def conversion_balance(decision):
            """Conversion price minus columnar saving, whichever side
            of the currency choice carries it."""
            (choice,) = decision.by_kind("currency")
            return choice.chosen.cost or choice.rejected[0].cost

        assert conversion_balance(calibrated_decision) > conversion_balance(
            default_decision
        )
