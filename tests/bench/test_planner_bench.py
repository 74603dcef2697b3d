"""The BENCH_9 harness: report schema, table, regression gate."""

from repro.bench import (
    PlannerReport,
    PlannerRow,
    check_planner_against_baseline,
    compare_planner,
    planner_table,
    runtime_flags,
)


def _report(speedups, reordered=(), environment=None):
    report = PlannerReport(
        factor=0.002,
        repeats=1,
        engine="tlc",
        environment=environment or {},
    )
    for i, speedup in enumerate(speedups):
        name = f"q{i}"
        report.rows.append(
            PlannerRow(
                query=name,
                static_seconds=0.01 * speedup,
                planned_seconds=0.01,
                speedup=speedup,
                reordered_sites=1 if name in reordered else 0,
            )
        )
    return report


def test_join_order_win_needs_a_reorder_and_a_speedup():
    row = PlannerRow("x9", 0.02, 0.01, 2.0, reordered_sites=1)
    assert row.join_order_win
    assert not PlannerRow("x1", 0.02, 0.01, 2.0, 0).join_order_win
    assert not PlannerRow("x12", 0.01, 0.02, 0.5, 1).join_order_win


def test_report_round_trips_through_json():
    report = _report(
        [1.2, 0.9, 1.0],
        reordered=("q0",),
        environment=runtime_flags(),
    )
    again = PlannerReport.from_json(report.to_json())
    assert again.rows == report.rows
    assert again.environment == report.environment
    assert {"cpu_count", "batch", "numpy", "planner"} <= set(
        again.environment
    )
    assert again.speedup_geomean() == report.speedup_geomean()
    assert again.reordered_queries() == ["q0"]
    assert again.join_order_wins() == ["q0"]


def test_planner_table_flags_wins_and_reorders():
    table = planner_table(_report([1.2, 0.9], reordered=("q0", "q1")))
    assert "join-order-win" in table
    assert "reordered" in table
    assert "geomean speedup" in table


def test_baseline_check_passes_a_matching_run():
    baseline = _report([1.1, 1.0], reordered=("q0",))
    current = _report([1.08, 1.0], reordered=("q0",))
    assert check_planner_against_baseline(current, baseline) == []


def test_baseline_check_catches_a_geomean_regression():
    baseline = _report([2.0, 2.0], reordered=("q0",))
    current = _report([1.2, 1.2], reordered=("q0",))
    findings = check_planner_against_baseline(current, baseline)
    assert any("regressed" in finding for finding in findings)


def test_baseline_check_catches_net_slower_planning():
    baseline = _report([1.0, 1.0], reordered=("q0",))
    current = _report([0.6, 0.6], reordered=("q0",))
    findings = check_planner_against_baseline(current, baseline)
    assert any("net slower" in finding for finding in findings)
    # near break-even is NOT a finding: the gate tolerates CI noise
    close = _report([0.95, 0.96], reordered=("q0",))
    findings = check_planner_against_baseline(close, baseline)
    assert not any("net slower" in finding for finding in findings)


def test_baseline_check_does_not_gate_on_join_order_wins():
    """A sub-noise condition (one reordered query reading faster) is
    reported, not gated: it flipped with nothing on the planner path
    changed."""
    baseline = _report([1.1, 1.0], reordered=("q0",))
    current = _report([1.1, 1.0])  # fast, but nothing was reordered
    assert current.join_order_wins() == []
    assert check_planner_against_baseline(current, baseline) == []


def test_compare_planner_measures_both_sides():
    """A two-query sweep: rows populated, environment stamped."""
    report = compare_planner(
        queries=("x1", "x9"), factor=0.001, repeats=1
    )
    assert [row.query for row in report.rows] == ["x1", "x9"]
    assert report.environment == runtime_flags()
    for row in report.rows:
        assert row.static_seconds > 0
        assert row.planned_seconds > 0
    # x9 is the documented reorder; x1 has nothing to reorder
    assert report.rows[1].reordered_sites >= 1
    assert report.rows[0].reordered_sites == 0
