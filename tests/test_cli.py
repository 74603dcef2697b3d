"""Unit tests for the command-line interface."""

import os

import pytest

from repro import Engine
import repro.__main__ as cli
from repro.__main__ import main
from repro.xmark import QUERIES
from tests.conftest import TINY_AUCTION


@pytest.fixture
def xml_file(tmp_path):
    path = tmp_path / "auction.xml"
    path.write_text(TINY_AUCTION)
    return str(path)


QUERY = (
    'FOR $p IN document("auction.xml")//person '
    "WHERE $p//age > 25 RETURN <o>{$p/name/text()}</o>"
)


class TestQuery:
    def test_inline_query(self, xml_file, capsys):
        code = main(["query", xml_file, "-q", QUERY])
        out = capsys.readouterr().out
        assert code == 0
        assert "<o>Alice</o>" in out
        assert "<o>Carol</o>" in out

    def test_query_file(self, xml_file, tmp_path, capsys):
        query_path = tmp_path / "q.xq"
        query_path.write_text(QUERY)
        code = main(["query", xml_file, "-f", str(query_path)])
        assert code == 0
        assert "Alice" in capsys.readouterr().out

    def test_engine_selection(self, xml_file, capsys):
        for engine in ("gtp", "tax", "nav"):
            code = main(["query", xml_file, "-q", QUERY, "-e", engine])
            assert code == 0
            assert "Alice" in capsys.readouterr().out

    def test_stats_flag(self, xml_file, capsys):
        code = main(["query", xml_file, "-q", QUERY, "--stats"])
        assert code == 0
        captured = capsys.readouterr()
        assert "trees in" in captured.err
        assert "sjoins=" in captured.err

    def test_one_query_is_one_run(self, xml_file, capsys, monkeypatch):
        """A CLI query adds exactly one run's pattern matches (it was
        once measured and then run again)."""
        engine = Engine()
        engine.load_xml("auction.xml", TINY_AUCTION)
        engine.run(QUERY)
        once = engine.db.metrics.snapshot()["pattern_matches"]
        opened = []

        def open_engine(source):
            opened.append(real_open(source))
            return opened[-1]

        real_open = cli._open_engine
        monkeypatch.setattr(cli, "_open_engine", open_engine)
        assert main(["query", xml_file, "-q", QUERY, "--stats"]) == 0
        (served,) = opened
        assert served.db.metrics.snapshot()["pattern_matches"] == once > 0
        assert "2 trees in" in capsys.readouterr().err

    def test_optimize_flag(self, xml_file, capsys):
        code = main(["query", xml_file, "-q", QUERY, "-O"])
        assert code == 0
        assert "Alice" in capsys.readouterr().out

    def test_xmark_source(self, capsys):
        code = main([
            "query", "xmark:0.001", "-q",
            'FOR $p IN document("auction.xml")//person RETURN $p/name',
        ])
        assert code == 0
        assert "<name>" in capsys.readouterr().out

    def test_bad_query_reports_error(self, xml_file, capsys):
        code = main(["query", xml_file, "-q", "NOT A QUERY"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        code = main(["query", "/nonexistent.xml", "-q", QUERY])
        assert code == 1


class TestExplain:
    def test_explain_prints_plan(self, xml_file, capsys):
        code = main(["explain", xml_file, "-q", QUERY])
        out = capsys.readouterr().out
        assert code == 0
        assert "Construct" in out
        assert "Select" in out

    def test_explain_renderings_are_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["explain", "xmark:0.001", "-q", QUERY, "--dot", "--lint"])
        assert exit_info.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err


class TestGenerate:
    def test_generate_xml(self, tmp_path, capsys):
        out = tmp_path / "doc.xml"
        code = main(["generate", str(out), "--factor", "0.001"])
        assert code == 0
        assert out.exists()
        assert "<site>" in out.read_text()

    def test_generate_tlcdb_and_query_it(self, tmp_path, capsys):
        out = tmp_path / "doc.tlcdb"
        assert main(["generate", str(out), "--factor", "0.001"]) == 0
        capsys.readouterr()
        code = main([
            "query", str(out), "-q",
            'FOR $p IN document("auction.xml")//person RETURN $p/name',
        ])
        assert code == 0
        assert "<name>" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, code",
    [
        (["query", "xmark:abc", "-q", QUERY], 1),
        (["query", "xmark:-1", "-q", QUERY], 1),
        (["query", "xmark:nan", "-q", QUERY], 1),
        (["query", "xmark:inf", "-q", QUERY], 1),
        (["generate", "--factor", "nan", os.devnull], 2),
        (["bench", "17", "--factor", "nan"], 2),
    ],
)
def test_bad_xmark_factor_is_an_error_not_a_traceback(argv, code, capsys):
    if code == 2:  # argparse's usage error
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
    else:
        assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


class TestTail:
    @pytest.fixture
    def log_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text(
            "".join(f'{{"trace_id": "t{n}"}}\n' for n in range(3))
        )
        return str(path)

    def test_count_selects_the_newest_events(self, log_file, capsys):
        for count, shown in (("0", []), ("2", ["t1", "t2"]),
                             ("9", ["t0", "t1", "t2"])):
            assert main(["tail", "-f", log_file, "-n", count]) == 0
            out = capsys.readouterr().out
            assert [line.split()[0] for line in out.splitlines()] == shown

    def test_negative_count_is_a_usage_error(self, log_file, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["tail", "-f", log_file, "-n", "-1"])
        assert exit_info.value.code == 2
        assert "count must be >= 0" in capsys.readouterr().err


class TestBench:
    def test_bench_figure16(self, capsys):
        code = main(["bench", "16", "--factor", "0.001", "--repeats", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "OPT" in out

    def test_bench_figure16_trace_breakdown(self, capsys):
        code = main([
            "bench", "16", "--factor", "0.001", "--repeats", "1", "--trace",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "self time per operator" in out
        assert "delta" in out

    def test_bench_figure17_rejects_trace(self, capsys):
        code = main(["bench", "17", "--trace"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_bench_figure17_sweeps_up_to_factor(self, capsys):
        code = main(["bench", "17", "--factor", "0.002", "--repeats", "1"])
        assert code == 0
        header = capsys.readouterr().out.split("\n", 1)[0].split()
        assert header[-2:] == ["0.001", "0.002"] and len(header) == 6

    def test_bench_figure15_subset_prints_verdicts(self, capsys):
        assert main(["bench", "15", "--factor", "0.001", "--repeats", "1",
                     "--queries", "x1,x2", "--engines", "tlc,tax"]) == 0
        out = capsys.readouterr().out
        assert "TLC      TAX" in out and "navsteps" in out
        assert "not measured    NAV makes 0 index_lookups" in out
        assert main(["bench", "16", "--queries", "x3"]) == 1  # 15 only


class TestProfile:
    def test_profile_annotated_plan(self, xml_file, capsys):
        code = main(["profile", "-d", xml_file, QUERY])
        captured = capsys.readouterr()
        assert code == 0
        assert "# self " in captured.out
        assert "cum " in captured.out
        assert "out " in captured.out
        assert "-- total" in captured.out
        assert "trees in" in captured.err

    def test_profile_query_flag(self, xml_file, capsys):
        code = main(["profile", "-d", xml_file, "-q", QUERY])
        assert code == 0
        assert "Construct" in capsys.readouterr().out

    def test_profile_baseline_engines(self, xml_file, capsys):
        for engine in ("gtp", "tax"):
            code = main(["profile", "-d", xml_file, "-e", engine, QUERY])
            assert code == 0
            assert "# self " in capsys.readouterr().out

    def test_profile_optimized_and_strict(self, xml_file, capsys):
        code = main(["profile", "-d", xml_file, "-O", "--strict", QUERY])
        assert code == 0
        assert "# self " in capsys.readouterr().out

    def test_profile_dot_flag(self, xml_file, capsys):
        code = main(["profile", "-d", xml_file, "--dot", QUERY])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph plan {")
        assert "self " in out

    def test_x20_counts_from_the_index(self, capsys):
        """x20's four one-step counts are each one index-count
        Aggregate: no extension Select builds the counted nodes."""
        assert main(["profile", QUERIES["x20"].text]) == 0
        out = capsys.readouterr().out
        assert out.count("Aggregate count(") == 4
        assert "Select extend" not in out

    def test_profile_rejects_double_query(self, xml_file, capsys):
        assert main(["profile", "-d", xml_file, QUERY, "-q", QUERY]) == 1
        assert "error:" in capsys.readouterr().err

    def test_profile_blank_query_is_clean_error(self, xml_file, capsys):
        code = main(["profile", "-d", xml_file, "-q", "   "])
        assert code == 1
        assert "empty" in capsys.readouterr().err


class TestExplainDot:
    def test_explain_dot_flag(self, xml_file, capsys):
        code = main(["explain", xml_file, "-q", QUERY, "--dot"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("digraph plan {")
        assert "Construct" in out


class TestLint:
    def test_lint_positional_query(self, capsys):
        code = main(["lint", QUERY])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_query_flag_and_optimize(self, capsys):
        for extra in ([], ["-O"]):
            code = main(["lint", "-q", QUERY] + extra)
            assert code == 0
            assert "clean" in capsys.readouterr().out

    def test_lint_query_file(self, tmp_path, capsys):
        query_path = tmp_path / "q.xq"
        query_path.write_text(QUERY)
        assert main(["lint", "-f", str(query_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_needs_no_document(self, capsys):
        # lint is purely static: no document argument anywhere
        assert main(["lint", QUERY]) == 0
        capsys.readouterr()

    def test_lint_rejects_double_query(self, capsys):
        assert main(["lint", QUERY, "-q", QUERY]) == 1
        assert "error:" in capsys.readouterr().err

    def test_lint_syntax_error_exits_nonzero(self, capsys):
        assert main(["lint", "NOT A QUERY"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_explain_lint_annotates_flow(self, xml_file, capsys):
        code = main(["explain", xml_file, "-q", QUERY, "--lint"])
        out = capsys.readouterr().out
        assert code == 0
        assert "live [" in out
        assert "reads [" in out

    def test_explain_lint_is_tlc_only(self, xml_file, capsys):
        code = main(
            ["explain", xml_file, "-q", QUERY, "-e", "gtp", "--lint"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_explain_lint_shows_cardinality_bounds(self, xml_file, capsys):
        code = main(["explain", xml_file, "-q", QUERY, "--lint"])
        out = capsys.readouterr().out
        assert code == 0
        assert "card [" in out

    def test_lint_severity_threshold_accepts_both_levels(self, capsys):
        for severity in ("error", "warning"):
            code = main(["lint", QUERY, "--severity", severity])
            assert code == 0
            assert "clean" in capsys.readouterr().out

