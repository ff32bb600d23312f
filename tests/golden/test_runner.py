"""The golden runner: matrix resolution, gating, rebaselining, tracing."""

import json

import pytest

from repro.api import PAPER_TECHNIQUES
from repro.golden import (
    DEFAULT_CELL_TIMEOUT,
    GoldenBaseline,
    GoldenBaselineError,
    fast_cells,
    full_cells,
    golden_options,
    make_timeout_entry,
    quality_summary,
    reset_quality_state,
    resolve_cells,
    run_golden,
)
from repro.golden.__main__ import main as golden_main
from repro.trace import load_events, scoped_tracer, validate_trace

#: Two sub-0.1s cells that exercise two different techniques.
CHEAP_CELLS = ["toffoli_n3:direct", "wstate_n3:template_f"]


@pytest.fixture(autouse=True)
def _forget_last_run():
    reset_quality_state()
    yield
    reset_quality_state()


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    """A tmp golden file seeded from the two cheap cells."""
    path = str(tmp_path_factory.mktemp("golden") / "baseline.json")
    report = run_golden(baseline_path=path, only=CHEAP_CELLS,
                        rebaseline=True, note="test seed")
    return path, report


class TestMatrixResolution:
    def test_fast_subset_covers_all_eight_techniques(self):
        cells = fast_cells()
        assert resolve_cells() == cells
        assert {technique for _, technique in cells} == set(PAPER_TECHNIQUES)
        assert len(cells) == len(set(cells))

    def test_full_matrix_is_suite_times_techniques(self):
        from repro.interop import suite_names

        cells = full_cells()
        assert len(cells) == len(suite_names()) * len(PAPER_TECHNIQUES)
        assert resolve_cells(full=True) == sorted(cells)

    def test_only_wins_over_the_ambient_matrix(self):
        cells = resolve_cells(full=True, only=["rc_adder_n6:sat_p"])
        assert cells == [("rc_adder_n6", "sat_p")]

    def test_axis_overrides(self):
        cells = resolve_cells(benchmarks=["ghz_n5"],
                              techniques=["direct", "kak_cz"])
        assert cells == [("ghz_n5", "direct"), ("ghz_n5", "kak_cz")]
        every = resolve_cells(benchmarks=["ghz_n5"])
        assert {t for _, t in every} == set(PAPER_TECHNIQUES)

    def test_malformed_only_spec(self):
        with pytest.raises(ValueError, match="benchmark:technique"):
            resolve_cells(only=["toffoli_n3"])

    def test_unknown_benchmark_rejected_early(self):
        with pytest.raises(KeyError, match="available"):
            resolve_cells(only=["nope_n3:direct"])
        with pytest.raises(KeyError, match="available"):
            resolve_cells(benchmarks=["nope_n3"])

    def test_golden_options_pin_merging_and_smt_rounds(self):
        assert golden_options("direct") == {"merge_single_qubit_gates": True}
        smt = golden_options("sat_p")
        assert smt["max_improvement_rounds"] == 10
        override = golden_options("direct",
                                  {"merge_single_qubit_gates": False})
        assert override["merge_single_qubit_gates"] is False


class TestGate:
    def test_rebaseline_run_is_all_within(self, seeded):
        _, report = seeded
        assert report.rebaselined
        assert report.exit_code == 0
        assert report.comparison.counts["within"] == len(CHEAP_CELLS)

    def test_round_trip_run_rebaseline_run_is_all_within(self, seeded):
        path, _ = seeded
        report = run_golden(baseline_path=path, only=CHEAP_CELLS)
        assert report.exit_code == 0
        assert report.comparison.counts["within"] == len(CHEAP_CELLS)
        assert not report.comparison.failed

    def test_fresh_cell_reports_new_without_failing(self, seeded):
        path, _ = seeded
        report = run_golden(baseline_path=path, only=["teleport_n3:direct"])
        (verdict,) = report.comparison.verdicts
        assert verdict.status == "new"
        assert report.exit_code == 0

    def test_deliberate_mutation_fails_the_gate(self, seeded):
        """The CI mutation check: disabling 1q-merging must regress."""
        path, _ = seeded
        report = run_golden(baseline_path=path, only=CHEAP_CELLS,
                            extra_options={"merge_single_qubit_gates": False})
        assert report.exit_code == 1
        worst = report.comparison.worst_regression()
        assert worst is not None
        assert worst["metric"] in ("gate_count", "depth", "duration",
                                   "total_idle_time", "gate_fidelity_product",
                                   "combined_score")
        assert "regressed" in report.table()

    def test_compile_error_reports_missing(self, seeded):
        path, _ = seeded
        report = run_golden(baseline_path=path, only=["toffoli_n3:direct"],
                            extra_options={"bogus_option": True})
        (verdict,) = report.comparison.verdicts
        assert verdict.status == "missing"
        assert "TypeError" in verdict.reason
        assert report.exit_code == 1

    def test_missing_baseline_file_is_a_clean_error(self, tmp_path):
        with pytest.raises(GoldenBaselineError, match="rebaseline"):
            run_golden(baseline_path=str(tmp_path / "absent.json"),
                       only=CHEAP_CELLS)


class TestTimeouts:
    """Deadlines on ``toffoli_n3:sat_p``, whose OMT loop always outlasts
    0.05 s (``sat_f`` cells are solved exactly within milliseconds)."""

    def test_unexpected_deadline_reports_missing(self, seeded, tmp_path):
        path = str(tmp_path / "with-sat.json")
        baseline = GoldenBaseline.load(seeded[0])
        baseline.set(make_timeout_entry("toffoli_n3", "sat_p"))
        # Pretend the annotation is a real entry so the deadline is
        # *unexpected*: strip the flag but keep the cell in the matrix.
        baseline.get("toffoli_n3", "sat_p").expected_timeout = False
        baseline.get("toffoli_n3", "sat_p").metrics = {"gate_count": 1.0}
        baseline.save(path)
        report = run_golden(baseline_path=path, only=["toffoli_n3:sat_p"],
                            cell_timeout=0.05)
        (verdict,) = report.comparison.verdicts
        assert verdict.status == "missing"
        assert "deadline" in verdict.reason
        assert report.exit_code == 1

    def test_rebaseline_adopts_deadline_hits_as_annotations(self, tmp_path):
        path = str(tmp_path / "timeouts.json")
        report = run_golden(baseline_path=path, only=["toffoli_n3:sat_p"],
                            cell_timeout=0.05, rebaseline=True,
                            note="too slow here")
        (verdict,) = report.comparison.verdicts
        assert verdict.status == "skipped"
        assert report.exit_code == 0
        baseline = GoldenBaseline.load(path)
        assert baseline.is_expected_timeout("toffoli_n3", "sat_p")
        assert baseline.get("toffoli_n3", "sat_p").note == "too slow here"

        # A later plain run skips the cell without compiling it.
        again = run_golden(baseline_path=path, only=["toffoli_n3:sat_p"])
        (verdict,) = again.comparison.verdicts
        assert verdict.status == "skipped"
        assert again.exit_code == 0
        assert again.elapsed_seconds < 1.0

        # --retry-timeouts with a sane budget replaces the annotation.
        retried = run_golden(baseline_path=path, only=["toffoli_n3:sat_p"],
                             rebaseline=True, retry_timeouts=True,
                             cell_timeout=DEFAULT_CELL_TIMEOUT)
        assert retried.exit_code == 0
        baseline = GoldenBaseline.load(path)
        assert not baseline.is_expected_timeout("toffoli_n3", "sat_p")
        assert baseline.get("toffoli_n3", "sat_p").metrics["gate_count"] > 0


class TestReportAndTrace:
    def test_output_report_and_quality_summary(self, seeded, tmp_path,
                                               monkeypatch):
        path, _ = seeded
        out = str(tmp_path / "BENCH_quality.json")
        report = run_golden(baseline_path=path, only=CHEAP_CELLS, output=out)
        with open(out) as handle:
            payload = json.load(handle)
        assert payload["mode"] == "custom"
        assert payload["failed"] is False
        assert payload["common_options"] == {"merge_single_qubit_gates": True}
        assert len(payload["records"]) == len(CHEAP_CELLS)
        assert payload["counts"]["within"] == len(CHEAP_CELLS)
        assert "golden OK" in report.summary_line()

        # In-process summary first ...
        summary = quality_summary()
        assert summary["status"] == "ok"
        assert summary["source"] == "in-process"
        assert summary["failed"] is False

        # ... then the written report once the process forgets.
        reset_quality_state()
        monkeypatch.setenv("REPRO_QUALITY_REPORT", out)
        summary = quality_summary()
        assert summary["status"] == "ok"
        assert summary["source"] == out
        assert summary["counts"]["within"] == len(CHEAP_CELLS)

    def test_quality_summary_degrades_cleanly(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_QUALITY_REPORT",
                           str(tmp_path / "never-written.json"))
        summary = quality_summary()
        assert summary["status"] == "unavailable"
        assert "never-written" in summary["reason"]

    def test_golden_events_are_traced_and_schema_valid(self, seeded,
                                                       tmp_path):
        path, _ = seeded
        trace_path = str(tmp_path / "golden.jsonl")
        with scoped_tracer(trace_path):
            run_golden(baseline_path=path, only=CHEAP_CELLS)
        events = load_events(trace_path)
        validate_trace(events)
        assert {e["layer"] for e in events
                if e["name"].startswith("golden.")} == {"golden"}
        names = [e["name"] for e in events]
        assert "golden.run" in names
        cell_events = [e for e in events if e["name"] == "golden.cell"]
        check_events = [e for e in events if e["name"] == "golden.check"]
        assert len(cell_events) == len(CHEAP_CELLS)
        assert len(check_events) == len(CHEAP_CELLS)
        assert all(e["fields"]["status"] == "compiled" for e in cell_events)
        assert all(e["fields"]["regressed_metrics"] == []
                   for e in check_events)


class TestCli:
    def test_rebaseline_then_check_then_mutate(self, tmp_path, capsys):
        path = str(tmp_path / "baseline.json")
        assert golden_main(["--baseline", path, "--rebaseline",
                            "--only", "toffoli_n3:direct",
                            "--note", "cli seed", "--quiet"]) == 0
        assert golden_main(["--baseline", path,
                            "--only", "toffoli_n3:direct"]) == 0
        out = capsys.readouterr().out
        assert "within" in out and "golden OK" in out

        code = golden_main(["--baseline", path, "--only", "toffoli_n3:direct",
                            "--option", "merge_single_qubit_gates=false"])
        out = capsys.readouterr().out
        assert code == 1
        assert "regressed" in out and "worst regression" in out

    def test_list_and_bad_input_exit_codes(self, tmp_path, capsys):
        assert golden_main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "toffoli_n3:direct" in out
        assert golden_main(["--baseline", str(tmp_path / "nope.json"),
                            "--only", "toffoli_n3:direct"]) == 2
        assert golden_main(["--only", "garbage"]) == 2
