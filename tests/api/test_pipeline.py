"""Pipeline pass ordering, reordering helpers and report contents."""

import pytest

import repro
from repro.api import resolve_technique
from repro.hardware import spin_qubit_target
from repro.pipeline import CompilationReport, Pass, Pipeline, PassStats
from repro.trace import load_events, scoped_tracer, summarize

#: The canonical stage sequence of the Fig. 2 flow.
EXPECTED_STAGES = [
    "route",
    "preprocess",
    "evaluate_rules",
    "solve",
    "apply",
    "merge_1q",
    "verify",
    "analyze_cost",
]


def probe_circuit():
    circuit = repro.QuantumCircuit(2, name="pipeline_probe")
    circuit.cx(0, 1)
    circuit.swap(0, 1)
    return circuit


class TestPassOrdering:
    @pytest.mark.parametrize("technique", ["direct", "kak_cz", "template_f", "sat_p"])
    def test_every_builtin_uses_the_eight_canonical_passes(self, technique):
        pipeline = resolve_technique(technique).build_pipeline()
        assert pipeline.pass_names == EXPECTED_STAGES

    def test_report_stages_follow_execution_order(self):
        result = repro.compile(probe_circuit(), spin_qubit_target(2), "sat_p",
                               use_cache=False)
        assert result.report.stage_names == EXPECTED_STAGES

    def test_rewriting_helpers(self):
        pipeline = resolve_technique("direct").build_pipeline()
        shorter = pipeline.without("merge_1q")
        assert "merge_1q" not in shorter.pass_names
        assert len(shorter) == len(pipeline) - 1
        # insertion before/after keeps relative order
        merge = pipeline.passes[5]
        reordered = shorter.inserted_before("verify", merge)
        assert reordered.pass_names == EXPECTED_STAGES
        with pytest.raises(KeyError):
            pipeline.without("no_such_pass")

    def test_duplicate_pass_names_rejected(self):
        pipeline = resolve_technique("direct").build_pipeline()
        with pytest.raises(ValueError):
            Pipeline(pipeline.passes + [pipeline.passes[0]])


class TestReportContents:
    def test_report_fields_populated(self):
        circuit = probe_circuit()
        target = spin_qubit_target(2)
        result = repro.compile(circuit, target, "sat_r", use_cache=False)
        report = result.report
        assert isinstance(report, CompilationReport)
        assert report.technique == "sat_r"
        assert report.circuit_name == "pipeline_probe"
        assert len(report.circuit_hash) == 64
        assert len(report.target_fingerprint) == 64
        assert report.cache_hit is False
        assert report.total_seconds > 0.0
        for stage in report.stages:
            assert isinstance(stage, PassStats)
            assert stage.seconds >= 0.0

    def test_stage_counters_carry_sizes(self):
        result = repro.compile(probe_circuit(), spin_qubit_target(2), "sat_p",
                               use_cache=False)
        report = result.report
        assert report.stage("route").counters["gates_in"] == 2
        assert report.stage("preprocess").counters["blocks"] == 1
        assert report.stage("evaluate_rules").counters["candidates"] >= 1
        assert report.stage("solve").counters["chosen"] == len(
            result.chosen_substitutions
        )
        assert report.stage("analyze_cost").counters["gates"] == len(
            result.adapted_circuit
        )
        with pytest.raises(KeyError):
            report.stage("fuse")

    def test_solver_counters_surface_in_solve_stage(self):
        result = repro.compile(probe_circuit(), spin_qubit_target(2), "sat_f",
                               use_cache=False)
        counters = result.report.stage("solve").counters
        assert counters["candidates"] >= 1
        assert counters["search_nodes"] >= 1
        assert "improvement_rounds" not in counters

    def test_omt_counters_surface_in_solve_stage(self):
        result = repro.compile(probe_circuit(), spin_qubit_target(2), "sat_r",
                               use_cache=False)
        counters = result.report.stage("solve").counters
        assert counters["improvement_rounds"] >= 1
        assert counters["theory_checks"] >= 1

    def test_resources_attributed_when_telemetry_enabled(self):
        from repro.telemetry.registry import (
            disable_telemetry,
            enable_telemetry,
            telemetry_enabled,
        )

        was_enabled = telemetry_enabled()
        enable_telemetry()
        try:
            result = repro.compile(probe_circuit(), spin_qubit_target(2),
                                   "direct", use_cache=False)
        finally:
            if not was_enabled:
                disable_telemetry()
        resources = result.report.resources
        assert set(resources) == {"cpu_seconds", "peak_rss_bytes"}
        assert resources["cpu_seconds"] >= 0.0
        assert resources["peak_rss_bytes"] > 0.0
        # The attribution survives the dict round-trip with the rest of
        # the report.
        restored = CompilationReport.from_dict(result.report.to_dict())
        assert restored.resources == resources

    def test_resources_empty_when_telemetry_disabled(self):
        from repro.telemetry.registry import (
            disable_telemetry,
            enable_telemetry,
            telemetry_enabled,
        )

        was_enabled = telemetry_enabled()
        disable_telemetry()
        try:
            result = repro.compile(probe_circuit(), spin_qubit_target(2),
                                   "direct", use_cache=False)
        finally:
            if was_enabled:
                enable_telemetry()
        assert result.report.resources == {}

    def test_verify_stage_records_whether_it_checked(self):
        circuit = probe_circuit()
        target = spin_qubit_target(2)
        unchecked = repro.compile(circuit, target, "direct", use_cache=False)
        checked = repro.compile(circuit, target, "direct", verify=True,
                                use_cache=False)
        assert unchecked.report.stage("verify").counters["checked"] == 0
        assert checked.report.stage("verify").counters["checked"] == 1

    def test_summary_renders_every_stage(self):
        result = repro.compile(probe_circuit(), spin_qubit_target(2), "direct",
                               use_cache=False)
        summary = result.report.summary()
        for name in EXPECTED_STAGES:
            assert name in summary


class _Boom(Pass):
    name = "boom"

    def run(self, context):
        raise RuntimeError("boom")


class TestFailingPass:
    def test_raising_pass_closes_its_span_and_propagates(self, tmp_path):
        from repro.telemetry.instruments import passes_snapshot
        from repro.telemetry.registry import (
            disable_telemetry,
            enable_telemetry,
            telemetry_enabled,
        )

        path = tmp_path / "failing.jsonl"
        pipeline = resolve_technique("direct").build_pipeline()
        pipeline = pipeline.inserted_before("solve", _Boom())
        was_enabled = telemetry_enabled()
        enable_telemetry()
        try:
            with scoped_tracer(str(path)):
                with pytest.raises(RuntimeError, match="boom"):
                    pipeline.run(probe_circuit(), spin_qubit_target(2))
        finally:
            if not was_enabled:
                disable_telemetry()
        # Passes that completed are metered; the aborted one is only traced.
        assert "evaluate_rules" in passes_snapshot()
        assert "boom" not in passes_snapshot()
        events = load_events(str(path))
        assert summarize(events)["unclosed_spans"] == 0
        ends = [e for e in events if e.get("name") == "pass:boom"
                and e.get("kind") == "end"]
        assert len(ends) == 1 and ends[0]["fields"]["error"] == "RuntimeError"
