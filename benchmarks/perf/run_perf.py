"""CLI for the perf-benchmark harness; writes ``BENCH_perf.json``.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/perf/run_perf.py --preset smoke
    PYTHONPATH=src python benchmarks/perf/run_perf.py --preset full -o BENCH_perf.json
    PYTHONPATH=src python benchmarks/perf/run_perf.py --preset quality

The ``quality`` preset refreshes *both* checked-in reports: the smoke
perf matrix into ``BENCH_perf.json`` and the fast golden-quality subset
(``python -m repro.golden``) into ``BENCH_quality.json``; its exit code
reflects the quality gate, so a regressed tree fails the refresh.

The script bootstraps ``sys.path`` itself, so a plain
``python benchmarks/perf/run_perf.py`` also works without PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for entry in (os.path.join(_REPO_ROOT, "src"), os.path.dirname(os.path.dirname(os.path.abspath(__file__)))):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perf.suite import PRESETS, run_suite  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--preset", choices=sorted(PRESETS) + ["quality"],
                        default="full")
    parser.add_argument(
        "-o", "--output",
        default=os.path.join(_REPO_ROOT, "BENCH_perf.json"),
        help="path of the JSON report (default: BENCH_perf.json at the repo root)",
    )
    parser.add_argument(
        "--quality-output",
        default=os.path.join(_REPO_ROOT, "BENCH_quality.json"),
        help="path of the golden-quality report written by --preset quality "
             "(default: BENCH_quality.json at the repo root)",
    )
    args = parser.parse_args(argv)

    # "quality" = the smoke perf matrix + the fast golden-quality gate.
    report = run_suite("smoke" if args.preset == "quality" else args.preset)
    # Overwrite only the suite's own keys: sections other harnesses merge
    # into the same file (server_load.py's "server") survive a refresh.
    merged = {}
    if os.path.exists(args.output):
        try:
            with open(args.output, "r", encoding="utf-8") as handle:
                merged = json.load(handle)
        except (OSError, ValueError):
            merged = {}
    merged.update(report)
    with open(args.output, "w", encoding="utf-8") as handle:
        json.dump(merged, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(f"wrote {args.output}")
    for row in report["statevector"]:
        print(
            f"statevector {row['num_qubits']:>2}q: {1e3 * row['kernel_seconds']:8.2f} ms "
            f"(dense {1e3 * row['dense_seconds']:8.2f} ms, {row['speedup']:8.1f}x)"
        )
    for row in report["density"]:
        print(
            f"density     {row['num_qubits']:>2}q: {1e3 * row['kernel_seconds']:8.2f} ms "
            f"(dense {1e3 * row['dense_seconds']:8.2f} ms, {row['speedup']:8.1f}x)"
        )
    smt = report["smt"]
    print(
        f"smt {smt['instance']}: incremental "
        f"{1e3 * smt['modes']['incremental']['seconds']:.2f} ms vs legacy "
        f"{1e3 * smt['modes']['legacy_rebuild']['seconds']:.2f} ms ({smt['speedup']:.2f}x)"
    )
    sat = report["sat"]
    print(
        f"sat {sat['instance']}: {1e3 * sat['seconds']:.2f} ms "
        f"({sat['propagations_per_second']:.0f} props/s)"
    )
    for row in report["compile"]:
        print(f"compile {row['workload']} [{row['technique']}]: {1e3 * row['seconds']:.2f} ms")
    trace = report["trace"]
    print(
        f"trace {trace['workload']} [{trace['technique']}]: "
        f"enabled {trace['enabled_overhead_percent']:+.1f}% "
        f"({trace['events_per_compile']:.0f} events/compile), "
        f"disabled ~{trace['disabled_overhead_percent']:.3f}% "
        f"({trace['disabled_hook_ns']:.0f} ns/hook)"
    )
    telemetry = report["telemetry"]
    print(
        f"telemetry {telemetry['workload']} [{telemetry['technique']}]: "
        f"enabled {telemetry['enabled_overhead_percent']:+.1f}%, "
        f"disabled counter {telemetry['disabled_counter_ns']:.0f} ns/inc, "
        f"hook {telemetry['disabled_hook_ns']:.0f} ns/call"
    )
    resilience = report["resilience"]
    print(
        f"resilience {resilience['workload']} [{resilience['technique']}]: "
        f"disabled check {resilience['disabled_check_ns']:.0f} ns "
        f"({resilience['disabled_vs_trace_hook']:.2f}x trace hook), "
        f"armed {resilience['armed_check_ns']:.0f} ns, "
        f"budgeted compile {resilience['budgeted_overhead_percent']:+.1f}%, "
        f"degrade roundtrip {1e3 * resilience['degrade_roundtrip_seconds']:.0f} ms"
    )
    for row in report["theory_engine_ab"]:
        inc = row["modes"]["incremental"]["solve_seconds"]
        leg = row["modes"]["legacy_rebuild"]["solve_seconds"]
        print(
            f"solve-stage {row['workload']}: incremental {1e3 * inc:.2f} ms vs "
            f"legacy {1e3 * leg:.2f} ms ({row['solve_speedup']:.2f}x)"
        )
    qasm_suite = report["suite"]
    print(
        f"suite [{qasm_suite['technique']}] {qasm_suite['benchmarks']} bundled "
        f"benchmarks: {qasm_suite['circuits_per_second']:.2f} circuits/s "
        f"({1e3 * qasm_suite['seconds']:.1f} ms total)"
    )
    service = report["service"]
    print(
        f"service [{service['technique']}] {service['workloads']} workloads, "
        f"{service['workers']} workers: cold {service['cold_circuits_per_second']:.2f} c/s, "
        f"warm {service['warm_circuits_per_second']:.2f} c/s "
        f"({service['warm_speedup']:.1f}x, {service['warm_store_hits']} store hits)"
    )

    if args.preset == "quality":
        from repro.golden import run_golden

        quality = run_golden(output=args.quality_output)
        print(quality.table())
        print(quality.summary_line())
        print(f"wrote {args.quality_output}")
        return quality.exit_code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
