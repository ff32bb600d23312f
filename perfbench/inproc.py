"""The in-process workloads: ``smt_solve`` and ``suite_sweep``.

One closed loop in this process compiles every cell once per round, in a
seeded order, with ``use_cache=False``.  It stops once the compiles have
taken ``--seconds`` in total and at least :data:`MIN_ROUNDS` whole rounds
are done, so every cell has at least that many samples.  Each output is
checked between operations, outside the timed calls.  A traced run stops
on the loop's wall time instead, after at least one whole round, since it
does about three times the work per operation.

Every end-to-end figure is taken over the fixed (suite) cells, which are
the same for every seed.  The seeded cells run in the same loop and their
outputs are checked, but their cost varies with the seed (about 2x for
``smt_solve``), so counting them would add the inputs' spread to the
host's.  ``objective_nats_mean`` and ``result_kib_mean`` are deterministic
for the code, so a tight bound on them catches any quality or size
regression.

Each timed compile is scaled to the host's nominal speed by reference
runs taken right before and after it (see ``hostspeed``); the compile
times behind every timing figure are these scaled times.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import resource
import statistics
import time
from collections import defaultdict
from contextlib import nullcontext
from typing import Dict, List

from hostspeed import at_nominal_speed, reference_seconds
from inputs import smt_cells, sweep_cells
from oracle import Oracle, objective_nats
from spans import WIRE_SPANS, Spans, self_times, time_wire, totals

#: Whole rounds an untraced run does at least.
MIN_ROUNDS = 2

#: Largest share of a traced compile its pass spans may leave uncovered.
MAX_UNATTRIBUTED_SHARE = 0.05

PASSES = ("route", "preprocess", "evaluate_rules", "solve", "apply", "merge_1q",
          "verify", "analyze_cost")


def build_cells(workload: str, seed: int):
    return smt_cells(seed) if workload == "smt_solve" else sweep_cells(seed)


def warm_up(cells) -> None:
    """One compile of the cheapest cell, so lazy imports finish before timing."""
    import repro

    cell = min(cells, key=lambda c: len(c.circuit))
    repro.compile(cell.circuit, cell.target, cell.technique, use_cache=False,
                  **cell.options)


def _schedule(cells, seed: int):
    """``(round, cell index)`` pairs, each round in a fresh seeded order."""
    rng = random.Random(seed ^ 0x0BE5C)
    for round_ in itertools.count():
        order = list(range(len(cells)))
        rng.shuffle(order)
        for index in order:
            yield round_, index


def p90(values: List[float]) -> float:
    """Linear-interpolated 90th percentile."""
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def harrell_davis(values: List[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile.

    A weighted mean of all order statistics, the weights being the mass a
    Beta(p(n+1), (1-p)(n+1)) puts on each ``((i-1)/n, i/n]``.  Unlike an
    interpolated quantile it moves smoothly when neighbouring values swap
    places across a gap, which a small set of per-cell medians has.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 100 * n
    weights = [0.0] * n
    for k in range(steps):
        x = (k + 0.5) / steps
        weights[k * n // steps] += math.exp(
            log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def run(cells, seed: int, seconds: float, trace: bool, spans_path: str) -> Dict[str, object]:
    """Drive the loop and return ``attempted``/``failed``/``metrics``."""
    import repro

    oracle = Oracle()
    times: Dict[int, List[float]] = defaultdict(list)
    per_cell: Dict[int, Dict[str, float]] = {}
    errors: List[str] = []
    tracer = Tracing(cells) if trace else None
    attempted = failed = 0
    busy = 0.0
    loop_started = time.perf_counter()
    min_rounds = 1 if trace else MIN_ROUNDS
    for round_, index in _schedule(cells, seed):
        spent = time.perf_counter() - loop_started if trace else busy
        if round_ >= min_rounds and spent >= seconds:
            break
        cell = cells[index]
        attempted += 1
        before = reference_seconds()
        started = time.perf_counter()
        try:
            result = repro.compile(cell.circuit, cell.target, cell.technique,
                                   use_cache=False, **cell.options)
        except Exception as error:  # noqa: BLE001 - counted as a failed op
            busy += time.perf_counter() - started
            failed += 1
            errors.append(f"{cell.label}: {type(error).__name__}: {error}")
            continue
        elapsed = time.perf_counter() - started
        busy += elapsed
        if not cell.generated:
            times[index].append(at_nominal_speed(elapsed, before, reference_seconds()))
        reason = oracle.check(cell.label, cell.circuit, cell.target,
                              result.adapted_circuit)
        if reason is not None:
            failed += 1
            errors.append(f"{cell.label}: {reason}")
        if index not in per_cell and not cell.generated:
            per_cell[index] = {
                "objective": objective_nats(cell.technique, result.cost),
                "kib": len(json.dumps(result.to_dict())) / 1024.0,
            }
        if tracer is not None:
            tracer.op(index, result)

    if trace:
        metrics = tracer.metrics()
        tracer.spans.write(spans_path)
        if tracer.inconsistent:
            errors.extend(tracer.inconsistent)
    else:
        # Percentiles over the cells' medians, a fixed set of values, and
        # smoothed (Harrell-Davis), so they cannot jump between cost
        # clusters from run to run.
        medians = [statistics.median(samples) for samples in times.values()]
        metrics = {
            # Compiles over the (scaled) time spent in them: the output
            # checks run between the compiles and are not the program's work.
            "throughput_per_s": (sum(len(samples) for samples in times.values())
                                 / sum(sum(samples) for samples in times.values())),
            "latency_s_geomean": math.exp(statistics.fmean(math.log(m) for m in medians)),
            "latency_s_p50": harrell_davis(medians, 0.5),
            "latency_s_p90": harrell_davis(medians, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "objective_nats_mean": statistics.fmean(v["objective"] for v in per_cell.values()),
            "result_kib_mean": statistics.fmean(v["kib"] for v in per_cell.values()),
        }
    return {"attempted": attempted, "failed": failed, "errors": errors,
            "consistent": not (trace and tracer.inconsistent), "metrics": metrics}


def block_signature(block) -> tuple:
    """A block's gates with its qubits relabelled to local positions."""
    local = {qubit: position for position, qubit in enumerate(block.qubits)}
    return tuple(
        (instruction.gate.name, tuple(round(p, 9) for p in instruction.gate.params),
         tuple(local[q] for q in instruction.qubits))
        for instruction in block.instructions)


def distinct_block_ratio(preprocessed) -> float:
    blocks = [b.block for b in preprocessed.blocks]
    if not blocks:
        return 0.0
    return len({block_signature(b) for b in blocks}) / len(blocks)


class Tracing:
    """The traced side of an in-process run.

    Per op it drives the technique's passes itself twice right after the
    facade compile: once bare and once timing each ``Pass.run`` and the
    wrapped layers below it (the two in alternating order, so neither
    always runs on warmer caches).  The difference is the tracing
    overhead.  It then times the wire functions on the result.
    """

    def __init__(self, cells) -> None:
        self.cells = cells
        self.spans = Spans()
        self.pass_seconds: Dict[str, float] = defaultdict(float)
        self.self_seconds: Dict[str, float] = defaultdict(float)
        self.wire_seconds: Dict[str, float] = defaultdict(float)
        self.compile_traced = 0.0
        self.compile_bare = 0.0
        self.unattributed: List[float] = []
        self.counts: Dict[int, Dict[str, float]] = {}
        self.sat_propagations = 0.0
        self.sat_seconds = 0.0
        self.ops = 0
        self.inconsistent: List[str] = []

    @staticmethod
    def drive(cell, span):
        """Run the cell's passes by hand, each inside ``span("pass.<name>")``.

        Returns the pass context and the gate count before ``merge_1q``.
        """
        from repro.api import resolve_technique
        from repro.pipeline.passes import PassContext

        spec = resolve_technique(cell.technique)
        context = PassContext(circuit=cell.circuit, target=cell.target,
                              technique=spec.key, options=dict(cell.options))
        merged_from = 0
        for pass_ in spec.build_pipeline().passes:
            if pass_.name == "merge_1q":
                merged_from = len(context.adapted)
            with span("pass." + pass_.name):
                pass_.run(context)
        return context, merged_from

    def op(self, index: int, result) -> None:
        cell = self.cells[index]
        first = self.spans.mark()
        for traced in ((False, True) if self.ops % 2 else (True, False)):
            if not traced:
                started = time.perf_counter()
                self.drive(cell, lambda name: nullcontext())
                self.compile_bare += time.perf_counter() - started
                continue
            # The layers are wrapped only here, so the facade compile and
            # the bare pass run stay untouched.
            self.spans.wrap_layers()
            try:
                with self.spans.span("compile"):
                    context, merged_from = self.drive(cell, self.spans.span)
            finally:
                self.spans.unwrap_layers()
        text = time_wire(self.spans, result)

        records = self.spans.since(first)
        spent = totals(records)
        compile_seconds = spent["compile"]
        pass_total = sum(spent.get("pass." + name, 0.0) for name in PASSES)
        share = 1.0 - pass_total / compile_seconds
        self.unattributed.append(share)
        for name in PASSES:
            self.pass_seconds[name] += spent.get("pass." + name, 0.0)
        for name, seconds in self_times(records).items():
            self.self_seconds[name] += seconds
        for name in WIRE_SPANS:
            self.wire_seconds[name] += spent[name]
        self.compile_traced += compile_seconds
        stats = context.solver_statistics
        self.sat_propagations += float(stats.get("sat_propagations", 0) or 0)
        self.sat_seconds += spent.get("sat", 0.0)
        self.ops += 1
        if index not in self.counts:
            self.counts[index] = {
                "sat.conflicts": float(stats.get("sat_conflicts", 0) or 0),
                "sat.decisions": float(stats.get("sat_decisions", 0) or 0),
                "sat.propagations": float(stats.get("sat_propagations", 0) or 0),
                "smt.theory_checks": float(stats.get("theory_checks", 0) or 0),
                "smt.theory_pivots": float(stats.get("theory_pivots", 0) or 0),
                "omt.rounds": float(stats.get("improvement_rounds", 0) or 0),
                "solve.chosen": float(len(context.chosen)),
                "rules.blocks": float(len(context.preprocessed.blocks)),
                "rules.candidates": float(len(context.substitutions)),
                "rules.distinct_block_ratio": distinct_block_ratio(context.preprocessed),
                "merge_1q.gates_removed": float(merged_from - len(context.adapted)),
                "circuit.gates_out": float(len(context.adapted)),
                "wire.result_kib": len(text) / 1024.0,
            }

    def metrics(self) -> Dict[str, float]:
        ops = self.ops
        compile_total = sum(self.pass_seconds.values())
        metrics = {f"pass.{name}.s": self.pass_seconds[name] / ops for name in PASSES}
        for name in ("evaluate_rules", "solve", "merge_1q"):
            metrics[f"pass.{name}.share"] = self.pass_seconds[name] / compile_total
        for name in ("model", "omt", "smt", "sat", "kak"):
            metrics[f"self.{name}_s"] = self.self_seconds.get(name, 0.0) / ops
        for name, seconds in self.wire_seconds.items():
            metrics[name + "_s"] = seconds / ops
        for key in next(iter(self.counts.values())):
            metrics[key] = statistics.fmean(c[key] for c in self.counts.values())
        metrics["sat.propagations_per_s"] = (
            self.sat_propagations / self.sat_seconds if self.sat_seconds else 0.0)
        metrics["trace.overhead_share"] = (
            (self.compile_traced - self.compile_bare) / self.compile_bare)
        metrics["trace.unattributed_share"] = statistics.fmean(self.unattributed)
        median_share = statistics.median(self.unattributed)
        if median_share > MAX_UNATTRIBUTED_SHARE:
            self.inconsistent.append(
                f"traced passes leave {median_share:.1%} of the median compile "
                f"uncovered (limit {MAX_UNATTRIBUTED_SHARE:.0%})")
        return metrics
