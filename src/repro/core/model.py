"""SMT model for quantum circuit adaptation (Section IV.C).

The model contains, for a circuit with blocks ``B``, substitutions ``S`` and
block dependency graph ``G = (V, A)``:

* Boolean selection variables ``c_s`` (set ``C``),
* block start times ``e_b`` (set ``E``), durations ``d_b`` (set ``D``) and
  log-fidelities ``f_b`` (set ``F``),
* the mutual-exclusion clauses of Eq. (1),
* the precedence constraints of Eq. (2),
* the duration and fidelity definitions of Eqs. (3)-(6), encoded with one
  auxiliary real per (substitution, quantity) switched by ``c_s``,
* one of the objectives SAT_F (Eq. 8), SAT_R (Eq. 9) or SAT_P (Eq. 10).

SAT_R and SAT_P are solved by :class:`repro.smt.Optimize` (the pure-Python
OMT solver standing in for Z3).  SAT_F is solved exactly without it: Eq. (8)
is a sum of per-block log-fidelities and Eq. (1) conflicts never cross a
block (:meth:`Substitution.conflicts_with`), so the optimum is, in every
block, the conflict-free set of candidates with the largest summed
``log_fidelity_delta``.  :meth:`AdaptationModel.solve` finds that set by
branch-and-bound per block and reports ``optimality = proven``;
``max_improvement_rounds`` has no effect there.
:meth:`AdaptationModel.solve_omt` still solves any objective, SAT_F
included, through the OMT encoding and serves as the exact solver's oracle.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.core.preprocessing import PreprocessedCircuit
from repro.core.rules import Substitution
from repro.resilience.budget import check_budget
from repro.smt import Bool, CheckResult, Implies, Not, Optimize, Or, Real, RealVal, Sum
from repro.smt.rational import to_fraction

#: Objective maximizing the (log) circuit fidelity, Eq. (8).
OBJECTIVE_FIDELITY = "fidelity"
#: Objective minimizing the qubit idle time, Eq. (9).
OBJECTIVE_IDLE = "idle"
#: Combined objective, Eq. (10).
OBJECTIVE_COMBINED = "combined"

_OBJECTIVES = (OBJECTIVE_FIDELITY, OBJECTIVE_IDLE, OBJECTIVE_COMBINED)

#: Default cap on OMT objective-strengthening rounds.  Resolved at model
#: *build* time, so test fixtures can lower it globally (see
#: ``tests/conftest.py``) without touching call sites.  Overridable via
#: the ``REPRO_MAX_IMPROVEMENT_ROUNDS`` environment variable for batch /
#: CI runs that trade optimality for wall time.
DEFAULT_MAX_IMPROVEMENT_ROUNDS = int(
    os.environ.get("REPRO_MAX_IMPROVEMENT_ROUNDS", "400")
)


@dataclass
class ModelSolution:
    """Assignment extracted from the solved SMT model."""

    chosen_substitutions: List[Substitution]
    objective_value: Optional[float]
    block_durations: Dict[int, float]
    block_log_fidelities: Dict[int, float]
    #: Block start times: solver-assigned when the objective schedules
    #: blocks (idle/combined), otherwise the ASAP critical-path schedule.
    block_start_times: Dict[int, float]
    #: Circuit makespan: the solved schedule's makespan when available,
    #: otherwise the critical path of the block dependency graph.
    total_duration: float
    statistics: Dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form that round-trips exactly.

        Integer block indices become string keys under ``json.dumps``;
        :meth:`from_dict` restores them, so
        ``ModelSolution.from_dict(json.loads(json.dumps(sol.to_dict())))``
        reproduces durations, fidelities and the schedule bit-identically.
        """
        return {
            "chosen_substitutions": [s.to_dict() for s in self.chosen_substitutions],
            "objective_value": self.objective_value,
            "block_durations": {str(k): v for k, v in self.block_durations.items()},
            "block_log_fidelities": {
                str(k): v for k, v in self.block_log_fidelities.items()
            },
            "block_start_times": {str(k): v for k, v in self.block_start_times.items()},
            "total_duration": self.total_duration,
            "statistics": dict(self.statistics),
        }

    @staticmethod
    def from_dict(payload: Dict[str, object]) -> "ModelSolution":
        """Inverse of :meth:`to_dict`."""
        objective = payload.get("objective_value")
        return ModelSolution(
            chosen_substitutions=[
                Substitution.from_dict(s)
                for s in payload.get("chosen_substitutions", [])
            ],
            objective_value=float(objective) if objective is not None else None,
            block_durations={
                int(k): float(v) for k, v in payload["block_durations"].items()
            },
            block_log_fidelities={
                int(k): float(v) for k, v in payload["block_log_fidelities"].items()
            },
            block_start_times={
                int(k): float(v) for k, v in payload["block_start_times"].items()
            },
            total_duration=float(payload["total_duration"]),
            statistics=dict(payload.get("statistics", {})),
        )


class AdaptationModel:
    """Builds and solves the SMT adaptation model for one circuit."""

    def __init__(
        self,
        preprocessed: PreprocessedCircuit,
        substitutions: Sequence[Substitution],
        objective: str = OBJECTIVE_COMBINED,
        max_improvement_rounds: Optional[int] = None,
        incremental_theory: bool = True,
    ) -> None:
        if objective not in _OBJECTIVES:
            raise ValueError(f"objective must be one of {_OBJECTIVES}")
        self.preprocessed = preprocessed
        self.substitutions = list(substitutions)
        self.objective = objective
        self.max_improvement_rounds = max_improvement_rounds
        self.incremental_theory = incremental_theory
        self._optimizer: Optional[Optimize] = None

    # ------------------------------------------------------------------
    def build(self) -> Optimize:
        """Construct the SMT model and return the underlying optimizer."""
        rounds = (
            self.max_improvement_rounds
            if self.max_improvement_rounds is not None
            else DEFAULT_MAX_IMPROVEMENT_ROUNDS
        )
        optimizer = Optimize(
            max_improvement_rounds=rounds,
            incremental_theory=self.incremental_theory,
        )
        blocks = self.preprocessed.blocks
        coherence_time = self.preprocessed.target.t2

        choose = {s.identifier: Bool(f"c{s.identifier}") for s in self.substitutions}

        # Eq. (1): substitutions replacing a common gate are mutually exclusive.
        for first_index, first in enumerate(self.substitutions):
            for second in self.substitutions[first_index + 1 :]:
                if first.conflicts_with(second):
                    optimizer.add(
                        Or(Not(choose[first.identifier]), Not(choose[second.identifier]))
                    )

        # Eqs. (3)-(6): block duration and fidelity as affine functions of the
        # chosen substitutions, via one switched auxiliary real per delta.
        duration_vars = {}
        fidelity_vars = {}
        start_vars = {}
        needs_schedule = self.objective in (OBJECTIVE_IDLE, OBJECTIVE_COMBINED)
        needs_fidelity = self.objective in (OBJECTIVE_FIDELITY, OBJECTIVE_COMBINED)

        by_block: Dict[int, List[Substitution]] = {}
        for substitution in self.substitutions:
            by_block.setdefault(substitution.block_index, []).append(substitution)

        for preprocessed_block in blocks:
            index = preprocessed_block.index
            block_subs = by_block.get(index, [])
            duration_var = Real(f"d{index}")
            duration_vars[index] = duration_var
            duration_terms = [RealVal(preprocessed_block.reference_duration)]
            for substitution in block_subs:
                switch = Real(f"yd{substitution.identifier}")
                optimizer.add(
                    Implies(
                        choose[substitution.identifier],
                        switch.eq(RealVal(substitution.duration_delta)),
                    ),
                    Implies(Not(choose[substitution.identifier]), switch.eq(RealVal(0))),
                )
                duration_terms.append(switch)
            optimizer.add(duration_var.eq(Sum(duration_terms)))

            if needs_fidelity:
                fidelity_var = Real(f"f{index}")
                fidelity_vars[index] = fidelity_var
                fidelity_terms = [RealVal(preprocessed_block.reference_log_fidelity)]
                for substitution in block_subs:
                    switch = Real(f"yf{substitution.identifier}")
                    optimizer.add(
                        Implies(
                            choose[substitution.identifier],
                            switch.eq(RealVal(substitution.log_fidelity_delta)),
                        ),
                        Implies(Not(choose[substitution.identifier]), switch.eq(RealVal(0))),
                    )
                    fidelity_terms.append(switch)
                optimizer.add(fidelity_var.eq(Sum(fidelity_terms)))

        # Eq. (2): block precedence, plus the makespan definition.
        makespan = Real("makespan")
        if needs_schedule:
            for preprocessed_block in blocks:
                index = preprocessed_block.index
                start_var = Real(f"e{index}")
                start_vars[index] = start_var
                optimizer.add(start_var >= RealVal(0))
                optimizer.add(makespan >= start_var + duration_vars[index])
            for source, destination in self.preprocessed.dependency_graph.edges:
                optimizer.add(
                    start_vars[destination] >= start_vars[source] + duration_vars[source]
                )

        # Objective functions, Eqs. (8)-(10).
        active_qubits = max(1, len(self.preprocessed.circuit.qubits_used()))
        if self.objective == OBJECTIVE_FIDELITY:
            objective_expr = Sum(fidelity_vars.values())
        elif self.objective == OBJECTIVE_IDLE:
            objective_expr = (
                Sum(duration_vars.values()) - RealVal(active_qubits) * makespan
            ) / coherence_time
        else:
            objective_expr = Sum(fidelity_vars.values()) + (
                Sum(duration_vars.values()) - RealVal(active_qubits) * makespan
            ) / coherence_time
        self._objective_handle = optimizer.maximize(objective_expr)

        self._choose = choose
        self._duration_vars = duration_vars
        self._fidelity_vars = fidelity_vars
        self._start_vars = start_vars
        self._makespan = makespan
        self._optimizer = optimizer
        return optimizer

    # ------------------------------------------------------------------
    def solve(self) -> ModelSolution:
        """Solve the model: SAT_F exactly per block, SAT_R/SAT_P by OMT."""
        if self.objective == OBJECTIVE_FIDELITY:
            return self._solve_fidelity_exact()
        return self.solve_omt()

    def _solve_fidelity_exact(self) -> ModelSolution:
        """The Eq. (8) optimum, one maximum-weight conflict-free set per block.

        Sums run over :func:`~repro.smt.rational.to_fraction` of the same
        floats the OMT encoding reads, so where both pick the same set the
        durations, log-fidelities and objective value are bit-identical.
        """
        by_block: Dict[int, List[Substitution]] = {}
        for substitution in self.substitutions:
            by_block.setdefault(substitution.block_index, []).append(substitution)

        chosen_ids = set()
        durations: Dict[int, float] = {}
        fidelities: Dict[int, float] = {}
        objective = Fraction(0)
        candidates = nodes = 0
        for preprocessed_block in self.preprocessed.blocks:
            check_budget("exact.block")
            index = preprocessed_block.index
            picked, searched, visited = _max_weight_conflict_free(by_block.get(index, []))
            candidates += searched
            nodes += visited
            duration = to_fraction(preprocessed_block.reference_duration)
            log_fidelity = to_fraction(preprocessed_block.reference_log_fidelity)
            for substitution in picked:
                chosen_ids.add(substitution.identifier)
                duration += to_fraction(substitution.duration_delta)
                log_fidelity += to_fraction(substitution.log_fidelity_delta)
            durations[index] = float(duration)
            fidelities[index] = float(log_fidelity)
            objective += log_fidelity
        starts, total_duration = self._critical_path_schedule(durations)
        return ModelSolution(
            chosen_substitutions=[
                s for s in self.substitutions if s.identifier in chosen_ids
            ],
            objective_value=float(objective),
            block_durations=durations,
            block_log_fidelities=fidelities,
            block_start_times=starts,
            total_duration=total_duration,
            statistics={
                "optimality": "proven",
                "blocks": len(self.preprocessed.blocks),
                "candidates": candidates,
                "search_nodes": nodes,
            },
        )

    def solve_omt(self) -> ModelSolution:
        """Build (if necessary) and solve the OMT model, returning the assignment."""
        if self._optimizer is None:
            self.build()
        optimizer = self._optimizer
        assert optimizer is not None
        result = optimizer.check()
        if result != CheckResult.SAT:
            raise RuntimeError(f"adaptation model unexpectedly {result.value}")
        model = optimizer.model()

        chosen = [
            substitution
            for substitution in self.substitutions
            if model.eval_bool(f"c{substitution.identifier}")
        ]
        durations = {
            index: float(model.eval_linear(var)) for index, var in self._duration_vars.items()
        }
        fidelities = {
            index: float(model.eval_linear(var)) for index, var in self._fidelity_vars.items()
        }
        if self._start_vars:
            starts = {
                index: float(model.eval_linear(var))
                for index, var in self._start_vars.items()
            }
            total_duration = float(model.eval_linear(self._makespan))
        else:
            # The fidelity objective builds no schedule variables; derive
            # the makespan from the critical path of the dependency graph.
            starts, total_duration = self._critical_path_schedule(durations)
        try:
            objective_value: Optional[float] = float(self._objective_handle.value())
        except RuntimeError:
            objective_value = None
        return ModelSolution(
            chosen_substitutions=chosen,
            objective_value=objective_value,
            block_durations=durations,
            block_log_fidelities=fidelities,
            block_start_times=starts,
            total_duration=total_duration,
            statistics=optimizer.statistics(),
        )

    # ------------------------------------------------------------------
    def _critical_path_schedule(
        self, durations: Dict[int, float]
    ) -> Tuple[Dict[int, float], float]:
        """ASAP schedule of the block dependency DAG for solved durations."""
        graph = self.preprocessed.dependency_graph
        starts: Dict[int, float] = {}
        finish: Dict[int, float] = {}
        for node in nx.topological_sort(graph):
            start = max((finish[p] for p in graph.predecessors(node)), default=0.0)
            starts[node] = start
            finish[node] = start + durations.get(node, 0.0)
        # Blocks absent from the graph (none in practice) still count.
        for index, duration in durations.items():
            if index not in finish:
                starts[index] = 0.0
                finish[index] = duration
        return starts, max(finish.values(), default=0.0)


def _max_weight_conflict_free(
    substitutions: Sequence[Substitution],
) -> Tuple[List[Substitution], int, int]:
    """Conflict-free subset of one block's candidates with the largest
    summed ``log_fidelity_delta``.

    Branch-and-bound over the candidates with a strictly positive delta,
    heaviest first (ties by identifier), each taken before it is left out;
    a branch is cut once its value plus the remaining suffix sum cannot beat
    the incumbent, and only a strictly better set replaces the incumbent.
    Returns the chosen candidates, the number searched and the search nodes.
    """
    items = []
    for substitution in substitutions:
        weight = to_fraction(substitution.log_fidelity_delta)
        if weight > 0:
            items.append((weight, substitution))
    items.sort(key=lambda item: (-item[0], item[1].identifier))
    count = len(items)
    weights = [weight for weight, _ in items]
    masks = [
        sum(1 << position for position in set(substitution.substituted_positions))
        for _, substitution in items
    ]
    suffix = [Fraction(0)] * (count + 1)
    for position in range(count - 1, -1, -1):
        suffix[position] = suffix[position + 1] + weights[position]

    best_value = Fraction(0)
    best: Tuple[int, ...] = ()
    nodes = 0

    def visit(position: int, used: int, value: Fraction, taken: Tuple[int, ...]) -> None:
        nonlocal best_value, best, nodes
        nodes += 1
        if value > best_value:
            best_value, best = value, taken
        if position == count or value + suffix[position] <= best_value:
            return
        if not masks[position] & used:
            visit(position + 1, used | masks[position], value + weights[position],
                  taken + (position,))
        visit(position + 1, used, value, taken)

    visit(0, 0, Fraction(0), ())
    return [items[position][1] for position in best], count, nodes
