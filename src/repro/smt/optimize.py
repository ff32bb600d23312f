"""Optimization modulo theories (OMT) on top of the lazy SMT solver.

The :class:`Optimize` facade mirrors the subset of the ``z3.Optimize`` API
used by the circuit-adaptation model: assert constraints with ``add``,
register a single linear objective with ``maximize`` / ``minimize``, call
``check`` and read back ``model``.

Optimization uses objective-strengthening: whenever the SMT solver finds a
theory-consistent Boolean skeleton, the simplex theory solver maximizes the
objective within that skeleton (primal simplex), the value is recorded, and
a constraint requiring a strictly better objective is added.  The loop ends
when the strengthened problem becomes unsatisfiable; the best recorded model
is optimal.  Termination follows from the finite number of Boolean
skeletons, since each iteration rules out every skeleton whose optimum does
not exceed the recorded value.

How the loop stopped is reported as ``statistics()["optimality"]``:
``proven`` when strengthening became unsatisfiable (or the objective was
shown unbounded), ``capped`` when the round cap ran out first and
``unknown`` when the SMT solver gave up.  Only
``proven`` means the recorded value is the optimum.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from repro.resilience.budget import current_budget
from repro.smt.rational import DeltaRational
from repro.smt.solver import CheckResult, Model, SmtSolver
from repro.smt.terms import Comparison, Expr, LinearExpr
from repro.trace.tracer import event, hooks_active, span

#: Sampling schedule of the ``omt.round`` trace events (same shape as
#: the SMT check sampling: full head, strided tail).
TRACE_ROUND_HEAD = 32
TRACE_ROUND_STRIDE = 8


class ObjectiveHandle:
    """Handle to a registered objective; exposes its optimal value."""

    def __init__(self, expression: LinearExpr, sense: str) -> None:
        self.expression = expression
        self.sense = sense
        self._value: Optional[Fraction] = None
        self.unbounded = False

    def value(self) -> Fraction:
        """Return the optimal objective value (in the original sense)."""
        if self.unbounded:
            raise RuntimeError("objective is unbounded")
        if self._value is None:
            raise RuntimeError("objective value not available; call check() first")
        return self._value


class Optimize:
    """Optimizing SMT solver facade (single linear objective)."""

    def __init__(
        self,
        max_improvement_rounds: int = 10000,
        incremental_theory: bool = True,
    ) -> None:
        self._solver = SmtSolver(incremental_theory=incremental_theory)
        self._objective: Optional[ObjectiveHandle] = None
        self._max_rounds = max_improvement_rounds
        self._best_model: Optional[Model] = None
        self.improvement_rounds = 0
        #: How the last objective check stopped (see the module docstring).
        self.optimality: Optional[str] = None

    # ------------------------------------------------------------------
    def add(self, *expressions: Expr) -> None:
        """Assert one or more constraints."""
        self._solver.add(*expressions)

    def maximize(self, expression: LinearExpr) -> ObjectiveHandle:
        """Register a linear objective to maximize."""
        if self._objective is not None:
            raise RuntimeError("only a single objective is supported")
        self._objective = ObjectiveHandle(expression, "max")
        return self._objective

    def minimize(self, expression: LinearExpr) -> ObjectiveHandle:
        """Register a linear objective to minimize (maximizes its negation)."""
        if self._objective is not None:
            raise RuntimeError("only a single objective is supported")
        self._objective = ObjectiveHandle(expression, "min")
        return self._objective

    # ------------------------------------------------------------------
    def check(self) -> CheckResult:
        """Solve, optimizing the registered objective if any."""
        if self._objective is None:
            result = self._solver.check()
            if result == CheckResult.SAT:
                self._best_model = self._solver.model()
            return result
        return self._check_with_objective()

    def _check_with_objective(self) -> CheckResult:
        assert self._objective is not None
        objective_expr = self._objective.expression
        if self._objective.sense == "min":
            working_expr = -objective_expr
        else:
            working_expr = objective_expr

        hooked = hooks_active()
        budget = current_budget()
        rounds = 0
        omt_span = span("omt.optimize", "solver", sense=self._objective.sense)
        try:
            best_value: Optional[Fraction] = None
            result = self._solver.check()
            if result != CheckResult.SAT:
                return result

            for round_index in range(self._max_rounds):
                if budget is not None:
                    budget.charge("omt.round", rounds=1)
                rounds = self.improvement_rounds = round_index + 1
                simplex = self._solver.last_simplex()
                assert simplex is not None
                optimum = simplex.maximize(dict(working_expr.coeffs))
                if optimum is None:
                    # Unbounded within this skeleton, hence unbounded globally.
                    self._objective.unbounded = True
                    self._best_model = self._solver.model()
                    self.optimality = "proven"
                    return CheckResult.SAT
                skeleton_best = optimum.value + working_expr.constant
                bool_values = self._solver.model().bool_values()
                self._best_model = Model(bool_values, simplex.model())
                if best_value is None or skeleton_best > best_value:
                    best_value = skeleton_best
                if hooked and (rounds <= TRACE_ROUND_HEAD
                               or rounds % TRACE_ROUND_STRIDE == 0):
                    event(
                        "omt.round", "solver",
                        d_rounds=1,
                        round=self.improvement_rounds,
                        best=float(best_value),
                    )
                # Require a strictly better objective value and re-solve.
                improvement = Comparison.build(
                    LinearExpr.constant_expr(best_value), working_expr, "<"
                )
                self._solver.add(improvement)
                result = self._solver.check()
                if result != CheckResult.SAT:
                    self.optimality = (
                        "proven" if result == CheckResult.UNSAT else "unknown")
                    self._finalize_objective(best_value)
                    return CheckResult.SAT
            self.optimality = "capped"
            self._finalize_objective(best_value)
            return CheckResult.SAT
        finally:
            omt_span.end(rounds=self.improvement_rounds, d_rounds=rounds)

    def _finalize_objective(self, best_value: Optional[Fraction]) -> None:
        assert self._objective is not None
        if best_value is None:
            return
        if self._objective.sense == "min":
            self._objective._value = -best_value
        else:
            self._objective._value = best_value

    # ------------------------------------------------------------------
    def model(self) -> Model:
        """Return the best model found by the last :meth:`check` call."""
        if self._best_model is None:
            raise RuntimeError("no model available; call check() first and get SAT")
        return self._best_model

    def statistics(self) -> dict:
        """Return solver statistics (theory checks/conflicts, SAT counters,
        OMT rounds and, after an objective check, its ``optimality``)."""
        stats = self._solver.statistics()
        stats["improvement_rounds"] = self.improvement_rounds
        if self.optimality is not None:
            stats["optimality"] = self.optimality
        return stats
