"""Tests for the lazy DPLL(T) SMT solver and the OMT Optimize facade."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.smt import (
    And,
    Bool,
    BoolVal,
    CheckResult,
    Iff,
    Implies,
    Ite,
    Not,
    Optimize,
    Or,
    Real,
    RealVal,
    SmtSolver,
    Sum,
)


class TestPropositionalLayer:
    def test_simple_sat(self):
        solver = SmtSolver()
        a, b = Bool("a"), Bool("b")
        solver.add(Or(a, b), Not(a))
        assert solver.check() == CheckResult.SAT
        model = solver.model()
        assert model.eval_bool("b") is True
        assert model.eval_bool("a") is False

    def test_simple_unsat(self):
        solver = SmtSolver()
        a = Bool("a")
        solver.add(a, Not(a))
        assert solver.check() == CheckResult.UNSAT

    def test_boolean_constants(self):
        solver = SmtSolver()
        solver.add(BoolVal(True))
        assert solver.check() == CheckResult.SAT
        solver2 = SmtSolver()
        solver2.add(BoolVal(False))
        assert solver2.check() == CheckResult.UNSAT

    def test_iff_and_ite(self):
        a, b, c = Bool("a"), Bool("b"), Bool("c")
        solver = SmtSolver()
        solver.add(Iff(a, b), Ite(a, c, Not(c)), a)
        assert solver.check() == CheckResult.SAT
        model = solver.model()
        assert model.eval_bool("b") is True
        assert model.eval_bool("c") is True

    def test_implication_chain(self):
        bools = [Bool(f"x{i}") for i in range(10)]
        solver = SmtSolver()
        solver.add(bools[0])
        for first, second in zip(bools, bools[1:]):
            solver.add(Implies(first, second))
        assert solver.check() == CheckResult.SAT
        assert solver.model().eval_bool("x9") is True


class TestTheoryIntegration:
    def test_linear_constraints_sat(self):
        x, y = Real("x"), Real("y")
        solver = SmtSolver()
        solver.add(x >= RealVal(0), y >= RealVal(0), x + y <= RealVal(5), x >= RealVal(2))
        assert solver.check() == CheckResult.SAT
        model = solver.model()
        assert model[x] >= 2
        assert model[x] + model[y] <= 5

    def test_linear_constraints_unsat(self):
        x = Real("x")
        solver = SmtSolver()
        solver.add(x >= RealVal(3), x <= RealVal(2))
        assert solver.check() == CheckResult.UNSAT

    def test_equality_atom(self):
        x, y = Real("x"), Real("y")
        solver = SmtSolver()
        solver.add((x + y).eq(RealVal(10)), x.eq(RealVal(4)))
        assert solver.check() == CheckResult.SAT
        model = solver.model()
        assert model[x] == Fraction(4)
        assert model[y] == Fraction(6)

    def test_strict_inequality(self):
        x = Real("x")
        solver = SmtSolver()
        solver.add(x > RealVal(0), x < RealVal(1))
        assert solver.check() == CheckResult.SAT
        assert Fraction(0) < solver.model()[x] < Fraction(1)

    def test_strict_inequality_unsat(self):
        x = Real("x")
        solver = SmtSolver()
        solver.add(x > RealVal(1), x < RealVal(1))
        assert solver.check() == CheckResult.UNSAT

    def test_boolean_theory_interaction(self):
        # choose -> x >= 5; not choose -> x <= 1; x >= 3 forces choose.
        choose = Bool("choose")
        x = Real("x")
        solver = SmtSolver()
        solver.add(Implies(choose, x >= RealVal(5)))
        solver.add(Implies(Not(choose), x <= RealVal(1)))
        solver.add(x >= RealVal(3))
        assert solver.check() == CheckResult.SAT
        model = solver.model()
        assert model.eval_bool("choose") is True
        assert model[x] >= 5

    def test_disjunctive_theory_choice(self):
        x = Real("x")
        solver = SmtSolver()
        solver.add(Or(x <= RealVal(-5), x >= RealVal(5)))
        solver.add(x >= RealVal(0))
        assert solver.check() == CheckResult.SAT
        assert solver.model()[x] >= 5

    def test_unsat_through_combination(self):
        a = Bool("a")
        x = Real("x")
        solver = SmtSolver()
        solver.add(Or(a, x >= RealVal(10)))
        solver.add(Not(a))
        solver.add(x <= RealVal(1))
        assert solver.check() == CheckResult.UNSAT

    def test_scheduling_chain(self):
        # Three jobs in sequence with durations 3, 4, 5 starting at >= 0.
        starts = [Real(f"s{i}") for i in range(3)]
        durations = [3, 4, 5]
        solver = SmtSolver()
        solver.add(starts[0] >= RealVal(0))
        for i in range(1, 3):
            solver.add(starts[i] >= starts[i - 1] + RealVal(durations[i - 1]))
        makespan = Real("makespan")
        solver.add(makespan >= starts[2] + RealVal(durations[2]))
        solver.add(makespan <= RealVal(11))  # critical path is 12 -> unsat
        assert solver.check() == CheckResult.UNSAT

    def test_model_evaluates_expressions(self):
        x, y = Real("x"), Real("y")
        solver = SmtSolver()
        solver.add(x.eq(RealVal(2)), y.eq(RealVal(5)))
        assert solver.check() == CheckResult.SAT
        assert solver.model().eval_linear(2 * x + y) == Fraction(9)


class TestOptimize:
    def test_maximize_linear(self):
        x, y = Real("x"), Real("y")
        opt = Optimize()
        opt.add(x >= RealVal(0), y >= RealVal(0), x + y <= RealVal(10))
        handle = opt.maximize(x + 2 * y)
        assert opt.check() == CheckResult.SAT
        assert handle.value() == Fraction(20)
        assert opt.model()[y] == Fraction(10)

    def test_minimize_linear(self):
        x = Real("x")
        opt = Optimize()
        opt.add(x >= RealVal(3), x <= RealVal(8))
        handle = opt.minimize(x)
        assert opt.check() == CheckResult.SAT
        assert handle.value() == Fraction(3)

    def test_boolean_choice_affects_objective(self):
        # Choosing 'fast' reduces the duration from 10 to 4 but needs setup <= 1.
        fast = Bool("fast")
        duration, setup = Real("duration"), Real("setup")
        opt = Optimize()
        opt.add(setup >= RealVal(0))
        opt.add(Implies(fast, And(duration.eq(RealVal(4)), setup <= RealVal(1))))
        opt.add(Implies(Not(fast), duration.eq(RealVal(10))))
        handle = opt.minimize(duration + setup)
        assert opt.check() == CheckResult.SAT
        assert handle.value() == Fraction(4)
        assert opt.model().eval_bool("fast") is True

    def test_mutually_exclusive_choices(self):
        # Pick at most one of two improvements; the better one must be chosen.
        a, b = Bool("a"), Bool("b")
        gain = Real("gain")
        opt = Optimize()
        opt.add(Or(Not(a), Not(b)))
        opt.add(
            Implies(And(a, Not(b)), gain.eq(RealVal(5))),
            Implies(And(b, Not(a)), gain.eq(RealVal(9))),
            Implies(And(Not(a), Not(b)), gain.eq(RealVal(0))),
        )
        handle = opt.maximize(gain)
        assert opt.check() == CheckResult.SAT
        assert handle.value() == Fraction(9)
        model = opt.model()
        assert model.eval_bool("b") is True
        assert model.eval_bool("a") is False

    def test_unsat_problem_reported(self):
        x = Real("x")
        opt = Optimize()
        opt.add(x >= RealVal(3), x <= RealVal(1))
        opt.maximize(x)
        assert opt.check() == CheckResult.UNSAT

    def test_unbounded_objective_flagged(self):
        x = Real("x")
        opt = Optimize()
        opt.add(x >= RealVal(0))
        handle = opt.maximize(x)
        assert opt.check() == CheckResult.SAT
        assert handle.unbounded
        assert opt.statistics()["optimality"] == "proven"
        with pytest.raises(RuntimeError):
            handle.value()

    @pytest.mark.parametrize("rounds, status", [(1, "capped"), (10000, "proven")])
    def test_stop_status_reports_whether_the_optimum_was_proven(self, rounds, status):
        gains = [Real(f"g{i}") for i in range(5)]
        opt = Optimize(max_improvement_rounds=rounds)
        for index, gain in enumerate(gains):
            pick = Bool(f"p{index}")
            opt.add(Implies(pick, gain.eq(RealVal(index + 1))),
                    Implies(Not(pick), gain.eq(RealVal(0))))
        handle = opt.maximize(Sum(gains))
        assert opt.check() == CheckResult.SAT
        assert opt.statistics()["optimality"] == status
        assert (handle.value() == Fraction(15)) == (status == "proven")

    def test_only_one_objective_allowed(self):
        opt = Optimize()
        opt.maximize(Real("x"))
        with pytest.raises(RuntimeError):
            opt.minimize(Real("y"))

    def test_no_objective_behaves_like_solver(self):
        opt = Optimize()
        a = Bool("a")
        opt.add(Or(a, Not(a)))
        assert opt.check() == CheckResult.SAT
        assert opt.model() is not None

    def test_scheduling_minimize_makespan(self):
        # Two parallel chains share a final job; optimum makespan is 9.
        s1, s2, s3 = Real("s1"), Real("s2"), Real("s3")
        makespan = Real("makespan")
        opt = Optimize()
        opt.add(s1 >= RealVal(0), s2 >= RealVal(0))
        opt.add(s3 >= s1 + RealVal(4), s3 >= s2 + RealVal(6))
        opt.add(makespan >= s3 + RealVal(3))
        handle = opt.minimize(makespan)
        assert opt.check() == CheckResult.SAT
        assert handle.value() == Fraction(9)

    def test_objective_with_boolean_duration_deltas(self):
        # Mimics Eq. (3): duration = 10 - 6*c0 - 3*c1 with c0, c1 incompatible.
        c0, c1 = Bool("c0"), Bool("c1")
        duration = Real("duration")
        opt = Optimize()
        opt.add(Or(Not(c0), Not(c1)))
        opt.add(
            Implies(And(c0, Not(c1)), duration.eq(RealVal(4))),
            Implies(And(c1, Not(c0)), duration.eq(RealVal(7))),
            Implies(And(Not(c0), Not(c1)), duration.eq(RealVal(10))),
        )
        handle = opt.minimize(duration)
        assert opt.check() == CheckResult.SAT
        assert handle.value() == Fraction(4)
        assert opt.model().eval_bool("c0") is True


@settings(max_examples=25, deadline=None)
@given(
    lower=st.integers(min_value=-20, max_value=10),
    upper_offset=st.integers(min_value=0, max_value=30),
)
def test_property_optimize_box_bounds(lower, upper_offset):
    """Maximizing x over [lower, lower+offset] returns the upper end."""
    x = Real("x")
    opt = Optimize()
    opt.add(x >= RealVal(lower), x <= RealVal(lower + upper_offset))
    handle = opt.maximize(x)
    assert opt.check() == CheckResult.SAT
    assert handle.value() == Fraction(lower + upper_offset)


@settings(max_examples=25, deadline=None)
@given(
    durations=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=5)
)
def test_property_chain_makespan_equals_sum(durations):
    """Minimizing the makespan of a chain equals the sum of durations."""
    opt = Optimize()
    starts = [Real(f"s{i}") for i in range(len(durations))]
    opt.add(starts[0] >= RealVal(0))
    for i in range(1, len(durations)):
        opt.add(starts[i] >= starts[i - 1] + RealVal(durations[i - 1]))
    makespan = Real("makespan")
    opt.add(makespan >= starts[-1] + RealVal(durations[-1]))
    handle = opt.minimize(makespan)
    assert opt.check() == CheckResult.SAT
    assert handle.value() == Fraction(sum(durations))
