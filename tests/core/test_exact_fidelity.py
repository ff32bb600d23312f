"""Oracle checks of the exact SAT_F solver.

``AdaptationModel.solve`` solves Eq. (8) block by block: in each block it
picks the conflict-free set of candidates with the largest summed
``log_fidelity_delta``.  The paper's OMT loop over the same model
(``AdaptationModel.solve_omt``) is the oracle, uncapped where it proves its
optimum quickly and capped where it stands in for the old golden setting;
a brute-force enumeration of every block checks the per-block choice.
"""

import itertools
from fractions import Fraction

import pytest

import repro
from repro.core import AdaptationModel, OBJECTIVE_FIDELITY, evaluate_rules, preprocess, standard_rules
from repro.hardware import spin_qubit_target
from repro.interop import load_suite, suite_names
from repro.pipeline.passes import route_if_needed
from repro.resilience import Budget, CompileCancelled, budget_scope
from repro.smt.rational import to_fraction
from repro.workloads import random_template_circuit

#: The SAT_F suite cells of the ``smt_solve`` benchmark workload: uncapped
#: OMT proves each optimum in under about 0.4 s.
FAST_SUITE = (
    "ghz_n5", "ghz_n8", "hs_n4", "peres_n3", "qv_n5", "teleport_n3",
    "toffoli_n3", "vqe_hwe_n4", "wstate_n3",
)
#: The other suite benchmarks: uncapped OMT takes 0.3 to 30 s each
#: (``qft_n8`` longer still).
SLOW_SUITE = tuple(name for name in suite_names()
                   if name not in FAST_SUITE and name != "qft_n8")
#: Seeds of the ``random_template_circuit(3, 12, seed)`` inputs.
RANDOM_SEEDS = range(8)
#: Improvement-round cap of the capped OMT oracle.
CAPPED_ROUNDS = 3


def _instance(circuit):
    target = spin_qubit_target(max(2, circuit.num_qubits))
    preprocessed = preprocess(route_if_needed(circuit, target), target)
    return preprocessed, evaluate_rules(preprocessed, standard_rules())


def suite_instance(name):
    return _instance(load_suite([name])[0].circuit())


def random_instance(seed):
    return _instance(random_template_circuit(3, 12, seed))


def identifiers(solution):
    return [s.identifier for s in solution.chosen_substitutions]


def check_against_omt(preprocessed, substitutions):
    exact = AdaptationModel(preprocessed, substitutions, OBJECTIVE_FIDELITY).solve()
    assert exact.statistics["optimality"] == "proven"

    omt = AdaptationModel(preprocessed, substitutions, OBJECTIVE_FIDELITY,
                          max_improvement_rounds=10**6).solve_omt()
    assert omt.statistics["optimality"] == "proven"
    assert exact.objective_value == pytest.approx(omt.objective_value, abs=1e-9)
    if identifiers(exact) == identifiers(omt):
        assert exact.objective_value.hex() == omt.objective_value.hex()
        assert exact.block_durations == omt.block_durations
        assert exact.block_log_fidelities == omt.block_log_fidelities
        assert exact.block_start_times == omt.block_start_times
        assert exact.total_duration == omt.total_duration

    capped = AdaptationModel(preprocessed, substitutions, OBJECTIVE_FIDELITY,
                             max_improvement_rounds=CAPPED_ROUNDS).solve_omt()
    assert capped.statistics["optimality"] in ("proven", "capped")
    assert exact.objective_value >= capped.objective_value
    return exact, omt


def check_blocks_by_brute_force(preprocessed, substitutions, exact):
    chosen = exact.chosen_substitutions
    for first, second in itertools.combinations(chosen, 2):
        assert not first.conflicts_with(second)
    for block in preprocessed.blocks:
        candidates = [s for s in substitutions if s.block_index == block.index]
        best = Fraction(0)
        for size in range(1, len(candidates) + 1):
            for subset in itertools.combinations(candidates, size):
                if any(a.conflicts_with(b) for a, b in itertools.combinations(subset, 2)):
                    continue
                best = max(best, sum(to_fraction(s.log_fidelity_delta) for s in subset))
        picked = sum((to_fraction(s.log_fidelity_delta) for s in chosen
                      if s.block_index == block.index), Fraction(0))
        assert picked == best, f"block {block.index}"


@pytest.mark.parametrize("name", FAST_SUITE)
def test_suite_cells_match_uncapped_omt(name):
    preprocessed, substitutions = suite_instance(name)
    exact, _ = check_against_omt(preprocessed, substitutions)
    check_blocks_by_brute_force(preprocessed, substitutions, exact)


@pytest.mark.slow
@pytest.mark.parametrize("name", SLOW_SUITE)
def test_larger_suite_cells_match_uncapped_omt(name):
    preprocessed, substitutions = suite_instance(name)
    exact, _ = check_against_omt(preprocessed, substitutions)
    check_blocks_by_brute_force(preprocessed, substitutions, exact)


@pytest.mark.parametrize("seed", RANDOM_SEEDS)
def test_random_circuits_match_uncapped_omt(seed):
    preprocessed, substitutions = random_instance(seed)
    exact, _ = check_against_omt(preprocessed, substitutions)
    check_blocks_by_brute_force(preprocessed, substitutions, exact)


@pytest.mark.parametrize("name", sorted(set(suite_names()) - set(FAST_SUITE)))
def test_every_suite_cell_agrees_with_brute_force(name):
    preprocessed, substitutions = suite_instance(name)
    exact = AdaptationModel(preprocessed, substitutions, OBJECTIVE_FIDELITY).solve()
    check_blocks_by_brute_force(preprocessed, substitutions, exact)


def test_same_choice_as_omt_is_bit_identical():
    """On wstate_n3 both solvers pick the same set, so the bit-identity
    branch of ``check_against_omt`` runs."""
    preprocessed, substitutions = suite_instance("wstate_n3")
    exact, omt = check_against_omt(preprocessed, substitutions)
    assert identifiers(exact) and identifiers(exact) == identifiers(omt)


def test_round_cap_has_no_effect_on_sat_f():
    circuit = load_suite(["toffoli_n3"])[0].circuit()
    target = spin_qubit_target(3)
    one = repro.compile(circuit, target, "sat_f", use_cache=False,
                        max_improvement_rounds=1)
    many = repro.compile(circuit, target, "sat_f", use_cache=False,
                         max_improvement_rounds=400)
    assert identifiers(one) == identifiers(many)
    assert one.objective_value.hex() == many.objective_value.hex()


def test_cancelled_budget_stops_the_exact_solver():
    preprocessed, substitutions = suite_instance("toffoli_n3")
    budget = Budget()
    budget.cancel("test")
    with budget_scope(budget):
        with pytest.raises(CompileCancelled) as raised:
            AdaptationModel(preprocessed, substitutions, OBJECTIVE_FIDELITY).solve()
    assert raised.value.checkpoint == "exact.block"
