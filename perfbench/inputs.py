"""Seeded inputs of the three workloads.

A *cell* is one operation the in-process workloads repeat: a circuit, the
technique that compiles it and the target it compiles for.  The seed fixes
the generated share of the inputs (and, in the drivers, the order of the
operations); the fixed share is the same for every seed, so every seed
keeps the workload's cost class.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple

QASM_HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'

SMT_TECHNIQUES = ("sat_f", "sat_r", "sat_p")
SWEEP_TECHNIQUES = ("direct", "kak_cz", "kak_dcz", "template_f", "template_r")
HTTP_TECHNIQUES = ("direct", "template_f", "template_r")

#: Golden-suite SMT cells that finish within about 0.6 s each (10 OMT
#: rounds).  Slower cells (``dj_n4``, ``qpe_n4``, ``fredkin_n3`` under
#: ``sat_f``, about 1 s) are left out: they sat alone above the p90 of
#: the op latencies, so p90 jumped between them and the 0.5 s cells.
SMT_SUITE_CELLS: Tuple[Tuple[str, str], ...] = tuple(
    [(name, technique)
     for name in ("ghz_n5", "ghz_n8", "hs_n4", "teleport_n3", "vqe_hwe_n4",
                  "wstate_n3")
     for technique in SMT_TECHNIQUES]
    + [(name, "sat_f") for name in ("peres_n3", "qv_n5", "toffoli_n3")]
)

#: Seeded ``random_template_circuit(3, 12, s)`` circuits per run.  Only
#: circuits with exactly five two-qubit gates, one of them a swap, are
#: kept: swaps and two-qubit gates drive the OMT cost, and pinning their
#: counts keeps the per-seed cost spread small (about 0.1-0.7 s per
#: circuit over the three SMT techniques).
SMT_RANDOM_CIRCUITS = 4
SMT_RANDOM_SHAPE = (5, 1)

#: Suite cells left out of ``suite_sweep``: the three widest ``kak_*``
#: compiles (0.4 to 1.3 s each) took a third of a round between them,
#: which left every cell only two or three samples in a run.
SWEEP_SKIPPED = frozenset((name, technique)
                          for name in ("qft_n8", "qft_n6", "rc_adder_n6")
                          for technique in ("kak_cz", "kak_dcz"))

#: Seeded circuits per run drawn from the suite's own LCG families.
SWEEP_GENERATED = (("clifford", 5), ("clifford", 5), ("qv", 4), ("qv", 5))


@dataclass
class Cell:
    """One repeated operation of an in-process workload.

    Target and options are built here, outside the timed region, exactly
    as the golden runner builds them.
    """

    label: str
    circuit: object
    technique: str
    generated: bool = False

    def __post_init__(self) -> None:
        from repro.golden.runner import golden_options
        from repro.hardware import spin_qubit_target

        self.target = spin_qubit_target(max(2, self.circuit.num_qubits))
        self.options = golden_options(self.technique)


def _two_qubit_shape(circuit) -> Tuple[int, int]:
    names = [i.gate.name for i in circuit.instructions if len(i.qubits) == 2]
    return len(names), names.count("swap")


def generated_qasm(family: str, num_qubits: int, seed: int) -> str:
    """QASM source of one circuit from the suite's seeded LCG families."""
    from repro.interop.suite import qv_model_qasm_body, random_clifford_qasm_body

    if family == "clifford":
        body = random_clifford_qasm_body(num_qubits, seed=seed)
    else:
        body = qv_model_qasm_body(num_qubits, layers=3, seed=seed)
    return QASM_HEADER + body


def smt_cells(seed: int) -> List[Cell]:
    """The fixed golden SMT cells plus the seeded random template circuits."""
    from repro.interop import load_suite
    from repro.workloads import random_template_circuit

    cells = [Cell(f"{name}:{technique}", load_suite([name])[0].circuit(), technique)
             for name, technique in SMT_SUITE_CELLS]
    rng = random.Random(seed)
    found = 0
    while found < SMT_RANDOM_CIRCUITS:
        circuit_seed = rng.randrange(1 << 30)
        circuit = random_template_circuit(3, 12, seed=circuit_seed)
        if _two_qubit_shape(circuit) != SMT_RANDOM_SHAPE:
            continue
        found += 1
        cells.extend(Cell(f"random_s{circuit_seed}:{technique}", circuit, technique,
                          generated=True)
                     for technique in SMT_TECHNIQUES)
    return cells


def sweep_cells(seed: int) -> List[Cell]:
    """The suite benchmarks plus seeded LCG circuits, under five techniques."""
    from repro.interop import circuit_from_qasm, load_suite

    circuits = [(entry.name, entry.circuit(), False) for entry in load_suite()]
    rng = random.Random(seed)
    for family, num_qubits in SWEEP_GENERATED:
        circuit_seed = rng.randrange(1 << 30)
        name = f"{family}_s{circuit_seed}_n{num_qubits}"
        circuits.append(
            (name, circuit_from_qasm(generated_qasm(family, num_qubits, circuit_seed),
                                     name=name), True))
    return [Cell(f"{name}:{technique}", circuit, technique, generated)
            for name, circuit, generated in circuits
            for technique in SWEEP_TECHNIQUES
            if (name, technique) not in SWEEP_SKIPPED]


@dataclass
class Pair:
    """One distinct (QASM source, technique) request of ``http_mix``."""

    label: str
    qasm: str
    technique: str
    from_suite: bool


#: ``http_mix`` sends one first-time pair and then two repeats of earlier
#: pairs, so two thirds of the requests hit L1 (p50 falls in the hit
#: cluster, p90 in the miss cluster).
HTTP_PATTERN = ("miss", "hit", "hit")


def http_prefix() -> int:
    """Requests until every suite pair has been sent once as a miss.

    The deterministic metrics of ``http_mix`` are taken over this prefix.
    """
    from repro.interop import suite_names

    return len(HTTP_PATTERN) * len(suite_names()) * len(HTTP_TECHNIQUES)


def http_schedule(seed: int) -> Iterator[Tuple[Pair, bool]]:
    """Endless seeded request stream of ``(pair, is_repeat)``.

    First-time pairs are the 81 suite pairs in seeded order, then seeded
    circuits of the suite's LCG families; repeats pick uniformly among the
    pairs sent so far.
    """
    from repro.interop import load_suite

    rng = random.Random(seed)
    suite = [Pair(f"{entry.name}:{technique}", entry.qasm, technique, True)
             for entry in load_suite() for technique in HTTP_TECHNIQUES]
    rng.shuffle(suite)
    families = (("clifford", 4), ("clifford", 5), ("clifford", 6), ("qv", 4), ("qv", 5))
    sent: List[Pair] = []
    generated = 0
    while True:
        for kind in HTTP_PATTERN:
            if kind == "hit":
                yield rng.choice(sent), True
                continue
            if suite:
                pair = suite.pop()
            else:
                family, num_qubits = families[generated % len(families)]
                technique = HTTP_TECHNIQUES[generated % len(HTTP_TECHNIQUES)]
                circuit_seed = rng.randrange(1 << 30)
                pair = Pair(f"{family}_s{circuit_seed}_n{num_qubits}:{technique}",
                            generated_qasm(family, num_qubits, circuit_seed),
                            technique, False)
                generated += 1
            sent.append(pair)
            yield pair, False
