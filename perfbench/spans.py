"""In-memory spans recorded from the benchmark's side of each layer boundary.

Each span has an id, a parent id, a name and ``perf_counter`` start/end
stamps.  Layers inside a call the benchmark makes are timed by wrapping
the layer's public entry point for the duration of a traced run; nothing
in the program is changed.  The spans are written out as JSON lines at
the end of the run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Tuple

#: Layer entry points wrapped during a traced in-process run:
#: (module, attribute path, span name).  The nesting is
#: pass.solve > model > omt > smt > sat and pass.evaluate_rules > kak.
WRAPPED_LAYERS = (
    ("repro.core.model", "AdaptationModel.solve", "model"),
    ("repro.smt.optimize", "Optimize.check", "omt"),
    ("repro.smt.solver", "SmtSolver.check", "smt"),
    ("repro.sat.solver", "Solver.solve_limited", "sat"),
    ("repro.core.rules", "decompose_two_qubit", "kak"),
)

#: Spans of the wire and interop round trips timed on every result.
WIRE_SPANS = ("wire.to_dict", "wire.json_encode", "wire.json_decode", "wire.from_dict",
              "wire.qasm_export", "interop.qasm_parse")

Span = Tuple[int, int, str, float, float]


class Spans:
    """A single-threaded span recorder."""

    def __init__(self) -> None:
        self.records: List[Span] = []
        self._stack: List[int] = []
        self._next_id = 1
        self._restore: List[Tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.records.append((span_id, parent, name, start, end))

    def wrap_layers(self) -> None:
        """Record a span around every call into the :data:`WRAPPED_LAYERS`."""
        import importlib

        for module_name, path, name in WRAPPED_LAYERS:
            owner = importlib.import_module(module_name)
            *parents, attribute = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = getattr(owner, attribute)
            setattr(owner, attribute, self._spanned(original, name))
            self._restore.append((owner, attribute, original))

    def unwrap_layers(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore.clear()

    def _spanned(self, function, name: str):
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)
        return wrapper

    def mark(self) -> int:
        """A position to pass to :meth:`since`; take it with no span open."""
        return len(self.records)

    def since(self, mark: int) -> List[Span]:
        """The spans ended after ``mark`` (one op's spans)."""
        return self.records[mark:]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in self.records:
                handle.write(json.dumps({"id": span_id, "parent": parent, "name": name,
                                         "start": start, "end": end}) + "\n")


def time_wire(spans: Spans, result) -> str:
    """Record the :data:`WIRE_SPANS` for ``result``; returns its JSON text."""
    from repro.core.adapter import AdaptationResult
    from repro.interop import circuit_from_qasm, circuit_to_qasm

    with spans.span("wire.to_dict"):
        payload = result.to_dict()
    with spans.span("wire.json_encode"):
        text = json.dumps(payload)
    with spans.span("wire.json_decode"):
        decoded = json.loads(text)
    with spans.span("wire.from_dict"):
        AdaptationResult.from_dict(decoded)
    with spans.span("wire.qasm_export"):
        qasm = circuit_to_qasm(result.adapted_circuit)
    with spans.span("interop.qasm_parse"):
        circuit_from_qasm(qasm)
    return text


def totals(records: List[Span]) -> Dict[str, float]:
    """Inclusive seconds per span name."""
    result: Dict[str, float] = defaultdict(float)
    for _, _, name, start, end in records:
        result[name] += end - start
    return result


def self_times(records: List[Span]) -> Dict[str, float]:
    """Self seconds per span name: each span minus what its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, parent, _, start, end in records:
        children[parent].append((start, end))
    result: Dict[str, float] = defaultdict(float)
    for span_id, _, name, start, end in records:
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(span_id, ())):
            child_start, child_end = max(child_start, reach), min(child_end, end)
            if child_end > child_start:
                covered += child_end - child_start
                reach = child_end
        result[name] += (end - start) - covered
    return result
