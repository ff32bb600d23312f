"""The unified compilation facade: :func:`compile` and :func:`compile_many`.

``repro.compile(circuit, target, technique="sat_p", **options)`` is the
single front door to every adaptation technique of the paper (and to any
technique plugged in through :func:`repro.api.register_technique`).  It

1. resolves the technique key in the registry,
2. consults the deterministic result cache keyed by (circuit hash, target
   fingerprint, technique, options),
3. on a miss, runs the technique's pass pipeline with per-stage
   instrumentation, and
4. returns an :class:`repro.core.AdaptationResult` whose ``report`` field
   carries the :class:`repro.pipeline.CompilationReport`.

``compile_many`` maps the same flow over a batch — plain circuits,
``(name, circuit)`` pairs or :class:`repro.workloads.WorkloadSpec`
entries — optionally fanning out over a process pool.

Both entry points also ingest OpenQASM 2.0 directly: a string that is a
``.qasm`` path loads the file, any other string parses as QASM source
(see :mod:`repro.interop`).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, Iterable, Optional, Tuple, Union

from repro.api.cache import GLOBAL_CACHE, persistent_store, store_result
from repro.api.fingerprints import (
    cache_key,
    circuit_hash,
    options_fingerprint,
    target_fingerprint,
)
from repro.api.registry import is_builtin_spec, resolve_technique
from repro.circuits.circuit import QuantumCircuit
from repro.hardware.target import Target
from repro.pipeline.report import CompilationReport
from repro.resilience.budget import (
    Budget,
    CompileCancelled,
    CompileInterrupted,
    budget_scope,
    current_budget,
)
from repro.trace.tracer import event, scoped_tracer, span

BatchItem = Union[
    QuantumCircuit, str, Tuple[str, QuantumCircuit], "WorkloadSpec"
]
TargetLike = Union[Target, Callable[[QuantumCircuit], Target], None]


def _effective_options(spec, options: Dict[str, object]) -> Dict[str, object]:
    """Pin defaults that influence results, so the cache key covers them.

    The SMT techniques' improvement-round cap defaults to the *mutable*
    :data:`repro.core.model.DEFAULT_MAX_IMPROVEMENT_ROUNDS` (test fixtures
    and the ``REPRO_MAX_IMPROVEMENT_ROUNDS`` environment variable change
    it).  Resolving it here keeps cached results from outliving a changed
    default.
    """
    from repro.core.model import DEFAULT_MAX_IMPROVEMENT_ROUNDS

    options = dict(options)
    if (
        "max_improvement_rounds" in spec.option_names
        and options.get("max_improvement_rounds") is None
    ):
        options["max_improvement_rounds"] = DEFAULT_MAX_IMPROVEMENT_ROUNDS
    return options


def compile(
    circuit: QuantumCircuit,
    target: Target,
    technique: str = "sat_p",
    *,
    use_cache: bool = True,
    trace=None,
    timeout: Optional[float] = None,
    on_deadline: Optional[str] = None,
    fallback=None,
    **options: object,
):
    """Adapt ``circuit`` to ``target`` with the named technique.

    Parameters
    ----------
    circuit:
        The input circuit (any basis; it is routed and translated as
        needed).  A string is accepted too: a single-line ``.qasm``
        path loads that file, anything else parses as OpenQASM 2.0
        source.
    target:
        The hardware target, e.g. :func:`repro.hardware.spin_qubit_target`.
    technique:
        Registry key or alias — one of ``sat_f``, ``sat_r``, ``sat_p``,
        ``direct``, ``kak_cz``, ``kak_dcz``, ``template_f``,
        ``template_r``, or a key added via
        :func:`repro.api.register_technique`.
    use_cache:
        Consult/populate the deterministic compilation cache.  Results
        with non-primitive options (e.g. a custom ``rules`` list) always
        bypass the cache.
    trace:
        Structured event tracing for this call (see :mod:`repro.trace`).
        ``None`` (default) follows the ambient tracer — the global one
        installed by :func:`repro.trace.start_tracing` / ``REPRO_TRACE``,
        if any; ``False`` forces tracing off; ``True`` uses (and if
        needed auto-starts from ``REPRO_TRACE``) the global tracer; a
        path string traces just this call into that JSONL file; a
        :class:`repro.trace.Tracer` traces into that instance.  Tracing
        never affects the result or its cache key.
    timeout:
        Wall-clock deadline in seconds for this compile.  The budget is
        checked cooperatively at every SAT conflict, SMT theory check,
        OMT improvement round and pipeline pass boundary; when it fires,
        a :class:`repro.resilience.CompileDeadlineExceeded` is raised —
        or, under ``on_deadline="degrade"``, a fallback technique is
        tried instead.  Like ``trace``, the deadline parameters never
        enter the cache key.  When a budget is already in scope (e.g.
        installed by the service scheduler around this call), it keeps
        governing the compile; passing ``timeout`` here layers a new
        budget over it for this call only.
    on_deadline:
        ``"raise"`` (default) or ``"degrade"`` — on deadline, walk the
        degradation ladder (see :mod:`repro.resilience.degrade`) and
        return the first fallback result that lands, flagged via
        ``report.degraded_from`` / ``report.deadline_events``.
    fallback:
        Degradation ladder override: a technique key or sequence of keys
        tried in order, ``False`` to disable fallback, ``None`` for the
        per-technique default ladder.
    **options:
        Technique options: ``merge_single_qubit_gates`` and ``verify``
        for every technique; ``rules`` and ``max_improvement_rounds``
        for the SMT techniques; ``rules`` for the template techniques.

    Returns
    -------
    repro.core.AdaptationResult
        The adapted circuit with costs, provenance and a per-stage
        :class:`repro.pipeline.CompilationReport` in ``result.report``.
    """
    if isinstance(circuit, str):
        from repro.interop import coerce_circuit_input

        circuit = coerce_circuit_input(circuit)
    spec = resolve_technique(technique)
    spec.validate_options(dict(options))
    options = _effective_options(spec, options)

    # The ambient budget (e.g. installed by the service scheduler) keeps
    # governing the compile via the solver checkpoints; explicit deadline
    # parameters layer a per-call budget over it, linked so an outer
    # cancellation still interrupts this call.
    ambient = current_budget()
    budget = None
    if timeout is not None or on_deadline is not None or fallback is not None:
        budget = Budget(timeout=timeout, on_deadline=on_deadline or "raise",
                        fallback=fallback, parent=ambient)
    policy = budget if budget is not None else ambient

    digest = circuit_hash(circuit)
    fingerprint = target_fingerprint(target)
    options_part = options_fingerprint(options)
    key = (
        (digest, fingerprint, spec.key, options_part)
        if use_cache and options_part is not None
        else None
    )
    with scoped_tracer(trace):
        compile_span = span("compile", "api", technique=spec.key,
                            circuit=circuit.name)
        try:
            if use_cache:
                cached = GLOBAL_CACHE.get(key)
                if cached is not None:
                    event("cache.hit", "api", level="memory")
                    return cached
                event("cache.miss", "api", level="memory")
                store = persistent_store()
                if store is not None and key is not None:
                    persisted = store.get(key)
                    if persisted is not None:
                        # Promote to L1 so the next request stays in-process,
                        # then serve a detached copy flagged as a cache hit.
                        GLOBAL_CACHE.put(key, persisted)
                        if persisted.report is not None:
                            persisted.report = persisted.report.as_cache_hit()
                        event("cache.hit", "api", level="persistent")
                        return persisted
                    event("cache.miss", "api", level="persistent")

            report = CompilationReport(
                technique=spec.key,
                circuit_name=circuit.name,
                circuit_hash=digest,
                target_fingerprint=fingerprint,
                options=dict(options),
            )
            pipeline = spec.build_pipeline()
            try:
                with budget_scope(budget):
                    result = pipeline.run(circuit, target, technique=spec.key,
                                          options=options, report=report)
            except CompileInterrupted as error:
                event("resilience.deadline", "api",
                      technique=spec.key, reason=error.reason,
                      checkpoint=error.checkpoint)
                if (isinstance(error, CompileCancelled) or policy is None
                        or policy.on_deadline != "degrade"):
                    raise
                return _degrade(circuit, target, spec, policy, error,
                                use_cache=use_cache, options=options)
            if use_cache:
                store_result(key, result)
            return result
        finally:
            compile_span.end()


def _degrade(circuit, target, spec, policy, error, *, use_cache, options):
    """Walk the degradation ladder after ``error`` interrupted ``spec``.

    Each rung gets a short grace deadline (a fraction of the original
    timeout, see :mod:`repro.resilience.degrade`) and runs under
    ``on_deadline="raise"`` so a slow rung is skipped rather than
    recursively degraded.  The first result that lands is returned with
    ``degraded_from`` naming the original technique and the full
    interruption history in ``deadline_events``; results are cached under
    the fallback technique's own key — never under the interrupted one.
    """
    from repro.resilience.degrade import fallback_grace, resolve_ladder

    events = [error.event()]
    ladder = resolve_ladder(spec.key, policy.fallback)
    grace = fallback_grace(policy.timeout)
    last = error
    for rung in ladder:
        rung_spec = resolve_technique(rung)
        rung_options = {name: value for name, value in options.items()
                        if name in rung_spec.option_names}
        event("resilience.degrade", "api",
              from_technique=spec.key, to_technique=rung_spec.key,
              grace_seconds=grace, reason=last.reason)
        try:
            # Re-enter the interrupted budget's scope so the rung's fresh
            # grace budget links to it as a parent: the original deadline
            # no longer applies, but an outer cancel still interrupts.
            with budget_scope(policy):
                result = compile(circuit, target, rung_spec.key,
                                 use_cache=use_cache, timeout=grace,
                                 on_deadline="raise", **rung_options)
        except CompileInterrupted as rung_error:
            events.append(rung_error.event())
            last = rung_error
            if isinstance(rung_error, CompileCancelled):
                raise
            continue
        report = result.report
        if report is not None:
            # Safe to annotate: both cache tiers store detached copies,
            # so the degradation provenance never leaks into the cached
            # entry under the fallback technique's key.
            report.degraded_from = spec.key
            report.deadline_events = events + list(report.deadline_events)
        return result
    raise last


# ---------------------------------------------------------------------------
# Batch compilation
# ---------------------------------------------------------------------------
def _materialize(item: BatchItem) -> Tuple[str, QuantumCircuit]:
    """Normalize a batch item to a (name, circuit) pair."""
    from repro.workloads import WorkloadSpec

    if isinstance(item, str):
        from repro.interop import coerce_circuit_input

        item = coerce_circuit_input(item)
    if isinstance(item, QuantumCircuit):
        return item.name, item
    if isinstance(item, WorkloadSpec):
        return item.name, _circuit_from_spec(item)
    if isinstance(item, tuple) and len(item) == 2 and isinstance(item[1], QuantumCircuit):
        return str(item[0]), item[1]
    raise TypeError(
        f"cannot compile batch item {item!r}; expected a QuantumCircuit, "
        "a (name, QuantumCircuit) pair or a WorkloadSpec"
    )


def _circuit_from_spec(spec) -> QuantumCircuit:
    """Build the concrete circuit of a :class:`WorkloadSpec`.

    For the ansatz kinds the spec's ``depth`` field carries the layer
    count (``p`` for QAOA, rotation+entangler layers for the VQE ansatz).
    """
    from repro.workloads import (
        hardware_efficient_ansatz,
        qaoa_ring_circuit,
        quantum_volume_circuit,
        random_template_circuit,
    )

    if spec.kind == "qv":
        return quantum_volume_circuit(spec.num_qubits, spec.depth, seed=spec.seed)
    if spec.kind == "random":
        return random_template_circuit(spec.num_qubits, spec.depth, seed=spec.seed)
    if spec.kind in ("qaoa", "qaoa_ring"):
        return qaoa_ring_circuit(spec.num_qubits, layers=spec.depth, seed=spec.seed)
    if spec.kind in ("vqe", "vqe_hwe"):
        return hardware_efficient_ansatz(
            spec.num_qubits, layers=spec.depth, seed=spec.seed
        )
    raise ValueError(f"unknown workload kind {spec.kind!r}")


def _resolve_target(target: TargetLike, circuit: QuantumCircuit,
                    durations: str) -> Target:
    """Pick the target for one batch entry."""
    from repro.hardware import spin_qubit_target

    if target is None:
        return spin_qubit_target(max(2, circuit.num_qubits), durations)
    if isinstance(target, Target):
        return target
    return target(circuit)


def _compile_one(payload):
    """Process-pool worker: compile one (name, circuit, target) entry."""
    name, circuit, target, technique, use_cache, options = payload
    result = compile(circuit, target, technique, use_cache=use_cache, **options)
    return name, result


def compile_many(
    items: Iterable[BatchItem],
    target: TargetLike = None,
    technique: str = "sat_p",
    *,
    durations: str = "D0",
    processes: Optional[int] = None,
    use_cache: bool = True,
    **options: object,
) -> Dict[str, object]:
    """Compile a batch of circuits, returning ``{name: AdaptationResult}``.

    Parameters
    ----------
    items:
        Circuits, ``(name, circuit)`` pairs,
        :class:`repro.workloads.WorkloadSpec` entries (e.g. the output of
        :func:`repro.workloads.evaluation_suite`), which are materialized
        deterministically from their seeds, or OpenQASM 2.0 strings
        (source text or single-line ``.qasm`` paths).
    target:
        A :class:`Target` used for every entry, a callable
        ``circuit -> Target``, or ``None`` to use the Table I spin-qubit
        target sized to each circuit.
    durations:
        Duration calibration (``"D0"`` or ``"D1"``) for the default
        spin-qubit target; ignored when ``target`` is given.
    processes:
        When > 1, fan the batch out over a process pool of this size.
        Each worker compiles independently; results (with their reports)
        are merged back into the caller's cache.  Techniques registered
        at runtime via :func:`repro.api.register_technique` exist only
        in this process — those batches run serially regardless, since a
        spawned worker re-imports a registry holding only the built-ins.
    use_cache, **options:
        Forwarded to :func:`compile`.

    Duplicate names are disambiguated with a numeric suffix so no result
    is silently dropped.
    """
    spec = resolve_technique(technique)
    # Resolve mutable defaults once, so parent-side cache keys, worker
    # compilations and the merged-back entries all agree.
    effective = _effective_options(spec, dict(options))
    payloads = []
    seen: Dict[str, int] = {}
    for item in items:
        name, circuit = _materialize(item)
        if name in seen:
            seen[name] += 1
            name = f"{name}#{seen[name]}"
        else:
            seen[name] = 0
        resolved = _resolve_target(target, circuit, durations)
        payloads.append((name, circuit, resolved, spec.key, use_cache, effective))

    results: Dict[str, object] = {}
    fan_out = (
        processes is not None
        and processes > 1
        and len(payloads) > 1
        # Plugin or overwritten techniques only exist in this process: a
        # worker would re-import the stock registry and silently compile
        # with the wrong pipeline.  See the docstring.
        and is_builtin_spec(spec)
    )
    if fan_out:
        # Serve what the parent's cache already has; dispatch only misses.
        pending = []
        for payload in payloads:
            name, circuit, resolved, _key, _uc, opts = payload
            cached = (
                GLOBAL_CACHE.get(cache_key(circuit, resolved, spec.key, opts))
                if use_cache
                else None
            )
            if cached is not None:
                results[name] = cached
            else:
                pending.append(payload)
        if pending:
            with ProcessPoolExecutor(max_workers=processes) as pool:
                fresh = list(pool.map(_compile_one, pending))
            for (name, circuit, resolved, _key, _uc, opts), (_name, result) in zip(
                pending, fresh
            ):
                results[name] = result
                if use_cache:
                    # Merge worker results into this process's cache (and
                    # any installed persistent store) so later calls hit.
                    store_result(cache_key(circuit, resolved, spec.key, opts),
                                 result)
        # Restore the input order the cache-hit partition disturbed.
        results = {payload[0]: results[payload[0]] for payload in payloads}
    else:
        for payload in payloads:
            name, result = _compile_one(payload)
            results[name] = result
    return results
