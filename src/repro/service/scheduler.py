"""The async compilation service: bounded queue, worker pool, dedup, futures.

:class:`CompilationService` turns the synchronous :func:`repro.compile`
into a long-lived server-side component:

* ``submit()`` enqueues a compilation and returns a :class:`JobHandle`
  immediately; ``result()`` / ``status()`` / ``cancel()`` operate on it.
* The job queue is **bounded** (``max_pending``): when it is full,
  ``submit(block=False)`` raises :class:`ServiceSaturatedError` instead
  of buffering unboundedly — the backpressure signal a front end needs.
* Identical concurrent requests (same circuit/target/technique/options
  fingerprint) **coalesce** onto one in-flight job: N callers, one
  compile, N futures resolved from the same result.
* Workers are threads by default (the compile pipeline is pure Python
  but releases the GIL inside numpy kernels); ``mode="process"``
  dispatches the actual compilation to a process pool instead, for
  CPU-bound SMT-heavy workloads.
* ``shutdown()`` is graceful: queued jobs finish (or are cancelled with
  ``cancel_pending=True``) and workers exit cleanly.

When constructed with a ``store`` (a
:class:`repro.service.PersistentResultStore`, a ``dir:PATH`` spec or a
directory path), the service installs it behind :func:`repro.compile`,
so every compilation — from this service or from plain
``repro.compile`` calls — reads and writes the shared L1 → L2 cache
stack.
"""

from __future__ import annotations

import os
import queue
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.api.cache import (
    GLOBAL_CACHE,
    install_persistent_store,
    persistent_store,
    store_result,
    uninstall_persistent_store,
)
from repro.api.compile import compile as _facade_compile
from repro.api.compile import _effective_options
from repro.api.fingerprints import cache_key
from repro.api.registry import resolve_technique
from repro.circuits.circuit import QuantumCircuit
from repro.hardware.target import Target
from repro.resilience.budget import (
    Budget,
    CompileCancelled,
    CompileDeadlineExceeded,
    budget_scope,
)
from repro.resilience.faults import maybe_fault
from repro.service.store import PersistentResultStore, resolve_store_backend
from repro.telemetry.instruments import (
    JOBS_PENDING,
    QUEUE_DEPTH,
    SCHEDULER_JOBS,
    STORE_BYTES,
    STORE_EVENTS,
    WORKER_UTILIZATION,
    WORKERS_BUSY,
)
from repro.telemetry.registry import REGISTRY
from repro.trace.tracer import (
    TraceContext,
    Tracer,
    capture_context,
    event,
    resume_context,
    span,
    start_tracing,
    stop_tracing,
)


class ServiceSaturatedError(RuntimeError):
    """Raised by ``submit(block=False)`` when the job queue is full."""


class WorkerCrashedError(RuntimeError):
    """A process worker died repeatedly while compiling one job.

    Raised to the job's waiters only after the scheduler has respawned
    the pool and retried the job up to its bounded retry budget.
    """


def _json_safe(value):
    """Coerce a statistics value into plain JSON-serializable types.

    Counters can arrive as numpy integers/floats (cost math is
    numpy-backed) and future stats sources may hand back tuples, sets or
    custom objects; ``/metrics`` serializes the statistics verbatim, so
    everything is normalized here: mappings to ``dict`` (string keys),
    sequences/sets to ``list``, numpy scalars through ``item()``, bools/
    ints/floats/strings/None verbatim, anything else through ``str``.
    """
    if isinstance(value, dict):
        return {str(key): _json_safe(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [_json_safe(entry) for entry in value]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (int, float, str)):
        # Covers numpy scalar subclasses of Python numbers too, but
        # float('inf')/nan are not JSON — degrade those to strings.
        if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
            return str(value)
        return value
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return _json_safe(item())
        except (TypeError, ValueError):
            pass
    return str(value)


class JobStatus(str, Enum):
    """Lifecycle states of a submitted compilation job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


@dataclass
class _Job:
    """One queued compilation with its execution future and dedup key."""

    job_id: int
    key: Optional[tuple]
    circuit: QuantumCircuit
    target: Target
    technique: str
    use_cache: bool
    options: Dict[str, object]
    #: The execution future the worker resolves; per-caller front futures
    #: (one per coalesced submit) are fed from it on completion.
    future: Future = field(default_factory=Future)
    fronts: List[Future] = field(default_factory=list)
    status: JobStatus = JobStatus.QUEUED
    #: Wall-clock + monotonic lifecycle stamps (monotonic pairs give the
    #: queue-wait and run durations; wall stamps go to status payloads).
    submitted_wall: float = field(default_factory=time.time)
    submitted_mono: float = field(default_factory=time.monotonic)
    started_wall: Optional[float] = None
    started_mono: Optional[float] = None
    finished_wall: Optional[float] = None
    finished_mono: Optional[float] = None
    #: Submitter's trace context, resumed on the worker thread so the
    #: job span parents under the submitting request's span.
    trace_context: Optional[TraceContext] = None
    #: Compile deadline parameters (carried on the budget below) and the
    #: cooperative budget itself.  The budget exists from submit time so
    #: `cancel()` can interrupt the job at any point of its lifecycle; its
    #: deadline clock is armed only when the job starts running, so queue
    #: wait never counts against the compile timeout.
    timeout: Optional[float] = None
    budget: Budget = field(default_factory=lambda: Budget(arm=False))
    #: Process-pool crash recovery: how many times this job was retried
    #: after a worker death.
    attempts: int = 0

    @property
    def waiters(self) -> int:
        """How many submit() calls share this job (1 = no dedup)."""
        return len(self.fronts)

    def timing(self) -> Dict[str, float]:
        """Lifecycle timestamps and derived waits (JSON-ready).

        ``queue_wait_seconds`` and ``run_seconds`` come from the
        monotonic clock, so they stay correct across wall-clock jumps.
        """
        timing: Dict[str, float] = {"submitted_at": self.submitted_wall}
        if self.started_mono is not None:
            timing["started_at"] = self.started_wall
            timing["queue_wait_seconds"] = self.started_mono - self.submitted_mono
        if self.finished_mono is not None:
            timing["finished_at"] = self.finished_wall
            timing["run_seconds"] = self.finished_mono - (
                self.started_mono if self.started_mono is not None
                else self.submitted_mono
            )
            timing["total_seconds"] = self.finished_mono - self.submitted_mono
        return timing


class JobHandle:
    """A caller-facing reference to one (possibly shared) compilation job.

    Each handle owns its *own* front future: cancelling one caller's
    handle never cancels the result out from under the other callers it
    was coalesced with — the shared compilation itself is only cancelled
    once every attached handle has been.
    """

    def __init__(self, service: "CompilationService", job: _Job,
                 front: Future) -> None:
        self._service = service
        self._job = job
        self._front = front

    @property
    def job_id(self) -> int:
        """Service-unique identifier of the underlying (shared) job."""
        return self._job.job_id

    @property
    def technique(self) -> str:
        """Canonical technique key the job compiles with."""
        return self._job.technique

    def status(self) -> JobStatus:
        """Current lifecycle state (of this handle, not its siblings)."""
        if self._front.cancelled():
            return JobStatus.CANCELLED
        return self._job.status

    def done(self) -> bool:
        """True once this handle finished (done, failed or cancelled)."""
        return self._front.done()

    def result(self, timeout: Optional[float] = None):
        """Block for the :class:`repro.core.AdaptationResult`."""
        return self._front.result(timeout=timeout)

    def timing(self) -> Dict[str, float]:
        """Lifecycle timestamps of the underlying job: ``submitted_at``,
        and once known ``started_at``/``queue_wait_seconds`` and
        ``finished_at``/``run_seconds``/``total_seconds``."""
        return self._job.timing()

    def cancel(self) -> bool:
        """Cancel this handle; the shared job is cancelled only when no
        other caller is still waiting on it.  A job that is already
        *running* is interrupted cooperatively: its budget's cancel flag
        is raised and the compile unwinds with
        :class:`repro.resilience.CompileCancelled` at the next solver or
        pipeline checkpoint."""
        return self._service._cancel_front(self._job, self._front)

    def add_done_callback(self, callback) -> None:
        """Attach a callback to this handle's future (standard
        :meth:`concurrent.futures.Future.add_done_callback` semantics)."""
        self._front.add_done_callback(callback)

    def __repr__(self) -> str:
        return (f"JobHandle(id={self.job_id}, technique={self.technique!r}, "
                f"status={self.status().value})")


def _compile_in_subprocess(payload):
    """Process-pool entry point: compile one job in a fresh interpreter.

    The deadline travels as payload data (a context-var budget cannot
    cross the process boundary): the child enforces it — including the
    degradation ladder — itself.  Cooperative *cancellation* cannot reach
    a subprocess; the parent abandons the wait instead (see
    ``CompilationService._await_pool_future``).
    """
    (circuit, target, technique, use_cache, options,
     timeout, on_deadline, fallback, poison) = payload
    if poison:
        # Fault injection: the parent counted a ``worker.compile``/``die``
        # fault at dispatch (parent-side counters survive worker death,
        # so ``nth`` means "the nth dispatch overall" — a child-side
        # counter would reset with every respawned worker and kill the
        # pool forever).
        os._exit(17)
    return _facade_compile(circuit, target, technique, use_cache=use_cache,
                           timeout=timeout, on_deadline=on_deadline,
                           fallback=fallback, **options)


class CompilationService:
    """An asynchronous, deduplicating front end over :func:`repro.compile`.

    Parameters
    ----------
    workers:
        Worker pool size.
    max_pending:
        Bound on the number of queued (not yet running) jobs.
    store:
        Optional persistent L2 store — a
        :class:`repro.service.PersistentResultStore`, a ``dir:PATH`` spec
        or a directory path (see :func:`resolve_store_backend`).
        Installed behind :func:`repro.compile` for the service's lifetime
        (detached again on :meth:`shutdown` if this service installed it).
    mode:
        ``"thread"`` (default) runs compilations on the worker threads;
        ``"process"`` dispatches them to a process pool of the same size
        (results are merged back into this process's cache tiers).
    compile_fn:
        Injection point for tests: the callable that performs one
        compilation, signature-compatible with :func:`repro.compile`.
        It runs inside the job's budget scope, so an injected function
        that calls :func:`repro.resilience.check_budget` participates in
        deadlines and cancellation like the real pipeline does.
    worker_retries:
        Process mode only: how many times a job is re-dispatched after a
        pool-worker death before its waiters see
        :class:`WorkerCrashedError` (the pool itself is respawned either
        way).
    retry_backoff:
        Initial delay in seconds between crash retries (doubles per
        attempt).
    trace:
        Optional structured tracing for the service's lifetime: a JSONL
        path or a :class:`repro.trace.Tracer`, installed as the global
        tracer (see :mod:`repro.trace`).  A tracer this service started
        is stopped again on :meth:`shutdown`.
    """

    def __init__(
        self,
        workers: int = 4,
        max_pending: int = 256,
        store: Union[PersistentResultStore, str, None] = None,
        mode: str = "thread",
        compile_fn: Optional[Callable] = None,
        trace: Union[str, Tracer, None] = None,
        worker_retries: int = 2,
        retry_backoff: float = 0.1,
    ) -> None:
        if workers < 1:
            raise ValueError("the service needs at least one worker")
        if mode not in ("thread", "process"):
            raise ValueError(f"mode must be 'thread' or 'process', got {mode!r}")
        self.workers = workers
        self.mode = mode
        self._compile_fn = compile_fn or _facade_compile
        self._queue: "queue.Queue[Optional[_Job]]" = queue.Queue(maxsize=max_pending)
        self._lock = threading.Lock()
        self._inflight: Dict[tuple, _Job] = {}
        self._jobs: Dict[int, _Job] = {}
        self._next_id = 0
        self._shutdown = False
        self._started_at = time.monotonic()
        self._busy_workers = 0
        self._busy_seconds = 0.0
        self._worker_retries = max(0, worker_retries)
        self._retry_backoff = max(0.0, retry_backoff)
        self._counters = {
            "submitted": 0,
            "deduplicated": 0,
            "completed": 0,
            "failed": 0,
            "cancelled": 0,
            "worker_crashes": 0,
            "degraded": 0,
        }
        self._portfolio_wins: Dict[str, int] = {}

        self._owns_tracer = False
        if trace is not None:
            start_tracing(trace)
            self._owns_tracer = True

        self.store = store = resolve_store_backend(store)
        self._installed_store = False
        if store is not None and persistent_store() is not store:
            install_persistent_store(store)
            self._installed_store = True

        self._pool: Optional[ProcessPoolExecutor] = (
            ProcessPoolExecutor(max_workers=workers) if mode == "process" else None
        )
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-service-worker-{i}", daemon=True)
            for i in range(workers)
        ]
        for thread in self._threads:
            thread.start()

        # Scrape-time refresh of values the hot path does not push:
        # lifecycle counters, utilization, store bytes/evictions.  Keyed
        # "service" so a newer service instance replaces, never stacks.
        REGISTRY.register_collector("service", self._collect_telemetry)

    def saturation(self) -> float:
        """Admission pressure in ``[0, 1]``: pending work over capacity.

        Pending counts queued plus running jobs (the queue's own
        accounting); capacity is the queue bound plus the worker count.
        The load shedder reads this to decide which keys to admit.
        """
        capacity = self._queue.maxsize + self.workers
        if capacity <= 0:
            return 0.0
        return min(1.0, self._queue.unfinished_tasks / capacity)

    # -- submission ------------------------------------------------------
    def submit(
        self,
        circuit: QuantumCircuit,
        target: Target,
        technique: str = "sat_p",
        *,
        use_cache: bool = True,
        block: bool = True,
        timeout: Optional[float] = None,
        on_deadline: Optional[str] = None,
        fallback=None,
        queue_timeout: Optional[float] = None,
        **options: object,
    ) -> JobHandle:
        """Enqueue one compilation and return its :class:`JobHandle`.

        Identical concurrent requests (same cache key) coalesce onto one
        in-flight job.  With ``block=False`` a full queue raises
        :class:`ServiceSaturatedError` instead of waiting (and
        ``queue_timeout`` bounds how long a blocking submit waits for a
        queue slot).

        ``timeout`` is the *compile deadline* in seconds, armed when the
        job starts running (queue wait does not count); ``on_deadline``
        and ``fallback`` select the degradation policy, exactly as on
        :func:`repro.compile`.  Deadline parameters never enter the dedup
        key, so later identical submissions coalesce onto the first job
        and inherit its budget.
        """
        if self._shutdown:
            raise RuntimeError("cannot submit to a shut-down CompilationService")
        spec = resolve_technique(technique)
        spec.validate_options(dict(options))
        effective = _effective_options(spec, dict(options))
        # Validates timeout/on_deadline up front (before anything is
        # enqueued) and gives cancel() its interruption flag.
        budget = Budget(timeout=timeout, on_deadline=on_deadline or "raise",
                        fallback=fallback, arm=False)
        key = (
            cache_key(circuit, target, spec.key, effective) if use_cache else None
        )

        front = Future()
        dedup_of: Optional[_Job] = None
        with self._lock:
            self._counters["submitted"] += 1
            if key is not None:
                running = self._inflight.get(key)
                # The done() check and the append happen under the same
                # lock as the completion snapshot in _run_job, so a front
                # can never be attached to a job that already resolved.
                if running is not None and not running.future.done():
                    running.fronts.append(front)
                    self._counters["deduplicated"] += 1
                    dedup_of = running
            if dedup_of is None:
                self._next_id += 1
                job = _Job(
                    job_id=self._next_id,
                    key=key,
                    circuit=circuit,
                    target=target,
                    technique=spec.key,
                    use_cache=use_cache,
                    options=effective,
                    trace_context=capture_context(),
                    timeout=timeout,
                    budget=budget,
                )
                job.fronts.append(front)
                self._jobs[job.job_id] = job
                if key is not None:
                    self._inflight[key] = job
        if dedup_of is not None:
            event("job.dedup", "service", job_id=dedup_of.job_id,
                  technique=spec.key, waiters=dedup_of.waiters)
            return JobHandle(self, dedup_of, front)
        event("job.submit", "service", job_id=job.job_id,
              technique=spec.key, circuit=circuit.name)
        try:
            self._queue.put(job, block=block, timeout=queue_timeout)
        except queue.Full:
            with self._lock:
                coalesced = job.waiters > 1
                if not coalesced:
                    job.status = JobStatus.CANCELLED
                    self._counters["cancelled"] += 1
                    self._counters["submitted"] -= 1
                    self._inflight.pop(key, None)
                    self._jobs.pop(job.job_id, None)
            if coalesced:
                # Rare race: another submit coalesced onto this job while
                # our put was failing.  It must not be stranded, so the
                # job is enqueued anyway (accepting one over-budget slot)
                # rather than cancelled out from under the other caller.
                self._queue.put(job)
                self._observe_saturation()
                return JobHandle(self, job, front)
            job.future.cancel()
            front.cancel()
            raise ServiceSaturatedError(
                f"job queue is full ({self._queue.maxsize} pending)"
            ) from None
        self._observe_saturation()
        # Close the submit/shutdown race: if shutdown() ran while the put
        # was in flight, this job may sit behind the worker sentinels and
        # would never resolve.  If so (the cancel succeeds only when no
        # worker picked it up), reject the submission explicitly.
        if self._shutdown and job.future.cancel():
            with self._lock:
                job.status = JobStatus.CANCELLED
                self._counters["cancelled"] += 1
                self._counters["submitted"] -= 1
                self._inflight.pop(key, None)
                self._jobs.pop(job.job_id, None)
            front.cancel()
            raise RuntimeError(
                "CompilationService was shut down while the job was being "
                "submitted"
            )
        return JobHandle(self, job, front)

    def compile(self, circuit: QuantumCircuit, target: Target,
                technique: str = "sat_p", *, timeout: Optional[float] = None,
                **options: object):
        """Synchronous convenience: ``submit(...).result(timeout)``."""
        return self.submit(circuit, target, technique, **options).result(timeout)

    # -- job introspection ----------------------------------------------
    def _resolve(self, handle_or_id: Union[JobHandle, int]) -> _Job:
        if isinstance(handle_or_id, JobHandle):
            return handle_or_id._job
        with self._lock:
            job = self._jobs.get(handle_or_id)
        if job is None:
            raise KeyError(f"unknown job id {handle_or_id!r}")
        return job

    def status(self, handle_or_id: Union[JobHandle, int]) -> JobStatus:
        """Current :class:`JobStatus` of a handle or job."""
        if isinstance(handle_or_id, JobHandle):
            return handle_or_id.status()
        return self._resolve(handle_or_id).status

    def result(self, handle_or_id: Union[JobHandle, int],
               timeout: Optional[float] = None):
        """Block for a job's :class:`repro.core.AdaptationResult`."""
        if isinstance(handle_or_id, JobHandle):
            return handle_or_id.result(timeout=timeout)
        return self._resolve(handle_or_id).future.result(timeout=timeout)

    def cancel(self, handle_or_id: Union[JobHandle, int]) -> bool:
        """Cancel a handle — or, by job id, every waiter of a job.

        A coalesced job is only cancelled once all of its waiters are.
        Queued jobs are reaped immediately; a *running* job is
        interrupted cooperatively through its budget — the compile
        unwinds with :class:`repro.resilience.CompileCancelled` at its
        next solver/pipeline checkpoint and the job books as cancelled.
        (Process-mode jobs are abandoned rather than interrupted: the
        child finishes its bounded compile, but no waiter blocks on it.)
        """
        if isinstance(handle_or_id, JobHandle):
            return handle_or_id.cancel()
        job = self._resolve(handle_or_id)
        with self._lock:
            fronts = list(job.fronts)
        cancelled = False
        for front in fronts:
            cancelled = self._cancel_front(job, front) or cancelled
        return cancelled

    def _cancel_front(self, job: _Job, front: Future) -> bool:
        """Cancel one waiter's front; reap the job when nobody is left."""
        if not front.cancel():
            return False
        with self._lock:
            abandoned = all(f.cancelled() for f in job.fronts)
        if abandoned:
            if job.future.cancel():
                with self._lock:
                    job.status = JobStatus.CANCELLED
                    self._counters["cancelled"] += 1
                    job.finished_wall = time.time()
                    job.finished_mono = time.monotonic()
                    if job.key is not None and self._inflight.get(job.key) is job:
                        del self._inflight[job.key]
                event("job.cancel", "service", job_id=job.job_id,
                      technique=job.technique)
            elif not job.future.done():
                # Already running: raise the budget's cancel flag; the
                # worker observes it at the next checkpoint, unwinds with
                # CompileCancelled and books the job as cancelled.
                job.budget.cancel("all waiters cancelled")
                event("job.interrupt", "service", job_id=job.job_id,
                      technique=job.technique)
        return True

    # -- worker loop -----------------------------------------------------
    def _worker_loop(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:  # Shutdown sentinel.
                self._queue.task_done()
                return
            try:
                self._run_job(job)
            finally:
                self._queue.task_done()

    def _run_job(self, job: _Job) -> None:
        if not job.future.set_running_or_notify_cancel():
            return  # Cancelled while queued; counters already updated.
        with self._lock:
            job.status = JobStatus.RUNNING
            self._busy_workers += 1
            self._observe_saturation()
        started = time.monotonic()
        job.started_wall = time.time()
        job.started_mono = started
        # The deadline clock starts when the job starts running; queue
        # wait never counts against the compile timeout.
        job.budget.arm()
        try:
            # Resuming the submitter's captured context parents the job
            # span under the submitting request's span even though this
            # runs on a worker thread (no-op when tracing is off).
            with resume_context(job.trace_context):
                with span("job", "service", job_id=job.job_id,
                          technique=job.technique,
                          circuit=job.circuit.name,
                          waiters=job.waiters,
                          queue_wait_seconds=started - job.submitted_mono,
                          mode=self.mode):
                    if self._pool is not None:
                        result = self._run_in_pool(job)
                        if job.use_cache:
                            # The subprocess populated its own caches; merge
                            # the result into this process's L1/L2 tiers.
                            store_result(job.key, result)
                    else:
                        # The budget scope makes the facade's solver/pass
                        # checkpoints honor this job's deadline and its
                        # cancel flag; the facade also reads the budget's
                        # on_deadline/fallback policy from the scope.
                        with budget_scope(job.budget):
                            result = self._compile_fn(
                                job.circuit, job.target, job.technique,
                                use_cache=job.use_cache, **job.options,
                            )
        except BaseException as error:  # noqa: BLE001 - forwarded to the futures
            cancelled = isinstance(error, CompileCancelled)
            with self._lock:
                if cancelled:
                    job.status = JobStatus.CANCELLED
                    self._counters["cancelled"] += 1
                else:
                    job.status = JobStatus.FAILED
                    self._counters["failed"] += 1
                self._finish(job, started)
                # Resolving the execution future under the lock makes the
                # dedup done() check atomic with this completion: no front
                # can be attached after the snapshot below.
                job.future.set_exception(error)
                fronts = list(job.fronts)
            for front in fronts:
                if front.set_running_or_notify_cancel():
                    front.set_exception(error)
        else:
            report = getattr(result, "report", None)
            with self._lock:
                job.status = JobStatus.DONE
                self._counters["completed"] += 1
                if report is not None and report.degraded_from:
                    self._counters["degraded"] += 1
                self._finish(job, started)
                job.future.set_result(result)
                fronts = list(job.fronts)
            for front in fronts:
                if front.set_running_or_notify_cancel():
                    front.set_result(result)

    def _run_in_pool(self, job: _Job) -> object:
        """Dispatch one job to the process pool, surviving worker death.

        A crashed worker breaks the whole :class:`ProcessPoolExecutor`;
        the pool is respawned and the job re-dispatched under a bounded
        retry-with-backoff budget before its waiters see
        :class:`WorkerCrashedError`.
        """
        budget = job.budget
        attempts = self._worker_retries + 1
        delay = self._retry_backoff
        for attempt in range(1, attempts + 1):
            pool = self._pool
            if pool is None:
                raise RuntimeError("CompilationService was shut down")
            # Fault counting happens here, parent-side, so a killed
            # worker's fault is consumed: the retry dispatch is clean.
            poison = any(spec.action == "die"
                         for spec in maybe_fault("worker.compile"))
            payload = (job.circuit, job.target, job.technique, job.use_cache,
                       job.options, budget.remaining(), budget.on_deadline,
                       budget.fallback, poison)
            try:
                future = pool.submit(_compile_in_subprocess, payload)
                return self._await_pool_future(job, future)
            except BrokenProcessPool:
                job.attempts = attempt
                self._respawn_pool(pool)
                event("resilience.worker_crash", "service",
                      job_id=job.job_id, technique=job.technique,
                      attempt=attempt)
                if attempt >= attempts:
                    raise WorkerCrashedError(
                        f"process worker died {attempts} time(s) while "
                        f"compiling job {job.job_id}"
                    ) from None
                if delay:
                    time.sleep(delay)
                    delay *= 2
        raise AssertionError("unreachable")  # pragma: no cover

    def _await_pool_future(self, job: _Job, future: Future) -> object:
        """Wait for a pool result in slices, observing cancellation.

        Cooperative cancellation cannot reach the subprocess, so an
        interrupted wait abandons the child (its own deadline still
        bounds it) instead of blocking the worker thread forever.  A
        generous parent-side bound guards against a hung child that
        stopped honoring its deadline.
        """
        bound = None
        if job.timeout is not None:
            # Deadline + every grace rung + subprocess startup slack.
            bound = time.monotonic() + 2.0 * job.timeout + 30.0
        while True:
            try:
                return future.result(timeout=0.25)
            except FutureTimeoutError:
                if job.budget.cancelled:
                    future.cancel()
                    raise CompileCancelled(
                        job.budget.cancel_reason() or "cancelled",
                        checkpoint="service.pool_wait", budget=job.budget,
                    ) from None
                if bound is not None and time.monotonic() >= bound:
                    future.cancel()
                    raise CompileDeadlineExceeded(
                        f"process worker for job {job.job_id} exceeded the "
                        f"parent-side deadline bound",
                        checkpoint="service.pool_wait", budget=job.budget,
                    ) from None

    def _respawn_pool(self, broken: ProcessPoolExecutor) -> None:
        """Replace a broken process pool (once, whichever thread wins)."""
        with self._lock:
            if self._shutdown:
                return
            if self._pool is broken:
                self._counters["worker_crashes"] += 1
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
        try:
            broken.shutdown(wait=False)
        except Exception:  # pragma: no cover - best-effort cleanup
            pass

    def _finish(self, job: _Job, started: float) -> None:
        """Book-keeping common to success and failure (lock held)."""
        job.finished_wall = time.time()
        job.finished_mono = time.monotonic()
        self._busy_workers -= 1
        self._busy_seconds += job.finished_mono - started
        if job.key is not None and self._inflight.get(job.key) is job:
            del self._inflight[job.key]
        self._observe_saturation()

    # -- telemetry -------------------------------------------------------
    def _observe_saturation(self) -> None:
        """Set the live saturation gauges (submit/start/finish, scrape).

        ``jobs_pending`` counts admitted-but-unfinished work (queued plus
        running) via the queue's own accounting, so ``drain()``-style
        consumers and the dashboard see the same number.  The gauges
        ignore the writes while telemetry is off.
        """
        QUEUE_DEPTH.set(self._queue.qsize())
        WORKERS_BUSY.set(self._busy_workers)
        JOBS_PENDING.set(self._queue.unfinished_tasks)

    def _collect_telemetry(self) -> None:
        """Scrape-time collector: mirror pull-only values into the registry."""
        if self._shutdown:
            return
        with self._lock:
            counters = dict(self._counters)
            busy_seconds = self._busy_seconds
        for state, count in counters.items():
            SCHEDULER_JOBS.labels(state).set_total(count)
        uptime = max(time.monotonic() - self._started_at, 1e-9)
        WORKER_UTILIZATION.set(busy_seconds / (self.workers * uptime))
        self._observe_saturation()
        store = self.store if self.store is not None else persistent_store()
        if store is not None:
            info = store.info()
            backend = getattr(store, "backend", "local_dir")
            STORE_BYTES.labels(backend).set(info.total_bytes)
            STORE_EVENTS.labels(backend, "puts").set_total(info.puts)
            STORE_EVENTS.labels(backend, "evictions").set_total(info.evictions)
            STORE_EVENTS.labels(backend, "corruptions").set_total(info.corrupted)

    # -- portfolio -------------------------------------------------------
    def compile_portfolio(
        self,
        circuit: QuantumCircuit,
        target: Target,
        techniques: Optional[Sequence[str]] = None,
        *,
        policy: str = "combined",
        use_cache: bool = True,
        timeout: Optional[float] = None,
        **options: object,
    ):
        """Race several techniques and return the best result under ``policy``.

        See :func:`repro.service.portfolio.run_portfolio` for the cost
        policies and the contender records attached to the winner's
        report.  Per-technique win counts feed :meth:`statistics`.
        """
        from repro.service.portfolio import run_portfolio

        winner = run_portfolio(
            self, circuit, target, techniques,
            policy=policy, use_cache=use_cache, timeout=timeout, **options,
        )
        with self._lock:
            wins = self._portfolio_wins
            wins[winner.technique] = wins.get(winner.technique, 0) + 1
        return winner

    # -- statistics and lifecycle ---------------------------------------
    def statistics(self) -> Dict[str, object]:
        """Aggregate queue, worker, cache-tier and portfolio statistics.

        The returned mapping is guaranteed ``json.dumps``-able: every
        value is coerced to a plain ``dict``/``list``/``str``/``int``/
        ``float``/``bool``/``None`` (the HTTP gateway's ``/metrics``
        endpoint serializes it verbatim).
        """
        l1 = GLOBAL_CACHE.info()
        store = self.store if self.store is not None else persistent_store()
        uptime = max(time.monotonic() - self._started_at, 1e-9)
        with self._lock:
            counters = dict(self._counters)
            busy = self._busy_workers
            busy_seconds = self._busy_seconds
            wins = dict(self._portfolio_wins)
        l1_lookups = l1.hits + l1.misses
        stats: Dict[str, object] = {
            "queue_depth": self._queue.qsize(),
            "max_pending": self._queue.maxsize,
            "workers": self.workers,
            "busy_workers": busy,
            "worker_utilization": busy_seconds / (self.workers * uptime),
            "uptime_seconds": uptime,
            "mode": self.mode,
            **counters,
            "l1": {"hits": l1.hits, "misses": l1.misses, "size": l1.size},
            "l1_hit_rate": l1.hits / l1_lookups if l1_lookups else 0.0,
            "portfolio_wins": wins,
        }
        if store is not None:
            info = store.info()
            lookups = info.hits + info.misses
            # Stores report statistics() with their backend label; fall
            # back to bare StoreInfo for minimal duck-typed stores.
            if hasattr(store, "statistics"):
                stats["l2"] = store.statistics()
            else:
                stats["l2"] = info.as_dict()
            stats["l2_hit_rate"] = info.hits / lookups if lookups else 0.0
        stats["saturation"] = self.saturation()
        return _json_safe(stats)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every queued and running job has finished.

        Unlike :meth:`shutdown` the service keeps accepting new work
        afterwards — this is the quiesce hook the HTTP gateway's
        graceful shutdown uses (stop accepting requests, ``drain()``,
        then ``shutdown()``).  Returns ``True`` when the service went
        idle, ``False`` on timeout.

        A job is "finished" once its worker called ``task_done`` — i.e.
        this is ``Queue.join()`` with a timeout, so the window between a
        job leaving the queue and its worker booking it as busy cannot
        produce a false idle.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._queue.all_tasks_done:
            while self._queue.unfinished_tasks:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._queue.all_tasks_done.wait(remaining)
            return True

    def shutdown(self, wait: bool = True, cancel_pending: bool = False) -> None:
        """Stop accepting jobs and wind the worker pool down.

        With ``cancel_pending=True`` still-queued jobs are cancelled;
        otherwise they drain normally before the workers exit.
        """
        with self._lock:
            if self._shutdown:
                return
            self._shutdown = True
        if cancel_pending:
            while True:
                try:
                    job = self._queue.get_nowait()
                except queue.Empty:
                    break
                if job is not None and job.future.cancel():
                    with self._lock:
                        job.status = JobStatus.CANCELLED
                        self._counters["cancelled"] += 1
                        if job.key is not None and self._inflight.get(job.key) is job:
                            del self._inflight[job.key]
                        fronts = list(job.fronts)
                    for front in fronts:  # Unblock every waiter.
                        front.cancel()
                self._queue.task_done()
        for _ in self._threads:
            self._queue.put(None)
        if wait:
            for thread in self._threads:
                thread.join()
        if self._pool is not None:
            self._pool.shutdown(wait=wait)
        if REGISTRY.get_collector("service") == self._collect_telemetry:
            REGISTRY.unregister_collector("service")
        if self._installed_store:
            uninstall_persistent_store()
            self._installed_store = False
        if self._owns_tracer:
            stop_tracing()
            self._owns_tracer = False

    def __enter__(self) -> "CompilationService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown(wait=True)

    def __repr__(self) -> str:
        return (f"CompilationService(workers={self.workers}, mode={self.mode!r}, "
                f"queue={self._queue.qsize()}/{self._queue.maxsize})")
