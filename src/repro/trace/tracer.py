"""The structured event tracer: spans, point events, buffered JSONL output.

One :class:`Tracer` owns one append-only JSONL file.  Every line is one
event (see :mod:`repro.trace.schema` for the checked-in schema): a span
``begin``/``end`` pair, a ``point`` event inside the enclosing span, or a
``meta`` header describing the producing process.  Timestamps are
``time.perf_counter()`` (monotonic within a process); parent links are
explicit span ids, so traces merged across processes still reconstruct.

Instrumented code calls two hooks, :func:`span` and :func:`event`.  A
hook is **near-zero-overhead when off**: it checks one module global,
true while a tracer is active or the metric registry records, and bails
out before building anything.  When on, a finished span or a point
event goes to the active tracer (if any) and to the metric sink that
:mod:`repro.telemetry` installs while it is enabled — one call per site
feeds both.  Spans always time themselves, so callers such as the
pipeline read a stage's duration from its span.  The active tracer is
resolved through :func:`current_tracer`, which consults a
context-variable scope first (per-``compile(trace=...)`` overrides,
cross-thread span resumption) and the installed global tracer second
(``REPRO_TRACE`` / :func:`start_tracing`).

Writes are thread- and multiprocess-safe: events buffer per tracer under
a lock and flush as one ``os.write`` to an ``O_APPEND`` descriptor, so
complete lines from concurrent writers never interleave mid-line.  A
fork handler drops inherited buffers in the child (the parent flushes its
own copy), preventing duplicated events from process pools.
"""

from __future__ import annotations

import atexit
import contextvars
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, Mapping, Optional, Union

#: True while a global tracer is installed or at least one scoped
#: activation is live.
_ACTIVE = False

MetricSink = Callable[[str, Mapping[str, object], Optional[float]], None]

#: The ``(name, fields, seconds)`` sink :mod:`repro.telemetry` installs
#: while the registry records; ``None`` when off.
_METRIC_SINK: Optional[MetricSink] = None

#: The switch every hook reads: ``_ACTIVE or _METRIC_SINK is not None``.
_ON = False

#: Number of live activations (global install counts as one).
_ACTIVE_COUNT = 0
_ACTIVE_LOCK = threading.Lock()

#: Process-wide span id allocator (``next`` on ``count`` is atomic under
#: the GIL).  Span ids are unique per process; readers key by (pid, span).
_SPAN_IDS = itertools.count(1)


class TraceContext:
    """A (tracer, span) pair: the context-local tracing state.

    It is also the captured form for cross-thread span parenting: the
    service captures the submitting request's context onto the job and
    resumes it on the worker thread, so pipeline and solver spans parent
    correctly even though they run on a different thread.
    """

    __slots__ = ("tracer", "span_id")

    def __init__(self, tracer: "Tracer", span_id: Optional[int]) -> None:
        self.tracer = tracer
        self.span_id = span_id

    def __repr__(self) -> str:
        return f"TraceContext(span={self.span_id}, file={self.tracer.path!r})"


_SCOPE: "contextvars.ContextVar[Optional[TraceContext]]" = contextvars.ContextVar(
    "repro_trace_scope", default=None)


def _activate() -> None:
    global _ACTIVE, _ACTIVE_COUNT, _ON
    with _ACTIVE_LOCK:
        _ACTIVE_COUNT += 1
        _ACTIVE = _ON = True


def _deactivate() -> None:
    global _ACTIVE, _ACTIVE_COUNT, _ON
    with _ACTIVE_LOCK:
        _ACTIVE_COUNT = max(0, _ACTIVE_COUNT - 1)
        _ACTIVE = _ACTIVE_COUNT > 0
        _ON = _ACTIVE or _METRIC_SINK is not None


def set_metric_sink(sink: Optional[MetricSink]) -> None:
    """Install (or with ``None`` remove) the metric sink the hooks feed."""
    global _METRIC_SINK, _ON
    with _ACTIVE_LOCK:
        _METRIC_SINK = sink
        _ON = _ACTIVE or sink is not None


def hooks_active() -> bool:
    """True when the hooks reach a tracer or the registry (hot loops read
    it once per call and guard their hooks with the local copy)."""
    return _ON


def tracing_active() -> bool:
    """True when any tracer (global or scoped) may receive events."""
    return _ACTIVE


class NullTracer:
    """The disabled tracer: every operation is a cheap no-op."""

    enabled = False
    closed = False
    path: Optional[str] = None

    def event(self, name: str, layer: str, **fields: object) -> None:
        pass

    def begin(self, name: str, layer: str, **fields: object):
        return None

    def end(self, token, **fields: object) -> None:
        pass

    @contextmanager
    def span(self, name: str, layer: str, **fields: object) -> Iterator[None]:
        yield

    def capture(self) -> None:
        return None

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __repr__(self) -> str:
        return "NullTracer()"


#: The shared disabled tracer returned whenever tracing is off.
NULL_TRACER = NullTracer()


class Tracer:
    """A thread-safe buffered JSONL trace writer with span bookkeeping.

    Parameters
    ----------
    path:
        Trace file; opened in append mode (created if missing), so
        several processes — e.g. sharded servers — can share one file.
    buffer_events:
        Events buffered before an automatic flush.  Each flush is a
        single ``os.write`` of complete lines to the ``O_APPEND``
        descriptor, which keeps concurrent writers line-atomic.
    meta:
        Extra fields recorded on the ``trace_start`` meta event.
    """

    enabled = True

    def __init__(
        self,
        path: Union[str, "os.PathLike[str]"],
        buffer_events: int = 128,
        meta: Optional[Dict[str, object]] = None,
    ) -> None:
        self.path = os.fspath(path)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._fd: Optional[int] = os.open(
            self.path, os.O_APPEND | os.O_CREAT | os.O_WRONLY, 0o644
        )
        self._lock = threading.Lock()
        self._buffer: list = []
        self._buffer_limit = max(1, int(buffer_events))
        self.events_emitted = 0
        header = {"python_pid": os.getpid()}
        if meta:
            header.update(meta)
        self._emit({
            "kind": "meta",
            "ts": time.perf_counter(),
            "wall": time.time(),
            "name": "trace_start",
            "layer": "trace",
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "span": None,
            "fields": header,
        })

    # -- low-level emission ----------------------------------------------
    def _emit(self, event: Dict[str, object]) -> None:
        line = json.dumps(event, separators=(",", ":"), default=str) + "\n"
        with self._lock:
            if self._fd is None:
                return
            self._buffer.append(line)
            self.events_emitted += 1
            if len(self._buffer) >= self._buffer_limit:
                self._flush_locked()

    def _flush_locked(self) -> None:
        if not self._buffer or self._fd is None:
            return
        payload = "".join(self._buffer).encode("utf-8")
        self._buffer.clear()
        os.write(self._fd, payload)

    def flush(self) -> None:
        """Write every buffered event to the file."""
        with self._lock:
            self._flush_locked()

    def close(self) -> None:
        """Flush and close the trace file (idempotent)."""
        with self._lock:
            self._flush_locked()
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None

    @property
    def closed(self) -> bool:
        return self._fd is None

    # -- events and spans ------------------------------------------------
    def event(self, name: str, layer: str, **fields: object) -> None:
        """Emit a point event inside the current span (if any)."""
        scope = _SCOPE.get()
        self._emit({
            "kind": "point",
            "ts": time.perf_counter(),
            "name": name,
            "layer": layer,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "span": scope.span_id if scope is not None else None,
            "fields": fields,
        })

    def begin(self, name: str, layer: str, **fields: object):
        """Open a span; returns the token :meth:`end` needs.

        The low-level pair exists (beyond :meth:`span`) so callers can
        attach fields computed *during* the span to its ``end`` event.
        """
        return self._begin(name, layer, fields, time.perf_counter())

    def _begin(self, name: str, layer: str, fields: Mapping[str, object],
               started: float):
        span_id = next(_SPAN_IDS)
        parent_scope = _SCOPE.get()
        parent = parent_scope.span_id if parent_scope is not None else None
        self._emit({
            "kind": "begin",
            "ts": started,
            "name": name,
            "layer": layer,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "span": span_id,
            "parent": parent,
            "fields": fields,
        })
        reset = _SCOPE.set(TraceContext(self, span_id))
        return (span_id, name, layer, started, reset)

    def end(self, token, **fields: object) -> None:
        """Close a span opened by :meth:`begin`."""
        if token is not None:
            self._end(token, fields, time.perf_counter())

    def _end(self, token, fields: Mapping[str, object], ended: float) -> None:
        span_id, name, layer, started, reset = token
        _SCOPE.reset(reset)
        self._emit({
            "kind": "end",
            "ts": ended,
            "name": name,
            "layer": layer,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "span": span_id,
            "dur": ended - started,
            "fields": fields,
        })

    @contextmanager
    def span(self, name: str, layer: str, **fields: object) -> Iterator[int]:
        """Context-manager form of :meth:`begin`/:meth:`end`."""
        token = self.begin(name, layer, **fields)
        try:
            yield token[0]
        finally:
            self.end(token)

    # -- cross-thread propagation ----------------------------------------
    def capture(self) -> TraceContext:
        """Capture the current span for resumption on another thread."""
        scope = _SCOPE.get()
        span_id = scope.span_id if scope is not None and scope.tracer is self else None
        return TraceContext(self, span_id)

    @contextmanager
    def activate(self, parent: Optional[int] = None) -> Iterator["Tracer"]:
        """Make this tracer current for the calling context.

        Used for per-call tracers (``compile(trace="file.jsonl")``) and,
        via :func:`resume_context`, for adopting a captured span as the
        parent on a worker thread.
        """
        _activate()
        reset = _SCOPE.set(TraceContext(self, parent))
        try:
            yield self
        finally:
            _SCOPE.reset(reset)
            _deactivate()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else f"{self.events_emitted} events"
        return f"Tracer({self.path!r}, {state})"


# ---------------------------------------------------------------------------
# Ambient tracer management
# ---------------------------------------------------------------------------
_GLOBAL: Optional[Tracer] = None
_GLOBAL_LOCK = threading.Lock()
_ATEXIT_REGISTERED = False

#: Environment variable naming the trace file; when set, tracing starts
#: automatically on first import of :mod:`repro.trace` (including in
#: spawned worker processes, which inherit the environment).
TRACE_ENV_VAR = "REPRO_TRACE"

#: HTTP header carrying the caller's span identity (``"pid:span"``) so a
#: receiving process can record it as ``fields.remote_parent`` and the
#: trace reader can stitch client → gateway → shard into one tree.
TRACE_HEADER = "X-Repro-Trace"


def current_tracer() -> Union[Tracer, NullTracer]:
    """The tracer for the calling context, or the no-op tracer.

    Scoped activations (``compile(trace=...)``, resumed job contexts)
    take precedence over the globally installed tracer.
    """
    if not _ACTIVE:
        return NULL_TRACER
    scope = _SCOPE.get()
    if scope is not None and not scope.tracer.closed:
        return scope.tracer
    tracer = _GLOBAL
    if tracer is not None and not tracer.closed:
        return tracer
    return NULL_TRACER


def start_tracing(
    target: Union[str, "os.PathLike[str]", Tracer, None] = None,
    **tracer_options: object,
) -> Tracer:
    """Install a process-global tracer and return it.

    ``target`` is a file path, an existing :class:`Tracer`, or ``None``
    to read the path from ``REPRO_TRACE``.  Calling again with the same
    path returns the already-installed tracer; a different path replaces
    it (the old tracer is flushed and closed).
    """
    global _GLOBAL, _ATEXIT_REGISTERED
    if target is None:
        target = os.environ.get(TRACE_ENV_VAR)
        if not target:
            raise ValueError(
                "start_tracing() needs a path (or set the REPRO_TRACE "
                "environment variable)"
            )
    with _GLOBAL_LOCK:
        if isinstance(target, Tracer):
            tracer = target
        else:
            path = os.fspath(target)
            if _GLOBAL is not None and not _GLOBAL.closed and _GLOBAL.path == path:
                return _GLOBAL
            tracer = Tracer(path, **tracer_options)
        if _GLOBAL is not None and _GLOBAL is not tracer:
            _GLOBAL.close()
            _deactivate()
        elif _GLOBAL is tracer:
            return tracer
        _GLOBAL = tracer
        _activate()
        if not _ATEXIT_REGISTERED:
            atexit.register(_close_global_at_exit)
            _ATEXIT_REGISTERED = True
    return tracer


def stop_tracing() -> None:
    """Flush, close and uninstall the global tracer (no-op when absent)."""
    global _GLOBAL
    with _GLOBAL_LOCK:
        if _GLOBAL is None:
            return
        _GLOBAL.close()
        _GLOBAL = None
        _deactivate()


def global_tracer() -> Optional[Tracer]:
    """The installed global tracer, if any (scoped overrides not consulted)."""
    return _GLOBAL


def _close_global_at_exit() -> None:
    tracer = _GLOBAL
    if tracer is not None:
        tracer.close()


def capture_context() -> Optional[TraceContext]:
    """Capture the calling context's tracer + span, or ``None`` when off."""
    tracer = current_tracer()
    if not tracer.enabled:
        return None
    return tracer.capture()


@contextmanager
def resume_context(context: Optional[TraceContext]) -> Iterator[None]:
    """Re-enter a captured trace context (no-op for ``None``)."""
    if context is None or context.tracer.closed:
        yield
        return
    with context.tracer.activate(parent=context.span_id):
        yield


@contextmanager
def scoped_tracer(
    target: Union[None, bool, str, "os.PathLike[str]", Tracer]
) -> Iterator[Union[Tracer, NullTracer]]:
    """Resolve a ``trace=`` argument into an active tracer for one call.

    ============================  =========================================
    ``None``                      ambient tracing (global / resumed scope)
    ``False``                     force tracing off for the call
    ``True``                      the global tracer (auto-started from
                                  ``REPRO_TRACE`` when set; no-op
                                  otherwise)
    path (str / PathLike)         a per-call tracer appending to the path
    :class:`Tracer`               that tracer, activated for the call
    ============================  =========================================
    """
    if target is None:
        yield current_tracer()
        return
    if target is False:
        _activate()  # Keep _ACTIVE truthful while the null scope is live.
        reset = _SCOPE.set(TraceContext(NULL_TRACER, None))  # type: ignore[arg-type]
        try:
            yield NULL_TRACER
        finally:
            _SCOPE.reset(reset)
            _deactivate()
        return
    if target is True:
        tracer = _GLOBAL
        if tracer is None and os.environ.get(TRACE_ENV_VAR):
            tracer = start_tracing()
        if tracer is None or tracer.closed:
            yield current_tracer()
            return
        with tracer.activate(parent=tracer.capture().span_id):
            yield tracer
        return
    if isinstance(target, Tracer):
        with target.activate(parent=target.capture().span_id):
            yield target
        return
    # A path: open, trace the call, flush and close.
    tracer = Tracer(os.fspath(target))
    try:
        with tracer.activate():
            yield tracer
    finally:
        tracer.close()


# ---------------------------------------------------------------------------
# The instrumentation hooks
# ---------------------------------------------------------------------------
class Span:
    """A timed region opened by :func:`span`; :meth:`end` closes it.

    It times itself whether or not anything listens, so its duration can
    feed a report as well as the tracer and the registry.  As a context
    manager it ends (without fields) on exit.
    """

    __slots__ = ("name", "fields", "started", "_tracer", "_token")

    def __init__(self, name: str, fields: Mapping[str, object], started: float,
                 tracer: Union[Tracer, NullTracer], token) -> None:
        self.name = name
        self.fields = fields
        self.started = started
        self._tracer = tracer
        self._token = token

    @property
    def span_id(self) -> Optional[int]:
        """The trace span id, or ``None`` when no tracer records this span."""
        return self._token[0] if self._token is not None else None

    def end(self, **fields: object) -> float:
        """Close the span and return its duration in seconds.

        ``fields`` land on the trace ``end`` event; the metric sink sees
        them merged over the span's opening fields.
        """
        ended = time.perf_counter()
        if self._token is not None:
            self._tracer._end(self._token, fields, ended)
        seconds = ended - self.started
        sink = _METRIC_SINK
        if sink is not None:
            sink(self.name, {**self.fields, **fields}, seconds)
        return seconds

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end()


def span(name: str, layer: str, **fields: object) -> Span:
    """Open a span: traced while a tracer is active, metered when it ends."""
    started = time.perf_counter()
    tracer = current_tracer()
    token = tracer._begin(name, layer, fields, started) if tracer.enabled else None
    return Span(name, fields, started, tracer, token)


def event(name: str, layer: str, **fields: object) -> None:
    """Record a point event to the active tracer and the metric sink."""
    if not _ON:
        return
    tracer = current_tracer()
    if tracer.enabled:
        tracer.event(name, layer, **fields)
    sink = _METRIC_SINK
    if sink is not None:
        sink(name, fields, None)


# ---------------------------------------------------------------------------
# Fork hygiene: a forked worker inherits the parent's buffers; the parent
# flushes its own copy, so the child must drop them or events duplicate.
# ---------------------------------------------------------------------------
def _reset_after_fork() -> None:
    tracer = _GLOBAL
    if tracer is not None:
        tracer._lock = threading.Lock()
        tracer._buffer = []


if hasattr(os, "register_at_fork"):  # pragma: no branch - POSIX in CI
    os.register_at_fork(after_in_child=_reset_after_fork)
