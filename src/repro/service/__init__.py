"""The service layer: persistence, async scheduling, portfolio compilation.

This package turns the single-process :func:`repro.compile` facade into a
long-running, shareable compilation service::

    from repro.service import CompilationService

    with CompilationService(workers=4, store=".repro-store") as service:
        handle = service.submit(circuit, target, "sat_p")   # async
        result = handle.result()
        best = service.compile_portfolio(circuit, target,
                                         ["direct", "kak_cz", "sat_p"])
        print(service.statistics())

Pieces (each usable on its own):

* :class:`PersistentResultStore` — the disk-backed, sharded, LRU-evicted
  L2 cache behind the in-process L1 (:func:`use_persistent_store`
  installs one under plain ``repro.compile`` without a service, and
  :func:`resolve_store_backend` turns a ``dir:PATH`` or path spec into
  one);
* :class:`CompilationService` — bounded job queue, worker pool,
  futures-based ``submit``/``result``/``status``, request coalescing and
  graceful shutdown;
* :func:`compile_portfolio <repro.service.portfolio.run_portfolio>` —
  race techniques, return the argmin under a cost policy;
* ``python -m repro.service`` — batch CLI over workload manifests.
"""

from repro.service.portfolio import (
    COST_POLICIES,
    DEFAULT_PORTFOLIO,
    portfolio_score,
    run_portfolio,
)
from repro.service.scheduler import (
    CompilationService,
    JobHandle,
    JobStatus,
    ServiceSaturatedError,
    WorkerCrashedError,
)
from repro.service.store import (
    DEFAULT_MAX_BYTES,
    PersistentResultStore,
    StoreInfo,
    disable_persistent_store,
    resolve_store_backend,
    use_persistent_store,
)

__all__ = [
    "CompilationService",
    "JobHandle",
    "JobStatus",
    "ServiceSaturatedError",
    "WorkerCrashedError",
    "PersistentResultStore",
    "StoreInfo",
    "DEFAULT_MAX_BYTES",
    "use_persistent_store",
    "disable_persistent_store",
    "resolve_store_backend",
    "COST_POLICIES",
    "DEFAULT_PORTFOLIO",
    "portfolio_score",
    "run_portfolio",
]
