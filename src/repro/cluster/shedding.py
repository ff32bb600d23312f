"""Priority-aware load shedding tied to scheduler saturation.

When the compilation queue fills, the service already protects itself
with :class:`repro.service.ServiceSaturatedError` — but that rejects
whoever arrives last, regardless of who they are.  The shedder rejects
*earlier* and *selectively*: as saturation rises past ``threshold``, a
priority cutoff climbs linearly until at ``full`` only the highest
priority class (:data:`~repro.cluster.auth.MAX_PRIORITY`) is admitted.
Lowest-priority keys are shed first, and every refusal carries a
``Retry-After`` hint scaled to how saturated the service is.

The shedder is advisory and stateless between calls — it reads
:meth:`repro.service.CompilationService.saturation` at each admission
so it needs no feedback loop of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.cluster.auth import MAX_PRIORITY, ApiKey
from repro.trace.tracer import event

__all__ = ["LoadShedder", "SheddingPolicy", "ShedError"]


class ShedError(Exception):
    """A submission refused by the shedder (HTTP 503 + Retry-After)."""

    status = 503

    def __init__(self, message: str, retry_after: float,
                 key_name: str = "anonymous") -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.key_name = key_name


@dataclass(frozen=True)
class SheddingPolicy:
    """The admission curve.

    Below ``threshold`` saturation everyone is admitted.  Between
    ``threshold`` and ``full`` the minimum admitted priority rises
    linearly from 0 to :data:`MAX_PRIORITY`; at or above ``full`` only
    ``MAX_PRIORITY`` keys get through.  Anonymous traffic (no auth
    configured) is treated as ``anonymous_priority``.
    """

    threshold: float = 0.75
    full: float = 0.95
    anonymous_priority: int = 5
    retry_after_floor: float = 0.5
    retry_after_ceiling: float = 15.0

    def cutoff(self, saturation: float) -> int:
        """Minimum priority admitted at ``saturation`` (0 = admit all)."""
        if saturation < self.threshold:
            return 0
        if saturation >= self.full:
            return MAX_PRIORITY
        span = max(self.full - self.threshold, 1e-9)
        fraction = (saturation - self.threshold) / span
        return min(MAX_PRIORITY, int(fraction * MAX_PRIORITY) + 1)

    def retry_after(self, saturation: float) -> float:
        """Backoff hint: deeper saturation asks clients to wait longer."""
        scale = min(max(saturation, 0.0), 1.0)
        return min(self.retry_after_ceiling,
                   self.retry_after_floor
                   + scale * (self.retry_after_ceiling
                              - self.retry_after_floor))


class LoadShedder:
    """Admission gate in front of job submission."""

    def __init__(self, saturation_fn,
                 policy: Optional[SheddingPolicy] = None) -> None:
        self._saturation_fn = saturation_fn
        self.policy = policy or SheddingPolicy()

    def admit(self, key: Optional[ApiKey]) -> None:
        """Admit or shed one submission for ``key`` (``None`` = anonymous).

        Raises :class:`ShedError` when the key's priority falls below
        the current cutoff.
        """
        saturation = self._saturation_fn()
        cutoff = self.policy.cutoff(saturation)
        if cutoff <= 0:
            return
        priority = (key.priority if key is not None
                    else self.policy.anonymous_priority)
        if priority >= cutoff:
            return
        name = key.name if key is not None else "anonymous"
        event("admission.shed", "server", key=name)
        raise ShedError(
            f"service is saturated ({saturation:.0%}); shedding priority "
            f"< {cutoff} (key '{name}' has priority {priority})",
            retry_after=self.policy.retry_after(saturation),
            key_name=name,
        )

    def snapshot(self) -> dict:
        """Current saturation and cutoff (for /metrics)."""
        saturation = self._saturation_fn()
        return {
            "saturation": saturation,
            "priority_cutoff": self.policy.cutoff(saturation),
            "threshold": self.policy.threshold,
            "full": self.policy.full,
        }
