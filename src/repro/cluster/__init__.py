"""repro.cluster — admission control for the serving layer.

Two orthogonal pieces the HTTP gateway and the shard router compose:

* :mod:`repro.cluster.auth` — API keys with token-bucket rate limits,
  daily quotas and expiry (:class:`Authenticator`, :class:`ApiKey`).
* :mod:`repro.cluster.shedding` — priority-aware admission control
  tied to scheduler saturation (:class:`LoadShedder`).

Sharded servers share one ``dir:`` result store; see
:func:`repro.service.resolve_store_backend`.
"""

from repro.cluster.auth import (
    ApiKey,
    AuthError,
    Authenticator,
    ExpiredKeyError,
    InvalidKeyError,
    MissingKeyError,
    QuotaExceededError,
    RateLimitedError,
    TokenBucket,
    credential_from_headers,
)
from repro.cluster.shedding import LoadShedder, ShedError, SheddingPolicy

__all__ = [
    "ApiKey",
    "AuthError",
    "Authenticator",
    "ExpiredKeyError",
    "InvalidKeyError",
    "LoadShedder",
    "MissingKeyError",
    "QuotaExceededError",
    "RateLimitedError",
    "ShedError",
    "SheddingPolicy",
    "TokenBucket",
    "credential_from_headers",
]
