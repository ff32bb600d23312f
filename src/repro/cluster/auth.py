"""API-key authentication, token-bucket rate limits and daily quotas.

Keys are static bearer secrets (the DocuSenseLM-style service-hardening
shape): each maps to a named principal with a priority class, a
steady-state request rate with burst headroom, and an optional daily
quota.  Configuration come from a JSON file, an inline JSON string, the
``REPRO_API_KEYS`` environment variable, or a plain dict::

    {"keys": [
        {"key": "sk-alpha", "name": "alpha", "priority": 8,
         "rate": 50, "burst": 100, "daily_quota": 100000},
        {"key": "sk-trial", "name": "trial", "priority": 1,
         "rate": 2, "burst": 4, "expires": "2026-12-31"}
    ]}

Enforcement is split so a request pays each limit exactly once in a
sharded deployment: the **edge** (router, or a standalone gateway)
charges token buckets and quotas; gateways behind a router run with
``enforce_limits=False`` and only re-check key validity.  Outcomes map
onto HTTP statuses via typed errors — 401 missing/unknown key, 403
expired key, 429 over-rate or over-quota with ``retry_after`` — and
every decision lands on the keyed ``repro_auth_requests_total`` metric.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.trace.tracer import event

__all__ = [
    "ApiKey",
    "AuthError",
    "Authenticator",
    "ExpiredKeyError",
    "InvalidKeyError",
    "MissingKeyError",
    "QuotaExceededError",
    "RateLimitedError",
    "TokenBucket",
]

#: Environment variable holding inline key JSON (or a file path).
KEYS_ENV = "REPRO_API_KEYS"

#: Highest priority class; higher survives load shedding longer.
MAX_PRIORITY = 9

_SECONDS_PER_DAY = 86400.0


class AuthError(Exception):
    """Base of every authentication/admission failure.

    ``status`` is the HTTP status the gateway maps this to;
    ``retry_after`` (seconds, or ``None``) feeds the ``Retry-After``
    header; ``outcome`` is the metric label.
    """

    status = 401
    outcome = "invalid"

    def __init__(self, message: str, retry_after: Optional[float] = None,
                 key_name: str = "anonymous") -> None:
        super().__init__(message)
        self.retry_after = retry_after
        self.key_name = key_name


class MissingKeyError(AuthError):
    """No credential on the request at all."""

    status = 401
    outcome = "missing"


class InvalidKeyError(AuthError):
    """A credential was presented but matches no configured key."""

    status = 401
    outcome = "invalid"


class ExpiredKeyError(AuthError):
    """The key exists but its expiry date has passed."""

    status = 403
    outcome = "expired"


class RateLimitedError(AuthError):
    """The key's token bucket is empty; retry after it refills."""

    status = 429
    outcome = "throttled"


class QuotaExceededError(AuthError):
    """The key's daily quota is exhausted until the UTC day rolls over."""

    status = 429
    outcome = "quota"


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, ``burst`` capacity.

    ``take()`` is thread-safe and never blocks — it either debits one
    token or reports how long until one is available.
    """

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0:
            raise ValueError("token bucket rate must be positive")
        self.rate = float(rate)
        self.burst = max(float(burst), 1.0)
        self._tokens = self.burst
        self._stamp = time.monotonic()
        self._lock = threading.Lock()

    def take(self, now: Optional[float] = None) -> Optional[float]:
        """Debit one token; ``None`` on success, else seconds to wait."""
        if now is None:
            now = time.monotonic()
        with self._lock:
            elapsed = max(0.0, now - self._stamp)
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._stamp = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return None
            return (1.0 - self._tokens) / self.rate


@dataclass
class ApiKey:
    """One configured principal and its admission parameters."""

    #: The bearer secret clients present.
    secret: str
    #: Human-readable principal name (the metric label — never the secret).
    name: str
    #: Shedding priority class, 0..9; *higher* keys are shed last.
    priority: int = 5
    #: Steady-state requests/second (token-bucket refill rate).
    rate: float = 10.0
    #: Burst capacity on top of the steady rate.
    burst: float = 20.0
    #: Requests per UTC day, or ``None`` for unmetered.
    daily_quota: Optional[int] = None
    #: Unix expiry timestamp, or ``None`` for a non-expiring key.
    expires_at: Optional[float] = None

    _bucket: TokenBucket = field(init=False, repr=False)
    _quota_day: int = field(init=False, default=-1, repr=False)
    _quota_used: int = field(init=False, default=0, repr=False)
    _quota_lock: threading.Lock = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.priority = max(0, min(MAX_PRIORITY, int(self.priority)))
        self._bucket = TokenBucket(self.rate, self.burst)
        self._quota_lock = threading.Lock()

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ApiKey":
        """Build a key from one config entry (see the module docstring).

        ``expires`` accepts a unix timestamp or an ISO ``YYYY-MM-DD``
        date (expiring at the *end* of that UTC day).
        """
        secret = str(payload.get("key") or payload.get("secret") or "")
        if not secret:
            raise ValueError("API key entry is missing its 'key' secret")
        expires_at: Optional[float] = None
        raw_expires = payload.get("expires")
        if raw_expires is not None:
            expires_at = _parse_expiry(raw_expires)
        quota = payload.get("daily_quota")
        rate = float(payload.get("rate", 10.0))
        return cls(
            secret=secret,
            name=str(payload.get("name") or f"key-{secret[-4:]}"),
            priority=int(payload.get("priority", 5)),
            rate=rate,
            burst=float(payload.get("burst", 2 * rate)),
            daily_quota=int(quota) if quota is not None else None,
            expires_at=expires_at,
        )

    def expired(self, now: Optional[float] = None) -> bool:
        if self.expires_at is None:
            return False
        return (now if now is not None else time.time()) >= self.expires_at

    def charge(self, now: Optional[float] = None) -> None:
        """Debit one request from the bucket and the daily quota.

        Raises :class:`RateLimitedError` or :class:`QuotaExceededError`;
        on success both limits were charged (quota first, so a throttled
        request does not burn quota).
        """
        wall = time.time()
        if self.daily_quota is not None:
            day = int(wall // _SECONDS_PER_DAY)
            with self._quota_lock:
                if day != self._quota_day:
                    self._quota_day = day
                    self._quota_used = 0
                if self._quota_used >= self.daily_quota:
                    until_midnight = (day + 1) * _SECONDS_PER_DAY - wall
                    raise QuotaExceededError(
                        f"daily quota of {self.daily_quota} requests "
                        f"exhausted for key '{self.name}'",
                        retry_after=max(1.0, until_midnight),
                        key_name=self.name,
                    )
                self._quota_used += 1
        wait = self._bucket.take(now)
        if wait is not None:
            if self.daily_quota is not None:
                with self._quota_lock:
                    self._quota_used -= 1
            raise RateLimitedError(
                f"rate limit of {self.rate:g} req/s exceeded for key "
                f"'{self.name}'",
                retry_after=max(wait, 0.05),
                key_name=self.name,
            )

    def quota_remaining(self) -> Optional[int]:
        if self.daily_quota is None:
            return None
        day = int(time.time() // _SECONDS_PER_DAY)
        with self._quota_lock:
            if day != self._quota_day:
                return self.daily_quota
            return max(0, self.daily_quota - self._quota_used)


def _parse_expiry(raw: object) -> float:
    """Unix timestamp for an ``expires`` config value."""
    if isinstance(raw, (int, float)):
        return float(raw)
    text = str(raw).strip()
    try:
        return float(text)
    except ValueError:
        pass
    import calendar

    try:
        parts = time.strptime(text, "%Y-%m-%d")
    except ValueError:
        raise ValueError(
            f"cannot parse key expiry {raw!r}: expected a unix timestamp "
            f"or YYYY-MM-DD"
        ) from None
    # End of that UTC day, so a key "expires 2026-12-31" works all day.
    return calendar.timegm(parts) + _SECONDS_PER_DAY


class Authenticator:
    """Validates request credentials against the configured key set.

    ``enforce_limits`` selects the edge role: ``True`` charges token
    buckets and quotas (router / standalone gateway), ``False`` only
    checks validity and expiry (gateways already behind a charging
    edge).  With an empty key set, :meth:`authenticate` admits everyone
    as the anonymous principal — auth is opt-in per deployment.
    """

    def __init__(self, keys: Optional[List[ApiKey]] = None,
                 enforce_limits: bool = True) -> None:
        self._keys: Dict[str, ApiKey] = {}
        for key in keys or []:
            self._keys[key.secret] = key
        self.enforce_limits = enforce_limits

    # -- construction ----------------------------------------------------
    @classmethod
    def from_spec(cls, spec, enforce_limits: bool = True) -> "Authenticator":
        """Build from a dict, a JSON string, a file path, or ``None``.

        ``None`` falls back to ``$REPRO_API_KEYS`` (itself inline JSON
        or a file path); when that is unset too, the authenticator is
        open (no keys configured).
        """
        if isinstance(spec, Authenticator):
            return spec
        if spec is None:
            spec = os.environ.get(KEYS_ENV) or None
            if spec is None:
                return cls(enforce_limits=enforce_limits)
        if isinstance(spec, dict):
            payload = spec
        else:
            text = str(spec).strip()
            if not text.startswith("{") and not text.startswith("["):
                with open(text, "r", encoding="utf-8") as handle:
                    text = handle.read()
            payload = json.loads(text)
        if isinstance(payload, list):
            entries = payload
        else:
            entries = payload.get("keys", [])
        keys = [ApiKey.from_dict(entry) for entry in entries]
        return cls(keys, enforce_limits=enforce_limits)

    @property
    def enabled(self) -> bool:
        """True when at least one key is configured (auth is enforced)."""
        return bool(self._keys)

    def key_config(self) -> Dict[str, object]:
        """The key set as config JSON (to hand shards their copy).

        Re-serializes secrets and parameters only — live bucket/quota
        state stays at this edge.
        """
        return {"keys": [
            {
                "key": key.secret,
                "name": key.name,
                "priority": key.priority,
                "rate": key.rate,
                "burst": key.burst,
                **({"daily_quota": key.daily_quota}
                   if key.daily_quota is not None else {}),
                **({"expires": key.expires_at}
                   if key.expires_at is not None else {}),
            }
            for key in self._keys.values()
        ]}

    # -- the decision ----------------------------------------------------
    def authenticate(self, credential: Optional[str]) -> Optional[ApiKey]:
        """Admit or reject one request presenting ``credential``.

        Returns the matched :class:`ApiKey` (or ``None`` when auth is
        not configured).  Raises an :class:`AuthError` subclass on
        rejection; every decision is one ``auth.decision`` event (which
        feeds ``repro_auth_requests_total``).
        """
        if not self._keys:
            return None
        try:
            key = self._admit(credential)
        except AuthError as error:
            event("auth.decision", "server", key=error.key_name,
                  outcome=error.outcome)
            raise
        event("auth.decision", "server", key=key.name, outcome="ok")
        return key

    def _admit(self, credential: Optional[str]) -> ApiKey:
        if not credential:
            raise MissingKeyError(
                "this endpoint requires an API key (Authorization: Bearer "
                "<key> or X-API-Key)")
        key = self._keys.get(credential)
        if key is None:
            raise InvalidKeyError("unknown API key")
        if key.expired():
            raise ExpiredKeyError(f"API key '{key.name}' has expired",
                                  key_name=key.name)
        if self.enforce_limits:
            key.charge()
        return key

    def lookup(self, credential: Optional[str]) -> Optional[ApiKey]:
        """The key for ``credential`` without charging or raising."""
        if not credential:
            return None
        return self._keys.get(credential)

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:
        role = "edge" if self.enforce_limits else "backend"
        return f"Authenticator(keys={len(self._keys)}, role={role})"


def credential_from_headers(headers) -> Optional[str]:
    """Extract the bearer secret from request headers.

    Accepts ``Authorization: Bearer <key>`` (case-insensitive scheme)
    and the plainer ``X-API-Key: <key>``.
    """
    raw = headers.get("Authorization")
    if raw:
        scheme, _, value = raw.strip().partition(" ")
        if scheme.lower() == "bearer" and value.strip():
            return value.strip()
    raw = headers.get("X-API-Key")
    if raw and raw.strip():
        return raw.strip()
    return None
