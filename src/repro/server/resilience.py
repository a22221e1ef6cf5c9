"""Failure taxonomy and retry/backoff policy of the plan-server stack.

Every failure the serving layers can produce is classified into exactly one
of two families:

* **terminal** — deterministic request failures: the same request will fail
  the same way forever (malformed document, no feasible configuration, a
  wrong-typed field, a poison scenario that crashes its worker every time).
  Clients must not retry; the error payload carries ``"retryable": false``.
* **retryable** — transient infrastructure failures: a crashed pool worker,
  a saturated admission queue (503 + ``Retry-After``), a dropped
  connection, a store write hiccup. Requests are idempotent by
  :meth:`Scenario.cache_key <repro.api.scenario.Scenario.cache_key>`, so a
  retry is always safe; payloads carry ``"retryable": true``.

The scheduler uses :func:`classify_exception` to decide whether to
re-dispatch a request whose worker failed (and when to give a poison
scenario its terminal error); :class:`~repro.server.client.PlanClient`
backs off and retries dropped connections and 503s.

:class:`RetryPolicy` is the one backoff object they and the portfolio
sweep share: exponential delays with full decorrelated jitter, capped, and
deterministic under an injected ``rng`` (the chaos tests pin the jitter
bounds).
"""

from __future__ import annotations

import random
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Dict, Optional

#: Exception types that mark transient infrastructure failures. Note that
#: ``TimeoutError``/``ConnectionError`` are ``OSError`` subclasses — the
#: tuple spells them out for documentation value.
RETRYABLE_EXCEPTIONS = (
    BrokenExecutor,      # the worker pool died under the request
    ConnectionError,
    TimeoutError,
    OSError,
)

#: Exception types that are always terminal even though they may look
#: transport-ish: request-driven validation and evaluation failures.
TERMINAL_EXCEPTIONS = (ValueError, TypeError, KeyError)


@dataclass(frozen=True)
class Failure:
    """One classified failure: its payload ``kind`` and retry semantics."""

    kind: str
    retryable: bool
    status: int


def classify_exception(error: BaseException) -> Failure:
    """Map a raised exception onto the failure taxonomy.

    An exception may pre-classify itself with a boolean ``retryable``
    attribute (the injected chaos faults do); otherwise terminal
    request-driven types (``ValueError``/``TypeError``/``KeyError``) are
    checked before the broad ``OSError`` family, so e.g. a
    ``ScenarioError`` is terminal even though errno-flavoured subclasses
    exist in both trees.
    """
    marked = getattr(error, "retryable", None)
    if isinstance(marked, bool):
        retryable = marked
    elif isinstance(error, TERMINAL_EXCEPTIONS):
        retryable = False
    else:
        retryable = isinstance(error, RETRYABLE_EXCEPTIONS)
    if retryable:
        kind = ("worker_crashed" if isinstance(error, BrokenExecutor)
                else type(error).__name__)
        return Failure(kind=kind, retryable=True, status=500)
    return Failure(kind=type(error).__name__, retryable=False, status=422)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter.

    ``max_attempts`` counts *total* tries (1 means no retries). Delay for
    the ``n``-th failed attempt (1-based) is ``base_delay *
    multiplier**(n-1)`` capped at ``max_delay``, then spread uniformly over
    ``[raw * (1 - jitter), raw * (1 + jitter)]`` — jittered so a thundering
    herd of shed clients does not re-arrive in lockstep.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            raise ValueError(
                f"base_delay must be >= 0, got {self.base_delay}")
        if self.multiplier < 1:
            raise ValueError(
                f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_delay < self.base_delay:
            raise ValueError("max_delay must be >= base_delay")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, rng: Optional[random.Random] = None) -> float:
        """Backoff before retrying after the ``attempt``-th failure (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        raw = min(self.base_delay * self.multiplier ** (attempt - 1),
                  self.max_delay)
        if self.jitter == 0 or raw == 0:
            return raw
        draw = (rng.random() if rng is not None else random.random())
        return raw * (1 - self.jitter + 2 * self.jitter * draw)

    def to_dict(self) -> Dict[str, object]:
        """Plain-JSON snapshot (folded into ``GET /metrics``)."""
        return {
            "max_attempts": self.max_attempts,
            "base_delay": self.base_delay,
            "multiplier": self.multiplier,
            "max_delay": self.max_delay,
            "jitter": self.jitter,
        }
