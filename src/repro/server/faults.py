"""Deterministic fault injection for the plan-server stack (``--chaos``).

The resilience layer is only trustworthy if its failure paths actually run,
so this module makes every failure the server is built to survive
*injectable on demand*: ``repro serve --chaos <spec>`` arms a
:class:`FaultInjector` that the scheduler, the result store, and the HTTP front end consult at their
natural failure points. The chaos tests and the CI smoke drive real
recovery code — lane replacement, request re-dispatch, client backoff —
instead of mocking it.

A spec is a comma-separated list of ``name[:arg[:arg]]`` rules:

==========================  =====================================================
``worker-crash[:N]``        kill the evaluating worker the first ``N`` times
                            (default once; ``once`` is an alias for ``1``).
                            In a process-pool worker this is a hard
                            ``os._exit`` — the parent sees a real
                            ``BrokenProcessPool``; in-process it raises
                            :class:`InjectedWorkerCrash`.
``poison:SUBSTR``           crash the worker *every* time it evaluates a
                            scenario whose canonical JSON contains
                            ``SUBSTR`` — the poison scenario that must
                            end in a terminal error of its own while
                            every other request still succeeds.
``slow-eval:SECONDS[:N]``   sleep before each of the first ``N``
                            evaluations (default: every one) — drives
                            deadline expiry.
``store-write-fail[:N]``    the next ``N`` result-store writes raise
                            :class:`InjectedStoreWriteError` (default 1).
``flaky-http[:N]``          drop the next ``N`` HTTP connections without a
                            response (default 1) — drives client retries.
==========================  =====================================================

Counted rules are claimed through atomically-created token files in a
state directory, so the count holds globally across every worker process
— including the worker of a lane the scheduler *replaces* after a crash
(which re-arms from the same spec but finds the tokens already taken).
Unlimited rules (``poison``, uncounted ``slow-eval``) need no tokens.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.scenario import Scenario

#: Registered fault names -> (site, one-line description).
FAULTS: Dict[str, Tuple[str, str]] = {
    "worker-crash": ("worker", "kill the evaluating worker (default once)"),
    "poison": ("worker", "crash the worker on scenarios matching a substring"),
    "slow-eval": ("worker", "sleep before evaluations (drives deadlines)"),
    "store-write-fail": ("store", "fail result-store writes (default once)"),
    "flaky-http": ("http", "drop HTTP connections without a response"),
}

#: Set by the pool-worker initializer: a crash there is a hard exit (the
#: parent must see a genuine BrokenProcessPool), in-process it is an
#: exception the scheduler classifies as retryable.
_IN_POOL_WORKER = False


def mark_pool_worker() -> None:
    """Record that this process is a pool worker (crashes become exits)."""
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


class FaultSpecError(ValueError):
    """A malformed ``--chaos`` spec string."""


class InjectedWorkerCrash(RuntimeError):
    """An in-process stand-in for a worker process dying mid-evaluation."""

    #: Pre-classification consumed by ``resilience.classify_exception``.
    retryable = True


class InjectedStoreWriteError(OSError):
    """An injected result-store write failure."""

    retryable = True


@dataclass(frozen=True)
class FaultRule:
    """One parsed rule of a chaos spec."""

    name: str
    site: str
    count: Optional[int] = None   # firings allowed; None = unlimited
    seconds: float = 0.0          # slow-eval delay
    match: str = ""               # poison substring


def _parse_count(name: str, text: str) -> int:
    if text == "once":
        return 1
    try:
        count = int(text)
    except ValueError:
        raise FaultSpecError(
            f"chaos rule {name!r}: count must be an integer or 'once', "
            f"got {text!r}") from None
    if count < 1:
        raise FaultSpecError(f"chaos rule {name!r}: count must be >= 1")
    return count


def parse_spec(spec: str) -> List[FaultRule]:
    """Parse a ``--chaos`` spec string into rules.

    Raises:
        FaultSpecError: on unknown names or malformed arguments.
    """
    rules: List[FaultRule] = []
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(":")
        name, args = pieces[0], pieces[1:]
        if name not in FAULTS:
            known = ", ".join(sorted(FAULTS))
            raise FaultSpecError(
                f"unknown chaos fault {name!r}; known faults: {known}")
        site = FAULTS[name][0]
        if name in ("worker-crash", "store-write-fail", "flaky-http"):
            if len(args) > 1:
                raise FaultSpecError(
                    f"chaos rule {name!r} takes at most one count argument")
            count = _parse_count(name, args[0]) if args else 1
            rules.append(FaultRule(name=name, site=site, count=count))
        elif name == "poison":
            if len(args) != 1 or not args[0]:
                raise FaultSpecError(
                    "chaos rule 'poison' needs a substring argument, e.g. "
                    "poison:llama2-7b")
            rules.append(FaultRule(name=name, site=site, match=args[0]))
        elif name == "slow-eval":
            if not args or len(args) > 2:
                raise FaultSpecError(
                    "chaos rule 'slow-eval' needs SECONDS and an optional "
                    "count, e.g. slow-eval:0.25 or slow-eval:0.25:2")
            try:
                seconds = float(args[0])
            except ValueError:
                raise FaultSpecError(
                    f"chaos rule 'slow-eval': seconds must be a number, "
                    f"got {args[0]!r}") from None
            if seconds < 0:
                raise FaultSpecError(
                    "chaos rule 'slow-eval': seconds must be >= 0")
            count = _parse_count(name, args[1]) if len(args) == 2 else None
            rules.append(FaultRule(name=name, site=site, count=count,
                                   seconds=seconds))
    if not rules:
        raise FaultSpecError(f"empty chaos spec {spec!r}")
    return rules


class FaultInjector:
    """An armed chaos spec, consulted by the serving layers at fault sites.

    The injector is reconstructed inside every pool worker from
    ``(spec, state_dir)`` (both picklable), so counted rules share one
    global budget through token files in ``state_dir`` no matter which
    process claims them.
    """

    def __init__(self, spec: str,
                 state_dir: Optional[str] = None) -> None:
        self.rules = parse_spec(spec)
        self.spec = spec
        needs_tokens = any(rule.count is not None for rule in self.rules)
        if state_dir is None and needs_tokens:
            state_dir = tempfile.mkdtemp(prefix="repro-chaos-")
        self.state_dir = os.fspath(state_dir) if state_dir else None
        if self.state_dir:
            os.makedirs(self.state_dir, exist_ok=True)
        self.fired: Dict[str, int] = {}

    @classmethod
    def from_spec(cls, spec: Optional[str],
                  state_dir: Optional[str] = None) -> Optional["FaultInjector"]:
        """An injector for ``spec``, or ``None`` for an empty/absent one."""
        if spec is None or not spec.strip():
            return None
        return cls(spec, state_dir=state_dir)

    # Claiming ---------------------------------------------------------------------

    def _claim(self, rule: FaultRule) -> bool:
        """Try to claim one firing of ``rule`` (globally for counted rules)."""
        if rule.count is None:
            self.fired[rule.name] = self.fired.get(rule.name, 0) + 1
            return True
        for slot in range(rule.count):
            token = os.path.join(self.state_dir,
                                 f"{rule.name}.{slot}.token")
            try:
                os.close(os.open(token, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
            except FileExistsError:
                continue
            self.fired[rule.name] = self.fired.get(rule.name, 0) + 1
            return True
        return False

    def _crash(self, reason: str) -> None:
        if _IN_POOL_WORKER:
            # A hard exit, not an exception: the parent must observe a
            # genuine BrokenProcessPool, exactly like a segfaulted worker.
            os._exit(17)
        raise InjectedWorkerCrash(f"chaos: {reason}")

    # Fault sites ------------------------------------------------------------------

    def on_worker_evaluate(self, scenario: Scenario) -> None:
        """Worker-side hook, called once per scenario before evaluating it.

        A ``poison`` rule matches its substring against the scenario's JSON
        document, which is only built when such a rule is armed.
        """
        doc_json = None
        for rule in self.rules:
            if rule.name == "slow-eval" and self._claim(rule):
                time.sleep(rule.seconds)
            elif rule.name == "worker-crash" and self._claim(rule):
                self._crash("injected worker crash")
            elif rule.name == "poison":
                if doc_json is None:
                    doc_json = scenario.to_json()
                if rule.match in doc_json:
                    self.fired[rule.name] = self.fired.get(rule.name, 0) + 1
                    self._crash(f"poison scenario matching {rule.match!r}")

    def on_store_write(self) -> None:
        """Store-side hook, called before each result-store write.

        Raises:
            InjectedStoreWriteError: when a ``store-write-fail`` firing is
                claimed.
        """
        for rule in self.rules:
            if rule.name == "store-write-fail" and self._claim(rule):
                raise InjectedStoreWriteError(
                    "chaos: injected store write failure")

    def on_http_request(self) -> bool:
        """HTTP-side hook; ``True`` means drop this connection unanswered."""
        return any(rule.name == "flaky-http" and self._claim(rule)
                   for rule in self.rules)

    # Telemetry --------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Plain-JSON snapshot for ``GET /metrics``.

        ``fired`` counts are per-process (pool workers fire in their own
        processes), so the parent's numbers cover parent-side sites plus
        in-process workers; token files hold the cross-process truth.
        """
        return {
            "spec": self.spec,
            "rules": [rule.name for rule in self.rules],
            "fired": dict(self.fired),
        }
