"""Retries with backoff, and circuit breakers, on the simulation clock.

The transfer protocol ships agents over an open, unreliable internet
(section 2): requests and replies get lost, links flap, peers crash.  The
recovery idiom everywhere in the codebase is the same — retry with
exponential backoff and seeded jitter, give up after a bounded number of
attempts or an overall deadline, and stop hammering a destination that
keeps failing.  This module packages that idiom once:

* :class:`RetryPolicy` — the immutable knobs (attempts, backoff curve,
  jitter, deadlines).  Jitter draws from a caller-supplied seeded RNG
  stream (:mod:`repro.util.rng`), so runs stay bit-reproducible.
* :func:`call_with_retries` — drives a callable under a policy from a
  simulated thread; sleeps between attempts burn *virtual* time on the
  kernel clock, never wall time.
* :class:`CircuitBreaker` — per-destination failure accounting
  (closed → open → half-open) so a dead host fails fast instead of
  burning a full retry schedule per caller.

Retries are only safe when the remote operation is idempotent; the agent
transfer path makes itself idempotent with transfer-id deduplication
(:mod:`repro.server.journal`) before using this machinery.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.errors import (
    CircuitOpenError,
    NetworkError,
    ReproError,
    RetryExhaustedError,
    SimulationError,
)
from repro.obs import runtime as _obs
from repro.sim.kernel import Kernel

__all__ = ["RetryPolicy", "CircuitBreaker", "call_with_retries"]


@dataclass(frozen=True, slots=True)
class RetryPolicy:
    """How often, and how patiently, to retry a failing operation.

    ``attempts`` counts *total* tries (1 = no retries).  The delay before
    retry *k* (k >= 1) is ``base_delay * multiplier**(k-1)`` capped at
    ``max_delay``, then spread by ``jitter`` (a ±fraction drawn from the
    caller's RNG).  ``overall_deadline`` bounds the whole schedule in
    virtual seconds from the first attempt.
    """

    attempts: int = 4
    base_delay: float = 0.5
    multiplier: float = 2.0
    max_delay: float = 15.0
    jitter: float = 0.25
    overall_deadline: float | None = None

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError("a retry policy needs at least one attempt")
        if self.base_delay < 0 or self.max_delay < 0 or self.multiplier < 1.0:
            raise ValueError("invalid backoff parameters")
        if not (0.0 <= self.jitter <= 1.0):
            raise ValueError("jitter must be a fraction in [0, 1]")

    def delay_before(self, attempt: int, rng: random.Random | None = None) -> float:
        """Backoff before attempt number ``attempt`` (1-based retries)."""
        if attempt < 1:
            return 0.0
        delay = min(self.base_delay * self.multiplier ** (attempt - 1),
                    self.max_delay)
        if rng is not None and self.jitter > 0.0:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


class CircuitBreaker:
    """Per-destination failure gate: closed → open → half-open.

    After ``failure_threshold`` consecutive recorded failures the breaker
    opens: :meth:`allow` answers False (callers should fail fast) until
    ``reset_timeout`` virtual seconds pass, at which point the breaker
    half-opens and lets probes through.  A success closes it again; a
    failure while half-open re-opens it immediately.

    A failure recorded with its ``cause`` counts once per failed attempt:
    the exception object recorded last, shared by every caller that
    joined one attempt, is not counted again, and neither is an error
    marked ``joined`` in its context (a joiner whose own wait ran out).
    """

    def __init__(
        self,
        clock,
        *,
        failure_threshold: int = 8,
        reset_timeout: float = 60.0,
    ) -> None:
        if failure_threshold < 1 or reset_timeout < 0:
            raise ValueError("invalid circuit-breaker parameters")
        self._clock = clock
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0
        self._last_cause: BaseException | None = None
        self.times_opened = 0

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half_open"`` (time-aware)."""
        if (
            self._state == "open"
            and self._clock.now() - self._opened_at >= self.reset_timeout
        ):
            self._state = "half_open"
        return self._state

    @property
    def consecutive_failures(self) -> int:
        return self._failures

    def allow(self) -> bool:
        """May a caller attempt the destination right now?"""
        return self.state != "open"

    def record_success(self) -> None:
        self._failures = 0
        self._state = "closed"
        self._last_cause = None

    def record_failure(self, cause: BaseException | None = None) -> None:
        if cause is not None:
            if cause is self._last_cause or (
                isinstance(cause, ReproError) and cause.context.get("joined")
            ):
                return
            self._last_cause = cause
        self._failures += 1
        state = self.state
        if state == "half_open" or (
            state == "closed" and self._failures >= self.failure_threshold
        ):
            self._state = "open"
            self._opened_at = self._clock.now()
            self.times_opened += 1


def call_with_retries(
    fn: Callable[[int], Any],
    *,
    kernel: Kernel,
    policy: RetryPolicy,
    rng: random.Random | None = None,
    retry_on: tuple[type[BaseException], ...] = (NetworkError,),
    breaker: CircuitBreaker | None = None,
    on_retry: Callable[[int, BaseException], None] | None = None,
    exhausted: type[RetryExhaustedError] = RetryExhaustedError,
    describe: str = "operation",
) -> Any:
    """Run ``fn(attempt_index)`` under ``policy``; return its result.

    Backoff sleeps require a simulated-thread context (they park the
    calling thread on the kernel clock).  ``on_retry(attempt, exc)``
    fires after a retryable failure, *before* the backoff sleep — the
    hook point for stats and audit records (a stale secure channel needs
    no hook: ``SecureHost.call``/``send`` forget it on the failure).
    Raises ``exhausted`` (default :class:`RetryExhaustedError`) wrapping
    the last error once every attempt failed, or
    :class:`CircuitOpenError` as soon as ``breaker`` refuses.
    """
    clock = kernel.clock
    deadline = (
        clock.now() + policy.overall_deadline
        if policy.overall_deadline is not None
        else None
    )
    last: BaseException | None = None
    attempts_made = 0
    for attempt in range(policy.attempts):
        if breaker is not None and not breaker.allow():
            if _obs.TRACING:
                # An event, not a span: the fast-fail does no work worth
                # timing, but the trace must show *why* nothing happened.
                _obs.TRACER.add_event(
                    "breaker_open",
                    describe=describe,
                    failures=breaker.consecutive_failures,
                )
            raise CircuitOpenError(
                f"circuit open for {describe} "
                f"(after {breaker.consecutive_failures} consecutive failures)"
            )
        if attempt:
            delay = policy.delay_before(attempt, rng)
            if deadline is not None:
                remaining = deadline - clock.now()
                if remaining <= 0:
                    break
                delay = min(delay, remaining)
            if delay > 0:
                thread = kernel.current_thread()
                if thread is None:
                    raise SimulationError(
                        "call_with_retries backoff requires a simulated thread"
                    )
                thread.sleep(delay)
        attempts_made += 1
        try:
            result = fn(attempt)
        except retry_on as exc:
            last = exc
            if breaker is not None:
                breaker.record_failure(exc)
            if _obs.TRACING:
                # Retransmissions are span *events* on the current span,
                # never fresh spans — a lossy transfer stays one hop in
                # the trace no matter how many resends it took.
                _obs.TRACER.add_event(
                    "retry",
                    describe=describe,
                    attempt=attempt + 1,
                    error=f"{type(exc).__name__}: {exc}",
                )
            if deadline is not None and clock.now() >= deadline:
                break
            if attempt + 1 < policy.attempts and on_retry is not None:
                on_retry(attempt + 1, exc)
            continue
        if breaker is not None:
            breaker.record_success()
        return result
    raise exhausted(
        f"{describe} failed after {attempts_made} attempt(s): {last}",
        attempts=attempts_made,
        last_error=last,
    ) from last
