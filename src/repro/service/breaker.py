"""Circuit breaker around the broker's engine ``map`` call.

When the engine fails batches back to back — a broken pool it cannot
respawn, a poisoned cache volume, a dependency wedged hard enough that
every evaluation times out — continuing to admit work just queues jobs
into a furnace.  The classic three-state breaker sheds that load:

``closed``
    Healthy.  Every submission is admitted; consecutive batch failures
    are counted, and reaching ``failure_threshold`` trips the breaker.
``open``
    Shedding.  :meth:`CircuitBreaker.admit` raises
    :class:`~repro.errors.CircuitOpenError` carrying the remaining
    cooldown, which the HTTP layer maps to ``503`` + ``Retry-After``.
    Warm-store hits are still served — the breaker guards the engine,
    not the cache.  After ``reset_timeout_s`` the next admission flows
    through as a probe.
``half_open``
    Probing.  Submissions are admitted; the first batch outcome
    decides: success closes the breaker, failure re-opens it and
    restarts the cooldown.

The clock is injectable (monotonic by default) so tests drive the
cooldown deterministically.  The broker's breaker exports its state as
the ``repro_service_breaker_state`` gauge (0 closed, 1 open, 2
half-open); every transition bumps
``repro_service_breaker_transitions_total`` and emits a
``service.breaker_transition`` event.  The dispatch plane's per-worker
breakers are built with ``exported=False``: they would overwrite that
gauge, and ``GET /v1/workers`` already shows each worker's state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import CircuitOpenError, ServiceError
from repro.obs import trace as obs
from repro.obs.metrics import metrics

#: Gauge encoding of the breaker states.
STATE_CLOSED, STATE_OPEN, STATE_HALF_OPEN = "closed", "open", "half_open"
_STATE_GAUGE: dict[str, float] = {
    STATE_CLOSED: 0.0,
    STATE_OPEN: 1.0,
    STATE_HALF_OPEN: 2.0,
}


@dataclass(frozen=True)
class BreakerPolicy:
    """When the breaker trips and how long it sheds."""

    #: Consecutive failed engine batches before the breaker opens.
    failure_threshold: int = 3
    #: Seconds the breaker stays open before admitting a probe.
    reset_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ServiceError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.reset_timeout_s <= 0:
            raise ServiceError(
                f"reset_timeout_s must be > 0, got {self.reset_timeout_s}"
            )


class CircuitBreaker:
    """Closed/open/half-open breaker with an injectable clock."""

    def __init__(
        self,
        policy: BreakerPolicy | None = None,
        clock: Callable[[], float] = time.monotonic,
        *,
        exported: bool = True,
    ) -> None:
        self.policy = policy if policy is not None else BreakerPolicy()
        self.clock = clock
        self.exported = exported
        self._state = STATE_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        if exported:
            self._export_state()

    @property
    def state(self) -> str:
        """Current state name (``closed`` / ``open`` / ``half_open``)."""
        return self._state

    # -- admission ---------------------------------------------------------

    def admit(self) -> None:
        """Gate one submission; raises while open and not yet cooled.

        An open breaker whose cooldown has elapsed transitions to
        half-open and admits the call as the probe.
        """
        if self._state != STATE_OPEN:
            return
        remaining = self.policy.reset_timeout_s - (self.clock() - self._opened_at)
        if remaining > 0:
            raise CircuitOpenError(
                "circuit breaker open: "
                f"{self._consecutive_failures} consecutive engine batch "
                f"failure(s); probing again in {remaining:.3f}s",
                retry_after_s=remaining,
            )
        self._transition(STATE_HALF_OPEN)

    # -- batch outcomes ----------------------------------------------------

    def record_success(self) -> None:
        """One engine batch completed; closes a half-open breaker."""
        self._consecutive_failures = 0
        if self._state != STATE_CLOSED:
            self._transition(STATE_CLOSED)

    def record_failure(self) -> None:
        """One engine batch failed; may trip or re-open the breaker."""
        self._consecutive_failures += 1
        if self._state == STATE_HALF_OPEN:
            self._trip()  # the probe failed: back to shedding
        elif (
            self._state == STATE_CLOSED
            and self._consecutive_failures >= self.policy.failure_threshold
        ):
            self._trip()

    def _trip(self) -> None:
        self._opened_at = self.clock()
        self._transition(STATE_OPEN)

    # -- bookkeeping -------------------------------------------------------

    def _transition(self, to_state: str) -> None:
        from_state, self._state = self._state, to_state
        if not self.exported:
            return
        self._export_state()
        metrics().counter(
            "repro_service_breaker_transitions_total",
            "circuit-breaker state transitions",
        ).inc(**{"from": from_state, "to": to_state})
        obs.event(
            "service.breaker_transition",
            from_state=from_state,
            to_state=to_state,
            consecutive_failures=self._consecutive_failures,
        )

    def _export_state(self) -> None:
        metrics().gauge(
            "repro_service_breaker_state",
            "circuit-breaker state (0 closed, 1 open, 2 half-open)",
        ).set(_STATE_GAUGE[self._state])
