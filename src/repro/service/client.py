"""A small stdlib client for the sweep service (``repro query --url``).

Sends every request through :func:`repro.service.http.request_json` so
callers — the CLI, tests, the CI smoke script — speak the service's
JSON protocol through typed :mod:`repro.api` objects instead of
hand-rolled dicts.  An unreachable service (refused, reset or timed-out
connection) raises :class:`~repro.errors.ServiceError` naming the URL.
Backpressure surfaces as typed errors carrying the server's
``Retry-After``:
:class:`~repro.errors.QuotaExceededError` for ``429`` (per-tenant
quota or a full job table) and :class:`~repro.errors.CircuitOpenError`
for ``503`` + ``Retry-After`` (the breaker shedding load), so a polite
caller can sleep and resubmit; :meth:`ServiceClient.optimize` does
exactly that when asked.  A ``504`` raises
:class:`~repro.errors.DeadlineExceededError`.

Polling is deterministic: :meth:`ServiceClient.wait` grows its poll
interval through :class:`~repro.resilience.RetryPolicy`'s hash-derived
jitter (seeded, keyed by job id), so two runs of the same workload poll
on identical schedules — no ``random`` anywhere, per the repo's
determinism conventions.
"""

from __future__ import annotations

import time
from http.client import HTTPException
from typing import Any
from urllib.parse import urlsplit

from repro.api.types import JobStatus, OptimizationRequest, OptimizationResult
from repro.errors import (
    ApiError,
    CircuitOpenError,
    DeadlineExceededError,
    QuotaExceededError,
    ServiceError,
)
from repro.obs.trace import new_trace_id
from repro.resilience.policy import RetryPolicy
from repro.service.http import IDEMPOTENCY_HEADER, TRACE_HEADER, request_json

#: Default policy shaping :meth:`ServiceClient.wait` poll intervals:
#: 50ms growing 1.5x per poll, capped at 1s, with deterministic jitter.
_POLL_POLICY = RetryPolicy(
    max_attempts=3, base_delay_s=0.05, backoff=1.5, max_delay_s=1.0
)


class ServiceClient:
    """Typed HTTP client for one sweep-service endpoint.

    Every request carries an ``X-Repro-Trace`` header: ``trace_id``
    pins one id for the client's lifetime (so a whole workflow shares a
    trace); by default each request draws a fresh id.  The server
    echoes the id it honoured on the response and on
    :attr:`~repro.api.JobStatus.trace_id`;
    :attr:`last_trace_id` keeps the most recent one for log
    correlation.
    """

    def __init__(
        self,
        url: str,
        timeout_s: float = 120.0,
        trace_id: str | None = None,
        poll_policy: RetryPolicy | None = None,
    ) -> None:
        split = urlsplit(url)
        if split.scheme != "http" or not split.hostname:
            raise ServiceError(
                f"service URL must look like http://host:port, got {url!r}"
            )
        self.url = url
        self.timeout_s = timeout_s
        self.trace_id = trace_id
        self.poll_policy = (
            poll_policy if poll_policy is not None else _POLL_POLICY
        )
        #: Trace id the server echoed on the most recent response.
        self.last_trace_id: str | None = None

    # -- raw request ------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: dict | None = None,
        extra_headers: dict | None = None,
    ) -> tuple[int, dict, Any]:
        trace_id = self.trace_id if self.trace_id is not None else new_trace_id()
        headers = {TRACE_HEADER: trace_id, **(extra_headers or {})}
        try:
            status, response_headers, document = request_json(
                self.url, method, path, body,
                headers=headers, timeout_s=self.timeout_s,
            )
        except (OSError, HTTPException) as exc:
            raise ServiceError(
                f"no answer from the service at {self.url}: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        echoed = response_headers.get(TRACE_HEADER)
        if echoed:
            self.last_trace_id = echoed
        return status, response_headers, document

    def _raise_for(self, status: int, headers: dict, document: dict) -> None:
        error = document.get("error", f"HTTP {status}")
        retry_after = float(
            document.get("retry_after_s", headers.get("Retry-After", 1))
        )
        if status == 429:
            raise QuotaExceededError(error, retry_after_s=retry_after)
        if status == 400:
            raise ApiError(error)
        if status == 503 and (
            "retry_after_s" in document or "Retry-After" in headers
        ):
            # The breaker shedding load, as opposed to a plain shutdown
            # 503 (which carries no Retry-After and is not retryable).
            raise CircuitOpenError(error, retry_after_s=retry_after)
        if status == 504:
            raise DeadlineExceededError(error)
        raise ServiceError(f"HTTP {status}: {error}")

    # -- typed endpoints --------------------------------------------------

    def healthz(self) -> bool:
        status, _, document = self._request("GET", "/healthz")
        return status == 200 and bool(document.get("ok"))

    def metrics_text(self) -> str:
        status, _, text = self._request("GET", "/metrics")
        if status != 200:
            raise ServiceError(f"HTTP {status} from /metrics")
        return text

    def submit(
        self,
        request: OptimizationRequest,
        wait: bool = True,
        idempotency_key: str | None = None,
    ) -> JobStatus:
        """Submit one request; raises on 4xx/5xx instead of returning.

        ``idempotency_key`` travels as the ``Idempotency-Key`` header:
        resubmitting with the same key (e.g. retrying after a crash or
        a lost response) returns the original job instead of admitting
        a duplicate.  A ``504`` — the job's end-to-end ``deadline_s``
        budget passed — raises
        :class:`~repro.errors.DeadlineExceededError`.
        """
        path = "/v1/optimize" + ("?wait=1" if wait else "")
        extra = (
            {IDEMPOTENCY_HEADER: idempotency_key}
            if idempotency_key is not None
            else None
        )
        status, headers, document = self._request(
            "POST", path, request.to_dict(), extra_headers=extra
        )
        if status not in (200, 202):
            self._raise_for(status, headers, document)
        return JobStatus.from_dict(document)

    def job(self, job_id: str) -> JobStatus:
        status, headers, document = self._request("GET", f"/v1/jobs/{job_id}")
        if status != 200:
            self._raise_for(status, headers, document)
        return JobStatus.from_dict(document)

    def wait(self, job_id: str, timeout_s: float | None = None) -> JobStatus:
        """Poll one job until it reaches a terminal state.

        The poll interval grows deterministically — the policy's
        exponential schedule plus hash-derived jitter keyed by the job
        id — so repeated runs poll on identical schedules and a
        thundering herd of waiters (distinct job ids) naturally
        de-synchronises without any randomness.
        """
        budget = timeout_s if timeout_s is not None else self.timeout_s
        deadline = time.monotonic() + budget
        poll = 0
        while True:
            status = self.job(job_id)
            if status.state.is_terminal():
                return status
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"job {job_id} still {status.state.value} after "
                    f"{budget:g}s"
                )
            poll += 1
            time.sleep(self.poll_policy.delay_s(poll, token=job_id))

    def optimize(
        self,
        request: OptimizationRequest,
        *,
        max_retries: int = 32,
        idempotency_key: str | None = None,
    ) -> OptimizationResult:
        """Submit and block until the result, honouring backpressure.

        Retries ``429`` (quota/overload) and breaker ``503`` after the
        advertised ``Retry-After`` (up to ``max_retries`` times), then
        polls a still-running job with :meth:`wait`'s deterministic
        backoff until it reaches a terminal state.
        """
        for attempt in range(max_retries + 1):
            try:
                status = self.submit(
                    request, wait=True, idempotency_key=idempotency_key
                )
                break
            except (QuotaExceededError, CircuitOpenError) as exc:
                if attempt == max_retries:
                    raise
                time.sleep(exc.retry_after_s)
        if not status.state.is_terminal():
            status = self.wait(status.job_id)
        if status.result is None:
            error = status.error or "unknown error"
            if error.startswith("deadline exceeded"):
                raise DeadlineExceededError(
                    f"job {status.job_id}: {error}"
                )
            raise ServiceError(f"job {status.job_id} failed: {error}")
        return status.result
