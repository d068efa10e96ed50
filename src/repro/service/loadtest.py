"""Load/SLO harness: drive a live sweep service, judge its latency.

``repro loadtest`` (and the CI smoke target behind it) points this
module at a running service — external via ``--url`` or a self-hosted
:class:`~repro.service.server.ServiceThread` — and replays a
deterministic multi-tenant traffic mix:

* **N tenants × M requests**, one thread per tenant so quota buckets
  and the broker's batching see genuine concurrency;
* a seeded **cold/warm mix** — warm requests repeat one shared cell
  (exercising the warm store and single-flight), cold requests carry a
  unique trace sizing so they reach the engine;
* every 429 is honoured (sleep ``Retry-After``, retry) and *counted*,
  so backpressure shows up in the report instead of crashing it.

The run is summarised as a :class:`LoadReport` — p50/p95/p99 latency,
error and throttle rates — judged against an :class:`SloPolicy`; the
verdict is the command's exit code.  A final cold *probe* request pins
a known trace id (:attr:`LoadReport.probe_trace_id`, printed in the
report); run the service under ``--trace`` and that id names one
stitched span tree covering HTTP request → queue wait → batch → engine
map → worker evaluation.

Determinism: the traffic mix derives from SHA-256 of
``(seed, tenant, index)`` — no global RNG state, same seed same mix.
"""

from __future__ import annotations

import hashlib
import math
import threading
import time
from dataclasses import dataclass, field

from repro.api.types import JobState, OptimizationRequest
from repro.errors import QuotaExceededError, ReproError, ServiceError
from repro.obs.trace import new_trace_id
from repro.service.client import ServiceClient

#: Workloads the generated traffic draws from (calibrated suite names).
TRAFFIC_WORKLOADS: tuple[str, ...] = (
    "compress", "li", "ijpeg", "perl", "vortex", "m88ksim",
)

#: The one cell every warm request repeats (hits the warm store).
_WARM_REQUEST = {"structure": "dcache", "workload": "compress",
                 "n_refs": 4096, "warmup_refs": 512}

#: Sizing base for cold requests; each gets a distinct ``n_refs`` so its
#: cell key is unique and must go through the engine.
_COLD_BASE_REFS = 4000
_COLD_WARMUP_REFS = 400


def _draw(seed: int, tenant: str, index: int, salt: str) -> float:
    """Deterministic uniform [0, 1) from SHA-256 — no RNG state."""
    text = f"{seed}:{tenant}:{index}:{salt}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


def percentile(latencies: list[float], q: float) -> float:
    """The q-quantile (0 < q <= 1) by the nearest-rank method."""
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


@dataclass(frozen=True)
class SloPolicy:
    """Latency and error-budget thresholds a load run is judged against.

    Defaults are deliberately loose — CI machines are slow and shared;
    the thresholds catch order-of-magnitude regressions.
    """

    p50_s: float = 2.0
    p95_s: float = 15.0
    p99_s: float = 30.0
    #: Fraction of requests allowed to end in a non-quota error.
    max_error_rate: float = 0.0
    #: Fraction of requests allowed to see at least one 429.
    max_throttle_rate: float = 0.9


@dataclass
class RequestOutcome:
    """One request's fate as seen by the load driver."""

    tenant: str
    index: int
    status: str  # "ok" | "throttled" | "error"
    latency_s: float
    cold: bool
    throttled: bool  # saw >= 1 quota rejection (even if it then succeeded)
    source: str | None = None  # computed | warm | merged (ok outcomes)
    trace_id: str | None = None
    error: str | None = None


@dataclass
class LoadReport:
    """Everything ``repro loadtest`` learned from one run."""

    url: str
    tenants: int
    requests_per_tenant: int
    seed: int
    warm_fraction: float
    outcomes: list[RequestOutcome]
    wall_s: float
    slo: SloPolicy
    #: Trace id of the post-storm cold probe (None if the probe failed).
    probe_trace_id: str | None = None
    violations: list[str] = field(default_factory=list)

    # -- derived numbers --------------------------------------------------

    @property
    def n_requests(self) -> int:
        return len(self.outcomes)

    @property
    def ok(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "ok")

    @property
    def errors(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "error")

    @property
    def throttled(self) -> int:
        return sum(1 for o in self.outcomes if o.throttled)

    @property
    def latencies(self) -> list[float]:
        return [o.latency_s for o in self.outcomes if o.status == "ok"]

    @property
    def p50_s(self) -> float:
        return percentile(self.latencies, 0.50)

    @property
    def p95_s(self) -> float:
        return percentile(self.latencies, 0.95)

    @property
    def p99_s(self) -> float:
        return percentile(self.latencies, 0.99)

    @property
    def error_rate(self) -> float:
        return self.errors / self.n_requests if self.n_requests else 0.0

    @property
    def throttle_rate(self) -> float:
        return self.throttled / self.n_requests if self.n_requests else 0.0

    @property
    def passed(self) -> bool:
        return not self.violations


def check_slo(report: LoadReport) -> list[str]:
    """Threshold violations of ``report`` against its policy (empty = pass)."""
    slo = report.slo
    violations: list[str] = []
    if not report.latencies:
        violations.append("no request succeeded; no latency sample at all")
    checks = (
        ("p50", report.p50_s, slo.p50_s),
        ("p95", report.p95_s, slo.p95_s),
        ("p99", report.p99_s, slo.p99_s),
    )
    for name, got, limit in checks:
        if report.latencies and got > limit:
            violations.append(f"{name} latency {got:.3f}s > SLO {limit:.3f}s")
    if report.error_rate > slo.max_error_rate:
        violations.append(
            f"error rate {report.error_rate:.1%} > "
            f"SLO {slo.max_error_rate:.1%}"
        )
    if report.throttle_rate > slo.max_throttle_rate:
        violations.append(
            f"throttle (429) rate {report.throttle_rate:.1%} > "
            f"SLO {slo.max_throttle_rate:.1%}"
        )
    return violations


def format_report(report: LoadReport) -> str:
    """Human-readable summary of one load run."""
    lines = [
        f"loadtest against {report.url}: "
        f"{report.tenants} tenant(s) x {report.requests_per_tenant} "
        f"request(s), seed {report.seed}, "
        f"warm fraction {report.warm_fraction:g}",
        f"  {report.ok}/{report.n_requests} ok, {report.errors} error(s), "
        f"{report.throttled} throttled at least once, "
        f"{report.wall_s:.2f}s wall",
        f"  latency p50 {report.p50_s:.3f}s  p95 {report.p95_s:.3f}s  "
        f"p99 {report.p99_s:.3f}s",
    ]
    if report.probe_trace_id:
        lines.append(f"  probe trace id: {report.probe_trace_id}")
    if report.passed:
        lines.append("  SLO: PASS")
    else:
        lines.append("  SLO: FAIL")
        lines.extend(f"    - {v}" for v in report.violations)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# traffic generation and the per-tenant driver
# ---------------------------------------------------------------------------


def _make_request(
    seed: int, tenant: str, tenant_index: int, index: int,
    requests_per_tenant: int, warm_fraction: float,
) -> tuple[OptimizationRequest, bool]:
    """The deterministic request (and coldness) for one (tenant, index)."""
    if _draw(seed, tenant, index, "mix") < warm_fraction:
        return (
            OptimizationRequest(tenant=tenant, **_WARM_REQUEST),
            False,
        )
    # A globally unique sizing makes the cell key unique -> engine work.
    serial = tenant_index * requests_per_tenant + index
    workload = TRAFFIC_WORKLOADS[
        int(_draw(seed, tenant, index, "workload") * len(TRAFFIC_WORKLOADS))
        % len(TRAFFIC_WORKLOADS)
    ]
    return (
        OptimizationRequest(
            structure="dcache",
            workload=workload,
            tenant=tenant,
            n_refs=_COLD_BASE_REFS + 8 * serial,
            warmup_refs=_COLD_WARMUP_REFS,
        ),
        True,
    )


def _run_one(
    client: ServiceClient,
    request: OptimizationRequest,
    *,
    poll_s: float = 0.05,
    max_attempts: int = 64,
    max_backoff_s: float = 0.5,
) -> tuple[str, bool, str | None, str | None, str | None]:
    """Drive one request to a terminal state, honouring backpressure.

    Returns ``(status, throttled, source, trace_id, error)``.
    """
    throttled = False
    for _ in range(max_attempts):
        try:
            status = client.submit(request, wait=True)
        except QuotaExceededError as exc:
            throttled = True
            time.sleep(min(exc.retry_after_s, max_backoff_s))
            continue
        except ReproError as exc:
            return "error", throttled, None, client.last_trace_id, str(exc)
        try:
            while not status.state.is_terminal():
                time.sleep(poll_s)
                status = client.job(status.job_id)
        except ReproError as exc:
            return "error", throttled, None, status.trace_id, str(exc)
        if status.state is JobState.DONE:
            return "ok", throttled, status.source, status.trace_id, None
        return "error", throttled, status.source, status.trace_id, status.error
    return "throttled", True, None, None, "gave up after repeated 429s"


def _tenant_worker(
    url: str, tenant: str, tenant_index: int, *,
    requests_per_tenant: int, seed: int, warm_fraction: float,
    timeout_s: float, out: list[RequestOutcome],
) -> None:
    client = ServiceClient(url, timeout_s=timeout_s)
    for index in range(requests_per_tenant):
        request, cold = _make_request(
            seed, tenant, tenant_index, index, requests_per_tenant,
            warm_fraction,
        )
        start = time.perf_counter()
        status, throttled, source, trace_id, error = _run_one(client, request)
        out.append(RequestOutcome(
            tenant=tenant,
            index=index,
            status=status,
            latency_s=time.perf_counter() - start,
            cold=cold,
            throttled=throttled,
            source=source,
            trace_id=trace_id,
            error=error,
        ))


def run_loadtest(
    url: str,
    *,
    tenants: int = 2,
    requests_per_tenant: int = 4,
    seed: int = 0,
    warm_fraction: float = 0.5,
    slo: SloPolicy | None = None,
    timeout_s: float = 120.0,
    probe: bool = True,
) -> LoadReport:
    """Drive the storm, then the trace probe; return the judged report.

    An unreachable service raises :class:`~repro.errors.ServiceError`
    before any traffic is sent.
    """
    slo = slo if slo is not None else SloPolicy()
    if not ServiceClient(url, timeout_s=timeout_s).healthz():
        raise ServiceError(f"service at {url} is not healthy")
    per_tenant: list[list[RequestOutcome]] = [[] for _ in range(tenants)]
    threads = [
        threading.Thread(
            target=_tenant_worker,
            args=(url, f"tenant-{t:02d}", t),
            kwargs=dict(
                requests_per_tenant=requests_per_tenant,
                seed=seed,
                warm_fraction=warm_fraction,
                timeout_s=timeout_s,
                out=per_tenant[t],
            ),
            name=f"loadtest-tenant-{t:02d}",
        )
        for t in range(tenants)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - start

    probe_trace_id: str | None = None
    if probe:
        # One quiet cold request with a pinned trace id: under a traced
        # server this yields the canonical stitched span tree for the
        # whole request path.
        probe_trace_id = new_trace_id()
        probe_client = ServiceClient(
            url, timeout_s=timeout_s, trace_id=probe_trace_id
        )
        probe_request = OptimizationRequest(
            structure="tlb",
            workload="stereo",
            tenant="loadtest-probe",
            n_refs=_COLD_BASE_REFS + 8 * (tenants * requests_per_tenant + 1),
            warmup_refs=_COLD_WARMUP_REFS,
        )
        status, _, _, _, _ = _run_one(probe_client, probe_request)
        if status != "ok":
            probe_trace_id = None

    report = LoadReport(
        url=url,
        tenants=tenants,
        requests_per_tenant=requests_per_tenant,
        seed=seed,
        warm_fraction=warm_fraction,
        outcomes=[o for group in per_tenant for o in group],
        wall_s=wall_s,
        slo=slo,
        probe_trace_id=probe_trace_id,
    )
    report.violations = check_slo(report)
    return report
