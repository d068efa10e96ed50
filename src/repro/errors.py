"""Exception hierarchy for the :mod:`repro` library.

Every error deliberately raised by the library derives from
:class:`ReproError` so callers can catch library failures without also
swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """An invalid hardware configuration was requested.

    Raised, for example, when the L1/L2 boundary of the adaptive cache is
    placed outside the physical structure, or when an instruction queue is
    resized to a value that is not a multiple of its increment.
    """


class DegradedHardwareError(ConfigurationError):
    """A configuration is unreachable on the degraded hardware.

    Raised when a reconfiguration targets a configuration masked out by
    the capability mask (one or more of the increments it requires have
    been marked failed by a
    :class:`~repro.robust.faults.HardwareFaultModel`), or when a fault
    would leave a structure with no reachable configuration at all.
    Subclasses :class:`ConfigurationError` so existing handlers keep
    working; catch this type to react specifically to hardware
    degradation (e.g. fall back to a known-safe configuration).
    """


class SimulationError(ReproError):
    """A simulator was driven into an inconsistent state."""


class SensorError(SimulationError):
    """A performance-monitor reading was rejected as physically invalid.

    Raised by input validation on the monitoring path — a non-finite or
    non-positive TPI, or a non-positive instruction count — before the
    value can poison cumulative statistics or controller estimates.
    Subclasses :class:`SimulationError` so existing handlers keep
    working.
    """


class WorkloadError(ReproError):
    """A workload profile or trace request was malformed."""


class TimingModelError(ReproError):
    """A timing model was evaluated outside its calibrated domain."""


class ObservabilityError(ReproError):
    """A trace record or metric was malformed.

    Raised, for example, for a span whose ``level`` is outside the
    schema vocabulary, a record referencing a parent span that never
    closed, or a metric re-registered under a different type.
    """


class EngineError(ReproError):
    """The experiment engine was misused or met a corrupt artefact.

    Raised, for example, for an unregistered sweep-cell kind, invalid
    engine options, or an unreadable cache entry that cannot be safely
    ignored.
    """


class AnalysisError(ReproError):
    """The static analyser was misconfigured or could not run.

    Raised for an unknown rule id, a malformed ``[tool.repro.lint]``
    table, or a duplicate rule registration — conditions that make a
    lint run meaningless rather than merely dirty.  Unparseable target
    files are *not* errors of this type; they are reported as findings
    so one bad file cannot hide the rest of the run.
    """


class UnknownStatError(SimulationError, KeyError):
    """A structure run was asked for a summary statistic it never made.

    Subclasses :class:`KeyError` because the lookup is a mapping access
    and existing callers catch it that way; subclasses
    :class:`SimulationError` so the library's typed-error discipline
    (``repro lint`` rule RPR005) holds on the core paths.
    """

    def __str__(self) -> str:  # KeyError repr-quotes its message
        return self.args[0] if self.args else ""


class TransientError(ReproError):
    """A failure that retrying may fix.

    Raised for conditions that are a property of the *execution*, not
    of the work itself — a lost pool worker, a filesystem hiccup, an
    injected fault.  The retry policy
    (:class:`repro.resilience.RetryPolicy`) re-submits work that failed
    this way; every other exception type is treated as fatal because
    sweep cells are deterministic and would fail identically again.
    """


class WorkerLostError(TransientError):
    """A remote dispatch worker died or went unreachable mid-lease.

    Raised by the dispatch plane when a leased chunk's worker drops the
    connection (SIGKILL, host loss), misses its lease deadline, or
    answers with a malformed payload.  Subclasses
    :class:`TransientError` because the *chunk* did nothing wrong — the
    lease is re-enqueued onto a healthy worker (or the local pool) and
    the retry policy governs the overall budget.
    """


class FatalError(ReproError):
    """A failure that retrying cannot fix.

    Raised when a sweep chunk exhausts its retry budget or a worker
    raises an error classified as non-transient.  The last underlying
    exception is chained as ``__cause__``.
    """


class ApiError(ReproError):
    """A public-API request was malformed or could not be served.

    Raised by :mod:`repro.api` for an unknown structure or workload, an
    unknown or ill-typed request field, or a document that does not
    deserialise into a request/result type.  The service layer maps
    this to an HTTP 400.
    """


class QuotaExceededError(ReproError):
    """A tenant exceeded its admission quota (backpressure, not failure).

    Carries ``retry_after_s``, the earliest time the tenant should try
    again; the service layer maps this to HTTP 429 + ``Retry-After``.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class ServiceOverloadedError(QuotaExceededError):
    """The service's global job table is full (backpressure, not failure).

    Unlike its parent, this is not one tenant misbehaving but the whole
    service at capacity: the bounded :class:`~repro.service.JobStore`
    cannot admit another job without growing past its hard cap.  The
    HTTP layer maps it to the same ``429`` + ``Retry-After`` contract,
    so polite clients back off identically.
    """


class ServiceError(ReproError):
    """The sweep service was misused or hit an internal fault.

    Raised, for example, for a lookup of an unknown job id, a submit
    after shutdown, or a malformed HTTP request body.
    """


class DeadlineExceededError(ServiceError):
    """A job's end-to-end deadline passed before it could be served.

    Raised (or recorded on the failed job) when the ``deadline_s``
    carried by an :class:`~repro.api.OptimizationRequest` — or the
    ``X-Repro-Deadline`` header — expires while the job is queued or
    running.  The HTTP layer maps it to ``504 Gateway Timeout``.
    """


class CircuitOpenError(ServiceError):
    """The service's circuit breaker is open; work is being shed.

    Carries ``retry_after_s`` — the remaining breaker cooldown — which
    the HTTP layer maps to ``503`` + ``Retry-After``.  Distinct from
    :class:`QuotaExceededError`: the tenant did nothing wrong, the
    engine is unhealthy and every submission is shed until a half-open
    probe succeeds.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class CacheCorruptionError(EngineError):
    """A cache entry failed integrity verification.

    Raised by strict cache loads and :meth:`ResultCache.verify` when an
    entry is unreadable, truncated, or its payload checksum does not
    match the stored one.  The default (non-strict) load path
    quarantines such entries and recomputes instead of raising.
    """
