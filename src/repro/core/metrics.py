"""TPI aggregation and comparison metrics.

The paper's headline numbers are arithmetic-mean TPI (and TPImiss)
reductions of the process-level adaptive configuration relative to the
best-performing conventional configuration, reported per application
and as a suite average.  This module holds those aggregations plus the
small numeric helpers shared by the experiment harnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Protocol, Sequence, runtime_checkable

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import for annotations only
    from repro.workloads.profiles import BenchmarkProfile


def reduction_percent(baseline: float, improved: float) -> float:
    """Percent reduction of ``improved`` relative to ``baseline``.

    Positive when ``improved`` is smaller (better).

    >>> round(reduction_percent(2.0, 1.0), 1)
    50.0
    """
    if baseline <= 0:
        raise ReproError(f"baseline must be positive, got {baseline}")
    return (baseline - improved) / baseline * 100.0


def speedup(baseline: float, improved: float) -> float:
    """Ratio of baseline to improved time (``> 1`` means faster)."""
    if improved <= 0:
        raise ReproError(f"improved must be positive, got {improved}")
    return baseline / improved


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ReproError("geometric mean of nothing")
    if any(v <= 0 for v in values):
        raise ReproError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass(frozen=True)
class SweepResult:
    """One (configuration, performance) point of a structure sweep.

    Every complexity-adaptive structure — cache boundary, issue-queue
    size, TLB fast section, predictor table — reports its sweep in this
    shape, so the experiment engine and the comparison machinery can
    drive any of them generically.  ``ipc`` is the *effective* IPC
    implied by the total TPI (``cycle_time_ns / tpi_ns``), which folds
    every stall source the structure models into one number.
    """

    config: int
    tpi_ns: float
    ipc: float
    cycle_time_ns: float

    def __post_init__(self) -> None:
        if self.tpi_ns <= 0 or self.cycle_time_ns <= 0:
            raise ReproError("sweep point needs positive TPI and cycle time")


@runtime_checkable
class StructureSweep(Protocol):
    """Protocol every structure-sweep implementation satisfies.

    A sweep maps a workload (a calibrated
    :class:`~repro.workloads.profiles.BenchmarkProfile`) to a
    :class:`SweepResult` per configuration.  Implementations for the
    four structures live in :mod:`repro.engine.sweeps`; the experiment
    engine fans their cells out and assembles the results, so a sweep
    evaluated at ``--jobs 1`` and ``--jobs N`` is bitwise identical.
    """

    #: Short structure identifier ("dcache", "iqueue", "tlb", "bpred").
    structure: str

    def configurations(self) -> tuple[int, ...]:
        """Every configuration the sweep evaluates, fastest first."""
        ...  # pragma: no cover - protocol

    def sweep(self, profile: "BenchmarkProfile") -> dict[int, SweepResult]:
        """Evaluate every configuration for one application."""
        ...  # pragma: no cover - protocol

    def best(self, profile: "BenchmarkProfile") -> SweepResult:
        """The TPI-minimising configuration for one application."""
        ...  # pragma: no cover - protocol


def best_sweep_result(results: Mapping[int, SweepResult]) -> SweepResult:
    """The TPI-minimising point of a sweep (shared `best` helper); a tie
    goes to the smallest configuration, whatever the mapping's order."""
    if not results:
        raise ReproError("cannot pick the best point of an empty sweep")
    return min(results.values(), key=lambda r: (r.tpi_ns, r.config))


@dataclass(frozen=True)
class TpiComparison:
    """Per-application conventional-versus-adaptive comparison.

    ``conventional`` and ``adaptive`` map application name to TPI (ns).
    The conventional column is evaluated at a single fixed
    configuration (the best overall one); the adaptive column at each
    application's own best configuration.
    """

    metric_name: str
    conventional: Mapping[str, float]
    adaptive: Mapping[str, float]

    def __post_init__(self) -> None:
        if set(self.conventional) != set(self.adaptive):
            raise ReproError("comparison columns cover different applications")
        if not self.conventional:
            raise ReproError("comparison is empty")

    @property
    def applications(self) -> tuple[str, ...]:
        """Application names in insertion order of the conventional column."""
        return tuple(self.conventional)

    def average_conventional(self) -> float:
        """Arithmetic-mean metric of the conventional configuration."""
        return sum(self.conventional.values()) / len(self.conventional)

    def average_adaptive(self) -> float:
        """Arithmetic-mean metric of the adaptive approach."""
        return sum(self.adaptive.values()) / len(self.adaptive)

    def average_reduction_percent(self) -> float:
        """Suite-average percent reduction (the paper's headline form)."""
        return reduction_percent(self.average_conventional(), self.average_adaptive())

    def per_app_reduction_percent(self) -> dict[str, float]:
        """Percent reduction for each application."""
        return {
            app: reduction_percent(self.conventional[app], self.adaptive[app])
            for app in self.applications
        }

    def biggest_winners(self, n: int = 3) -> tuple[str, ...]:
        """Applications with the largest reductions, best first."""
        per_app = self.per_app_reduction_percent()
        return tuple(sorted(per_app, key=per_app.__getitem__, reverse=True)[:n])

    def never_worse(self, tolerance: float = 1e-9) -> bool:
        """True when adaptivity never loses to the conventional config.

        Holds by construction for process-level adaptivity whenever the
        conventional configuration is in the adaptive search space.
        """
        return all(
            self.adaptive[app] <= self.conventional[app] + tolerance
            for app in self.applications
        )
