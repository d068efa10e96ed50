"""TPI evaluation for the adaptive branch predictor.

The predictor table is read every fetch, so (as with the queue's
wakeup+select) its lookup bounds the cycle time, floored by the rest of
the core.  The IPC side comes from misprediction stalls: every
mispredicted branch flushes the frontend for a fixed penalty.

``TPI(n) = cycle(n) * (1 / base_ipc + branch_fraction *
misprediction_rate(n) * penalty_cycles)``

Misprediction rates are *measured* by running the real predictor over
the application's synthetic branch stream — not modelled analytically —
so aliasing and warm-up effects are captured.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.branch.predictors import PredictorKind, make_predictor
from repro.branch.timing import BranchTimingModel
from repro.branch.workloads import BRANCH_FRACTION, BranchProfile, generate_branch_trace

#: Miss-free pipeline efficiency, as in the cache study.
BASE_IPC: float = 2.67

#: Frontend refill cost of a misprediction, in cycles.
MISPREDICT_PENALTY_CYCLES: int = 7

#: Core cycle-time floor (ns): the predictor is read in the fetch
#: stage of an aggressive (16-entry-queue-class) core.
CORE_CYCLE_FLOOR_NS: float = 0.40


@dataclass(frozen=True)
class BranchBreakdown:
    """TPI decomposition for one application at one table size."""

    n_entries: int
    cycle_time_ns: float
    misprediction_rate: float
    tpi_ns: float


@dataclass(frozen=True)
class BranchTpiModel:
    """Evaluates TPI across predictor table sizes."""

    timing: BranchTimingModel = field(default_factory=BranchTimingModel)
    kind: PredictorKind = PredictorKind.GSHARE
    base_ipc: float = BASE_IPC
    penalty_cycles: int = MISPREDICT_PENALTY_CYCLES
    branch_fraction: float = BRANCH_FRACTION
    core_floor_ns: float = CORE_CYCLE_FLOOR_NS

    def cycle_time_ns(self, n_entries: int) -> float:
        """Clock period with ``n_entries`` enabled."""
        return max(self.core_floor_ns, self.timing.lookup_time_ns(n_entries))

    def evaluate(
        self, profile: BranchProfile, n_entries: int, n_branches: int = 20_000
    ) -> BranchBreakdown:
        """Measure one (application, table size) point."""
        pcs, outcomes = generate_branch_trace(profile, n_branches)
        return self._breakdown(n_entries, pcs, outcomes)

    def sweep_breakdowns(
        self, profile: BranchProfile, n_branches: int = 20_000
    ) -> dict[int, BranchBreakdown]:
        """Evaluate every configured table size on one branch trace."""
        pcs, outcomes = generate_branch_trace(profile, n_branches)
        return {s: self._breakdown(s, pcs, outcomes) for s in self.timing.sizes}

    def _breakdown(
        self, n_entries: int, pcs: np.ndarray, outcomes: np.ndarray
    ) -> BranchBreakdown:
        """TPI at one table size, from cold counters over one stream."""
        rate = make_predictor(self.kind, n_entries).run(pcs, outcomes)
        cycle = self.cycle_time_ns(n_entries)
        cpi = 1.0 / self.base_ipc + self.branch_fraction * rate * self.penalty_cycles
        return BranchBreakdown(
            n_entries=n_entries,
            cycle_time_ns=cycle,
            misprediction_rate=rate,
            tpi_ns=cycle * cpi,
        )
