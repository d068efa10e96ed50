"""The branch predictor table as a complexity-adaptive structure.

The configuration is the enabled table size.  Shrinking disables the
upper banks (one index bit at a time); counters in the surviving banks
keep their training, but predictions that previously mapped to disabled
banks retrain — modelled as a modest cleanup cost (the counters are
2-bit, so retraining takes a couple of occurrences per branch, not a
pipeline drain).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.branch.predictors import PredictorKind, make_predictor
from repro.branch.timing import BranchTimingModel
from repro.core.structure import (
    ComplexityAdaptiveStructure,
    ReconfigurationCost,
    StructureRunResult,
)
from repro.obs import trace as obs
from repro.obs.metrics import metrics

#: Nominal cleanup charged for the retraining transient, in cycles.
RETRAIN_CLEANUP_CYCLES: int = 16


class AdaptiveBranchPredictor(ComplexityAdaptiveStructure[int]):
    """Complexity-adaptive predictor (configuration = table entries)."""

    name = "bpred"

    def __init__(
        self,
        timing: BranchTimingModel | None = None,
        initial_entries: int | None = None,
    ) -> None:
        self.timing = timing if timing is not None else BranchTimingModel()
        sizes = tuple(sorted(self.timing.sizes))
        self._current = initial_entries if initial_entries is not None else sizes[-1]
        self.validate(self._current)

    def _all_configurations(self) -> Sequence[int]:
        """Designed table sizes, smallest (fastest) first."""
        return tuple(sorted(self.timing.sizes))

    def delay_ns(self, config: int) -> float:
        """Critical path: the table read."""
        self.validate(config)
        return self.timing.lookup_time_ns(config)

    @property
    def configuration(self) -> int:
        """Currently enabled entries."""
        return self._current

    def reconfigure(self, config: int) -> ReconfigurationCost:
        """Resize the table, charging the retraining transient."""
        self.validate_reachable(config)
        changed = config != self._current
        obs.event(
            "structure.reconfigure", structure=self.name,
            from_config=self._current, to_config=config, changed=changed,
        )
        metrics().counter(
            "repro_reconfigurations_total", "CAS reconfigure() calls"
        ).inc(structure=self.name, changed=str(changed).lower())
        self._current = config
        return ReconfigurationCost(
            cleanup_cycles=RETRAIN_CLEANUP_CYCLES if changed else 0,
            requires_clock_switch=changed,
        )

    def run(
        self,
        pcs: np.ndarray,
        taken: np.ndarray,
        *,
        kind: PredictorKind = PredictorKind.GSHARE,
    ) -> StructureRunResult:
        """Predict a branch stream with the table at the current size.

        The predictor is freshly built (cold counters), matching the
        measurement methodology of the TPI sweep; ``stats`` carries the
        ``misprediction_rate`` and its complement ``accuracy``.
        """
        with obs.span(
            "structure.run", level="structure",
            structure=self.name, configuration=self._current,
            n_events=len(pcs),
        ):
            predictor = make_predictor(kind, self._current)
            rate = predictor.run(pcs, taken)
        metrics().counter(
            "repro_structure_runs_total", "adaptive-structure run() calls"
        ).inc(structure=self.name)
        return StructureRunResult(
            structure=self.name,
            configuration=self._current,
            n_events=len(pcs),
            stats={"misprediction_rate": rate, "accuracy": 1.0 - rate},
        )
