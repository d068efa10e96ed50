"""Two-bit-counter branch predictors: bimodal and gshare.

Both index a table of 2-bit saturating counters; gshare additionally
XORs a global-history register into the index, which captures
pattern-correlated branches but increases destructive aliasing when the
table is too small — the effect that makes table size matter.

A predictor runs a whole branch stream at once.  Every table index is a
function of the pcs and outcomes alone, so ``run()`` computes them up
front in numpy, and one loop over plain Python ints then predicts and
trains the counters in stream order.  The table and the history
register persist between calls: a stream split over two ``run()`` calls
is predicted exactly as one call predicts it.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import ConfigurationError, SimulationError


class PredictorKind(enum.Enum):
    """Supported predictor organisations."""

    BIMODAL = "bimodal"
    GSHARE = "gshare"


def _counter_table(n_entries: int) -> list[int]:
    """A table of 2-bit saturating counters (initialised weakly taken)."""
    if n_entries < 2 or n_entries & (n_entries - 1):
        raise ConfigurationError(
            f"table entries must be a power of two >= 2, got {n_entries}"
        )
    return [2] * n_entries


def _outcomes(pcs: np.ndarray, outcomes: np.ndarray) -> np.ndarray:
    """Validate a branch stream; returns its outcomes as booleans."""
    if len(pcs) != len(outcomes):
        raise SimulationError("pc and outcome streams must have equal length")
    if len(pcs) == 0:
        raise SimulationError("empty branch stream")
    return np.asarray(outcomes, dtype=bool)


def _train(counters: list[int], indices: list[int], taken: list[bool]) -> int:
    """Predict and train the counter at each index, in order.

    The counter rule: a counter predicts taken at 2 or 3, steps one
    towards each outcome and saturates at 0 and 3.  Returns the number
    of mispredictions.
    """
    wrong = 0
    for index, outcome in zip(indices, taken):
        counter = counters[index]
        if outcome:
            if counter < 2:
                wrong += 1
            if counter < 3:
                counters[index] = counter + 1
        else:
            if counter >= 2:
                wrong += 1
            if counter > 0:
                counters[index] = counter - 1
    return wrong


class BimodalPredictor:
    """PC-indexed 2-bit counter table."""

    def __init__(self, n_entries: int) -> None:
        self._counters = _counter_table(n_entries)
        self._mask = n_entries - 1

    @property
    def n_entries(self) -> int:
        """Table capacity."""
        return len(self._counters)

    def run(self, pcs: np.ndarray, outcomes: np.ndarray) -> float:
        """Misprediction rate over a whole branch stream."""
        taken = _outcomes(pcs, outcomes)
        indices = (np.asarray(pcs) & self._mask).tolist()
        return _train(self._counters, indices, taken.tolist()) / len(taken)


class GsharePredictor:
    """Global-history-XOR-PC indexed 2-bit counter table."""

    def __init__(self, n_entries: int, history_bits: int | None = None) -> None:
        self._counters = _counter_table(n_entries)
        self._mask = n_entries - 1
        index_bits = n_entries.bit_length() - 1
        self.history_bits = history_bits if history_bits is not None else index_bits
        if self.history_bits < 1:
            raise ConfigurationError("gshare needs at least one history bit")
        self._history = 0
        self._history_mask = (1 << self.history_bits) - 1

    @property
    def n_entries(self) -> int:
        """Table capacity."""
        return len(self._counters)

    def run(self, pcs: np.ndarray, outcomes: np.ndarray) -> float:
        """Misprediction rate over a whole branch stream.

        Each branch XORs its pc with the history register as it stood
        before the branch.  Only the register's low index bits reach
        the table, and they hold the last outcomes, shifted in one per
        branch over the register's value from before this call.
        """
        taken = _outcomes(pcs, outcomes)
        n = len(taken)
        bits = min(self.history_bits, self._mask.bit_length())
        window = (1 << bits) - 1
        history = np.zeros(n, dtype=np.int64)
        head = min(bits, n)
        history[:head] = ((self._history & window) << np.arange(head)) & window
        shifted_in = taken.astype(np.int64)
        for age in range(1, bits + 1):
            history[age:] |= shifted_in[:-age] << (age - 1)
        low_bits = (np.asarray(pcs) & self._mask).astype(np.int64, copy=False)
        indices = (low_bits ^ history).tolist()
        wrong = _train(self._counters, indices, taken.tolist())
        for outcome in taken[-self.history_bits :].tolist():
            self._history = ((self._history << 1) | outcome) & self._history_mask
        return wrong / n


def make_predictor(kind: PredictorKind, n_entries: int):
    """Factory used by the adaptive wrapper."""
    if kind is PredictorKind.BIMODAL:
        return BimodalPredictor(n_entries)
    return GsharePredictor(n_entries)
