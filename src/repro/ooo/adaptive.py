"""The resizable instruction queue as a complexity-adaptive structure.

A configuration is the number of enabled entries (a multiple of the
16-entry increment).  Unlike the cache, shrinking the queue requires a
cleanup: entries in the portion to be disabled must first issue, so the
reconfiguration cost includes a drain (paper Section 5.1: "this
low-overhead operation occurs only on context switches and therefore
does not pose a noticeable performance penalty" under the process-level
policy; interval policies charge it every shrink).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.structure import (
    ComplexityAdaptiveStructure,
    ReconfigurationCost,
    StructureRunResult,
)
from repro.obs import trace as obs
from repro.obs.metrics import metrics
from repro.ooo.machine import MachineConfig, OutOfOrderMachine
from repro.ooo.queue import InstructionQueue
from repro.ooo.timing import PAPER_QUEUE_SIZES, QueueTimingModel
from repro.workloads.instruction_trace import InstructionTrace


class AdaptiveInstructionQueue(ComplexityAdaptiveStructure[int]):
    """Complexity-adaptive issue queue (configuration = enabled entries)."""

    name = "iqueue"

    def __init__(
        self,
        timing: QueueTimingModel | None = None,
        initial_entries: int | None = None,
        issue_width: int = 8,
    ) -> None:
        self.timing = timing if timing is not None else QueueTimingModel()
        self.issue_width = issue_width
        max_entries = max(self.timing.sizes)
        self._queue = InstructionQueue(
            max_entries=max_entries,
            enabled_entries=initial_entries if initial_entries is not None else max_entries,
        )

    # -- ComplexityAdaptiveStructure interface ---------------------------

    def _all_configurations(self) -> Sequence[int]:
        """Designed enabled-entry counts, smallest (fastest) first."""
        return tuple(sorted(self.timing.sizes))

    def delay_ns(self, config: int) -> float:
        """Critical-path delay: atomic wakeup + select at this size."""
        self.validate(config)
        return self.timing.cycle_time_ns(config)

    @property
    def configuration(self) -> int:
        """Currently enabled entries."""
        return self._queue.enabled_entries

    def reconfigure(self, config: int) -> ReconfigurationCost:
        """Resize the queue, paying the drain cost when shrinking."""
        self.validate_reachable(config)
        changed = config != self.configuration
        obs.event(
            "structure.reconfigure", structure=self.name,
            from_config=self.configuration, to_config=config, changed=changed,
        )
        metrics().counter(
            "repro_reconfigurations_total", "CAS reconfigure() calls"
        ).inc(structure=self.name, changed=str(changed).lower())
        drain = self._queue.resize(config, issue_width=self.issue_width)
        return ReconfigurationCost(
            cleanup_cycles=drain, requires_clock_switch=changed
        )

    # -- structural passthrough ------------------------------------------

    @property
    def queue(self) -> InstructionQueue:
        """The underlying entry bookkeeping."""
        return self._queue

    def run(
        self,
        trace: InstructionTrace,
        *,
        memory_system=None,
        record_outcomes: bool = True,
    ) -> StructureRunResult:
        """Schedule a trace with the window at the current queue size.

        ``outcomes`` holds the per-instruction issue-cycle array
        (omitted when ``record_outcomes`` is false); ``stats`` carries
        ``ipc`` and ``cycles``.
        """
        machine = OutOfOrderMachine(
            MachineConfig(
                window=self.configuration,
                issue_width=self.issue_width,
                dispatch_width=self.issue_width,
            )
        )
        with obs.span(
            "structure.run", level="structure",
            structure=self.name, configuration=self.configuration,
            n_events=len(trace),
        ):
            result = machine.run(trace, memory_system=memory_system)
        metrics().counter(
            "repro_structure_runs_total", "adaptive-structure run() calls"
        ).inc(structure=self.name)
        return StructureRunResult(
            structure=self.name,
            configuration=self.configuration,
            n_events=result.n_instructions,
            stats={"ipc": result.ipc, "cycles": float(result.cycles)},
            outcomes=result.issue_times if record_outcomes else None,
        )


@dataclass(frozen=True)
class QueueConfigurationSpace:
    """Convenience bundle describing the paper's evaluated design space."""

    timing: QueueTimingModel = field(default_factory=QueueTimingModel)
    sizes: tuple[int, ...] = PAPER_QUEUE_SIZES

    def cycle_table(self) -> dict[int, float]:
        """Cycle time per size."""
        return {w: self.timing.cycle_time_ns(w) for w in self.sizes}
