"""Test-only oracles for the simulation kernels and the trace generators.

Most are the straightforward implementations the fast code replaced,
kept as they were so hypothesis tests can pin the fast code to them bit
for bit:

* :class:`ScalarStackDistanceEngine` walks one LRU list per set, the
  reference for :class:`repro.cache.stackdist.StackDistanceEngine`;
* :func:`heap_schedule` tracks queue occupancy with a two-heap running
  order statistic, the reference for
  :class:`repro.ooo.machine.OutOfOrderMachine`;
* :func:`scalar_instruction_trace` emits one instruction per Python
  step, the reference for
  :func:`repro.workloads.instruction_trace.generate_instruction_trace`;
* :func:`scalar_address_trace` draws each reference's source with
  ``Generator.choice`` and fills each source through a boolean mask,
  the reference for
  :func:`repro.workloads.address_trace.generate_address_trace`;
* :func:`scalar_branch_trace` decides one branch outcome per Python
  step, the reference for
  :func:`repro.branch.workloads.generate_branch_trace`;
* :class:`SteppingPredictor` predicts and trains one branch per
  method call on a numpy counter table, the reference for the
  ``run()`` of both predictors in :mod:`repro.branch.predictors`;
* :func:`document_cell_key` serializes a cell's whole identity
  document, the reference for the spliced keys of
  :class:`repro.engine.cache.CellKeyer`;
* :class:`CopyingJobStore` trims a copy of the whole job table, the
  reference for the early-stopping walk of
  :class:`repro.service.jobs.JobStore`.

:func:`cycle_schedule` is not a replaced implementation but a direct
model of the machine: it steps the queue cycle by cycle, so it checks
the greedy list scheduler's reasoning rather than its bookkeeping.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from typing import Any, Mapping

import numpy as np

from repro.branch.predictors import PredictorKind
from repro.branch.workloads import BranchProfile
from repro.cache.config import CacheGeometry
from repro.cache.stackdist import COLD_DEPTH
from repro.engine.cells import SweepCell
from repro.errors import ConfigurationError, SimulationError, WorkloadError
from repro.ooo.machine import MachineConfig, MachineResult
from repro.service.jobs import JobStore
from repro.workloads.address_trace import _BLOCK_BYTES, _COMPONENT_STRIDE
from repro.workloads.instruction_trace import NO_DEP, InstructionTrace
from repro.workloads.profiles import ComponentKind, IlpProfile, MemoryProfile


class ScalarStackDistanceEngine:
    """Per-set LRU lists, one Python step per reference."""

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self._n_sets = geometry.n_sets
        self._max_depth = geometry.total_ways
        self._block_shift = geometry.block_bytes.bit_length() - 1
        if 1 << self._block_shift != geometry.block_bytes:
            raise SimulationError("block size must be a power of two")
        self._stacks: list[list[int]] = [[] for _ in range(self._n_sets)]

    def reset(self) -> None:
        """Forget all cached blocks (equivalent to a cold structure)."""
        self._stacks = [[] for _ in range(self._n_sets)]

    def process(self, addresses: np.ndarray) -> np.ndarray:
        """Return the stack depth of every byte address in ``addresses``."""
        n_sets = self._n_sets
        max_depth = self._max_depth
        stacks = self._stacks
        blocks = np.asarray(addresses, dtype=np.uint64) >> np.uint64(self._block_shift)
        set_idx = (blocks % np.uint64(n_sets)).astype(np.int64)
        depths = np.empty(len(blocks), dtype=np.uint8)
        block_list = blocks.tolist()
        set_list = set_idx.tolist()
        for i, (block, s) in enumerate(zip(block_list, set_list)):
            stack = stacks[s]
            try:
                depth = stack.index(block)
            except ValueError:
                depths[i] = COLD_DEPTH
                stack.insert(0, block)
                if len(stack) > max_depth:
                    stack.pop()
                continue
            depths[i] = depth
            if depth:
                del stack[depth]
                stack.insert(0, block)
        return depths


class _RunningKthSmallest:
    """Streaming k-th order statistic where k grows by one per step.

    ``low`` is a max-heap (negated) holding the k smallest values seen;
    ``high`` is a min-heap of the rest.  ``advance()`` grows k; ``add()``
    inserts a new value; ``kth()`` reads the current k-th smallest.
    """

    __slots__ = ("_low", "_high")

    def __init__(self) -> None:
        self._low: list[int] = []
        self._high: list[int] = []

    def add(self, value: int) -> None:
        if self._low and value < -self._low[0]:
            heapq.heappush(self._low, -value)
            heapq.heappush(self._high, -heapq.heappop(self._low))
        else:
            heapq.heappush(self._high, value)

    def advance(self) -> None:
        if not self._high:
            raise SimulationError("order statistic advanced past its population")
        heapq.heappush(self._low, -heapq.heappop(self._high))

    def kth(self) -> int:
        if not self._low:
            raise SimulationError("order statistic read before first advance")
        return -self._low[0]


def heap_schedule(
    config: MachineConfig, trace: InstructionTrace, memory_system=None
) -> MachineResult:
    """Greedy oldest-first schedule with a two-heap occupancy tracker.

    ``cycles`` counts to the last completion under the latencies the
    memory system resolved, as the machine does.
    """
    window = config.window
    issue_width = config.issue_width
    dispatch_width = config.dispatch_width

    n = len(trace)
    dep1 = trace.dep1.tolist()
    dep2 = trace.dep2.tolist()
    latency = trace.latency.tolist()
    if memory_system is not None:
        if trace.load_address is None:
            raise SimulationError(
                "memory_system given but the trace carries no load addresses"
            )
        addresses = trace.load_address.tolist()
        for i, addr in enumerate(addresses):
            if addr >= 0:
                latency[i] = memory_system.load_latency_cycles(int(addr))

    issue = np.zeros(n, dtype=np.int64)
    issue_list = issue.tolist()  # python ints are faster in the loop
    dispatch_times: list[int] = [0] * n
    issue_counts: dict[int, int] = {}
    occupancy = _RunningKthSmallest()
    last_dispatch = 0

    for i in range(n):
        # -- dispatch: in-order, bandwidth-limited, queue-capacity-limited
        d = last_dispatch
        if i >= dispatch_width:
            earliest_by_bw = dispatch_times[i - dispatch_width] + 1
            if earliest_by_bw > d:
                d = earliest_by_bw
        if i >= window:
            occupancy.advance()  # k becomes i - window + 1
            # the slot is reusable the cycle after its occupant issues
            free_at = occupancy.kth() + 1
            if free_at > d:
                d = free_at
        dispatch_times[i] = d
        last_dispatch = d

        # -- wakeup: ready when all producers have completed
        ready = d
        p = dep1[i]
        if p != NO_DEP:
            t = issue_list[p] + latency[p]
            if t > ready:
                ready = t
        p = dep2[i]
        if p != NO_DEP:
            t = issue_list[p] + latency[p]
            if t > ready:
                ready = t

        # -- select: oldest-first, issue_width per cycle
        cycle = ready
        count = issue_counts.get(cycle, 0)
        while count >= issue_width:
            cycle += 1
            count = issue_counts.get(cycle, 0)
        issue_counts[cycle] = count + 1
        issue_list[i] = cycle
        occupancy.add(cycle)

    issue = np.array(issue_list, dtype=np.int64)
    completion = issue + np.array(latency, dtype=np.int64)
    cycles = int(completion.max()) + 1
    return MachineResult(
        config=config,
        n_instructions=n,
        cycles=cycles,
        issue_times=issue,
    )


def _append_iteration(
    profile: IlpProfile,
    rng: np.random.Generator,
    start: int,
    prev_chain_tail: int,
    dep1: list[int],
    dep2: list[int],
    latency_cycles: list[int],
) -> int:
    """Emit one iteration of ``profile`` starting at index ``start``.

    ``prev_chain_tail`` is the absolute index of the previous
    iteration's recurrence-chain tail (or :data:`NO_DEP`).  Returns this
    iteration's chain tail for the next call.
    """
    block = profile.block_size
    rec = profile.recurrence_ops
    layered = block - rec
    depth = min(profile.depth, max(layered, 1))

    # --- loop-carried recurrence chain ---
    for j in range(rec):
        dep1.append(start + j - 1 if j else prev_chain_tail)
        dep2.append(NO_DEP)
        latency_cycles.append(profile.recurrence_latency)
    chain_tail = start + rec - 1 if rec else prev_chain_tail

    if layered == 0:
        return chain_tail

    # --- layered dataflow body ---
    # level l occupies body positions [lo[l], hi[l])
    lo = [l * layered // depth for l in range(depth)]
    hi = lo[1:] + [layered]
    level_of = [min(jj * depth // layered, depth - 1) for jj in range(layered)]
    base = start + rec
    long_draws = rng.random(layered)
    pick_draws = rng.random(layered)
    second_draws = rng.random(layered)
    for jj in range(layered):
        level = level_of[jj]
        if level == 0:
            dep1.append(NO_DEP)
            dep2.append(NO_DEP)
        else:
            span_lo, span_hi = lo[level - 1], hi[level - 1]
            dep1.append(base + span_lo + int(pick_draws[jj] * (span_hi - span_lo)))
            if second_draws[jj] < profile.second_dep_probability:
                lvl2 = int(second_draws[jj] / profile.second_dep_probability * level)
                s_lo, s_hi = lo[lvl2], hi[lvl2]
                dep2.append(base + s_lo + int(pick_draws[jj] * (s_hi - s_lo)))
            else:
                dep2.append(NO_DEP)
        latency_cycles.append(
            profile.long_latency_cycles
            if long_draws[jj] < profile.long_latency_fraction
            else 1
        )
    return chain_tail


def scalar_instruction_trace(
    profile: IlpProfile, n_instructions: int, seed: int
) -> InstructionTrace:
    """Generate ``n_instructions`` instructions for ``profile``, one
    Python step per instruction.

    Deterministic in ``seed``.  Iterations alternate randomly between
    the base profile and its ``deep_variant`` (when configured), with
    each recurrence chain threading through the most recent chain tail.
    """
    if n_instructions <= 0:
        raise WorkloadError(f"n_instructions must be positive, got {n_instructions}")
    rng = np.random.default_rng(seed)
    dep1: list[int] = []
    dep2: list[int] = []
    latency: list[int] = []
    chain_tail = NO_DEP
    while len(latency) < n_instructions:
        use_deep = (
            profile.deep_variant is not None
            and rng.random() < profile.deep_fraction
        )
        iteration = profile.deep_variant if use_deep else profile
        chain_tail = _append_iteration(
            iteration, rng, len(latency), chain_tail, dep1, dep2, latency
        )
    n = n_instructions
    return InstructionTrace(
        dep1=np.array(dep1[:n], dtype=np.int64),
        dep2=np.array(dep2[:n], dtype=np.int64),
        latency=np.array(latency[:n], dtype=np.int16),
    )


def scalar_address_trace(
    profile: MemoryProfile, n_refs: int, seed: int
) -> np.ndarray:
    """Generate ``n_refs`` byte addresses for ``profile``, drawing the
    sources with ``Generator.choice`` and filling each through a mask.

    Deterministic in ``seed``.  Returns a ``uint64`` array.
    """
    if n_refs <= 0:
        raise WorkloadError(f"n_refs must be positive, got {n_refs}")
    rng = np.random.default_rng(seed)
    weights = np.array(profile.normalised_weights())
    n_sources = len(weights)  # components + streaming
    choices = rng.choice(n_sources, size=n_refs, p=weights)
    addresses = np.zeros(n_refs, dtype=np.uint64)

    for idx, component in enumerate(profile.components):
        mask = choices == idx
        count = int(mask.sum())
        if count == 0:
            continue
        n_blocks = max(1, int(np.ceil(component.size_kb * 1024 / _BLOCK_BYTES)))
        base = np.uint64((idx + 1) * _COMPONENT_STRIDE)
        if component.kind is ComponentKind.UNIFORM:
            blocks = rng.integers(0, n_blocks, size=count, dtype=np.uint64)
        else:  # LOOP: cyclic sequential walk with spatial locality
            positions = np.arange(count, dtype=np.uint64) // np.uint64(
                profile.refs_per_block
            )
            blocks = positions % np.uint64(n_blocks)
        addresses[mask] = base + blocks * np.uint64(_BLOCK_BYTES)

    stream_mask = choices == n_sources - 1
    count = int(stream_mask.sum())
    if count:
        base = np.uint64((n_sources + 1) * _COMPONENT_STRIDE)
        positions = np.arange(count, dtype=np.uint64) // np.uint64(
            profile.refs_per_block
        )
        addresses[stream_mask] = base + positions * np.uint64(_BLOCK_BYTES)
    return addresses


def scalar_branch_trace(
    profile: BranchProfile, n_branches: int
) -> tuple[np.ndarray, np.ndarray]:
    """Generate ``(pcs, outcomes)`` for ``profile``, one outcome per
    Python step, counting each static branch's executions as it goes.

    Deterministic in the profile's seed.
    """
    if n_branches <= 0:
        raise WorkloadError(f"n_branches must be positive, got {n_branches}")
    rng = np.random.default_rng(profile.seed)
    n = profile.n_static

    # population assignment per static branch
    kinds = rng.random(n)
    patterned = kinds < profile.patterned_fraction
    noisy = (~patterned) & (
        kinds < profile.patterned_fraction + profile.noisy_fraction
    )
    bias = np.where(rng.random(n) < 0.5, rng.uniform(0.95, 0.995, n),
                    rng.uniform(0.005, 0.05, n))
    periods = rng.choice((2, 4), size=n)
    patterns = rng.random((n, 4)) < 0.6  # per-branch repeating sequence

    # Zipf-weighted loop bodies
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** -profile.zipf_exponent
    weights /= weights.sum()
    n_templates = 4
    body_len = max(8, n // 12)
    templates = [
        rng.choice(n, size=body_len, p=weights) for _ in range(n_templates)
    ]

    statics = np.empty(n_branches, dtype=np.int64)
    filled = 0
    while filled < n_branches:
        body = templates[int(rng.integers(0, n_templates))]
        repeats = int(rng.integers(10, 40))
        chunk = np.tile(body, repeats)[: n_branches - filled]
        statics[filled : filled + len(chunk)] = chunk
        filled += len(chunk)

    # per-branch execution counters drive the pattern position
    occurrence = np.zeros(n, dtype=np.int64)
    outcomes = np.empty(n_branches, dtype=bool)
    draws = rng.random(n_branches)
    for i, b in enumerate(statics.tolist()):
        k = occurrence[b]
        occurrence[b] = k + 1
        if patterned[b]:
            outcomes[i] = patterns[b, k % periods[b]]
        elif noisy[b]:
            outcomes[i] = draws[i] < 0.5
        else:
            outcomes[i] = draws[i] < bias[b]

    pcs = (statics * 2654435761) & 0xFFFFFFFF
    return pcs.astype(np.int64), outcomes


class _CounterTable:
    """A table of 2-bit saturating counters (initialised weakly taken)."""

    def __init__(self, n_entries: int) -> None:
        if n_entries < 2 or n_entries & (n_entries - 1):
            raise ConfigurationError(
                f"table entries must be a power of two >= 2, got {n_entries}"
            )
        self.n_entries = n_entries
        self._counters = np.full(n_entries, 2, dtype=np.int8)

    def predict(self, index: int) -> bool:
        return bool(self._counters[index] >= 2)

    def update(self, index: int, taken: bool) -> None:
        c = self._counters[index]
        if taken:
            if c < 3:
                self._counters[index] = c + 1
        elif c > 0:
            self._counters[index] = c - 1


class SteppingPredictor:
    """Bimodal or gshare, one ``predict_and_update`` call per branch.

    ``history_bits`` is gshare's register width (the index width when
    ``None``); a bimodal predictor keeps no history.
    """

    def __init__(
        self, kind: PredictorKind, n_entries: int, history_bits: int | None = None
    ) -> None:
        self._table = _CounterTable(n_entries)
        self._mask = n_entries - 1
        self.gshare = kind is PredictorKind.GSHARE
        if history_bits is None:
            history_bits = n_entries.bit_length() - 1 if self.gshare else 0
        self.history = 0
        self._history_mask = (1 << history_bits) - 1

    @property
    def counters(self) -> list[int]:
        """The counter table's values."""
        return self._table._counters.tolist()

    def predict_and_update(self, pc: int, taken: bool) -> bool:
        """Predict the branch at ``pc``, train on the outcome and shift
        the history register; returns whether the prediction was right."""
        index = ((pc ^ self.history) if self.gshare else pc) & self._mask
        prediction = self._table.predict(index)
        self._table.update(index, taken)
        if self.gshare:
            self.history = ((self.history << 1) | int(taken)) & self._history_mask
        return prediction == taken

    def run(self, pcs: np.ndarray, outcomes: np.ndarray) -> float:
        """Misprediction rate over a whole branch stream."""
        if len(pcs) != len(outcomes):
            raise SimulationError("pc and outcome streams must have equal length")
        if len(pcs) == 0:
            raise SimulationError("empty branch stream")
        wrong = 0
        for pc, taken in zip(pcs.tolist(), outcomes.tolist()):
            if not self.predict_and_update(pc, bool(taken)):
                wrong += 1
        return wrong / len(pcs)


def cycle_schedule(config: MachineConfig, trace: InstructionTrace) -> MachineResult:
    """Step the machine cycle by cycle.

    Each cycle first dispatches in order, up to ``dispatch_width``,
    while the window has a free entry (an entry frees the cycle after
    its occupant issues), then issues the oldest ready instructions in
    the window, up to ``issue_width``.  An instruction is ready once
    every producer has completed (issue + latency).
    """
    n = len(trace)
    producers = [
        [p for p in deps if p != NO_DEP]
        for deps in zip(trace.dep1.tolist(), trace.dep2.tolist())
    ]
    latency = trace.latency.tolist()
    done_at = [0] * n  # completion cycle, valid once issued
    issue = [-1] * n
    window: list[int] = []  # dispatched, not yet issued, oldest first
    dispatched = 0
    cycle = 0
    while dispatched < n or window:
        for _ in range(config.dispatch_width):
            if dispatched == n or len(window) == config.window:
                break
            window.append(dispatched)
            dispatched += 1
        selected = [
            i for i in window
            if all(issue[p] >= 0 and done_at[p] <= cycle for p in producers[i])
        ][: config.issue_width]
        for i in selected:
            issue[i] = cycle
            done_at[i] = cycle + latency[i]
            window.remove(i)
        cycle += 1
    issue_times = np.array(issue, dtype=np.int64)
    return MachineResult(
        config=config,
        n_instructions=n,
        cycles=max(done_at) + 1,
        issue_times=issue_times,
    )


def document_cell_key(cell: SweepCell, fingerprint: Mapping[str, Any]) -> str:
    """SHA-256 hex of the canonical JSON (sorted keys, no spaces) of
    ``{"tech": fingerprint, "kind": kind, "spec": spec}``, encoded in one
    piece."""
    identity = {"tech": dict(fingerprint), "kind": cell.kind, "spec": dict(cell.spec)}
    text = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CopyingJobStore(JobStore):
    """A :class:`JobStore` whose trim walks a copy of every job id."""

    def _trim(self, bound: int | None = None) -> None:
        limit = bound if bound is not None else self.retain
        if len(self._jobs) <= limit:
            return
        for job_id in list(self._jobs):
            if len(self._jobs) <= limit:
                break
            if self._jobs[job_id].done.is_set():
                del self._jobs[job_id]
