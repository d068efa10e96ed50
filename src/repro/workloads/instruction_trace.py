"""Dependence-annotated instruction streams (the SimpleScalar substitute).

The queue study models an 8-way out-of-order machine with perfect
branch prediction, perfect caches and plentiful functional units, so
the *only* performance-relevant property of an instruction stream is
its dataflow structure: who depends on whom, and operation latencies.

Streams are generated as loop iterations of ``block_size`` instructions
arranged in ``depth`` dataflow levels (a layered DAG — each level feeds
the one below), optionally threaded by a serial loop-carried recurrence
chain.  Three knobs emerge:

* the recurrence bounds steady-state IPC at
  ``block_size / (recurrence_ops * recurrence_latency)``;
* the iteration critical path (``depth`` x mean latency) sets how much
  issue window an iteration's body occupies before it drains;
* ``deep_fraction`` mixes in iterations of an alternative
  ``deep_variant`` profile — typically one with a long critical path
  and no recurrence bound.  Real applications are mixtures of loop
  nests with different ILP shapes, and it is exactly this heterogeneity
  that produces the *concave* IPC-versus-window curves of the paper's
  Figure 10: the shallow iterations deliver most of the ILP at small
  windows, while the deep ones keep adding ILP as the window grows.

Together the knobs place an application's best TPI point at any queue
size, which is the behaviour Figures 10-13 depend on.

Generation is vectorized: the whole random stream is drawn at once, one
Python step per iteration decodes which shape each iteration has, and
numpy fills all iterations of a shape together.  The result is the
scalar per-instruction generator's, byte for byte (pinned against it in
the tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.profiles import IlpProfile

#: Marker for "no dependence".
NO_DEP: int = -1


@dataclass(frozen=True)
class InstructionTrace:
    """A dynamic instruction stream with dataflow annotations.

    ``dep1``/``dep2`` hold absolute producer indices (or :data:`NO_DEP`);
    ``latency`` holds per-instruction execution latencies in cycles.
    ``load_address`` is optional: when present, entries >= 0 mark loads
    and carry the byte address they reference (:data:`NO_DEP` marks
    non-loads), enabling the integrated machine+cache simulation.
    """

    dep1: np.ndarray
    dep2: np.ndarray
    latency: np.ndarray
    load_address: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = len(self.latency)
        if len(self.dep1) != n or len(self.dep2) != n:
            raise WorkloadError("trace arrays must have equal length")
        if self.load_address is not None and len(self.load_address) != n:
            raise WorkloadError("load_address must match trace length")
        if n == 0:
            raise WorkloadError("instruction trace is empty")

    def __len__(self) -> int:
        return len(self.latency)

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
        """``(dep1 + 1, dep2 + 1, latency)`` as tuples of Python ints.

        The producer columns are shifted by one, so :data:`NO_DEP` reads
        as 0: the scheduler keeps completion times in a list whose slot
        ``p + 1`` is producer ``p``'s and whose slot 0 is always 0.
        Converted once per trace: a queue sweep replays the trace at
        every size.
        """
        return (
            tuple((self.dep1 + 1).tolist()),
            tuple((self.dep2 + 1).tolist()),
            tuple(self.latency.tolist()),
        )

    def validate(self) -> None:
        """Check the dataflow invariants (producers strictly precede uses)."""
        idx = np.arange(len(self))
        for dep in (self.dep1, self.dep2):
            used = dep != NO_DEP
            if np.any(dep[used] >= idx[used]) or np.any(dep[used] < 0):
                raise WorkloadError("dependence does not point strictly backward")
        if np.any(self.latency < 1):
            raise WorkloadError("latencies must be >= 1 cycle")

    def slice(self, start: int, stop: int) -> "InstructionTrace":
        """Extract ``[start, stop)``, clipping dangling deps to NO_DEP."""
        dep1 = self.dep1[start:stop] - start
        dep2 = self.dep2[start:stop] - start
        dep1 = np.where((self.dep1[start:stop] == NO_DEP) | (dep1 < 0), NO_DEP, dep1)
        dep2 = np.where((self.dep2[start:stop] == NO_DEP) | (dep2 < 0), NO_DEP, dep2)
        loads = None if self.load_address is None else self.load_address[start:stop]
        return InstructionTrace(
            dep1=dep1, dep2=dep2, latency=self.latency[start:stop],
            load_address=loads,
        )


def concatenate(traces: Sequence[InstructionTrace]) -> InstructionTrace:
    """Concatenate traces, offsetting producer indices appropriately."""
    if not traces:
        raise WorkloadError("nothing to concatenate")
    dep1_parts, dep2_parts, lat_parts, load_parts = [], [], [], []
    base = 0
    with_loads = all(t.load_address is not None for t in traces)
    for t in traces:
        dep1_parts.append(np.where(t.dep1 == NO_DEP, NO_DEP, t.dep1 + base))
        dep2_parts.append(np.where(t.dep2 == NO_DEP, NO_DEP, t.dep2 + base))
        lat_parts.append(t.latency)
        if with_loads:
            load_parts.append(t.load_address)
        base += len(t)
    return InstructionTrace(
        dep1=np.concatenate(dep1_parts),
        dep2=np.concatenate(dep2_parts),
        latency=np.concatenate(lat_parts),
        load_address=np.concatenate(load_parts) if with_loads else None,
    )


def _fill_iterations(
    profile: IlpProfile,
    draws: np.ndarray,
    iterations: np.ndarray,
    dep1: np.ndarray,
    dep2: np.ndarray,
    latency_cycles: np.ndarray,
) -> None:
    """Write every iteration of one shape at once.

    Each row of ``iterations`` is ``(shape, first instruction, first
    draw, incoming chain tail)``.  An iteration is ``recurrence_ops``
    chain instructions, then a ``layered`` body in ``depth`` levels
    (level ``l`` at body positions ``[lo[l], hi[l])``) that reads three
    blocks of ``layered`` draws: long-latency, pick and second
    dependence.  The float expressions are the scalar generator's, in
    the same order and precision, so the output is identical to it.
    """
    _, starts, offsets, tails = iterations.T
    rec = profile.recurrence_ops
    layered = profile.block_size - rec
    if rec:
        chain = starts[:, None] + np.arange(rec)
        dep1[chain] = chain - 1
        dep1[starts] = tails
        latency_cycles[chain] = profile.recurrence_latency
    if not layered:
        return
    depth = min(profile.depth, layered)
    lo = np.arange(depth) * layered // depth
    hi = np.append(lo[1:], layered)
    level = np.minimum(np.arange(layered) * depth // layered, depth - 1)

    u = draws[offsets[:, None] + np.arange(3 * layered)]
    long_u = u[:, :layered]
    pick = u[:, layered : 2 * layered]
    second = u[:, 2 * layered :]
    base = starts + rec
    latency_cycles[base[:, None] + np.arange(layered)] = np.where(
        long_u < profile.long_latency_fraction, profile.long_latency_cycles, 1
    )
    body = np.flatnonzero(level)  # positions with a producer level above
    above = level[body] - 1
    dep1[base[:, None] + body] = (
        base[:, None]
        + lo[above]
        + (pick[:, body] * (hi[above] - lo[above])).astype(np.int64)
    )
    p = profile.second_dep_probability
    rows, cols = np.nonzero((second < p) & (level > 0))
    lvl2 = (second[rows, cols] / p * level[cols]).astype(np.int64)
    dep2[base[rows] + cols] = (
        base[rows]
        + lo[lvl2]
        + (pick[rows, cols] * (hi[lvl2] - lo[lvl2])).astype(np.int64)
    )


def generate_instruction_trace(
    profile: IlpProfile, n_instructions: int, seed: int
) -> InstructionTrace:
    """Generate ``n_instructions`` instructions for ``profile``.

    Deterministic in ``seed``.  Iterations alternate randomly between
    the base profile and its ``deep_variant`` (when configured), with
    each recurrence chain threading through the most recent chain tail.

    The PCG64 stream is consumed as a per-iteration loop would: one
    double for the deep/base choice (only with a deep variant), then
    the long-latency, pick and second-dependence draws, ``layered``
    doubles each.  All of it is drawn in one call; a loop over
    iterations decodes which shape each one has, and each shape then
    fills all its iterations at once.
    """
    if n_instructions <= 0:
        raise WorkloadError(f"n_instructions must be positive, got {n_instructions}")
    n = n_instructions
    shapes = [profile]
    if profile.deep_variant is not None:
        shapes.append(profile.deep_variant)
    choose = len(shapes) - 1  # one choice draw per iteration with a variant
    blocks = [s.block_size for s in shapes]
    recs = [s.recurrence_ops for s in shapes]
    costs = [3 * (b - r) for b, r in zip(blocks, recs)]
    # Every iteration starts below n, so together they cover fewer than
    # n + max(blocks) instructions, and shape k draws costs[k] + choose
    # doubles per blocks[k] of them.
    cover = n + max(blocks)
    bound = max(-(-(c + choose) * cover // b) for b, c in zip(blocks, costs))
    draws = np.random.default_rng(seed).random(bound)

    rows: list[tuple[int, int, int, int]] = []
    pos = start = 0
    chain_tail = NO_DEP
    while start < n:
        k = 0
        if choose:
            k = 1 if draws[pos] < profile.deep_fraction else 0
            pos += 1
        rows.append((k, start, pos, chain_tail))
        pos += costs[k]
        if recs[k]:
            chain_tail = start + recs[k] - 1
        start += blocks[k]
    iterations = np.array(rows, dtype=np.int64)

    dep1 = np.full(start, NO_DEP, dtype=np.int64)
    dep2 = np.full(start, NO_DEP, dtype=np.int64)
    latency = np.empty(start, dtype=np.int16)
    for k, shape in enumerate(shapes):
        _fill_iterations(
            shape, draws, iterations[iterations[:, 0] == k], dep1, dep2, latency
        )
    return InstructionTrace(dep1=dep1[:n], dep2=dep2[:n], latency=latency[:n])


def attach_memory_trace(
    trace: InstructionTrace,
    memory,  # MemoryProfile; untyped import to keep module deps one-way
    seed: int,
) -> InstructionTrace:
    """Mark a load/store subset of ``trace`` and give it addresses.

    Instructions become loads independently with the profile's
    load/store density; their addresses follow the profile's reference
    stream in program order, so the integrated simulation sees exactly
    the address sequence the stack-distance studies measure.
    """
    from repro.workloads.address_trace import generate_address_trace

    rng = np.random.default_rng(seed)
    n = len(trace)
    is_load = rng.random(n) < memory.load_store_fraction
    n_loads = int(is_load.sum())
    addresses = np.full(n, NO_DEP, dtype=np.int64)
    if n_loads:
        stream = generate_address_trace(memory, n_loads, seed)
        addresses[is_load] = stream.astype(np.int64)
    return InstructionTrace(
        dep1=trace.dep1,
        dep2=trace.dep2,
        latency=trace.latency,
        load_address=addresses,
    )
