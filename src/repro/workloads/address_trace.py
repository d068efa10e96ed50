"""Synthetic D-cache reference streams (the Atom-trace substitute).

A trace is a mixture process: each reference picks a working-set
component (or the streaming source) by weight, then produces a byte
address within it:

* **uniform** components pick a random block — irregular reuse whose
  stack-distance distribution softens around the component size;
* **loop** components advance a cyclic sequential walk — classic LRU
  pathology with a sharp fit-or-thrash knee at the component size;
* the **streaming** source walks an unbounded region — pure compulsory
  misses.

Sequential sources touch each 32 B block ``refs_per_block`` times in a
row (word-granularity spatial locality), which keeps thrashing loops
from looking artificially hostile: even a thrashing loop hits in L1 for
the intra-block references, exactly as real strided code does.

Component address spaces are disjoint (distinct high bits) so
components never alias each other's blocks.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError
from repro.workloads.profiles import ComponentKind, MemoryProfile

#: Byte offset separating component address spaces.
_COMPONENT_STRIDE: int = 1 << 42
#: Block size assumed by the generators (matches the paper geometry).
_BLOCK_BYTES: int = 32


def generate_address_trace(
    profile: MemoryProfile, n_refs: int, seed: int
) -> np.ndarray:
    """Generate ``n_refs`` byte addresses for ``profile``.

    Deterministic in ``seed``.  Returns a ``uint64`` array.

    The source of each reference is drawn as ``Generator.choice(p=...)``
    draws it: one uniform variate per reference, placed against the
    normalised cumulative weights.  Counting the edges at or below each
    variate equals ``choice``'s ``searchsorted(..., side="right")``
    because the edges never decrease and every variate is below the
    last edge, 1.  The component draws then follow in component order,
    so the stream is the one a per-reference mixture would produce.
    """
    if n_refs <= 0:
        raise WorkloadError(f"n_refs must be positive, got {n_refs}")
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(profile.normalised_weights())
    cdf /= cdf[-1]
    variates = rng.random(n_refs)
    n_sources = len(cdf)  # components + streaming
    choices = np.zeros(n_refs, dtype=np.min_scalar_type(n_sources))
    for edge in cdf[:-1]:
        choices += variates >= edge
    addresses = np.empty(n_refs, dtype=np.uint64)
    refs_per_block = np.uint64(profile.refs_per_block)

    for idx in range(n_sources):
        where = np.flatnonzero(choices == idx)
        count = len(where)
        if count == 0:
            continue
        if idx == n_sources - 1:  # streaming: an unbounded sequential walk
            blocks = np.arange(count, dtype=np.uint64)
            blocks //= refs_per_block
            base = (n_sources + 1) * _COMPONENT_STRIDE
        else:
            component = profile.components[idx]
            n_blocks = max(1, int(np.ceil(component.size_kb * 1024 / _BLOCK_BYTES)))
            if component.kind is ComponentKind.UNIFORM:
                blocks = rng.integers(0, n_blocks, size=count, dtype=np.uint64)
            else:  # LOOP: cyclic sequential walk with spatial locality
                blocks = np.arange(count, dtype=np.uint64)
                blocks //= refs_per_block
                blocks %= np.uint64(n_blocks)
            base = (idx + 1) * _COMPONENT_STRIDE
        blocks *= np.uint64(_BLOCK_BYTES)
        blocks += np.uint64(base)
        addresses[where] = blocks
    return addresses
