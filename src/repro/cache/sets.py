"""LRU set primitive shared by the cache simulators.

A set is an ordered collection of block tags, most recently used first.
Both the direct two-level simulator and the stack-distance engine are
built on this primitive, which keeps their replacement behaviour
identical by construction.
"""

from __future__ import annotations

from repro.errors import SimulationError


class LruSet:
    """One set of an LRU cache, ordered most-recently-used first.

    A plain list is the right structure here: associativities in this
    study are at most 32, so linear scans beat any pointer-based scheme,
    and the MRU-first ordering makes stack depth equal to list index.
    """

    __slots__ = ("capacity", "_blocks")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError(f"set capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._blocks: list[int] = []

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, tag: int) -> bool:
        return tag in self._blocks

    @property
    def blocks(self) -> tuple[int, ...]:
        """Resident tags, most recently used first."""
        return tuple(self._blocks)

    def depth_of(self, tag: int) -> int | None:
        """Stack depth of ``tag`` (0 = MRU), or ``None`` if absent."""
        try:
            return self._blocks.index(tag)
        except ValueError:
            return None

    def touch(self, tag: int) -> bool:
        """Reference ``tag``: promote to MRU if present, else miss.

        Returns ``True`` on hit.  On a miss the caller decides how to
        fill (the two-level simulator must coordinate with the other
        level, so filling is not implicit here).
        """
        depth = self.depth_of(tag)
        if depth is None:
            return False
        if depth:
            del self._blocks[depth]
            self._blocks.insert(0, tag)
        return True

    def insert_mru(self, tag: int) -> int | None:
        """Insert ``tag`` at MRU; return the evicted LRU tag, if any."""
        if tag in self._blocks:
            raise SimulationError(f"tag {tag:#x} inserted while already resident")
        self._blocks.insert(0, tag)
        if len(self._blocks) > self.capacity:
            return self._blocks.pop()
        return None

    def remove(self, tag: int) -> None:
        """Remove ``tag`` (used by the exclusive hierarchy on promotion)."""
        try:
            self._blocks.remove(tag)
        except ValueError:
            raise SimulationError(f"tag {tag:#x} removed while not resident") from None

    def resize(self, capacity: int) -> list[int]:
        """Change capacity; return tags evicted if it shrank (LRU first kept order).

        Evicted tags are returned least-recent-last so callers can
        reinsert them elsewhere preserving recency order.
        """
        if capacity < 1:
            raise SimulationError(f"set capacity must be positive, got {capacity}")
        self.capacity = capacity
        evicted = self._blocks[capacity:]
        del self._blocks[capacity:]
        return evicted

    def repartition(self, lower: "LruSet", capacity: int, lower_capacity: int) -> None:
        """Re-split this set and ``lower`` at new capacities, in place.

        ``lower`` is the next level of an exclusive pair: its tags
        continue this set's recency order.  The unified order is kept;
        tags past both capacities are dropped.
        """
        if capacity < 1 or lower_capacity < 1:
            raise SimulationError(
                f"set capacities must be positive, got {capacity} and {lower_capacity}"
            )
        self.capacity = capacity
        lower.capacity = lower_capacity
        blocks, below = self._blocks, lower._blocks
        if len(blocks) > capacity:
            below[:0] = blocks[capacity:]
            del blocks[capacity:]
        elif below:
            moved = capacity - len(blocks)
            blocks += below[:moved]
            del below[:moved]
        if len(below) > lower_capacity:
            del below[lower_capacity:]
