"""Content-addressed on-disk cache for sweep-cell results.

Every cell's identity is the SHA-256 of a canonical JSON document
combining three ingredients:

* a **technology fingerprint** — the tech-node constants and the derived
  per-structure timing tables.  Editing a calibration constant in
  :mod:`repro.tech` silently invalidates every cached sweep;
* the cell ``kind`` (cache_tpi, queue_tpi, ...); and
* the cell ``spec`` — the structure-configuration range plus the
  workload description (profile name, trace lengths, seeds, geometry).

Entries are JSON files under ``<cache_dir>/<key[:2]>/<key>.json``,
written atomically (temp file + rename) so concurrent engines sharing a
cache directory never observe torn entries.  Every entry stores its
payload as canonical JSON text with a SHA-256 **checksum of that text**;
an entry that is unreadable, not valid JSON, or whose payload text no
longer matches its checksum or parses to no JSON object is
*corrupt*: it is logged, counted on the
``repro_engine_cache_corrupt_total`` metric, moved into the
``<cache_dir>/quarantine/`` directory for post-mortem inspection, and
reported as a miss so the cell is recomputed.  Entries from an older
:data:`CACHE_SCHEMA_VERSION` are silent misses (expected after an
upgrade), not corruption.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.errors import CacheCorruptionError
from repro.obs.metrics import metrics

if TYPE_CHECKING:
    from repro.engine.cells import SweepCell

#: Bump when the stored entry layout changes; old entries become misses.
#: Version 2 added the payload checksum; version 3 stores the payload as
#: its canonical JSON text and checksums that text.
CACHE_SCHEMA_VERSION: int = 3

_LOG = logging.getLogger("repro.engine.cache")


def technology_fingerprint() -> dict:
    """Everything timing-related that a cached sweep result depends on.

    Reads the :mod:`repro.tech.parameters` constants dynamically (not at
    import time) and evaluates the four structures' timing tables at the
    default node, so any recalibration — constants or formulas — changes
    the fingerprint and with it every cache key.
    """
    from repro.branch.timing import BranchTimingModel
    from repro.cache.config import PAPER_GEOMETRY, PAPER_MAX_L1_INCREMENTS
    from repro.cache.timing import CacheTimingModel
    from repro.ooo.timing import QueueTimingModel
    from repro.tech import parameters
    from repro.tlb.timing import TlbTimingModel

    cache_timing = CacheTimingModel()
    queue_timing = QueueTimingModel()
    tlb_timing = TlbTimingModel()
    branch_timing = BranchTimingModel()
    return {
        "schema": CACHE_SCHEMA_VERSION,
        "wire_r_ohm_per_mm": parameters.WIRE_RESISTANCE_OHM_PER_MM,
        "wire_c_pf_per_mm": parameters.WIRE_CAPACITANCE_PF_PER_MM,
        "repeater_rc_ps": parameters.REPEATER_RC_PS_AT_REFERENCE,
        "subarray_2kb_height_mm": parameters.SUBARRAY_2KB_HEIGHT_MM,
        "cache_cycle_ns": {
            str(k): cache_timing.cycle_time_ns(k)
            for k in PAPER_GEOMETRY.boundary_positions(PAPER_MAX_L1_INCREMENTS)
        },
        "queue_cycle_ns": {
            str(w): c for w, c in queue_timing.cycle_table().items()
        },
        "tlb_lookup_ns": {
            str(f): tlb_timing.lookup_time_ns(f) for f in tlb_timing.boundaries()
        },
        "branch_lookup_ns": {
            str(s): d for s, d in branch_timing.cycle_table().items()
        },
    }


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(document: Mapping[str, Any]) -> str:
    """Stable serialisation used for hashing (sorted keys, no spaces)."""
    return _CANONICAL.encode(document)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class CellKeyer:
    """Cell keys under one technology fingerprint, serialized once.

    A key is the SHA-256 hex of ``canonical_json({"kind": …, "spec": …,
    "tech": fingerprint})``.  Sorted keys put ``tech`` last, so each key
    splices the fingerprint's text after the cell's kind and spec.
    """

    __slots__ = ("fingerprint", "_tail")

    def __init__(self, fingerprint: Mapping[str, Any] | None = None) -> None:
        self.fingerprint = (
            dict(fingerprint) if fingerprint is not None else technology_fingerprint()
        )
        self._tail = ',"tech":' + canonical_json(self.fingerprint) + "}"

    def key(self, cell: SweepCell) -> str:
        """SHA-256 hex over one cell's identity text."""
        head = '{"kind":' + json.dumps(cell.kind) + ',"spec":'
        return _sha256(head + canonical_json(dict(cell.spec)) + self._tail)


def cell_key(cell: SweepCell, fingerprint: Mapping[str, Any] | None = None) -> str:
    """Content-address of one cell: SHA-256 hex over its identity."""
    return CellKeyer(fingerprint).key(cell)


def payload_checksum(payload: Mapping[str, Any]) -> str:
    """Integrity checksum of one entry's payload (SHA-256 hex)."""
    return _sha256(canonical_json(payload))


@dataclass(frozen=True)
class CacheVerifyReport:
    """Outcome of :meth:`ResultCache.verify` over a whole cache."""

    total: int
    ok: int
    stale: int
    corrupt: tuple[str, ...]

    @property
    def healthy(self) -> bool:
        """Whether no entry failed integrity verification."""
        return not self.corrupt


class ResultCache:
    """Content-addressed JSON store for sweep-cell payloads."""

    def __init__(self, cache_dir: str | Path) -> None:
        self.cache_dir = Path(cache_dir)
        # The fingerprint is captured once per cache handle; rebuilding
        # the handle (one per engine) re-reads the live constants.
        self._keyer = CellKeyer()

    @property
    def fingerprint(self) -> dict:
        """The technology fingerprint captured by this handle."""
        return self._keyer.fingerprint

    def key(self, cell: SweepCell) -> str:
        """Cache key of one cell under this handle's fingerprint."""
        return self._keyer.key(cell)

    def path(self, key: str) -> Path:
        """Where the entry for ``key`` lives (two-level fan-out)."""
        return self.cache_dir / key[:2] / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt entries are moved for post-mortem inspection."""
        return self.cache_dir / "quarantine"

    def load(self, key: str, strict: bool = False) -> dict | None:
        """The cached payload for ``key``, or ``None`` on any miss.

        A missing entry or one from an older schema version is a plain
        miss.  A *corrupt* entry — unreadable, not JSON, checksum
        mismatch, or payload text that is no JSON object — is logged,
        counted on ``repro_engine_cache_corrupt_total`` and quarantined; with
        ``strict=False`` (the default) it then reads as a miss so the
        cell is recomputed, with ``strict=True`` it raises
        :class:`~repro.errors.CacheCorruptionError` instead.
        """
        path = self.path(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._corrupt(key, path, f"unreadable: {exc}", strict)
            return None
        payload, reason = self._parse_entry(raw)
        if reason == "stale":
            return None
        if reason is not None:
            self._corrupt(key, path, reason, strict)
            return None
        return payload

    @staticmethod
    def _parse_entry(raw: str) -> tuple[dict | None, str | None]:
        """``(payload, fault)`` of one entry's bytes; healthy = no fault.

        ``"stale"`` is the one non-corrupt fault: a well-formed entry
        from a different schema version.
        """
        try:
            entry = json.loads(raw)
        except ValueError as exc:
            return None, f"not valid JSON ({exc})"
        if not isinstance(entry, dict):
            return None, "entry is not a JSON object"
        if entry.get("schema") != CACHE_SCHEMA_VERSION:
            return None, "stale"
        text, recorded = entry.get("payload"), entry.get("checksum")
        if not isinstance(text, str) or recorded != _sha256(text):
            return None, f"payload checksum mismatch (recorded {recorded!r})"
        try:
            payload = json.loads(text)
        except ValueError:
            payload = None
        if not isinstance(payload, dict):
            return None, "payload text is not a JSON object"
        return payload, None

    def _corrupt(self, key: str, path: Path, reason: str, strict: bool) -> None:
        """Log, count and quarantine one corrupt entry; raise if strict."""
        error = CacheCorruptionError(
            f"corrupt cache entry {key[:12]}… at {path}: {reason}"
        )
        _LOG.warning("quarantining %s", error)
        metrics().counter(
            "repro_engine_cache_corrupt_total",
            "corrupt cache entries detected and quarantined",
        ).inc()
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        # The .corrupt suffix keeps quarantined files out of the
        # ``*/*.json`` globs that size() and invalidate() walk.
        dest = self.quarantine_dir / f"{path.name}.corrupt"
        try:
            os.replace(path, dest)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        if strict:
            raise error

    def quarantined(self) -> int:
        """Number of corrupt entries currently held in quarantine."""
        if not self.quarantine_dir.is_dir():
            return 0
        return sum(1 for _ in self.quarantine_dir.glob("*.corrupt"))

    def verify(self) -> CacheVerifyReport:
        """Integrity-check every entry, quarantining the corrupt ones.

        Corrupt entries are handled exactly as on a :meth:`load` hit —
        warning, metrics counter, quarantine — and their keys are
        returned for reporting.  Stale (old-schema) entries are counted
        but left in place; they are misses anyway and are overwritten
        on recompute.
        """
        total = ok = stale = 0
        corrupt: list[str] = []
        if self.cache_dir.is_dir():
            for path in sorted(self.cache_dir.glob("*/*.json")):
                if path.parent == self.quarantine_dir:
                    continue
                total += 1
                key = path.stem
                try:
                    raw = path.read_text(encoding="utf-8")
                except OSError as exc:
                    self._corrupt(key, path, f"unreadable: {exc}", strict=False)
                    corrupt.append(key)
                    continue
                _, reason = self._parse_entry(raw)
                if reason is None:
                    ok += 1
                elif reason == "stale":
                    stale += 1
                else:
                    self._corrupt(key, path, reason, strict=False)
                    corrupt.append(key)
        return CacheVerifyReport(
            total=total, ok=ok, stale=stale, corrupt=tuple(corrupt)
        )

    def store(self, key: str, cell: SweepCell, payload: Mapping[str, Any]) -> Path:
        """Atomically persist one cell's payload."""
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = canonical_json(dict(payload))
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": cell.kind,
            "spec": dict(cell.spec),
            "payload": text,
            "checksum": _sha256(text),
        }
        fd, tmp_name = tempfile.mkstemp(
            prefix=f".{key[:8]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(entry, fh)
            os.replace(tmp_name, path)
        # Cleanup-and-reraise: the temp file must not leak even on
        # KeyboardInterrupt, and the exception continues unswallowed.
        except BaseException:  # repro: noqa[RPR004]
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        return path

    def invalidate(self, kind: str | None = None) -> int:
        """Drop cached entries, returning how many were removed.

        With ``kind`` only entries of that cell kind are dropped (the
        entry header records it); without, the whole cache is cleared.
        """
        removed = 0
        if not self.cache_dir.is_dir():
            return removed
        for path in sorted(self.cache_dir.glob("*/*.json")):
            if kind is not None:
                try:
                    with path.open("r", encoding="utf-8") as fh:
                        entry = json.load(fh)
                except (OSError, ValueError):
                    entry = {}
                if not isinstance(entry, dict) or entry.get("kind") != kind:
                    continue
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed

    def size(self) -> int:
        """Number of entries currently on disk (quarantine excluded)."""
        if not self.cache_dir.is_dir():
            return 0
        return sum(1 for _ in self.cache_dir.glob("*/*.json"))
