"""Sweep checkpoint journal: a crash-safe record of completed cells.

The journal is an append-only JSONL file with one ``cell_done`` record
per completed sweep cell, flushed and fsynced as each cell finishes, so
a sweep killed at any instant — including SIGKILL, which runs no
cleanup — loses at most the cell in flight.  On resume the engine loads
the journal and serves every recorded cell without recomputing it.

Records are keyed by the cell's **content address** (the same
SHA-256 identity the result cache uses: technology fingerprint + kind
+ spec).  That makes resume safe by construction:

* a journal can only ever satisfy cells whose identity is unchanged —
  editing a calibration constant moves every key, and the stale journal
  silently stops matching instead of serving wrong results;
* mixing runs in one journal file is harmless, so the engine always
  appends and ``resume`` merely controls whether the file is *read*;
* duplicate records (a cell re-run after an interrupted attempt)
  resolve to the same payload, last record wins.

A torn trailing line — the signature of a mid-append kill — is expected
and skipped; any malformed record is skipped with a warning rather than
aborting the resume, because a damaged journal should cost recompute
time, never correctness.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Any, Mapping

from repro.engine.cache import CellKeyer, canonical_json
from repro.engine.cells import SweepCell

#: Bump when the record layout changes; old records are ignored on load.
JOURNAL_SCHEMA_VERSION: int = 1

_LOG = logging.getLogger("repro.resilience.journal")


class SweepJournal:
    """Append-only journal of completed sweep cells, keyed by content."""

    def __init__(
        self,
        path: str | Path,
        fingerprint: Mapping[str, Any] | None = None,
        fsync: bool = True,
    ) -> None:
        self.path = Path(path)
        self.fsync = fsync
        # Captured and serialized once per handle, mirroring
        # ResultCache: an engine's cache and journal agree on every key.
        self._keyer = CellKeyer(fingerprint)

    def key(self, cell: SweepCell) -> str:
        """Content address of one cell under this handle's fingerprint."""
        return self._keyer.key(cell)

    def record(
        self, key: str, cell: SweepCell, payload: Mapping[str, Any], wall_s: float
    ) -> None:
        """Durably append one completed cell."""
        line = canonical_json(
            {
                "journal": JOURNAL_SCHEMA_VERSION,
                "event": "cell_done",
                "key": key,
                "kind": cell.kind,
                "wall_s": float(wall_s),
                "payload": dict(payload),
            }
        )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())

    def load(self) -> dict[str, dict]:
        """Completed payloads keyed by content address.

        Missing file means an empty journal.  Malformed or
        foreign-schema lines are skipped (the torn final line of a
        killed run is the common case) — a record the journal cannot
        vouch for is recomputed, never trusted.
        """
        completed: dict[str, dict] = {}
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return completed
        for line_no, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                _LOG.warning(
                    "%s:%d: skipping unparseable journal line "
                    "(torn write from an interrupted run?)",
                    self.path,
                    line_no,
                )
                continue
            if (
                not isinstance(record, dict)
                or record.get("journal") != JOURNAL_SCHEMA_VERSION
                or record.get("event") != "cell_done"
            ):
                continue
            key = record.get("key")
            payload = record.get("payload")
            if isinstance(key, str) and isinstance(payload, dict):
                completed[key] = payload
            else:
                _LOG.warning(
                    "%s:%d: skipping malformed cell_done record", self.path, line_no
                )
        return completed

    def completed_count(self) -> int:
        """Number of distinct completed cells currently journaled."""
        return len(self.load())
