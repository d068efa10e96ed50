"""Cross-process trace stitching: worker span shards merged into one tree.

The engine's worker pool evaluates cells in other processes, where the
parent's :class:`~repro.obs.trace.Tracer` does not exist.  To keep one
trace across the boundary:

1. the engine captures a picklable :class:`TraceContext` — its trace id
   plus the open ``engine.map`` span id as an *anchor* — and hands it to
   every pooled chunk;
2. each worker opens a :func:`shard_tracer` writing a private JSONL
   *shard* file (``engine.worker`` / ``cell.evaluate`` spans) whose
   stack-root spans are parented to the anchor, in a shard directory the
   engine keeps for its lifetime; the file name starts with the anchor,
   so maps sharing the directory never read each other's shards;
3. after the pool drains, the engine calls :func:`stitch_shards` to read
   and remove its map's shards, drop orphaned records (a worker killed
   mid-span leaves children whose parent never closed), and adopt the
   survivors into the parent trace.

:func:`validate_parentage` is the cross-file acceptance check: schema
validity plus every-trace-has-a-root, run over a fully stitched file.
"""

from __future__ import annotations

import json
import logging
import os
import uuid
from dataclasses import dataclass
from pathlib import Path

from repro.errors import ObservabilityError
from repro.obs.metrics import metrics
from repro.obs.schema import validate_trace
from repro.obs.trace import Tracer

_LOG = logging.getLogger("repro.obs.stitch")

SHARD_SUFFIX = ".spans.jsonl"


@dataclass(frozen=True)
class TraceContext:
    """Picklable handle tying worker-side spans to a parent trace.

    ``parent_id`` is the span id worker stack-roots attach to (the
    engine's open ``engine.map`` span, or a service request span).
    """

    trace_id: str
    parent_id: str | None = None


def shard_path(shard_dir: str | Path, anchor: str, chunk: int, attempt: int) -> Path:
    """Where one (chunk, attempt) evaluation under ``anchor`` (the map's
    span id) writes its span shard."""
    name = (
        f"{anchor}.chunk-{chunk:04d}-attempt-{attempt}-pid{os.getpid()}"
        f"{SHARD_SUFFIX}"
    )
    return Path(shard_dir) / name


def shard_tracer(context: TraceContext, path: str | Path) -> Tracer:
    """A worker-side tracer whose records join ``context``'s trace.

    The id prefix is unique per shard (not merely per process: a pool
    worker evaluates many chunks, each with its own tracer counting ids
    from 1) so merged ids never collide with each other or with the
    parent's ``s…`` ids.
    """
    tracer = Tracer(
        path,
        trace_id=context.trace_id,
        id_prefix=f"w{uuid.uuid4().hex[:8]}-",
        root_parent=context.parent_id,
    )
    tracer.open()
    return tracer


@dataclass
class StitchResult:
    """Outcome of merging shard files into a parent trace."""

    records: list[dict]
    shards: int
    orphans: int


def read_shard(path: str | Path) -> list[dict]:
    """Read one shard tolerantly: a crashed worker may truncate the tail.

    Torn lines — a worker SIGKILLed mid-write leaves a truncated final
    JSONL record — are skipped with a warning and counted on
    ``repro_obs_shard_torn_lines_total``, mirroring the job journal's
    torn-line policy: corruption is survivable but never silent.
    """
    records: list[dict] = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                metrics().counter(
                    "repro_obs_shard_torn_lines_total",
                    "torn span-shard lines skipped while stitching",
                ).inc()
                _LOG.warning(
                    "span shard %s line %d is torn (killed worker?); skipping",
                    path, lineno,
                )
                continue
            if isinstance(record, dict):
                records.append(record)
    return records


def stitch_shards(shard_dir: str | Path, anchors: set[str]) -> StitchResult:
    """Collect and remove the anchors' shards and resolve parentage.

    Only files named for one of ``anchors`` (see :func:`shard_path`)
    are read, and each is deleted once read.  A record survives if its
    parent chain reaches an anchor span id owned by the calling process.
    Anything else — spans whose parent never closed because the worker
    died — is counted as an orphan and dropped, so the merged file still
    passes :func:`validate_parentage`.
    """
    records: list[dict] = []
    shards = 0
    for anchor in sorted(anchors):
        for path in sorted(Path(shard_dir).glob(f"{anchor}.*{SHARD_SUFFIX}")):
            records.extend(read_shard(path))
            path.unlink()
            shards += 1
    resolved = set(anchors)
    pending = list(records)
    # Children are written before parents, so resolution is iterative:
    # keep admitting records whose parent is already resolved.
    while True:
        admitted: list[dict] = []
        still: list[dict] = []
        for record in pending:
            if record.get("parent") in resolved:
                admitted.append(record)
                if record.get("record") == "span":
                    resolved.add(record["id"])
            else:
                still.append(record)
        if not admitted:
            break
        pending = still
    orphans = len(pending)
    kept_ids = resolved - anchors
    kept = [
        r
        for r in records
        if (r.get("record") == "span" and r.get("id") in kept_ids)
        or (r.get("record") == "event" and r.get("parent") in resolved)
    ]
    return StitchResult(records=kept, shards=shards, orphans=orphans)


def validate_parentage(records: list[dict]) -> None:
    """Validate a (possibly multi-process) trace end to end.

    Schema validation (field shapes, unique ids, parents exist within
    the same trace) plus the stitched-tree invariant: every trace id
    present has at least one root span, so no subtree is floating.
    Raises :class:`~repro.errors.ObservabilityError` on violation.
    """
    validate_trace(records)
    spans_by_trace: dict[str, int] = {}
    roots_by_trace: dict[str, int] = {}
    for record in records:
        if record.get("record") != "span":
            continue
        tid = record["trace_id"]
        spans_by_trace[tid] = spans_by_trace.get(tid, 0) + 1
        if record.get("parent") is None:
            roots_by_trace[tid] = roots_by_trace.get(tid, 0) + 1
    for tid, n_spans in spans_by_trace.items():
        if roots_by_trace.get(tid, 0) == 0:
            raise ObservabilityError(
                f"trace {tid!r} has {n_spans} span(s) but no root span"
            )
