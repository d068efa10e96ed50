"""Cross-process trace stitching: worker spans merged into one tree.

The engine's worker pool and remote ``repro worker`` hosts evaluate
cells in other processes, where the parent's
:class:`~repro.obs.trace.Tracer` does not exist.  To keep one trace
across the boundary:

1. the engine captures a picklable :class:`TraceContext` — its trace id
   plus the open ``engine.map`` span id as an *anchor* — and hands it to
   every chunk it sends away;
2. the chunk runs under the context's in-memory :meth:`TraceContext.tracer`
   (``engine.worker`` / ``cell.evaluate`` spans, plus ``worker.evaluate``
   on a remote host), whose stack-root spans are parented to the anchor,
   and its records travel back with the chunk's result;
3. after the run, the engine calls :func:`stitch_records` to keep the
   records whose parent chain reaches the anchor and adopts them into
   the parent trace.

:func:`validate_parentage` is the cross-process acceptance check:
schema validity plus every-trace-has-a-root, run over a stitched file.
"""

from __future__ import annotations

import logging
import uuid
from dataclasses import dataclass

from repro.errors import ObservabilityError
from repro.obs.schema import validate_record, validate_trace
from repro.obs.trace import Tracer

_LOG = logging.getLogger("repro.obs.stitch")


@dataclass(frozen=True)
class TraceContext:
    """Picklable handle tying worker-side spans to a parent trace.

    ``parent_id`` is the span id worker stack-roots attach to (the
    engine's open ``engine.map`` span, or a service request span).
    """

    trace_id: str
    parent_id: str | None = None

    def tracer(self) -> Tracer:
        """An in-memory tracer for one chunk evaluation in this trace.

        Its stack-root spans are parented to ``parent_id``.  The id
        prefix is unique per tracer (not merely per process: a pool
        worker evaluates many chunks, each with its own tracer counting
        ids from 1) so merged ids never collide with each other or with
        the parent's ``s…`` ids.
        """
        return Tracer(
            None,
            trace_id=self.trace_id,
            id_prefix=f"w{uuid.uuid4().hex[:8]}-",
            root_parent=self.parent_id,
        )


def stitch_records(records: list, context: TraceContext) -> tuple[list[dict], int]:
    """The worker records that join ``context``'s tree, and how many not.

    A record is kept when it is a well-formed span or event of the
    context's trace whose parent chain reaches the anchor
    (``context.parent_id``).  Pool workers only return the closed spans
    of a finished chunk, so theirs always pass; records from remote
    hosts are outside input, and anything malformed, of another trace
    or floating outside the anchor's tree is dropped and counted, so
    the merged file still passes :func:`validate_parentage`.  Kept
    records stay in their input order.
    """
    candidates: list[dict] = []
    for record in records:
        if not isinstance(record, dict) or record.get("trace_id") != context.trace_id:
            continue
        try:
            validate_record(record)
        except ObservabilityError:
            continue
        candidates.append(record)
    anchor = context.parent_id
    resolved = {anchor}
    pending = candidates
    # Children are written before parents, so resolution is iterative:
    # keep resolving spans whose parent is already resolved.
    while True:
        still: list[dict] = []
        for record in pending:
            if record["parent"] not in resolved:
                still.append(record)
            elif record["record"] == "span":
                resolved.add(record["id"])
        if len(still) == len(pending):
            break
        pending = still
    kept = [r for r in candidates if r["parent"] in resolved and r["id"] != anchor]
    dropped = len(records) - len(kept)
    if dropped:
        _LOG.warning(
            "dropped %d of %d worker span record(s) that do not join "
            "trace %s under span %s",
            dropped, len(records), context.trace_id, context.parent_id,
        )
    return kept, dropped


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
