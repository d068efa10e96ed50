"""Append this tree's engine benchmark records to ``BENCH_engine.json``.

Runs ``perfbench/run.py`` on each of its four workloads, once with
``--trace 0`` (end-to-end metrics) and once with ``--trace 1``
(per-layer metrics), at seed 0 for 15 seconds each.  Every run adds one
object to the JSON array in ``BENCH_engine.json``: perfbench's
``record`` line merged with its result line (``correct``,
``attempted``, ``failed`` and the named ``metrics``).  ``git_sha`` is
the commit checked out; ``src_sha256`` names the measured source, also
when the working tree has uncommitted changes.

Usage: ``python3 scripts/ledger.py`` (``make ledger``), from the root of
a checkout; it takes about eight minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LEDGER = ROOT / "BENCH_engine.json"
WORKLOADS = ("fig9_cold", "fig10_cold", "figs_warm", "svc_mixed")
SEED = 0
SECONDS = 15


def run(workload: str, trace: int) -> dict:
    """One perfbench run as a ledger entry."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    record = json.loads(next(
        line for line in out if line.startswith("record ")
    ).removeprefix("record "))
    result = json.loads(out[-1])
    result["metrics"] = {
        name: metric["value"] for name, metric in result["metrics"].items()
    }
    return {**record, **result}


def main() -> int:
    history = json.loads(LEDGER.read_text(encoding="utf-8")) if LEDGER.exists() else []
    for workload in WORKLOADS:
        for trace in (0, 1):
            entry = run(workload, trace)
            history.append(entry)
            print(f"{workload} --trace {trace}: correct={entry['correct']} "
                  f"ops={entry['attempted']} failed={entry['failed']}")
            # Written after every run, so an interrupted ledger keeps
            # the runs that finished.
            LEDGER.write_text(
                json.dumps(history, indent=2, sort_keys=True) + "\n",
                encoding="utf-8",
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
