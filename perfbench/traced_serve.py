"""Run ``repro serve`` with the benchmark's layer wrappers installed.

Usage: ``python perfbench/traced_serve.py SPANS_OUT serve [serve args]``

The server runs exactly as ``python -m repro serve`` would.  SIGUSR1
toggles recording, so ``run.py`` can alternate traced and untraced
stretches against one server; spans stay in memory and are written to
``SPANS_OUT`` once the server has drained after SIGTERM/SIGINT.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from layers import SpanLog, install  # noqa: E402


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main

    spans_out, *serve_args = argv
    log = SpanLog(enabled=False)
    install(log)

    def toggle(signum: int, frame: object) -> None:
        log.enabled = not log.enabled

    signal.signal(signal.SIGUSR1, toggle)
    try:
        return repro_main(serve_args)
    finally:
        log.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
