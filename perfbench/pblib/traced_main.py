"""Traced entry point: ``python3 traced_main.py <repro arguments>``.

Installs the layer wrappers of :mod:`pblib.layers`, then runs
``repro.cli.main`` with the given arguments, exactly as ``python3 -m
repro`` would.  Spans go to ``$PERFBENCH_SPANS_DIR``; the run id comes
from ``$PERFBENCH_RUN_ID``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from pblib.layers import install  # noqa: E402
from pblib.spans import Recorder  # noqa: E402


def main() -> int:
    recorder = Recorder(
        os.environ["PERFBENCH_SPANS_DIR"], os.environ.get("PERFBENCH_RUN_ID", "")
    )
    install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(sys.argv[1:])
    finally:
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main())
