"""Resolve every function the benchmark wraps against the source tree.

``perfbench/pblib/layers.py`` times the program's layers by rebinding
the functions its ``WRAPS`` table names (``"module:qualname"``).  A
rename in ``src/`` leaves that table pointing at nothing, and the traced
benchmark run (``perfbench/run.py --trace 1``) fails.  CI runs::

    PYTHONPATH=src python tests/check_perfbench_wraps.py

Each target must import, and its function must be defined right where
the table says: in the module's namespace, or in the class ``__dict__``
for a method (an inherited method would be wrapped on the wrong class).
Exit status 0 when every target resolves, 1 otherwise (one line per
broken target on stderr).
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path
from typing import List

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def broken_targets() -> List[str]:
    """The ``WRAPS`` targets that do not resolve, with the reason."""
    sys.path.insert(0, str(PERFBENCH))
    from pblib.layers import WRAPS

    problems = []
    for _name, target, _attrs in WRAPS:
        mod_name, qualname = target.split(":")
        try:
            owner = importlib.import_module(mod_name)
        except ImportError as exc:
            problems.append(f"{target}: {exc}")
            continue
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or attr not in vars(owner):
            problems.append(f"{target}: not defined there")
    return problems


def main() -> int:
    problems = broken_targets()
    for line in problems:
        print(line, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
