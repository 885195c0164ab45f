"""The DAG state store: an append-only JSONL record of node states.

``repro dag run`` commits each node's state (``done`` with its artifact
sha256, or ``failed`` with the error) as one JSON line,
``{"unit": <node key>, "meta": {...}}``, written with flush+fsync.  The
store stays append-only: a node whose state changes (a retry or re-run
succeeding after a failure) gets a fresh record, and the latest record
per unit wins on load.

A torn final line — a writer killed mid-append — is skipped on load,
so the store is readable after a kill at any instant and a committed
record is never lost.  Several processes may append to one store
(O_APPEND writes of whole lines); :meth:`RunJournal.refresh` folds in
what the others committed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional, Union

from repro.obs.log import get_logger

log = get_logger("pipeline.journal")


class RunJournal:
    """Append-only state store for one DAG root.

    ``resume=False`` (a fresh run) truncates any stale store at the
    same path; ``resume=True`` loads it.
    """

    def __init__(self, path: Union[str, Path], *, resume: bool = False):
        self.path = Path(path)
        self.resume = resume
        self._meta: dict = {}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if resume and self.path.exists():
            self._load()
        self._fh = open(self.path, "a" if resume else "w", encoding="utf-8")

    def _load(self) -> None:
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    unit = entry["unit"]
                except (ValueError, KeyError, TypeError):
                    # torn tail line from a killed writer: the record was
                    # not committed, so its node is simply redone
                    continue
                # latest record wins: an :meth:`amend` written after an
                # earlier record replaces its metadata on reload
                self._meta[unit] = entry.get("meta")

    def refresh(self) -> None:
        """Re-read the file, folding in records other processes appended.

        The cross-process primitive behind shared DAG state stores: two
        ``repro dag run`` processes append to the same store, and a
        reader refreshes to observe the other writer's committed nodes.
        Torn tails are skipped exactly as on load.
        """
        if self.path.exists():
            self._load()

    def meta(self, unit: str) -> Optional[dict]:
        """The latest metadata committed with ``unit`` (None when absent)."""
        return self._meta.get(unit)

    def metas(self) -> dict:
        """Snapshot of every unit's latest metadata (unit -> meta|None)."""
        return dict(self._meta)

    def amend(self, unit: str, **meta) -> None:
        """Durably commit ``unit`` with *replacement* metadata.

        Appends a fresh record (flush + fsync); recovery takes the
        latest record per unit, so a unit's state can change over a
        run's lifetime — the DAG uses this for ``failed`` → ``done``
        transitions when a retry or re-run succeeds.
        """
        entry = {"unit": unit}
        if meta:
            entry["meta"] = meta
        self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._meta[unit] = meta or None
        log.debug("state committed: %s", unit)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RunJournal(path={str(self.path)!r}, resume={self.resume}, "
            f"units={len(self._meta)})"
        )
