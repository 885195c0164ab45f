"""Checkpoint journal: resumable multi-unit pipeline runs.

A long collection sweep (Table I, what-if campaigns) is a series of
independent *units* — one ``(app, core count)`` collection each.  The
journal is an append-only JSONL file, one line per completed unit,
living next to the signature cache (or wherever ``--checkpoint-dir``
points).  Killing a run mid-sweep loses at most the in-flight units:
re-invoking with ``--resume`` skips every journaled unit (its payload
is served by the signature cache) and re-collects only the rest.

The journal records *bookkeeping*, the cache records *data*.  A
journaled unit whose cache entry has vanished (cleared or quarantined
cache) is simply re-collected — resume can never produce results that
differ from a fresh run, because collection is a pure function of its
configuration.

Lines are written with flush+fsync before a unit is considered
committed, and a torn final line (the crash case) is ignored on load.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Optional, Union

from repro.obs.log import get_logger
from repro.obs.metrics import Tally

log = get_logger("pipeline.journal")


def unit_key(*parts) -> str:
    """Canonical ``:``-joined unit name, e.g. ``collect:jacobi:bw:16``."""
    return ":".join(str(p) for p in parts)


class JournalStats(Tally("journal", ("resumed", "marked", "amended"))):
    """Counters for one journal instance's lifetime: units ``resumed``
    (skipped because a previous run completed them), ``marked`` (newly
    committed by this run) and ``amended`` (re-committed with
    replacement metadata)."""


class RunJournal:
    """Append-only completion journal for one logical run.

    ``resume=False`` (a fresh run) truncates any stale journal at the
    same path; ``resume=True`` loads it and lets :meth:`skip` answer
    "already done?".
    """

    def __init__(self, path: Union[str, Path], *, resume: bool = False):
        self.path = Path(path)
        self.resume = resume
        self.stats = JournalStats()
        self._done = set()
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
                    # torn tail line from a killed writer: the unit was
                    # not committed, so it is simply redone
                    continue
                self._done.add(unit)
                # latest record wins: an :meth:`amend` written after the
                # original mark replaces its metadata on reload
                self._meta[unit] = entry.get("meta")

    def refresh(self) -> None:
        """Re-read the file, folding in records other processes appended.

        The cross-process primitive behind shared DAG state stores: two
        ``repro dag run`` processes append to the same journal (O_APPEND
        writes of whole lines), and a reader refreshes to observe the
        other writer's committed units.  Torn tails are skipped exactly
        as on load.
        """
        if self.path.exists():
            self._load()

    # ------------------------------------------------------------------

    @property
    def completed(self) -> frozenset:
        return frozenset(self._done)

    def done(self, unit: str) -> bool:
        return unit in self._done

    def skip(self, unit: str) -> bool:
        """True (and counted) when ``unit`` finished in a previous run."""
        if unit in self._done:
            self.stats.bump("resumed")
            log.debug("resume skip: %s", unit)
            return True
        return False

    def meta(self, unit: str) -> Optional[dict]:
        """The latest metadata committed with ``unit`` (None when bare)."""
        return self._meta.get(unit)

    def metas(self) -> dict:
        """Snapshot of every unit's latest metadata (unit -> meta|None)."""
        return dict(self._meta)

    def _append(self, unit: str, meta: dict) -> None:
        entry = {"unit": unit}
        if meta:
            entry["meta"] = meta
        self._fh.write(json.dumps(entry, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._done.add(unit)
        self._meta[unit] = meta or None

    def mark(self, unit: str, **meta) -> None:
        """Commit ``unit`` as complete (durably: flush + fsync)."""
        if unit in self._done:
            return
        self._append(unit, meta)
        self.stats.bump("marked")
        log.debug("journaled: %s", unit)

    def amend(self, unit: str, **meta) -> None:
        """Commit ``unit`` with *replacement* metadata, even if done.

        Appends a fresh record (the store stays append-only; recovery
        takes the latest record per unit), so a unit's state can change
        over a run's lifetime — the DAG uses this for ``failed`` →
        ``done`` transitions when a retry or re-run succeeds.
        """
        self._append(unit, meta)
        self.stats.bump("amended")
        log.debug("journal amended: %s", unit)

    def mark_many(self, units: Iterable[str]) -> None:
        for unit in units:
            self.mark(unit)

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
            f"completed={len(self._done)})"
        )


def default_journal_path(
    checkpoint_dir: Union[str, Path], run_name: str
) -> Path:
    """Journal file path for a named run under a checkpoint directory."""
    safe = "".join(c if (c.isalnum() or c in "-_.") else "-" for c in run_name)
    return Path(checkpoint_dir) / f"{safe}.jsonl"


def make_journal(
    checkpoint_dir: Optional[Union[str, Path]],
    run_name: str,
    *,
    resume: bool = False,
) -> Optional[RunJournal]:
    """Build a journal when checkpointing is requested, else ``None``."""
    if checkpoint_dir is None:
        return None
    return RunJournal(default_journal_path(checkpoint_dir, run_name), resume=resume)
