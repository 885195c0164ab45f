"""One content-addressed store: layout, commit, quarantine, lock, LRU.

The pipeline's reuse — collect once, fit once, answer many targets —
rests on four content-addressed stores: the signature cache (``.pkl``),
the reuse-profile cache (``.npz``), the model registry (one directory
per model), and the pipeline DAG's node artifacts (``.json``/``.npz``).
They differ only in their payload codec and in how they verify it.
Everything else lives here, once:

- **Layout.**  Entry ``key`` lives at ``<root>/<key[:2]>/<key><ext>``;
  an empty ``ext`` makes the entries directories.  Two-character shard
  directories keep listings short; the housekeeping directories below
  can never collide with a shard.
- **Atomic commit.**  :meth:`Store.commit` builds the entry in a
  pid-unique sibling and renames it into place
  (:mod:`repro.util.atomic`), so a reader sees a complete entry or
  none.
- **Quarantine.**  :meth:`Store.quarantine` moves a corrupt entry to
  ``<root>/quarantine/<key>-<n><ext>``.  Quarantined bytes are never
  deleted: they are the post-mortem.
- **Lock.**  :meth:`Store.try_lock` is an ``O_CREAT|O_EXCL`` lockfile
  at ``<root>/locks/<key>.lock``; one older than ``lock_stale_s`` is
  presumed abandoned by a crashed holder and taken over.
- **Memory tier.**  An optional in-memory LRU of decoded values in
  front of the disk (``mem_entries``; 0 disables it).

Counters go to the consumer's :func:`~repro.obs.metrics.Tally`: the
store bumps each event (``mem_hits``, ``disk_hits``, ``misses``,
``stores``, ``evictions``, ``quarantined``, ``lock_waits``,
``lock_takeovers``) only when that tally has a field of that name, so
each consumer keeps exactly the counter names it always exported.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, List, Optional, Union

from repro.obs.log import get_logger
from repro.util.atomic import atomic_dir, atomic_writer

log = get_logger("store")

QUARANTINE_DIR = "quarantine"
LOCKS_DIR = "locks"


class LockTimeout(Exception):
    """:meth:`Store.acquire` waited ``wait_s`` without getting the lock."""


class Store:
    """A content-addressed directory of entries of one extension.

    ``root=None`` keeps only the memory tier (tests, embedded use):
    lookups past memory miss and nothing touches disk.
    """

    def __init__(
        self,
        root: Union[str, Path, None],
        ext: str = "",
        *,
        stats=None,
        mem_entries: int = 0,
        lock_stale_s: float = 30.0,
    ):
        self.root = Path(root) if root is not None else None
        self.ext = ext
        self.stats = stats
        self.mem_entries = mem_entries
        self.lock_stale_s = lock_stale_s
        self._counted = frozenset(stats.COUNTER_FIELDS if stats else ())
        self._mem: "OrderedDict[str, Any]" = OrderedDict()

    def _bump(self, event: str) -> None:
        if event in self._counted:
            self.stats.bump(event)

    # -- layout ---------------------------------------------------------

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{self.ext}"

    def exists(self, key: str) -> bool:
        return self.root is not None and self.path(key).exists()

    def keys(self) -> List[str]:
        """Keys of every committed disk entry (quarantine excluded)."""
        if self.root is None:
            return []
        n = len(self.ext)
        found = []
        for path in self.root.glob(f"??/*{self.ext}"):
            key = path.name[:-n] if n else path.name
            # skip in-flight temporaries (.tmp-<pid>-...), other
            # extensions sharing the root, and strays
            if "." not in key and key[:2] == path.parent.name:
                found.append(key)
        return sorted(found)

    # -- memory tier ----------------------------------------------------

    def recall(self, key: str) -> Optional[Any]:
        """The memory-tier value of ``key`` (refreshing it), or None."""
        value = self._mem.get(key)
        if value is not None:
            self._mem.move_to_end(key)
        return value

    def remember(self, key: str, value: Any) -> None:
        if not self.mem_entries:
            return
        self._mem[key] = value
        self._mem.move_to_end(key)
        while len(self._mem) > self.mem_entries:
            self._mem.popitem(last=False)
            self._bump("evictions")

    def mem_keys(self) -> List[str]:
        return list(self._mem)

    def forget(self, key: str) -> None:
        self._mem.pop(key, None)

    def clear_memory(self) -> None:
        self._mem.clear()

    # -- read / write ---------------------------------------------------

    def load(self, key: str, decode: Callable[[Path], Any]) -> Optional[Any]:
        """Memory tier, then ``decode(path)``; None on any miss.

        Any exception from ``decode`` means the entry is corrupt: it is
        quarantined and the lookup is a miss, so the caller recomputes.
        """
        value = self.recall(key)
        if value is not None:
            self._bump("mem_hits")
            return value
        if self.exists(key):
            try:
                value = decode(self.path(key))
            except Exception as exc:  # noqa: BLE001 - any decode failure
                if self.exists(key):  # else it raced away: a plain miss
                    self.quarantine(key, f"{type(exc).__name__}: {exc}")
            else:
                self._bump("disk_hits")
                self.remember(key, value)
                return value
        self._bump("misses")
        return None

    @contextmanager
    def commit(self, key: str) -> Iterator[Path]:
        """Yield a temporary path; publish it as ``key`` on clean exit.

        The body writes a file there (or fills a directory, for an
        empty ``ext``).  On an exception nothing is published.
        """
        writer = atomic_dir if not self.ext else atomic_writer
        with writer(self.path(key)) as tmp:
            yield tmp

    def save(self, key: str, value: Any, encode: Callable[[Any, Path], None]):
        """Commit ``encode(value, tmp)`` (with a root), then remember it."""
        if self.root is not None:
            with self.commit(key) as tmp:
                encode(value, tmp)
        self.remember(key, value)
        self._bump("stores")

    # -- quarantine -----------------------------------------------------

    def quarantine(self, key: str, reason: str) -> Optional[Path]:
        """Move a corrupt entry aside, never deleting it.

        Returns the quarantine path, or None when the entry could not be
        moved (another process moved it first).
        """
        self.forget(key)
        qdir = self.root / QUARANTINE_DIR
        qdir.mkdir(parents=True, exist_ok=True)
        n = 0
        while (qdir / f"{key}-{n}{self.ext}").exists():
            n += 1
        dest = qdir / f"{key}-{n}{self.ext}"
        try:
            os.replace(self.path(key), dest)
        except OSError:
            return None
        self._bump("quarantined")
        log.warning("quarantined %s -> %s: %s", key[:12], dest, reason)
        return dest

    def quarantined_keys(self) -> List[str]:
        """Keys with at least one quarantined copy (diagnostics)."""
        if self.root is None:
            return []
        n = len(self.ext)
        return sorted({
            (p.name[:-n] if n else p.name).rsplit("-", 1)[0]
            for p in (self.root / QUARANTINE_DIR).glob(f"*{self.ext}")
        })

    # -- lock -----------------------------------------------------------

    def lock_path(self, key: str) -> Path:
        return self.root / LOCKS_DIR / f"{key}.lock"

    def try_lock(self, key: str) -> bool:
        """Take ``key``'s lockfile; False = somebody else holds it.

        A lock older than ``lock_stale_s`` is presumed abandoned and
        removed (counted as a takeover); this call still returns False
        so the caller's next poll acquires it.
        """
        path = self.lock_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                age = time.time() - path.stat().st_mtime
            except OSError:
                return False  # holder released between checks; re-poll
            if age > self.lock_stale_s:
                try:
                    os.remove(path)
                except OSError:  # pragma: no cover - lost the takeover race
                    pass
                else:
                    self._bump("lock_takeovers")
                    log.warning(
                        "took over stale lock %s (age %.1fs)", key[:12], age
                    )
            return False
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{os.getpid()} {time.time():.6f}\n")
        return True

    def acquire(
        self,
        key: str,
        *,
        poll_s: float,
        done: Callable[[], bool],
        wait_s: float = float("inf"),
    ) -> bool:
        """Poll for ``key``'s lock; True once held.

        Returns False instead when ``done()`` reports, between polls,
        that another holder already produced the entry.  Raises
        :class:`LockTimeout` after ``wait_s`` seconds of polling.
        """
        waited = 0.0
        while not self.try_lock(key):
            self._bump("lock_waits")
            time.sleep(poll_s)
            waited += poll_s
            if done():
                return False
            if waited >= wait_s:
                raise LockTimeout(key)
        return True

    def unlock(self, key: str) -> None:
        try:
            os.remove(self.lock_path(key))
        except OSError:  # pragma: no cover - already taken over
            pass

    def plant_stale_lock(self, key: str) -> None:
        """``stale-lock`` fault: materialize a dead holder's lockfile."""
        path = self.lock_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("0 0.0\n")
        stale = time.time() - self.lock_stale_s - 60.0
        os.utime(path, (stale, stale))
