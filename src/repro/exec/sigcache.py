"""On-disk memoization of collected application signatures.

Collection is fully deterministic: the trace produced for ``(app,
n_ranks, hierarchy, CollectorConfig, rng root seed)`` never changes, so
re-collecting it — the dominant cost of every experiment and benchmark
— is pure waste.  This cache stores pickled
:class:`~repro.trace.signature.ApplicationSignature` objects keyed by a
SHA-256 digest of the full determinism surface plus a schema version
(bump :data:`SCHEMA_VERSION` whenever collection semantics change and
every old entry invalidates itself).

Keys are built from ``repr`` of frozen dataclasses, which is stable
across processes.  Anything whose repr embeds a memory address (the
``object`` default) is *uncacheable*: the cache refuses to key it
rather than silently never hitting, and counts the refusal in
:class:`CacheStats`.

Entries live in a :class:`repro.store.Store` (``<root>/<key[:2]>/
<key>.pkl``, atomic commits) and are **corruption-safe**: each file
frames the pickled payload with a magic header and a SHA-256 content
digest, verified on every read.  A truncated, bit-flipped, garbage, or
pre-digest (legacy) file is never an error and never deleted silently —
the store moves it to ``quarantine/`` for post-mortem, it is counted in
``CacheStats.corrupt``, and the caller sees an ordinary miss, so
pipeline code recollects and repairs the entry automatically.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from pathlib import Path
from typing import Optional, Union

from repro.exec import faults
from repro.obs.metrics import Tally
from repro.store import Store
from repro.util.errors import CacheCorruptionError
from repro.util.rng import DEFAULT_ROOT_SEED

#: bump when collection output semantics change; invalidates all entries
#: (2: digest-framed entry format)
SCHEMA_VERSION = 2

#: environment override for the cache directory
ENV_CACHE_ROOT = "REPRO_SIGNATURE_CACHE"

#: entry framing: magic, 64 hex digest chars, newline, pickled payload
ENTRY_MAGIC = b"repro-sig\x00v2\n"


def _stable_token(obj) -> Optional[str]:
    """``repr(obj)`` when stable across processes, else ``None``."""
    text = repr(obj)
    if " at 0x" in text:
        return None
    return text


def app_token(app) -> Optional[str]:
    """Canonical description of an app proxy's identity.

    App proxies carry their entire configuration in instance attributes
    (frozen params dataclass + scaling mode), so the class name plus
    sorted attribute reprs pin down collection output exactly.
    """
    parts = [type(app).__name__, getattr(app, "name", "?")]
    for attr, value in sorted(vars(app).items()):
        token = _stable_token(value)
        if token is None:
            return None
        parts.append(f"{attr}={token}")
    return ";".join(parts)


class CacheStats(
    Tally("cache", ("hits", "misses", "stores", "uncacheable", "corrupt"))
):
    """Counters for one cache instance's lifetime, mirrored into the
    metrics registry as ``cache.<name>``, so the ``--metrics-out``
    export always agrees with this summary."""


class SignatureCache:
    """Directory of pickled signatures, one file per key.

    The default root is ``$REPRO_SIGNATURE_CACHE`` or
    ``~/.cache/repro/signatures``.  Writes are atomic store commits,
    so concurrent processes can share a cache directory; a racing
    double-store just writes the same bytes twice.
    """

    def __init__(self, root: Union[str, Path, None] = None):
        if root is None:
            root = os.environ.get(ENV_CACHE_ROOT) or (
                Path.home() / ".cache" / "repro" / "signatures"
            )
        self.root = Path(root)
        self.stats = CacheStats()
        self.store = Store(self.root, ".pkl")
        self._report = None

    def bind_report(self, report) -> None:
        """Mirror corruption events into a resilience ``RunReport``."""
        self._report = report

    # ------------------------------------------------------------------
    # keying

    def key_for(
        self,
        app,
        n_ranks: int,
        hierarchy,
        settings,
        *,
        root_seed: int = DEFAULT_ROOT_SEED,
    ) -> Optional[str]:
        """Digest of the collection determinism surface, or ``None``.

        ``None`` means some component has no stable identity (e.g. an
        ad-hoc app object) and the caller must collect uncached.
        """
        app_tok = app_token(app)
        hier_tok = _stable_token(hierarchy)
        ranks_tok = _stable_token(settings.ranks)
        coll_tok = _stable_token(settings.collector)
        if None in (app_tok, hier_tok, ranks_tok, coll_tok):
            self.stats.bump("uncacheable")
            return None
        blob = "\n".join(
            [
                f"schema={SCHEMA_VERSION}",
                f"app={app_tok}",
                f"n_ranks={n_ranks}",
                f"hierarchy={hier_tok}",
                f"ranks={ranks_tok}",
                f"collector={coll_tok}",
                f"root_seed={root_seed}",
            ]
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # storage

    def _read_verified(self, path: Path):
        """Unpickle a digest-framed entry, or raise CacheCorruptionError.

        Every failure mode maps to corruption: missing/short header,
        wrong magic (including pre-digest legacy entries), digest
        mismatch on truncated or bit-flipped payloads, and unpicklable
        payloads (``pickle`` raises nearly arbitrary exceptions on
        garbage bytes — ``UnpicklingError``, ``EOFError``,
        ``AttributeError`` for renamed classes, ``ValueError`` from a
        truncated opcode argument, ...).
        """
        with open(path, "rb") as fh:
            blob = fh.read()
        header_len = len(ENTRY_MAGIC) + 64 + 1
        if len(blob) < header_len or not blob.startswith(ENTRY_MAGIC):
            raise CacheCorruptionError(
                "missing or foreign entry header", stage="cache"
            )
        digest = blob[len(ENTRY_MAGIC):len(ENTRY_MAGIC) + 64]
        payload = blob[header_len:]
        if hashlib.sha256(payload).hexdigest().encode("ascii") != digest:
            raise CacheCorruptionError("content digest mismatch", stage="cache")
        try:
            return pickle.loads(payload)
        except Exception as exc:
            raise CacheCorruptionError(
                f"undigestible payload: {type(exc).__name__}", stage="cache"
            )

    def get(self, key: Optional[str]):
        """Cached signature for ``key``, or ``None`` on any miss.

        Corrupt entries (failed digest, unpicklable, legacy format) are
        quarantined and reported as misses — callers never see an
        exception, they just recollect.
        """
        if key is None:
            return None
        try:
            sig = self._read_verified(self.store.path(key))
        except CacheCorruptionError as exc:
            # moved aside (never deleted), counted, mirrored to the run
            self.stats.bump("corrupt")
            self.store.quarantine(key, str(exc))
            if self._report is not None:
                self._report.bump("cache_corruptions")
                self._report.quarantined.append(key)
                self._report.record(f"quarantined cache entry {key}: {exc}")
            self.stats.bump("misses")
            return None
        except OSError:
            # plain miss: no entry (or unreadable directory)
            self.stats.bump("misses")
            return None
        self.stats.bump("hits")
        return sig

    def put(self, key: Optional[str], signature) -> None:
        """Store ``signature`` under ``key`` atomically (no-op if None)."""
        if key is None:
            return
        payload = pickle.dumps(signature, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        with self.store.commit(key) as tmp:
            tmp.write_bytes(ENTRY_MAGIC + digest + b"\n" + payload)
        self.stats.bump("stores")
        spec = faults.check_store_fault("corrupt", key)
        if spec is not None:
            # injected corruption: truncate the just-published entry so
            # the next read exercises the quarantine path
            entry = self.store.path(key)
            entry.write_bytes(entry.read_bytes()[: max(1, len(payload) // 2)])
