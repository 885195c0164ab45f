"""Fitted-model registry: fit once, answer forever.

A *model* is everything needed to answer extrapolation queries without
touching the training pipeline again: the batched fit matrices
(:class:`~repro.core.batchfit.BatchFitResult` behind a
:class:`~repro.core.fitting.BatchedFitReport`) plus the synthesis
template trace.  Models are keyed by a SHA-256 **content digest** of
their identity — application, machine, training core counts, cache
engine, canonical-form set, and the code version that fitted them (the
same ``git_sha`` the run manifest records) — so a registry can never
serve a stale fit for changed inputs: a different identity is a
different digest is a different entry.

Persistence is mmap-friendly: each model lives in its own
``<digest>/`` directory holding one bare ``.npy`` file per fit matrix
(``np.load(mmap_mode="r")`` only maps bare ``.npy`` files, not ``.npz``
members), the template as a normal trace ``.npz``, and a ``meta.json``
carrying the spec and array manifest.  A warm serving process therefore
pages in only the matrix rows a query batch actually touches.

Both tiers are one :class:`repro.store.Store` of directory entries: an
in-memory LRU (per-tier hit/miss/eviction counters exported as
``serve.registry.*`` metrics) over ``<root>/<digest[:2]>/<digest>/``,
committed atomically, so a crashed writer never leaves a half-model
loadable.  What stays here is the payload codec and its verification,
plus two policies only the registry needs:

- every entry carries a ``files`` manifest (byte size + sha256 per
  artifact); a load that fails the size check — or fails to parse at
  all — is quarantined by the store (``<root>/quarantine/``, never
  deleted) and reported as a **miss**, so ``get_or_fit`` transparently
  refits.  Corruption never surfaces to serving code as an exception;
- an optional **size budget** (``budget_mb``) garbage-collects
  least-recently-used entries after each store: access time lives in a
  per-entry ``atime`` sidecar (touched on every disk hit, so GC order
  is usage order, not store order), deletes are rename-then-remove so
  a concurrent reader never sees a half-deleted entry;
- ``get_or_fit`` takes the store's per-digest **lock** before fitting,
  so concurrent processes asked for the same model fit it once: the
  loser polls, then loads the winner's artifact (a lock older than
  ``lock_stale_s`` is taken over — a crashed fitter cannot wedge the
  registry).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cache.engine import ENGINE_NAMES
from repro.exec import faults
from repro.core.canonical import FORM_SETS
from repro.core.extrapolate import fit_traces, synthesize_from_prediction
from repro.core.fitting import BatchedFitReport, SweepPrediction
from repro.obs.log import get_logger
from repro.obs.manifest import default_code_version
from repro.obs.metrics import REGISTRY, Tally
from repro.obs.trace import span
from repro.store import Store
from repro.trace.tracefile import TraceFile
from repro.util.errors import ServeError

SCHEMA_VERSION = 1

log = get_logger("serve.registry")

#: per-entry access-time sidecar (excluded from the files manifest:
#: it mutates on every read)
ATIME_FILE = "atime"

#: fault-plan ``feature`` → the entry file a ``corrupt-model-entry``
#: spec truncates
FAULT_FILES = {"meta": "meta.json", "matrix": "Y.npy", "template": "template.npz"}

#: fit matrices consulted per lookup, loaded eagerly (the rest stay
#: memory-mapped)
_EAGER_ARRAYS = ("x", "n_candidates")


@dataclass(frozen=True)
class ModelSpec:
    """Identity of one fitted model — everything the fit depends on.

    ``train_counts`` are canonicalized (sorted, deduplicated) so the
    digest is insensitive to argument order.  ``code_version`` defaults
    to the current checkout's ``git_sha`` — pass it explicitly to query
    for a model fitted by an older build.
    """

    app: str
    machine: str = "blue_waters_p1"
    train_counts: Tuple[int, ...] = (64, 128, 256)
    cache_engine: str = "exact"
    forms: str = "paper"
    code_version: str = field(default_factory=default_code_version)

    def __post_init__(self):
        counts = tuple(sorted({int(c) for c in self.train_counts}))
        object.__setattr__(self, "train_counts", counts)
        if len(counts) < 2:
            raise ServeError(
                f"need at least 2 training counts, got {list(counts)}",
                stage="serve",
            )
        if self.cache_engine not in ENGINE_NAMES:
            raise ServeError(
                f"unknown cache engine {self.cache_engine!r}; "
                f"known engines: {ENGINE_NAMES}",
                stage="serve",
            )
        if self.forms not in FORM_SETS:
            raise ServeError(
                f"unknown form set {self.forms!r}; "
                f"known sets: {sorted(FORM_SETS)}",
                stage="serve",
            )

    def digest(self) -> str:
        """Content digest over the canonical identity tokens."""
        h = hashlib.sha256()
        for token in (
            f"v{SCHEMA_VERSION}",
            self.app,
            self.machine,
            ",".join(str(c) for c in self.train_counts),
            self.cache_engine,
            self.forms,
            self.code_version,
        ):
            h.update(token.encode("utf-8"))
            h.update(b"\x00")
        return h.hexdigest()

    def describe(self) -> str:
        return (
            f"{self.app}@{self.machine} train={list(self.train_counts)} "
            f"engine={self.cache_engine} forms={self.forms} "
            f"code={self.code_version[:12]}"
        )

    def to_dict(self) -> dict:
        return {
            "app": self.app,
            "machine": self.machine,
            "train_counts": list(self.train_counts),
            "cache_engine": self.cache_engine,
            "forms": self.forms,
            "code_version": self.code_version,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelSpec":
        return cls(
            app=doc["app"],
            machine=doc["machine"],
            train_counts=tuple(doc["train_counts"]),
            cache_engine=doc["cache_engine"],
            forms=doc["forms"],
            code_version=doc["code_version"],
        )


@dataclass
class FittedModel:
    """One registry entry: spec + fit report + synthesis template."""

    spec: ModelSpec
    report: BatchedFitReport
    template: TraceFile

    @property
    def digest(self) -> str:
        return self.spec.digest()

    def predict(
        self, targets: Sequence[int], *, rate_trust_factor: float = 2.0
    ) -> SweepPrediction:
        """Vectorized multi-target sweep (one array pass, no re-fit)."""
        return self.report.predict_many(
            targets, rate_trust_factor=rate_trust_factor
        )

    def synthesize(
        self,
        target: int,
        *,
        prediction: Optional[SweepPrediction] = None,
        rate_trust_factor: float = 2.0,
    ) -> TraceFile:
        """The synthetic trace of one target (for runtime replay)."""
        if prediction is None or target not in prediction.targets:
            prediction = self.predict(
                [target], rate_trust_factor=rate_trust_factor
            )
        return synthesize_from_prediction(self.template, prediction, target)


def fit_model(spec: ModelSpec, *, config=None, report=None) -> FittedModel:
    """Train the model a spec describes, through the pipeline's own path.

    Collection runs with the spec's cache engine (exact LRU replay or
    analytical reuse-distance), fitting through
    :func:`repro.core.extrapolate.fit_traces` on the batched engine —
    the identical code the offline sweep API uses, so served answers are
    bit-identical to what a fresh ``extrapolate_trace_many`` would
    produce.
    """
    # local imports: keep registry loading cheap and cycle-free
    from repro.apps.registry import get_app
    from repro.instrument.collector import CollectorConfig
    from repro.pipeline.collect import CollectionSettings
    from repro.pipeline.experiment import Table1Config, collect_training_traces

    if config is None:
        config = Table1Config(
            machine=spec.machine,
            collection=CollectionSettings(
                collector=CollectorConfig(engine=spec.cache_engine)
            ),
        )
    app = get_app(spec.app)
    with span("serve.fit", app=spec.app, counts=len(spec.train_counts)):
        traces = collect_training_traces(
            app, list(spec.train_counts), config, report=report
        )
        fit_report, template = fit_traces(
            traces, forms=FORM_SETS[spec.forms], engine="batched"
        )
    if not isinstance(fit_report, BatchedFitReport):
        raise ServeError(
            "registry models require the batched fitting engine",
            stage="serve",
        )
    return FittedModel(spec=spec, report=fit_report, template=template)


class RegistryStats(
    Tally("serve.registry", (
        "mem_hits", "disk_hits", "misses", "stores", "evictions", "fits",
        "quarantined", "gc_evictions", "lock_waits", "lock_takeovers",
    ))
):
    """Tiered hit/miss tallies, mirrored into ``serve.registry.*``."""

    def hit_rate(self) -> float:
        """Fraction of lookups served by either tier (mem or disk)."""
        lookups = self.mem_hits + self.disk_hits + self.misses
        if not lookups:
            return 0.0
        return (self.mem_hits + self.disk_hits) / lookups


class ModelRegistry:
    """Two-tier store of fitted models: in-memory LRU over a disk tree.

    ``root=None`` keeps everything in memory (tests, embedded use); with
    a root directory, :meth:`put` persists and :meth:`get` falls back to
    disk on a memory miss, loading fit matrices with
    ``np.load(mmap_mode="r")`` so a big registry costs page-cache, not
    heap.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]] = None,
        *,
        mem_entries: int = 8,
        budget_mb: Optional[float] = None,
        lock_stale_s: float = 30.0,
        lock_poll_s: float = 0.05,
    ):
        if mem_entries < 1:
            raise ServeError(
                f"mem_entries must be >= 1, got {mem_entries}", stage="serve"
            )
        if budget_mb is not None and not budget_mb > 0:
            raise ServeError(
                f"registry budget must be positive, got {budget_mb}",
                stage="serve",
            )
        self.root = Path(root) if root is not None else None
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
        self.budget_mb = budget_mb
        self.lock_poll_s = lock_poll_s
        self.stats = RegistryStats()
        self.store = Store(
            self.root, stats=self.stats, mem_entries=mem_entries,
            lock_stale_s=lock_stale_s,
        )

    @staticmethod
    def _digest_of(key: Union[str, ModelSpec]) -> str:
        return key.digest() if isinstance(key, ModelSpec) else str(key)

    # -- public API -----------------------------------------------------

    def __contains__(self, key: Union[str, ModelSpec]) -> bool:
        digest = self._digest_of(key)
        return digest in self.store.mem_keys() or self.store.exists(digest)

    def __len__(self) -> int:
        return len(self.digests())

    def digests(self) -> List[str]:
        """Every digest the registry can answer for (both tiers)."""
        return sorted(set(self.store.mem_keys()) | set(self.store.keys()))

    def get(self, key: Union[str, ModelSpec]) -> Optional[FittedModel]:
        # self-healing: a corrupt entry is a quarantine + miss, never an
        # exception surfaced to serving code
        model = self.store.load(self._digest_of(key), self._load_dir)
        REGISTRY.set_gauge("serve.registry.hit_rate", self.stats.hit_rate())
        REGISTRY.set_gauge(
            "serve.registry.mem_entries", len(self.store.mem_keys())
        )
        return model

    def put(self, model: FittedModel) -> str:
        digest = model.digest
        self.store.save(digest, model, self._store_dir)
        REGISTRY.set_gauge(
            "serve.registry.mem_entries", len(self.store.mem_keys())
        )
        if self.root is not None:
            spec_fault = faults.check_store_fault("corrupt-model-entry", digest)
            if spec_fault is not None:
                self._truncate_entry(digest, spec_fault.feature)
            if self.budget_mb is not None:
                self._gc(protect=digest)
        return digest

    def get_or_fit(
        self, spec: ModelSpec, *, config=None, report=None
    ) -> FittedModel:
        """Answer from either tier, fitting (and persisting) on a miss.

        With a disk root, the fit runs under the store's per-digest
        lock: a second process asked for the same model waits for the
        first and loads its artifact instead of re-fitting.
        """
        model = self.get(spec)
        if model is not None:
            return model
        if self.root is None:
            return self._fit_and_put(spec, config=config, report=report)
        digest = spec.digest()
        waited: List[FittedModel] = []

        def winner_stored() -> bool:
            waited.extend(m for m in [self.get(spec)] if m is not None)
            return bool(waited)

        if not self.store.acquire(
            digest, poll_s=self.lock_poll_s, done=winner_stored
        ):
            return waited[0]
        try:
            # double-check under the lock: the previous holder may have
            # stored the artifact while we waited
            model = self.get(spec)
            if model is not None:
                return model
            return self._fit_and_put(spec, config=config, report=report)
        finally:
            self.store.unlock(digest)

    def _fit_and_put(self, spec, *, config=None, report=None) -> FittedModel:
        model = fit_model(spec, config=config, report=report)
        self.stats.bump("fits")
        self.put(model)
        return model

    def clear_memory(self) -> None:
        """Drop the memory tier (disk survives) — cold-start testing."""
        self.store.clear_memory()

    def quarantined_digests(self) -> List[str]:
        """Digests with at least one quarantined copy (diagnostics)."""
        return self.store.quarantined_keys()

    def _truncate_entry(self, digest: str, feature: str) -> None:
        """Apply one injected ``corrupt-model-entry`` fault in place."""
        name = FAULT_FILES.get(feature, "meta.json")
        path = self.store.path(digest) / name
        try:
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
        except OSError:  # pragma: no cover - entry raced away
            return
        log.warning(
            "injected corruption: truncated %s of model %s", name, digest[:12]
        )

    # -- disk GC --------------------------------------------------------

    @staticmethod
    def _dir_bytes(model_dir: Path) -> int:
        try:
            return sum(
                p.stat().st_size for p in model_dir.iterdir() if p.is_file()
            )
        except OSError:  # pragma: no cover - concurrent delete
            return 0

    def disk_usage_bytes(self) -> int:
        """Total bytes of live (non-quarantined) disk entries."""
        return sum(
            self._dir_bytes(self.store.path(d)) for d in self.store.keys()
        )

    @staticmethod
    def _entry_atime(model_dir: Path) -> float:
        try:
            return float((model_dir / ATIME_FILE).read_text().strip())
        except (OSError, ValueError):
            try:
                return (model_dir / "meta.json").stat().st_mtime
            except OSError:  # pragma: no cover - concurrent delete
                return 0.0

    def _gc(self, protect: str) -> None:
        """Evict least-recently-used entries until under ``budget_mb``.

        Deletes are rename-then-remove: the entry vanishes from the
        namespace atomically, so a concurrent loader sees a miss, never
        a half-deleted directory.  The just-stored digest is protected —
        GC must not evict the entry whose store triggered it.
        """
        budget = self.budget_mb * 1024 * 1024
        entries = []
        for digest in self.store.keys():
            model_dir = self.store.path(digest)
            entries.append(
                (self._entry_atime(model_dir), self._dir_bytes(model_dir),
                 digest)
            )
        total = sum(nbytes for _, nbytes, _ in entries)
        for _atime, nbytes, digest in sorted(entries):
            if total <= budget:
                break
            if digest == protect:
                continue
            model_dir = self.store.path(digest)
            doomed = model_dir.with_name(f".gc-{os.getpid()}-{digest}")
            try:
                os.replace(model_dir, doomed)
            except OSError:  # pragma: no cover - concurrent eviction
                continue
            shutil.rmtree(doomed, ignore_errors=True)
            self.store.forget(digest)
            total -= nbytes
            self.stats.bump("gc_evictions")
            log.warning("registry GC evicted %s (%d bytes)", digest[:12], nbytes)
        REGISTRY.gauge("serve.registry.disk_mb").set(total / (1024 * 1024))

    # -- persistence ----------------------------------------------------

    @staticmethod
    def _store_dir(model: FittedModel, tmp: Path) -> None:
        """Encode one model into the store's temporary entry directory."""
        meta, arrays = model.report.to_arrays()
        for name, array in arrays.items():
            np.save(tmp / f"{name}.npy", array)
        model.template.save_npz(tmp / "template.npz")
        files = {}
        for path in sorted(tmp.iterdir()):
            data = path.read_bytes()
            files[path.name] = {
                "bytes": len(data),
                "sha256": hashlib.sha256(data).hexdigest(),
            }
        meta.update(
            schema_version=SCHEMA_VERSION, spec=model.spec.to_dict(),
            files=files,
        )
        (tmp / "meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True) + "\n"
        )
        (tmp / ATIME_FILE).write_text(f"{time.time():.6f}\n")

    @staticmethod
    def _load_dir(model_dir: Path) -> FittedModel:
        """Decode one entry; any failure makes the store quarantine it."""
        meta = json.loads((model_dir / "meta.json").read_text())
        if meta.get("schema_version") != SCHEMA_VERSION:
            raise ServeError(
                f"unsupported model schema version "
                f"{meta.get('schema_version')!r} in {model_dir}",
                stage="serve",
            )
        # integrity gate: every manifest-listed artifact must exist at
        # its recorded size (truncation — the realistic partial-write /
        # injected corruption — always changes the byte count; content
        # hashes are kept in the manifest for forensics, not re-hashed
        # on the hot load path)
        for name, entry in meta.get("files", {}).items():
            actual = (model_dir / name).stat().st_size
            if actual != int(entry["bytes"]):
                raise ServeError(
                    f"model artifact {name} in {model_dir} is "
                    f"{actual} bytes, manifest says {entry['bytes']}",
                    stage="serve",
                )
        spec = ModelSpec.from_dict(meta["spec"])
        report = BatchedFitReport.from_arrays(
            meta,
            FORM_SETS[spec.forms],
            lambda name: np.load(
                model_dir / f"{name}.npy",
                mmap_mode=None if name in _EAGER_ARRAYS else "r",
                allow_pickle=False,
            ),
        )
        template = TraceFile.load_npz(model_dir / "template.npz")
        # a disk hit refreshes the GC's usage order
        try:
            (model_dir / ATIME_FILE).write_text(f"{time.time():.6f}\n")
        except OSError:  # pragma: no cover - read-only registry is fine
            pass
        return FittedModel(spec=spec, report=report, template=template)
