"""Contract suite: the one content-addressed store and the nine tallies.

Every store consumer — the signature cache, the reuse-profile cache,
the model registry, and the pipeline DAG's artifacts — is driven
through its *own* public API and must honour the same contract, because
all four sit on :class:`repro.store.Store`:

- a commit is either absent or complete (a crash before publish leaves
  no entry, and the next lookup is a plain miss);
- a corrupt entry, as the consumer's own verification sees it, is
  quarantined and reported as a miss, and its bytes are kept;
- across racing processes exactly one holder takes a key's lock;
- a stale lock is taken over.

The second half pins the tally contract: for each of the nine
:func:`repro.obs.metrics.Tally` classes, ``to_dict()`` equals the
registry deltas, which equal the exported manifest (or serve summary)
section, under the exact metric names the classes always used.
"""

from __future__ import annotations

import multiprocessing
import os
import types
from pathlib import Path

import numpy as np
import pytest

from repro.exec.resilience import ResilienceConfig
from repro.exec.sigcache import SignatureCache
from repro.obs.manifest import build_manifest
from repro.obs.metrics import REGISTRY
from repro.store import QUARANTINE_DIR, Store
from repro.util import atomic

# ----------------------------------------------------------------------
# consumer adapters: one uniform driver per store consumer


class _Sigcache:
    name = "sigcache"

    def __init__(self, root: Path, _model):
        self.cache = SignatureCache(root)
        self.store = self.cache.store
        self.key = "ab" * 32

    def put(self):
        self.cache.put(self.key, {"payload": list(range(100))})

    def get(self):
        return self.cache.get(self.key)

    def corrupt(self) -> Path:
        path = self.store.path(self.key)
        path.write_bytes(path.read_bytes()[:-7])  # torn tail: digest fails
        return path

    def quarantined(self) -> int:
        return self.cache.stats.corrupt

    def takeovers(self):
        return None  # the cache never locks; the tally has no field


class _ProfileCache:
    name = "profile-cache"

    def __init__(self, root: Path, _model):
        from repro.cache.reuse import ProfileCache

        self.cache = ProfileCache(root)
        self.store = self.cache.store
        self.key = "cd" * 32

    def put(self):
        from repro.cache.reuse import profile_stream

        addresses = np.arange(4096, dtype=np.int64) * 8
        instr_idx = np.zeros(addresses.size, dtype=np.int32)
        self.cache.put(
            self.key, profile_stream(instr_idx, addresses, 1, 64, moduli=(2,))
        )

    def get(self):
        self.cache.clear()  # force the disk tier
        return self.cache.get(self.key)

    def corrupt(self) -> Path:
        path = self.store.path(self.key)
        path.write_bytes(b"PK\x03\x04garbage")
        return path

    def quarantined(self) -> int:
        return len(self.store.quarantined_keys())

    def takeovers(self):
        return None


class _Registry:
    name = "registry"

    def __init__(self, root: Path, model):
        from repro.serve.registry import ModelRegistry

        self.model = model
        self.registry = ModelRegistry(root)
        self.store = self.registry.store
        self.key = model.digest

    def put(self):
        self.registry.put(self.model)

    def get(self):
        self.registry.clear_memory()
        return self.registry.get(self.key)

    def corrupt(self) -> Path:
        path = self.store.path(self.key) / "Y.npy"
        path.write_bytes(path.read_bytes()[:-8])  # size manifest mismatch
        return path

    def quarantined(self) -> int:
        return self.registry.stats.quarantined

    def takeovers(self):
        return self.registry.stats.lock_takeovers


class _Dag:
    name = "dag"
    VICTIM = "collect:4"

    def __init__(self, root: Path, _model):
        from repro.pipeline.dag import (
            DagStats,
            SweepSpec,
            _stores,
            build_dag,
            node_key,
        )

        self.root = root
        self.spec = SweepSpec(
            app="jacobi", train_counts=(4, 8), targets=(16,), table1=False,
            accesses_per_probe=2000, sample_accesses=20_000,
            max_sample_accesses=200_000, code_version="store-contract",
        )
        dag = build_dag(self.spec)
        node = dag.nodes[self.VICTIM]
        self.stats = DagStats()
        self.store = _stores(dag, root, self.stats)[node.ext]
        self.key = node_key(node, self.spec, {})
        self.last = None

    def _run(self):
        from repro.pipeline.dag import run_dag

        self.last = run_dag(
            self.spec, self.root, resilience=ResilienceConfig(max_retries=0)
        )
        return self.last

    def put(self):
        self._run()

    def get(self):
        """A lookup is a run: a clean node is a hit, a re-executed one
        was a miss."""
        result = self._run()
        if result.statuses.get(self.VICTIM) != "clean":
            return None
        return Path(result.artifacts[self.VICTIM]).read_bytes()

    def corrupt(self) -> Path:
        path = self.store.path(self.key)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        return path

    def quarantined(self) -> int:
        return self.last.stats.quarantined

    def takeovers(self):
        return self.stats.lock_takeovers


CONSUMERS = [_Sigcache, _ProfileCache, _Registry, _Dag]


@pytest.fixture(params=CONSUMERS, ids=lambda c: c.name)
def consumer(request, tmp_path, serve_model):
    return request.param(tmp_path / "root", serve_model)


def _crash_before_publish(*_args, **_kwargs):
    raise OSError("simulated crash before publish")


#: ``os`` as :mod:`repro.util.atomic` sees it, minus the final rename
_OS_WITHOUT_PUBLISH = types.SimpleNamespace(
    getpid=os.getpid, replace=_crash_before_publish
)


class TestStoreContract:
    def test_commit_is_absent_or_complete(self, consumer, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(atomic, "os", _OS_WITHOUT_PUBLISH)
            try:
                consumer.put()
            except OSError:
                pass  # the sigcache and registry surface the write error
        # nothing half-written is visible, nor left behind
        assert not consumer.store.exists(consumer.key)
        assert consumer.store.keys() == []
        leftovers = [
            p for p in consumer.store.root.rglob("*")
            if p.name.startswith(".tmp-")
        ]
        assert leftovers == []
        assert consumer.get() is None
        assert consumer.quarantined() == 0  # a plain miss, not corruption
        # an unhindered commit publishes the complete entry
        consumer.put()
        assert consumer.key in consumer.store.keys()
        assert consumer.get() is not None

    def test_corrupt_entry_is_quarantined_miss_with_bytes_kept(
        self, consumer
    ):
        consumer.put()
        damaged = consumer.corrupt()
        data = damaged.read_bytes()
        assert consumer.get() is None
        assert consumer.quarantined() == 1
        # moved out of the namespace (the DAG recomputes it in place)
        assert not damaged.exists() or damaged.read_bytes() != data
        store = consumer.store
        kept = store.root / QUARANTINE_DIR / f"{consumer.key}-0{store.ext}"
        if not store.ext:  # directory entries keep their layout
            kept = kept / damaged.name
        assert kept.read_bytes() == data
        assert store.quarantined_keys() == [consumer.key]

    def test_exactly_one_racing_process_takes_the_lock(self, consumer):
        store = consumer.store
        ctx = multiprocessing.get_context("spawn")
        n = 4
        barrier = ctx.Barrier(n)
        results = ctx.Queue()
        procs = [
            ctx.Process(
                target=_race_for_lock,
                args=(store.root, store.ext, consumer.key, barrier, results),
            )
            for _ in range(n)
        ]
        for proc in procs:
            proc.start()
        won = sorted(results.get(timeout=60) for _ in procs)
        for proc in procs:
            proc.join(timeout=60)
            assert not proc.is_alive()
        assert won == [False] * (n - 1) + [True]
        # the winner's lock is live: nobody else gets it until released
        assert not store.try_lock(consumer.key)
        store.unlock(consumer.key)
        assert store.try_lock(consumer.key)
        store.unlock(consumer.key)

    def test_stale_lock_is_taken_over(self, consumer):
        store = consumer.store
        store.plant_stale_lock(consumer.key)
        assert not store.try_lock(consumer.key)  # removes the corpse...
        assert store.try_lock(consumer.key)  # ...so the next poll wins
        store.unlock(consumer.key)
        if consumer.takeovers() is not None:
            assert consumer.takeovers() == 1


def _race_for_lock(root, ext, key, barrier, results) -> None:
    store = Store(root, ext)
    barrier.wait()
    results.put(store.try_lock(key))


def test_layout_is_sharded_per_key(tmp_path):
    files = Store(tmp_path, ".pkl")
    dirs = Store(tmp_path)
    key = "0123" + "f" * 60
    assert files.path(key) == tmp_path / "01" / f"{key}.pkl"
    assert dirs.path(key) == tmp_path / "01" / key
    with files.commit(key) as tmp:
        tmp.write_bytes(b"x")
    with dirs.commit(key) as tmp:
        (tmp / "a").write_bytes(b"y")
    assert files.keys() == [key] and dirs.keys() == [key]


def test_quarantine_never_overwrites_earlier_copies(tmp_path):
    store = Store(tmp_path, ".bin")
    key = "ee" * 32
    for payload in (b"first", b"second"):
        with store.commit(key) as tmp:
            tmp.write_bytes(payload)
        store.quarantine(key, "test")
    qdir = tmp_path / QUARANTINE_DIR
    assert (qdir / f"{key}-0.bin").read_bytes() == b"first"
    assert (qdir / f"{key}-1.bin").read_bytes() == b"second"


# ----------------------------------------------------------------------
# tallies: report == metrics == manifest, under the historic names


def _serve_sections():
    """The serve summary sections, from a real engine's tallies."""
    from repro.serve.engine import QueryEngine
    from repro.serve.registry import ModelRegistry

    engine = QueryEngine(ModelRegistry(root=None))
    return {
        "engine": (engine.stats, lambda: engine.summary()["engine"]),
        "batcher": (engine.batcher.stats, lambda: engine.summary()["batcher"]),
        "registry": (
            engine.registry.stats, lambda: engine.summary()["registry"]
        ),
    }


def _tally_cases():
    from repro.cache.reuse import ProfileCacheStats
    from repro.exec.resilience import RunReport
    from repro.exec.sigcache import CacheStats
    from repro.guard.degrade import DegradationReport
    from repro.pipeline.dag import DagStats
    from repro.serve.resilience import ServeReport

    def manifest(kwarg, key):
        return lambda t: build_manifest(command="t", **{kwarg: t})[key]

    # (id, factory, metric prefix, exported section of the instance)
    return [
        ("CacheStats", CacheStats, "cache", manifest("cache", "cache")),
        ("RunReport", RunReport, "resilience",
         manifest("report", "resilience")),
        ("ProfileCacheStats", ProfileCacheStats, "cachesim.reuse",
         manifest("profile_cache", "profile_cache")),
        ("RegistryStats", "registry", "serve.registry", None),
        ("BatcherStats", "batcher", "serve.batch", None),
        ("EngineStats", "engine", "serve", None),
        ("ServeReport", ServeReport, "serve.resilience",
         manifest("serve", "serve")),
        ("DagStats", DagStats, "dag", manifest("dag", "dag")),
        ("DegradationReport", DegradationReport, "guard",
         lambda t: build_manifest(command="t", guard=t)["guard"]["counters"]),
    ]


EXPECTED_FIELDS = {
    "CacheStats": ("hits", "misses", "stores", "uncacheable", "corrupt"),
    "RunReport": (
        "retries", "transient_errors", "timeouts", "crashes",
        "pool_restarts", "serial_fallbacks", "cache_corruptions",
    ),
    "ProfileCacheStats": (
        "mem_hits", "disk_hits", "misses", "stores", "evictions",
    ),
    "RegistryStats": (
        "mem_hits", "disk_hits", "misses", "stores", "evictions", "fits",
        "quarantined", "gc_evictions", "lock_waits", "lock_takeovers",
    ),
    "BatcherStats": (
        "queries", "batches", "size_flushes", "deadline_flushes",
        "drain_flushes", "cancelled", "expired",
    ),
    "EngineStats": (
        "queries", "answered", "failed", "rejected", "backpressure_waits",
    ),
    "ServeReport": (
        "deadline_admission", "deadline_dispatch", "deadline_flush",
        "breaker_opens", "breaker_half_opens", "breaker_closes",
        "breaker_rejected", "batch_failures", "slow_predicts", "offloads",
    ),
    "DagStats": (
        "executed", "clean", "failed", "poisoned", "quarantined",
        "lock_waits", "lock_takeovers", "node_crashes",
    ),
    "DegradationReport": (
        "n_violations", "n_gate_flags", "n_elements_degraded",
        "n_traces_degraded", "n_refusals", "n_spot_checks",
        "n_spot_disagreements", "n_crossval_flagged", "n_residual_flagged",
    ),
}


@pytest.mark.parametrize(
    "case", _tally_cases(), ids=lambda c: c[0]
)
def test_tally_report_equals_metrics_equals_manifest(case):
    name, factory, prefix, section = case
    if isinstance(factory, str):
        tally, export = _serve_sections()[factory]
    else:
        tally = factory()
        export = lambda: section(tally)  # noqa: E731
    assert tally.COUNTER_FIELDS == EXPECTED_FIELDS[name]

    def exported_name(field: str) -> str:
        return field[2:] if name == "DegradationReport" else field

    metric = {f: f"{prefix}.{exported_name(f)}" for f in tally.COUNTER_FIELDS}
    before = {m: REGISTRY.counters.get(m, 0) for m in metric.values()}
    for i, field in enumerate(tally.COUNTER_FIELDS):
        tally.bump(field, i + 1)
        tally.bump(field)
    report = {exported_name(f): getattr(tally, f) for f in tally.COUNTER_FIELDS}
    deltas = {
        exported_name(f): REGISTRY.counters.get(m, 0) - before[m]
        for f, m in metric.items()
    }
    exported = export()
    assert report == {exported_name(f): i + 2 for i, f in
                      enumerate(tally.COUNTER_FIELDS)}
    assert deltas == report
    assert {k: exported[k] for k in report} == report


def test_stores_sharing_a_root_list_only_their_extension(tmp_path):
    # the DAG's .json and .npz artifact stores share one root: they
    # share its locks and quarantine but never list each other's entries
    a, b = Store(tmp_path, ".json"), Store(tmp_path, ".npz")
    key = "aa" * 32
    with a.commit(key) as tmp:
        tmp.write_text("{}")
    assert a.keys() == [key] and b.keys() == []
    assert a.lock_path(key) == b.lock_path(key)
