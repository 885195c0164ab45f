"""The compiled kernels' build, cache and fallback contract.

Every way the build can go wrong — no compiler, a failing compiler, an
unwritable kernel cache, two processes building at once — must end in a
working simulator with bit-identical results and at most one log line
(the replay kernel shares the library, so it falls back with it);
and the build must stay lazy: importing the package or listing apps and
machines never runs the compiler.
"""

from __future__ import annotations

import logging
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cache import kernel
from repro.cache.configs import blue_waters_p1
from repro.cache.simulator import HierarchySimulator
from repro.memstream.patterns import GatherScatterPattern
from repro.util.rng import stream
from repro.util.units import KB

SRC = Path(__file__).resolve().parent.parent / "src"

needs_cc = pytest.mark.skipif(
    kernel._compiler() is None, reason="no C compiler on PATH"
)


def _level_hits():
    """Per-level hit counts of a fixed stream on a real hierarchy."""
    addrs = GatherScatterPattern(region_bytes=512 * KB, locality=0.5).addresses(
        0, 20_000, stream("kernel-test")
    )
    sim = HierarchySimulator(blue_waters_p1())
    for i in range(0, len(addrs), 4096):
        sim.process(addrs[i : i + 4096])
    return [lv.hits for lv in sim.result().levels]


@pytest.fixture
def fresh_kernel(monkeypatch, tmp_path):
    """An unresolved kernel whose cache lives under ``tmp_path``."""
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    monkeypatch.setattr(kernel, "_kernel", kernel._UNRESOLVED)
    return tmp_path / "home" / ".cache" / "repro" / "kernels"


def _fallback_records(caplog):
    return [
        r for r in caplog.records
        if r.name == "repro.cache.kernel" and r.levelno >= logging.WARNING
    ]


@pytest.fixture(scope="module")
def numpy_hits():
    """:func:`_level_hits` under the numpy engine."""
    saved = kernel._kernel
    kernel._kernel = None
    try:
        return _level_hits()
    finally:
        kernel._kernel = saved


@needs_cc
def test_builds_caches_and_matches_numpy(fresh_kernel, numpy_hits):
    assert kernel.backend() == "c"
    assert kernel.replay_kernel() is not None  # one library, both kernels
    built = list(fresh_kernel.iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"
    assert _level_hits() == numpy_hits


def test_no_compiler_falls_back_to_numpy(
    fresh_kernel, numpy_hits, monkeypatch, tmp_path, caplog
):
    empty = tmp_path / "empty-bin"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    with caplog.at_level(logging.WARNING, logger="repro"):
        assert kernel.backend() == "numpy"
        assert _level_hits() == numpy_hits
        assert kernel.backend() == "numpy"
        assert kernel.replay_kernel() is None
    assert len(_fallback_records(caplog)) == 1
    assert not fresh_kernel.exists()


def test_failing_compiler_falls_back_to_numpy(
    fresh_kernel, numpy_hits, monkeypatch, tmp_path, caplog
):
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    fake = bin_dir / "cc"
    fake.write_text(
        "#!/bin/sh\n"
        'if [ "$1" = --version ]; then echo "fake cc 1.0"; exit 0; fi\n'
        "echo 'internal compiler error' >&2\n"
        "exit 1\n"
    )
    fake.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    with caplog.at_level(logging.WARNING, logger="repro"):
        assert kernel.backend() == "numpy"
        assert _level_hits() == numpy_hits
    records = _fallback_records(caplog)
    assert len(records) == 1 and "failed" in records[0].getMessage()
    # nothing half-built is left in the cache
    assert not fresh_kernel.exists() or not list(fresh_kernel.iterdir())


@needs_cc
def test_unwritable_kernel_dir_still_builds(fresh_kernel, numpy_hits, caplog):
    # a plain file where the cache directory should be: mkdir fails
    # even for root, which ignores permission bits
    fresh_kernel.parent.parent.mkdir(parents=True)
    fresh_kernel.parent.write_text("not a directory")
    with caplog.at_level(logging.WARNING, logger="repro"):
        assert kernel.backend() == "c"
        assert _level_hits() == numpy_hits
    assert not _fallback_records(caplog)


@needs_cc
def test_corrupt_cached_library_is_rebuilt(fresh_kernel):
    assert kernel.backend() == "c"
    (path,) = fresh_kernel.iterdir()
    # replace, never rewrite in place: this process has the file mapped
    junk = path.with_name("junk")
    junk.write_bytes(b"\x7fELF torn")
    os.replace(junk, path)
    # a fresh process (this one would reuse its loaded mapping)
    out = subprocess.run(
        [sys.executable, "-c",
         "from repro.cache.kernel import backend; print(backend())"],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True, capture_output=True, text=True, timeout=120,
    )
    assert out.stdout.strip() == "c"
    assert path.stat().st_size > 1000


def _build_in_child(barrier, queue):
    barrier.wait(timeout=60)
    from repro.cache import kernel as child_kernel

    queue.put((child_kernel.backend(), _level_hits()))


@needs_cc
def test_concurrent_builds_both_load(fresh_kernel, numpy_hits):
    ctx = multiprocessing.get_context("spawn")
    barrier, queue = ctx.Barrier(2), ctx.Queue()
    procs = [
        ctx.Process(target=_build_in_child, args=(barrier, queue))
        for _ in range(2)
    ]
    for p in procs:
        p.start()
    results = [queue.get(timeout=120) for _ in procs]
    for p in procs:
        p.join(timeout=60)
        assert not p.is_alive() and p.exitcode == 0
    assert results == [("c", numpy_hits)] * 2
    # one published library, no stray temporaries
    assert [p.suffix for p in fresh_kernel.iterdir()] == [".so"]


def test_import_and_list_never_compile(tmp_path):
    """The build is lazy: only a simulation or replay may run the compiler."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    marker = tmp_path / "compiler-ran"
    for name in ("cc", "gcc"):
        fake = bin_dir / name
        fake.write_text(f"#!/bin/sh\ntouch {marker}\nexit 1\n")
        fake.chmod(0o755)
    env = dict(
        os.environ,
        PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
        HOME=str(tmp_path / "home"),
        PYTHONPATH=str(SRC),
    )

    def run(*args):
        subprocess.run(
            [sys.executable, *args], env=env, check=True,
            capture_output=True, timeout=120,
        )

    run("-c", "import repro, repro.cli, repro.cache, repro.cache.simulator, "
        "repro.psins.replay")
    run("-m", "repro", "list")
    assert not marker.exists()
    # control: the first simulation does reach the (fake) compiler
    run("-c", "from repro.cache import kernel; kernel.lru_kernel()")
    assert marker.exists()
