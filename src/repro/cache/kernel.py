"""Exact set-associative LRU replay in C, built on first use.

The exact engine's hot loop — one tag compare and recency update per
address — is a few lines of C.  :func:`lru_kernel` compiles the source
below with the local C compiler the first time a process simulates,
caches the shared object under ``~/.cache/repro/kernels/<digest>.so``
(the digest covers the source, compiler version, flags and machine
architecture, so any change rebuilds), and loads it with :mod:`ctypes`,
which releases the GIL for the duration of each call.

The kernel replays one level in program order, in place on the level's
``tags``/``stamps`` arrays, with the numpy engine's exact semantics:
line = address >> shift; the set is ``line & (n_sets - 1)`` for
power-of-two set counts, otherwise the floor modulo; a hit refreshes
the first way holding the line; a miss evicts the first way with the
minimal stamp (the ``argmin`` choice).  Every hit/miss sequence, and so
every counter, is bit-identical to :mod:`repro.cache.simulator`'s numpy
replay, which stays as the fallback when no compiler is present or the
build or load fails.
"""

from __future__ import annotations

import ctypes
import hashlib
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Callable, Optional

from repro.obs.log import get_logger
from repro.util.atomic import atomic_writer

log = get_logger("cache.kernel")

SOURCE = r"""
#include <stdint.h>

void lru_level(const int64_t *addr, uint8_t *hit, int64_t n, int64_t shift,
               int64_t n_sets, int64_t assoc, int64_t *tags, int64_t *stamps,
               int64_t time)
{
    int64_t mask = (n_sets & (n_sets - 1)) == 0 ? n_sets - 1 : -1;
    int64_t prev = 0;
    int64_t *prev_stamp = 0;  /* slot of the previous access's line */
    for (int64_t i = 0; i < n; i++) {
        int64_t line = addr[i] >> shift;
        if (prev_stamp && line == prev) {  /* repeat: still resident */
            hit[i] = 1;
            *prev_stamp = time + i + 1;
            continue;
        }
        int64_t set = mask >= 0 ? (line & mask) : line % n_sets;
        if (set < 0)
            set += n_sets;
        int64_t *t = tags + set * assoc, *s = stamps + set * assoc;
        int64_t w = 0, victim = 0;
        for (; w < assoc && t[w] != line; w++)
            if (s[w] < s[victim])
                victim = w;
        hit[i] = w < assoc;
        if (w == assoc)
            t[w = victim] = line;
        s[w] = time + i + 1;
        prev = line;
        prev_stamp = s + w;
    }
}
"""

FLAGS = ("-O2", "-shared", "-fPIC")

#: what a resolved kernel is called with: (addresses, hits out, n,
#: shift, n_sets, assoc, tags, stamps, time); it fills the hit mask
LruKernel = Callable[..., None]

_UNRESOLVED = object()
_kernel = _UNRESOLVED
_resolve_lock = threading.Lock()


def kernel_dir() -> Path:
    return Path.home() / ".cache" / "repro" / "kernels"


def _compiler() -> Optional[str]:
    return shutil.which("cc") or shutil.which("gcc")


def _compile(cc: str, dest: Path) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "lru.c"
        src.write_text(SOURCE)
        subprocess.run(
            [cc, *FLAGS, "-o", str(dest), str(src)],
            check=True,
            capture_output=True,
            timeout=120,
        )


def _bind(path: Path) -> LruKernel:
    fn = ctypes.CDLL(str(path)).lru_level
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    fn.argtypes = [ptr, ptr, i64, i64, i64, i64, ptr, ptr, i64]
    fn.restype = None
    return fn


def _build(cc: str) -> LruKernel:
    version = subprocess.run(
        [cc, "--version"], check=True, capture_output=True, timeout=30
    ).stdout
    digest = hashlib.sha256(
        b"\0".join(
            [SOURCE.encode(), version, " ".join(FLAGS).encode(),
             platform.machine().encode()]
        )
    ).hexdigest()
    path = kernel_dir() / f"{digest}.so"
    if path.exists():
        try:
            return _bind(path)
        except (OSError, AttributeError):
            pass  # torn or foreign file: rebuild over it
    try:
        with atomic_writer(path) as tmp:
            _compile(cc, tmp)
    except OSError as exc:
        # unwritable kernel dir: build privately and load from there —
        # the mapping outlives the deleted file
        log.info("kernel dir %s not writable (%s); building privately",
                 path.parent, exc)
        with tempfile.TemporaryDirectory() as tmp:
            private = Path(tmp) / path.name
            _compile(cc, private)
            return _bind(private)
    return _bind(path)


def _resolve() -> Optional[LruKernel]:
    cc = _compiler()
    if cc is None:
        log.warning("no C compiler on PATH; exact cache simulation uses "
                    "the numpy engine")
        return None
    try:
        return _build(cc)
    except (OSError, AttributeError, subprocess.SubprocessError) as exc:
        log.warning("building the C cache kernel failed (%s); exact cache "
                    "simulation uses the numpy engine", exc)
        return None


def lru_kernel() -> Optional[LruKernel]:
    """The compiled per-level replay kernel, or ``None`` for numpy.

    Resolved once per process, on first call: built (or loaded from
    the kernel cache) with the local compiler.  ``None`` — numpy
    fallback, logged once — when no compiler is on ``PATH`` or the
    build or load fails.
    """
    global _kernel
    if _kernel is _UNRESOLVED:
        with _resolve_lock:
            if _kernel is _UNRESOLVED:
                _kernel = _resolve()
    return _kernel


def backend() -> str:
    """``"c"`` or ``"numpy"``: the exact engine's backend in this process."""
    return "numpy" if lru_kernel() is None else "c"
