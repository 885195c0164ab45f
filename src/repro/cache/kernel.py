"""The C kernels — exact LRU replay and job replay — built on first use.

Two hot loops are a few lines of C each: the exact cache engine's tag
compare and recency update per address, and PSiNS replay's per-event
clock update.  :func:`lru_kernel` and :func:`replay_kernel` share one
library: the source below is compiled with the local C compiler the
first time a process needs either, cached as
``~/.cache/repro/kernels/<digest>.so`` (the digest covers the source,
compiler version, flags and machine architecture, so any change
rebuilds), and loaded with :mod:`ctypes`, which releases the GIL for
the duration of each call.  One build means one backend decision: with
no compiler, or a failed build or load, both fall back to Python
(:func:`backend` says which).

``lru_level`` replays one cache level in program order, in place on the
level's ``tags``/``stamps`` arrays, with the numpy engine's exact
semantics: line = address >> shift; the set is ``line & (n_sets - 1)``
for power-of-two set counts, otherwise the floor modulo; a hit
refreshes the first way holding the line; a miss evicts the first way
with the minimal stamp (the ``argmin`` choice).  Every hit/miss
sequence, and so every counter, is bit-identical to
:mod:`repro.cache.simulator`'s numpy replay.

``replay`` runs a job compiled by :func:`repro.psins.replay.compile_job`
with :class:`~repro.psins.replay.ReplayEngine`'s scheduler — the same
run queue, wake order and double operations — so clocks, and the first
error a bad job raises, are the Python engine's.  ``-ffp-contract=off``
keeps the compiler from fusing a multiply-add on any target.
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
from typing import Callable, NamedTuple, Optional

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

enum { COMPUTE, SEND, RECV, COLLECTIVE, RECV_MISMATCH };
enum { UNPOSTED = -1, POSTED = -2 };  /* send_state; >= 0: waiting rank */

#define WAKE(x) do { int32_t x_ = (x); if (!queued[x_]) { queued[x_] = 1; \
    queue[(head + len) % n] = x_; len++; } } while (0)

/* Replay a compiled job.  Returns 0 when every rank finished, 1 on
   deadlock, 2 when a recv takes a message of another size, 3 when a
   rank joins a collective with another spec than the ranks before it;
   pc[] then holds each rank's next event, err[0] the failing rank and
   err[1] the open collective's spec. */
int64_t replay(int64_t n, const int64_t *offsets, const int8_t *kind,
               const int32_t *arg, const int64_t *count, const double *dur,
               int64_t *dpos, const double *p2p_cost, const double *coll_cost,
               double send_overhead, double *clock, double *compute,
               double *comm, int64_t *pc, double *send_time,
               int32_t *send_state, int32_t *queue, uint8_t *queued,
               int32_t *arr_rank, double *arr_time, int64_t *err)
{
    int64_t head = 0, len = n, done = 0, n_arr = 0;
    int32_t open_spec = -1;
    for (int64_t r = 0; r < n; r++) {
        queue[r] = (int32_t)r;
        queued[r] = 1;
    }
    while (len) {
        int32_t r = queue[head];
        head = (head + 1) % n;
        len--;
        queued[r] = 0;
        int64_t i = pc[r], end = offsets[r + 1];
        while (i < end) {
            int32_t a = arg[i];
            if (kind[i] == COMPUTE) {
                double dt = dur[dpos[r]++];
                clock[r] += dt;
                compute[r] += dt;
            } else if (kind[i] == SEND) {
                clock[r] += send_overhead;
                comm[r] += send_overhead;
                send_time[a] = clock[r];
                int32_t waiter = send_state[a];
                send_state[a] = POSTED;
                if (waiter >= 0)
                    WAKE(waiter);
            } else if (kind[i] == COLLECTIVE) {
                if (n_arr && a != open_spec) {
                    pc[r] = i;
                    err[0] = r;
                    err[1] = open_spec;
                    return 3;
                }
                open_spec = a;
                arr_rank[n_arr] = r;
                arr_time[n_arr++] = clock[r];
                pc[r] = i;
                if (n_arr < n)
                    break;  /* blocked until the last rank arrives */
                double last = arr_time[0];
                for (int64_t k = 1; k < n; k++)
                    if (arr_time[k] > last)
                        last = arr_time[k];
                double finish = last + coll_cost[open_spec];
                for (int64_t k = 0; k < n; k++) {
                    int32_t rk = arr_rank[k];
                    comm[rk] += finish - arr_time[k];
                    clock[rk] = finish;
                    pc[rk]++;
                    if (rk != r)
                        WAKE(rk);
                }
                n_arr = 0;
            } else {  /* RECV or RECV_MISMATCH */
                if (a < 0 || send_state[a] != POSTED) {
                    if (a >= 0)
                        send_state[a] = r;
                    break;  /* blocked until the matched send posts */
                }
                if (kind[i] == RECV_MISMATCH) {
                    pc[r] = i;
                    err[0] = r;
                    return 2;
                }
                double start = clock[r], avail = send_time[a];
                double finish = (avail > start ? avail : start)
                                + p2p_cost[count[i]];
                comm[r] += finish - start;
                clock[r] = finish;
            }
            i++;
        }
        pc[r] = i;
        done += i == end;
    }
    return done < n;
}
"""

FLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")

#: what a resolved kernel is called with: (addresses, hits out, n,
#: shift, n_sets, assoc, tags, stamps, time); it fills the hit mask
LruKernel = Callable[..., None]
#: ``replay``'s arguments, in the C order above; returns the status
ReplayKernel = Callable[..., int]


class _Library(NamedTuple):
    lru_level: LruKernel
    replay: ReplayKernel


_UNRESOLVED = object()
_kernel = _UNRESOLVED
_resolve_lock = threading.Lock()


def kernel_dir() -> Path:
    return Path.home() / ".cache" / "repro" / "kernels"


def _compiler() -> Optional[str]:
    return shutil.which("cc") or shutil.which("gcc")


def _compile(cc: str, dest: Path) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "kernels.c"
        src.write_text(SOURCE)
        subprocess.run(
            [cc, *FLAGS, "-o", str(dest), str(src)],
            check=True,
            capture_output=True,
            timeout=120,
        )


def _bind(path: Path) -> _Library:
    lib = ctypes.CDLL(str(path))
    ptr, i64 = ctypes.c_void_p, ctypes.c_int64
    lru = lib.lru_level
    lru.argtypes = [ptr, ptr, i64, i64, i64, i64, ptr, ptr, i64]
    lru.restype = None
    replay = lib.replay
    replay.argtypes = [i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr,
                       ctypes.c_double] + [ptr] * 11
    replay.restype = i64
    return _Library(lru, replay)


def _build(cc: str) -> _Library:
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


def _resolve() -> Optional[_Library]:
    cc = _compiler()
    if cc is None:
        log.warning("no C compiler on PATH; exact cache simulation and "
                    "replay use the Python engines")
        return None
    try:
        return _build(cc)
    except (OSError, AttributeError, subprocess.SubprocessError) as exc:
        log.warning("building the C kernels failed (%s); exact cache "
                    "simulation and replay use the Python engines", exc)
        return None


def _library() -> Optional[_Library]:
    """Resolved once per process, on first call: built (or loaded from
    the kernel cache) with the local compiler.  ``None`` — the Python
    fallbacks, logged once — when no compiler is on ``PATH`` or the
    build or load fails."""
    global _kernel
    if _kernel is _UNRESOLVED:
        with _resolve_lock:
            if _kernel is _UNRESOLVED:
                _kernel = _resolve()
    return _kernel


def lru_kernel() -> Optional[LruKernel]:
    """The compiled per-level cache replay, or ``None`` for numpy."""
    lib = _library()
    return None if lib is None else lib.lru_level


def replay_kernel() -> Optional[ReplayKernel]:
    """The compiled job replay, or ``None`` for the Python engine."""
    lib = _library()
    return None if lib is None else lib.replay


def backend() -> str:
    """``"c"`` or ``"numpy"``: the kernels' backend in this process."""
    return "numpy" if _library() is None else "c"
