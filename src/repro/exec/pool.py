"""Deterministic process-pool fan-out.

Every stochastic computation in this codebase derives its randomness
from a *keyed* RNG stream (:func:`repro.util.rng.stream`), never from
call order or shared-generator state.  Executing independent tasks
concurrently therefore cannot change any result: parallel output is
bit-for-bit identical to serial by construction, and this module only
supplies the fan-out mechanics.

``run_tasks`` is intentionally tiny: a list of argument tuples in, a
list of results out, in submission order (plus an optional
``on_result`` hook fired as each result lands).  ``workers=0`` (or ``1``)
runs the tasks inline in the calling process — the escape hatch for
debugging and for environments where ``fork`` is unavailable or
unwanted.  Worker processes are flagged via an environment variable so
a task that itself calls ``run_tasks`` degrades to serial instead of
spawning a nested pool.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from multiprocessing import get_context
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from repro.obs import trace as obs_trace

T = TypeVar("T")

#: set in worker processes so nested ``run_tasks`` calls stay serial
_WORKER_ENV = "REPRO_EXEC_WORKER"


def _worker_init() -> None:
    os.environ[_WORKER_ENV] = "1"
    # fresh per-worker observability state: an empty tracer (the parent's
    # buffered spans must not be shipped back twice) and a zeroed
    # metrics registry (the fork otherwise inherits the parent's counts)
    import repro.obs

    repro.obs.worker_init()


def in_worker() -> bool:
    """True when running inside a ``run_tasks`` pool worker."""
    return os.environ.get(_WORKER_ENV) == "1"


def resolve_workers(workers: Optional[int], n_tasks: int) -> int:
    """Resolve a ``workers`` request to a pool size (0 = run inline).

    ``None`` asks for one worker per CPU (capped at the task count);
    ``0``/``1`` force serial execution; anything larger is capped at
    the task count.  Nested calls (from inside a pool worker) always
    resolve to serial.
    """
    if workers is not None and workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if n_tasks <= 1 or in_worker():
        return 0
    if workers is None:
        workers = os.cpu_count() or 1
    if workers <= 1:
        return 0
    return min(workers, n_tasks)


def _mp_context():
    # fork is substantially cheaper than spawn and inherits the loaded
    # modules; fall back to the platform default where it is missing
    try:
        return get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return get_context()


def run_tasks(
    fn: Callable[..., T],
    tasks: Iterable[Sequence],
    *,
    workers: Optional[int] = None,
    keys: Optional[Sequence[str]] = None,
    on_result: Optional[Callable[[int, T], None]] = None,
) -> List[T]:
    """Run ``fn(*task)`` for every task; results in task order.

    ``fn`` and every task element must be picklable (module-level
    functions, dataclasses, builtins).  Exceptions raised by a task
    propagate to the caller, as they would serially.

    ``keys`` optionally names the tasks for observability (span labels
    and per-task log context); it never affects scheduling or results.
    When span tracing is enabled, pooled calls are routed through
    :func:`repro.obs.trace.call_shipped` so each worker's completed
    spans travel back with its result and land in the parent's tracer.

    ``on_result`` is called in the parent as ``on_result(index, result)``
    the moment each result lands (completion order when pooled), the
    same checkpoint hook :func:`repro.exec.resilience.run_tasks_resilient`
    offers: results finished before a later task fails are not lost.
    """
    task_list = [tuple(t) for t in tasks]
    results: List[Optional[T]] = [None] * len(task_list)

    def land(i: int, value: T) -> None:
        results[i] = value
        if on_result is not None:
            on_result(i, value)

    pool_size = resolve_workers(workers, len(task_list))
    if pool_size == 0:
        for i, t in enumerate(task_list):
            land(i, fn(*t))
        return results  # type: ignore[return-value]
    key_list = (
        [str(k) for k in keys]
        if keys is not None
        else [f"task{i}" for i in range(len(task_list))]
    )
    shipping = obs_trace.is_enabled()
    pool = ProcessPoolExecutor(
        max_workers=pool_size,
        mp_context=_mp_context(),
        initializer=_worker_init,
    )
    try:
        if shipping:
            futures = {
                pool.submit(obs_trace.call_shipped, fn, key, t): i
                for i, (key, t) in enumerate(zip(key_list, task_list))
            }
        else:
            futures = {pool.submit(fn, *t): i for i, t in enumerate(task_list)}
        for future in as_completed(futures):
            land(futures[future], obs_trace.unwrap(future.result()))
    except BaseException:
        # fail fast: a task error or Ctrl-C must not wait out every
        # submitted task — drop the queue and return immediately
        # (already-running tasks finish in the background)
        pool.shutdown(wait=False, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
    return results  # type: ignore[return-value]
