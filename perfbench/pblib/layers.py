"""Which public functions of ``repro`` are timed, and the per-layer metrics.

:func:`install` runs inside the traced program process.  It wraps each
function in :data:`WRAPS` and rebinds the wrapper at every ``repro``
module that binds the original, because callers import layer functions
by name (``repro.pipeline.predict`` binds ``replay_job`` and
``measure_job``, ``repro.pipeline.collect`` binds ``run_tasks``, ...).
Methods are wrapped on their class.  Forked pool workers inherit the
wrappers.

:func:`layer_metrics` runs in the benchmark process and turns the merged
spans into the ``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from typing import Callable, Dict, List, Optional

from pblib.spans import Recorder, Span, self_times_s, top_level, union_ns


def _sum_accesses(report) -> int:
    return int(sum(int(o.accesses.sum()) for o in report.observations.values()))


def _pool_tasks(args, kwargs) -> int:
    """Tasks this call submits to a process pool (0 when it runs inline)."""
    from repro.exec.pool import resolve_workers

    tasks = args[1] if len(args) > 1 else kwargs.get("tasks", ())
    n = len(tasks)
    return n if resolve_workers(kwargs.get("workers"), n) > 0 else 0


def _materialize_tasks(args, kwargs):
    # a generator of tasks would be consumed by the count above
    if len(args) > 1:
        return (args[0], list(args[1])) + tuple(args[2:]), kwargs
    if "tasks" in kwargs:
        kwargs = dict(kwargs, tasks=list(kwargs["tasks"]))
    return args, kwargs


#: (span name, "module:qualname", attrs(args, kwargs, result) or None)
WRAPS = [
    ("machine.multimaps", "repro.machine.multimaps:run_multimaps", None),
    ("apps.build_job", "repro.apps.base:AppModel.build_job", None),
    ("apps.rank_program", "repro.apps.specfem3d:SpecFEM3DProxy.rank_program", None),
    ("simmpi.profile_job", "repro.simmpi.profiler:profile_job", None),
    ("instrument.collect_trace", "repro.instrument.collector:collect_trace", None),
    ("cache.engine_run", "repro.cache.engine:ExactEngine.run",
     lambda a, k, r: {"accesses": _sum_accesses(r)}),
    ("cache.engine_run", "repro.cache.engine:ReuseEngine.run",
     lambda a, k, r: {"accesses": _sum_accesses(r)}),
    ("exec.sigcache.get", "repro.exec.sigcache:SignatureCache.get",
     lambda a, k, r: {"hit": int(r is not None)}),
    ("exec.sigcache.put", "repro.exec.sigcache:SignatureCache.put", None),
    ("exec.pool", "repro.exec.pool:run_tasks",
     lambda a, k, r: {"tasks": _pool_tasks(a, k)}),
    ("exec.pool", "repro.exec.resilience:run_tasks_resilient",
     lambda a, k, r: {"tasks": _pool_tasks(a, k)}),
    ("core.fit", "repro.guard.engine:guarded_extrapolate", None),
    ("core.predict", "repro.serve.registry:FittedModel.predict",
     lambda a, k, r: {"targets": len(a[1])}),
    ("psins.convolve", "repro.psins.convolution:ComputationModel.__init__", None),
    ("psins.replay", "repro.psins.replay:replay_job",
     lambda a, k, r: {"ranks": int(a[0].n_ranks)}),
    ("psins.ground_truth", "repro.psins.ground_truth:measure_job", None),
    ("pipeline.predict_runtime", "repro.pipeline.predict:predict_runtime",
     lambda a, k, r: {"n_ranks": int(a[1]), "runtime_s": repr(r.runtime_s)}),
    ("pipeline.measure_runtime", "repro.pipeline.predict:measure_runtime",
     lambda a, k, r: {"n_ranks": int(a[1]), "runtime_s": repr(r.runtime_s)}),
    ("serve.replay", "repro.serve.resilience:replay_runtime_task",
     lambda a, k, r: {"target": int(a[2])}),
]

#: modules imported before wrapping, so every by-name binding exists
_PRELOAD = (
    "repro.cli",
    "repro.serve",
    "repro.serve.engine",
    "repro.serve.resilience",
    "repro.pipeline.predict",
    "repro.pipeline.collect",
    "repro.pipeline.experiment",
)


def _wrap(fn: Callable, name: str, attrs, recorder: Recorder) -> Callable:
    prepare = _materialize_tasks if name == "exec.pool" else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if prepare is not None:
            args, kwargs = prepare(args, kwargs)
        token = recorder.begin()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            recorder.end(name, token, {"error": 1})
            raise
        recorder.end(
            name, token, (lambda: attrs(args, kwargs, result)) if attrs else None
        )
        return result

    return wrapper


def install(recorder: Recorder) -> int:
    """Wrap every function of :data:`WRAPS`; returns the rebinding count."""
    for mod in _PRELOAD:
        importlib.import_module(mod)
    rebound = 0
    for name, target, attrs in WRAPS:
        mod_name, qualname = target.split(":")
        module = importlib.import_module(mod_name)
        if "." in qualname:
            cls_name, meth = qualname.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, _wrap(cls.__dict__[meth], name, attrs, recorder))
            rebound += 1
            continue
        original = getattr(module, qualname)
        wrapper = _wrap(original, name, attrs, recorder)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    rebound += 1
    return rebound


# ----------------------------------------------------------------------
# per-layer metrics from merged spans


def _outermost(spans: List[Span], name: str, by_id: Dict[str, Span]) -> List[Span]:
    """Spans of ``name`` not nested inside another span of the same name."""
    out = []
    for s in spans:
        if s.name != name:
            continue
        parent = by_id.get(s.parent_id) if s.parent_id else None
        nested = False
        while parent is not None:
            if parent.name == name:
                nested = True
                break
            parent = by_id.get(parent.parent_id) if parent.parent_id else None
        if not nested:
            out.append(s)
    return out


def layer_metrics(
    spans: List[Span],
    *,
    main_pid: int,
    wall_s: float,
    cpu_s: float,
    untraced_wall_s: Optional[float],
) -> Dict[str, float]:
    """The span-derived per-layer metrics (see BENCHMARK.json)."""
    by_id = {s.span_id: s for s in spans}
    selfs = self_times_s(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def calls(name):
        return float(len(named(name)))

    def busy(name):
        return sum(s.duration_s for s in _outermost(spans, name, by_id))

    def self_s(name):
        return sum(selfs[s.span_id] for s in named(name))

    def attr_sum(name, key):
        return float(sum((s.attrs or {}).get(key, 0) for s in named(name)))

    accesses = attr_sum("cache.engine_run", "accesses")
    engine_busy = busy("cache.engine_run")
    hits = attr_sum("exec.sigcache.get", "hit")
    gets = calls("exec.sigcache.get")
    main_top = [s for s in top_level(spans) if s.pid == main_pid]
    covered_s = union_ns((s.start_ns, s.end_ns) for s in main_top) / 1e9
    m = {
        "machine.multimaps.calls": calls("machine.multimaps"),
        "machine.multimaps.busy_s": busy("machine.multimaps"),
        "apps.build_job.calls": calls("apps.build_job"),
        "apps.build_job.busy_s": busy("apps.build_job"),
        "apps.rank_program.calls": calls("apps.rank_program"),
        "apps.rank_program.busy_s": busy("apps.rank_program"),
        "apps.rank_program.self_s": self_s("apps.rank_program"),
        "simmpi.profile_job.calls": calls("simmpi.profile_job"),
        "simmpi.profile_job.self_s": self_s("simmpi.profile_job"),
        "cache.engine_run.calls": calls("cache.engine_run"),
        "cache.engine_run.busy_s": engine_busy,
        "cache.accesses": accesses,
        "cache.maccess_per_s": (
            accesses / engine_busy / 1e6 if engine_busy > 0 else 0.0
        ),
        "instrument.collect_trace.calls": calls("instrument.collect_trace"),
        "instrument.collect_trace.self_s": self_s("instrument.collect_trace"),
        "exec.sigcache.hits": hits,
        "exec.sigcache.misses": gets - hits,
        "exec.sigcache.busy_s": busy("exec.sigcache.get")
        + busy("exec.sigcache.put"),
        "exec.pool.tasks": attr_sum("exec.pool", "tasks"),
        "exec.pool.busy_s": sum(
            s.duration_s
            for s in _outermost(spans, "exec.pool", by_id)
            if (s.attrs or {}).get("tasks", 0) > 0
        ),
        "process.cpu_s": cpu_s,
        "core.fit.calls": calls("core.fit"),
        "core.fit.busy_s": busy("core.fit"),
        "core.predict.calls": calls("core.predict"),
        "core.predict.busy_s": busy("core.predict"),
        "psins.convolve.busy_s": busy("psins.convolve"),
        "psins.replay.calls": calls("psins.replay"),
        "psins.replay.busy_s": busy("psins.replay"),
        "psins.replay.ranks": attr_sum("psins.replay", "ranks"),
        "psins.ground_truth.busy_s": busy("psins.ground_truth"),
        "serve.replay.calls": calls("serve.replay"),
        "serve.replay.busy_s": busy("serve.replay"),
        "pipeline.untraced_s": wall_s - covered_s,
        "pipeline.coverage_pct": 100.0 * covered_s / wall_s if wall_s > 0 else 0.0,
        "pipeline.trace_overhead_pct": (
            100.0 * (wall_s - untraced_wall_s) / untraced_wall_s
            if untraced_wall_s
            else 0.0
        ),
    }
    return m


def runtime_values(spans: List[Span]) -> List[dict]:
    """Exact runtimes returned by the wrapped predict/measure calls."""
    out = []
    for s in spans:
        if s.name in ("pipeline.predict_runtime", "pipeline.measure_runtime"):
            a = s.attrs or {}
            out.append(
                {"call": s.name.split(".")[1], "n_ranks": a.get("n_ranks"),
                 "runtime_s": a.get("runtime_s")}
            )
    return out
