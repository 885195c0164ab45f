"""Self-tests of the benchmark itself (no program run needed).

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

from pblib import layers  # noqa: E402
from pblib.common import valid_name, valid_unit  # noqa: E402
from pblib.loadgen import (  # noqa: E402
    LoadPlan,
    Request,
    StepResult,
    max_sustained_rate,
)
from pblib.serve_wl import check_answer  # noqa: E402
from pblib.spans import (  # noqa: E402
    Recorder,
    Span,
    load_spans,
    self_times_s,
    top_level,
    union_ns,
)
from pblib.table1_wl import check_table1, parse_table1  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

TABLE1_STDOUT = """\
Table I: prediction errors using extrapolated and collected traces
=======================================================================
Application | Core Count | Trace Type | Predicted Runtime (s) | % Error
------------+------------+------------+-----------------------+--------
specfem3d   | 6144       | Extrap.    | 0.0                   | 2.8%
specfem3d   | 6144       | Coll.      | 0.0                   | 0.4%
measured runtime: 0.001091 s
"""


# ----------------------------------------------------------------------
# metric-name grammar and the BENCHMARK.json format


@pytest.mark.parametrize(
    "name", ["wall_s", "cache.engine_run.calls", "9lives", "a-b_c.d"]
)
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize(
    "name", ["", "_x", ".x", "a b", "a/b", "x" * 65, "é", "p99%"]
)
def test_invalid_names(name):
    assert not valid_name(name)


def test_units_grammar():
    for unit in ("ms", "s", "1/s", "count", "%", "Maccess/s", "MB"):
        assert valid_unit(unit)
    for unit in ("", "a b", "x" * 17, "µs"):
        assert not valid_unit(unit)


def test_benchmark_json_obeys_the_grammar():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(valid_name(n) for n in names)
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               for w in SPEC["workloads"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert valid_unit(m["unit"]) and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and valid_unit(m["unit"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert 1 <= SPEC["run_seconds"] <= 60


def test_every_span_metric_is_declared():
    declared = {m["name"] for m in SPEC["per_layer"]}
    produced = set(
        layers.layer_metrics([], main_pid=1, wall_s=1.0, cpu_s=1.0,
                             untraced_wall_s=1.0)
    )
    assert produced <= declared


# ----------------------------------------------------------------------
# the serve_max_features_qps step rule


def _step(rate, p99_ms, *, n=2000, failed=0, drain_ms=10.0):
    # n latencies whose 99th percentile is p99_ms
    lat = [1.0] * (n - n // 50) + [p99_ms] * (n // 50)
    return StepResult(rate, lat, failed, drain_ms)


def test_step_rule_takes_highest_passing_step():
    steps = [_step(1000, 20), _step(2000, 60), _step(4000, 400), _step(8000, 2000)]
    assert max_sustained_rate(steps, p99_limit_ms=100) == 2000


def test_step_rule_stops_at_first_failing_step():
    # 4000 passes, but 2000 failed a query: the rule stops at 1000
    steps = [_step(1000, 20), _step(2000, 20, failed=1), _step(4000, 20)]
    assert max_sustained_rate(steps, p99_limit_ms=100) == 1000


def test_step_rule_rejects_growing_backlog_and_thin_samples():
    assert max_sustained_rate(
        [_step(1000, 20), _step(2000, 20, drain_ms=150)], p99_limit_ms=100
    ) == 1000
    assert max_sustained_rate([_step(1000, 20, n=999)], p99_limit_ms=100) == 0


def test_step_rule_p99_boundary():
    assert max_sustained_rate([_step(1000, 100.0)], p99_limit_ms=100) == 1000
    assert max_sustained_rate([_step(1000, 100.5)], p99_limit_ms=100) == 0


def test_load_plan_is_seeded():
    def plan(seed):
        p = LoadPlan(seed, (1, 2, 3), (7, 8, 9, 10))
        reqs = p.features(1000, 0.05, "a") + p.runtimes(0.2, 4, 0.5, "b")
        return [(r.req_id, r.kind, r.target, r.tenant, r.due_ns) for r in reqs]

    assert plan(5) == plan(5)
    assert plan(5) != plan(6)
    runtime_targets = [t for _, kind, t, _, _ in plan(5) if kind == "runtime"]
    assert sorted(runtime_targets) == [7, 8, 9, 10]
    dues = [d for _, kind, _, _, d in plan(5) if kind == "features"]
    assert dues[1] - dues[0] == 1_000_000


def test_load_plan_features_follow_zipf_mix():
    targets = (1, 2, 3, 4)
    reqs = LoadPlan(3, targets, (7,)).features(20000, 1.0, "a")
    share = {t: sum(r.target == t for r in reqs) / len(reqs) for t in targets}
    norm = sum(1.0 / k for k in range(1, len(targets) + 1))
    for k, t in enumerate(targets, start=1):
        assert abs(share[t] - 1.0 / k / norm) < 0.02


def test_load_plan_burst_is_due_at_once():
    reqs = LoadPlan(3, (1, 2), (7,)).burst(50, "c")
    assert len(reqs) == 50
    assert {r.due_ns for r in reqs} == {0}
    assert {r.kind for r in reqs} == {"features"}
    assert len({r.req_id for r in reqs}) == 50


# ----------------------------------------------------------------------
# self-time arithmetic


def _span(name, start, end, sid, parent=None, pid=1):
    return Span(name, start, end, sid, parent, pid, "run")


def test_union_of_overlapping_intervals():
    assert union_ns([(0, 10), (5, 15), (20, 30), (30, 31)]) == 26
    assert union_ns([]) == 0


def test_self_time_of_nested_spans():
    spans = [
        _span("outer", 0, 100, "a"),
        _span("child", 10, 30, "b", "a"),
        _span("child", 20, 50, "c", "a"),   # overlaps b: counted once
        _span("grandchild", 12, 18, "d", "b"),
    ]
    st = self_times_s(spans)
    assert st["a"] == pytest.approx((100 - 40) / 1e9)
    assert st["b"] == pytest.approx((20 - 6) / 1e9)
    assert st["c"] == pytest.approx(30 / 1e9)
    assert st["d"] == pytest.approx(6 / 1e9)


def test_self_time_with_forked_worker_spans():
    # the parent's pool span covers two workers running side by side
    spans = [
        _span("exec.pool", 0, 100, "1:1", pid=1),
        _span("cache.engine_run", 5, 80, "2:1", "1:1", pid=2),
        _span("cache.engine_run", 10, 95, "3:1", "1:1", pid=3),
        _span("instrument.collect_trace", 0, 120, "3:2", "1:1", pid=3),
    ]
    st = self_times_s(spans)
    # children clipped to the parent's interval: [0, 100) fully covered
    assert st["1:1"] == pytest.approx(0.0)
    assert [s.span_id for s in top_level(spans)] == ["1:1"]


def test_recorder_merges_forked_worker_spans(tmp_path):
    rec = Recorder(str(tmp_path), "run-x")
    outer = rec.begin()
    pid = os.fork()
    if pid == 0:  # the worker: its top-level span nests under `outer`
        token = rec.begin()
        rec.end("worker.task", token, {"n": 1})
        os._exit(0)
    os.waitpid(pid, 0)
    rec.end("parent.pool", outer)
    rec.flush()
    spans = load_spans(str(tmp_path))
    by_name = {s.name: s for s in spans}
    assert set(by_name) == {"parent.pool", "worker.task"}
    worker, parent = by_name["worker.task"], by_name["parent.pool"]
    assert worker.parent_id == parent.span_id and worker.pid == pid
    assert worker.attrs == {"n": 1} and worker.run_id == "run-x"
    st = self_times_s(spans)
    assert st[parent.span_id] == pytest.approx(
        parent.duration_s - worker.duration_s
    )


def test_layer_metrics_from_spans():
    spans = [
        _span("exec.pool", 0, 1_000_000_000, "1:1"),
        Span("cache.engine_run", 0, 500_000_000, "2:1", "1:1", 2, "r",
             {"accesses": 1_000_000}),
        Span("exec.sigcache.get", 0, 1000, "1:2", None, 1, "r", {"hit": 1}),
        Span("exec.sigcache.get", 0, 1000, "1:3", None, 1, "r", {"hit": 0}),
    ]
    m = layers.layer_metrics(spans, main_pid=1, wall_s=2.0, cpu_s=3.0,
                             untraced_wall_s=1.6)
    assert m["cache.engine_run.calls"] == 1
    assert m["cache.maccess_per_s"] == pytest.approx(2.0)
    assert m["exec.sigcache.hits"] == 1 and m["exec.sigcache.misses"] == 1
    assert m["pipeline.untraced_s"] == pytest.approx(1.0)
    assert m["pipeline.coverage_pct"] == pytest.approx(50.0)
    assert m["pipeline.trace_overhead_pct"] == pytest.approx(25.0)


# ----------------------------------------------------------------------
# correctness checks


def test_table1_check_accepts_the_clean_table():
    parsed = parse_table1(TABLE1_STDOUT)
    assert parsed == {"Extrap.": 2.8, "Coll.": 0.4, "measured_s": 0.001091}
    assert check_table1(0, parsed) == []


def test_table1_check_parses_numbers_not_layout():
    # a later formatting fix of the runtime column must still parse
    reformatted = TABLE1_STDOUT.replace("| 0.0 ", "| 1.060 ms ")
    assert check_table1(0, parse_table1(reformatted)) == []


def test_table1_check_rejects_a_corrupted_row():
    corrupted = TABLE1_STDOUT.replace("2.8%", "12.8%")
    problems = check_table1(0, parse_table1(corrupted))
    assert len(problems) == 1 and "Extrap." in problems[0]
    missing = "\n".join(
        line for line in TABLE1_STDOUT.splitlines() if "Coll." not in line
    )
    assert len(check_table1(0, parse_table1(missing))) == 1
    assert len(check_table1(2, parse_table1(TABLE1_STDOUT))) == 2


REF = {
    "features_sha256": {"6144": "aa" * 32, "768": "bb" * 32},
    "runtime_s": {"768": 0.00105},
}


def _answer(**kw):
    doc = {"ok": True, "features_sha256": "aa" * 32}
    doc.update(kw)
    return doc


def test_serve_check_accepts_right_answers():
    assert check_answer(Request(1, "features", 6144, "t"), _answer(), REF) is None
    rt = Request(2, "runtime", 768, "t")
    good = _answer(features_sha256="bb" * 32, runtime_s=0.00105)
    assert check_answer(rt, good, REF) is None


def test_serve_check_rejects_wrong_digest_runtime_and_errors():
    req = Request(1, "features", 6144, "t")
    assert "digest" in check_answer(req, _answer(features_sha256="cc" * 32), REF)
    assert "no answer" in check_answer(req, None, REF)
    assert "not ok" in check_answer(req, {"ok": False, "error": "x"}, REF)
    rt = Request(2, "runtime", 768, "t")
    off = _answer(features_sha256="bb" * 32, runtime_s=0.0010500000000000002)
    assert "runtime" in check_answer(rt, off, REF)
