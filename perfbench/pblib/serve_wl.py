"""The served what-if workload: one ``repro serve`` under open-loop load.

Preparation, once per source tree (keyed by the digest of ``src/``):
a ``repro serve`` run on an empty registry fits and persists the
SPECFEM3D model (filling a signature cache on the way), then
:mod:`pblib.serve_ref` computes the offline reference answers.  Each run
copies that registry and cache into its own scratch directory, so every
start is a registry hit and no run shares state with another.

A run starts the server and sends one ``features`` and one ``runtime``
warm-up query; set-up ends when both are answered (the runtime one
builds the MultiMAPS machine profile).  Then:

* phase (a): features only, at 1000, 2000, 4000 and 8000 queries/s;
* phase (b): features at 1000 queries/s plus ``runtime`` queries at
  0.2 queries/s cycling targets 768/1536/3072/6144;
* phase (c): :data:`BURSTS` closed-loop bursts, each of
  :data:`BURST_QUERIES` features queries sent at once and timed from the
  send to the last answer.  The median burst time is the run's
  ``wall_s``: a fixed amount of serving work whose time only the server
  sets (phases (a) and (b) run on the generator's clock).

Features targets follow the Zipf mix of :class:`pblib.loadgen.LoadPlan`.

Every answer must be ``ok``; every ``features_sha256`` must equal the
offline single-target digest, and every ``runtime_s`` the offline
``predict_runtime`` value, exactly.
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from pblib import layers
from pblib.common import (
    APP,
    TABLE1_TARGET,
    TRAIN,
    BenchError,
    Checkout,
    Metric,
    kill_tree,
    median,
    pct,
    repro_argv,
    run_program,
    spawn,
    wait_measured,
)
from pblib.loadgen import (
    LATE_LIMIT_MS,
    Connection,
    LoadPlan,
    Request,
    StepResult,
    max_sustained_rate,
    merge,
    play,
)
from pblib.spans import load_spans

#: features targets in rank order: 768 is the hottest (Zipf skew 1.0)
FEATURE_TARGETS = (768, 1536, 3072, 6144, 12288, 24576, 49152)
RUNTIME_TARGETS = (768, 1536, 3072, 6144)
#: phase (a) steps (queries/s); the first is the reference step
STEPS = (1000.0, 2000.0, 4000.0, 8000.0)
STEP_S = 1.2
#: p99 limit of the step rule (ms)
P99_LIMIT_MS = 100.0
MIXED_FEATURES_QPS = 1000.0
RUNTIME_QPS = 0.2
#: phase (b) covers every runtime target once
MIN_RUNTIME_QUERIES = len(RUNTIME_TARGETS)
#: phase (c): closed-loop bursts, one after the other
BURSTS = 9
BURST_QUERIES = 5000
#: every wait of a run ends by this many seconds after the server's
#: spawn, so a wedged server fails the run instead of hanging it
RUN_BUDGET_S = 160.0

SERVE_ARGS = ["serve", "--app", APP, "--train", TRAIN, "--quiet"]

#: serve-only per-layer metrics (zero on the Table I workloads)
SERVE_LAYER_METRICS = (
    "serve.features_p50_ms",
    "serve.features_p99_ms",
    "serve.max_features_qps",
    "serve.mixed_features_p99_ms",
    "serve.runtime_p50_s",
    "serve.engine_p50_ms",
    "serve.engine_p99_ms",
    "serve.transport_p50_ms",
    "serve.batch_size_mean",
    "serve.phase_a.replay_calls",
    "serve.loop_lag_max_ms",
    "serve.answered",
    "serve.failed",
    "serve.rejected",
    "loadgen.sent",
    "loadgen.max_late_ms",
)


# ----------------------------------------------------------------------
# preparation (once per source tree)


def prepare(checkout: Checkout) -> Path:
    """Registry, signature cache and reference answers for this source."""
    prep = checkout.work / "prep" / f"serve-{checkout.src_digest()[:16]}"
    if (prep / "reference.json").is_file():
        return prep
    tmp = prep.with_name(prep.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    t0 = time.perf_counter()
    fill = run_program(
        repro_argv(SERVE_ARGS + ["--registry", str(tmp / "registry"),
                                 "--cache-dir", str(tmp / "sigcache")],
                   traced=False),
        checkout, tmp,
    )
    if fill.returncode != 0:
        raise BenchError(f"registry fill failed:\n{fill.stderr[-2000:]}")
    ref = run_program(
        [
            sys.executable, str(Path(__file__).with_name("serve_ref.py")),
            "--registry", str(tmp / "registry"),
            "--features", ",".join(map(str, FEATURE_TARGETS)),
            "--runtime", ",".join(map(str, RUNTIME_TARGETS)),
            # the Table I target: its served runtime is scored against
            # ground truth
            "--measure", str(TABLE1_TARGET),
            "--out", str(tmp / "reference.json"),
        ],
        checkout, tmp,
    )
    if ref.returncode != 0:
        raise BenchError(f"reference computation failed:\n{ref.stderr[-2000:]}")
    shutil.rmtree(tmp / "home", ignore_errors=True)
    for p in tmp.glob("std*.txt"):
        p.unlink()
    print(f"serve preparation: {time.perf_counter() - t0:.1f} s (once per source)")
    shutil.rmtree(prep, ignore_errors=True)
    tmp.rename(prep)
    return prep


# ----------------------------------------------------------------------
# correctness


def check_answer(req: Request, doc: Optional[dict], ref: dict) -> Optional[str]:
    """None when the answer is right, else what is wrong with it."""
    if doc is None:
        return f"request {req.req_id}: no answer"
    if not doc.get("ok"):
        return f"request {req.req_id}: not ok: {doc.get('error')}"
    want = ref["features_sha256"].get(str(req.target))
    if doc.get("features_sha256") != want:
        return f"request {req.req_id}: features digest differs for {req.target}"
    if req.kind == "runtime":
        want_rt = ref["runtime_s"].get(str(req.target))
        if doc.get("runtime_s") != want_rt:
            return (
                f"request {req.req_id}: runtime {doc.get('runtime_s')!r} != "
                f"offline {want_rt!r} for {req.target}"
            )
    return None


# ----------------------------------------------------------------------
# one run


def _spawn(checkout: Checkout, scratch: Path, traced: bool) -> Tuple[subprocess.Popen, float]:
    args = SERVE_ARGS + [
        "--registry", str(scratch / "registry"),
        "--cache-dir", str(scratch / "sigcache"),
    ]
    env = checkout.env(scratch)
    if traced:
        # only the traced run reads these; the timed runs use the
        # command exactly as users run it
        args += [
            "--summary-out", str(scratch / "summary.json"),
            "--telemetry-out", str(scratch / "telemetry.jsonl"),
            "--telemetry-interval", "250",
        ]
        env["PERFBENCH_SPANS_DIR"] = str(scratch / "spans")
        env["PERFBENCH_RUN_ID"] = scratch.name
    err = open(scratch / "serve-stderr.txt", "w")
    t0 = time.perf_counter()
    proc = spawn(repro_argv(args, traced=traced), checkout, env,
                 stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err)
    err.close()
    return proc, t0


def _loop_lag_max_ms(path: Path) -> float:
    lag = 0.0
    if path.exists():
        for line in path.read_text().splitlines():
            try:
                lag = max(lag, float(json.loads(line).get("loop_lag_s", 0.0)))
            except (json.JSONDecodeError, TypeError, ValueError):
                continue
    return lag * 1e3


def run_serve_workload(
    checkout: Checkout, scratch: Path, *, seed: int, seconds: float,
    traced: bool, untraced_wall_s: Optional[float],
) -> Tuple[dict, int, int, dict]:
    prep = prepare(checkout)
    ref = json.loads((prep / "reference.json").read_text())
    shutil.copytree(prep / "registry", scratch / "registry")
    shutil.copytree(prep / "sigcache", scratch / "sigcache")

    plan = LoadPlan(seed, FEATURE_TARGETS, RUNTIME_TARGETS)
    mixed_s = max(seconds - len(STEPS) * STEP_S, MIN_RUNTIME_QUERIES / RUNTIME_QPS)
    n_runtime = max(MIN_RUNTIME_QUERIES, int(mixed_s * RUNTIME_QPS))

    proc, t_spawn = _spawn(checkout, scratch, traced)
    conn = Connection(proc)
    requests: List[Request] = []

    def left(cap_s: float) -> float:
        return max(0.0, min(cap_s, t_spawn + RUN_BUDGET_S - time.perf_counter()))

    try:
        warm = [
            Request(-1, "features", TABLE1_TARGET, "warmup", phase="warmup"),
            Request(-2, "runtime", RUNTIME_TARGETS[0], "warmup", phase="warmup"),
        ]
        t_warm_ns = time.monotonic_ns()
        for r in warm:
            r.due_ns = t_warm_ns
        conn.send(b"".join(r.line() for r in warm), len(warm))
        if not conn.wait_received(2, left(90.0)):
            raise BenchError("serve did not answer its warm-up queries")
        setup_s = time.perf_counter() - t_spawn
        t_load = time.perf_counter()
        requests.extend(warm)

        # a collector pause in this process would read as generator lag
        gc.collect()
        gc.disable()
        late = {}
        steps: List[Tuple[float, List[Request]]] = []
        windows = []
        for rate in STEPS:
            sched = plan.features(rate, STEP_S, f"a{int(rate)}")
            start, late[f"a{int(rate)}"] = play(conn, sched)
            windows.append((start, sched[-1].due_ns))
            conn.wait_received(conn.sent, left(15.0))
            steps.append((rate, sched))
            requests.extend(sched)
        mixed = merge(
            plan.features(MIXED_FEATURES_QPS, mixed_s, "b"),
            plan.runtimes(RUNTIME_QPS, n_runtime, 0.5, "b"),
        )
        _, late["b"] = play(conn, mixed)
        requests.extend(mixed)
        conn.wait_received(conn.sent, left(60.0))
        # (burst, send ns, ns when the wait for its answers ended)
        bursts: List[Tuple[List[Request], int, int]] = []
        for _ in range(BURSTS):
            burst = plan.burst(BURST_QUERIES, "c")
            burst_lines = b"".join(r.line() for r in burst)
            t_send_ns = time.monotonic_ns()
            for r in burst:
                r.due_ns = t_send_ns
            conn.send(burst_lines, len(burst))
            conn.wait_received(conn.sent, left(30.0))
            bursts.append((burst, t_send_ns, time.monotonic_ns()))
            requests.extend(burst)
        gc.enable()
        late_ms = max(late.values())
        conn.close()
        code, wall_s, cpu_s, rss_mb = wait_measured(
            proc, t_spawn, RUN_BUDGET_S + 10.0
        )
        load_wall_s = wall_s - (t_load - t_spawn)
        conn.join()
    except BaseException:
        gc.enable()
        kill_tree(proc)
        raise

    answers = conn.responses()
    problems: List[str] = []
    if code != 0:
        problems.append(f"serve exited with {code}")
    latency_ms: Dict[int, float] = {}
    failed_ids = set()
    for r in requests:
        resp = answers.get(r.req_id)
        problem = check_answer(r, resp.doc if resp else None, ref)
        if problem:
            problems.append(problem)
            failed_ids.add(r.req_id)
        elif r.phase != "warmup":
            latency_ms[r.req_id] = (resp.recv_ns - r.due_ns) / 1e6
    if any(r.req_id in failed_ids for r in warm):
        raise BenchError("warm-up answers failed: " + "; ".join(problems[:5]))
    measured = [r for r in requests if r.phase != "warmup"]
    attempted = len(measured)
    failed = sum(1 for r in measured if r.req_id in failed_ids)
    if late_ms > LATE_LIMIT_MS:
        problems.append(
            f"load generator fell {late_ms:.1f} ms behind its schedule "
            f"(limit {LATE_LIMIT_MS} ms): run invalid"
        )
        failed = attempted

    def lat(rs):
        return [latency_ms[r.req_id] for r in rs if r.req_id in latency_ms]

    step_results = []
    for rate, sched in steps:
        recv = [answers[r.req_id].recv_ns for r in sched if r.req_id in answers]
        drain = (max(recv) - sched[-1].due_ns) / 1e6 if recv else float("inf")
        step_results.append(StepResult(
            rate, lat(sched), sum(1 for r in sched if r.req_id in failed_ids), drain,
        ))
    ref_step = step_results[0]
    mixed_feat = lat([r for r in mixed if r.kind == "features"])
    runtime_lat_s = [v / 1e3 for v in lat([r for r in mixed if r.kind == "runtime"])]
    served_6144 = [
        answers[r.req_id].doc["runtime_s"] for r in mixed
        if r.kind == "runtime" and r.target == TABLE1_TARGET
        and r.req_id not in failed_ids
    ]
    truth = ref["measured"]["runtime_s"]
    if served_6144:
        extrap_err = 100.0 * abs(served_6144[0] - truth) / truth
    else:
        problems.append(f"no correct runtime answer for {TABLE1_TARGET}")
        extrap_err = 100.0  # a missing answer reads as 100% error
    max_qps = max_sustained_rate(step_results, p99_limit_ms=P99_LIMIT_MS)
    burst_times_s = []
    for burst, t_send_ns, t_end_ns in bursts:
        recv = [answers[r.req_id].recv_ns for r in burst if r.req_id in answers]
        if len(recv) < len(burst):
            problems.append(f"burst: {len(burst) - len(recv)} queries unanswered")
            recv = [t_end_ns]
        burst_times_s.append((max(recv) - t_send_ns) / 1e9)
    burst_s = median(burst_times_s)

    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    for s in step_results:
        print(
            f"phase a {s.rate:6.0f} q/s: n={len(s.latencies_ms)} "
            f"p50 {pct(s.latencies_ms, 0.5):.2f} ms "
            f"p99 {pct(s.latencies_ms, 0.99):.2f} ms drain {s.drain_ms:.1f} ms "
            f"failed {s.failed}"
        )
    print(
        f"phase b: features n={len(mixed_feat)} p99 "
        f"{pct(mixed_feat, 0.99):.1f} ms; runtime n={len(runtime_lat_s)} "
        f"p50 {median(runtime_lat_s):.3f} s; max sustained {max_qps:.0f} q/s; "
        f"generator late max {late_ms:.2f} ms"
    )
    print(
        f"phase c: {BURSTS} bursts of {BURST_QUERIES} features answered in "
        + ", ".join(f"{t:.3f}" for t in burst_times_s) + f" s; median {burst_s:.3f} s"
    )
    detail = {
        "setup_s": setup_s, "wall_s": wall_s, "load_wall_s": load_wall_s,
        "burst_s": burst_s, "burst_times_s": burst_times_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": rss_mb, "late_ms": late, "problems": problems[:50],
        "steps": [
            {"rate": s.rate, "n": len(s.latencies_ms),
             "p50_ms": pct(s.latencies_ms, 0.5),
             "p99_ms": pct(s.latencies_ms, 0.99),
             "drain_ms": s.drain_ms, "failed": s.failed}
            for s in step_results
        ],
        "mixed": {"features_n": len(mixed_feat),
                  "features_p99_ms": pct(mixed_feat, 0.99),
                  "runtime_n": len(runtime_lat_s),
                  "runtime_latencies_s": runtime_lat_s},
        "served_runtime_6144_s": served_6144, "measured_6144_s": truth,
    }
    if not traced:
        metrics = {
            # the closed-loop burst: the open-loop phases run on the
            # generator's clock, so their length says little of the server
            "wall_s": Metric(burst_s, "s", len(burst_times_s)),
            "setup_s": Metric(setup_s, "s"),
            "peak_rss_mb": Metric(rss_mb, "MB"),
            "cpu_s": Metric(cpu_s, "s"),
            "ok_frac": Metric((attempted - failed) / attempted, "ratio", attempted),
            "extrap_err_pct": Metric(extrap_err, "%", len(served_6144)),
        }
        return metrics, attempted, failed, detail

    spans = load_spans(str(scratch / "spans"))
    m = layers.layer_metrics(
        spans, main_pid=proc.pid, wall_s=wall_s, cpu_s=cpu_s,
        untraced_wall_s=untraced_wall_s,
    )
    m["guard.gate_flags"] = 0.0
    ref_ok = [r for r in steps[0][1] if r.req_id not in failed_ids]
    engine_ms = [answers[r.req_id].doc["latency_ms"] for r in ref_ok]
    batch = [
        answers[r.req_id].doc["batch_size"]
        for r in requests if r.phase != "warmup" and r.req_id not in failed_ids
    ]
    summary = json.loads((scratch / "summary.json").read_text())["engine"]
    phase_a_replays = sum(
        1 for s in spans
        if s.name == "psins.replay"
        and any(a <= s.start_ns <= b for a, b in windows)
    )
    n_ref, n_mixed = len(ref_step.latencies_ms), len(mixed_feat)
    m.update({
        "serve.features_p50_ms": Metric(
            pct(ref_step.latencies_ms, 0.5), "ms", n_ref),
        "serve.features_p99_ms": Metric(
            pct(ref_step.latencies_ms, 0.99), "ms", n_ref),
        "serve.max_features_qps": max_qps,
        "serve.mixed_features_p99_ms": Metric(
            pct(mixed_feat, 0.99), "ms", n_mixed),
        "serve.runtime_p50_s": Metric(
            median(runtime_lat_s), "s", len(runtime_lat_s)),
        "serve.engine_p50_ms": Metric(pct(engine_ms, 0.5), "ms", len(engine_ms)),
        "serve.engine_p99_ms": Metric(
            pct(engine_ms, 0.99), "ms", len(engine_ms)),
        "serve.transport_p50_ms": (
            pct(ref_step.latencies_ms, 0.5) - pct(engine_ms, 0.5)
        ),
        "serve.batch_size_mean": sum(batch) / len(batch) if batch else 0.0,
        "serve.phase_a.replay_calls": float(phase_a_replays),
        "serve.loop_lag_max_ms": _loop_lag_max_ms(scratch / "telemetry.jsonl"),
        "serve.answered": float(summary["answered"]),
        "serve.failed": float(summary["failed"]),
        "serve.rejected": float(summary["rejected"]),
        "loadgen.sent": float(conn.sent),
        "loadgen.max_late_ms": late_ms,
    })
    detail["n_spans"] = len(spans)
    return m, attempted, failed, detail
