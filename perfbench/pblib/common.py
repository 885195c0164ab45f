"""Shared plumbing: isolated program runs, provenance, statistics, output.

The program always runs as a child process from the root of the
checkout, with ``PYTHONPATH=src``, ``HOME`` pointed into the run's own
scratch directory and every ``REPRO_*`` environment variable that could
redirect its caches, faults or tracing cleared, so no run ever touches
``~/.cache/repro`` or another run's state.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: the paper's SPECFEM3D protocol (Table I): training counts and target
APP = "specfem3d"
TRAIN = "96,384,1536"
TABLE1_TARGET = 6144

#: environment variables of the program that are cleared for every run
CLEARED_ENV = (
    "REPRO_TRACE",
    "REPRO_FAULT_PLAN",
    "REPRO_SIGNATURE_CACHE",
    "REPRO_MODEL_REGISTRY",
    "REPRO_LOG",
)

#: metric names: a letter or digit, then up to 63 of [A-Za-z0-9_.-]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
#: metric units: up to 16 of [A-Za-z0-9_/%.-]
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")

BENCH_DIR = Path(__file__).resolve().parent.parent


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, program failure)."""


def valid_name(name: str) -> bool:
    return bool(NAME_RE.match(name))


def valid_unit(unit: str) -> bool:
    return bool(UNIT_RE.match(unit))


def load_spec() -> dict:
    """BENCHMARK.json, found beside the benchmark directory."""
    return json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    if not values:
        raise ValueError("quantile of no values")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else float("nan")


def pct(values: Sequence[float], q: float) -> float:
    """:func:`quantile`, or NaN when there is nothing to rank (a run whose
    answers all failed still reports, and fails its checks)."""
    return quantile(values, q) if values else float("nan")


# ----------------------------------------------------------------------
# the checkout and the run's scratch space


@dataclass
class Checkout:
    root: Path

    @classmethod
    def here(cls) -> "Checkout":
        root = Path.cwd()
        if not (root / "src" / "repro" / "cli.py").is_file():
            raise BenchError(
                f"no repro sources under {root}/src: run from the root of a "
                "checkout of the repository"
            )
        return cls(root)

    @property
    def work(self) -> Path:
        base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        return (self.root / base / "perfbench").resolve()

    def src_digest(self) -> str:
        """SHA-256 over every file under ``src/`` (path and bytes)."""
        h = hashlib.sha256()
        src = self.root / "src"
        for path in sorted(src.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(src)).encode() + b"\0")
                h.update(path.read_bytes())
        return h.hexdigest()

    def scratch(self, label: str) -> Path:
        path = self.work / "runs" / f"{label}-{os.getpid()}"
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def env(self, scratch: Path) -> Dict[str, str]:
        env = {
            k: v
            for k, v in os.environ.items()
            if k not in CLEARED_ENV and not k.startswith("PERFBENCH_")
        }
        env["PYTHONPATH"] = str(self.root / "src")
        env["HOME"] = str(scratch / "home")
        (scratch / "home").mkdir(exist_ok=True)
        return env


def _git(root: Path, *args: str) -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", *args], cwd=root, capture_output=True, text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance(checkout: Checkout, seed: int) -> dict:
    import numpy

    sha = _git(checkout.root, "rev-parse", "HEAD")
    dirty = None
    if sha is not None:
        dirty = bool(_git(checkout.root, "status", "--porcelain", "--", "src"))
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": checkout.src_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
    }


# ----------------------------------------------------------------------
# running the program


@dataclass
class ProcResult:
    returncode: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    pid: int


def wait_measured(
    proc: subprocess.Popen, t0: float, timeout_s: Optional[float] = None
) -> tuple:
    """Reap ``proc``; returns (exit code, wall s, cpu s, peak RSS MB).

    CPU and peak RSS come from ``wait4``, so they cover the program and
    every descendant it reaped (its pool workers), not this process.
    RSS is that of the largest single process in the tree.
    """
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if timeout_s is not None and time.perf_counter() - t0 > timeout_s:
            kill_tree(proc)
            raise BenchError(f"program exceeded {timeout_s:.0f} s: {proc.args}")
        time.sleep(0.002)
    wall = time.perf_counter() - t0
    code = os.waitstatus_to_exitcode(status)
    proc.returncode = code
    return code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def spawn(argv: List[str], checkout: Checkout, env: Dict[str, str], **kw):
    """Start the program in its own process group, so :func:`kill_tree`
    also reaches its pool workers."""
    return subprocess.Popen(
        argv, cwd=checkout.root, env=env, start_new_session=True, **kw
    )


def kill_tree(proc: subprocess.Popen) -> None:
    """Kill the program's process group and reap the program."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    if proc.returncode is None:
        try:
            os.waitpid(proc.pid, 0)
        except ChildProcessError:
            pass
        proc.returncode = -signal.SIGKILL


def run_program(
    argv: List[str],
    checkout: Checkout,
    scratch: Path,
    *,
    timeout_s: float = 170.0,
    extra_env: Optional[Dict[str, str]] = None,
) -> ProcResult:
    """Run one program command to completion, measuring it."""
    env = checkout.env(scratch)
    if extra_env:
        env.update(extra_env)
    out_path = scratch / f"stdout-{len(list(scratch.glob('stdout-*')))}.txt"
    err_path = out_path.with_name(out_path.name.replace("stdout", "stderr"))
    with open(out_path, "w") as out, open(err_path, "w") as err:
        t0 = time.perf_counter()
        proc = spawn(argv, checkout, env, stdout=out, stderr=err,
                     stdin=subprocess.DEVNULL)
        try:
            code, wall, cpu, rss = wait_measured(proc, t0, timeout_s)
        except BaseException:
            kill_tree(proc)
            raise
    return ProcResult(
        code, wall, cpu, rss, out_path.read_text(), err_path.read_text(),
        proc.pid,
    )


def repro_argv(args: List[str], *, traced: bool) -> List[str]:
    if traced:
        return [sys.executable, str(BENCH_DIR / "pblib" / "traced_main.py"), *args]
    return [sys.executable, "-m", "repro", *args]


# ----------------------------------------------------------------------
# results


@dataclass
class Metric:
    value: float
    unit: str
    #: samples behind the value (for percentiles: the population size)
    n: int = 1


def emit(
    *,
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Metric],
    expected: Sequence[dict],
    record: dict,
    record_path: Path,
) -> None:
    """Print every metric with unit and sample count, then the JSON line.

    The metric set must be exactly ``expected`` (the BENCHMARK.json list
    for this run's mode), with matching units.
    """
    names = [m["name"] for m in expected]
    bad = [n for n in metrics if not valid_name(n) or not valid_unit(metrics[n].unit)]
    if bad:
        raise BenchError(f"metric names or units outside the grammar: {bad}")
    missing = [n for n in names if n not in metrics]
    extra = [n for n in metrics if n not in names]
    if missing or extra:
        raise BenchError(f"metric set mismatch: missing {missing}, extra {extra}")
    for m in expected:
        got = metrics[m["name"]]
        if got.unit != m["unit"]:
            raise BenchError(
                f"metric {m['name']} has unit {got.unit}, expected {m['unit']}"
            )
    for name in names:
        m = metrics[name]
        print(f"  {name:34s} {m.value:>14.6g} {m.unit:8s} (n={m.n})")
    record = dict(record)
    record["metrics"] = {
        n: {"value": metrics[n].value, "unit": metrics[n].unit, "n": metrics[n].n}
        for n in names
    }
    record.update(correct=correct, attempted=attempted, failed=failed)
    record_path.parent.mkdir(parents=True, exist_ok=True)
    record_path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"record: {record_path}")
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": {
                    n: {"value": float(metrics[n].value), "unit": metrics[n].unit}
                    for n in names
                },
            }
        ),
        flush=True,
    )
