"""The Table I workloads: ``repro table1`` for SPECFEM3D, cold and warm.

Both run the paper's protocol (train 96/384/1536, target 6144) in one
fresh ``repro table1`` process with the CLI's default pool of one worker
per CPU.  Cold passes ``--no-cache``; warm points ``--cache-dir`` at a
signature cache that a first, identical run filled, so signature
collection is skipped while MultiMAPS, job construction, replay and
ground truth still run.
"""

from __future__ import annotations

import hashlib
import json
import re
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
    ProcResult,
    median,
    repro_argv,
    run_program,
)
from pblib.spans import load_spans

#: the paper's accuracy band: both Table I errors must lie within it
ERROR_BAND_PCT = 5.0
#: start-up probes per cold run (the cold workload's set-up)
STARTUP_PROBES = 3

TABLE1_ARGS = [
    "table1", "--app", APP, "--train", TRAIN, "--target", str(TABLE1_TARGET),
    "--quiet",
]

_ROW_RE = re.compile(r"\b(Extrap\.|Coll\.)\s*\|.*?([0-9]+(?:\.[0-9]+)?)\s*%")
_MEASURED_RE = re.compile(r"measured runtime:\s*([0-9.eE+-]+)\s*s")


def parse_table1(stdout: str) -> Dict[str, float]:
    """Numbers from ``repro table1`` stdout: the % error of each trace
    type's row and the measured runtime.  Parses numbers, not layout, so
    a change of column format is not read as a failure."""
    out: Dict[str, float] = {}
    for line in stdout.splitlines():
        m = _ROW_RE.search(line)
        if m and m.group(1) not in out:
            out[m.group(1)] = float(m.group(2))
        m = _MEASURED_RE.search(line)
        if m:
            out["measured_s"] = float(m.group(1))
    return out


def check_table1(returncode: int, parsed: Dict[str, float]) -> List[str]:
    """One problem string per failed Table I row (two rows attempted)."""
    problems = []
    for row in ("Extrap.", "Coll."):
        if returncode != 0:
            problems.append(f"{row} row: table1 exited with {returncode}")
        elif row not in parsed:
            problems.append(f"{row} row: no % error found in the output")
        elif not 0.0 <= parsed[row] <= ERROR_BAND_PCT:
            problems.append(
                f"{row} row: error {parsed[row]}% outside the "
                f"{ERROR_BAND_PCT}% band"
            )
    return problems


def _table1(
    checkout: Checkout, scratch: Path, cache_args: List[str], *, traced: bool,
    spans_dir: Optional[Path] = None,
) -> Tuple[ProcResult, Path]:
    deg = scratch / f"degradation-{len(list(scratch.glob('degradation-*')))}.json"
    args = TABLE1_ARGS + cache_args
    extra = None
    if traced:
        # only the traced run reads the degradation report; the timed
        # runs use the command exactly as users run it
        args = args + ["--degradation-out", str(deg)]
        extra = {"PERFBENCH_SPANS_DIR": str(spans_dir),
                 "PERFBENCH_RUN_ID": scratch.name}
    res = run_program(repro_argv(args, traced=traced), checkout, scratch,
                      extra_env=extra)
    return res, deg


def _startup_probe(checkout: Checkout, scratch: Path) -> float:
    res = run_program(repro_argv(["list"], traced=False), checkout, scratch)
    if res.returncode != 0:
        raise BenchError(f"repro list failed: {res.stderr.strip()[-500:]}")
    return res.wall_s


def run_table1_workload(
    checkout: Checkout, scratch: Path, *, warm: bool, traced: bool,
    untraced_wall_s: Optional[float],
) -> Tuple[dict, int, int, dict]:
    """Set up, run and check one Table I workload.

    Returns (metrics, attempted, failed, record details).  The metrics
    are the end-to-end set as :class:`Metric`, or, when ``traced``, the
    per-layer values as plain numbers.
    """
    detail: dict = {}
    if warm:
        cache = scratch / "sigcache"
        fill, _ = _table1(checkout, scratch, ["--cache-dir", str(cache)], traced=False)
        fill_problems = check_table1(fill.returncode, parse_table1(fill.stdout))
        if fill_problems:
            raise BenchError(
                "cache-filling run failed: " + "; ".join(fill_problems)
                + "\n" + fill.stderr[-2000:]
            )
        setup_samples = [fill.wall_s]
        cache_args = ["--cache-dir", str(cache)]
    else:
        setup_samples = [
            _startup_probe(checkout, scratch) for _ in range(STARTUP_PROBES)
        ]
        cache_args = ["--no-cache"]
    spans_dir = scratch / "spans"
    res, deg_path = _table1(
        checkout, scratch, cache_args, traced=traced, spans_dir=spans_dir
    )
    parsed = parse_table1(res.stdout)
    problems = check_table1(res.returncode, parsed)
    if res.returncode != 0:
        detail["stderr_tail"] = res.stderr[-2000:]
    attempted, failed = 2, len(problems)
    detail.update(
        table1=parsed, problems=problems, setup_samples_s=setup_samples,
        wall_s=res.wall_s, cpu_s=res.cpu_s, peak_rss_mb=res.peak_rss_mb,
    )
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(
        f"table1 {'warm' if warm else 'cold'}: wall {res.wall_s:.3f} s, "
        f"extrap {parsed.get('Extrap.')}%, coll {parsed.get('Coll.')}%, "
        f"measured {parsed.get('measured_s')} s"
    )
    if not traced:
        metrics = {
            "wall_s": Metric(res.wall_s, "s"),
            "setup_s": Metric(median(setup_samples), "s", len(setup_samples)),
            "peak_rss_mb": Metric(res.peak_rss_mb, "MB"),
            "cpu_s": Metric(res.cpu_s, "s"),
            "ok_frac": Metric((attempted - failed) / attempted, "ratio", attempted),
            # an unreadable row is a failed check; it reads as 100% error
            "extrap_err_pct": Metric(parsed.get("Extrap.", 100.0), "%"),
        }
        return metrics, attempted, failed, detail

    spans = load_spans(str(spans_dir))
    m = layers.layer_metrics(
        spans, main_pid=res.pid, wall_s=res.wall_s, cpu_s=res.cpu_s,
        untraced_wall_s=untraced_wall_s,
    )
    values = layers.runtime_values(spans)
    digest = hashlib.sha256(
        json.dumps(values, sort_keys=True).encode()
    ).hexdigest()
    print(f"runtime values: {json.dumps(values)}")
    print(f"runtime digest: {digest}")
    detail.update(runtime_values=values, runtime_digest=digest, n_spans=len(spans))
    if len(values) != 3:
        problems.append(f"expected 2 predictions + 1 measurement, got {values}")
        failed = attempted
    gate_flags = 0.0
    if deg_path.exists():
        gate_flags = float(len(json.loads(deg_path.read_text()).get("gate_flags", [])))
    m["guard.gate_flags"] = gate_flags
    return m, attempted, failed, detail
