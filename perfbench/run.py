"""Benchmark of the repro program on the paper's own protocol.

Run from the root of a checkout::

    python3 perfbench/run.py --workload table1-specfem3d-cold --seed 1 \
        --seconds 25 --trace 0

Workloads, metrics and bounds are listed in ``BENCHMARK.json``; see
``perfbench/README.md`` for what each measures and why.  The last line
of stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end set with ``--trace 0``, the per-layer set
with ``--trace 1``).  The exit code is 0 only when every correctness
check passed; a directory without the program's sources exits 2.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from pblib.common import (  # noqa: E402
    BenchError,
    Checkout,
    Metric,
    emit,
    load_spec,
    median,
    provenance,
)

WORKLOADS = (
    "table1-specfem3d-cold",
    "table1-specfem3d-warm",
    "serve-specfem3d-mixed",
)


def _run_workload(checkout, scratch, args, traced, untraced_wall_s):
    if args.workload.startswith("table1-"):
        from pblib.serve_wl import SERVE_LAYER_METRICS
        from pblib.table1_wl import run_table1_workload

        out = run_table1_workload(
            checkout, scratch, warm=args.workload.endswith("-warm"),
            traced=traced, untraced_wall_s=untraced_wall_s,
        )
        if traced:
            out[0].update({name: 0.0 for name in SERVE_LAYER_METRICS})
        return out
    from pblib.serve_wl import run_serve_workload

    return run_serve_workload(
        checkout, scratch, seed=args.seed, seconds=args.seconds, traced=traced,
        untraced_wall_s=untraced_wall_s,
    )


def _history(checkout: Checkout, workload: str) -> Path:
    return checkout.work / "history" / f"{workload}-{checkout.src_digest()[:16]}.jsonl"


def _append_history(history: Path, wall_s: float) -> None:
    """Remember an untraced program wall time (spawn to exit); traced runs
    compare theirs against the median of these as the tracing overhead."""
    history.parent.mkdir(parents=True, exist_ok=True)
    with open(history, "a") as fh:
        fh.write(json.dumps({"wall_s": wall_s}) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the served load (the Table I workloads "
                         "run the protocol once, however long it takes)")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    try:
        checkout = Checkout.here()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    spec = load_spec()
    traced = bool(args.trace)
    label = f"{args.workload}-s{args.seed}-t{args.trace}"
    history = _history(checkout, args.workload)

    untraced_wall_s = None
    runs = 1
    if traced:
        walls = []
        if history.exists():
            walls = [json.loads(line)["wall_s"] for line in history.read_text().splitlines()]
        if not walls:
            # no untraced run of this source yet: make one, same seed
            scratch = checkout.scratch(label + "-untraced")
            try:
                _, _, _, detail = _run_workload(checkout, scratch, args, False, None)
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            walls = [detail["wall_s"]]
            _append_history(history, walls[0])
            runs += 1
        untraced_wall_s = median(walls)

    scratch = checkout.scratch(label)
    t0 = time.time()
    try:
        metrics, attempted, failed, detail = _run_workload(
            checkout, scratch, args, traced, untraced_wall_s
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    expected = spec["per_layer" if traced else "end_to_end"]
    if traced:
        units = {m["name"]: m["unit"] for m in expected}
        metrics = {
            n: v if isinstance(v, Metric) else Metric(float(v), units.get(n, "?"))
            for n, v in metrics.items()
        }
    correct = failed == 0 and not detail.get("problems")
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "runs": runs,
        "started": t0,
        "untraced_wall_median_s": untraced_wall_s,
        "provenance": provenance(checkout, args.seed),
        "detail": detail,
    }
    print(f"provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    record_path = checkout.work / "records" / f"{label}-{int(t0 * 1000)}.json"
    try:
        emit(
            correct=correct, attempted=attempted, failed=failed, metrics=metrics,
            expected=expected, record=record, record_path=record_path,
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if not traced and correct:
        _append_history(history, detail["wall_s"])
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
