"""Offline reference answers for the serve workload's correctness check.

Run with the program's sources on ``PYTHONPATH``::

    python3 serve_ref.py --registry DIR --features 768,1536 \
        --runtime 768,6144 --measure 6144 --out reference.json

For the one model in the registry it writes, per target, the SHA-256 of
a sequential single-target ``FittedModel.predict`` matrix (the bytes the
server digests into ``features_sha256``), the runtime of an offline
``predict_runtime`` on that target's synthesized trace, and the
ground-truth ``measure_runtime`` of the Table I target.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys


def _counts(text: str):
    return [int(c) for c in text.split(",") if c]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--registry", required=True)
    ap.add_argument("--features", type=_counts, required=True)
    ap.add_argument("--runtime", type=_counts, required=True)
    ap.add_argument("--measure", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    import numpy as np

    from repro.apps.registry import get_app
    from repro.machine.systems import get_machine, get_spec
    from repro.pipeline.predict import measure_runtime, predict_runtime
    from repro.serve import ModelRegistry, ServeConfig

    registry = ModelRegistry(args.registry)
    digests = registry.digests()
    if len(digests) != 1:
        print(f"expected one model in {args.registry}, found {digests}",
              file=sys.stderr)
        return 1
    model = registry.get(digests[0])
    rtf = ServeConfig().rate_trust_factor
    features = {}
    for target in args.features:
        matrix = model.predict([target], rate_trust_factor=rtf).matrix_for(target)
        values = np.ascontiguousarray(matrix, dtype=np.float64)
        features[str(target)] = hashlib.sha256(values.tobytes()).hexdigest()
    app = get_app(model.spec.app)
    machine = get_machine(model.spec.machine)
    runtimes = {}
    for target in args.runtime:
        sweep = model.predict([target], rate_trust_factor=rtf)
        trace = model.synthesize(target, prediction=sweep)
        runtimes[str(target)] = predict_runtime(app, target, trace, machine).runtime_s
    measured = measure_runtime(
        app, args.measure, get_spec(model.spec.machine)
    ).runtime_s
    doc = {
        "model": digests[0],
        "features_sha256": features,
        "runtime_s": runtimes,
        "measured": {"target": args.measure, "runtime_s": measured},
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
