"""Shared fixtures: small, fast variants of the pipeline objects.

Everything here is module-scoped or session-scoped where construction is
expensive (machine profiles probe the simulated hierarchy; traces run the
cache simulator), so the suite stays quick while still exercising the
real code paths end-to-end.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.apps.jacobi import JacobiParams, JacobiProxy
from repro.cache.configs import blue_waters_p1, cray_xt5, opteron_2level
from repro.instrument.collector import CollectorConfig
from repro.machine.profile import build_profile
from repro.machine.systems import get_spec
from repro.pipeline.collect import CollectionSettings, collect_signature

@pytest.fixture(autouse=True)
def _no_ambient_faults(monkeypatch):
    """Isolate every test from ambient fault plans (env or leftover
    install): only plans a test installs itself may fire."""
    from repro.exec import faults

    monkeypatch.delenv(faults.ENV_FAULT_PLAN, raising=False)
    previous = faults.install_plan(None)
    yield
    faults.install_plan(previous)


#: Small collector budget for tests: still coverage-faithful for the
#: small regions the test apps use.
FAST_COLLECTOR = CollectorConfig(
    sample_accesses=30_000, max_sample_accesses=400_000
)

FAST_SETTINGS = CollectionSettings(ranks="slowest", collector=FAST_COLLECTOR)


def program_digest(prog) -> str:
    """SHA-256 over a compiled replay program's arrays and specs."""
    h = hashlib.sha256()
    for a in (prog.offsets, prog.kind, prog.arg, prog.count, prog.sizes):
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(repr((prog.n_sends, prog.specs)).encode())
    return h.hexdigest()


@pytest.fixture(scope="session")
def small_jacobi():
    """A Jacobi proxy small enough to trace at many core counts."""
    return JacobiProxy(JacobiParams(global_cells=(64, 64, 64), n_steps=2))


@pytest.fixture(scope="session")
def bw_machine():
    """Blue-Waters-like machine profile with a reduced probe budget."""
    spec = get_spec("blue_waters_p1")
    return build_profile(
        spec.name,
        spec.hierarchy,
        spec.timing,
        spec.network,
        accesses_per_probe=20_000,
    )


@pytest.fixture(scope="session")
def bw_spec():
    return get_spec("blue_waters_p1")


@pytest.fixture(scope="session")
def jacobi_traces(small_jacobi, bw_machine):
    """Slowest-task traces of the small Jacobi at three core counts."""
    return [
        collect_signature(
            small_jacobi, p, bw_machine.hierarchy, FAST_SETTINGS
        ).slowest_trace()
        for p in (4, 8, 16)
    ]


@pytest.fixture(scope="session")
def serve_model(jacobi_traces):
    """A fitted serving model over the small Jacobi training trio."""
    from repro.core.extrapolate import fit_traces
    from repro.serve import FittedModel, ModelSpec

    report, template = fit_traces(jacobi_traces)
    spec = ModelSpec(
        app="jacobi",
        machine="blue_waters_p1",
        train_counts=(4, 8, 16),
        code_version="test-build",
    )
    return FittedModel(spec=spec, report=report, template=template)
