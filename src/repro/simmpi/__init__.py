"""SimMPI: a deterministic simulated MPI runtime.

The paper's pipeline needs per-rank *event traces* (computation phases
separated by communication events) and a lightweight profiling pass that
identifies the most computationally demanding MPI task (the
PSiNSTracer-based step of §IV).  Real MPI runs at 96–8192 ranks are not
available here, so SimMPI executes per-rank script functions written
against an mpi4py-like API (:class:`SimComm`) and records their
communication/computation events straight into flat per-event arrays —
a :class:`Job`, the one format the PSiNS replay (:mod:`repro.psins.replay`)
compiles and every analysis reads.  :func:`match_messages` is the one
static send/recv matcher.

Rank functions are plain Python callables executed one rank at a time —
apps are SPMD and deterministic, so no actual concurrency is needed to
reconstruct each rank's event sequence.
"""

from repro.simmpi.runtime import (
    COLLECTIVE,
    COLLECTIVE_OPS,
    COMPUTE,
    RECV,
    SEND,
    Job,
    match_messages,
    run_job,
    verify_job,
)
from repro.simmpi.comm import SimComm
from repro.simmpi.profiler import LightweightProfile, profile_job

__all__ = [
    "COMPUTE",
    "SEND",
    "RECV",
    "COLLECTIVE",
    "COLLECTIVE_OPS",
    "SimComm",
    "Job",
    "run_job",
    "match_messages",
    "verify_job",
    "LightweightProfile",
    "profile_job",
]
