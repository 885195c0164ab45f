"""SimMPI job construction and static verification.

``run_job`` executes a rank function once per rank, collecting each
rank's event script.  ``verify_job`` statically checks communication
consistency — every send matched by a receive, collectives issued in the
same order everywhere — which is also what keeps the replay engine
deadlock-free.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Tuple

from repro.simmpi.comm import SimComm
from repro.simmpi.events import CollectiveEvent, ComputeEvent, RecvEvent, SendEvent


@dataclass
class RankScript:
    """One rank's recorded event sequence."""

    rank: int
    events: List = field(default_factory=list)

    @property
    def n_events(self) -> int:
        return len(self.events)

    def compute_events(self) -> List[ComputeEvent]:
        return [e for e in self.events if isinstance(e, ComputeEvent)]


@dataclass
class Job:
    """A complete simulated MPI job at one core count.

    Parameters
    ----------
    app:
        Application name.
    n_ranks:
        Core count.
    scripts:
        Per-rank event scripts (index == rank).
    """

    app: str
    n_ranks: int
    scripts: List[RankScript]
    #: the replay's compiled form, filled by the first replay
    #: (:func:`repro.psins.replay.compile_job`); scripts are records,
    #: never modified once the job is built
    compiled: Optional[Any] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if len(self.scripts) != self.n_ranks:
            raise ValueError(
                f"expected {self.n_ranks} scripts, got {len(self.scripts)}"
            )
        for i, script in enumerate(self.scripts):
            if script.rank != i:
                raise ValueError(f"script {i} has rank {script.rank}")

    def script(self, rank: int) -> RankScript:
        return self.scripts[rank]


def run_job(
    app: str, n_ranks: int, rank_fn: Callable[[SimComm], None]
) -> Job:
    """Execute ``rank_fn`` for every rank; collect scripts.

    ``rank_fn`` receives a :class:`~repro.simmpi.comm.SimComm` and must
    be deterministic in ``(comm.rank, comm.size)`` — the SPMD contract.
    """
    scripts = []
    for rank in range(n_ranks):
        comm = SimComm(rank, n_ranks)
        rank_fn(comm)
        scripts.append(RankScript(rank=rank, events=comm.events))
    return Job(app=app, n_ranks=n_ranks, scripts=scripts)


class JobVerificationError(ValueError):
    """Raised when a job's communication structure is inconsistent."""


def verify_job(job: Job) -> None:
    """Statically check the job's communication consistency.

    - every ``(src, dest, tag)`` send count equals the matching receive
      count;
    - every rank issues the same sequence of collectives (op and size).

    Raises :class:`JobVerificationError` with a diagnostic on failure.
    """
    sends: Counter = Counter()
    recvs: Counter = Counter()
    collective_seqs: List[Tuple[Tuple[str, int], ...]] = []
    for script in job.scripts:
        seq = []
        for ev in script.events:
            if isinstance(ev, SendEvent):
                sends[(script.rank, ev.dest, ev.tag)] += 1
            elif isinstance(ev, RecvEvent):
                recvs[(ev.src, script.rank, ev.tag)] += 1
            elif isinstance(ev, CollectiveEvent):
                seq.append((ev.op, ev.nbytes))
        collective_seqs.append(tuple(seq))
    unmatched_sends = sends - recvs
    unmatched_recvs = recvs - sends
    if unmatched_sends:
        key, count = next(iter(unmatched_sends.items()))
        raise JobVerificationError(
            f"{job.app}: {count} unmatched send(s) on (src, dest, tag)={key}"
        )
    if unmatched_recvs:
        key, count = next(iter(unmatched_recvs.items()))
        raise JobVerificationError(
            f"{job.app}: {count} unmatched recv(s) on (src, dest, tag)={key}"
        )
    first = collective_seqs[0]
    for rank, seq in enumerate(collective_seqs[1:], start=1):
        if seq != first:
            raise JobVerificationError(
                f"{job.app}: rank {rank} collective sequence differs from rank 0 "
                f"({len(seq)} vs {len(first)} collectives or mismatched ops)"
            )
