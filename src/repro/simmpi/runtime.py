"""SimMPI jobs: the event encoding, recording, matching and verification.

A :class:`Job` is flat per-event arrays, rank after rank — the one
format the communicator records, the replay compiles and every analysis
reads.  ``run_job`` executes a rank function once per rank, joining the
ranks' recorded buffers.  :func:`match_messages` pairs every receive
with its send statically, and ``verify_job`` checks communication
consistency with it — every send matched by a receive, collectives
issued in the same order everywhere — which is also what keeps the
replay engine deadlock-free.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

import numpy as np

from repro.util.validation import ValidationError

#: event kinds (the ``kind`` codes; the C replay kernel shares them)
COMPUTE, SEND, RECV, COLLECTIVE = range(4)
#: each kind's name, as diagnostics print it
KIND_NAMES = ("compute", "send", "recv", "collective")

#: Collective operations the replay network model knows how to cost; a
#: collective event's ``arg`` indexes this tuple.
COLLECTIVE_OPS = (
    "barrier",
    "allreduce",
    "reduce",
    "broadcast",
    "alltoall",
    "allgather",
)

#: array typecodes of the recording buffers: kind, arg, count, tag
BUFFER_TYPES = ("b", "i", "q", "q")
_DTYPES = (np.int8, np.int32, np.int64, np.int64)


@dataclass(eq=False)
class Job:
    """A complete simulated MPI job at one core count.

    Rank ``r``'s events, in program order, are ``offsets[r]:offsets[r +
    1]`` of four per-event arrays:

    - ``kind`` (int8): :data:`COMPUTE`, :data:`SEND`, :data:`RECV` or
      :data:`COLLECTIVE`;
    - ``arg`` (int32): the block id, the peer rank, or the index into
      :data:`COLLECTIVE_OPS`;
    - ``count`` (int64): iterations, or bytes (a collective's per-rank
      payload);
    - ``tag`` (int64): the message tag (0 for compute and collectives).

    Arrays built by hand are checked like recorded events: iterations,
    peers and bytes non-negative, collective ops known.  A peer outside
    the job is allowed here (such a message never matches).
    """

    app: str
    n_ranks: int
    offsets: np.ndarray
    kind: np.ndarray
    arg: np.ndarray
    count: np.ndarray
    tag: np.ndarray
    #: the replay's compiled form, filled by the first replay
    #: (:func:`repro.psins.replay.compile_job`); the event arrays are
    #: never modified once the job is built
    compiled: Optional[Any] = field(default=None, init=False, repr=False)

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        self.kind, self.arg, self.count, self.tag = (
            np.asarray(a, dtype=dt)
            for a, dt in zip(
                (self.kind, self.arg, self.count, self.tag), _DTYPES
            )
        )
        n, offsets, kind = self.n_ranks, self.offsets, self.kind
        if offsets.shape != (n + 1,):
            raise ValueError(f"expected {n + 1} offsets, got {offsets.size}")
        sizes = {a.shape for a in (kind, self.arg, self.count, self.tag)}
        if len(sizes) != 1 or kind.ndim != 1:
            raise ValueError("event arrays must be 1-D and of one length")
        if offsets[0] != 0 or offsets[-1] != kind.size or (
            np.diff(offsets) < 0
        ).any():
            raise ValueError(
                f"offsets must rise from 0 to the event count {kind.size}"
            )
        compute = kind == COMPUTE
        p2p = (kind == SEND) | (kind == RECV)
        ops = self.arg[kind == COLLECTIVE]
        for ok, name, values, rule in (
            ((kind >= 0) & (kind <= COLLECTIVE), "event kind", kind,
             f"one of 0..{COLLECTIVE}"),
            (self.count[compute] >= 0, "iterations", self.count[compute], ">= 0"),
            (self.arg[p2p] >= 0, "peer", self.arg[p2p], ">= 0"),
            (self.count[~compute] >= 0, "nbytes", self.count[~compute], ">= 0"),
            ((ops >= 0) & (ops < len(COLLECTIVE_OPS)), "collective op", ops,
             f"an index into {COLLECTIVE_OPS}"),
        ):
            if not ok.all():
                bad = values[np.argmin(ok)].item()
                raise ValidationError(f"{name} must be {rule}, got {bad!r}")

    def events_of(self, rank: int) -> slice:
        """Rank ``rank``'s events, as a slice of the per-event arrays."""
        return slice(int(self.offsets[rank]), int(self.offsets[rank + 1]))

    def ranks_of(self, events: np.ndarray) -> np.ndarray:
        """The rank each event index in ``events`` belongs to."""
        return np.searchsorted(self.offsets, events, "right") - 1


def run_job(
    app: str, n_ranks: int, rank_fn: Callable[[Any], None]
) -> Job:
    """Execute ``rank_fn`` for every rank; join the recorded events.

    ``rank_fn`` receives a :class:`~repro.simmpi.comm.SimComm` and must
    be deterministic in ``(comm.rank, comm.size)`` — the SPMD contract.
    """
    from repro.simmpi.comm import SimComm  # local: comm imports this module

    joined = tuple(array(t) for t in BUFFER_TYPES)
    offsets = [0]
    for rank in range(n_ranks):
        comm = SimComm(rank, n_ranks)
        rank_fn(comm)
        for buf, own in zip(joined, comm.buffers):
            buf.extend(own)
        offsets.append(len(joined[0]))
    kind, arg, count, tag = (
        np.frombuffer(buf, dtype=dt) for buf, dt in zip(joined, _DTYPES)
    )
    return Job(app, n_ranks, offsets, kind, arg, count, tag)


def match_messages(job: Job) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pair every receive with the send it takes, statically.

    Returns ``(sends, recvs, matched)``: the event indices of the job's
    sends and recvs, and per recv the ordinal in ``sends`` of its
    message (-1: never sent).  Messages on one ``(src, dest, tag)`` key
    are sent in the sender's program order and received in the
    receiver's, so the k-th recv on a key takes the k-th send on it
    whatever the schedule: a stable sort by key pairs them.
    """
    n, kind, arg = job.n_ranks, job.kind, job.arg
    sends = np.flatnonzero(kind == SEND)
    recvs = np.flatnonzero(kind == RECV)
    # (src, dest, tag) of every send and recv; a peer outside the job
    # can never match, so every such peer becomes the spare value n
    keys = [
        (job.ranks_of(sends), np.minimum(arg[sends], n, dtype=np.int64),
         job.tag[sends]),
        (np.minimum(arg[recvs], n, dtype=np.int64), job.ranks_of(recvs),
         job.tag[recvs]),
    ]
    lo = min(int(t.min(initial=0)) for _, _, t in keys)
    span = max(int(t.max(initial=0)) for _, _, t in keys) - lo + 1
    base = n + 1
    if base * base * span < 1 << 63:  # pack into one int64
        packed = []
        for src, dest, tag in keys:
            src *= base
            src += dest
            src *= span
            src += tag
            src -= lo
            packed.append(src)
        send_key, recv_key = packed
    else:  # too wide: number the distinct triples
        dense = np.unique(
            np.hstack([np.stack(k) for k in keys]), axis=1, return_inverse=True
        )[1].reshape(-1)
        send_key, recv_key = dense[: sends.size], dense[sends.size:]
    del keys
    send_order = np.argsort(send_key, kind="stable")
    send_key.sort()
    recv_order = np.argsort(recv_key, kind="stable")
    recv_key.sort()
    # the sorted position of a recv's send: the key's first send plus
    # the recv's ordinal among the key's recvs
    pos = np.searchsorted(send_key, recv_key)
    pos += np.arange(recv_key.size)
    pos -= np.searchsorted(recv_key, recv_key)
    hit = pos < np.searchsorted(send_key, recv_key, "right")
    matched = np.full(recv_key.size, -1, dtype=np.int64)
    matched[recv_order[hit]] = send_order[pos[hit]]
    return sends, recvs, matched


class JobVerificationError(ValueError):
    """Raised when a job's communication structure is inconsistent."""


def _unmatched(job: Job, what: str, events, src, dest) -> JobVerificationError:
    """The error naming the first unmatched event's key and its count."""
    tag = job.tag[events]
    same = (src == src[0]) & (dest == dest[0]) & (tag == tag[0])
    key = (int(src[0]), int(dest[0]), int(tag[0]))
    return JobVerificationError(
        f"{job.app}: {int(same.sum())} unmatched {what}(s) on "
        f"(src, dest, tag)={key}"
    )


def verify_job(job: Job) -> None:
    """Statically check the job's communication consistency.

    - every send is received and every receive sent
      (:func:`match_messages`);
    - every rank issues the same sequence of collectives (op and size).

    Raises :class:`JobVerificationError` with a diagnostic on failure.
    """
    sends, recvs, matched = match_messages(job)
    taken = np.zeros(sends.size, dtype=bool)
    taken[matched[matched >= 0]] = True
    lost = sends[~taken]
    if lost.size:
        raise _unmatched(job, "send", lost, job.ranks_of(lost), job.arg[lost])
    lost = recvs[matched < 0]
    if lost.size:
        raise _unmatched(job, "recv", lost, job.arg[lost], job.ranks_of(lost))

    colls = np.flatnonzero(job.kind == COLLECTIVE)
    specs = np.stack([job.arg[colls], job.count[colls]], axis=1)
    bounds = np.searchsorted(colls, job.offsets).tolist()
    first = specs[bounds[0]:bounds[1]]
    for rank in range(1, job.n_ranks):
        seq = specs[bounds[rank]:bounds[rank + 1]]
        if not np.array_equal(seq, first):
            raise JobVerificationError(
                f"{job.app}: rank {rank} collective sequence differs from "
                f"rank 0 ({len(seq)} vs {len(first)} collectives or "
                f"mismatched ops)"
            )
