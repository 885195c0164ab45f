"""Stanza detection: compress a rank's trace to its repeating skeleton.

SPMD time-stepping codes emit the same event *shape* every step; only
scalar payloads (message bytes, compute iterations) vary.  ScalaExtrap
exploits this regularity; we detect the shortest prefix whose repetition
reproduces the whole script's type/structure signature and represent the
trace as one :class:`Stanza` plus a repeat count, with per-slot scalar
series kept for fitting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.simmpi.runtime import RECV, SEND, Job


def _slot_keys(job: Job, events: slice) -> np.ndarray:
    """Each event's structural identity (scalars excluded), one row per
    event: its kind, and its tag (p2p) or block id / collective op."""
    kind = job.kind[events]
    p2p = (kind == SEND) | (kind == RECV)
    return np.stack(
        [kind, np.where(p2p, job.tag[events], job.arg[events])], axis=1
    )


def stanza_signature(job: Job, rank: int) -> Tuple:
    """Structural signature of one rank's whole event sequence."""
    return tuple(map(tuple, _slot_keys(job, job.events_of(rank)).tolist()))


@dataclass
class Stanza:
    """One rank's repeating event skeleton.

    ``kind``, ``arg`` and ``tag`` hold one period's events (the first
    occurrence, encoded as in :class:`~repro.simmpi.runtime.Job`);
    ``repeats`` how many times it recurs; ``scalars[i]`` the per-period
    scalar values — iterations or bytes — of slot ``i`` (length
    ``repeats``), letting callers check stationarity or fit within-run
    trends.
    """

    rank: int
    kind: List[int]
    arg: List[int]
    tag: List[int]
    repeats: int
    scalars: List[List[float]] = field(default_factory=list)

    @property
    def n_slots(self) -> int:
        return len(self.kind)

    def signature(self) -> Tuple:
        return tuple(
            (k, t if k in (SEND, RECV) else a)
            for k, a, t in zip(self.kind, self.arg, self.tag)
        )

    def slot_scalar(self, slot: int) -> float:
        """Representative (first-period) scalar of one slot."""
        return self.scalars[slot][0]

    def is_stationary(self, slot: int) -> bool:
        """True if the slot's scalar is identical across periods."""
        vals = self.scalars[slot]
        return all(v == vals[0] for v in vals)


def compress_script(job: Job, rank: int) -> Stanza:
    """Find the shortest repeating stanza of a rank's events.

    The whole script must be an integer number of repetitions of a
    structural period (the normal shape of a time-stepping SPMD trace);
    scripts with a non-repeating structure compress to a single period
    covering everything (repeats=1), which downstream code handles
    uniformly.
    """
    events = job.events_of(rank)
    keys = _slot_keys(job, events)
    n = len(keys)
    if n == 0:
        return Stanza(rank=rank, kind=[], arg=[], tag=[], repeats=0)
    for period in range(1, n + 1):
        if n % period:
            continue
        repeats = n // period
        if (keys.reshape(repeats, period, 2) == keys[:period]).all():
            head = slice(events.start, events.start + period)
            scalars = job.count[events].astype(np.float64)
            return Stanza(
                rank=rank,
                kind=job.kind[head].tolist(),
                arg=job.arg[head].tolist(),
                tag=job.tag[head].tolist(),
                repeats=repeats,
                scalars=scalars.reshape(repeats, period).T.tolist(),
            )
    raise AssertionError("period=n always matches")  # pragma: no cover
