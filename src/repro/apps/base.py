"""The application-proxy interface.

An :class:`AppModel` is everything the pipeline needs from a workload:

- per-rank :class:`~repro.instrument.program.Program`\\ s (what the task
  computes, for instrumentation/tracing);
- one time step of every rank's events as a table of :class:`Column`\\ s
  (when it computes vs. communicates, for replay), which
  :meth:`AppModel.build_job` repeats ``params.n_steps`` times into the
  job's arrays — no rank function runs per rank;
- rank equivalence classes (for tractable ground-truth simulation).

Strong vs. weak scaling (§V: "Each application was scaled using strong
scaling"; §VI flags weak scaling as future work) is a mode on the model:
strong keeps the global problem fixed, weak grows it with the core
count.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, List, NamedTuple, Tuple

import numpy as np

from repro.apps.decomposition import SLOTS, CartesianDecomposition, factor3
from repro.instrument.program import Program
from repro.simmpi.runtime import BUFFER_TYPES, COLLECTIVE, COMPUTE, Job


class ScalingMode(enum.Enum):
    """How the global problem size responds to the core count."""

    STRONG = "strong"
    WEAK = "weak"


class Column(NamedTuple):
    """One event of a time step over all ranks, in the encoding of
    :class:`~repro.simmpi.runtime.Job`: each field a scalar or an
    ``(n,)`` array.  A rank lacks the event where ``present`` is false
    or, for a compute event, where it has zero iterations.
    """

    kind: int
    arg: Any
    count: Any
    tag: Any = 0
    present: Any = True


def exchange(kind: int, neighbors: np.ndarray, nbytes, tag: int = 0) -> List[Column]:
    """A send or recv with each present neighbour of the ``(n, 6)`` table,
    in :data:`~repro.apps.decomposition.SLOTS` order; ``nbytes``
    broadcasts to ``(n, 6)``, and a face's tag is ``tag`` plus its dim.
    """
    nbytes = np.broadcast_to(nbytes, neighbors.shape)
    return [
        Column(kind, neighbors[:, s], nbytes[:, s], tag + dim, neighbors[:, s] >= 0)
        for s, (dim, _direction) in enumerate(SLOTS)
    ]


def _emit(app: str, n: int, steps: int, step: List[Column]):
    """The job arrays (offsets, kind, arg, count, tag) of ``steps``
    repetitions of one time step's columns."""
    columns = []
    for kind, *fields in step:
        arg, count, tag, present = (np.broadcast_to(f, (n,)) for f in fields)
        if not all(np.issubdtype(f.dtype, np.integer) for f in (arg, count, tag)):
            raise TypeError(f"{app}: non-integer event field")
        if kind == COMPUTE:
            present = present & (count != 0)
        elif kind != COLLECTIVE:
            peer, own = arg[present], np.flatnonzero(present)
            bad = (peer < 0) | (peer >= n) | (peer == own)
            if bad.any():
                raise ValueError(
                    f"{app}: rank {own[bad][0]} messages peer "
                    f"{peer[bad][0]}, not another rank of {n}"
                )
        columns.append((present, kind, arg, count, tag))
    per_step = sum((c[0] for c in columns), np.zeros(n, dtype=np.int64))
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(per_step * steps, out=offsets[1:])
    arrays = [np.empty(offsets[-1], dtype=t) for t in BUFFER_TYPES]
    # a rank's s-th step starts s * per_step after its first event
    step_starts = np.arange(steps) * per_step[:, None]
    position = offsets[:-1].copy()
    for present, kind, *fields in columns:
        index = position[present, None] + step_starts[present]
        arrays[0][index] = kind
        for out, values in zip(arrays[1:], fields):
            out[index] = values[present, None]
        position += present
    return (offsets, *arrays)


class AppModel:
    """Base class for application proxies."""

    #: Application name used in traces, signatures and reports.
    name: str = "app"
    #: whether the domain wraps around in each dimension
    periodic = (False, False, False)

    # -- the contract ----------------------------------------------------

    def domain(self) -> Tuple[Tuple[int, int, int], Tuple[int, int, int]]:
        """The global grid (strong scaling) and the per-rank grid (weak)."""
        raise NotImplementedError

    def rank_program(self, rank: int, n_ranks: int) -> Program:
        """Build the (laid-out) program of one rank at one core count."""
        raise NotImplementedError

    def time_step(self, n_ranks: int) -> List[Column]:
        """One time step of every rank's events, in program order."""
        raise NotImplementedError

    # -- provided --------------------------------------------------------

    def decomposition(self, n_ranks: int) -> CartesianDecomposition:
        """The grid over ``n_ranks`` ranks (grown with them if weak)."""
        cells, per_rank = self.domain()
        if self.scaling is ScalingMode.WEAK:
            cells = tuple(c * g for c, g in zip(per_rank, factor3(n_ranks)))
        return CartesianDecomposition(cells, n_ranks, periodic=self.periodic)

    def equivalence_classes(self, n_ranks: int) -> List[List[int]]:
        """Partition ranks into identical-program groups (by geometry)."""
        return self.decomposition(n_ranks).equivalence_classes()

    def build_job(self, n_ranks: int) -> Job:
        """Every rank's events: :meth:`time_step` ``params.n_steps`` times.

        Peers are checked as :class:`~repro.simmpi.comm.SimComm` checks
        them (in range, not the rank itself); the rest is the job's own
        validation, which runs after the step's columns are freed.
        """
        arrays = _emit(self.name, n_ranks, self.params.n_steps, self.time_step(n_ranks))
        return Job(self.name, n_ranks, *arrays)

    def program_factory(self, n_ranks: int) -> Callable[[int], Program]:
        """Rank -> program callable bound to one core count."""

        def factory(rank: int) -> Program:
            return self.rank_program(rank, n_ranks)

        return factory
