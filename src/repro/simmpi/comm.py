"""The communicator object rank scripts program against.

API shape follows mpi4py's lowercase conventions (``send``/``recv``/
``allreduce``/...) so that app proxies read like the MPI codes they stand
in for, with one addition: :meth:`SimComm.compute` marks a computation
phase (``iterations`` of a named basic block) — the "work done on the
processor in between communication events" the PMaC computation model
covers (§III).

Each call appends one event straight into typed buffers in the
encoding of :mod:`repro.simmpi.runtime`; a value the encoding cannot
hold (a tag outside int64, say) raises here, at the call.
"""

from __future__ import annotations

from array import array

from repro.simmpi.runtime import (
    BUFFER_TYPES,
    COLLECTIVE,
    COLLECTIVE_OPS,
    COMPUTE,
    RECV,
    SEND,
)
from repro.util.validation import check_in_range

_OP = {op: i for i, op in enumerate(COLLECTIVE_OPS)}


class SimComm:
    """Event-recording communicator for one rank.

    Parameters
    ----------
    rank, size:
        This process's rank and the communicator size.

    The recorded events are ``kind``, ``arg``, ``count`` and ``tag``
    (``array.array`` buffers, one entry per event; see
    :class:`~repro.simmpi.runtime.Job`).
    """

    def __init__(self, rank: int, size: int):
        if size <= 0:
            raise ValueError(f"communicator size must be positive, got {size}")
        if not 0 <= rank < size:
            raise ValueError(f"rank {rank} out of range for size {size}")
        self.rank = rank
        self.size = size
        self.buffers = tuple(array(t) for t in BUFFER_TYPES)
        self.kind, self.arg, self.count, self.tag = self.buffers

    def _record(self, kind: int, arg: int, count: int, tag: int) -> None:
        self.kind.append(kind)
        self.arg.append(arg)
        self.count.append(count)
        self.tag.append(tag)

    # -- introspection (mpi4py-style) -----------------------------------

    def get_rank(self) -> int:
        return self.rank

    def get_size(self) -> int:
        return self.size

    # -- computation phases ---------------------------------------------

    def compute(self, block_id: int, iterations: int) -> None:
        """Record ``iterations`` executions of basic block ``block_id``.

        Zero iterations record nothing; a negative count raises.
        """
        if iterations > 0:
            self._record(COMPUTE, block_id, iterations, 0)
        else:
            check_in_range("iterations", iterations, low=0)

    # -- point-to-point ---------------------------------------------------

    def send(self, dest: int, nbytes: int, tag: int = 0) -> None:
        if not 0 <= dest < self.size:
            raise ValueError(f"send dest {dest} out of range (size {self.size})")
        if dest == self.rank:
            raise ValueError("self-sends are not modeled")
        if nbytes < 0:
            check_in_range("nbytes", nbytes, low=0)
        self._record(SEND, dest, nbytes, tag)

    def recv(self, src: int, nbytes: int, tag: int = 0) -> None:
        if not 0 <= src < self.size:
            raise ValueError(f"recv src {src} out of range (size {self.size})")
        if src == self.rank:
            raise ValueError("self-receives are not modeled")
        if nbytes < 0:
            check_in_range("nbytes", nbytes, low=0)
        self._record(RECV, src, nbytes, tag)

    def sendrecv(
        self, dest: int, send_bytes: int, src: int, recv_bytes: int, tag: int = 0
    ) -> None:
        """Combined exchange, posted send-first (deadlock-free pairwise)."""
        self.send(dest, send_bytes, tag=tag)
        self.recv(src, recv_bytes, tag=tag)

    # -- collectives ------------------------------------------------------

    def _collective(self, op: str, nbytes: int) -> None:
        if nbytes < 0:
            check_in_range("nbytes", nbytes, low=0)
        self._record(COLLECTIVE, _OP[op], nbytes, 0)

    def barrier(self) -> None:
        self._collective("barrier", 0)

    def allreduce(self, nbytes: int) -> None:
        self._collective("allreduce", nbytes)

    def reduce(self, nbytes: int) -> None:
        self._collective("reduce", nbytes)

    def broadcast(self, nbytes: int) -> None:
        self._collective("broadcast", nbytes)

    def alltoall(self, nbytes_per_rank: int) -> None:
        self._collective("alltoall", nbytes_per_rank)

    def allgather(self, nbytes_per_rank: int) -> None:
        self._collective("allgather", nbytes_per_rank)
