"""Event-trace replay: "replays the entire execution of the HPC
application on the target/predicted system" (§III).

A cooperative discrete-event scheduler advances per-rank virtual clocks
through each rank's event script:

- **compute** events take time from a :class:`ComputationTimer`;
- **sends** are buffered: the sender pays only a posting overhead and the
  message becomes available at that moment;
- **recvs** block until the matching ``(src, dest, tag)`` message is
  available, then pay the network transfer time;
- **collectives** synchronize all ranks; completion is the latest arrival
  plus the collective's cost model.

The scheduler is work-queue driven (a rank is revisited only when
something it waits for happens), so replay is O(events) not
O(events x ranks).

Two engines run it, both over the job's flat event arrays
(:class:`~repro.simmpi.runtime.Job`).  :func:`replay_job` compiles the
job once (:func:`compile_job`, kept on the job) into the kernel's
program and replays it with the ``replay`` function of
:mod:`repro.cache.kernel`; :class:`ReplayEngine` interprets the events
in Python with its own dynamic mailbox, and runs exactly when that
compiled library is unavailable (no compiler, or a failed build).  The
two agree bit for bit:

- **Static FIFO matching.**  :func:`compile_job` pairs every recv with
  its send by :func:`~repro.simmpi.runtime.match_messages` (the k-th
  recv on a ``(src, dest, tag)`` key takes the k-th send on it); a recv
  then only waits for, and reads the clock of, its one matched send.
  :class:`ReplayEngine` matches as messages arrive, so agreement of the
  two engines also checks the static matcher.
- **Schedule independence.**  Each rank applies a fixed sequence of
  double operations to its clocks; a recv reads only its matched
  send's posting time; a collective finishes at the max of its
  arrivals plus its cost.  The clocks therefore do not depend on the
  order ranks are run in.  The kernel still runs the Python engine's
  order (same run queue, same wake order), so a bad job — a size
  mismatch, a collective-spec mismatch, a deadlock — fails at the
  same event with the same message on either engine.
- **Per-replay inputs in numpy.**  Compute durations come from
  :meth:`ComputationTimer.times_s` over all compute events at once,
  p2p costs once per distinct message size, collective costs once per
  distinct ``(op, bytes)``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Sequence, Tuple

import numpy as np

from repro.cache.kernel import replay_kernel
from repro.machine.network import NetworkParameters
from repro.obs.trace import span
from repro.simmpi.runtime import (
    COLLECTIVE,
    COLLECTIVE_OPS,
    COMPUTE,
    KIND_NAMES,
    RECV,
    SEND,
    Job,
    match_messages,
)


class ComputationTimer:
    """Maps (rank, block, iterations) to seconds.  Subclass or wrap."""

    def time_s(self, rank: int, block_id: int, iterations: int) -> float:
        raise NotImplementedError

    def times_s(
        self, ranks: np.ndarray, blocks: np.ndarray, iterations: np.ndarray
    ) -> np.ndarray:
        """:meth:`time_s` of many compute events at once (float64).

        Loops over :meth:`time_s`; subclasses vectorize it.
        """
        return np.array(
            [
                self.time_s(r, b, i)
                for r, b, i in zip(
                    ranks.tolist(), blocks.tolist(), iterations.tolist()
                )
            ],
            dtype=np.float64,
        )


class UniformTimer(ComputationTimer):
    """Every rank uses the same per-iteration block costs.

    This is the slowest-task-as-base strategy the paper uses (§VI): the
    traced (or extrapolated) task's per-iteration costs apply to every
    rank; per-rank workload differences enter via each rank's own
    iteration counts in its event script.
    """

    def __init__(self, iteration_time_s: Callable[[int], float]):
        self._iteration_time_s = iteration_time_s

    def time_s(self, rank: int, block_id: int, iterations: int) -> float:
        return self._iteration_time_s(block_id) * iterations

    def times_s(self, ranks, blocks, iterations):
        ids, inverse = np.unique(blocks, return_inverse=True)
        per_iteration = np.array(
            [self._iteration_time_s(b) for b in ids.tolist()], dtype=np.float64
        )
        return per_iteration[inverse] * iterations


class PerRankTimer(ComputationTimer):
    """Per-rank (or per-equivalence-class) block costs."""

    def __init__(self, timers: Dict[int, Callable[[int], float]]):
        self._timers = timers

    def _timer(self, rank: int) -> Callable[[int], float]:
        try:
            return self._timers[rank]
        except KeyError:
            raise KeyError(f"no computation timer for rank {rank}") from None

    def time_s(self, rank: int, block_id: int, iterations: int) -> float:
        return self._timer(rank)(block_id) * iterations

    def times_s(self, ranks, blocks, iterations):
        block_ids, block_inverse = np.unique(blocks, return_inverse=True)
        n_blocks, block_list = block_ids.size, block_ids.tolist()
        pairs, inverse = np.unique(
            np.multiply(ranks, n_blocks, dtype=np.int64) + block_inverse,
            return_inverse=True,
        )
        per_iteration = np.array(
            [
                self._timer(p // n_blocks)(block_list[p % n_blocks])
                for p in pairs.tolist()
            ],
            dtype=np.float64,
        )
        return per_iteration[inverse] * iterations


class ReplayDeadlockError(RuntimeError):
    """Raised when no rank can make progress before completion."""


@dataclass
class ReplayResult:
    """Outcome of one replay."""

    app: str
    n_ranks: int
    runtime_s: float
    compute_time_s: np.ndarray
    comm_time_s: np.ndarray
    n_events: int

    @property
    def max_compute_s(self) -> float:
        return float(self.compute_time_s.max()) if self.compute_time_s.size else 0.0

    def comm_fraction(self) -> float:
        """Communication share of the critical path's rank."""
        critical = int(np.argmax(self.compute_time_s + self.comm_time_s))
        total = self.compute_time_s[critical] + self.comm_time_s[critical]
        return float(self.comm_time_s[critical] / total) if total > 0 else 0.0


def _size_mismatch(key: Tuple[int, int, int], sent: int, receiving: int):
    return ValueError(
        f"message size mismatch on {key}: sent {sent}, receiving {receiving}"
    )


def _collective_mismatch(idx: int, rank: int, spec, others):
    return ValueError(
        f"collective #{idx} mismatch: rank {rank} issues {spec}, "
        f"others issued {others}"
    )


def _deadlock(job: Job, pc: Sequence[int]) -> ReplayDeadlockError:
    """``pc``: each rank's next event index (its end offset when done)."""
    starts, ends = job.offsets[:-1].tolist(), job.offsets[1:].tolist()
    stuck = [r for r in range(job.n_ranks) if pc[r] < ends[r]]
    detail = ", ".join(
        f"rank {r} at event {pc[r] - starts[r]}/{ends[r] - starts[r]} "
        f"({KIND_NAMES[job.kind[pc[r]]]})"
        for r in stuck[:5]
    )
    return ReplayDeadlockError(
        f"replay of {job.app} deadlocked with {len(stuck)} rank(s) "
        f"blocked: {detail}"
    )


_COLLECTIVE_COST = {
    "barrier": lambda net, p, b: net.barrier_time_s(p),
    "allreduce": lambda net, p, b: net.allreduce_time_s(p, b),
    "reduce": lambda net, p, b: net.reduce_time_s(p, b),
    "broadcast": lambda net, p, b: net.broadcast_time_s(p, b),
    "alltoall": lambda net, p, b: net.alltoall_time_s(p, b),
    "allgather": lambda net, p, b: net.allgather_time_s(p, b),
}


class ReplayEngine:
    """One replay's scheduler state, inspectable after :meth:`run`.

    All transient bookkeeping lives in plain dicts whose entries are
    removed as soon as they drain — a matched send deletes its emptied
    mailbox slot, a satisfied recv its waiter queue, a completed
    collective both its arrival map and its spec.  On a clean replay
    every one of ``mailbox``, ``recv_waiters``, ``coll_arrivals``, and
    ``coll_spec`` ends empty (unmatched sends legitimately leave mailbox
    residue), so long replays don't accumulate dead entries and tests
    can assert the bookkeeping drained.
    """

    def __init__(
        self,
        job: Job,
        timer: ComputationTimer,
        network: NetworkParameters,
    ):
        self.job = job
        self.timer = timer
        self.network = network
        n = job.n_ranks
        #: each rank's next event index
        self.pc = job.offsets[:-1].tolist()
        self.clock = np.zeros(n)
        self.compute_time = np.zeros(n)
        self.comm_time = np.zeros(n)
        #: (src, dest, tag) -> deque of (available_time, nbytes)
        self.mailbox: Dict[Tuple[int, int, int], Deque[Tuple[float, int]]] = {}
        #: ranks blocked on a recv key
        self.recv_waiters: Dict[Tuple[int, int, int], Deque[int]] = {}
        #: collective synchronization: per-index arrivals and spec
        self.coll_index = [0] * n
        self.coll_arrivals: Dict[int, Dict[int, float]] = {}
        self.coll_spec: Dict[int, Tuple[str, int]] = {}

    def run(self) -> ReplayResult:
        job, timer, network = self.job, self.timer, self.network
        n = job.n_ranks
        kinds, args, counts, tags = (
            a.tolist() for a in (job.kind, job.arg, job.count, job.tag)
        )
        ends = job.offsets[1:].tolist()
        pc = self.pc
        clock = self.clock
        compute_time = self.compute_time
        comm_time = self.comm_time
        mailbox = self.mailbox
        recv_waiters = self.recv_waiters
        coll_index = self.coll_index
        coll_arrivals = self.coll_arrivals
        coll_spec = self.coll_spec

        runnable: Deque[int] = deque(range(n))
        queued = [True] * n
        done_count = 0
        send_overhead = network.send_overhead_us * 1e-6

        def wake(rank: int) -> None:
            if not queued[rank]:
                queued[rank] = True
                runnable.append(rank)

        while runnable:
            r = runnable.popleft()
            queued[r] = False
            end = ends[r]
            while pc[r] < end:
                i = pc[r]
                kind = kinds[i]
                if kind == COMPUTE:
                    dt = timer.time_s(r, args[i], counts[i])
                    clock[r] += dt
                    compute_time[r] += dt
                    pc[r] += 1
                elif kind == SEND:
                    key = (r, args[i], tags[i])
                    clock[r] += send_overhead
                    comm_time[r] += send_overhead
                    mailbox.setdefault(key, deque()).append(
                        (clock[r], counts[i])
                    )
                    pc[r] += 1
                    waiters = recv_waiters.get(key)
                    if waiters:
                        wake(waiters.popleft())
                        if not waiters:
                            del recv_waiters[key]
                elif kind == RECV:
                    key = (args[i], r, tags[i])
                    box = mailbox.get(key)
                    if not box:
                        recv_waiters.setdefault(key, deque()).append(r)
                        break
                    avail, nbytes = box.popleft()
                    if not box:
                        del mailbox[key]
                    if nbytes != counts[i]:
                        raise _size_mismatch(key, nbytes, counts[i])
                    start = clock[r]
                    finish = max(start, avail) + network.p2p_time_s(nbytes)
                    comm_time[r] += finish - start
                    clock[r] = finish
                    pc[r] += 1
                else:  # COLLECTIVE
                    idx = coll_index[r]
                    spec = (COLLECTIVE_OPS[args[i]], counts[i])
                    if idx in coll_spec and coll_spec[idx] != spec:
                        raise _collective_mismatch(idx, r, spec, coll_spec[idx])
                    coll_spec[idx] = spec
                    arrivals = coll_arrivals.setdefault(idx, {})
                    arrivals[r] = clock[r]
                    coll_index[r] += 1
                    if len(arrivals) < n:
                        break  # blocked until the last rank arrives
                    cost = _COLLECTIVE_COST[spec[0]](network, n, spec[1])
                    finish = max(arrivals.values()) + cost
                    for rank, arrived in arrivals.items():
                        comm_time[rank] += finish - arrived
                        clock[rank] = finish
                        pc[rank] += 1
                        if rank != r:
                            wake(rank)
                    # every rank has passed this collective; its
                    # bookkeeping can never be consulted again
                    del coll_arrivals[idx]
                    del coll_spec[idx]
            else:
                done_count += 1

        if done_count < n:
            raise _deadlock(job, pc)

        return ReplayResult(
            app=job.app,
            n_ranks=n,
            runtime_s=float(clock.max()) if n else 0.0,
            compute_time_s=compute_time,
            comm_time_s=comm_time,
            n_events=len(kinds),
        )


#: the kernel's extra event kind: a recv whose matched send has
#: another size (an error once the replay reaches it)
RECV_MISMATCH = COLLECTIVE + 1


@dataclass(frozen=True)
class ReplayProgram:
    """A job compiled for the C replay: flat per-event arrays.

    Rank ``r``'s events are ``offsets[r]:offsets[r + 1]`` of ``kind``
    (int8), ``arg`` (int32) and ``count`` (int64):

    - compute: block id, iterations;
    - send: the send's ordinal (its slot in the per-send arrays), bytes;
    - recv: its matched send's ordinal (-1: never sent), index into
      ``sizes``; kind ``RECV_MISMATCH`` when the matched send's size
      differs (an error once the replay reaches it);
    - collective: index into ``specs``, 0.
    """

    n_ranks: int
    offsets: np.ndarray
    kind: np.ndarray
    arg: np.ndarray
    count: np.ndarray
    n_sends: int
    #: distinct recv sizes, bytes
    sizes: np.ndarray
    #: distinct collective ``(op, nbytes)`` specs, in order of first appearance
    specs: Tuple[Tuple[str, int], ...]


def _compile(job: Job) -> ReplayProgram:
    sends, recvs, matched = match_messages(job)
    kind, arg, count = job.kind.copy(), job.arg.copy(), job.count.copy()

    recv_bytes = count[recvs]
    mismatch = matched >= 0
    mismatch[mismatch] = count[sends[matched[mismatch]]] != recv_bytes[mismatch]
    kind[recvs[mismatch]] = RECV_MISMATCH
    del mismatch
    arg[sends] = np.arange(sends.size)
    arg[recvs] = matched
    sizes, count[recvs] = np.unique(recv_bytes, return_inverse=True)
    del recv_bytes

    colls = np.flatnonzero(kind == COLLECTIVE)
    distinct, first, inverse = np.unique(
        np.stack([arg[colls], count[colls]]),
        axis=1, return_index=True, return_inverse=True,
    )
    order = np.argsort(first)  # number the specs by first appearance
    number = np.empty_like(order)
    number[order] = np.arange(order.size)
    arg[colls] = number[inverse.reshape(-1)]
    count[colls] = 0
    return ReplayProgram(
        n_ranks=job.n_ranks,
        offsets=job.offsets,
        kind=kind,
        arg=arg,
        count=count,
        n_sends=int(sends.size),
        sizes=sizes,
        specs=tuple(
            (COLLECTIVE_OPS[op], nbytes)
            for op, nbytes in distinct[:, order].T.tolist()
        ),
    )


def compile_job(job: Job) -> ReplayProgram:
    """The job's :class:`ReplayProgram`: compiled once, kept on the job.

    Every replay of one job — Table I's two predictions and its ground
    truth replay the same target job — shares the one compile.
    """
    if job.compiled is None:
        with span("replay.compile", n_ranks=job.n_ranks):
            job.compiled = _compile(job)
    return job.compiled


def _kernel_error(job: Job, prog: ReplayProgram, status: int, pc, err):
    """The exception :class:`ReplayEngine` raises at the same event."""
    if status == 1:
        return _deadlock(job, pc.tolist())
    rank = int(err[0])
    i = int(pc[rank])
    nbytes = int(job.count[i])
    if status == 2:
        send = np.flatnonzero(job.kind == SEND)[prog.arg[i]]
        return _size_mismatch(
            (int(job.arg[i]), rank, int(job.tag[i])), int(job.count[send]), nbytes
        )
    idx = int(np.count_nonzero(job.kind[job.offsets[rank]:i] == COLLECTIVE))
    return _collective_mismatch(
        idx, rank, (COLLECTIVE_OPS[job.arg[i]], nbytes), prog.specs[int(err[1])]
    )


def _replay_compiled(
    job: Job,
    timer: ComputationTimer,
    network: NetworkParameters,
    kernel: Callable[..., int],
) -> ReplayResult:
    prog = compile_job(job)
    n = job.n_ranks
    computes = np.flatnonzero(prog.kind == COMPUTE)
    durations = np.ascontiguousarray(
        timer.times_s(
            np.searchsorted(prog.offsets, computes, "right") - 1,
            prog.arg[computes],
            prog.count[computes],
        ),
        dtype=np.float64,
    )
    if durations.shape != computes.shape:  # the kernel reads one per event
        raise ValueError(
            f"{type(timer).__name__}.times_s returned {durations.shape[0]} "
            f"durations for {computes.size} compute events"
        )
    # each rank's first slot in ``durations``
    cursor = np.searchsorted(computes, prog.offsets[:-1])
    del computes
    p2p_cost = np.array(
        [network.p2p_time_s(b) for b in prog.sizes.tolist()], dtype=np.float64
    )
    coll_cost = np.array(
        [_COLLECTIVE_COST[op](network, n, b) for op, b in prog.specs],
        dtype=np.float64,
    )
    clock, compute_time, comm_time = np.zeros(n), np.zeros(n), np.zeros(n)
    pc = prog.offsets[:-1].copy()
    send_time = np.empty(prog.n_sends)
    send_state = np.full(prog.n_sends, -1, dtype=np.int32)  # -1: not posted
    queue = np.empty(n, dtype=np.int32)
    queued = np.empty(n, dtype=np.uint8)
    arrival_rank = np.empty(n, dtype=np.int32)  # the open collective's
    arrival_time = np.empty(n)
    err = np.zeros(2, dtype=np.int64)
    status = kernel(
        n,
        *(a.ctypes.data for a in (
            prog.offsets, prog.kind, prog.arg, prog.count, durations,
            cursor, p2p_cost, coll_cost,
        )),
        network.send_overhead_us * 1e-6,
        *(a.ctypes.data for a in (
            clock, compute_time, comm_time, pc, send_time, send_state,
            queue, queued, arrival_rank, arrival_time, err,
        )),
    )
    if status:
        raise _kernel_error(job, prog, status, pc, err)
    return ReplayResult(
        app=job.app,
        n_ranks=n,
        runtime_s=float(clock.max()) if n else 0.0,
        compute_time_s=compute_time,
        comm_time_s=comm_time,
        n_events=int(prog.kind.size),
    )


def replay_job(
    job: Job,
    timer: ComputationTimer,
    network: NetworkParameters,
) -> ReplayResult:
    """Replay a job's event traces; return the predicted runtime.

    Runs the compiled kernel, or :class:`ReplayEngine` when the C
    library is unavailable; the results are bit-identical.
    """
    kernel = replay_kernel()
    with span(
        "replay.job",
        n_ranks=job.n_ranks,
        backend="python" if kernel is None else "c",
    ):
        if kernel is None:
            return ReplayEngine(job, timer, network).run()
        return _replay_compiled(job, timer, network, kernel)
