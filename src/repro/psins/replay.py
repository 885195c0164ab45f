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

Two engines run it.  :func:`replay_job` compiles the job once
(:func:`compile_job`, kept on the job) into flat per-event arrays and
replays them with the ``replay`` function of :mod:`repro.cache.kernel`;
:class:`ReplayEngine` interprets the event objects in Python and runs
exactly when that compiled library is unavailable (no compiler, or a
failed build).  The two agree bit for bit:

- **Static FIFO matching.**  Messages on one ``(src, dest, tag)`` key
  are sent in the sender's program order and received in the
  receiver's, so the k-th send on a key is the k-th recv's message
  whatever the schedule.  :func:`compile_job` pairs them with a stable
  numpy sort on packed integer keys; a recv then only waits for, and
  reads the clock of, its one matched send.
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

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, Sequence, Tuple

import numpy as np

from repro.cache.kernel import replay_kernel
from repro.machine.network import NetworkParameters
from repro.obs.trace import span
from repro.simmpi.events import CollectiveEvent, ComputeEvent, RecvEvent, SendEvent
from repro.simmpi.runtime import Job


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
    """``pc``: each rank's next event (its script length when done)."""
    scripts = [s.events for s in job.scripts]
    stuck = [r for r in range(job.n_ranks) if pc[r] < len(scripts[r])]
    detail = ", ".join(
        f"rank {r} at event {pc[r]}/{len(scripts[r])} "
        f"({type(scripts[r][pc[r]]).__name__})"
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
        self.scripts = [s.events for s in job.scripts]
        self.pc = [0] * n
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
        scripts = self.scripts
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
        n_events = sum(len(s) for s in scripts)
        send_overhead = network.send_overhead_us * 1e-6

        def wake(rank: int) -> None:
            if not queued[rank]:
                queued[rank] = True
                runnable.append(rank)

        while runnable:
            r = runnable.popleft()
            queued[r] = False
            script = scripts[r]
            while pc[r] < len(script):
                ev = script[pc[r]]
                if isinstance(ev, ComputeEvent):
                    dt = timer.time_s(r, ev.block_id, ev.iterations)
                    clock[r] += dt
                    compute_time[r] += dt
                    pc[r] += 1
                elif isinstance(ev, SendEvent):
                    key = (r, ev.dest, ev.tag)
                    clock[r] += send_overhead
                    comm_time[r] += send_overhead
                    mailbox.setdefault(key, deque()).append(
                        (clock[r], ev.nbytes)
                    )
                    pc[r] += 1
                    waiters = recv_waiters.get(key)
                    if waiters:
                        wake(waiters.popleft())
                        if not waiters:
                            del recv_waiters[key]
                elif isinstance(ev, RecvEvent):
                    key = (ev.src, r, ev.tag)
                    box = mailbox.get(key)
                    if not box:
                        recv_waiters.setdefault(key, deque()).append(r)
                        break
                    avail, nbytes = box.popleft()
                    if not box:
                        del mailbox[key]
                    if nbytes != ev.nbytes:
                        raise _size_mismatch(key, nbytes, ev.nbytes)
                    start = clock[r]
                    finish = max(start, avail) + network.p2p_time_s(nbytes)
                    comm_time[r] += finish - start
                    clock[r] = finish
                    pc[r] += 1
                elif isinstance(ev, CollectiveEvent):
                    idx = coll_index[r]
                    spec = (ev.op, ev.nbytes)
                    if idx in coll_spec and coll_spec[idx] != spec:
                        raise _collective_mismatch(idx, r, spec, coll_spec[idx])
                    coll_spec[idx] = spec
                    arrivals = coll_arrivals.setdefault(idx, {})
                    arrivals[r] = clock[r]
                    coll_index[r] += 1
                    if len(arrivals) < n:
                        break  # blocked until the last rank arrives
                    cost = _COLLECTIVE_COST[ev.op](network, n, ev.nbytes)
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
                else:  # pragma: no cover - defensive
                    raise TypeError(f"unknown event type {type(ev)!r}")
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
            n_events=n_events,
        )


#: event kinds of a :class:`ReplayProgram` (the kernel's enum)
COMPUTE, SEND, RECV, COLLECTIVE, RECV_MISMATCH = range(5)


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
    #: distinct collective ``(op, nbytes)`` specs
    specs: Tuple[Tuple[str, int], ...]


def _record(job: Job):
    """One pass over the events into typed buffers (no per-event objects)."""
    kinds, args, counts = array("b"), array("i"), array("q")
    send_tags, recv_tags = array("q"), array("q")
    specs: Dict[Tuple[str, int], int] = {}
    offsets = np.zeros(job.n_ranks + 1, dtype=np.int64)
    kind, arg, count = kinds.append, args.append, counts.append
    send_tag, recv_tag = send_tags.append, recv_tags.append
    for script in job.scripts:
        for ev in script.events:
            cls = type(ev)
            if cls is ComputeEvent:
                kind(COMPUTE)
                arg(ev.block_id)
                count(ev.iterations)
            elif cls is SendEvent:
                kind(SEND)
                arg(ev.dest)
                count(ev.nbytes)
                send_tag(ev.tag)
            elif cls is RecvEvent:
                kind(RECV)
                arg(ev.src)
                count(ev.nbytes)
                recv_tag(ev.tag)
            elif cls is CollectiveEvent:
                kind(COLLECTIVE)
                arg(specs.setdefault((ev.op, ev.nbytes), len(specs)))
                count(0)
            else:
                raise TypeError(f"unknown event type {cls!r}")
        offsets[script.rank + 1] = len(kinds)
    return kinds, args, counts, send_tags, recv_tags, offsets, tuple(specs)


def _match(send_key: np.ndarray, recv_key: np.ndarray) -> np.ndarray:
    """Per recv, the ordinal of the send it receives (-1: none).

    The k-th recv on a key takes the k-th send on it: a stable sort by
    key keeps each key's events in program order.  Sorts both key
    arrays in place.
    """
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
    return matched


def _compile(job: Job) -> ReplayProgram:
    n = job.n_ranks
    kinds, args, counts, send_tags, recv_tags, offsets, specs = _record(job)
    kind = np.frombuffer(kinds, dtype=np.int8)
    arg = np.frombuffer(args, dtype=np.int32)
    count = np.frombuffer(counts, dtype=np.int64)
    sends = np.flatnonzero(kind == SEND)
    recvs = np.flatnonzero(kind == RECV)

    # (src, dest, tag) of every send and recv; a peer outside the job
    # can never match, so every such peer becomes the spare value n
    tags = [np.frombuffer(t, dtype=np.int64) for t in (send_tags, recv_tags)]
    del send_tags, recv_tags
    keys = [
        (np.searchsorted(offsets, sends, "right") - 1,
         np.minimum(arg[sends], n, dtype=np.int64), tags[0]),
        (np.minimum(arg[recvs], n, dtype=np.int64),
         np.searchsorted(offsets, recvs, "right") - 1, tags[1]),
    ]
    del tags
    lo = min(int(t.min(initial=0)) for _, _, t in keys)
    span = max(int(t.max(initial=0)) for _, _, t in keys) - lo + 1
    base = n + 1
    if base * base * span < 1 << 63:  # pack into one int64
        for i, (src, dest, tag) in enumerate(keys):
            src *= base
            src += dest
            src *= span
            src += tag
            src -= lo
            keys[i] = src
    else:  # too wide: number the distinct triples
        dense = np.unique(
            np.hstack([np.stack(k) for k in keys]), axis=1, return_inverse=True
        )[1].reshape(-1)
        keys = [dense[: sends.size], dense[sends.size:]]
    matched = _match(*keys)
    del keys

    recv_bytes = count[recvs]
    mismatch = matched >= 0
    mismatch[mismatch] = count[sends[matched[mismatch]]] != recv_bytes[mismatch]
    kind[recvs[mismatch]] = RECV_MISMATCH
    del mismatch
    arg[sends] = np.arange(sends.size)
    arg[recvs] = matched
    sizes, count[recvs] = np.unique(recv_bytes, return_inverse=True)
    return ReplayProgram(
        n_ranks=n,
        offsets=offsets,
        kind=kind,
        arg=arg,
        count=count,
        n_sends=int(sends.size),
        sizes=sizes,
        specs=specs,
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
        return _deadlock(job, (pc - prog.offsets[:-1]).tolist())
    rank = int(err[0])
    at = int(pc[rank] - prog.offsets[rank])
    events = job.scripts[rank].events
    ev = events[at]
    if status == 2:
        send = np.flatnonzero(prog.kind == SEND)[prog.arg[pc[rank]]]
        return _size_mismatch(
            (ev.src, rank, ev.tag), int(prog.count[send]), ev.nbytes
        )
    idx = sum(isinstance(e, CollectiveEvent) for e in events[:at])
    return _collective_mismatch(
        idx, rank, (ev.op, ev.nbytes), prog.specs[int(err[1])]
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
