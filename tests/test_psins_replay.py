"""Unit tests: the PSiNS-style replay engine.

The semantic suites run under both backends: as written, ``replay_job``
runs the compiled kernel (when a C compiler is present); their
``...Python`` subclasses force :class:`ReplayEngine` with the
class-scoped ``python_backend`` fixture.  The equivalence suites pin
the kernel bit-identical to :class:`ReplayEngine` — real apps,
generated SPMD jobs, and every error path.
"""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.apps.registry import get_app
from repro.cache import kernel
from repro.machine.network import NetworkParameters
from repro.obs import trace as obs_trace
from repro.psins import replay as replay_mod
from repro.psins.replay import (
    ComputationTimer,
    PerRankTimer,
    ReplayDeadlockError,
    ReplayEngine,
    UniformTimer,
    compile_job,
    replay_job,
)
from repro.simmpi.runtime import RECV, SEND, Job, run_job
from tests.conftest import program_digest

needs_kernel = pytest.mark.skipif(
    kernel.replay_kernel() is None, reason="no compiled replay kernel"
)


@pytest.fixture(scope="class")
def python_backend():
    """``replay_job`` runs :class:`ReplayEngine` in the class's tests.

    Class-scoped (hypothesis refuses function-scoped fixtures), so it
    swaps the resolved library by hand instead of through monkeypatch.
    """
    saved = kernel._kernel
    kernel._kernel = None
    try:
        yield
    finally:
        kernel._kernel = saved


class FixedTimer(ComputationTimer):
    """1 microsecond per iteration regardless of block."""

    def __init__(self, per_iter_s=1e-6):
        self.per_iter_s = per_iter_s

    def time_s(self, rank, block_id, iterations):
        return self.per_iter_s * iterations


NET = NetworkParameters(
    latency_us=1.0,
    bandwidth_gbs=10.0,
    half_bandwidth_bytes=1,  # effectively flat bandwidth
    per_hop_us=0.0,
    send_overhead_us=0.0,
)


class TestComputeOnly:
    def test_runtime_is_max_rank(self):
        def fn(comm):
            comm.compute(0, 100 * (comm.rank + 1))

        job = run_job("c", 4, fn)
        res = replay_job(job, FixedTimer(), NET)
        assert res.runtime_s == pytest.approx(400e-6)
        np.testing.assert_allclose(
            res.compute_time_s, [100e-6, 200e-6, 300e-6, 400e-6]
        )
        assert res.comm_time_s.sum() == 0.0

    def test_empty_job(self):
        job = run_job("empty", 3, lambda comm: None)
        res = replay_job(job, FixedTimer(), NET)
        assert res.runtime_s == 0.0
        assert res.n_events == 0


class TestPointToPoint:
    def test_receiver_waits_for_sender(self):
        def fn(comm):
            if comm.rank == 0:
                comm.compute(0, 100)  # 100us of work first
                comm.send(1, 0)
            else:
                comm.recv(0, 0)

        job = run_job("p2p", 2, fn)
        res = replay_job(job, FixedTimer(), NET)
        # rank 1 waits 100us for the send, then pays 1us latency
        assert res.runtime_s == pytest.approx(101e-6)
        assert res.comm_time_s[1] == pytest.approx(101e-6)

    def test_early_sender_not_blocked(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(1, 0)
                comm.compute(0, 500)
            else:
                comm.compute(0, 100)
                comm.recv(0, 0)

        job = run_job("p2p", 2, fn)
        res = replay_job(job, FixedTimer(), NET)
        # sender proceeds immediately (buffered); receiver gets message
        # at max(own 100us, send@0) + 1us latency
        assert res.compute_time_s[0] == pytest.approx(500e-6)
        assert res.runtime_s == pytest.approx(500e-6)

    def test_transfer_time_scales_with_bytes(self):
        def make(nbytes):
            def fn(comm):
                if comm.rank == 0:
                    comm.send(1, nbytes)
                else:
                    comm.recv(0, nbytes)

            return run_job("x", 2, fn)

        small = replay_job(make(1_000), FixedTimer(), NET).runtime_s
        large = replay_job(make(10_000_000), FixedTimer(), NET).runtime_s
        assert large > small
        # 10MB at 10GB/s = 1ms
        assert large == pytest.approx(1e-6 + 1e-3, rel=0.01)

    def test_message_order_fifo_per_key(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(1, 100, tag=0)
                comm.send(1, 100, tag=0)
            else:
                comm.recv(0, 100, tag=0)
                comm.recv(0, 100, tag=0)

        res = replay_job(run_job("fifo", 2, fn), FixedTimer(), NET)
        assert res.runtime_s > 0

    def test_size_mismatch_detected(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(1, 100)
            else:
                comm.recv(0, 200)

        with pytest.raises(ValueError, match="size mismatch"):
            replay_job(run_job("bad", 2, fn), FixedTimer(), NET)

    def test_deadlock_detected(self):
        # both ranks recv first: classic deadlock (verify_job would also
        # reject, but replay must fail loudly, not hang)
        def fn(comm):
            other = 1 - comm.rank
            comm.recv(other, 8)
            comm.send(other, 8)

        with pytest.raises(ReplayDeadlockError):
            replay_job(run_job("dead", 2, fn), FixedTimer(), NET)


class TestCollectives:
    def test_barrier_synchronizes(self):
        def fn(comm):
            comm.compute(0, 100 * (comm.rank + 1))
            comm.barrier()
            comm.compute(0, 10)

        job = run_job("b", 3, fn)
        res = replay_job(job, FixedTimer(), NET)
        barrier_cost = NET.barrier_time_s(3)
        assert res.runtime_s == pytest.approx(300e-6 + barrier_cost + 10e-6)
        # the fastest rank waited ~200us in the barrier
        assert res.comm_time_s[0] == pytest.approx(200e-6 + barrier_cost)

    def test_consecutive_collectives(self):
        def fn(comm):
            comm.allreduce(8)
            comm.barrier()
            comm.allreduce(64)

        res = replay_job(run_job("cc", 4, fn), FixedTimer(), NET)
        expected = (
            NET.allreduce_time_s(4, 8)
            + NET.barrier_time_s(4)
            + NET.allreduce_time_s(4, 64)
        )
        assert res.runtime_s == pytest.approx(expected)

    def test_collective_spec_mismatch_detected(self):
        def fn(comm):
            comm.allreduce(8 if comm.rank == 0 else 16)

        with pytest.raises(ValueError, match="collective"):
            replay_job(run_job("mm", 2, fn), FixedTimer(), NET)


class TestTimers:
    def test_uniform_timer(self):
        timer = UniformTimer(lambda block_id: 2e-6 * (block_id + 1))
        assert timer.time_s(0, 1, 10) == pytest.approx(40e-6)

    def test_per_rank_timer(self):
        timer = PerRankTimer({0: lambda b: 1e-6, 1: lambda b: 2e-6})
        assert timer.time_s(1, 0, 5) == pytest.approx(10e-6)
        with pytest.raises(KeyError):
            timer.time_s(2, 0, 1)


class TestResultMetrics:
    def test_comm_fraction(self):
        def fn(comm):
            comm.compute(0, 100)
            comm.barrier()

        res = replay_job(run_job("f", 2, fn), FixedTimer(), NET)
        assert 0.0 <= res.comm_fraction() < 1.0

    def test_halo_exchange_pattern_completes(self):
        """A realistic 1-D halo exchange at a few dozen ranks."""

        def fn(comm):
            left = (comm.rank - 1) % comm.size
            right = (comm.rank + 1) % comm.size
            for _ in range(3):
                comm.compute(0, 50)
                comm.send(left, 1024, tag=0)
                comm.send(right, 1024, tag=1)
                comm.recv(right, 1024, tag=0)
                comm.recv(left, 1024, tag=1)
                comm.allreduce(8)

        job = run_job("halo", 32, fn)
        res = replay_job(job, FixedTimer(), NET)
        assert res.runtime_s > 3 * 50e-6
        assert res.n_events == 32 * 3 * 6


class TestBookkeepingDrains:
    """Regression: long replays must not accumulate dead scheduler state.

    ``coll_spec`` entries used to live forever, and defaultdict lookups
    on the send/recv paths materialized empty deques for every key ever
    probed.  The engine now deletes bookkeeping as it drains, so after a
    clean replay every transient structure is empty.
    """

    def _run_engine(self, job):
        from repro.psins.replay import ReplayEngine

        engine = ReplayEngine(job, FixedTimer(), NET)
        engine.run()
        return engine

    def test_collective_state_freed(self):
        def fn(comm):
            for _ in range(20):
                comm.compute(0, comm.rank + 1)
                comm.allreduce(8)
                comm.barrier()

        engine = self._run_engine(run_job("colls", 4, fn))
        assert engine.coll_spec == {}
        assert engine.coll_arrivals == {}

    def test_matched_p2p_state_freed(self):
        def fn(comm):
            peer = comm.rank ^ 1
            for it in range(50):
                if comm.rank % 2 == 0:
                    comm.send(peer, 64, tag=it)
                    comm.recv(peer, 64, tag=it)
                else:
                    comm.recv(peer, 64, tag=it)
                    comm.send(peer, 64, tag=it)

        engine = self._run_engine(run_job("pingpong", 4, fn))
        # every send was consumed, every waiter was woken
        assert engine.mailbox == {}
        assert engine.recv_waiters == {}

    def test_probing_recv_leaves_no_empty_queues(self):
        def fn(comm):
            if comm.rank == 0:
                comm.compute(0, 100)
                comm.send(1, 8)
            else:
                comm.recv(0, 8)  # blocks: key probed before message exists

        engine = self._run_engine(run_job("probe", 2, fn))
        assert engine.mailbox == {}
        assert engine.recv_waiters == {}

    def test_unmatched_send_is_the_only_residue(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(1, 8)  # never received

        engine = self._run_engine(run_job("orphan", 2, fn))
        assert list(engine.mailbox) == [(0, 1, 0)]
        assert engine.recv_waiters == {}

    def test_replay_job_unchanged_semantics(self):
        def fn(comm):
            if comm.rank == 0:
                comm.compute(0, 100)
                comm.send(1, 0)
            else:
                comm.recv(0, 0)

        res = replay_job(run_job("p2p", 2, fn), FixedTimer(), NET)
        assert res.runtime_s == pytest.approx(101e-6)


@pytest.mark.usefixtures("python_backend")
class TestComputeOnlyPython(TestComputeOnly):
    pass


@pytest.mark.usefixtures("python_backend")
class TestPointToPointPython(TestPointToPoint):
    pass


@pytest.mark.usefixtures("python_backend")
class TestCollectivesPython(TestCollectives):
    pass


@pytest.mark.usefixtures("python_backend")
class TestResultMetricsPython(TestResultMetrics):
    pass


# -- the kernel against ReplayEngine ------------------------------------


def assert_identical(a, b):
    """Two replay results agree bit for bit."""
    assert a.runtime_s == b.runtime_s
    assert a.n_events == b.n_events
    assert a.compute_time_s.tobytes() == b.compute_time_s.tobytes()
    assert a.comm_time_s.tobytes() == b.comm_time_s.tobytes()


def outcome(fn):
    """``fn()``'s result, or its exception's type and message."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc), str(exc)


def same_outcome(job, timer, net=NET):
    """``replay_job`` and :class:`ReplayEngine` agree, results or errors."""
    job.compiled = None
    got = outcome(lambda: replay_job(job, timer, net))
    want = outcome(lambda: ReplayEngine(job, timer, net).run())
    if isinstance(want, tuple):
        assert got == want
    else:
        assert_identical(got, want)
    return want


class RankBlockTimer(ComputationTimer):
    """A custom timer: only the base class's ``times_s`` loop applies."""

    def time_s(self, rank, block_id, iterations):
        return (rank + 1) * (block_id + 3) * iterations * 1e-9 / 7.0


def _timers(n_ranks):
    return [
        UniformTimer(lambda b: (b + 1) * 1.1e-6 / 3.0),
        PerRankTimer(
            {r: (lambda b, r=r: (b + 1) * 1e-6 + r * 1e-9 / 3.0)
             for r in range(n_ranks)}
        ),
        RankBlockTimer(),
    ]


REAL_NET = NetworkParameters()


class TestRealApps:
    @pytest.mark.parametrize(
        "app,n_ranks",
        [("specfem3d", 96), ("specfem3d", 384), ("uh3d", 1024), ("jacobi", 16)],
    )
    def test_bit_identical_to_python_engine(self, app, n_ranks):
        job = get_app(app).build_job(n_ranks)
        for timer in _timers(n_ranks)[:2]:
            same_outcome(job, timer, REAL_NET)

    def test_compile_is_shared_by_replays(self):
        job = get_app("jacobi").build_job(16)
        timer = _timers(16)[0]
        first = replay_job(job, timer, REAL_NET)
        program = job.compiled
        assert_identical(replay_job(job, timer, REAL_NET), first)
        assert job.compiled is program


class TestCompiledGolden:
    """``compile_job`` output pinned to digests recorded when jobs were
    still lists of event objects: the array-native job compiles to the
    same program, array for array."""

    @pytest.mark.parametrize(
        "app,n_ranks,digest",
        [
            ("jacobi", 16,
             "ae021ad1095be28d48fa777eaef37ddc0a13e41987eac8282d0c1015f3d83e60"),
            ("specfem3d", 96,
             "9d7afa0c6f19142d0f9b72896e36e742a975292443626050f1c4583511c389f5"),
            ("uh3d", 1024,
             "db6d4cb8ccc3795d1a66a9fa9497740bb29dddac4921564f81eb5b0e85fa5d89"),
        ],
    )
    def test_program_digest(self, app, n_ranks, digest):
        prog = compile_job(get_app(app).build_job(n_ranks))
        assert program_digest(prog) == digest


@pytest.mark.usefixtures("python_backend")
class TestRealAppsPython(TestRealApps):
    def test_compile_is_shared_by_replays(self):
        job = get_app("jacobi").build_job(16)
        replay_job(job, _timers(16)[0], REAL_NET)
        assert job.compiled is None  # the Python engine never compiles


OPS = ("barrier", "allreduce", "reduce", "broadcast", "alltoall", "allgather")
SIZES = (0, 0, 1, 8, 1000, 65536)
#: small tags repeat keys; the huge ones are too wide to pack
TAGS = (0, 0, 1, 7, -3, 2**40, -(2**60))


@st.composite
def spmd_jobs(draw):
    """Deadlock-free SPMD jobs: phases of compute, p2p rounds (each rank
    posts its sends, then its recvs) and collectives."""
    n = draw(st.integers(1, 6))
    phases = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["compute", "p2p", "collective"]))
        if kind == "compute":
            phases.append((kind, [
                draw(st.lists(
                    st.tuples(st.integers(0, 3), st.integers(0, 10**6)),
                    max_size=3,
                ))
                for _ in range(n)
            ]))
        elif kind == "p2p" and n > 1:
            pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            msgs = draw(st.lists(
                st.tuples(
                    pair.filter(lambda p: p[0] != p[1]),
                    st.sampled_from(TAGS),
                    st.sampled_from(SIZES),
                ),
                max_size=12,
            ))
            phases.append((kind, msgs))
        elif kind == "collective":
            phases.append((kind, draw(st.sampled_from(OPS)),
                           draw(st.sampled_from(SIZES))))

    def rank_fn(comm):
        for phase in phases:
            if phase[0] == "compute":
                for block, iterations in phase[1][comm.rank]:
                    comm.compute(block, iterations)
            elif phase[0] == "p2p":
                for (src, dest), tag, nbytes in phase[1]:
                    if src == comm.rank:
                        comm.send(dest, nbytes, tag=tag)
                for (src, dest), tag, nbytes in phase[1]:
                    if dest == comm.rank:
                        comm.recv(src, nbytes, tag=tag)
            elif phase[1] == "barrier":
                comm.barrier()
            else:
                getattr(comm, phase[1])(phase[2])

    return run_job("gen", n, rank_fn)


class TestGeneratedJobs:
    @settings(
        max_examples=150,
        deadline=None,
        # the same test runs again in the Python-backend subclass
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.differing_executors],
    )
    @given(job=spmd_jobs(), which=st.integers(0, 2))
    def test_bit_identical_to_python_engine(self, job, which):
        timer = _timers(job.n_ranks)[which]
        result = same_outcome(job, timer)
        assert not isinstance(result, tuple)  # deadlock-free by construction


@pytest.mark.usefixtures("python_backend")
class TestGeneratedJobsPython(TestGeneratedJobs):
    pass


def _job(*scripts):
    """A job from literal per-rank ``(kind, arg, count, tag)`` event
    lists (no SimComm checks: peers outside the job, self-messages)."""
    events = [ev for script in scripts for ev in script]
    kind, arg, count, tag = zip(*events) if events else ([],) * 4
    offsets = np.cumsum([0] + [len(script) for script in scripts])
    return Job("lit", len(scripts), offsets, kind, arg, count, tag)


class TestErrorPaths:
    """Each bad job fails with the Python engine's type and message."""

    def check(self, job, error):
        got = same_outcome(job, FixedTimer())
        assert isinstance(got, tuple) and got[0] is error, got
        return got[1]

    def test_deadlock(self):
        def fn(comm):
            other = 1 - comm.rank
            comm.recv(other, 8)
            comm.send(other, 8)

        message = self.check(run_job("dead", 2, fn), ReplayDeadlockError)
        assert "rank 0 at event 0/2 (recv)" in message

    def test_deadlock_in_a_collective_after_others_finished(self):
        def fn(comm):
            comm.compute(0, 10)
            if comm.rank % 3 == 0:
                comm.barrier()
            if comm.rank == 4:
                comm.recv(0, 8, tag=5)  # never sent

        message = self.check(run_job("stuck", 7, fn), ReplayDeadlockError)
        assert "with 4 rank(s)" in message and "(collective)" in message

    def test_recv_from_outside_the_job(self):
        self.check(_job([(RECV, 9, 4, 0)], []), ReplayDeadlockError)

    def test_size_mismatch(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(1, 100)
            else:
                comm.recv(0, 200)

        message = self.check(run_job("bad", 2, fn), ValueError)
        assert message == "message size mismatch on (0, 1, 0): sent 100, receiving 200"

    def test_size_mismatch_after_waiting(self):
        def fn(comm):
            if comm.rank == 0:
                comm.recv(1, 8, tag=2)  # blocks; rank 1 posts second
                comm.send(1, 16, tag=1)
                comm.send(1, 32, tag=1)
            else:
                comm.send(0, 8, tag=2)
                comm.recv(0, 16, tag=1)
                comm.recv(0, 64, tag=1)  # the second message is 32 bytes

        message = self.check(run_job("late", 2, fn), ValueError)
        assert "sent 32, receiving 64" in message

    def test_collective_mismatch(self):
        def fn(comm):
            comm.allreduce(8 if comm.rank == 0 else 16)

        message = self.check(run_job("mm", 2, fn), ValueError)
        assert message == (
            "collective #0 mismatch: rank 1 issues ('allreduce', 16), "
            "others issued ('allreduce', 8)"
        )

    def test_collective_mismatch_late_arrival_order(self):
        def fn(comm):
            comm.barrier()
            if comm.rank == 0:
                comm.recv(2, 8)  # arrives at the broadcast last
            if comm.rank == 2:
                comm.send(0, 8)
            comm.broadcast(64 if comm.rank == 0 else 32)

        message = self.check(run_job("order", 3, fn), ValueError)
        assert message.startswith("collective #1 mismatch: rank 0 issues")

    def test_unmatched_send_is_not_an_error(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(1, 8)  # never received
            comm.compute(0, 5)

        same_outcome(run_job("orphan", 2, fn), FixedTimer())
        same_outcome(_job([(SEND, 7, 4, 0)]), FixedTimer())

    def test_self_message(self):
        job = _job([(SEND, 0, 4, 0), (RECV, 0, 4, 0)])
        same_outcome(job, FixedTimer())


@pytest.mark.usefixtures("python_backend")
class TestErrorPathsPython(TestErrorPaths):
    pass


@needs_kernel
class TestMemory:
    @pytest.fixture(scope="class")
    def job(self):
        return get_app("specfem3d").build_job(1536)

    @staticmethod
    def traced_peak(fn):
        gc.collect()
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_compiled_form_at_most_16_bytes_per_event(self, job):
        job.compiled = None
        gc.collect()
        tracemalloc.start()
        try:
            program = compile_job(job)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert program.kind.size == job.kind.size
        assert retained <= 16 * job.kind.size

    def test_compile_and_replay_peak_below_python_engine(self, job):
        timer = UniformTimer(lambda b: (b + 1) * 1e-6)
        python = self.traced_peak(lambda: ReplayEngine(job, timer, REAL_NET).run())
        job.compiled = None
        compiled = self.traced_peak(lambda: replay_job(job, timer, REAL_NET))
        assert compiled < python


class TestObservability:
    @pytest.fixture(autouse=True)
    def tracer(self):
        obs_trace.disable()
        yield obs_trace.enable()
        obs_trace.disable()

    def test_compile_span_only_on_a_miss_and_backend_attribute(self, tracer):
        job = get_app("jacobi").build_job(8)
        timer = _timers(8)[0]
        replay_job(job, timer, REAL_NET)
        replay_job(job, timer, REAL_NET)
        names = [e["name"] for e in tracer.events]
        backend = "python" if kernel.replay_kernel() is None else "c"
        assert names.count("replay.compile") == (backend == "c")
        jobs = [e for e in tracer.events if e["name"] == "replay.job"]
        assert [e["args"]["backend"] for e in jobs] == [backend] * 2


@pytest.mark.usefixtures("python_backend")
class TestObservabilityPython(TestObservability):
    pass


class TestTimesS:
    """The vectorized timers equal their per-event ``time_s``."""

    def test_times_s_matches_time_s(self):
        ranks = np.array([0, 1, 2, 1, 0, 2], dtype=np.int32)
        blocks = np.array([3, 0, 3, 9, 0, 1])
        iterations = np.array([1, 7, 10**9, 3, 0, 123456789])
        for timer in _timers(3):
            got = timer.times_s(ranks, blocks, iterations)
            want = [timer.time_s(int(r), int(b), int(i))
                    for r, b, i in zip(ranks, blocks, iterations)]
            assert got.dtype == np.float64
            assert got.tobytes() == np.array(want).tobytes()

    @needs_kernel
    def test_wrong_length_durations_rejected(self):
        class Short(ComputationTimer):
            def times_s(self, ranks, blocks, iterations):
                return np.zeros(len(ranks) - 1)

        job = run_job("c", 2, lambda comm: comm.compute(0, 5))
        with pytest.raises(ValueError, match="1 durations for 2 compute events"):
            replay_job(job, Short(), NET)

    def test_per_rank_timer_missing_rank(self):
        timer = PerRankTimer({0: lambda b: 1e-6})
        with pytest.raises(KeyError, match="no computation timer for rank 1"):
            timer.times_s(np.array([0, 1]), np.array([0, 0]), np.array([1, 1]))

    def test_event_kinds_match_the_kernel(self):
        assert "enum { COMPUTE, SEND, RECV, COLLECTIVE, RECV_MISMATCH };" in kernel.SOURCE
        assert (replay_mod.COMPUTE, replay_mod.RECV_MISMATCH) == (0, 4)
