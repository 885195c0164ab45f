"""Unit tests: SimMPI communicator, job encoding, runtime, profiler."""

import numpy as np
import pytest

from repro.instrument.builder import ProgramBuilder
from repro.memstream.patterns import StridedPattern
from repro.simmpi.comm import SimComm
from repro.simmpi.profiler import profile_job
from repro.simmpi.runtime import (
    COLLECTIVE,
    COLLECTIVE_OPS,
    COMPUTE,
    RECV,
    SEND,
    Job,
    JobVerificationError,
    match_messages,
    run_job,
    verify_job,
)


def raw_job(n_ranks, events_per_rank, kind, arg, count, tag=None):
    """A job straight from event arrays (no SimComm checks)."""
    offsets = np.concatenate([[0], np.cumsum(events_per_rank)])
    tag = [0] * len(kind) if tag is None else tag
    return Job("raw", n_ranks, offsets, kind, arg, count, tag)


class TestSimComm:
    def test_rank_bounds(self):
        with pytest.raises(ValueError):
            SimComm(4, 4)
        with pytest.raises(ValueError):
            SimComm(0, 0)

    def test_self_send_rejected(self):
        comm = SimComm(1, 4)
        with pytest.raises(ValueError):
            comm.send(1, 8)
        with pytest.raises(ValueError):
            comm.recv(1, 8)

    def test_zero_iteration_compute_dropped(self):
        comm = SimComm(0, 2)
        comm.compute(0, 0)
        assert len(comm.kind) == 0

    def test_negative_iterations_rejected(self):
        comm = SimComm(0, 2)
        with pytest.raises(ValueError, match="iterations must be >= 0"):
            comm.compute(0, -1)
        assert len(comm.kind) == 0

    def test_negative_sizes_rejected(self):
        comm = SimComm(0, 2)
        for call in (
            lambda: comm.send(1, -1),
            lambda: comm.recv(1, -1),
            lambda: comm.allreduce(-8),
            lambda: comm.alltoall(-1),
        ):
            with pytest.raises(ValueError, match="nbytes must be >= 0"):
                call()
        assert len(comm.kind) == 0

    def test_tag_outside_int64_raises_when_recorded(self):
        comm = SimComm(0, 2)
        with pytest.raises(OverflowError):
            comm.send(1, 8, tag=2**63)
        comm.recv(1, 8, tag=-(2**63))  # the int64 range itself is fine
        assert comm.tag[-1] == -(2**63)

    def test_barrier_records_a_zero_byte_collective(self):
        comm = SimComm(0, 2)
        comm.barrier()
        assert (comm.kind[0], comm.arg[0], comm.count[0]) == (COLLECTIVE, 0, 0)
        assert COLLECTIVE_OPS[comm.arg[0]] == "barrier"

    def test_event_recording_order(self):
        comm = SimComm(0, 4)
        comm.compute(7, 100)
        comm.send(1, 64, tag=3)
        comm.recv(1, 64, tag=3)
        comm.allreduce(8)
        assert list(comm.kind) == [COMPUTE, SEND, RECV, COLLECTIVE]
        assert list(comm.arg) == [7, 1, 1, COLLECTIVE_OPS.index("allreduce")]
        assert list(comm.count) == [100, 64, 64, 8]
        assert list(comm.tag) == [0, 3, 3, 0]

    def test_sendrecv_orders_send_first(self):
        comm = SimComm(0, 4)
        comm.sendrecv(1, 8, 2, 16, tag=5)
        assert list(comm.kind) == [SEND, RECV]
        assert comm.arg[1] == 2 and comm.count[1] == 16

    def test_mpi4py_style_introspection(self):
        comm = SimComm(2, 8)
        assert comm.get_rank() == 2 and comm.get_size() == 8


class TestJobArrays:
    """Jobs built from raw arrays get the checks SimComm makes."""

    def test_well_formed(self):
        job = raw_job(2, [2, 1], [COMPUTE, SEND, RECV], [0, 1, 0], [5, 8, 8])
        assert job.kind.size == 3
        assert job.kind.dtype == np.int8 and job.arg.dtype == np.int32
        assert job.count.dtype == np.int64 and job.tag.dtype == np.int64
        assert job.ranks_of(np.arange(3)).tolist() == [0, 0, 1]

    @pytest.mark.parametrize(
        "kind,arg,count,message",
        [
            (COMPUTE, 0, -1, "iterations must be >= 0"),
            (SEND, -1, 8, "peer must be >= 0"),
            (RECV, 1, -8, "nbytes must be >= 0"),
            (COLLECTIVE, len(COLLECTIVE_OPS), 0, "collective op"),
            (COLLECTIVE, 1, -8, "nbytes must be >= 0"),
            (7, 0, 0, "event kind"),
        ],
        ids=[
            "negative-iterations", "negative-peer", "negative-recv-bytes",
            "unknown-op", "negative-collective-bytes", "unknown-kind",
        ],
    )
    def test_bad_event_rejected(self, kind, arg, count, message):
        with pytest.raises(ValueError, match=message):
            raw_job(1, [1], [kind], [arg], [count])

    def test_tag_outside_int64_rejected(self):
        with pytest.raises(OverflowError):
            raw_job(2, [1, 0], [SEND], [1], [8], tag=[2**63])

    def test_offsets_checked(self):
        with pytest.raises(ValueError, match="offsets"):
            Job("x", 2, [0, 1], [COMPUTE], [0], [1], [0])
        with pytest.raises(ValueError, match="offsets"):
            Job("x", 2, [0, 1, 0], [COMPUTE], [0], [1], [0])
        with pytest.raises(ValueError, match="offsets"):
            Job("x", 1, [0, 2], [COMPUTE], [0], [1], [0])
        with pytest.raises(ValueError, match="one length"):
            Job("x", 1, [0, 1], [COMPUTE], [0, 0], [1], [0])

    def test_peer_outside_the_job_allowed(self):
        raw_job(1, [1], [SEND], [9], [8])


class TestMatchMessages:
    def test_fifo_per_key(self):
        def fn(comm):
            if comm.rank == 0:
                comm.send(1, 10, tag=1)
                comm.send(1, 20, tag=2)
                comm.send(1, 30, tag=1)
            else:
                comm.recv(0, 30, tag=1)  # the first tag-1 message
                comm.recv(0, 99, tag=1)
                comm.recv(0, 20, tag=2)
                comm.recv(0, 1, tag=3)  # never sent

        job = run_job("fifo", 2, fn)
        sends, recvs, matched = match_messages(job)
        assert sends.tolist() == [0, 1, 2]
        assert recvs.tolist() == [3, 4, 5, 6]
        assert matched.tolist() == [0, 2, 1, -1]

    def test_wide_tags_and_outside_peers(self):
        job = raw_job(
            2, [2, 2],
            [SEND, SEND, RECV, RECV],
            [1, 5, 0, 5],
            [8, 8, 8, 8],
            tag=[2**62, 0, 2**62, 0],
        )
        assert match_messages(job)[2].tolist() == [0, -1]


class TestRuntime:
    @staticmethod
    def ring_fn(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        comm.compute(0, 10 * (comm.rank + 1))
        comm.send(right, 128)
        comm.recv(left, 128)
        comm.barrier()

    def test_run_job_structure(self):
        job = run_job("ring", 4, self.ring_fn)
        assert job.n_ranks == 4
        assert job.offsets.tolist() == [0, 4, 8, 12, 16]
        events = job.events_of(2)
        assert job.kind[events].tolist() == [COMPUTE, SEND, RECV, COLLECTIVE]
        assert job.count[events].tolist() == [30, 128, 128, 0]

    def test_verify_ring_ok(self):
        verify_job(run_job("ring", 4, self.ring_fn))

    def test_verify_catches_unmatched_send(self):
        def bad(comm):
            if comm.rank == 0:
                comm.send(1, 8)

        with pytest.raises(JobVerificationError, match="unmatched send"):
            verify_job(run_job("bad", 2, bad))

    def test_verify_catches_unmatched_recv(self):
        def bad(comm):
            if comm.rank == 1:
                comm.recv(0, 8)

        with pytest.raises(JobVerificationError, match="unmatched recv"):
            verify_job(run_job("bad", 2, bad))

    def test_verify_catches_collective_mismatch(self):
        def bad(comm):
            if comm.rank == 0:
                comm.allreduce(8)
            else:
                comm.barrier()

        with pytest.raises(JobVerificationError, match="collective"):
            verify_job(run_job("bad", 2, bad))

    def test_verify_names_the_unmatched_key_and_count(self):
        def bad(comm):
            if comm.rank == 0:
                comm.send(1, 8, tag=4)
                comm.send(1, 8, tag=4)
                comm.send(1, 8, tag=4)
            else:
                comm.recv(0, 8, tag=4)

        with pytest.raises(
            JobVerificationError,
            match=r"bad: 2 unmatched send\(s\) on \(src, dest, tag\)=\(0, 1, 4\)",
        ):
            verify_job(run_job("bad", 2, bad))

    def test_verify_catches_collective_count_mismatch(self):
        def bad(comm):
            comm.barrier()
            if comm.rank == 2:
                comm.barrier()

        with pytest.raises(JobVerificationError, match="rank 2 collective"):
            verify_job(run_job("bad", 3, bad))


class TestProfiler:
    def test_slowest_rank_found(self):
        def fn(comm):
            comm.compute(0, 100 * (comm.rank + 1))
            comm.barrier()

        job = run_job("imbalanced", 4, fn)
        program = (
            ProgramBuilder("p")
            .block("work", block_id=0)
            .load(StridedPattern(region_bytes=4096))
            .executes(100)
            .done()
            .build()
        )
        prof = profile_job(job, lambda rank: program)
        assert prof.slowest_rank() == 3
        assert prof.load_imbalance() == pytest.approx(4 / 2.5)

    def test_balanced_job(self):
        def fn(comm):
            comm.compute(0, 100)

        job = run_job("balanced", 4, fn)
        program = (
            ProgramBuilder("p")
            .block("work", block_id=0)
            .load(StridedPattern(region_bytes=4096))
            .executes(100)
            .done()
            .build()
        )
        prof = profile_job(job, lambda rank: program)
        assert prof.load_imbalance() == pytest.approx(1.0)
        assert prof.slowest_rank() == 0  # deterministic tie-break

    def test_overlapping_classes_rejected(self):
        job = run_job("three", 3, lambda comm: comm.compute(0, 10))
        program = (
            ProgramBuilder("p")
            .block("work", block_id=0)
            .load(StridedPattern(region_bytes=4096))
            .executes(10)
            .done()
            .build()
        )
        with pytest.raises(ValueError, match="partition"):
            profile_job(job, lambda rank: program, [[0, 1], [1, 2]])

    @pytest.mark.parametrize("name,n_ranks", [("jacobi", 16), ("specfem3d", 96)])
    def test_each_rank_sums_its_events_left_to_right(self, name, n_ranks):
        from repro.apps.registry import get_app
        from repro.simmpi.profiler import _block_iteration_cost_ns

        app = get_app(name)
        job = app.build_job(n_ranks)
        prof = profile_job(
            job, app.program_factory(n_ranks), app.equivalence_classes(n_ranks)
        )
        for rank in range(n_ranks):
            program = app.rank_program(rank, n_ranks)
            events = job.events_of(rank)
            total_ns = 0.0  # the reference: a Python running sum
            for kind, block, iterations in zip(
                job.kind[events].tolist(),
                job.arg[events].tolist(),
                job.count[events].tolist(),
            ):
                if kind == COMPUTE:
                    cost = _block_iteration_cost_ns(program.block(block))
                    total_ns += cost * iterations
            assert prof.compute_times_s[rank] == total_ns * 1e-9
