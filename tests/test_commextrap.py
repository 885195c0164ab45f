"""Unit + integration tests: communication trace extrapolation."""

import numpy as np
import pytest

from repro.apps.jacobi import JacobiParams, JacobiProxy
from repro.apps.uh3d import UH3DParams, UH3DProxy
from repro.commextrap.stanza import Stanza, compress_script, stanza_signature
from repro.commextrap.synthesize import CommExtrapolationError, extrapolate_job
from repro.commextrap.topology import InferredTopology, infer_topology
from repro.psins.replay import compile_job
from tests.conftest import program_digest
from repro.simmpi.runtime import (
    COLLECTIVE,
    COMPUTE,
    RECV,
    SEND,
    run_job,
    verify_job,
)


def one_rank_job(record):
    """A 2-rank job whose rank 0 runs ``record(comm)`` (rank 1 idles)."""

    def fn(comm):
        if comm.rank == 0:
            record(comm)

    return run_job("x", 2, fn)


def rank_events(job, rank, kind):
    """``(arg, count, tag)`` of one rank's events of one kind."""
    events = job.events_of(rank)
    mask = job.kind[events] == kind
    return list(zip(
        job.arg[events][mask].tolist(),
        job.count[events][mask].tolist(),
        job.tag[events][mask].tolist(),
    ))


@pytest.fixture(scope="module")
def jacobi():
    return JacobiProxy(JacobiParams(global_cells=(64, 64, 64), n_steps=3))


@pytest.fixture(scope="module")
def uh3d():
    return UH3DProxy(
        UH3DParams(global_cells=(64, 64, 64), particles_per_cell=2.0, n_steps=3)
    )


class TestTopologyInference:
    def test_jacobi_grid_recovered(self, jacobi):
        job = jacobi.build_job(64)
        topo = infer_topology(job)
        assert sorted(topo.grid, reverse=True) == [4, 4, 4]
        assert topo.periodic == (False, False, False)
        assert topo.explained == 1.0

    def test_uh3d_periodic_recovered(self, uh3d):
        job = uh3d.build_job(64)
        topo = infer_topology(job)
        assert sorted(topo.grid, reverse=True) == [4, 4, 4]
        assert topo.periodic == (True, True, True)

    def test_nonuniform_grid(self, jacobi):
        job = jacobi.build_job(32)  # factor3 -> (4, 4, 2)
        topo = infer_topology(job)
        assert sorted(topo.grid, reverse=True) == [4, 4, 2]

    def test_computation_only_job(self):
        job = run_job("solo", 8, lambda comm: comm.compute(0, 10))
        topo = infer_topology(job)
        assert topo.grid[0] * topo.grid[1] * topo.grid[2] == 8

    def test_unexplainable_communication(self):
        def fn(comm):
            # all-pairs chatter: no grid explains it at 95%
            for other in range(comm.size):
                if other != comm.rank:
                    comm.send(other, 8)
                    comm.recv(other, 8)

        job = run_job("chaos", 12, fn)
        with pytest.raises(ValueError, match="no 3-D grid"):
            infer_topology(job)

    def test_neighbor_arithmetic(self):
        topo = InferredTopology(
            grid=(4, 2, 2), periodic=(True, False, False), explained=1.0
        )
        assert topo.neighbor(0, (1, 0, 0)) == 1
        assert topo.neighbor(0, (-1, 0, 0)) == 3  # periodic wrap in x
        assert topo.neighbor(0, (0, -1, 0)) == -1  # non-periodic edge
        assert topo.offset_of(0, 3) == (-1, 0, 0)
        with pytest.raises(ValueError):
            topo.offset_of(0, 5)  # diagonal: not a unit offset


class TestStanza:
    def test_period_detected(self):
        def step(comm):
            comm.compute(0, 100)
            comm.send(1, 64, tag=0)
            comm.recv(1, 64, tag=0)
            comm.barrier()

        def steps(comm):
            for _ in range(5):
                step(comm)

        stanza = compress_script(one_rank_job(steps), 0)
        assert stanza.repeats == 5
        assert stanza.n_slots == 4
        assert stanza.signature() == stanza_signature(one_rank_job(step), 0)
        assert stanza.signature() == (
            (COMPUTE, 0), (SEND, 0), (RECV, 0), (COLLECTIVE, 0)
        )
        assert stanza.is_stationary(0)

    def test_non_repeating_collapses_to_one_period(self):
        def fn(comm):
            comm.compute(0, 1)
            comm.compute(1, 2)
            comm.compute(0, 3)

        stanza = compress_script(one_rank_job(fn), 0)
        assert stanza.repeats == 1
        assert stanza.n_slots == 3

    def test_scalar_series_tracked(self):
        def fn(comm):
            comm.compute(0, 10)
            comm.compute(0, 20)

        stanza = compress_script(one_rank_job(fn), 0)
        # block ids equal -> period 1 with varying scalar
        assert stanza.repeats == 2
        assert stanza.scalars[0] == [10.0, 20.0]
        assert not stanza.is_stationary(0)

    def test_empty_script(self):
        stanza = compress_script(one_rank_job(lambda comm: None), 1)
        assert stanza.repeats == 0 and stanza.n_slots == 0

    def test_real_app_script_compresses(self, jacobi):
        job = jacobi.build_job(8)
        stanza = compress_script(job, 0)
        assert stanza.repeats == jacobi.params.n_steps


class TestSynthesis:
    def test_jacobi_job_extrapolates(self, jacobi):
        training = [jacobi.build_job(p) for p in (64, 128, 256)]
        synth = extrapolate_job(training, 512)
        verify_job(synth)  # structural consistency
        assert synth.n_ranks == 512
        truth = jacobi.build_job(512)
        # compare event structure rank by rank
        mismatches = 0
        for rank in range(512):
            if stanza_signature(synth, rank) != stanza_signature(truth, rank):
                mismatches += 1
        assert mismatches == 0

    def test_jacobi_scalars_accurate(self, jacobi):
        # volume terms (cell counts) extrapolate to <2%; surface terms
        # (halo cells, face message sizes) depend on the factorization's
        # per-dimension anisotropy, which is only piecewise-smooth in P —
        # a known limitation of scalar fitting vs ScalaExtrap's symbolic
        # geometry, so they get a looser band.
        training = [jacobi.build_job(p) for p in (64, 128, 256)]
        synth = extrapolate_job(training, 512)
        truth = jacobi.build_job(512)
        from repro.apps.jacobi import BLOCK_HALO_PACK

        for rank in (0, 100, 511):
            s_ev, t_ev = synth.events_of(rank), truth.events_of(rank)
            for kind, block, n_s, n_t in zip(
                synth.kind[s_ev].tolist(),
                synth.arg[s_ev].tolist(),
                synth.count[s_ev].tolist(),
                truth.count[t_ev].tolist(),
            ):
                if kind == COMPUTE:
                    rel = 0.15 if block == BLOCK_HALO_PACK else 0.02
                    assert n_s == pytest.approx(n_t, rel=rel)
                elif kind in (SEND, RECV):
                    assert n_s == pytest.approx(n_t, rel=0.15)

    def test_jacobi_partners_exact(self, jacobi):
        training = [jacobi.build_job(p) for p in (64, 128, 256)]
        synth = extrapolate_job(training, 512)
        truth = jacobi.build_job(512)
        for rank in range(0, 512, 37):
            sends_s = [(d, t) for d, _, t in rank_events(synth, rank, SEND)]
            sends_t = [(d, t) for d, _, t in rank_events(truth, rank, SEND)]
            assert sorted(sends_s) == sorted(sends_t)

    def test_uh3d_periodic_extrapolates(self, uh3d):
        training = [uh3d.build_job(p) for p in (64, 128, 256)]
        synth = extrapolate_job(training, 512)
        verify_job(synth)
        assert synth.n_ranks == 512
        # particle-exchange recv sizes were reconciled against sends
        for rank in range(32):
            for src, nbytes, tag in rank_events(synth, rank, RECV):
                sent = [
                    b for d, b, t in rank_events(synth, src, SEND)
                    if d == rank and t == tag
                ]
                assert nbytes in sent

    @pytest.mark.parametrize(
        "proxy,digest",
        [
            ("jacobi",
             "749cc6e96c9d37b33b850e81364811799aac8c6891f98a665e823d85c35e3a22"),
            ("uh3d",
             "fb5406237a4eb8d4e6414cbe09bb3db69046489d5221f1c51e36bf64115043a6"),
        ],
    )
    def test_synthesized_program_pinned(self, proxy, digest, request):
        """The synthesized 512-rank job, compiled for replay, is pinned
        to a digest recorded when jobs were lists of event objects."""
        app = request.getfixturevalue(proxy)
        synth = extrapolate_job([app.build_job(p) for p in (64, 128, 256)], 512)
        assert program_digest(compile_job(synth)) == digest

    def test_needs_two_jobs(self, jacobi):
        with pytest.raises(CommExtrapolationError):
            extrapolate_job([jacobi.build_job(64)], 512)

    def test_duplicate_counts_rejected(self, jacobi):
        job = jacobi.build_job(64)
        with pytest.raises(CommExtrapolationError):
            extrapolate_job([job, job], 512)

    def test_bad_target_grid(self, jacobi):
        training = [jacobi.build_job(p) for p in (64, 128)]
        with pytest.raises(CommExtrapolationError):
            extrapolate_job(training, 512, target_grid=(3, 3, 3))

    def test_interior_target_needs_interior_training(self, jacobi):
        # grids (2,2,2)/(4,2,2) have no y/z-interior ranks to learn from
        training = [jacobi.build_job(p) for p in (8, 16)]
        with pytest.raises(CommExtrapolationError, match="interior"):
            extrapolate_job(training, 64)


class TestEndToEndPrediction:
    def test_synthesized_job_predicts_like_app_job(self, jacobi, bw_machine):
        """Predicted runtime from the synthesized event trace matches the
        prediction from the app-generated one (the ScalaExtrap promise)."""
        from repro.pipeline.collect import collect_signature
        from repro.pipeline.predict import predict_runtime
        from repro.core.extrapolate import extrapolate_trace
        from tests.conftest import FAST_SETTINGS

        target = 512
        counts = (64, 128, 256)
        traces = [
            collect_signature(
                jacobi, p, bw_machine.hierarchy, FAST_SETTINGS
            ).slowest_trace()
            for p in counts
        ]
        comp = extrapolate_trace(traces, target)
        training_jobs = [jacobi.build_job(p) for p in counts]
        synth_job = extrapolate_job(training_jobs, target)
        true_job = jacobi.build_job(target)
        pred_synth = predict_runtime(
            jacobi, target, comp.trace, bw_machine, job=synth_job
        )
        pred_true = predict_runtime(
            jacobi, target, comp.trace, bw_machine, job=true_job
        )
        assert pred_synth.runtime_s == pytest.approx(
            pred_true.runtime_s, rel=0.05
        )
