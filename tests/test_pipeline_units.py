"""Unit tests: pipeline pieces not covered by the integration suite."""

import numpy as np
import pytest

from repro.pipeline.experiment import Table1Row
from repro.pipeline.report import table1_report


class TestTable1Row:
    def test_pct_error(self):
        row = Table1Row(
            app="x",
            core_count=64,
            trace_type="Extrap.",
            predicted_runtime_s=0.95,
            measured_runtime_s=1.0,
        )
        assert row.pct_error == pytest.approx(5.0)

    def test_report_rendering(self):
        rows = [
            Table1Row("uh3d", 8192, "Extrap.", 537.0, 565.0),
            Table1Row("uh3d", 8192, "Coll.", 536.0, 565.0),
            # sub-50 ms prediction: must not collapse to "0.0"
            Table1Row("jacobi", 16, "Extrap.", 0.029123, 0.028470),
        ]
        text = table1_report(rows)
        assert "uh3d" in text
        assert "Extrap." in text and "Coll." in text
        assert "537.0" in text
        assert "0.029123" in text
        assert "2.3%" in text
        assert "%" in text

    def test_report_empty(self):
        text = table1_report([])
        assert "Trace Type" in text


class TestReplayAtScale:
    """The replay engine must handle thousands of ranks efficiently."""

    def test_large_rank_count_allreduce_chain(self):
        from repro.machine.network import NetworkParameters
        from repro.psins.replay import ComputationTimer, replay_job
        from repro.simmpi.runtime import run_job

        class T(ComputationTimer):
            def time_s(self, rank, block_id, iterations):
                return 1e-9 * iterations

        def fn(comm):
            for _ in range(3):
                comm.compute(0, 1000 + comm.rank)
                comm.allreduce(8)

        job = run_job("big", 4096, fn)
        net = NetworkParameters()
        res = replay_job(job, T(), net)
        # critical path: slowest rank each round + collectives
        expected = 3 * (1e-9 * (1000 + 4095) + net.allreduce_time_s(4096, 8))
        assert res.runtime_s == pytest.approx(expected, rel=1e-6)

    def test_ring_pipeline_at_scale(self):
        from repro.machine.network import NetworkParameters
        from repro.psins.replay import ComputationTimer, replay_job
        from repro.simmpi.runtime import run_job

        class T(ComputationTimer):
            def time_s(self, rank, block_id, iterations):
                return 1e-6

        def fn(comm):
            right = (comm.rank + 1) % comm.size
            left = (comm.rank - 1) % comm.size
            comm.compute(0, 1)
            comm.send(right, 64)
            comm.recv(left, 64)

        job = run_job("ring", 2048, fn)
        res = replay_job(job, T(), NetworkParameters())
        assert res.n_events == 2048 * 3
        assert res.runtime_s > 0


class TestMachineCaching:
    def test_spec_cache_returns_same_object(self):
        from repro.machine.systems import get_spec

        assert get_spec("cray_xt5") is get_spec("cray_xt5")

    def test_profiles_differ_by_probe_budget(self):
        from repro.machine.systems import get_machine

        a = get_machine("opteron_2level", accesses_per_probe=10_000)
        b = get_machine("opteron_2level", accesses_per_probe=12_000)
        assert a is not b
