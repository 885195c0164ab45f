"""Unit tests: power/energy modeling and the DVFS planner."""

import numpy as np
import pytest

from repro.energy.dvfs import DvfsPlan, plan_dvfs
from repro.energy.power import EnergyModel, PowerParameters
from repro.psins.convolution import ComputationModel
from repro.psins.replay import UniformTimer, replay_job
from repro.simmpi.runtime import COMPUTE, run_job
from repro.trace.features import FeatureSchema
from repro.trace.records import BasicBlockRecord, InstructionRecord, SourceLocation
from repro.trace.tracefile import TraceFile


def two_block_trace(machine):
    """Block 0: memory-bound streaming; block 1: compute-bound FMA."""
    schema = FeatureSchema(machine.hierarchy.level_names)
    trace = TraceFile(
        app="e", rank=0, n_ranks=4, target=machine.hierarchy.name, schema=schema
    )
    mem_block = BasicBlockRecord(
        block_id=0, location=SourceLocation(function="stream")
    )
    mem_block.instructions.append(
        InstructionRecord(
            instr_id=0,
            kind="load",
            features=schema.vector_from_dict(
                {
                    "exec_count": 1e6,
                    "mem_ops": 8e6,
                    "loads": 8e6,
                    "ref_bytes": 8.0,
                    "hit_rate_L1": 0.2,
                    "hit_rate_L2": 0.4,
                    "hit_rate_L3": 0.6,
                }
            ),
        )
    )
    fp_block = BasicBlockRecord(block_id=1, location=SourceLocation(function="fma"))
    fp_block.instructions.append(
        InstructionRecord(
            instr_id=0,
            kind="fp",
            features=schema.vector_from_dict(
                {"exec_count": 1e6, "fp_fma": 5e7, "ilp": 1.0}
            ),
        )
    )
    trace.add_block(mem_block)
    trace.add_block(fp_block)
    return trace


@pytest.fixture(scope="module")
def energy_model(bw_machine):
    comp = ComputationModel(two_block_trace(bw_machine), bw_machine)
    return EnergyModel(comp, PowerParameters())


class TestPowerModel:
    def test_power_within_envelope(self, energy_model):
        params = energy_model.power
        for bid in (0, 1):
            p = energy_model.block_power_w(bid)
            assert params.static_w <= p <= params.max_power_w

    def test_memory_block_mem_dominated(self, energy_model):
        mem = energy_model.block(0)
        fp = energy_model.block(1)
        assert mem.mem_activity > mem.core_activity
        assert fp.core_activity > fp.mem_activity

    def test_energy_positive_and_consistent(self, energy_model):
        for bid in (0, 1):
            b = energy_model.block(bid)
            assert b.energy_j == pytest.approx(b.time_s * b.power_w)
        assert energy_model.traced_task_energy_j() > 0

    def test_unknown_block(self, energy_model):
        with pytest.raises(KeyError):
            energy_model.block(42)

    def test_power_parameters_validated(self):
        with pytest.raises(Exception):
            PowerParameters(static_w=0.0)

    def test_job_energy(self, energy_model, bw_machine):
        def fn(comm):
            comm.compute(0, 100)
            comm.compute(1, 100)
            comm.barrier()

        job = run_job("e", 4, fn)
        timer = UniformTimer(energy_model.computation.iteration_time_s)
        replay = replay_job(job, timer, bw_machine.network)
        result = energy_model.job_energy(job, replay)
        assert result.compute_energy_j > 0
        assert result.idle_energy_j >= 0
        assert result.total_energy_j >= result.compute_energy_j

    def test_job_energy_sums_events_in_order(self, energy_model, bw_machine):
        def fn(comm):
            for step in range(3):
                comm.compute(0, 100 + 37 * comm.rank + step)
                comm.compute(1, 11 * (comm.rank + 1))
                comm.allreduce(8)

        job = run_job("e", 5, fn)
        timer = UniformTimer(energy_model.computation.iteration_time_s)
        replay = replay_job(job, timer, bw_machine.network)
        result = energy_model.job_energy(job, replay)
        # reference: one running sum over every compute event, in order
        energy = busy = 0.0
        for kind, block, iterations in zip(
            job.kind.tolist(), job.arg.tolist(), job.count.tolist()
        ):
            if kind == COMPUTE:
                dt = energy_model.computation.iteration_time_s(block)
                energy += dt * iterations * energy_model.block_power_w(block)
                busy += dt * iterations
        assert result.compute_energy_j == energy
        idle = max(0.0, replay.runtime_s * 5 - busy)
        assert result.idle_energy_j == idle * energy_model.power.static_w

    def test_imbalance_raises_idle_energy(self, energy_model, bw_machine):
        def balanced(comm):
            comm.compute(0, 100)
            comm.barrier()

        def imbalanced(comm):
            comm.compute(0, 100 * (1 + comm.rank))
            comm.barrier()

        timer = UniformTimer(energy_model.computation.iteration_time_s)
        jobs = [run_job("b", 4, balanced), run_job("i", 4, imbalanced)]
        results = [
            energy_model.job_energy(j, replay_job(j, timer, bw_machine.network))
            for j in jobs
        ]
        # imbalance -> more waiting at the barrier -> more idle energy
        # per unit of compute energy
        ratio_balanced = results[0].idle_energy_j / results[0].compute_energy_j
        ratio_imbalanced = results[1].idle_energy_j / results[1].compute_energy_j
        assert ratio_imbalanced > ratio_balanced


class TestDvfs:
    def test_memory_bound_block_downclocked(self, energy_model):
        plan = plan_dvfs(energy_model, max_slowdown=0.05)
        assert plan.choices[0].frequency < 1.0  # streaming block
        assert plan.choices[1].frequency == 1.0  # fp-bound block

    def test_savings_positive_slowdown_bounded(self, energy_model):
        plan = plan_dvfs(energy_model, max_slowdown=0.05)
        assert plan.energy_savings() > 0.0
        assert plan.slowdown() <= 0.05 + 1e-9

    def test_zero_budget_keeps_nominal_time(self, energy_model):
        plan = plan_dvfs(energy_model, max_slowdown=0.0)
        assert plan.slowdown() <= 1e-9
        # the memory-bound block can still save energy at zero slowdown
        # (its time barely depends on frequency under full overlap)
        assert plan.energy_j <= plan.baseline_energy_j

    def test_bigger_budget_saves_more(self, energy_model):
        tight = plan_dvfs(energy_model, max_slowdown=0.01)
        loose = plan_dvfs(energy_model, max_slowdown=0.20)
        assert loose.energy_savings() >= tight.energy_savings()

    def test_frequency_ladder_validated(self, energy_model):
        with pytest.raises(ValueError):
            plan_dvfs(energy_model, frequencies=(0.5, 0.8))
        with pytest.raises(Exception):
            plan_dvfs(energy_model, frequencies=(0.0, 1.0))
