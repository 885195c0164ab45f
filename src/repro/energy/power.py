"""Activity-based per-core power and whole-run energy models.

Follows the structure of PMaC's kernel power models (paper ref [24]):
per-core power is a static floor plus dynamic components proportional to
how hard each subsystem is driven —

    P(block) = P_static
             + P_core_max * (achieved flop rate / peak flop rate)
             + P_mem_max  * (achieved byte rate / peak byte rate)

Both activity ratios come from quantities the prediction framework
already produces per block: Eq. 1's memory time (hence bytes/s) and the
fp op counts and issue rates (hence flops/s).  Because the inputs are
exactly the trace's feature vectors, energy extrapolates to large core
counts the same way runtime does — from small-count traces only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.machine.timing import FP_OP_KINDS
from repro.psins.convolution import ComputationModel
from repro.psins.replay import ReplayResult
from repro.simmpi.runtime import COMPUTE, Job
from repro.util.validation import check_in_range, check_positive


def _sum_in_order(values: np.ndarray) -> float:
    """Left-to-right float sum, in event order (``np.sum`` pairs terms)."""
    return float(np.cumsum(values)[-1]) if values.size else 0.0


@dataclass(frozen=True)
class PowerParameters:
    """Per-core power envelope of a machine.

    Defaults are in the range of a late-2000s HPC core (the paper's
    Blue Waters / Cray XT5 era): ~10 W static, up to ~15 W of core
    dynamic power at full floating-point throughput and ~8 W of memory-
    subsystem power at full bandwidth.
    """

    static_w: float = 10.0
    core_dynamic_max_w: float = 15.0
    mem_dynamic_max_w: float = 8.0
    #: peak per-core flop rate used to normalize core activity, GFLOP/s
    peak_gflops: float = 8.0
    #: peak per-core memory bandwidth used to normalize memory activity
    peak_gbs: float = 16.0
    #: core-pipeline activity of issuing one memory op, relative to a
    #: flop (address generation, load/store units): memory-bound code
    #: still burns core power, which is what DVFS reclaims (ref [23])
    mem_issue_weight: float = 0.5

    def __post_init__(self):
        check_positive("static_w", self.static_w)
        check_in_range("core_dynamic_max_w", self.core_dynamic_max_w, low=0.0)
        check_in_range("mem_dynamic_max_w", self.mem_dynamic_max_w, low=0.0)
        check_positive("peak_gflops", self.peak_gflops)
        check_positive("peak_gbs", self.peak_gbs)
        check_in_range("mem_issue_weight", self.mem_issue_weight, 0.0, 1.0)

    @property
    def max_power_w(self) -> float:
        return self.static_w + self.core_dynamic_max_w + self.mem_dynamic_max_w


@dataclass
class BlockEnergyBreakdown:
    """Power/energy of one block's full (traced-task) execution."""

    block_id: int
    time_s: float
    power_w: float
    core_activity: float
    mem_activity: float

    @property
    def energy_j(self) -> float:
        return self.time_s * self.power_w


@dataclass
class EnergyResult:
    """Whole-job energy prediction."""

    app: str
    n_ranks: int
    compute_energy_j: float
    idle_energy_j: float

    @property
    def total_energy_j(self) -> float:
        return self.compute_energy_j + self.idle_energy_j


class EnergyModel:
    """Per-block power and whole-run energy for one (trace, machine) pair.

    Wraps a :class:`~repro.psins.convolution.ComputationModel`: every
    block's activity ratios are derived from its Eq. 1 breakdown and the
    trace's feature vectors.
    """

    def __init__(
        self,
        computation: ComputationModel,
        power: Optional[PowerParameters] = None,
    ):
        self.computation = computation
        self.power = power or PowerParameters()
        self._blocks: Dict[int, BlockEnergyBreakdown] = {}
        self._build()

    def _build(self) -> None:
        trace = self.computation.trace
        schema = trace.schema
        for bid, block in trace.blocks.items():
            breakdown = self.computation.breakdown(bid)
            time_s = breakdown.total_time_s
            if time_s <= 0:
                self._blocks[bid] = BlockEnergyBreakdown(
                    block_id=bid,
                    time_s=0.0,
                    power_w=self.power.static_w,
                    core_activity=0.0,
                    mem_activity=0.0,
                )
                continue
            fp_ops = 0.0
            mem_ops = 0.0
            bytes_moved = 0.0
            for ins in block.instructions:
                vec = ins.features
                for kind in FP_OP_KINDS:
                    fp_ops += float(vec[schema.index(kind)])
                mem_ops += float(vec[schema.index("mem_ops")])
                bytes_moved += float(
                    vec[schema.index("mem_ops")] * vec[schema.index("ref_bytes")]
                )
            issue_ops = fp_ops + self.power.mem_issue_weight * mem_ops
            core_activity = min(
                1.0, (issue_ops / time_s) / (self.power.peak_gflops * 1e9)
            )
            mem_activity = min(
                1.0, (bytes_moved / time_s) / (self.power.peak_gbs * 1e9)
            )
            power_w = (
                self.power.static_w
                + self.power.core_dynamic_max_w * core_activity
                + self.power.mem_dynamic_max_w * mem_activity
            )
            self._blocks[bid] = BlockEnergyBreakdown(
                block_id=bid,
                time_s=time_s,
                power_w=power_w,
                core_activity=core_activity,
                mem_activity=mem_activity,
            )

    def block(self, block_id: int) -> BlockEnergyBreakdown:
        try:
            return self._blocks[block_id]
        except KeyError:
            raise KeyError(f"no energy breakdown for block {block_id}") from None

    def block_power_w(self, block_id: int) -> float:
        return self.block(block_id).power_w

    def traced_task_energy_j(self) -> float:
        """Energy of the traced task's computation alone."""
        return sum(b.energy_j for b in self._blocks.values())

    def job_energy(self, job: Job, replay: ReplayResult) -> EnergyResult:
        """Whole-job energy from a replayed timeline.

        Compute events burn their block's modeled power for their
        modeled duration (scaled by each rank's iterations); the
        remaining wall-clock (communication, waiting) burns static
        power — the idle-energy term that grows with load imbalance.
        """
        if replay.n_ranks != job.n_ranks:
            raise ValueError("replay and job rank counts differ")
        per_iter_power_time = {
            bid: (self.computation.iteration_time_s(bid), b.power_w)
            for bid, b in self._blocks.items()
        }
        computes = job.kind == COMPUTE
        blocks, inverse = np.unique(job.arg[computes], return_inverse=True)
        dt, watts = np.array(
            [per_iter_power_time[b] for b in blocks.tolist()], dtype=np.float64
        ).reshape(-1, 2).T
        iterations = job.count[computes]
        compute_energy = _sum_in_order(dt[inverse] * iterations * watts[inverse])
        compute_time_total = _sum_in_order(dt[inverse] * iterations)
        wall = replay.runtime_s
        idle_time = max(0.0, wall * job.n_ranks - compute_time_total)
        idle_energy = idle_time * self.power.static_w
        return EnergyResult(
            app=job.app,
            n_ranks=job.n_ranks,
            compute_energy_j=compute_energy,
            idle_energy_j=idle_energy,
        )
