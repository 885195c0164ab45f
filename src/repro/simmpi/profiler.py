"""Lightweight MPI profiling: find the most computationally demanding task.

The paper identifies the trace-worthy task "using a lightweight MPI
profiling library based on the PSiNSTracer package" (§IV): a cheap run
that measures per-task computation time without full tracing.  Our
equivalent weighs each rank's compute events by nominal per-operation
costs — no cache simulation, no address streams — and ranks tasks by that
estimate.  Only the *ordering* matters downstream (which rank gets
traced), so nominal costs suffice, exactly as wall-clock on the base
system suffices in the real pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from repro.instrument.program import BasicBlockSpec, Program
from repro.simmpi.events import ComputeEvent
from repro.simmpi.runtime import Job

#: Nominal base-system costs used only for ranking tasks.
_NOMINAL_MEM_NS = 4.0
_NOMINAL_FLOP_NS = 0.5


def _block_iteration_cost_ns(block: BasicBlockSpec) -> float:
    mem = block.mem_accesses_per_iteration
    fp = sum(f.ops_per_iteration for f in block.fp_instructions)
    return mem * _NOMINAL_MEM_NS + fp * _NOMINAL_FLOP_NS


@dataclass
class LightweightProfile:
    """Per-rank computation-time estimates from the profiling run."""

    app: str
    n_ranks: int
    compute_times_s: Dict[int, float]

    def slowest_rank(self) -> int:
        """Rank with the largest estimated computation time.

        Ties break toward the lower rank for determinism.
        """
        return max(
            self.compute_times_s,
            key=lambda r: (self.compute_times_s[r], -r),
        )

    def load_imbalance(self) -> float:
        """max/mean computation-time ratio (1.0 == perfectly balanced)."""
        times = list(self.compute_times_s.values())
        mean = sum(times) / len(times)
        return max(times) / mean if mean > 0 else 1.0


def profile_job(
    job: Job,
    program_for_rank: Callable[[int], Program],
    equivalence_classes: Optional[Sequence[Sequence[int]]] = None,
) -> LightweightProfile:
    """Estimate per-rank computation time for a job.

    Parameters
    ----------
    job:
        The recorded job.
    program_for_rank:
        Maps a rank to its program (for per-iteration block weights).
    equivalence_classes:
        Ranks with identical programs (the app's
        ``equivalence_classes``): each block is priced once per class,
        from its lowest rank's program.  Default: every rank alone.
        Each rank still sums its own compute events in its own order.
    """
    if equivalence_classes is None:
        equivalence_classes = [[r] for r in range(job.n_ranks)]
    compute_times: Dict[int, float] = {}
    for cls in equivalence_classes:
        program = program_for_rank(min(cls))
        cost_cache: Dict[int, float] = {}
        for rank in cls:
            total_ns = 0.0
            for ev in job.scripts[rank].events:
                if not isinstance(ev, ComputeEvent):
                    continue
                if ev.block_id not in cost_cache:
                    cost_cache[ev.block_id] = _block_iteration_cost_ns(
                        program.block(ev.block_id)
                    )
                total_ns += cost_cache[ev.block_id] * ev.iterations
            compute_times[rank] = total_ns * 1e-9
    if sorted(compute_times) != list(range(job.n_ranks)):
        raise ValueError("equivalence classes must partition all ranks")
    return LightweightProfile(
        app=job.app,
        n_ranks=job.n_ranks,
        compute_times_s={r: compute_times[r] for r in range(job.n_ranks)},
    )
