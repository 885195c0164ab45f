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

import numpy as np

from repro.instrument.program import BasicBlockSpec, Program
from repro.simmpi.runtime import COMPUTE, Job

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
    n = job.n_ranks
    if equivalence_classes is None:
        equivalence_classes = [[r] for r in range(n)]
    if sorted(r for cls in equivalence_classes for r in cls) != list(range(n)):
        raise ValueError("equivalence classes must partition all ranks")
    computes = np.flatnonzero(job.kind == COMPUTE)
    class_of = np.empty(n, dtype=np.int64)
    for i, cls in enumerate(equivalence_classes):
        class_of[list(cls)] = i
    # every (class, block) pair priced once, pairs sorted by class
    blocks, block_inverse = np.unique(job.arg[computes], return_inverse=True)
    pairs, pair_inverse = np.unique(
        class_of[job.ranks_of(computes)] * blocks.size + block_inverse,
        return_inverse=True,
    )
    bounds = np.searchsorted(
        pairs, np.arange(len(equivalence_classes) + 1) * blocks.size
    ).tolist()
    per_iteration = np.empty(pairs.size)
    for i, cls in enumerate(equivalence_classes):
        program = program_for_rank(min(cls))
        for p in range(bounds[i], bounds[i + 1]):
            block = program.block(int(blocks[pairs[p] % blocks.size]))
            per_iteration[p] = _block_iteration_cost_ns(block)
    costs = per_iteration[pair_inverse] * job.count[computes]
    # each rank sums its own events left to right (cumsum is sequential)
    starts = np.searchsorted(computes, job.offsets).tolist()
    totals_ns = np.zeros(n)
    for rank in range(n):
        if starts[rank] < starts[rank + 1]:
            totals_ns[rank] = np.cumsum(costs[starts[rank]:starts[rank + 1]])[-1]
    return LightweightProfile(
        app=job.app,
        n_ranks=n,
        compute_times_s=dict(enumerate((totals_ns * 1e-9).tolist())),
    )
