"""Virtual-topology identification from communication partners.

ScalaExtrap's first step: given only who-talks-to-whom, recover the
d-dimensional process grid the SPMD application laid its ranks on.  We
search over 3-D factorizations of the rank count and score each by how
many observed point-to-point edges it explains as unit-offset neighbor
links (with or without periodic wrap); the winning factorization, plus
the per-dimension periodicity that explains the wrap edges, is the
inferred topology.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Set, Tuple

import numpy as np

from repro.simmpi.runtime import RECV, SEND, Job


def _factorizations(p: int) -> List[Tuple[int, int, int]]:
    """All ordered 3-factor decompositions of ``p``."""
    out = []
    for a in range(1, p + 1):
        if p % a:
            continue
        rest = p // a
        for b in range(1, rest + 1):
            if rest % b:
                continue
            out.append((a, b, rest // b))
    return out


@dataclass(frozen=True)
class InferredTopology:
    """A recovered process grid."""

    grid: Tuple[int, int, int]
    periodic: Tuple[bool, bool, bool]
    #: fraction of observed p2p edges explained by unit-offset links
    explained: float

    def coords_of(self, rank: int) -> Tuple[int, int, int]:
        gx, gy, _gz = self.grid
        return (rank % gx, (rank // gx) % gy, rank // (gx * gy))

    def rank_of(self, coords: Tuple[int, int, int]) -> int:
        gx, gy, gz = self.grid
        x, y, z = coords
        if not (0 <= x < gx and 0 <= y < gy and 0 <= z < gz):
            raise ValueError(f"coords {coords} outside grid {self.grid}")
        return x + y * gx + z * gx * gy

    def offset_of(self, src: int, dst: int) -> Tuple[int, int, int]:
        """Unit-offset vector from src to dst (wrap-aware), or raise."""
        sc, dc = self.coords_of(src), self.coords_of(dst)
        offset = []
        for d in range(3):
            delta = dc[d] - sc[d]
            if self.periodic[d] and self.grid[d] > 1:
                half = self.grid[d] / 2
                if delta > half:
                    delta -= self.grid[d]
                elif delta < -half:
                    delta += self.grid[d]
            offset.append(delta)
        if sorted(map(abs, offset)) not in ([0, 0, 1],):
            raise ValueError(
                f"ranks {src}->{dst} are not unit-offset neighbors on "
                f"grid {self.grid} (offset {tuple(offset)})"
            )
        return tuple(offset)

    def neighbor(self, rank: int, offset: Tuple[int, int, int]) -> int:
        """The rank at a unit offset, honoring periodicity.

        Returns ``-1`` if the offset leaves a non-periodic boundary.
        """
        coords = list(self.coords_of(rank))
        for d in range(3):
            coords[d] += offset[d]
            if self.periodic[d]:
                coords[d] %= self.grid[d]
            elif not 0 <= coords[d] < self.grid[d]:
                return -1
        return self.rank_of(tuple(coords))


def _p2p_edges(job: Job) -> Set[Tuple[int, int]]:
    sends = np.flatnonzero(job.kind == SEND)
    recvs = np.flatnonzero(job.kind == RECV)
    src = np.concatenate([job.ranks_of(sends), job.arg[recvs]])
    dest = np.concatenate([job.arg[sends], job.ranks_of(recvs)])
    return set(zip(src.tolist(), dest.tolist()))


def infer_topology(job: Job) -> InferredTopology:
    """Recover the process grid of a job from its p2p edges.

    Scores every 3-factor decomposition of the rank count under both
    periodic and non-periodic wrap per dimension; returns the best
    explanation.  Prefers (on ties) fewer periodic dimensions and more
    balanced grids, and requires at least 95% of edges explained.
    """
    edges = _p2p_edges(job)
    # scoring cost is |factorizations| x 8 x |edges|; a deterministic
    # sample of edges is ample to discriminate grids at large rank
    # counts.  Hash-based selection: strided sampling of the sorted list
    # aliases against the grid structure and can drop entire edge
    # classes (e.g. every periodic-wrap edge).
    if len(edges) > 2048:
        keep = max(1, len(edges) // 2048)

        def _mix(a: int, b: int) -> int:
            x = (a * 0x9E3779B97F4A7C15 + b * 0xBF58476D1CE4E5B9) & (
                (1 << 64) - 1
            )
            return x ^ (x >> 31)

        edges = {e for e in edges if _mix(e[0], e[1]) % keep == 0}
    if not edges:
        # computation-only job: any grid works; pick the balanced one
        from repro.apps.decomposition import factor3

        return InferredTopology(
            grid=factor3(job.n_ranks), periodic=(False,) * 3, explained=1.0
        )
    best: InferredTopology = None
    for grid in _factorizations(job.n_ranks):
        gx, gy, gz = grid
        # decide periodicity per dimension from the wrap edges directly
        for periodic in itertools.product((False, True), repeat=3):
            topo = InferredTopology(grid=grid, periodic=periodic, explained=0.0)
            explained = 0
            for src, dst in edges:
                try:
                    topo.offset_of(src, dst)
                except ValueError:
                    continue
                explained += 1
            frac = explained / len(edges)
            candidate = InferredTopology(
                grid=grid, periodic=periodic, explained=frac
            )
            if best is None or _better(candidate, best):
                best = candidate
    if best.explained < 0.95:
        raise ValueError(
            f"no 3-D grid explains the communication of {job.app} "
            f"(best: {best.grid} periodic={best.periodic} "
            f"explains {best.explained:.0%})"
        )
    return best


def _imbalance(grid: Tuple[int, int, int]) -> int:
    return max(grid) - min(grid)


def _better(a: InferredTopology, b: InferredTopology) -> bool:
    """Explain more edges; tie-break to fewer periodic dims, balance."""
    key_a = (-a.explained, sum(a.periodic), _imbalance(a.grid), a.grid)
    key_b = (-b.explained, sum(b.periodic), _imbalance(b.grid), b.grid)
    return key_a < key_b
