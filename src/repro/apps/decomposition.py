"""3-D Cartesian domain decomposition.

Both proxies decompose a global structured grid over a 3-D process grid.
The decomposition determines everything that scales: local cell counts
(volume work), face areas (halo exchange sizes and boundary work), and
which ranks sit on the physical domain boundary (extra work, hence load
imbalance and a well-defined "most computationally demanding task").
Its :meth:`~CartesianDecomposition.rows` are numpy arrays over any set
of ranks, computed for all of them at once: the proxies emit whole jobs
from every rank's rows, and :class:`RankGeometry` is one rank's view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.util.validation import check_positive

#: the six face slots, ``(dim, direction)``, in the order ranks visit
#: their neighbours; a slot's column in the neighbour table is its index
SLOTS = tuple((dim, direction) for dim in range(3) for direction in (-1, +1))
#: the dimension each slot's face is perpendicular to
SLOT_DIMS = [dim for dim, _ in SLOTS]


def factor3(p: int) -> Tuple[int, int, int]:
    """Factor ``p`` into three near-equal factors (largest first).

    The classic MPI_Dims_create-style balanced factorization: repeatedly
    peel the largest prime factor onto the currently-smallest dimension.
    """
    check_positive("p", p)
    dims = [1, 1, 1]
    remaining = p
    factors: List[int] = []
    d = 2
    while d * d <= remaining:
        while remaining % d == 0:
            factors.append(d)
            remaining //= d
        d += 1
    if remaining > 1:
        factors.append(remaining)
    for f in sorted(factors, reverse=True):
        dims.sort()
        dims[0] *= f
    dims.sort(reverse=True)
    return (dims[0], dims[1], dims[2])


@dataclass(frozen=True)
class RankGeometry:
    """One rank's share of the global grid: its row of the decomposition."""

    rank: int
    coords: Tuple[int, int, int]
    local_cells: Tuple[int, int, int]
    #: face neighbors: (dim, direction) -> neighbor rank, absent at
    #: non-periodic physical boundaries
    neighbors: Dict[Tuple[int, int], int]
    #: number of faces on the physical domain boundary (0..6)
    boundary_faces: int
    #: cells exchanged with all present neighbors
    halo: int
    #: cells on physical-boundary faces (extra-work surface)
    boundary: int

    @property
    def n_cells(self) -> int:
        nx, ny, nz = self.local_cells
        return nx * ny * nz

    def halo_cells(self) -> int:
        return self.halo

    def boundary_cells(self) -> int:
        return self.boundary


class Rows(NamedTuple):
    """The geometry of some ranks as arrays, one row per rank."""

    ranks: np.ndarray
    #: ``(k, 3)`` process-grid coordinates (x fastest)
    coords: np.ndarray
    #: ``(k, 3)`` local cell counts
    extents: np.ndarray
    #: ``(k, 6)`` face neighbours, one column per :data:`SLOTS` entry;
    #: -1 at a non-periodic physical boundary
    neighbors: np.ndarray

    @property
    def n_cells(self) -> np.ndarray:
        return self.extents.prod(axis=1)

    @property
    def face_cells(self) -> np.ndarray:
        """``(k, 6)`` cells on each face, in :data:`SLOTS` order."""
        return self.n_cells[:, None] // self.extents[:, SLOT_DIMS]

    @property
    def halo_cells(self) -> np.ndarray:
        """Cells exchanged with all present neighbours."""
        return np.where(self.neighbors >= 0, self.face_cells, 0).sum(axis=1)

    @property
    def boundary_cells(self) -> np.ndarray:
        """Cells on physical-boundary faces (extra work)."""
        return np.where(self.neighbors < 0, self.face_cells, 0).sum(axis=1)

    def class_keys(self) -> np.ndarray:
        """Per rank, its extents, halo cells and boundary cells."""
        return np.column_stack([self.extents, self.halo_cells, self.boundary_cells])


class CartesianDecomposition:
    """Decompose ``global_cells`` over ``n_ranks`` processes.

    Cells that do not divide evenly are distributed to the
    lowest-coordinate ranks (one extra layer each), producing the mild,
    realistic load imbalance that makes one task the slowest.

    Parameters
    ----------
    global_cells:
        Global grid dimensions (nx, ny, nz).
    n_ranks:
        Process count; factored into a 3-D grid automatically.
    periodic:
        Whether each dimension wraps (no physical boundary).
    """

    def __init__(
        self,
        global_cells: Tuple[int, int, int],
        n_ranks: int,
        *,
        periodic: Tuple[bool, bool, bool] = (False, False, False),
    ):
        check_positive("n_ranks", n_ranks)
        for i, n in enumerate(global_cells):
            check_positive(f"global_cells[{i}]", n)
        self.global_cells = tuple(int(c) for c in global_cells)
        self.n_ranks = int(n_ranks)
        self.periodic = tuple(periodic)
        self.grid = factor3(self.n_ranks)
        for dim in range(3):
            if self.grid[dim] > self.global_cells[dim]:
                raise ValueError(
                    f"cannot split {self.global_cells[dim]} cells over "
                    f"{self.grid[dim]} ranks in dim {dim} (n_ranks={n_ranks})"
                )

    # ------------------------------------------------------------------

    def coords_of(self, rank: int) -> Tuple[int, int, int]:
        """Process-grid coordinates of a rank (x fastest)."""
        if not 0 <= rank < self.n_ranks:
            raise ValueError(f"rank {rank} out of range")
        return tuple(self.rows([rank]).coords[0].tolist())

    def rank_of(self, coords: Tuple[int, int, int]) -> int:
        px, py, pz = self.grid
        x, y, z = coords
        return x + y * px + z * px * py

    def rows(self, ranks=None) -> Rows:
        """The geometry of ``ranks`` (default: every rank), all at once."""
        ranks = np.arange(self.n_ranks) if ranks is None else np.asarray(ranks)
        grid = np.array(self.grid)
        strides = (1, grid[0], grid[0] * grid[1])
        coords = ranks[:, None] // strides % grid
        base, extra = np.divmod(self.global_cells, grid)
        neighbors = np.full((ranks.size, 6), -1, dtype=np.int32)
        for slot, (dim, direction) in enumerate(SLOTS):
            coord = coords[:, dim]
            c = coord + direction
            wraps = self.periodic[dim] and self.grid[dim] > 1
            present = wraps | ((c >= 0) & (c < grid[dim]))
            nbr = ranks + (c % grid[dim] - coord) * strides[dim]
            neighbors[present, slot] = nbr[present]
        return Rows(ranks, coords, (base + (coords < extra)).astype(np.int32), neighbors)

    def geometry(self, rank: int) -> RankGeometry:
        """Full geometry of one rank."""
        coords = self.coords_of(rank)  # checks the rank
        rows = self.rows([rank])
        row = rows.neighbors[0].tolist()
        return RankGeometry(
            rank=rank,
            coords=coords,
            local_cells=tuple(rows.extents[0].tolist()),
            neighbors={s: r for s, r in zip(SLOTS, row) if r >= 0},
            boundary_faces=row.count(-1),
            halo=int(rows.halo_cells[0]),
            boundary=int(rows.boundary_cells[0]),
        )

    def equivalence_classes(self) -> List[List[int]]:
        """Group ranks whose geometry implies identical programs.

        The key is :meth:`Rows.class_keys`: proxies build their programs
        from exactly these quantities, so ranks in a class have
        identical programs by construction.
        """
        return group_ranks(self.rows().class_keys())


def group_ranks(keys: np.ndarray) -> List[List[int]]:
    """Ranks grouped by equal rows of ``keys``: each group ascending, the
    groups in order of their first rank."""
    _, first, inverse = np.unique(keys, axis=0, return_index=True, return_inverse=True)
    inverse = inverse.reshape(-1)
    groups = np.split(np.argsort(inverse, kind="stable"), np.cumsum(np.bincount(inverse))[:-1])
    return [groups[i].tolist() for i in np.argsort(first)]
