"""Unit tests: domain decomposition and the application proxies."""

import gc
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.base import AppModel, Column, ScalingMode
from repro.apps.decomposition import SLOTS, CartesianDecomposition, RankGeometry, factor3
from repro.apps.jacobi import JacobiParams, JacobiProxy
from repro.apps.registry import get_app
from repro.apps.specfem3d import SpecFEM3DProxy, SpecFEMParams
from repro.apps.uh3d import UH3DParams, UH3DProxy
from repro.simmpi.profiler import profile_job
from repro.simmpi.runtime import (
    COLLECTIVE,
    COLLECTIVE_OPS,
    COMPUTE,
    RECV,
    SEND,
    run_job,
    verify_job,
)
from repro.util.validation import ValidationError
from tests.conftest import job_digest


class TestFactor3:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (1, (1, 1, 1)),
            (8, (2, 2, 2)),
            (96, (6, 4, 4)),
            (384, (8, 8, 6)),
            (1536, (16, 12, 8)),
            (6144, (24, 16, 16)),
            (1024, (16, 8, 8)),
            (8192, (32, 16, 16)),
            (7, (7, 1, 1)),
        ],
    )
    def test_known_factorizations(self, p, expected):
        assert factor3(p) == expected

    @pytest.mark.parametrize("p", [2, 12, 100, 2048, 4096])
    def test_product_is_p(self, p):
        dims = factor3(p)
        assert dims[0] * dims[1] * dims[2] == p
        assert dims[0] >= dims[1] >= dims[2]


class TestDecomposition:
    def test_cells_partition_exactly(self):
        dec = CartesianDecomposition((48, 48, 48), 96)
        total = sum(dec.geometry(r).n_cells for r in range(96))
        assert total == 48**3

    def test_uneven_split_distributes_extras(self):
        dec = CartesianDecomposition((10, 1, 1), 3)
        sizes = sorted(dec.geometry(r).local_cells[0] for r in range(3))
        assert sizes == [3, 3, 4]

    def test_neighbors_symmetric(self):
        dec = CartesianDecomposition((16, 16, 16), 8)
        for r in range(8):
            geom = dec.geometry(r)
            for (dim, direction), nbr in geom.neighbors.items():
                back = dec.geometry(nbr).neighbors[(dim, -direction)]
                assert back == r

    def test_boundary_faces_nonperiodic(self):
        dec = CartesianDecomposition((16, 16, 16), 8)  # 2x2x2 grid
        assert all(dec.geometry(r).boundary_faces == 3 for r in range(8))

    def test_periodic_has_no_boundary(self):
        dec = CartesianDecomposition(
            (16, 16, 16), 8, periodic=(True, True, True)
        )
        for r in range(8):
            geom = dec.geometry(r)
            assert geom.boundary_faces == 0
            assert len(geom.neighbors) == 6

    def test_halo_and_boundary_cells(self):
        dec = CartesianDecomposition((8, 8, 8), 2)  # split x into 2
        geom = dec.geometry(0)
        assert geom.local_cells == (4, 8, 8)
        assert geom.halo_cells() == 64  # one x-face
        assert geom.boundary_cells() == 64 + 2 * 32 + 2 * 32  # 5 outer faces

    def test_too_many_ranks_rejected(self):
        with pytest.raises(ValueError):
            CartesianDecomposition((2, 2, 2), 64)

    def test_equivalence_classes_partition(self):
        dec = CartesianDecomposition((48, 48, 48), 96)
        classes = dec.equivalence_classes()
        all_ranks = sorted(r for cls in classes for r in cls)
        assert all_ranks == list(range(96))

    def test_rank_coords_round_trip(self):
        dec = CartesianDecomposition((48, 48, 48), 96)
        for r in (0, 13, 95):
            assert dec.rank_of(dec.coords_of(r)) == r


def _oracle_geometry(dec, rank):
    """One rank's geometry by the per-rank loop the arrays replaced."""
    px, py, _pz = dec.grid
    coords = (rank % px, (rank // px) % py, rank // (px * py))
    local = []
    for dim in range(3):
        base, extra = divmod(dec.global_cells[dim], dec.grid[dim])
        local.append(base + (1 if coords[dim] < extra else 0))
    neighbors, boundary = {}, 0
    for dim in range(3):
        for direction in (-1, +1):
            c = coords[dim] + direction
            if 0 <= c < dec.grid[dim] or (dec.periodic[dim] and dec.grid[dim] > 1):
                ncoords = list(coords)
                ncoords[dim] = c % dec.grid[dim]
                neighbors[(dim, direction)] = dec.rank_of(tuple(ncoords))
            else:
                boundary += 1
    nx, ny, nz = local
    face = (ny * nz, nx * nz, nx * ny)
    halo = sum(face[dim] for dim, _direction in neighbors)
    outer = sum(
        face[dim] for dim in range(3) for d in (-1, +1) if (dim, d) not in neighbors
    )
    return RankGeometry(rank, coords, tuple(local), neighbors, boundary, halo, outer)


def _oracle_classes(dec):
    classes = {}
    for rank in range(dec.n_ranks):
        geom = _oracle_geometry(dec, rank)
        key = (geom.local_cells, geom.halo_cells(), geom.boundary_cells())
        classes.setdefault(key, []).append(rank)
    return [sorted(v) for v in sorted(classes.values(), key=lambda c: c[0])]


@st.composite
def _decompositions(draw):
    n_ranks = draw(st.integers(1, 72))
    grid = factor3(n_ranks)
    # grid dims of 1 and 2 come from small and even counts; cells not a
    # multiple of the grid split unevenly
    cells = tuple(draw(st.integers(g, 3 * g + 2)) for g in grid)
    periodic = draw(st.tuples(st.booleans(), st.booleans(), st.booleans()))
    return CartesianDecomposition(cells, n_ranks, periodic=periodic)


class TestDecompositionArrays:
    """The array geometry equals the per-rank loop, rank for rank."""

    @settings(max_examples=150, deadline=None)
    @given(_decompositions())
    def test_matches_per_rank_loop(self, dec):
        rows = dec.rows()
        for rank in range(dec.n_ranks):
            oracle = _oracle_geometry(dec, rank)
            assert dec.geometry(rank) == oracle
            assert tuple(rows.coords[rank]) == oracle.coords
            assert tuple(rows.extents[rank]) == oracle.local_cells
            assert rows.n_cells[rank] == oracle.n_cells
            assert rows.halo_cells[rank] == oracle.halo_cells()
            assert rows.boundary_cells[rank] == oracle.boundary_cells()
            assert {
                s: r for s, r in zip(SLOTS, rows.neighbors[rank].tolist()) if r >= 0
            } == oracle.neighbors
        assert dec.equivalence_classes() == _oracle_classes(dec)

    @pytest.mark.parametrize("n_ranks", [96, 384, 1536, 6144])
    def test_matches_at_table1_counts(self, n_ranks):
        dec = get_app("specfem3d").decomposition(n_ranks)
        assert dec.equivalence_classes() == _oracle_classes(dec)


@pytest.mark.parametrize(
    "app_factory,counts",
    [
        (lambda: JacobiProxy(JacobiParams(global_cells=(32, 32, 32), n_steps=2)), (4, 8)),
        (
            lambda: SpecFEM3DProxy(
                SpecFEMParams(global_elements=(12, 12, 12), n_steps=2)
            ),
            (6, 24),
        ),
        (
            lambda: UH3DProxy(
                UH3DParams(global_cells=(32, 32, 32), particles_per_cell=2.0, n_steps=2)
            ),
            (8, 16),
        ),
    ],
    ids=["jacobi", "specfem3d", "uh3d"],
)
class TestProxyContracts:
    def test_jobs_verify(self, app_factory, counts):
        app = app_factory()
        for p in counts:
            verify_job(app.build_job(p))

    def test_programs_consistent_with_scripts(self, app_factory, counts):
        """Every compute event references a block that exists, and total
        script iterations equal the program's exec_count."""
        app = app_factory()
        for p in counts:
            job = app.build_job(p)
            for rank in (0, p - 1):
                program = app.rank_program(rank, p)
                totals = {}
                events = job.events_of(rank)
                computes = job.kind[events] == COMPUTE
                for block, iterations in zip(
                    job.arg[events][computes].tolist(),
                    job.count[events][computes].tolist(),
                ):
                    program.block(block)  # raises if missing
                    totals[block] = totals.get(block, 0) + iterations
                for bid, total in totals.items():
                    assert program.block(bid).exec_count == total

    def test_equivalence_classes_partition_and_match(self, app_factory, counts):
        app = app_factory()
        for p in counts:
            classes = app.equivalence_classes(p)
            all_ranks = sorted(r for cls in classes for r in cls)
            assert all_ranks == list(range(p))

    def test_block_ids_stable_across_core_counts(self, app_factory, counts):
        app = app_factory()
        ids = [
            sorted(b.block_id for b in app.rank_program(0, p).blocks)
            for p in counts
        ]
        assert ids[0] == ids[1]

    def test_strong_scaling_shrinks_dominant_work(self, app_factory, counts):
        app = app_factory()
        small = app.rank_program(0, counts[0])
        large = app.rank_program(0, counts[1])
        assert large.total_mem_accesses < small.total_mem_accesses

    def test_determinism(self, app_factory, counts):
        a1, a2 = app_factory(), app_factory()
        p = counts[0]
        j1, j2 = a1.build_job(p), a2.build_job(p)
        for name in ("offsets", "kind", "arg", "count", "tag"):
            assert np.array_equal(getattr(j1, name), getattr(j2, name))


def _toy(step, n_steps=2):
    """An app whose time step is the given columns."""
    app = AppModel()
    app.params = SimpleNamespace(n_steps=n_steps)
    app.time_step = step
    return app


def _record(step, n_steps):
    """The rank function recording ``step``'s columns one rank at a time."""

    def rank_fn(comm):
        n, r = comm.size, comm.rank
        columns = [
            (c.kind, *(np.broadcast_to(f, (n,))[r].item() for f in c[1:]))
            for c in step(n)
        ]
        for _ in range(n_steps):
            for kind, arg, count, tag, present in columns:
                if not present:
                    continue
                if kind == COMPUTE:
                    comm.compute(arg, count)
                elif kind == SEND:
                    comm.send(arg, count, tag=tag)
                elif kind == RECV:
                    comm.recv(arg, count, tag=tag)
                else:
                    comm.allreduce(count)

    return rank_fn


@st.composite
def _steps(draw):
    n = draw(st.integers(2, 9))
    ints = st.integers(0, 5)
    columns = []
    for _ in range(draw(st.integers(0, 6))):
        shape = draw(st.sampled_from(["scalar", "array"]))
        value = (lambda: draw(ints)) if shape == "scalar" else (
            lambda: np.array(draw(st.lists(ints, min_size=n, max_size=n)))
        )
        present = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        shift = draw(st.integers(1, n - 1))
        peer = (np.arange(n) + shift) % n
        kind = draw(st.sampled_from(["compute", "send", "recv", "allreduce"]))
        if kind == "compute":
            columns.append(Column(COMPUTE, draw(st.integers(0, 3)), value(), 0, present))
        elif kind == "allreduce":
            columns.append(Column(COLLECTIVE, COLLECTIVE_OPS.index("allreduce"), draw(ints)))
        else:
            columns.append(
                Column(SEND if kind == "send" else RECV, peer, value(), value(), present)
            )
    return n, columns


class TestEmission:
    """``build_job`` turns a step's columns into the arrays the rank-by-
    rank recorder makes of the same events."""

    @settings(max_examples=150, deadline=None)
    @given(_steps(), st.integers(1, 3))
    def test_equals_the_recorder(self, drawn, n_steps):
        n, columns = drawn
        step = lambda _n: columns  # noqa: E731
        job = _toy(step, n_steps).build_job(n)
        ref = run_job("app", n, _record(step, n_steps))
        assert job_digest(job) == job_digest(ref)
        for name in ("offsets", "kind", "arg", "count", "tag"):
            assert getattr(job, name).dtype == getattr(ref, name).dtype

    def test_zero_iterations_are_absent(self):
        job = _toy(lambda n: [Column(COMPUTE, 1, np.arange(n))], 1).build_job(3)
        assert job.offsets.tolist() == [0, 0, 1, 2]

    @pytest.mark.parametrize(
        "peer", [lambda n: np.arange(n), lambda n: np.full(n, n), lambda n: -1],
        ids=["self", "past-the-end", "negative"],
    )
    def test_bad_peers_rejected(self, peer):
        app = _toy(lambda n: [Column(SEND, peer(n), 8)])
        with pytest.raises(ValueError, match="messages peer"):
            app.build_job(4)

    def test_negative_iterations_rejected(self):
        with pytest.raises(ValidationError, match="iterations"):
            _toy(lambda n: [Column(COMPUTE, 0, -1)]).build_job(2)

    def test_non_integer_counts_rejected(self):
        with pytest.raises(TypeError, match="non-integer"):
            _toy(lambda n: [Column(COMPUTE, 0, 1.5)]).build_job(2)


#: sha256 of each job's offsets/kind/arg/count/tag, recorded when every
#: app still ran a Python rank function per rank through ``SimComm``
PINNED_JOBS = [
    ("jacobi", 16, "3c77e16423de790ca80d47193703d03fc48507606299c6cbfee88c229e2f6151"),
    ("jacobi", 64, "03653dfef769e0706b6611a594a6e9e4a33ee42f74ac59417055ec3ded3849af"),
    ("specfem3d", 96, "b5433af63f222d76ead8887e2fac9031b2dd1a5b4c9f44f829f81dbca0924f13"),
    ("specfem3d", 384, "e0b5fddc109eecbba5087e49062550d038abb80aaeb79d64288bd6178342e971"),
    ("specfem3d", 1536, "44c5aa96139a480d33aa62bce9679276daa43216c10b915e52eebc1a39dbe7a1"),
    ("specfem3d", 6144, "e6f30c9545074b00a901461dba67c415f2e8370bbbff66db772761aef6886ece"),
    ("uh3d", 1024, "666e0b0ae98ede4555d319063924068d6c9c5dfd82756a3f427035d338dd7bf9"),
    ("uh3d", 2048, "4106e706840fa1d7bdb57d3fdd756ede8346f29fbae251aae7b8a10d3607d71c"),
    ("uh3d", 4096, "82d677f425f71499f6387eece367cfe7bf078f10e1d79d86b65332f1d4c757c3"),
    ("uh3d", 8192, "52a81a025ac0271a7330807421b645ae3861dc7bc5cbcc4b82057f0f619d160b"),
    ("jacobi-weak", 24, "6edb53d1aec7cd7843530b493ba151c3000568e21bcb6e52aff761c23df1cdc8"),
    # (4, 2, 2) and (2, 1, 1) process grids, periodic: both faces of a
    # 2-wide dimension are the same neighbour
    ("uh3d-small", 16, "b50e6a2971106c43c0186d45c8f1e507b4d0e8e2fae63fa0f27e25d2c3f70413"),
    ("uh3d-small", 2, "8b874758dd587335cd935ad115382260c0dc1c807606660bed43abdb2481bb0e"),
    ("uh3d-uneven", 12, "9a7cfd33133a144d0b7445f321f91b3ec2d0afefa413589f115bb3caccbce5a6"),
    ("specfem3d-uneven", 24, "6363722f24a532fd204e3df3ca64afa26964e72ccd042f94482548b1b4ef196e"),
    ("uh3d-weak", 8, "ddad554b71b6efa6404ff4a74dc4ba34aa8845df9a6743f5dd3396d517c7b100"),
]

_PINNED_APPS = {
    "jacobi-weak": lambda: JacobiProxy(
        JacobiParams(weak_cells_per_rank=(8, 8, 8)), scaling=ScalingMode.WEAK
    ),
    "uh3d-small": lambda: UH3DProxy(
        UH3DParams(global_cells=(32, 32, 32), particles_per_cell=2.0, n_steps=2)
    ),
    "uh3d-uneven": lambda: UH3DProxy(
        UH3DParams(global_cells=(33, 21, 11), particles_per_cell=2.0, n_steps=2)
    ),
    "specfem3d-uneven": lambda: SpecFEM3DProxy(
        SpecFEMParams(global_elements=(13, 12, 11), n_steps=2)
    ),
    "uh3d-weak": lambda: UH3DProxy(
        UH3DParams(weak_cells_per_rank=(8, 8, 8), n_steps=1), scaling=ScalingMode.WEAK
    ),
}


class TestPinnedJobs:
    @pytest.mark.parametrize("name,n_ranks,digest", PINNED_JOBS)
    def test_job_digest(self, name, n_ranks, digest):
        app = _PINNED_APPS[name]() if name in _PINNED_APPS else get_app(name)
        assert job_digest(app.build_job(n_ranks)) == digest

    def test_specfem3d_6144_build_memory(self):
        """Peak and retained memory of the largest SPECFEM3D build stay
        within the per-rank recorder's (16.2 MiB peak, 9.2 MiB kept with
        the job, of which the job's arrays are 8.7 MiB), and nothing
        outlives the job."""
        app = get_app("specfem3d")
        app.build_job(16)
        gc.collect()
        tracemalloc.start()
        try:
            job = app.build_job(6144)
            retained, peak = tracemalloc.get_traced_memory()
            del job
            gc.collect()
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16.2 * 2**20
        assert retained <= 9.2 * 2**20
        assert left <= 0.1 * 2**20


class TestProfileByClass:
    """Pricing blocks once per equivalence class changes no estimate."""

    @pytest.mark.parametrize(
        "name,counts",
        [("specfem3d", (96, 384, 1536, 6144)), ("uh3d", (1024, 2048, 4096, 8192))],
    )
    def test_identical_to_per_rank_profile_at_table1_counts(self, name, counts):
        app = get_app(name)
        for p in counts:
            job = app.build_job(p)
            per_rank = profile_job(job, app.program_factory(p))
            by_class = profile_job(
                job, app.program_factory(p), app.equivalence_classes(p)
            )
            assert list(by_class.compute_times_s.items()) == list(
                per_rank.compute_times_s.items()
            )
            assert by_class.slowest_rank() == per_rank.slowest_rank()

    def test_classes_must_partition_the_ranks(self):
        app = get_app("jacobi")
        job = app.build_job(8)
        with pytest.raises(ValueError, match="partition"):
            profile_job(job, app.program_factory(8), [[0, 1, 2]])


class TestJacobiSpecifics:
    def test_weak_scaling_grows_global(self):
        app = JacobiProxy(
            JacobiParams(weak_cells_per_rank=(8, 8, 8)), scaling=ScalingMode.WEAK
        )
        d8 = app.decomposition(8)
        assert d8.global_cells == (16, 16, 16)
        # per-rank cells constant under weak scaling
        assert d8.geometry(0).n_cells == 8**3
        d64 = app.decomposition(64)
        assert d64.geometry(0).n_cells == 8**3


class TestUH3DSpecifics:
    @pytest.fixture(scope="class")
    def app(self):
        return UH3DProxy(
            UH3DParams(global_cells=(32, 32, 32), particles_per_cell=2.0, n_steps=2)
        )

    def test_density_peak_location_stable(self, app):
        """The busiest region must stay busiest across core counts."""
        for p in (8, 64):
            job = app.build_job(p)
            prof = profile_job(job, app.program_factory(p))
            slowest = prof.slowest_rank()
            dec = app.decomposition(p)
            coords = dec.coords_of(slowest)
            pos_x = (coords[0] + 0.5) / dec.grid[0]
            assert abs(pos_x - 0.25) < 0.3  # near the dayside peak

    @pytest.mark.parametrize(
        "counts", [(8, 16, 64), (1024, 2048, 4096, 8192)], ids=["small", "table1"]
    )
    def test_density_levels_equal_the_scalar_formula(self, app, counts):
        if counts[0] >= 1024:
            app = get_app("uh3d")
        for n in counts:
            dec = app.decomposition(n)
            expected = []
            for rank in range(n):
                coords = dec.coords_of(rank)
                pos = tuple((coords[d] + 0.5) / dec.grid[d] for d in range(3))
                dx, dy, dz = pos[0] - 0.25, pos[1] - 0.5, pos[2] - 0.5
                enhancement = math.exp(-(dx * dx + dy * dy + dz * dz) / 0.08)
                peak = app.params.density_peak
                density = 1.0 + (peak - 1.0) * enhancement
                levels = app.params.density_levels
                frac = (density - 1.0) / max(peak - 1.0, 1e-12)
                expected.append(min(int(frac * levels), levels - 1))
            assert app.density_levels(n).tolist() == expected

    def test_density_levels_bounded(self, app):
        levels = {app.density_level(r, 64) for r in range(64)}
        assert levels <= set(range(app.params.density_levels))
        assert len(levels) > 1  # the field actually varies

    def test_load_imbalance_present(self, app):
        job = app.build_job(64)
        prof = profile_job(job, app.program_factory(64))
        assert prof.load_imbalance() > 1.1


class TestSpecFEMSpecifics:
    def test_corner_rank_is_slowest(self):
        app = SpecFEM3DProxy(SpecFEMParams(global_elements=(12, 12, 12), n_steps=2))
        job = app.build_job(24)
        prof = profile_job(job, app.program_factory(24))
        slowest = prof.slowest_rank()
        geom = app.decomposition(24).geometry(slowest)
        assert geom.boundary_faces == 3  # a corner rank

    def test_norm_stages_grow_with_log_cores(self):
        app = SpecFEM3DProxy(SpecFEMParams(global_elements=(12, 12, 12)))
        from repro.apps.specfem3d import BLOCK_NORM_STAGES

        e6 = app.rank_program(0, 6).block(BLOCK_NORM_STAGES).exec_count
        e24 = app.rank_program(0, 24).block(BLOCK_NORM_STAGES).exec_count
        assert e24 > e6  # log2(24) > log2(6)


class TestRegistry:
    def test_lookup(self):
        assert get_app("jacobi").name == "jacobi"
        assert get_app("specfem3d").name == "specfem3d"
        assert get_app("uh3d").name == "uh3d"

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_app("lammps")
