"""Unit tests: domain decomposition and the application proxies."""

import numpy as np
import pytest

from repro.apps.base import ScalingMode
from repro.apps.decomposition import CartesianDecomposition, factor3
from repro.apps.jacobi import JacobiParams, JacobiProxy
from repro.apps.registry import get_app
from repro.apps.specfem3d import SpecFEM3DProxy, SpecFEMParams
from repro.apps.uh3d import UH3DParams, UH3DProxy
from repro.simmpi.profiler import profile_job
from repro.simmpi.runtime import COMPUTE, verify_job


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
