"""Synthesis of large-count event traces from small-count traces.

The ScalaExtrap recipe, adapted to this library's event model:

1. infer each training job's process grid (:mod:`.topology`) and each
   rank's repeating stanza (:mod:`.stanza`);
2. map every *target* rank to one representative rank per training job
   by grid role — the same per-dimension boundary category (low edge /
   interior / high edge / periodic) at the nearest normalized position.
   Positions, not rank ids, carry meaning across core counts: the rank
   sitting at 25% of the x-axis does the same physics at every scale;
3. extrapolate each stanza slot's scalar (compute iterations, message
   bytes, collective payloads).  Geometry first, curves second — the
   ScalaExtrap insight: under strong scaling a volume-like scalar times
   the full grid size, or a face-like scalar times the complementary
   grid product of its offset dimension, is an *invariant* of the
   problem; when the invariant is constant across the training jobs the
   target value follows exactly from the target grid (this is what
   handles the staircase of per-dimension face sizes, which no smooth
   curve in P can represent).  Slots without a detected invariant fall
   back to canonical-form fitting (extended set by default: absolute
   magnitudes follow power laws the paper's four forms cannot
   represent, DESIGN.md §5);
4. re-derive point-to-point partners from the representative's grid
   *offsets* applied to the target grid, and finally reconcile receive
   sizes against the synthesized sends (paired by the replay's static
   matcher, :func:`~repro.simmpi.runtime.match_messages`) so the job is
   self-consistent.

The result is a complete :class:`~repro.simmpi.runtime.Job` at the
target count, built without running the application there — the
communication-side complement of the paper's computation-trace
extrapolation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.apps.decomposition import factor3
from repro.commextrap.stanza import Stanza, compress_script
from repro.commextrap.topology import InferredTopology, infer_topology
from repro.core.canonical import CanonicalForm, EXTENDED_FORMS, fit_best
from repro.simmpi.runtime import (
    COLLECTIVE,
    COMPUTE,
    SEND,
    Job,
    match_messages,
    verify_job,
)


class CommExtrapolationError(ValueError):
    """Raised when the training jobs cannot be extrapolated."""


def _category(coord: int, extent: int, periodic: bool) -> str:
    """Per-dimension boundary role of a grid coordinate."""
    if periodic or extent == 1:
        return "p" if periodic else "solo"
    if coord == 0:
        return "lo"
    if coord == extent - 1:
        return "hi"
    return "mid"


def _match_coord(pos: float, category: str, extent: int) -> int:
    """Training-grid coordinate with the same category nearest ``pos``."""
    raw = int(round(pos * extent - 0.5))
    raw = min(max(raw, 0), extent - 1)
    if category in ("p", "solo"):
        return raw
    if category == "lo":
        return 0
    if category == "hi":
        return extent - 1
    # interior: clamp away from the edges (possible only when extent > 2)
    if extent <= 2:
        raise CommExtrapolationError(
            f"target rank is interior in a dimension where a training grid "
            f"has extent {extent} (no interior ranks to learn from)"
        )
    return min(max(raw, 1), extent - 2)


def _fit_scalar(
    counts: np.ndarray,
    values: Sequence[float],
    target: int,
    forms: Sequence[CanonicalForm],
) -> float:
    values = np.asarray(values, dtype=np.float64)
    if np.all(values == values[0]):
        return float(values[0])
    fit = fit_best(counts, values, forms)
    return float(fit.predict(np.array([float(target)]))[0])


#: relative spread below which a grid-product invariant counts as constant
_INVARIANT_RTOL = 0.02


def _invariant_extrapolate(
    values: Sequence[float],
    train_products: Sequence[int],
    target_product: int,
) -> Optional[float]:
    """Geometry-invariant extrapolation of one slot scalar.

    If ``value * product`` is constant across the training jobs (the
    slot is inversely proportional to that grid product — volume work to
    the full grid size, face traffic to the offset dimension's
    complementary product), return the exactly-extrapolated target
    value; otherwise ``None``.
    """
    values = np.asarray(values, dtype=np.float64)
    products = np.asarray(train_products, dtype=np.float64)
    invariants = values * products
    if np.any(invariants <= 0):
        return None
    spread = invariants.max() / invariants.min() - 1.0
    if spread > _INVARIANT_RTOL:
        return None
    return float(invariants.mean() / target_product)


def _complementary_product(
    grid: Tuple[int, int, int], offset: Tuple[int, int, int]
) -> int:
    """Product of grid extents over the dimensions the offset is flat in."""
    prod = 1
    for d in range(3):
        if offset[d] == 0:
            prod *= grid[d]
    return prod


def _reconcile_recv_sizes(job: Job) -> None:
    """Make receive sizes equal their matched sends', in place."""
    sends, recvs, matched = match_messages(job)
    if (matched < 0).any():
        i = recvs[np.argmin(matched)]
        key = (int(job.arg[i]), int(job.ranks_of(i)), int(job.tag[i]))
        raise CommExtrapolationError(
            f"synthesized job has an unmatched recv on {key}"
        )
    job.count[recvs] = job.count[sends[matched]]


def extrapolate_job(
    jobs: Sequence[Job],
    target_n_ranks: int,
    *,
    forms: Sequence[CanonicalForm] = EXTENDED_FORMS,
    target_grid: Optional[Tuple[int, int, int]] = None,
) -> Job:
    """Synthesize a job's event traces at a large rank count.

    Parameters
    ----------
    jobs:
        Training jobs at ascending rank counts (>= 2).
    target_n_ranks:
        Rank count to synthesize.
    forms:
        Canonical forms for slot-scalar fitting (extended set by
        default; see module docstring).
    target_grid:
        Override the target process grid (defaults to the balanced
        factorization, matching MPI_Dims_create behavior).
    """
    if len(jobs) < 2:
        raise CommExtrapolationError(
            f"need at least 2 training jobs, got {len(jobs)}"
        )
    jobs = sorted(jobs, key=lambda j: j.n_ranks)
    counts = np.array([j.n_ranks for j in jobs], dtype=np.float64)
    if len(set(j.n_ranks for j in jobs)) != len(jobs):
        raise CommExtrapolationError("duplicate training rank counts")

    topologies = [infer_topology(j) for j in jobs]
    periodic = topologies[0].periodic
    for topo in topologies[1:]:
        if topo.periodic != periodic:
            raise CommExtrapolationError(
                f"training jobs disagree on periodicity: "
                f"{[t.periodic for t in topologies]}"
            )

    grid = target_grid or factor3(target_n_ranks)
    if grid[0] * grid[1] * grid[2] != target_n_ranks:
        raise CommExtrapolationError(
            f"target grid {grid} does not cover {target_n_ranks} ranks"
        )
    target_topo = InferredTopology(grid=grid, periodic=periodic, explained=1.0)

    # pre-compress every training rank's script (lazy per-rank would
    # re-do work: each training rank typically represents many targets)
    stanzas: List[Dict[int, Stanza]] = [
        {rank: compress_script(job, rank) for rank in range(job.n_ranks)}
        for job in jobs
    ]

    # thousands of target ranks share identical slot series (same role,
    # same density level, ...); memoize the curve fits
    fit_cache: Dict[Tuple[float, ...], float] = {}

    def fallback_fit(slot_values: Sequence[float]) -> float:
        key = tuple(slot_values)
        if key not in fit_cache:
            fit_cache[key] = max(
                0.0, _fit_scalar(counts, slot_values, target_n_ranks, forms)
            )
        return fit_cache[key]

    # the target job's event columns: kind, arg, count, tag
    columns: Tuple[List[int], ...] = ([], [], [], [])
    offsets = [0]
    for rank in range(target_n_ranks):
        coords = target_topo.coords_of(rank)
        categories = tuple(
            _category(coords[d], grid[d], periodic[d]) for d in range(3)
        )
        pos = tuple((coords[d] + 0.5) / grid[d] for d in range(3))

        reps: List[Stanza] = []
        rep_topos: List[InferredTopology] = []
        for job, topo, stanza_map in zip(jobs, topologies, stanzas):
            tcoords = tuple(
                _match_coord(pos[d], categories[d], topo.grid[d])
                for d in range(3)
            )
            rep_rank = topo.rank_of(tcoords)
            reps.append(stanza_map[rep_rank])
            rep_topos.append(topo)

        signature = reps[0].signature()
        for stanza in reps[1:]:
            if stanza.signature() != signature:
                raise CommExtrapolationError(
                    f"representatives of target rank {rank} have differing "
                    f"event structure across training counts"
                )
        repeats = int(
            round(_fit_scalar(counts, [s.repeats for s in reps], target_n_ranks, forms))
        )
        if repeats < 0:
            repeats = 0

        template: List[Tuple[int, int, int, int]] = []
        for slot in range(reps[0].n_slots):
            kind = reps[0].kind[slot]
            slot_values = [s.slot_scalar(slot) for s in reps]
            if kind in (COMPUTE, COLLECTIVE):
                scalar = None
                if kind == COMPUTE:
                    # volume-like invariant: iterations x total ranks
                    scalar = _invariant_extrapolate(
                        slot_values,
                        [j.n_ranks for j in jobs],
                        target_n_ranks,
                    )
                if scalar is None:
                    scalar = fallback_fit(slot_values)
                template.append(
                    (kind, reps[0].arg[slot], int(round(scalar)), 0)
                )
            else:
                # partner via the representative's grid offset
                grid_offsets = []
                for stanza, topo in zip(reps, rep_topos):
                    peer = stanza.arg[slot]
                    src, dst = (
                        (stanza.rank, peer) if kind == SEND
                        else (peer, stanza.rank)
                    )
                    grid_offsets.append(topo.offset_of(src, dst))
                if len(set(grid_offsets)) != 1:
                    raise CommExtrapolationError(
                        f"target rank {rank} slot {slot}: partner offsets "
                        f"disagree across training counts: {grid_offsets}"
                    )
                offset = grid_offsets[0]
                if kind == SEND:
                    partner = target_topo.neighbor(rank, offset)
                else:
                    partner = target_topo.neighbor(
                        rank, tuple(-o for o in offset)
                    )
                if partner < 0:
                    raise CommExtrapolationError(
                        f"target rank {rank} slot {slot}: role-matched "
                        f"representative communicates across a boundary the "
                        f"target rank does not have"
                    )
                # face-like invariant: bytes x complementary grid product
                scalar = _invariant_extrapolate(
                    slot_values,
                    [
                        _complementary_product(topo.grid, offset)
                        for topo in rep_topos
                    ],
                    _complementary_product(grid, offset),
                )
                if scalar is None:
                    scalar = fallback_fit(slot_values)
                template.append(
                    (kind, partner, int(round(scalar)), reps[0].tag[slot])
                )

        for column, values in zip(columns, zip(*template)):
            column.extend(values * repeats)
        offsets.append(offsets[-1] + len(template) * repeats)

    job = Job(jobs[0].app, target_n_ranks, offsets, *columns)
    _reconcile_recv_sizes(job)
    verify_job(job)
    return job
