"""Exact-LRU multi-level cache simulation.

Two backends replay the same semantics bit for bit.  Where a C compiler
works, :class:`HierarchySimulator` hands every chunk to the compiled
kernel of :mod:`repro.cache.kernel`, one call per level in program
order, with the misses forwarded outward.  The numpy engine below is the
fallback, used only when no compiler is on ``PATH`` or the build or load
fails; a simulator resolves its backend once, when it is constructed.

The numpy engine processes address chunks (tens of thousands of
accesses) with numpy-level parallelism while preserving exact LRU
semantics:

1.  Accesses are grouped by cache set (stable sort), which preserves
    per-set access order — the only order LRU cares about.
2.  Back-to-back accesses to the same line within a set are *trivial
    hits* and are collapsed (they cannot change replacement state except
    recency, which the collapse preserves).
3.  The remaining accesses are replayed in *rounds*: round ``r`` carries
    the ``r``-th surviving access of every set.  Within a round all
    accesses touch distinct sets, so tag compare / LRU update is one
    vectorized gather-scatter over the state arrays.

The number of Python-level iterations is therefore the maximum per-set
access count in the chunk, typically two to three orders of magnitude
smaller than the chunk itself.  :mod:`repro.cache.reference` implements
the same semantics one access at a time; the test suite checks the two
agree bit-for-bit on every pattern class.

Fast paths of the numpy engine (all bit-for-bit equivalent to its
generic path):

- Power-of-two set counts index sets with a bitmask instead of ``%``.
- Direct-mapped levels (associativity 1) skip the round replay: a hit is
  exactly "same line as the previous access to this set", so one
  shifted compare over the set-sorted stream resolves the whole chunk.
- Fully-associative levels (one set) replay through an ordered-dict LRU
  with O(1) updates instead of O(assoc) scans per round.
- When every level shares one line size and set counts are
  powers of two that do not decrease outward (true of every predefined
  hierarchy), the set-index bits of level *i* are a suffix of level
  *i+1*'s.  The miss stream is then kept in set-sorted order down the
  hierarchy and each outer level re-sorts only on the *new high bits*
  of its set index — reusing the inner level's sort permutation rather
  than re-sorting the chunk from scratch, and skipping the scatter back
  to program order entirely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.cache.geometry import CacheGeometry
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.kernel import LruKernel, lru_kernel
from repro.obs.metrics import REGISTRY

_EMPTY_TAG = np.int64(-1)


def _argsort_narrow(key: np.ndarray, key_range: int) -> np.ndarray:
    """Stable argsort of small-range non-negative integer keys.

    numpy's stable sort for integers is an LSB radix sort whose cost
    scales with the key width, so narrowing the dtype to the actual key
    range cuts the number of passes.
    """
    if key_range <= 1 << 8:
        key = key.astype(np.uint8)
    elif key_range <= 1 << 16:
        key = key.astype(np.uint16)
    elif key_range <= 1 << 32:
        key = key.astype(np.uint32)
    return np.argsort(key, kind="stable")


class _LevelState:
    """Mutable tag/recency state for one cache level."""

    __slots__ = (
        "geometry",
        "tags",
        "stamps",
        "time",
        "_line_shift",
        "_n_sets",
        "_assoc",
        "_set_mask",
        "_set_bits",
        "_lru",
    )

    def __init__(self, geometry: CacheGeometry):
        self.geometry = geometry
        n_sets, assoc = geometry.n_sets, geometry.associativity
        self.tags = np.full((n_sets, assoc), _EMPTY_TAG, dtype=np.int64)
        self.stamps = np.zeros((n_sets, assoc), dtype=np.int64)
        self.time = 0
        self._line_shift = int(geometry.line_size).bit_length() - 1
        self._n_sets = n_sets
        self._assoc = assoc
        if n_sets & (n_sets - 1) == 0:
            self._set_mask = n_sets - 1
            self._set_bits = n_sets.bit_length() - 1
        else:
            self._set_mask = None
            self._set_bits = None
        # fully-associative levels keep their LRU order in a dict
        # (insertion-ordered, O(1) move-to-front) instead of the stamps
        self._lru: dict = {}

    def reset(self) -> None:
        self.tags.fill(_EMPTY_TAG)
        self.stamps.fill(0)
        self.time = 0
        self._lru.clear()

    def set_index(self, lines: np.ndarray) -> np.ndarray:
        if self._set_mask is not None:
            return lines & self._set_mask
        return lines % self._n_sets

    def access(
        self, addresses: np.ndarray, kernel: Optional[LruKernel] = None
    ) -> np.ndarray:
        """Simulate ``addresses`` in order; return per-access hit mask.

        ``kernel`` (from :func:`repro.cache.kernel.lru_kernel`) replays
        the whole chunk in compiled code; ``None`` runs the numpy engine.
        """
        n = addresses.shape[0]
        if n == 0:
            return np.zeros(0, dtype=bool)
        if kernel is not None:
            hits = np.empty(n, dtype=bool)
            kernel(
                addresses.ctypes.data, hits.ctypes.data, n,
                self._line_shift, self._n_sets, self._assoc,
                self.tags.ctypes.data, self.stamps.ctypes.data, self.time,
            )
            self.time += n
            return hits
        lines = addresses >> self._line_shift
        if self._n_sets == 1:
            return self._replay_fully_assoc(lines)
        sets = self.set_index(lines)
        order = _argsort_narrow(sets, self._n_sets)
        hits_sorted = self._replay_sorted(lines[order], sets[order])
        hits = np.empty(n, dtype=bool)
        hits[order] = hits_sorted
        return hits

    # -- replay kernels (inputs stably sorted by set id) ----------------

    def _replay_sorted(self, s_lines: np.ndarray, s_sets: np.ndarray) -> np.ndarray:
        if self._assoc == 1:
            return self._replay_direct_mapped(s_lines, s_sets)
        return self._replay_rounds(s_lines, s_sets)

    def _replay_fully_assoc(self, lines: np.ndarray) -> np.ndarray:
        """One-set LRU: ordered-dict replay, O(1) per distinct access.

        Consecutive repeats of one line are trivial hits (the line is
        MRU already), so only run heads touch the dict.
        """
        n = lines.shape[0]
        head = np.empty(n, dtype=bool)
        head[0] = True
        np.not_equal(lines[1:], lines[:-1], out=head[1:])
        hits = ~head
        lru = self._lru
        cap = self._assoc
        for i in np.flatnonzero(head).tolist():
            line = int(lines[i])
            if line in lru:
                del lru[line]
                lru[line] = None
                hits[i] = True
            else:
                if len(lru) >= cap:
                    del lru[next(iter(lru))]
                lru[line] = None
        return hits

    def _replay_direct_mapped(
        self, s_lines: np.ndarray, s_sets: np.ndarray
    ) -> np.ndarray:
        """Associativity-1: the resident line is simply the previous
        access to the set, so the whole chunk resolves with one shifted
        compare plus a boundary check against the stored tags."""
        n = s_lines.shape[0]
        hits = np.empty(n, dtype=bool)
        hits[0] = False
        same_set = s_sets[1:] == s_sets[:-1]
        np.logical_and(s_lines[1:] == s_lines[:-1], same_set, out=hits[1:])
        starts = np.flatnonzero(
            np.concatenate([[True], ~same_set])
        )
        first_sets = s_sets[starts]
        hits[starts] = self.tags[first_sets, 0] == s_lines[starts]
        ends = np.empty(starts.shape[0], dtype=np.int64)
        ends[:-1] = starts[1:]
        ends[-1] = n
        ends -= 1
        self.tags[s_sets[ends], 0] = s_lines[ends]
        return hits

    def _replay_rounds(self, s_lines: np.ndarray, s_sets: np.ndarray) -> np.ndarray:
        n = s_lines.shape[0]
        # group boundaries (sets are sorted, so groups are runs)
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        np.not_equal(s_sets[1:], s_sets[:-1], out=new_group[1:])
        group_start = np.maximum.accumulate(
            np.where(new_group, np.arange(n, dtype=np.int32), 0)
        )

        # trivial hits: same line as the previous access in the same set
        trivial = np.zeros(n, dtype=bool)
        trivial[1:] = (s_lines[1:] == s_lines[:-1]) & ~new_group[1:]

        nontrivial = ~trivial
        # trivial doubles as the result buffer: every non-trivial slot is
        # False here and is overwritten by the replay below
        hits_sorted = trivial
        # rank of each non-trivial access within its set group
        cum = np.cumsum(nontrivial, dtype=np.int32)
        before_group = np.where(group_start > 0, cum[group_start - 1], 0)
        rank = cum - before_group - 1  # valid where nontrivial

        nt_idx = np.flatnonzero(nontrivial)
        if not nt_idx.size:
            return hits_sorted
        nt_rank = rank[nt_idx]
        max_rank = int(nt_rank.max())
        rounds = max_rank + 1
        if rounds * self._n_sets <= 2 * n + 4096 and int(s_lines.min()) >= 0:
            hits_sorted[nt_idx] = self._rounds_dense(
                s_lines[nt_idx], s_sets[nt_idx], nt_rank, rounds
            )
            return hits_sorted

        # bucket accesses by round once (argsort by rank)
        round_order = _argsort_narrow(nt_rank, rounds)
        nt_sorted = nt_idx[round_order]
        rank_sorted = nt_rank[round_order]
        round_starts = np.searchsorted(rank_sorted, np.arange(rounds + 1))
        round_sets = s_sets[nt_sorted]
        round_lines = s_lines[nt_sorted]
        hits_nt = np.empty(nt_sorted.shape[0], dtype=bool)
        tags, stamps = self.tags, self.stamps
        for r in range(rounds):
            lo, hi = round_starts[r], round_starts[r + 1]
            if lo == hi:
                continue
            set_ids = round_sets[lo:hi]
            line_ids = round_lines[lo:hi]
            way_tags = tags[set_ids]
            hit_mask = way_tags == line_ids[:, None]
            hit = hit_mask.any(axis=1)
            way = np.where(
                hit, hit_mask.argmax(axis=1), stamps[set_ids].argmin(axis=1)
            )
            tags[set_ids, way] = line_ids
            self.time += 1
            stamps[set_ids, way] = self.time
            hits_nt[lo:hi] = hit
        hits_sorted[nt_sorted] = hits_nt
        return hits_sorted

    def _rounds_dense(
        self,
        nt_lines: np.ndarray,
        nt_sets: np.ndarray,
        nt_rank: np.ndarray,
        rounds: int,
    ) -> np.ndarray:
        """Round replay over the *full* state arrays, no gathers.

        Lays the non-trivial accesses out as a dense (rounds x n_sets)
        matrix (sentinel -1 for sets idle in a round, hence the
        non-negative-lines gate) and updates every set every round:
        idle sets "re-access" their own MRU line, which is a semantic
        no-op — it refreshes the MRU stamp, preserving the relative
        stamp order that LRU eviction depends on.  This trades a few
        redundant dense ops for the removal of all fancy-indexed
        gathers, which dominate when rounds are many and sets are few.
        """
        n_sets = self._n_sets
        tags, stamps = self.tags, self.stamps
        matrix = np.full((rounds, n_sets), -1, dtype=np.int64)
        matrix[nt_rank, nt_sets] = nt_lines
        hit_matrix = np.empty((rounds, n_sets), dtype=bool)
        row_idx = np.arange(n_sets)
        # preallocated scratch: the loop is dispatch-bound, so every
        # avoided temporary counts
        active = np.empty(n_sets, dtype=bool)
        hit_mask = np.empty(tags.shape, dtype=bool)
        way = np.empty(n_sets, dtype=np.intp)
        way_hit = np.empty(n_sets, dtype=np.intp)
        mru_line = tags[row_idx, stamps.argmax(axis=1)]
        # the all-hit shortcut saves an argmin over the full state, which
        # only pays for itself on large levels
        check_all_hit = tags.size >= 2048
        for r in range(rounds):
            line_row = matrix[r]
            np.not_equal(line_row, -1, out=active)
            # idle sets re-access their MRU line: mru_line doubles as
            # this round's effective line vector
            np.copyto(mru_line, line_row, where=active)
            np.equal(tags, mru_line[:, None], out=hit_mask)
            hit = hit_matrix[r]
            hit_mask.any(axis=1, out=hit)
            hit_mask.argmax(axis=1, out=way_hit)
            self.time += 1
            if check_all_hit and hit.all():
                # no evictions anywhere: tags are unchanged, only the
                # MRU stamps refresh
                stamps[row_idx, way_hit] = self.time
                continue
            stamps.argmin(axis=1, out=way)
            np.copyto(way, way_hit, where=hit)
            tags[row_idx, way] = mru_line
            stamps[row_idx, way] = self.time
        return hit_matrix[nt_rank, nt_sets]


@dataclass
class LevelStats:
    """Accumulated per-level counters.

    ``accesses``/``hits`` are level-local (an access reaches level *i*
    only if it missed all inner levels).  Per-instruction arrays are
    indexed by instruction id and sized on demand; they are views into
    geometrically-grown backing buffers, so repeated growth is amortized
    O(1) per element rather than O(n^2) re-concatenation.
    """

    name: str
    accesses: int = 0
    hits: int = 0
    instr_accesses: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )
    instr_hits: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.int64)
    )

    def __post_init__(self):
        self._acc_buf = self.instr_accesses
        self._hit_buf = self.instr_hits

    def _grow(self, n: int) -> None:
        if self.instr_accesses.shape[0] >= n:
            return
        cap = self._acc_buf.shape[0]
        if cap < n:
            new_cap = max(n, 2 * cap)
            acc = np.zeros(new_cap, dtype=np.int64)
            acc[:cap] = self._acc_buf
            hit = np.zeros(new_cap, dtype=np.int64)
            hit[:cap] = self._hit_buf
            self._acc_buf, self._hit_buf = acc, hit
        self.instr_accesses = self._acc_buf[:n]
        self.instr_hits = self._hit_buf[:n]

    def record(self, instr_idx: Optional[np.ndarray], hits: np.ndarray) -> None:
        self.accesses += int(hits.shape[0])
        self.hits += int(hits.sum())
        if instr_idx is not None and instr_idx.size:
            counts = np.bincount(instr_idx)
            self._grow(counts.shape[0])
            self.instr_accesses[: counts.shape[0]] += counts
            hit_counts = np.bincount(instr_idx[hits])
            self.instr_hits[: hit_counts.shape[0]] += hit_counts

    @property
    def local_hit_rate(self) -> float:
        """Hits over accesses *that reached this level*."""
        return self.hits / self.accesses if self.accesses else 0.0


@dataclass
class SimulationResult:
    """Final counters of a hierarchy simulation."""

    hierarchy: CacheHierarchy
    levels: List[LevelStats]
    total_accesses: int

    def cumulative_hit_rates(self) -> np.ndarray:
        """Fraction of *all* references served at or before each level.

        This is the paper's hit-rate convention: Table II reports
        monotonically non-decreasing L1/L2/L3 rates for one block.
        """
        if self.total_accesses == 0:
            return np.zeros(len(self.levels))
        hits = np.array([lv.hits for lv in self.levels], dtype=np.float64)
        return np.cumsum(hits) / self.total_accesses

    def instruction_cumulative_hit_rates(self, n_instructions: int) -> np.ndarray:
        """Per-instruction cumulative hit rates, shape (n_instr, n_levels).

        One vectorized pass: the per-level hit counters are padded into
        a dense ``(n_instr, n_levels)`` matrix, cumulative-summed along
        levels, and divided by the level-0 access totals in a single
        masked divide (unseen instructions keep all-zero rows).
        """
        n_levels = len(self.levels)
        out = np.zeros((n_instructions, n_levels))
        if not self.levels or n_instructions == 0:
            return out
        total = np.zeros(n_instructions, dtype=np.int64)
        lv0 = self.levels[0]
        k = min(n_instructions, lv0.instr_accesses.shape[0])
        total[:k] = lv0.instr_accesses[:k]
        hits = np.zeros((n_instructions, n_levels))
        for j, lv in enumerate(self.levels):
            k = min(n_instructions, lv.instr_hits.shape[0])
            hits[:k, j] = lv.instr_hits[:k]
        cum = np.cumsum(hits, axis=1)
        seen = total > 0
        np.divide(
            cum,
            total[:, None].astype(np.float64),
            out=out,
            where=seen[:, None],
        )
        return out


def _nested_set_bits(levels: Sequence[CacheGeometry]) -> bool:
    """True when the sorted-stream fast path is valid for ``levels``.

    Requires a single line size and power-of-two set counts that do not
    decrease outward: level *i*'s set-index bits are then a suffix of
    level *i+1*'s, so a stream stably sorted by level *i*'s set id stays
    correctly ordered within every set of level *i+1*.
    """
    line = levels[0].line_size
    low = 0
    for g in levels:
        if g.line_size != line:
            return False
        if g.n_sets == 1:
            continue  # fully associative: order-preserving, no set bits
        if g.n_sets & (g.n_sets - 1):
            return False
        bits = g.n_sets.bit_length() - 1
        if bits < low:
            return False
        low = bits
    return True


class HierarchySimulator:
    """Simulates a full hierarchy over a chunked address stream.

    Typical use::

        sim = HierarchySimulator(hierarchy)
        for instr_idx, addrs in stream_chunks:
            sim.process(addrs, instr_idx)
        result = sim.result()
    """

    def __init__(self, hierarchy: CacheHierarchy):
        self.hierarchy = hierarchy
        self._states = [_LevelState(g) for g in hierarchy.levels]
        self._stats = [LevelStats(g.name) for g in hierarchy.levels]
        self._total = 0
        self._nested = _nested_set_bits(hierarchy.levels)
        self._kernel = lru_kernel()

    def reset(self) -> None:
        """Clear all cache state and counters."""
        for st in self._states:
            st.reset()
        self.clear_counters()

    def clear_counters(self) -> None:
        """Zero the statistics but keep cache contents warm.

        Used by warm-up passes (MultiMAPS probes, signature collection):
        simulate the stream once to reach steady state, clear, then
        measure a second pass.
        """
        self._stats = [LevelStats(g.name) for g in self.hierarchy.levels]
        self._total = 0

    def process(
        self, addresses: np.ndarray, instr_idx: Optional[np.ndarray] = None
    ) -> None:
        """Push one in-order chunk of byte addresses through the hierarchy."""
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        if instr_idx is not None:
            instr_idx = np.ascontiguousarray(instr_idx)
            if instr_idx.shape != addresses.shape:
                raise ValueError("instr_idx shape must match addresses")
        self._total += int(addresses.shape[0])
        REGISTRY.inc("cachesim.chunks")
        REGISTRY.inc("cachesim.accesses", int(addresses.shape[0]))
        if self._kernel is None and self._nested:
            self._process_nested(addresses, instr_idx)
            return
        for state, stats in zip(self._states, self._stats):
            if addresses.shape[0] == 0:
                break
            hits = state.access(addresses, self._kernel)
            stats.record(instr_idx, hits)
            miss = ~hits
            addresses = addresses[miss]
            if instr_idx is not None:
                instr_idx = instr_idx[miss]

    def _process_nested(
        self, addresses: np.ndarray, instr_idx: Optional[np.ndarray]
    ) -> None:
        """Sorted-stream walk down a nested-set-bits hierarchy.

        The miss stream is carried in set-sorted order; each level only
        re-sorts on the set-index bits the previous level did not order,
        and the per-instruction counters (plain bincounts) never need
        the program order back.
        """
        if addresses.shape[0] == 0:
            return
        lines = addresses >> self._states[0]._line_shift
        instr = instr_idx
        low_bits = 0
        for state, stats in zip(self._states, self._stats):
            if lines.shape[0] == 0:
                break
            if state._n_sets == 1:
                hits = state._replay_fully_assoc(lines)
            else:
                sets = lines & state._set_mask
                order = _argsort_narrow(
                    sets >> low_bits, 1 << (state._set_bits - low_bits)
                )
                lines = lines[order]
                if instr is not None:
                    instr = instr[order]
                hits = state._replay_sorted(lines, sets[order])
                low_bits = state._set_bits
            stats.record(instr, hits)
            miss = ~hits
            lines = lines[miss]
            if instr is not None:
                instr = instr[miss]

    def result(self) -> SimulationResult:
        """Snapshot the accumulated statistics."""
        return SimulationResult(
            hierarchy=self.hierarchy,
            levels=list(self._stats),
            total_accesses=self._total,
        )
