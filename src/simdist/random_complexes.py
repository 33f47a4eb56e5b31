"""Random complexes with a complete skeleton and independent top simplices.

Sampling is driven by the counter-based Philox generator keyed by the seed:
the uniform draw at position r decides the (k+2)-subset of colexicographic
rank r, so inclusion decisions are reproducible regardless of iteration order
and generation can be split across subset ranges.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .complexes import SimplicialComplex
from .serialize import document

__all__ = [
    "ConcentrationReport",
    "LmParams",
    "colex_rank",
    "concentration_report",
    "linial_meshulam",
    "skeleton_statistics",
    "top_simplex_sample",
]


@dataclass(frozen=True)
class LmParams:
    """Parameters of the X_{k+1}(N, p) model: complete k-skeleton on N
    vertices, each (k+2)-subset a top simplex independently with probability p."""

    num_vertices: int = field(metadata={"key": "n"})
    p: float
    k: int
    seed: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("skeleton dimension k must be >= 0")
        if self.num_vertices < self.k + 2:
            raise ValueError(
                f"need at least k+2 = {self.k + 2} vertices, got {self.num_vertices}"
            )
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"probability p={self.p} outside [0, 1]")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in 64 bits")


def colex_rank(subset) -> int:
    """Colexicographic rank of a sorted subset: sum of C(a_j, j+1)."""
    return sum(math.comb(a, j + 1) for j, a in enumerate(subset))


def _all_subsets(n: int, size: int) -> np.ndarray:
    """The size-subsets of range(n), size >= 1, as sorted rows in the order
    of `itertools.combinations`. The subsets one wider with least vertex a
    are a joined to each row whose least vertex exceeds a, a tail of the
    rows; the blocks for a = 0, 1, ... follow one another."""
    rows = np.arange(n, dtype=np.int64)[:, None]
    for _ in range(size - 1):
        starts = np.searchsorted(rows[:, 0], np.arange(1, n + 1))
        counts = len(rows) - starts
        shift = np.repeat(np.cumsum(counts) - counts - starts, counts)
        tails = rows[np.arange(len(shift)) - shift]
        rows = np.column_stack([np.repeat(np.arange(n), counts), tails])
    return rows


@lru_cache(maxsize=32)
def _mirrored_binomials(n: int, i: int) -> np.ndarray:
    """C(n - 1 - a, i) for a in range(n), read-only."""
    binomials = np.array([math.comb(n - 1 - a, i) for a in range(n)], dtype=np.int64)
    binomials.flags.writeable = False
    return binomials


def _lex_ranks(columns, n: int) -> np.ndarray:
    """Ranks of sorted rows, given by their columns, among the subsets of
    range(n) of their size in lex order, the order of `_all_subsets`.

    lex(S) = C(n, |S|) - 1 - colex(n - 1 - S). The mirror n - 1 - S holds
    S's columns last to first, so the vertex a in column j of w adds
    C(n - 1 - a, w - j) to the mirror's colex rank.
    """
    width = len(columns)
    ranks = math.comb(n, width) - 1
    for j, column in enumerate(columns):
        ranks = ranks - _mirrored_binomials(n, width - j)[column]
    return ranks


def _lex_facets(rows: np.ndarray, n: int) -> np.ndarray:
    """Facet table of sorted rows of subsets of range(n): entry [i, j] is
    the lex rank of row i without column j, found with no sort."""
    columns = list(rows.T)
    return np.column_stack([_lex_ranks(columns[:j] + columns[j + 1:], n)
                            for j in range(len(columns))])


@lru_cache(maxsize=8)
def _skeleton(n: int, k: int) -> tuple[tuple, tuple]:
    """Levels 0..k of the complete complex on range(n) in lex order, and the
    facet tables of levels 1..k, read-only."""
    rows = tuple(_all_subsets(n, size) for size in range(1, k + 2))
    facets = tuple(_lex_facets(level, n) for level in rows[1:])
    for array in rows + facets:
        array.flags.writeable = False
    return rows, facets


@lru_cache(maxsize=8)
def _colex_facets(n: int, size: int) -> np.ndarray:
    """Facet colex ranks of every size-subset of range(n), read-only.

    Column r is the subset of colex rank r and row j the rank of its facet
    that omits the j-th smallest vertex. The subsets with largest vertex m
    are the block of columns C(m, size) .. C(m+1, size) - 1: the
    (size-1)-subsets S of range(m) in colex order, each joined by m. Dropping
    m leaves S, whose rank is its place in the block, and dropping another
    vertex leaves a facet of S joined by m, whose rank is C(m, size-1) more
    than that facet's rank among the subsets of range(m), a lower-table entry.
    """
    dtype = np.int32 if math.comb(n, size - 1) < 2**31 else np.int64
    table = np.empty((size, math.comb(n, size)), dtype=dtype)
    lower = _colex_facets(n, size - 1) if size > 1 else None
    start = 0
    for m in range(size - 1, n):
        width = math.comb(m, size - 1)
        block = table[:, start:start + width]
        if lower is not None:
            block[:-1] = lower[:, :width]
            block[:-1] += width
        block[-1] = np.arange(width)
        start += width
    table.flags.writeable = False
    return table


# Floor on the uniforms drawn per run of whole blocks (see _block_runs).
_DRAW_CHUNK = 1 << 16


def _block_runs(params: LmParams):
    """The tops as (m0, m1, places, per_block), one run of whole blocks at
    a time. The uniform at position r decides the subset of colex rank r,
    and the block of the tops with largest vertex m is m joined to each
    (k+1)-subset of range(m) in colex order, as in `_colex_facets`. The runs
    are at least _DRAW_CHUNK draws of one generator, the same stream as one
    long draw. A run holds blocks m0 .. m1 - 1, per_block[m - m0] tops in
    block m, each given by its place in its block, in colex order.
    """
    n, size = params.num_vertices, params.k + 2
    top_starts = [math.comb(m, size) for m in range(n + 1)]
    ends = [size - 1]
    for m in range(size, n + 1):
        if m == n or top_starts[m] - top_starts[ends[-1]] >= _DRAW_CHUNK:
            ends.append(m)
    rng = np.random.Generator(np.random.Philox(key=params.seed))
    buf = np.empty(max(top_starts[b] - top_starts[a] for a, b in zip(ends, ends[1:])))
    top_starts = np.array(top_starts)
    for m0, m1 in zip(ends, ends[1:]):
        offsets = top_starts[m0:m1 + 1] - top_starts[m0]
        places = np.flatnonzero(rng.random(out=buf[:offsets[-1]]) < params.p)
        per_block = np.searchsorted(places, offsets)
        per_block = per_block[1:] - per_block[:-1]
        places -= np.repeat(offsets[:-1], per_block)
        yield m0, m1, places, per_block


def top_simplex_sample(params: LmParams) -> np.ndarray:
    """Included (k+2)-subsets as sorted rows in lex order.

    Each top is m joined to the (k+1)-subset at its place among the colex
    rows one size down, the lex rows mirrored (n - 1 - S). The tops come in
    colex order and are sorted into lex order once. Memory is
    O(tops + C(N, k+1) + _DRAW_CHUNK).
    """
    n, k = params.num_vertices, params.k
    lower = (n - 1) - _skeleton(n, k)[0][k][::-1, ::-1]
    tops = np.concatenate([
        np.column_stack([lower[places], np.repeat(np.arange(m0, m1), per_block)])
        for m0, m1, places, per_block in _block_runs(params)])
    return tops[np.argsort(_lex_ranks(list(tops.T), n))]


def linial_meshulam(params: LmParams) -> SimplicialComplex:
    """Sample the model as a full complex (complete k-skeleton plus the tops).

    Levels 0..k and their facet tables are the cached `_skeleton`, and the
    tops' facet table is their facets' lex ranks, so no level is sorted.
    """
    n = params.num_vertices
    rows, facets = _skeleton(n, params.k)
    tops = top_simplex_sample(params)
    if len(tops):
        rows, facets = rows + (tops,), facets + (_lex_facets(tops, n),)
    return SimplicialComplex._from_levels(rows, facets)


def skeleton_statistics(params: LmParams) -> tuple[int, int, int]:
    """(top simplex count, max k-face degree, min k-face degree) without
    materializing the complex; degrees run over all C(N, k+1) k-subsets.

    The degrees are bincounts of the facet ranks of each run of
    `_block_runs`: a top's facet without m ranks as its place, and its facet
    without another vertex is m joined to a facet of the place, C(m, k+1)
    more than that facet's rank, read off the table one size down. Each
    bincount covers only the faces the run can reach: below C(m, k+1)
    without m, from C(m0, k+1) on through m. Memory is
    O((k+1) C(N, k+1) + _DRAW_CHUNK).
    """
    n, size = params.num_vertices, params.k + 2
    face_starts = np.array([math.comb(m, size - 1) for m in range(n + 1)])
    lower = _colex_facets(n, size - 1)
    degrees = np.zeros(face_starts[n], dtype=np.int64)
    count = 0
    for m0, m1, places, per_block in _block_runs(params):
        count += len(places)
        without = np.bincount(places)
        degrees[:len(without)] += without
        shift = np.repeat(face_starts[m0:m1] - face_starts[m0], per_block)
        through = degrees[face_starts[m0]:]
        for row in lower:
            hits = np.bincount(row.take(places) + shift)
            through[:len(hits)] += hits
    return count, int(degrees.max()), int(degrees.min())


@dataclass
class ConcentrationReport:
    """Empirical frequencies of the three concentration events with the
    matching tail bounds: top-count at most p*C(N,k+2)(1+eps), max degree at
    most p(N-k-1)(1+eps), min degree at least p(N-k-1)(1-eps)."""

    params: LmParams
    epsilon: float
    trials: int
    count_event_frequency: float
    degree_event_frequency: float
    min_degree_event_frequency: float
    count_tail_bound: float
    degree_tail_bound: float
    min_degree_tail_bound: float
    mean_top_count: float
    expected_top_count: float
    top_count_std_error: float
    purity_frequency: float
    counts: list[int]

    def csv_rows(self) -> tuple[list[str], list[list]]:
        cells = {**document(self.params), **document(self)}
        del cells["params"], cells["counts"]
        return list(cells), [list(cells.values())]


def concentration_report(
    params: LmParams, epsilon: float, trials: int
) -> ConcentrationReport:
    """Monte Carlo over seeds seed..seed+trials-1 of the three tail events."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie strictly between 0 and 1")
    if trials < 1:
        raise ValueError("need at least one trial")
    n, p, k = params.num_vertices, params.p, params.k
    expected = p * math.comb(n, k + 2)
    degree_mean = p * (n - k - 1)

    last_seed = params.seed + trials - 1
    if last_seed >= 2**64:
        raise ValueError(f"seed of the last trial, {last_seed}, must fit in 64 bits")
    # Build the facet table the workers share before they start, so that no
    # two threads build it at once: lru_cache does not lock its build.
    _colex_facets(n, k + 1)

    trial_params = [LmParams(n, p, k, params.seed + t) for t in range(trials)]
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with ThreadPoolExecutor(min(trials, cpus)) as pool:
        statistics = list(pool.map(skeleton_statistics, trial_params))

    counts = []
    count_hits = degree_hits = min_degree_hits = purity_hits = 0
    for top_count, max_degree, min_degree in statistics:
        counts.append(top_count)
        count_hits += top_count <= expected * (1 + epsilon)
        degree_hits += max_degree <= degree_mean * (1 + epsilon)
        min_degree_hits += min_degree >= degree_mean * (1 - epsilon)
        purity_hits += min_degree >= 1

    mean = float(np.mean(counts))
    binom_var = math.comb(n, k + 2) * p * (1 - p)
    std_error = math.sqrt(binom_var / trials)

    count_bound = math.exp(-(epsilon**2) * expected / (2 + epsilon))
    union = math.comb(n, k + 1)
    degree_bound = min(1.0, union * math.exp(-(epsilon**2) * degree_mean / (2 + epsilon)))
    min_degree_bound = min(1.0, union * math.exp(-(epsilon**2) * degree_mean / 2))

    return ConcentrationReport(
        params=params,
        epsilon=epsilon,
        trials=trials,
        count_event_frequency=count_hits / trials,
        degree_event_frequency=degree_hits / trials,
        min_degree_event_frequency=min_degree_hits / trials,
        count_tail_bound=count_bound,
        degree_tail_bound=degree_bound,
        min_degree_tail_bound=min_degree_bound,
        mean_top_count=mean,
        expected_top_count=expected,
        top_count_std_error=std_error,
        purity_frequency=purity_hits / trials,
        counts=counts,
    )
