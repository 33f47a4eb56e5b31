import math
import os
import tracemalloc
from collections import Counter
from functools import lru_cache
from itertools import combinations

import numpy as np
import pytest

from simdist import random_complexes, serialize
from simdist.complexes import SimplicialComplex
from simdist.random_complexes import (
    LmParams,
    _all_subsets,
    _colex_facets,
    colex_rank,
    concentration_report,
    linial_meshulam,
    skeleton_statistics,
    top_simplex_sample,
)


def test_params_validation():
    with pytest.raises(ValueError):
        LmParams(2, 0.5, 1, seed=0)  # too few vertices
    with pytest.raises(ValueError):
        LmParams(5, 1.5, 1, seed=0)
    with pytest.raises(ValueError):
        LmParams(5, 0.5, -1, seed=0)


def test_colex_rank_enumerates_all_subsets():
    n, size = 7, 3
    ranks = sorted(colex_rank(s) for s in combinations(range(n), size))
    assert ranks == list(range(math.comb(n, size)))


def test_all_subsets_in_combinations_order():
    for n in range(8):
        for size in range(1, 6):
            expected = np.array(list(combinations(range(n), size)), dtype=np.int64)
            assert _all_subsets(n, size).tolist() == expected.reshape(-1, size).tolist()
    assert _all_subsets(5, 3).shape == (10, 3) and _all_subsets(2, 3).shape == (0, 3)


def test_p_one_gives_complete_complex():
    params = LmParams(7, 1.0, 1, seed=0)
    x = linial_meshulam(params)
    assert x.simplex_count(2) == math.comb(7, 3)
    assert x.is_pure


def test_p_zero_gives_skeleton():
    params = LmParams(7, 0.0, 1, seed=0)
    x = linial_meshulam(params)
    assert x.dim == 1
    assert x.simplex_count(1) == math.comb(7, 2)


def test_k_zero_is_random_graph():
    params = LmParams(40, 0.35, 0, seed=3)
    x = linial_meshulam(params)
    assert x.simplex_count(0) == 40
    edges = x.simplex_count(1)
    mean = 0.35 * math.comb(40, 2)
    sigma = math.sqrt(math.comb(40, 2) * 0.35 * 0.65)
    assert abs(edges - mean) <= 5 * sigma


def test_complete_skeleton_always_present():
    for params in [
        LmParams(8, 0.3, 1, seed=1),
        LmParams(6, 0.0, 2, seed=2),
        LmParams(9, 0.9, 0, seed=3),
    ]:
        x = linial_meshulam(params)
        assert x.simplex_count(params.k) == math.comb(
            params.num_vertices, params.k + 1
        )


def test_same_seed_bit_identical():
    params = LmParams(12, 0.5, 1, seed=99)
    a = top_simplex_sample(params)
    b = top_simplex_sample(params)
    assert np.array_equal(a, b)
    x, y = linial_meshulam(params), linial_meshulam(params)
    assert x.simplices(2) == y.simplices(2)


def test_different_seeds_independent():
    total = math.comb(14, 3)
    overlaps = []
    for seed in range(8):
        a = {tuple(r) for r in top_simplex_sample(LmParams(14, 0.5, 1, seed=seed))}
        b = {tuple(r) for r in top_simplex_sample(LmParams(14, 0.5, 1, seed=seed + 100))}
        union = len(a | b)
        overlaps.append(len(a & b) / union if union else 0.0)
    # independent p=1/2 sets give Jaccard ~ 1/3
    assert 0.15 < float(np.mean(overlaps)) < 0.55


@lru_cache(maxsize=None)
def philox_tops(params):
    """The tops straight from the Philox stream: one draw of C(N, k+2)
    uniforms, where the one at position r keeps the subset of colex rank r
    when it is below p, and the kept subsets sorted lex."""
    n, size = params.num_vertices, params.k + 2
    rng = np.random.Generator(np.random.Philox(key=params.seed))
    uniforms = rng.random(math.comb(n, size))
    by_colex = sorted(combinations(range(n), size), key=colex_rank)
    kept = sorted(s for s, u in zip(by_colex, uniforms) if u < params.p)
    return np.array(kept, dtype=np.int64).reshape(-1, size)


# k = 0..3 from N = k+2 up, at p = 0 and 1 and between (some of those draws
# are not pure), and N=80 k=1, whose C(80, 3) = 82,160 draws take two runs.
LM_GRID = [
    LmParams(n, p, k, seed)
    for k in range(4)
    for n in (k + 2, k + 4, k + 6)
    for p in (0.0, 0.3, 1.0)
    for seed in (0, 2)
] + [LmParams(80, 0.3, 1, seed=5)]


@pytest.mark.parametrize("chunk", [1, 7, random_complexes._DRAW_CHUNK])
def test_sample_matches_philox_reference(monkeypatch, chunk):
    # Floors of 1 and 7 draw one or a few whole blocks per run.
    assert math.comb(80, 3) > random_complexes._DRAW_CHUNK
    monkeypatch.setattr(random_complexes, "_DRAW_CHUNK", chunk)
    for params in LM_GRID:
        tops = top_simplex_sample(params)
        assert tops.dtype == np.int64, params
        assert np.array_equal(tops, philox_tops(params)), params


def assert_same_complex(x, y):
    assert (x.labels, x.dim, x.is_pure) == (y.labels, y.dim, y.is_pure)
    assert x._level_weights() == y._level_weights()
    for k in range(y.dim + 1):
        arrays = [(x.simplex_rows(k), y.simplex_rows(k)),
                  *zip(x.coface_csr(k), y.coface_csr(k))]
        if k:
            arrays.append((x.facet_table(k), y.facet_table(k)))
        for a, b in arrays:
            assert a.dtype == b.dtype and np.array_equal(a, b), k


def test_lm_build_matches_generic_build():
    purity = set()
    for params in LM_GRID:
        n, k = params.num_vertices, params.k
        x = linial_meshulam(params)
        assert_same_complex(
            x, SimplicialComplex.from_rows(_all_subsets(n, k + 1), philox_tops(params)))
        if x.dim == k + 1:
            purity.add(x.is_pure)
    assert purity == {True, False}


def test_sample_memory_stays_below_one_value_per_subset():
    # The old sampler kept every (k+2)-subset and its colex rank, 4 C(150, 3)
    # int64 values (17.6 MB), beside C(150, 3) float64 draws. The bound is
    # one 8-byte value per (k+2)-subset, so no int64 or float64 array over
    # the subsets fits under it; the measured peak is about 2 MB.
    tracemalloc.start()
    try:
        top_simplex_sample(LmParams(150, 0.05, 1, seed=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * math.comb(150, 3)


def test_fast_statistics_match_complex():
    for seed in range(4):
        params = LmParams(9, 0.4, 1, seed=seed)
        count, max_deg, min_deg = skeleton_statistics(params)
        x = linial_meshulam(params)
        assert count == x.simplex_count(2)
        degrees = [len(x.coface_indices(1, i)) for i in range(x.simplex_count(1))]
        assert max_deg == max(degrees)
        assert min_deg == min(degrees)


def test_colex_facets_match_colex_rank():
    for n in range(1, 11):
        for size in range(1, min(n, 5) + 1):
            subsets = sorted(combinations(range(n), size), key=colex_rank)
            expected = np.array(
                [[colex_rank(s[:j] + s[j + 1:]) for s in subsets] for j in range(size)]
            )
            table = _colex_facets(n, size)
            assert table.shape == (size, math.comb(n, size)), (n, size)
            assert np.array_equal(table, expected), (n, size)
            assert not table.flags.writeable


def brute_force_statistics(params):
    """Count, max and min k-face degree from the rows of philox_tops."""
    rows = philox_tops(params).tolist()
    if not rows:
        return 0, 0, 0
    degrees = Counter(
        tuple(row[:j] + row[j + 1:]) for row in rows for j in range(len(row))
    )
    all_faces = combinations(range(params.num_vertices), params.k + 1)
    counts = [degrees[face] for face in all_faces]
    return len(rows), max(counts), min(counts)


ORACLE_GRID = [
    LmParams(n, p, k, seed)
    for k in range(4)
    for n in range(k + 2, k + 8)
    for p in (0.0, 0.35, 1.0)
    for seed in (0, 1, 17)
]


def test_statistics_match_sample_oracle():
    for params in ORACLE_GRID:
        assert skeleton_statistics(params) == brute_force_statistics(params), params


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_statistics_across_draw_chunks(monkeypatch, chunk):
    # A small floor makes runs of one or a few whole blocks, so the grid's
    # draws cross runs with no draw below p.
    monkeypatch.setattr(random_complexes, "_DRAW_CHUNK", chunk)
    for params in ORACLE_GRID:
        assert skeleton_statistics(params) == brute_force_statistics(params), params


def full_table_statistics(params):
    """Count, max and min k-face degree from one long draw and bincounts of
    the rows of the full (k+2)-subset facet table."""
    n, size = params.num_vertices, params.k + 2
    rng = np.random.Generator(np.random.Philox(key=params.seed))
    tops = np.flatnonzero(rng.random(math.comb(n, size)) < params.p)
    degrees = sum(
        np.bincount(row[tops], minlength=math.comb(n, size - 1))
        for row in _colex_facets(n, size)
    )
    return len(tops), int(degrees.max()), int(degrees.min())


def test_statistics_match_one_long_draw():
    # C(80, 3) = 82,160 draws: more than one default run.
    params = LmParams(80, 0.3, 1, seed=5)
    assert math.comb(80, 3) > random_complexes._DRAW_CHUNK
    assert skeleton_statistics(params) == full_table_statistics(params)


@pytest.mark.parametrize("n, k", [(60, 2), (30, 3)])
def test_statistics_match_full_table(n, k):
    for p in (0.0, 0.3, 1.0):
        for seed in (0, 1, 17):
            params = LmParams(n, p, k, seed)
            assert skeleton_statistics(params) == full_table_statistics(params), params


def record_runs(monkeypatch):
    """The lengths of the draws skeleton_statistics takes, in order."""
    runs = []
    generator = np.random.Generator

    class RecordingGenerator:
        def __init__(self, bit_generator):
            self.generator = generator(bit_generator)

        def random(self, out):
            runs.append(len(out))
            return self.generator.random(out=out)

    monkeypatch.setattr(random_complexes.np.random, "Generator", RecordingGenerator)
    return runs


def block_ends(n, size):
    """Colex ranks where the blocks of subsets by largest vertex end."""
    return {math.comb(m, size) for m in range(size, n + 1)}


@pytest.mark.parametrize("floor, runs_expected", [(1, 38), (math.comb(40, 3), 1)])
def test_statistics_runs_of_whole_blocks(monkeypatch, floor, runs_expected):
    # Floor 1 draws each block as its own run, up to C(39, 2) = 741 long;
    # a floor of all C(40, 3) draws takes the 38 blocks in one run.
    params = LmParams(40, 0.3, 1, seed=4)
    expected = full_table_statistics(params)
    monkeypatch.setattr(random_complexes, "_DRAW_CHUNK", floor)
    runs = record_runs(monkeypatch)
    assert skeleton_statistics(params) == expected
    assert len(runs) == runs_expected
    assert max(runs) == (math.comb(39, 2) if floor == 1 else math.comb(40, 3))
    assert set(np.cumsum(runs).tolist()) <= block_ends(40, 3)


def test_statistics_default_runs_span_blocks(monkeypatch):
    params = LmParams(80, 0.3, 1, seed=5)
    expected = full_table_statistics(params)
    runs = record_runs(monkeypatch)
    assert skeleton_statistics(params) == expected
    ends = np.cumsum(runs)
    assert ends[-1] == math.comb(80, 3) and set(ends.tolist()) <= block_ends(80, 3)
    assert all(run >= random_complexes._DRAW_CHUNK for run in runs[:-1])
    assert len(runs) < 80 - 2  # so some run holds several blocks


def test_statistics_memory_stays_below_top_level_table():
    # The old (k+2) x C(N, k+2) int32 facet table alone took 131 MB here. The
    # bound is one 4-byte entry per (k+2)-subset, so no int32 or wider array
    # over the C(120, 4) subsets fits under it; the measured peak is 13-18 MB.
    _colex_facets.cache_clear()
    tracemalloc.start()
    try:
        skeleton_statistics(LmParams(120, 0.1, 2, seed=3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * math.comb(120, 4)


def test_purity_iff_min_degree_positive():
    for seed in range(6):
        params = LmParams(8, 0.35, 1, seed=seed)
        x = linial_meshulam(params)
        _, _, min_deg = skeleton_statistics(params)
        if x.dim == 2:
            assert x.is_pure == (min_deg >= 1)


def test_concentration_report_small():
    params = LmParams(30, 0.5, 1, seed=7)
    report = concentration_report(params, 0.5, trials=20)
    assert report.trials == 20
    assert 0.0 <= report.count_event_frequency <= 1.0
    assert report.count_tail_bound < 0.05
    assert report.mean_top_count == pytest.approx(
        float(np.mean(report.counts))
    )
    assert abs(report.mean_top_count - report.expected_top_count) <= max(
        5 * report.top_count_std_error, 1.0
    )


def test_concentration_p_one_deterministic():
    params = LmParams(10, 1.0, 1, seed=0)
    report = concentration_report(params, 0.5, trials=3)
    assert report.count_event_frequency == 1.0
    assert report.counts == [math.comb(10, 3)] * 3
    assert report.purity_frequency == 1.0


@pytest.mark.parametrize("trials", [1, 7])
def test_concentration_same_on_any_worker_count(monkeypatch, trials):
    workers = []

    class RecordingPool(random_complexes.ThreadPoolExecutor):
        def __init__(self, max_workers):
            workers.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(random_complexes, "ThreadPoolExecutor", RecordingPool)
    params = LmParams(30, 0.5, 1, seed=11)
    documents = []
    for cpus in (1, 4):
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)),
            raising=False,
        )
        report = concentration_report(params, 0.5, trials)
        documents.append(serialize.document(report))
    assert documents[0] == documents[1]
    assert workers == [1, min(trials, 4)]
    assert documents[0]["counts"] == [
        skeleton_statistics(LmParams(30, 0.5, 1, 11 + t))[0] for t in range(trials)
    ]


def test_concentration_last_seed_checked_before_any_draw(monkeypatch):
    def no_draw(params):
        raise AssertionError("drew before checking the seeds")

    monkeypatch.setattr(random_complexes, "skeleton_statistics", no_draw)
    params = LmParams(10, 0.5, 1, seed=2**64 - 1)
    with pytest.raises(ValueError, match=str(2**64)):
        concentration_report(params, 0.5, trials=2)


def test_concentration_validation():
    params = LmParams(10, 0.5, 1, seed=0)
    with pytest.raises(ValueError):
        concentration_report(params, 1.5, trials=2)
    with pytest.raises(ValueError):
        concentration_report(params, 0.5, trials=0)
