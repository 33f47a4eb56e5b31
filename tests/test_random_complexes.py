import math
import os
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from simdist import random_complexes
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
    """Count, max and min k-face degree from the rows of top_simplex_sample."""
    rows = top_simplex_sample(params).tolist()
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
    # A small floor leaves chunks C(N, k+1) long, so the grid's draws end on
    # partial chunks and cross chunks with no draw below p.
    monkeypatch.setattr(random_complexes, "_DRAW_CHUNK", chunk)
    for params in ORACLE_GRID:
        assert skeleton_statistics(params) == brute_force_statistics(params), params


def test_statistics_match_one_long_draw():
    # C(80, 3) = 82,160 draws: more than one default chunk.
    params = LmParams(80, 0.3, 1, seed=5)
    total = math.comb(80, 3)
    assert total > random_complexes._DRAW_CHUNK
    rng = np.random.Generator(np.random.Philox(key=params.seed))
    tops = np.flatnonzero(rng.random(total) < params.p)
    degrees = sum(
        np.bincount(row[tops], minlength=math.comb(80, 2))
        for row in _colex_facets(80, 3)
    )
    expected = (len(tops), int(degrees.max()), int(degrees.min()))
    assert skeleton_statistics(params) == expected


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
        documents.append(concentration_report(params, 0.5, trials).to_dict())
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
