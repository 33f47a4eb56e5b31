"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import math
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from simdist.cochains import (
    adjoint_differential,
    differential,
    differential_matrix,
    inner_product,
    norm,
    random_cochain,
    upper_laplacian,
)
from simdist.complexes import build_complex, complete_complex
from simdist.distortion import (
    combinatorial_fill_bound,
    compute_hypotheses,
    cochain_energy_inequality,
    distortion_lower_bound,
    evaluate_distortion,
    projection_volume_inequality,
    vertex_set_family,
)
from simdist.gallery import (
    GalleryGraph,
    UnfillableError,
    fill_number,
    gallery_ball_sizes,
    gallery_distance,
    is_gallery_connected,
)
from simdist.geometry import (
    Embedding,
    OrientedBoundary,
    enclosed_projection_volume,
    moment_integral,
    multi_indices,
    simplex_boundary_oriented,
    simplex_volume,
    stokes_check,
)
from simdist.random_complexes import LmParams, concentration_report, linial_meshulam


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL - {description}")
        raise
    print(f"[criterion {num:02d}] PASS - {description}")


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


# -- shared corpora ------------------------------------------------------------


@pytest.fixture(scope="module")
def small_fill_corpus():
    """50 deterministic instances with at most 18 top simplices."""
    corpus = []
    seed = 0
    specs = [(0, 8, 0.32), (1, 6, 0.4), (1, 7, 0.28), (2, 6, 0.45), (0, 7, 0.4)]
    while len(corpus) < 50:
        k, n, p = specs[seed % len(specs)]
        params = LmParams(n, p, k, seed=seed)
        seed += 1
        complex_ = linial_meshulam(params)
        count = complex_.simplex_count(k + 1)
        if 1 <= count <= 18:
            corpus.append((params, complex_))
    return corpus


@pytest.fixture(scope="module")
def verified_complexes():
    """50 deterministic random complexes whose hypotheses all verify (k=1)."""
    instances = []
    seed = 1000
    grid = [(8, 0.85), (9, 0.8), (10, 0.8), (11, 0.85), (12, 0.9), (9, 0.95)]
    while len(instances) < 50:
        n, p = grid[seed % len(grid)]
        params = LmParams(n, p, 1, seed=seed)
        seed += 1
        complex_ = linial_meshulam(params)
        hyp = compute_hypotheses(complex_, 1)
        if hyp.all_hold():
            instances.append((params, complex_, hyp))
    return instances


# -- criterion 1 ----------------------------------------------------------------


def test_criterion_01_exact_cochain_algebra():
    with criterion(1, "d∘d = 0 as integer matrices on 100 seeded random complexes"):
        checked = 0
        composable = 0
        for i in range(100):
            k = i % 3
            n = 6 + (i * 7) % 9  # 6..14
            p = 0.2 + 0.07 * (i % 10)
            complex_ = linial_meshulam(LmParams(n, p, k, seed=i))
            checked += 1
            for degree in range(complex_.dim - 1):
                product = differential_matrix(complex_, degree + 1) @ (
                    differential_matrix(complex_, degree)
                )
                assert product.nnz == 0 or np.all(product.data == 0)
                composable += 1
        assert checked == 100
        assert composable >= 60  # plenty of nontrivial compositions


# -- criterion 2 ----------------------------------------------------------------


def test_criterion_02_adjointness_and_rayleigh():
    with criterion(2, "adjointness and Rayleigh identities at 1e-9 relative, 1000 cochains"):
        complexes = [
            (complete_complex(7, 2), 1),
            (complete_complex(6, 3), 2),
            (complete_complex(9, 1), 0),
            (linial_meshulam(LmParams(10, 0.9, 1, seed=1)), 1),
            (linial_meshulam(LmParams(8, 0.95, 2, seed=2)), 2),
        ]
        rng = _rng(77)
        total = 0
        per_complex = 200
        for complex_, k in complexes:
            assert complex_.is_pure
            lap = upper_laplacian(complex_, k)
            for _ in range(per_complex):
                phi = random_cochain(complex_, k, rng)
                psi = random_cochain(complex_, k + 1, rng)
                lhs = inner_product(complex_, differential(complex_, phi), psi)
                rhs = inner_product(complex_, phi, adjoint_differential(complex_, psi))
                assert abs(lhs - rhs) <= 1e-9 * (
                    norm(complex_, phi) * norm(complex_, psi) + 1.0
                )
                d_phi = differential(complex_, phi)
                energy = inner_product(complex_, d_phi, d_phi)
                rayleigh = float(
                    np.dot(lap.weights_k * lap.apply(phi.values), phi.values)
                )
                assert abs(energy - rayleigh) <= 1e-9 * (abs(energy) + 1.0)
                total += 1
        assert total == 1000


# -- criterion 3 ----------------------------------------------------------------


def _bfs_all_pairs(complex_):
    n = complex_.num_vertices
    adjacency = [[] for _ in range(n)]
    for a, b in complex_.simplices(1):
        adjacency[a].append(b)
        adjacency[b].append(a)
    matrix = []
    for source in range(n):
        dist = [math.inf] * n
        dist[source] = 0
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adjacency[v]:
                    if dist[w] == math.inf:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        matrix.append(dist)
    return matrix


def test_criterion_03_degree_zero_reductions():
    with criterion(3, "degree-0 machinery equals the independent graph oracle"):
        instances = []
        seed = 0
        sizes = [10, 14, 18, 22, 26, 30]
        while len(instances) < 20:
            n = sizes[seed % len(sizes)]
            p = 0.3 + 0.05 * (seed % 4)
            params = LmParams(n, p, 0, seed=seed)
            seed += 1
            complex_ = linial_meshulam(params)
            dist = _bfs_all_pairs(complex_)
            if all(math.isfinite(d) for row in dist for d in row):
                instances.append((params, complex_, dist))

        for index, (params, complex_, dist) in enumerate(instances):
            n = complex_.num_vertices
            emb = Embedding.gaussian(n, 4, seed=5000 + index)
            # combinatorial parts: zero tolerance
            for u in range(n):
                for v in range(u, n):
                    assert gallery_distance(complex_, (u,), (v,)) == dist[u][v]
            for u, v in list(combinations(range(n), 2))[:: max(1, n // 4)]:
                assert fill_number(complex_, [(u,), (v,)]).exact == dist[u][v]
            # pair volumes are Euclidean distances
            for u, v in list(combinations(range(n), 2))[:: max(1, n // 3)]:
                volume = enclosed_projection_volume(
                    simplex_boundary_oriented((u, v)), emb
                )
                euclid = float(np.linalg.norm(emb.points[u] - emb.points[v]))
                assert abs(volume - euclid) <= 1e-9 * (euclid + 1.0)
            # full distortion against the classic definition
            family = vertex_set_family(complex_, 0)
            report = evaluate_distortion(complex_, family, emb)
            assert report.exact_fill
            fwd = bwd = 0.0
            for u in range(n):
                for v in range(u + 1, n):
                    euclid = float(np.linalg.norm(emb.points[u] - emb.points[v]))
                    fwd = max(fwd, euclid / dist[u][v])
                    bwd = max(bwd, dist[u][v] / euclid)
            fills = GalleryGraph(complex_, 0).fill_numbers(family.face_indices)
            for (u, v), fill in zip(family.vertex_sets.tolist(), fills.tolist()):
                assert fill == dist[u][v]
            assert report.sup_forward_lo == pytest.approx(fwd, rel=1e-9)
            assert report.sup_backward_lo == pytest.approx(bwd, rel=1e-9)
            assert report.distortion_lo == pytest.approx(fwd * bwd, rel=1e-9)


# -- criterion 4 ----------------------------------------------------------------


def _bipyramid(k):
    base = tuple(range(k + 1))
    chain = [(base + (k + 1,), 1), (base + (k + 2,), -1)]
    return OrientedBoundary.from_chain(chain), chain


def _monte_carlo_moment(points, index, samples, seed):
    pts = np.asarray(points, dtype=float)
    k = pts.shape[0] - 1
    rng = _rng(seed)
    bary = rng.dirichlet(np.ones(k + 1), size=samples)
    values = bary @ pts[:, index[0]]
    det = 1.0 if k == 0 else float(
        np.linalg.det((pts[1:] - pts[0])[:, list(index[1:])])
    )
    return float(values.mean()) * det / math.factorial(k)


def test_criterion_04_stokes_and_moment_oracle():
    with criterion(4, "Stokes residuals at 1e-9 and Monte Carlo moment oracle at 1e-2"):
        rng = _rng(101)
        cases = 0
        while cases < 200:
            k = cases % 3
            m = 2 + cases % 5  # 2..6
            if m < k + 1:
                cases += 1
                continue
            if cases % 2 == 0 or k == 0:
                sigma = tuple(range(k + 2))
                boundary = simplex_boundary_oriented(sigma)
                chain = [(sigma, 1)]
                pts = rng.standard_normal((k + 2, m))
            else:
                boundary, chain = _bipyramid(k)
                pts = rng.standard_normal((k + 3, m))
            emb = Embedding(pts)
            residual = stokes_check(boundary, chain, emb)
            scale = enclosed_projection_volume(boundary, emb) + 1.0
            assert residual <= 1e-9 * scale
            cases += 1

        # moment closed form against a 1e6-sample Monte Carlo estimate
        checked = 0
        attempt = 0
        while checked < 20:
            attempt += 1
            k = attempt % 3
            m = max(k + 1, 2 + attempt % 5)
            pts = rng.standard_normal((k + 1, m))
            idx = next(iter(multi_indices(m, k + 1)))
            exact = moment_integral(pts, idx)
            if abs(exact) < 0.05:
                continue
            estimate = _monte_carlo_moment(pts, idx, 1_000_000, seed=attempt)
            assert abs(exact - estimate) <= 1e-2 * abs(exact)
            checked += 1


# -- criterion 5 ----------------------------------------------------------------


def test_criterion_05_flat_equality_and_projection_inequality():
    with criterion(5, "flat-case equality at 1e-9 and projection inequality on 200 fillings"):
        rng = _rng(202)
        # affine simplex boundaries match Gram volumes
        for case in range(60):
            k = case % 3
            m = max(k + 1, 2 + case % 5)
            pts = rng.standard_normal((k + 2, m))
            vol = simplex_volume(pts)
            env = enclosed_projection_volume(
                simplex_boundary_oriented(tuple(range(k + 2))), Embedding(pts)
            )
            assert abs(env - vol) <= 1e-9 * (vol + 1e-12)

        checked = 0
        while checked < 200:
            k = 1 + checked % 2
            simplex_case = checked % 3 == 0
            if simplex_case:
                sigma = tuple(range(k + 2))
                boundary = simplex_boundary_oriented(sigma)
                chain = [(sigma, 1)]
                n_points = k + 2
            else:
                boundary, chain = _bipyramid(k)
                n_points = k + 3
            if checked % 2 == 0:
                # flat: build a genuine tiling inside a (k+1)-flat (apexes on
                # opposite sides of the base hyperplane so cells cannot
                # overlap), then lift affinely into R^{k+4}
                flat = rng.standard_normal((n_points, k + 1))
                if not simplex_case:
                    flat[:, -1] = 0.0
                    flat[k + 1, -1] = 0.5 + float(rng.random())
                    flat[k + 2, -1] = -0.5 - float(rng.random())
                lift = rng.standard_normal((k + 1, k + 4))
                pts = flat @ lift + rng.standard_normal(k + 4)
                flat_case = True
            else:
                pts = rng.standard_normal((n_points, min(k + 4, 6)))
                flat_case = False
            emb = Embedding(pts)
            total = sum(
                abs(c) * simplex_volume(pts[list(cell)]) for cell, c in chain
            )
            env = enclosed_projection_volume(boundary, emb)
            assert total >= env - 1e-9 * (total + 1.0)
            if flat_case:
                assert env == pytest.approx(total, rel=1e-9)
            checked += 1


# -- criterion 6 ----------------------------------------------------------------


def test_criterion_06_spectral_inequalities(verified_complexes):
    with criterion(6, "energy and volume inequality margins ≥ -1e-8·scale on 50 verified complexes"):
        assert len(verified_complexes) == 50
        rng = _rng(303)
        for params, complex_, hyp in verified_complexes:
            family = vertex_set_family(complex_, 1)
            for _ in range(10):
                phi = random_cochain(complex_, 1, rng)
                check = cochain_energy_inequality(complex_, family, phi)
                assert check.applicable
                assert check.margin >= -1e-8 * (abs(check.lhs) + 1.0)
            for j in range(5):
                m = 2 + j  # 2..6
                emb = Embedding.gaussian(
                    complex_.num_vertices, m, seed=params.seed * 10 + j
                )
                check = projection_volume_inequality(complex_, family, emb)
                assert check.applicable
                assert check.margin >= -1e-8 * (abs(check.lhs) + 1.0)


# -- criterion 7 ----------------------------------------------------------------


def _brute_force_fill(complex_, graph, faces):
    # adjacency and stars from the simplices alone: two (k+1)-simplices are
    # adjacent iff they share k+1 vertices
    sets = [set(s) for s in graph.nodes]
    adjacency = [
        [w for w, t in enumerate(sets) if w != v and len(s & t) == len(s) - 1]
        for v, s in enumerate(sets)
    ]
    stars = [{v for v, s in enumerate(sets) if set(f) <= s} for f in faces]
    if any(not s for s in stars):
        return None
    pairs = list(combinations(range(len(stars)), 2))
    nodes = list(range(len(sets)))

    def connects(subset):
        subset = set(subset)
        parent = {v: v for v in subset}

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        for v in subset:
            for w in adjacency[v]:
                if w in subset:
                    parent[find(v)] = find(w)
        for a, b in pairs:
            roots_a = {find(v) for v in stars[a] & subset}
            roots_b = {find(v) for v in stars[b] & subset}
            if not roots_a & roots_b:
                return False
        return True

    if not pairs:
        return 0
    if not connects(nodes):
        return None
    for size in range(1, len(nodes) + 1):
        for subset in combinations(nodes, size):
            if connects(subset):
                return size
    return None


def test_criterion_07_fill_oracle_equivalence(small_fill_corpus):
    with criterion(7, "exact fill equals brute force on 50 small instances; fill(∂σ)=1"):
        assert len(small_fill_corpus) == 50
        for params, complex_ in small_fill_corpus:
            k = params.k
            graph = GalleryGraph(complex_, k)
            # boundary of every top simplex fills with exactly that simplex
            for sigma in complex_.simplices(k + 1):
                faces = list(combinations(sigma, k + 1))
                assert fill_number(complex_, faces).exact == 1
            for subset in combinations(range(complex_.num_vertices), k + 2):
                faces = list(combinations(subset, k + 1))
                expected = _brute_force_fill(complex_, graph, faces)
                if expected is None:
                    with pytest.raises(UnfillableError):
                        fill_number(complex_, faces)
                else:
                    result = fill_number(complex_, faces)
                    assert result.exact == expected
                    assert result.lower <= result.exact <= result.upper


# -- criterion 8 ----------------------------------------------------------------


def test_criterion_08_counting_bound_and_balls(small_fill_corpus):
    with criterion(8, "counting bound witnessed and ball growth within (D·max(k,1))^(r+1)"):
        tested = 0
        for params, complex_ in small_fill_corpus:
            k = params.k
            if complex_.simplex_count(k + 1) == 0:
                continue
            if not is_gallery_connected(complex_, k):
                continue
            d_max = max(
                len(complex_.coface_indices(k, i))
                for i in range(complex_.simplex_count(k))
            )
            base = d_max * max(k, 1)
            s = k + 2
            family_size = math.comb(complex_.num_vertices, k + 2)
            if base <= 1:
                continue
            bound = combinatorial_fill_bound(
                family_size, complex_.simplex_count(k), s, d_max, k
            )
            best_fill = 0
            for subset in combinations(range(complex_.num_vertices), k + 2):
                faces = list(combinations(subset, k + 1))
                result = fill_number(complex_, faces)
                best_fill = max(best_fill, result.exact)
            assert best_fill >= bound
            # ball premise
            r_max = 4
            for eta in complex_.simplices(k):
                sizes = gallery_ball_sizes(complex_, eta, r_max)
                for r, size in enumerate(sizes):
                    assert size <= base ** (r + 1)
            tested += 1
        assert tested >= 10


# -- criterion 9 ----------------------------------------------------------------


def test_criterion_09_second_factor_cap(verified_complexes):
    with criterion(9, "second factor ≤ sqrt(2(k+2)λ) and exact counting chain"):
        for params, complex_, hyp in verified_complexes[:25]:
            family = vertex_set_family(complex_, 1)
            bound = distortion_lower_bound(complex_, family)
            assert bound.applicable
            assert bound.second_factor <= bound.second_factor_cap * (1 + 1e-9)
            assert bound.counting_chain_ok
            # independent exact-arithmetic check of the chain
            n = complex_.dim
            k = family.k
            lhs = family.l_exact * family.size * Fraction(1, family.s)
            rhs = Fraction(
                math.factorial(n + 1), math.factorial(k + 1)
            ) * complex_.simplex_count(n)
            assert lhs <= rhs


# -- criterion 10 ----------------------------------------------------------------


def test_criterion_10_end_to_end_consistency():
    with criterion(10, "measured distortion ≥ lower bound on 20 verified instances"):
        instances = 0
        seed = 2000
        sizes = [14, 16, 18, 20]
        probs = [0.8, 0.85, 0.9]
        while instances < 20:
            n = sizes[seed % len(sizes)]
            p = probs[seed % len(probs)]
            params = LmParams(n, p, 1, seed=seed)
            seed += 1
            complex_ = linial_meshulam(params)
            hyp = compute_hypotheses(complex_, 1)
            if not hyp.all_hold():
                continue
            family = vertex_set_family(complex_, 1)
            emb = Embedding.gaussian(n, 5, seed=seed + 9000)
            report = evaluate_distortion(complex_, family, emb)
            assert report.exact_fill  # fills pinned exactly
            assert not report.infinite
            bound = report.bound
            assert bound.applicable
            assert report.distortion_lo >= bound.bound - 1e-9 * (
                abs(bound.bound) + 1.0
            )
            instances += 1


# -- criterion 11 ----------------------------------------------------------------


def test_criterion_11_concentration():
    with criterion(11, "concentration events hold in 100/100 trials at N=200"):
        params = LmParams(200, 0.5, 1, seed=0)
        report = concentration_report(params, 0.5, trials=100)
        assert report.count_event_frequency == 1.0
        assert report.degree_event_frequency == 1.0
        assert report.min_degree_event_frequency == 1.0
        assert abs(report.mean_top_count - report.expected_top_count) <= (
            3.0 * report.top_count_std_error
        )


# -- criterion 12 ----------------------------------------------------------------


def test_criterion_12_determinism(tmp_path):
    with criterion(12, "identical configurations produce byte-identical outputs"):
        from click.testing import CliRunner

        from simdist.cli import main

        runner = CliRunner()
        outputs = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.cplx"
            result = runner.invoke(
                main,
                ["lmgen", "--n", "12", "--p", "0.7", "--k", "1", "--seed", "5",
                 "--out", str(path)],
            )
            assert result.exit_code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1]

        spectra = [
            runner.invoke(
                main, ["spectrum", "--complex", str(tmp_path / "a.cplx"), "--k", "1"]
            ).output
            for _ in range(2)
        ]
        assert spectra[0] == spectra[1]

        experiments = [
            runner.invoke(
                main,
                ["distortion", "lm-experiment", "--n", "10", "--p", "0.9",
                 "--k", "1", "--trials", "3", "--seed", "4",
                 "--embedding", "gaussian:4:9"],
            ).output
            for _ in range(2)
        ]
        assert experiments[0] == experiments[1]

        reports = [
            runner.invoke(
                main,
                ["concentration", "--n", "30", "--p", "0.5", "--k", "1",
                 "--eps", "0.5", "--trials", "10", "--seed", "3"],
            ).output
            for _ in range(2)
        ]
        assert reports[0] == reports[1]
