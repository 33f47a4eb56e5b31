import gc
import math
import weakref
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from simdist.cochains import (
    Cochain,
    _signed_gather,
    adjoint_differential,
    differential,
    differential_matrix,
    random_cochain,
)
from simdist.complexes import (
    DegreeError,
    InvalidSimplexError,
    MissingSimplexError,
    build_complex,
    complete_complex,
)
from simdist.distortion import (
    BoundaryFamily,
    EmbeddingSpec,
    FillBoundUndefinedError,
    boundary_pairing,
    cochain_energy_inequality,
    combinatorial_fill_bound,
    compute_hypotheses,
    distortion_constant,
    distortion_lower_bound,
    evaluate_distortion,
    lm_distortion_experiment,
    projection_volume_inequality,
    spectral_embedding,
    verify_instance,
    vertex_set_family,
)
from simdist.gallery import fill_number, gallery_distance
from simdist.geometry import (
    Embedding,
    enclosed_projection_volume,
    simplex_boundary_oriented,
)
from simdist.random_complexes import LmParams, linial_meshulam


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


# -- families ---------------------------------------------------------------------


def test_vertex_set_family_counts():
    x = complete_complex(5, 2)
    family = vertex_set_family(x, 1)
    assert family.size == math.comb(5, 3) == 10
    assert family.s == 3
    assert np.all(family.counts == 5 - 1 - 1)  # each edge in N-k-1 members


def test_vertex_set_family_k0():
    x = complete_complex(6, 1)
    family = vertex_set_family(x, 0)
    assert family.size == math.comb(6, 2)
    assert family.s == 2
    assert np.all(family.counts == 5)


def test_vertex_set_family_lex_faces_match_the_face_search():
    # the family reads its faces off lex ranks; a user-given family with the
    # same rows searches for them, and both must give the same int64 table
    for n, p, k, seed in [(9, 0.6, 0, 1), (14, 0.5, 1, 2), (50, 0.25, 1, 1),
                          (9, 0.5, 2, 3), (12, 0.4, 2, 1)]:
        x = linial_meshulam(LmParams(n, p, k, seed=seed))
        family = vertex_set_family(x, k)
        searched = BoundaryFamily(x, family.vertex_sets)
        assert family.face_indices.dtype == searched.face_indices.dtype == np.int64
        assert np.array_equal(family.face_indices, searched.face_indices)
        assert np.array_equal(family.counts, searched.counts)


def test_family_requires_complete_skeleton():
    x = build_complex([(0, 1), (1, 2)])  # edge (0,2) missing
    with pytest.raises(DegreeError):
        vertex_set_family(x, 1)


def test_family_l_statistic():
    x = linial_meshulam(LmParams(8, 0.9, 1, seed=1))
    assert x.is_pure
    family = vertex_set_family(x, 1)
    weights = x.weights_of_dim(1)
    expected = Fraction(min(weights), 8 - 1 - 1)
    assert family.l_exact == expected


def test_family_rejects_malformed_rows():
    x = build_complex([(0, 1, 2), (1, 2, 3)])  # edge (0, 3) missing
    for empty in ([], np.zeros((0, 3), dtype=np.int64)):
        with pytest.raises(ValueError) as info:
            BoundaryFamily(x, empty)
        assert type(info.value) is ValueError
    with pytest.raises(DegreeError):
        BoundaryFamily(x, [(0,), (1,)])
    for row in ((1, 0, 2), (0, 2, 2)):
        with pytest.raises(InvalidSimplexError):
            BoundaryFamily(x, [(0, 1, 2), row])
    with pytest.raises(MissingSimplexError):
        BoundaryFamily(x, [(0, 1, 2), (0, 1, 3)])
    family = BoundaryFamily(x, [(0, 1, 2), (1, 2, 3)])
    assert (family.k, family.s, family.size) == (1, 3, 2)
    assert family.counts.tolist() == [1, 1, 2, 1, 1]


def _reference_families():
    """(complex, k, hypotheses, families): the vertex-set family, and a
    hand-built family that leaves out some (k+1)-simplices of the complex."""
    out = []
    for params in (LmParams(8, 0.6, 1, seed=1), LmParams(7, 0.7, 2, seed=2)):
        x = linial_meshulam(params)
        k = params.k
        hyp = compute_hypotheses(x, k)
        assert hyp.all_hold()
        full = vertex_set_family(x, k)
        partial = BoundaryFamily(x, full.vertex_sets[::3])
        rows = set(map(tuple, partial.vertex_sets.tolist()))
        assert any(sigma not in rows for sigma in x.simplices(k + 1))
        out.append((x, k, hyp, (full, partial)))
    return out


def test_energy_rhs_matches_pairing_reference():
    rng = _rng(12)
    for x, k, hyp, families in _reference_families():
        for family in families:
            phi = random_cochain(x, k, rng)
            check = cochain_energy_inequality(x, family, phi)
            coefficient = check.l * check.lam / check.s
            total = 0.0
            for row in family.vertex_sets.tolist():
                value = boundary_pairing(phi, simplex_boundary_oriented(row))
                total += value * value
            assert check.rhs == coefficient * total


def test_distortion_volumes_match_scalar_kernel():
    for x, k, hyp, families in _reference_families():
        emb = Embedding.gaussian(x.num_vertices, 4, seed=k)
        for family in families:
            report = evaluate_distortion(
                x, family, emb, include_bound=False,
                keep_members=True,
            )
            rows = family.vertex_sets.tolist()
            present = set(map(tuple, rows))
            rows += [list(s) for s in x.simplices(k + 1) if s not in present]
            assert len(report.members) == report.evaluated_members == len(rows)
            for member, row in zip(report.members, rows):
                assert sorted(set().union(*member.faces)) == row
                reference = enclosed_projection_volume(
                    simplex_boundary_oriented(row), emb
                )
                assert abs(member.volume - reference) <= 1e-12 * reference


# -- boundary pairing ---------------------------------------------------------------


def test_pairing_vanishes_on_coboundaries():
    x = complete_complex(6, 2)
    family = vertex_set_family(x, 1)
    rng = _rng(3)
    for _ in range(5):
        psi = random_cochain(x, 0, rng)
        d_psi = differential(x, psi)
        for row in family.vertex_sets[:10].tolist():
            member = simplex_boundary_oriented(row)
            assert boundary_pairing(d_psi, member) == pytest.approx(0.0, abs=1e-10)


def test_pairing_matches_differential_on_simplex_boundary():
    x = complete_complex(5, 2)
    rng = _rng(4)
    phi = random_cochain(x, 1, rng)
    d_phi = differential(x, phi)
    for sigma in x.simplices(2):
        member = simplex_boundary_oriented(sigma)
        assert boundary_pairing(phi, member) == pytest.approx(d_phi(sigma), rel=1e-12)


def test_sums_run_left_to_right():
    # 1e16 + 1.0 rounds back to 1e16, so a compensated sum, which builtin
    # sum() does since Python 3.12, would give 1.0 here and 1e16 + 2 below
    x = complete_complex(4, 2)
    # edges (0,1), (0,2), (0,3), (1,2), (1,3), (2,3)
    phi = Cochain(x, 1, [-1e16, -1.0, 0.0, 1e16, 0.0, 0.0])
    member = simplex_boundary_oriented([0, 1, 2])
    terms = [sign * phi(face) for face, sign in member.faces]
    assert terms == [1e16, 1.0, -1e16] and math.fsum(terms) == 1.0
    assert boundary_pairing(phi, member) == 0.0
    faces = x.facet_indices(np.array([[0, 1, 2]]))
    assert _signed_gather(phi.values, faces, np.array([1, -1, 1])).tolist() == [0.0]

    # pairings 1e8, 1, 1: their squares add to 1e16 left to right
    family = BoundaryFamily(x, np.array([(0, 1, 2), (0, 2, 3), (1, 2, 3)]))
    check = cochain_energy_inequality(x, family, Cochain(x, 1, [1e8, 0, 0, 0, 0, 1]))
    assert check.rhs == check.l * check.lam / check.s * 1e16


def test_pairing_zero_cochain():
    x = complete_complex(4, 1)
    member = simplex_boundary_oriented(vertex_set_family(x, 0).vertex_sets[0].tolist())
    assert boundary_pairing(Cochain.zeros(x, 0), member) == 0.0


def test_gauge_invariance():
    x = complete_complex(6, 2)
    family = vertex_set_family(x, 1)
    rng = _rng(5)
    phi = random_cochain(x, 1, rng)
    psi = random_cochain(x, 0, rng)
    shifted = Cochain(x, 1, phi.values + differential(x, psi).values)
    for row in family.vertex_sets.tolist():
        member = simplex_boundary_oriented(row)
        a = boundary_pairing(phi, member)
        b = boundary_pairing(shifted, member)
        assert abs(a - b) <= 1e-10 * (abs(a) + 1.0)


# -- inequalities -------------------------------------------------------------------


def test_energy_inequality_complete_complex():
    x = complete_complex(6, 2)
    family = vertex_set_family(x, 1)
    rng = _rng(6)
    for _ in range(10):
        phi = random_cochain(x, 1, rng)
        check = cochain_energy_inequality(x, family, phi)
        assert check.applicable
        assert check.margin >= -1e-8 * (abs(check.lhs) + 1.0)


def test_energy_inequality_on_coboundary():
    x = complete_complex(6, 2)
    family = vertex_set_family(x, 1)
    psi = random_cochain(x, 0, _rng(7))
    check = cochain_energy_inequality(x, family, differential(x, psi))
    # pairing sums vanish, so the margin is the full energy
    assert check.rhs == pytest.approx(0.0, abs=1e-9)
    assert check.margin >= -1e-12


def test_energy_inequality_hypothesis_failure_reported():
    x = complete_complex(6, 1)  # graph: H^1 != 0 (no triangles)
    family = vertex_set_family(x, 0)
    # use k=0 on a DISCONNECTED graph instead: two components
    y = build_complex([(0, 1), (2, 3)])
    fam = BoundaryFamily(y, [(0, 1), (2, 3)])
    check = cochain_energy_inequality(y, fam, Cochain.zeros(y, 0))
    assert not check.applicable
    assert not check.hypotheses.cohomology_zero
    assert check.margin is None
    assert family.s == 2  # keep the first family exercised


def test_volume_inequality_gaussian():
    x = complete_complex(6, 2)
    family = vertex_set_family(x, 1)
    for seed in range(5):
        emb = Embedding.gaussian(6, 4, seed=seed)
        check = projection_volume_inequality(x, family, emb)
        assert check.applicable
        assert check.margin >= -1e-8 * (abs(check.lhs) + 1.0)


def test_volume_inequality_constant_map():
    x = complete_complex(5, 2)
    family = vertex_set_family(x, 1)
    emb = Embedding(np.ones((5, 3)))
    check = projection_volume_inequality(x, family, emb)
    assert check.lhs == pytest.approx(0.0, abs=1e-12)
    assert check.rhs == pytest.approx(0.0, abs=1e-12)


def test_volume_inequality_k0_reduces_to_lengths():
    # degree 0: left side sums m(edge) * length^2 over edges, right side
    # (l*lambda/2) * sum over pairs of distance^2
    x = complete_complex(7, 1)
    family = vertex_set_family(x, 0)
    hyp = compute_hypotheses(x, 0)
    emb = Embedding.gaussian(7, 3, seed=11)
    check = projection_volume_inequality(x, family, emb)
    pts = emb.points
    lengths_sq = [
        float(np.sum((pts[a] - pts[b]) ** 2)) for a, b in x.simplices(1)
    ]
    lhs = sum(w * v for w, v in zip(x.weights_of_dim(1), lengths_sq))
    pair_total = sum(
        float(np.sum((pts[a] - pts[b]) ** 2)) for a, b in combinations(range(7), 2)
    )
    rhs = family.l * hyp.lambda_min_nonzero / 2 * pair_total
    assert check.lhs == pytest.approx(lhs, rel=1e-9)
    assert check.rhs == pytest.approx(rhs, rel=1e-9)
    assert check.margin >= -1e-8 * (abs(lhs) + 1.0)


# -- counting bound -----------------------------------------------------------------


def test_fill_bound_formula_and_errors():
    value = combinatorial_fill_bound(1000, 10, 4, 5, 1)
    expected = (math.log(100.0) - 4 * math.log(2.0)) / (3 * math.log(5.0)) - 1.0
    assert value == pytest.approx(expected, rel=1e-12)
    with pytest.raises(FillBoundUndefinedError):
        combinatorial_fill_bound(10, 10, 3, 1, 1)  # base D*k = 1
    with pytest.raises(ValueError):
        combinatorial_fill_bound(0, 10, 3, 5, 1)


def test_fill_bound_vacuous_sign():
    # |B| <= |X^(k)| 2^s forces the bound at or below -1
    s, d = 3, 7
    card_xk = 20
    card_b = card_xk * 2**s
    assert combinatorial_fill_bound(card_b, card_xk, s, d, 1) <= -1.0 + 1e-12


def test_k0_bound_uses_degree_not_zero():
    value = combinatorial_fill_bound(64, 4, 2, 3, 0)
    expected = (math.log(16.0) - 2 * math.log(2.0)) / (1 * math.log(3.0)) - 1.0
    assert value == pytest.approx(expected)


# -- distortion bound ----------------------------------------------------------------


def test_bound_second_factor_cap_and_chain():
    for params in [
        LmParams(12, 0.9, 1, seed=0),
        LmParams(10, 0.8, 1, seed=5),
        LmParams(14, 0.95, 1, seed=9),
    ]:
        x = linial_meshulam(params)
        hyp = compute_hypotheses(x, 1)
        if not hyp.all_hold():
            continue
        family = vertex_set_family(x, 1)
        bound = distortion_lower_bound(x, family)
        assert bound.applicable
        assert bound.counting_chain_ok
        assert bound.second_factor <= bound.second_factor_cap * (1 + 1e-9)


# fixture frozen from the dense eigensolver + exact counting pipeline
REGRESSION_BOUND_N30 = -0.7227007722373088
REGRESSION_LAMBDA_N30 = 0.8449410304314942


def test_bound_regression_fixture():
    x = linial_meshulam(LmParams(30, 0.9, 1, seed=30))
    family = vertex_set_family(x, 1)
    result = distortion_lower_bound(x, family)
    assert result.applicable
    assert math.isfinite(result.bound)
    assert result.bound == pytest.approx(REGRESSION_BOUND_N30, rel=1e-9)
    assert result.lam == pytest.approx(REGRESSION_LAMBDA_N30, rel=1e-9)
    assert result.vacuous  # first factor is negative at desk scale


def test_bound_not_applicable_without_hypotheses():
    x = linial_meshulam(LmParams(8, 0.2, 1, seed=4))
    family = vertex_set_family(x, 1)
    result = distortion_lower_bound(x, family)
    assert not result.hypotheses.all_hold() or result.applicable
    if not result.hypotheses.all_hold():
        assert result.bound is None


# -- evaluate_distortion -----------------------------------------------------------


def test_single_simplex_isometric_product_one():
    x = build_complex([(0, 1, 2)])
    family = vertex_set_family(x, 1)
    emb = Embedding(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    report = evaluate_distortion(x, family, emb, include_bound=False)
    assert report.exact_fill
    assert report.distortion_lo == pytest.approx(1.0, abs=1e-12)
    assert report.distortion_hi == pytest.approx(1.0, abs=1e-12)


def test_degenerate_embedding_flags_infinity():
    x = build_complex([(0, 1, 2)])
    family = vertex_set_family(x, 1)
    report = evaluate_distortion(
        x, family, Embedding(np.zeros((3, 2))), include_bound=False
    )
    assert report.infinite
    assert report.distortion_lo is None


def independent_graph_distortion(points, dist_matrix):
    """Classic metric distortion straight from the definition."""
    n = len(points)
    fwd = bwd = 0.0
    for u in range(n):
        for v in range(u + 1, n):
            euclid = float(np.linalg.norm(points[u] - points[v]))
            graph = dist_matrix[u][v]
            fwd = max(fwd, euclid / graph)
            bwd = max(bwd, graph / euclid)
    return fwd, bwd, fwd * bwd


def bfs_all_pairs(x):
    n = x.num_vertices
    adjacency = [[] for _ in range(n)]
    for a, b in x.simplices(1):
        adjacency[a].append(b)
        adjacency[b].append(a)
    out = []
    for s in range(n):
        dist = [math.inf] * n
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adjacency[v]:
                    if dist[w] == math.inf:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        out.append(dist)
    return out


def test_k0_matches_independent_oracle():
    hits = 0
    seed = 0
    while hits < 5:
        seed += 1
        x = linial_meshulam(LmParams(12, 0.45, 0, seed=seed))
        dist = bfs_all_pairs(x)
        if any(math.isinf(d) for row in dist for d in row):
            continue
        hits += 1
        emb = Embedding.gaussian(12, 4, seed=seed + 1000)
        family = vertex_set_family(x, 0)
        report = evaluate_distortion(x, family, emb, include_bound=False,
                                     keep_members=True)
        fwd, bwd, product = independent_graph_distortion(emb.points, dist)
        assert report.exact_fill
        # combinatorial parts agree exactly
        for member in report.members:
            (u,), (v,) = member.faces
            assert member.fill_exact == dist[u][v]
        assert report.sup_forward_lo == pytest.approx(fwd, rel=1e-9)
        assert report.sup_backward_lo == pytest.approx(bwd, rel=1e-9)
        assert report.distortion_lo == pytest.approx(product, rel=1e-9)


def test_extra_simplex_boundaries_included():
    # family of one member; the other present triangles join via the T-side
    x = build_complex([(0, 1, 2), (1, 2, 3)])
    family = BoundaryFamily(x, [(1, 2, 3)])
    emb = Embedding.gaussian(4, 3, seed=2)
    report = evaluate_distortion(x, family, emb, include_bound=False)
    assert report.evaluated_members == 2


# -- experiment ---------------------------------------------------------------------


def test_distortion_constant_value():
    assert distortion_constant(1) == pytest.approx(1 / (4 * math.sqrt(9.0)))


def test_lm_experiment_smoke():
    report = lm_distortion_experiment(
        LmParams(10, 0.9, 1, seed=3),
        EmbeddingSpec.parse("gaussian:4:17"),
        trials=3,
    )
    assert report.trials == 3
    assert len(report.records) == 3
    for record in report.records:
        if record.applicable:
            assert record.consistent
        assert record.hypotheses.flags_string() in {
            f"{a}{b}{c}{d}"
            for a in "01" for b in "01" for c in "01" for d in "01"
        }
    if report.checked:
        assert report.pass_rate == 1.0
    assert report.reference_bound is not None


def test_reference_bound_grows_in_sparse_regime():
    # p = C ln(N)/N: the reference lower bound should grow with N
    c = 3.0
    values = []
    for n in (20, 60, 200, 1000, 5000):
        p = min(0.99, c * math.log(n) / n)
        values.append(distortion_constant(0) * math.log(n) / math.log(p * n))
    assert all(a < b for a, b in zip(values, values[1:]))


# fixtures frozen from the dense eigensolver on the complete 2-complex (p=1);
# the gap matches the N/(N-2) pattern
COMPLETE_N10_LAMBDA = 1.25
COMPLETE_N10_BOUND = -1.3061604491613705


def test_p_one_complete_complex_bound_fixture():
    x = linial_meshulam(LmParams(10, 1.0, 1, seed=0))
    assert x.simplex_count(2) == math.comb(10, 3)
    family = vertex_set_family(x, 1)
    result = distortion_lower_bound(x, family)
    assert result.applicable
    assert result.lam == pytest.approx(COMPLETE_N10_LAMBDA, abs=1e-9)
    assert math.isfinite(result.bound)
    assert result.bound == pytest.approx(COMPLETE_N10_BOUND, rel=1e-9)


def test_lm_experiment_degenerate_trials_are_data():
    # sparse regime: most samples are non-pure or unfillable; the experiment
    # must record them rather than raise
    report = lm_distortion_experiment(
        LmParams(8, 0.1, 1, seed=0),
        EmbeddingSpec.parse("gaussian:3:1"),
        trials=5,
    )
    assert report.trials == 5
    assert len(report.records) == 5
    for record in report.records:
        if not record.hypotheses.all_hold():
            assert record.consistent is None


def test_embedding_spec_parsing():
    spec = EmbeddingSpec.parse("gaussian:5:42")
    assert (spec.kind, spec.m, spec.seed) == ("gaussian", 5, 42)
    assert EmbeddingSpec.parse("spectral:3").m == 3
    assert EmbeddingSpec.parse("file:/tmp/e.csv").path == "/tmp/e.csv"
    with pytest.raises(ValueError):
        EmbeddingSpec.parse("gaussian:5")
    with pytest.raises(ValueError):
        EmbeddingSpec.parse("mystery:1")


def test_spectral_embedding_shape():
    x = complete_complex(7, 1)
    emb = spectral_embedding(x, 3)
    assert emb.points.shape == (7, 3)
    # deterministic
    again = spectral_embedding(x, 3)
    assert np.array_equal(emb.points, again.points)


def test_verify_instance_good_and_bad():
    good = complete_complex(6, 2)
    emb = Embedding.gaussian(6, 4, seed=5)
    report = verify_instance(good, 1, emb, seed=1)
    assert report["ok"]
    assert report["hypotheses_ok"]

    bad = linial_meshulam(LmParams(8, 0.15, 1, seed=2))
    report = verify_instance(bad, 1, None, seed=1)
    assert not report["hypotheses_ok"]


def test_derived_data_holds_no_reference_cycle():
    # what a complex keeps must not point back at it: with the cycle
    # collector off, dropping the last reference must free the complex
    x = linial_meshulam(LmParams(8, 0.6, 2, seed=2))
    evaluate_distortion(x, vertex_set_family(x, 2), Embedding.gaussian(8, 4, seed=1))
    assert fill_number(x, list(combinations((0, 1, 2, 5), 3))).exact == 4
    assert gallery_distance(x, (0, 1, 2), (3, 4, 5)) == 3
    assert compute_hypotheses(x, 2).gallery_connected
    differential_matrix(x, 2)  # eval's dense spectrum builds no scipy matrix
    assert {key[0] for key in x._cache} >= {
        "differential", "rank", "spectrum", "gallery labels", "coface table",
        "node adjacency",
    }
    ref = weakref.ref(x)
    gc.disable()
    try:
        del x
        assert ref() is None
    finally:
        gc.enable()
