import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import simdist.cochains as cochains_module
from simdist.cochains import (
    Cochain,
    adjoint_differential,
    cohomology_dim,
    differential,
    differential_matrix,
    exact_rank,
    inner_product,
    norm,
    random_cochain,
    spectrum,
    upper_laplacian,
)
from simdist.complexes import (
    DegreeError,
    NotPureError,
    SimplicialComplex,
    build_complex,
    complete_complex,
)
from simdist.random_complexes import LmParams, linial_meshulam


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def test_differential_indicator_on_edge():
    x = build_complex([(0, 1)])
    phi = Cochain.indicator(x, (0,))
    d_phi = differential(x, phi)
    assert d_phi((0, 1)) == -1.0  # phi(1) - phi(0)


def test_differential_of_constant_vanishes():
    x = complete_complex(5, 1)
    phi = Cochain(x, 0, np.full(5, 3.25))
    assert np.allclose(differential(x, phi).values, 0.0)


def test_dd_zero_exactly():
    complexes = [
        complete_complex(6, 2),
        build_complex([(0, 1, 2, 3), (1, 2, 3, 4), (0, 2, 4, 5)]),
        linial_meshulam(LmParams(9, 0.6, 2, seed=5)),
    ]
    for x in complexes:
        for k in range(x.dim - 1):
            product = differential_matrix(x, k + 1) @ differential_matrix(x, k)
            assert product.nnz == 0 or np.all(product.data == 0)


def test_cochain_evaluation_signs():
    x = build_complex([(0, 1, 2)])
    phi = Cochain.indicator(x, (0, 1))
    assert phi((0, 1)) == 1.0
    assert phi((1, 0)) == -1.0
    assert phi((0, 0)) == 0.0


def test_inner_product_k2_indicator():
    x = complete_complex(2, 1)
    phi = Cochain.indicator(x, (0,))
    assert inner_product(x, phi, phi) == 1.0  # vertex weight is 1 in K_2


def test_inner_product_disjoint_supports():
    x = complete_complex(6, 1)
    phi = Cochain.indicator(x, (0,))
    psi = Cochain.indicator(x, (3,))
    assert inner_product(x, phi, psi) == 0.0


def test_inner_product_degree_mismatch():
    x = complete_complex(4, 2)
    with pytest.raises(DegreeError):
        inner_product(x, Cochain.zeros(x, 0), Cochain.zeros(x, 1))


def test_inner_product_rejects_non_pure():
    x = build_complex([(0, 1, 2), (2, 3)])
    with pytest.raises(NotPureError):
        inner_product(x, Cochain.zeros(x, 0), Cochain.zeros(x, 0))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32))
def test_positive_definiteness(seed):
    x = complete_complex(5, 2)
    phi = random_cochain(x, 1, _rng(seed))
    value = inner_product(x, phi, phi)
    assert value >= 0.0
    assert (value == 0.0) == bool(np.all(phi.values == 0.0))


def test_k2_spectrum():
    result = spectrum(complete_complex(2, 1), 0)
    assert np.allclose(result.eigenvalues, [0.0, 2.0], atol=1e-12)
    assert result.zero_multiplicity == 1
    assert result.lambda_min_nonzero == pytest.approx(2.0, abs=1e-12)


def test_k3_spectrum():
    result = spectrum(complete_complex(3, 1), 0)
    assert np.allclose(result.eigenvalues, [0.0, 1.5, 1.5], atol=1e-12)


def test_complete_graph_spectrum_pattern():
    for n in (4, 7, 10):
        result = spectrum(complete_complex(n, 1), 0)
        expected = np.concatenate([[0.0], np.full(n - 1, n / (n - 1))])
        assert np.allclose(result.eigenvalues, expected, atol=1e-9)


def test_complete_two_complex_regression():
    # all nonzero eigenvalues coincide; value frozen from the dense solve
    result = spectrum(complete_complex(5, 2), 1)
    nonzero = result.eigenvalues[result.eigenvalues > result.tolerance]
    assert np.allclose(nonzero, nonzero[0], atol=1e-9)
    assert nonzero[0] == pytest.approx(5.0 / 3.0, abs=1e-9)
    assert result.zero_multiplicity == 4


def test_disconnected_graph_zero_multiplicity():
    x = build_complex([(0, 1), (2, 3)])
    result = spectrum(x, 0)
    assert result.zero_multiplicity == 2


def test_tolerance_mismatch_is_hard_error():
    from simdist.cochains import SpectralMismatchError

    # a tolerance above the gap misclassifies eigenvalues; the exact kernel
    # cross-check refuses to report such a spectrum
    with pytest.raises(SpectralMismatchError):
        spectrum(complete_complex(2, 1), 0, tolerance=3.0)


def _annulus(steps):
    """Two triangles per step around a ring: inner i, outer steps+i; H^1 = 1."""
    tops = []
    for i in range(steps):
        j = (i + 1) % steps
        tops += [(i, steps + i, j), (steps + i, steps + j, j)]
    return build_complex(tops)


def _two_components(n, p, k, seed):
    """The top simplices of two samples, the second shifted by n vertices."""
    first, second = (linial_meshulam(LmParams(n, p, k, seed=s)).simplex_rows(k + 1)
                     for s in (seed, seed + 1))
    return build_complex(np.concatenate([first, second + n]).tolist())


def _two_annuli(steps):
    """Two disjoint annuli, the second shifted by 2 * steps vertices: H^1 = 2."""
    tops = _annulus(steps).simplex_rows(2)
    return build_complex(np.concatenate([tops, tops + 2 * steps]).tolist())


def test_iterative_gap_matches_dense(monkeypatch):
    from simdist.distortion import compute_hypotheses

    # the annuli and LM(10, 0.3) have nonzero cohomology (h = 1, 2 and 2):
    # the iterative path must keep those kernel directions at zero and still
    # find the gap above them. At k=2, and on two components, the dependent
    # columns of d_{k-1} are spread through the matrix rather than last.
    # a complex keeps its spectrum, so every call gets a fresh complex
    def samples():
        return [
            (complete_complex(8, 1), 0),
            (linial_meshulam(LmParams(9, 0.9, 1, seed=6)), 1),
            (_annulus(10), 1),
            (linial_meshulam(LmParams(10, 0.3, 1, seed=15)), 1),
            (linial_meshulam(LmParams(12, 0.5, 2, seed=1)), 2),
            (linial_meshulam(LmParams(16, 0.5, 2, seed=1)), 2),
            (_two_components(8, 0.6, 1, seed=1), 1),
            (_two_components(7, 0.7, 2, seed=1), 2),
            (_two_annuli(9), 1),
        ]

    dense = [spectrum(x, k) for x, k in samples()]
    flags = [compute_hypotheses(x, k).flags_string() for x, k in samples()]
    assert all(reference.dense for reference in dense)
    assert flags[2] == "1101"
    assert [cohomology_dim(x, k) for x, k in samples()[-7:]] == [1, 2, 0, 0, 0, 0, 2]
    monkeypatch.setattr(cochains_module, "DENSE_EIGENSOLVE_LIMIT", 1)
    monkeypatch.setattr(cochains_module, "GAP_DENSE_LIMIT", 1)
    for (x, k), (y, _), reference, flag in zip(samples(), samples(), dense, flags):
        result = spectrum(x, k)
        assert not result.dense
        assert result.zero_multiplicity == reference.zero_multiplicity
        assert result.lambda_min_nonzero == pytest.approx(
            reference.lambda_min_nonzero, rel=1e-10
        )
        # the hypotheses take the gap-only route, iterative at this limit
        assert compute_hypotheses(y, k).flags_string() == flag
        assert not spectrum(y, k, whole=False).dense


def _wheel(n):
    """A hub joined to a cycle of the other n - 1 vertices, as a 1-complex."""
    rim = n - 1
    return build_complex([tuple(sorted((i, (i + 1) % rim))) for i in range(rim)]
                         + [(i, rim) for i in range(rim)])


@pytest.mark.parametrize("extra", [0, 1])
def test_gap_dense_limit_from_both_sides(extra):
    # n_0 = GAP_DENSE_LIMIT vertices takes the dense solve, one more the
    # block Lanczos; the whole spectrum stays dense at both sizes
    x = _wheel(cochains_module.GAP_DENSE_LIMIT + extra)
    assert x.simplex_count(0) == cochains_module.GAP_DENSE_LIMIT + extra
    gap = spectrum(x, 0, whole=False)
    whole = spectrum(x, 0)
    assert gap.dense == (extra == 0)
    assert (gap is whole) == (extra == 0)  # below the limit one solve serves both
    assert whole.dense
    assert gap.zero_multiplicity == whole.zero_multiplicity == 1
    assert gap.lambda_min_nonzero == pytest.approx(whole.lambda_min_nonzero, rel=1e-10)


def test_iterative_tolerance_mismatch_is_hard_error(monkeypatch):
    from simdist.cochains import SpectralMismatchError

    monkeypatch.setattr(cochains_module, "DENSE_EIGENSOLVE_LIMIT", 1)
    monkeypatch.setattr(cochains_module, "GAP_DENSE_LIMIT", 1)
    for whole in (True, False):
        with pytest.raises(SpectralMismatchError):
            spectrum(complete_complex(8, 1), 0, tolerance=3.0, whole=whole)
    # h = 2 below a tolerance above the gap: three eigenvalues read as zero
    with pytest.raises(SpectralMismatchError, match="3 of 3 eigenvalues below"):
        spectrum(_two_annuli(9), 1, tolerance=3.0, whole=False)


def test_projector_rank_disagreeing_with_exact_rank_is_hard_error(monkeypatch):
    from simdist.cochains import SpectralMismatchError

    exact = cochains_module._coboundary_rank
    monkeypatch.setattr(cochains_module, "DENSE_EIGENSOLVE_LIMIT", 1)
    monkeypatch.setattr(cochains_module, "_coboundary_rank",
                        lambda x, k: exact(x, k) + 1)
    with pytest.raises(SpectralMismatchError, match="pseudo-inverse keeps"):
        spectrum(linial_meshulam(LmParams(9, 0.9, 1, seed=6)), 1)


@pytest.mark.parametrize("limit", [3000, 1])
def test_hypotheses_rank_each_coboundary_once(monkeypatch, limit):
    from simdist.distortion import compute_hypotheses

    calls = []
    ranked = cochains_module._entries_rank
    monkeypatch.setattr(cochains_module, "GAP_DENSE_LIMIT", limit)
    monkeypatch.setattr(cochains_module, "_entries_rank",
                        lambda *entries: calls.append(entries[-1]) or ranked(*entries))
    x = linial_meshulam(LmParams(9, 0.9, 1, seed=6))
    report = compute_hypotheses(x, 1)
    assert report.spectral_zero_multiplicity is not None
    assert spectrum(x, 1, whole=False).dense == (limit == 3000)
    assert len(calls) == 2  # d_1 and d_0


def test_iterative_spectrum_is_deterministic(monkeypatch):
    monkeypatch.setattr(cochains_module, "DENSE_EIGENSOLVE_LIMIT", 100)
    monkeypatch.setattr(cochains_module, "GAP_DENSE_LIMIT", 100)
    # a complex keeps its spectrum, so each call gets a fresh complex
    for whole in (True, False):
        first = spectrum(linial_meshulam(LmParams(20, 0.5, 1, seed=1)), 1, whole=whole)
        second = spectrum(linial_meshulam(LmParams(20, 0.5, 1, seed=1)), 1, whole=whole)
        assert not first.dense
        assert first is not second
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()


def test_spectrum_is_kept_per_tolerance():
    x = complete_complex(6, 2)
    loose, tight = spectrum(x, 1, 1e-6), spectrum(x, 1, 1e-10)
    assert loose is not tight
    assert (loose.tolerance, tight.tolerance) == (1e-6, 1e-10)
    assert spectrum(x, 1, tolerance=1e-6) is loose
    assert np.array_equal(loose.eigenvalues, tight.eigenvalues)
    with pytest.raises(ValueError):
        loose.eigenvalues[0] = 1.0


def test_spectrum_eigenvalue_range():
    samples = [
        (complete_complex(6, 2), 0),
        (complete_complex(6, 2), 1),
        (linial_meshulam(LmParams(8, 0.9, 1, seed=3)), 1),
        (linial_meshulam(LmParams(10, 0.8, 0, seed=4)), 0),
    ]
    for x, k in samples:
        if not x.is_pure:
            continue
        result = spectrum(x, k)
        assert result.eigenvalues[0] >= -1e-9
        assert result.eigenvalues[-1] <= k + 2 + 1e-9


def test_adjointness_and_rayleigh():
    x = linial_meshulam(LmParams(9, 0.85, 1, seed=11))
    assert x.is_pure
    lap = upper_laplacian(x, 1)
    rng = _rng(2)
    for _ in range(20):
        phi = random_cochain(x, 1, rng)
        psi = random_cochain(x, 2, rng)
        lhs = inner_product(x, differential(x, phi), psi)
        rhs = inner_product(x, phi, adjoint_differential(x, psi))
        assert abs(lhs - rhs) <= 1e-10 * (norm(x, phi) * norm(x, psi) + 1.0)
        d_phi = differential(x, phi)
        energy = inner_product(x, d_phi, d_phi)
        rayleigh = float(np.dot(lap.weights_k * lap.apply(phi.values), phi.values))
        assert abs(energy - rayleigh) <= 1e-9 * (abs(energy) + 1.0)


def test_laplacian_psd():
    for x, k in [(complete_complex(6, 2), 1), (complete_complex(7, 1), 0)]:
        eigs = np.linalg.eigvalsh(upper_laplacian(x, k).dense())
        assert eigs.min() >= -1e-9


def test_dense_laplacian_matches_sparse_chain_bytes():
    from pathlib import Path

    from simdist.complexes import load_complex

    golden = sorted((Path(__file__).parent / "golden").glob("*.cplx"))
    complexes = [load_complex(path) for path in golden] + [
        linial_meshulam(LmParams(n, p, k, seed=seed))
        for n, p, k, seed in [(12, 0.6, 1, 1000000), (12, 0.6, 1, 1000003),
                              (7, 0.6, 2, 1000000), (7, 0.6, 2, 1000001),
                              (50, 0.25, 1, 1000000), (9, 0.6, 0, 1),
                              (10, 0.5, 2, 4)]
    ]
    rng = _rng(3)
    checked = 0
    for x in complexes:
        for k in range(x.dim if x.is_pure else 0):  # k=0 of a 2-complex too
            lap = upper_laplacian(x, k)
            mat = differential_matrix(x, k)
            half = sparse.diags(1.0 / np.sqrt(lap.weights_k))
            d = mat.astype(float)
            chain = half @ d.T @ sparse.diags(lap.weights_k1) @ d @ half
            assert lap.dense().tobytes() == chain.toarray().tobytes()
            # the facet-table gather and scatter against the CSR products
            phi = random_cochain(x, k, rng)
            psi = random_cochain(x, k + 1, rng)
            w_lo, w_hi = lap.weights_k, lap.weights_k1
            assert differential(x, phi).values.tobytes() == (mat @ phi.values).tobytes()
            adjoint = (mat.T @ (w_hi * psi.values)) / w_lo
            assert adjoint_differential(x, psi).values.tobytes() == adjoint.tobytes()
            applied = (mat.T @ (w_hi * (mat @ phi.values))) / w_lo
            assert lap.apply(phi.values).tobytes() == applied.tobytes()
            checked += 1
    assert checked >= 15


def test_dd_zero_check_fails_on_a_wrong_sign(monkeypatch):
    from pathlib import Path

    from simdist.complexes import load_complex

    golden = [load_complex(path)
              for path in sorted((Path(__file__).parent / "golden").glob("*.cplx"))]
    assert all(cochains_module._dd_zero(x) for x in golden)
    entries = cochains_module._coboundary_entries

    def wrong_at_degree_1(complex_, k):
        faces, signs = entries(complex_, k)
        if k == 1:
            signs = signs.copy()
            signs[0] = -signs[0]
        return faces, signs

    monkeypatch.setattr(cochains_module, "_coboundary_entries", wrong_at_degree_1)
    checked = [x for x in golden if x.dim >= 2]
    assert len(checked) >= 3
    assert not any(cochains_module._dd_zero(x) for x in checked)


# -- rank and cohomology -------------------------------------------------------


def _fraction_rank(matrix):
    rows = [[Fraction(int(v)) for v in row] for row in np.atleast_2d(matrix)]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 6), st.integers(1, 6))
def test_exact_rank_matches_fraction_oracle(seed, rows, cols):
    rng = _rng(seed)
    matrix = rng.integers(-4, 5, size=(rows, cols))
    assert exact_rank(matrix) == _fraction_rank(matrix)
    assert exact_rank(sparse.csr_matrix(matrix)) == _fraction_rank(matrix)


def test_exact_rank_on_boundary_matrices():
    x = complete_complex(7, 2)
    mat = differential_matrix(x, 1)
    assert exact_rank(mat) == _fraction_rank(mat.toarray())


def _rp2():
    """Six-vertex real projective plane: integer cohomology has 2-torsion."""
    return build_complex([
        (1, 2, 4), (1, 2, 6), (1, 3, 4), (1, 3, 5), (1, 5, 6),
        (2, 3, 5), (2, 3, 6), (2, 4, 5), (3, 4, 6), (4, 5, 6),
    ])


def _torus():
    """Seven-vertex torus."""
    return build_complex(
        [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
        + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)]
    )


def _random_pure_complexes(count, seed):
    """Pure 2-complexes from a few random triangles, without complete skeleta."""
    rng = _rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(5, 9))
        tops = {tuple(sorted(rng.choice(n, 3, replace=False).tolist()))
                for _ in range(int(rng.integers(3, 12)))}
        x = build_complex(tops)
        if x.is_pure:
            out.append(x)
    return out


def _core_entries(x, k):
    """Nonzeros left after the peel of d_k without the star columns of the
    least vertex of each component."""
    labels = cochains_module._components(x.num_vertices, *x.simplex_rows(1).T)[1]
    least = np.zeros(x.num_vertices, dtype=bool)
    least[np.unique(labels, return_index=True)[1]] = True
    kept = ~least[x.simplex_rows(k)[:, 0]]
    entries = cochains_module._integer_entries(differential_matrix(x, k)[:, kept])
    _, rows, _, _ = cochains_module._peel_singletons(*entries)
    return rows.size


def test_coboundary_rank_matches_fraction_oracle():
    cores = 0
    for x in [_rp2(), _torus()] + _random_pure_complexes(60, seed=4):
        for k in range(x.dim):
            mat = differential_matrix(x, k)
            expected = _fraction_rank(mat.toarray())
            assert exact_rank(mat) == expected
            assert cochains_module._coboundary_rank(x, k) == expected
            cores += _core_entries(x, k) > 0
    assert _core_entries(_rp2(), 1) > 0  # the two-prime path on a core runs
    assert cores > 2


def _two_copies(x):
    """The disjoint union of x and x with every vertex moved up by its size."""
    shift = x.num_vertices
    blocks = [x.simplex_rows(d) for d in range(x.dim + 1)]
    return SimplicialComplex.from_rows(*blocks, *(rows + shift for rows in blocks))


def test_coboundary_rank_peels_every_component(monkeypatch):
    # Leaving out only vertex 0's star left the second copy a dense core,
    # 133 x 66 at k=1 and 66 x 12 at k=0; one component's peel leaves none.
    def no_core(matrix, p):
        raise AssertionError(f"ranked a {matrix.shape} core")

    monkeypatch.setattr(cochains_module, "_rank_mod_p", no_core)
    one = linial_meshulam(LmParams(12, 0.6, 1, seed=3))
    two = _two_copies(one)
    assert two.num_vertices == 24 and two.f_vector() == tuple(2 * c for c in one.f_vector())
    for k in (0, 1):
        single = cochains_module._coboundary_rank(one, k)
        assert single == np.linalg.matrix_rank(differential_matrix(one, k).toarray())
        assert cochains_module._coboundary_rank(two, k) == 2 * single
    assert cochains_module._coboundary_rank(two, 0) == 2 * (12 - 1)
    assert cohomology_dim(two, 0) == 1


def test_exact_rank_fraction_fallback(monkeypatch):
    # mod 2 the RP^2 core of d_1 loses rank, so the primes disagree
    fallback = []
    rationals = cochains_module._rank_over_rationals
    monkeypatch.setattr(cochains_module, "_RANK_PRIMES", (2, 2147483647))
    monkeypatch.setattr(cochains_module, "_rank_over_rationals",
                        lambda m: fallback.append(m.shape) or rationals(m))
    x = _rp2()
    assert cochains_module._coboundary_rank(x, 1) == 10
    assert cochains_module._coboundary_rank(x, 1) == _fraction_rank(
        differential_matrix(x, 1).toarray())
    assert fallback == [(5, 5)]


def test_coboundary_rank_matches_dense_two_prime_rank():
    for params in (LmParams(30, 0.35, 1, seed=1), LmParams(9, 0.6, 2, seed=1)):
        x = linial_meshulam(params)
        for k in range(x.dim):
            dense = differential_matrix(x, k).toarray()
            ranks = {cochains_module._rank_mod_p(dense, p)
                     for p in cochains_module._RANK_PRIMES}
            assert ranks == {cochains_module._coboundary_rank(x, k)}


def _dict_loop_differential(x, k):
    """CSR arrays of d_k built one simplex at a time through a dict lookup."""
    index = {s: i for i, s in enumerate(x.simplices(k))}
    indptr, indices, data = [0], [], []
    for s in x.simplices(k + 1):
        entries = sorted((index[s[:i] + s[i + 1:]], (-1) ** i) for i in range(k + 2))
        indices += [col for col, _ in entries]
        data += [sign for _, sign in entries]
        indptr.append(len(indices))
    return indptr, indices, data


def test_differential_matrix_matches_dict_loop_oracle():
    # One 4-simplex spread over about 70,000 vertices. Its facet that starts
    # at vertex 30000 has the mixed-radix code 30000 * N^3 + ... > 2^63, so
    # a face lookup through int64 codes would wrap on d_3.
    spread = (0, 30000, 40000, 60000, 69999)
    others = [v for v in range(70005) if v not in spread]
    wide = build_complex([spread] + list(zip(others[0::2], others[1::2])))
    assert wide.num_vertices ** 4 >= 2**63
    complexes = [
        _rp2(),
        _torus(),
        build_complex([(0, 1, 2), (2, 3), (3, 4, 5, 6), (7,)]),  # not pure
        linial_meshulam(LmParams(12, 0.5, 1, seed=2)),
        linial_meshulam(LmParams(9, 0.6, 2, seed=2)),
        linial_meshulam(LmParams(8, 0.7, 3, seed=2)),
        wide,
    ]
    for x in complexes:
        for k in range(x.dim + 1):
            mat = differential_matrix(x, k)
            indptr, indices, data = _dict_loop_differential(x, k)
            assert mat.data.dtype == np.int64
            assert mat.has_sorted_indices
            assert np.array_equal(mat.indptr, indptr)
            assert np.array_equal(mat.indices, indices)
            assert np.array_equal(mat.data, data)
    assert differential_matrix(wide, 3).shape == (1, 5)


def test_cohomology_dim_never_densifies():
    # d_1 is 110,611 x 11,175 here: a dense int64 copy would take 9.9 GB
    x = linial_meshulam(LmParams(150, 0.2, 1, seed=1))
    tracemalloc.start()
    try:
        dim = cohomology_dim(x, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dim == 0
    assert peak < 200 * 2**20


def test_cohomology_complete_complex_vanishes():
    x = complete_complex(6, 3)
    for k in range(1, 3):
        assert cohomology_dim(x, k) == 0


def test_cohomology_reduced_degree_zero():
    cycle = build_complex([(0, 1), (1, 2), (0, 2)])
    assert cohomology_dim(cycle, 0) == 0  # connected
    two = build_complex([(0, 1, 2), (3, 4, 5)])
    assert cohomology_dim(two, 0) == 1  # two components


def test_cohomology_circle_has_loop():
    cycle = build_complex([(0, 1), (1, 2), (0, 2)])
    assert cohomology_dim(cycle, 1) == 1


def test_cohomology_matches_rank_oracle():
    x = linial_meshulam(LmParams(8, 0.5, 1, seed=9))
    mat_up = differential_matrix(x, 1).toarray()
    ker = mat_up.shape[1] - _fraction_rank(mat_up)
    img = _fraction_rank(differential_matrix(x, 0).toarray())
    assert cohomology_dim(x, 1) == ker - img


def test_cochain_json_roundtrip():
    x = build_complex([(0, 1, 2)])
    phi = Cochain(x, 1, np.array([0.5, -1.25, 3.0]))
    data = phi.to_dict()
    assert data["values"]["0->1"] == 0.5
    psi = Cochain.from_dict(x, data)
    assert np.array_equal(phi.values, psi.values)


def test_degree_bounds():
    x = build_complex([(0, 1, 2)])
    with pytest.raises(DegreeError):
        differential(x, Cochain.zeros(x, 2))
    with pytest.raises(DegreeError):
        upper_laplacian(x, 2)
    with pytest.raises(DegreeError):
        cohomology_dim(x, 3)
