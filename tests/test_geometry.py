import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simdist.complexes import InvalidSimplexError, complete_complex, sort_with_sign
from simdist.geometry import (
    BoundaryMismatchError,
    Embedding,
    EnumerationLimitError,
    GeometryError,
    NotClosedError,
    OrientedBoundary,
    chain_boundary,
    enclosed_projection_volume,
    moment_integral,
    multi_indices,
    signed_projected_volume,
    simplex_boundary_oriented,
    simplex_boundary_projection_volumes,
    simplex_volume,
    stokes_check,
)


def _rng(seed=0):
    return np.random.Generator(np.random.Philox(key=seed))


def make_bipyramid(k):
    """Boundary and filling of a double cone over a k-simplex on labels
    0..k (base) and k+1, k+2 (apexes)."""
    base = tuple(range(k + 1))
    chain = [(base + (k + 1,), 1), (base + (k + 2,), -1)]
    return OrientedBoundary.from_chain(chain), chain


# -- oriented boundaries ---------------------------------------------------------


def test_triangle_boundary_signs():
    boundary = simplex_boundary_oriented((0, 1, 2))
    assert dict(boundary.faces) == {(1, 2): 1, (0, 2): -1, (0, 1): 1}


def test_boundary_closedness():
    for k in (1, 2, 3):
        boundary = simplex_boundary_oriented(tuple(range(k + 2)))
        assert boundary.is_closed()


def test_swap_flips_every_sign():
    plain = dict(simplex_boundary_oriented((0, 1, 2, 3)).faces)
    swapped = dict(simplex_boundary_oriented((1, 0, 2, 3)).faces)
    assert set(plain) == set(swapped)
    for face, sign in plain.items():
        assert swapped[face] == -sign


def test_boundary_rejects_duplicates_and_open_chains():
    with pytest.raises(InvalidSimplexError):
        simplex_boundary_oriented((0, 1, 1))
    with pytest.raises(NotClosedError):
        OrientedBoundary(0, [((0,), 1), ((1,), 1)])  # signs do not cancel


def test_chain_boundary_cancels_interior():
    chain = [((0, 1, 2), 1), ((0, 2, 3), 1)]
    boundary = chain_boundary(chain)
    assert (0, 2) not in boundary
    assert boundary == {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): -1}


# -- moment integrals ------------------------------------------------------------


def test_moment_segment_examples():
    seg_x = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert moment_integral(seg_x, (0, 1)) == 0.0  # dx2 along a horizontal step
    seg_y = np.array([[0.0, 0.0], [0.0, 1.0]])
    assert moment_integral(seg_y, (0, 1)) == 0.0  # mean x1 vanishes
    with pytest.raises(GeometryError):
        moment_integral(seg_y, (1, 0))  # indices must increase


def test_moment_point_is_coordinate():
    pt = np.array([[2.5, -1.0, 4.0]])
    assert moment_integral(pt, (2,)) == 4.0


def monte_carlo_moment(points, index, samples, seed):
    """Independent estimate: uniform barycentric sampling for the affine
    average of the coordinate factor, times the exact projected volume."""
    pts = np.asarray(points, dtype=float)
    k = pts.shape[0] - 1
    rng = _rng(seed)
    bary = rng.dirichlet(np.ones(k + 1), size=samples)
    values = bary @ pts[:, index[0]]
    if k == 0:
        det = 1.0
    else:
        det = np.linalg.det((pts[1:] - pts[0])[:, list(index[1:])])
    return float(values.mean()) * det / math.factorial(k)


def test_moment_against_monte_carlo():
    rng = _rng(42)
    for trial in range(6):
        k = 1 + trial % 2
        m = 3 + trial % 3
        pts = rng.standard_normal((k + 1, m))
        for idx in list(multi_indices(m, k + 1))[:4]:
            exact = moment_integral(pts, idx)
            estimate = monte_carlo_moment(pts, idx, 200_000, seed=trial)
            assert abs(exact - estimate) <= 2e-2 * (abs(exact) + 1e-2)


def test_multi_index_guard():
    with pytest.raises(EnumerationLimitError):
        list(multi_indices(17, 2))
    with pytest.raises(EnumerationLimitError):
        list(multi_indices(8, 5))


# -- enclosed projection volume ---------------------------------------------------


def test_point_pair_distance():
    boundary = simplex_boundary_oriented((0, 1))
    embedding = Embedding(np.array([[1.0, 2.0, 2.0], [4.0, 6.0, 2.0]]))
    assert enclosed_projection_volume(boundary, embedding) == pytest.approx(5.0)


def test_flat_right_triangle_area():
    boundary = simplex_boundary_oriented((0, 1, 2))
    embedding = Embedding(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert enclosed_projection_volume(boundary, embedding) == pytest.approx(0.5)


def test_two_triangles_dihedral_law():
    # quadrilateral 0-1-2-3 folded along the diagonal 0-2; both halves are
    # unit right triangles. The squared volume follows
    # A^2 + A^2 + 2 A^2 cos(fold angle); at a right-angle dihedral the cross
    # term is gone, giving sqrt(A1^2 + A2^2) = sqrt(1/2).
    chain = [((0, 1, 2), 1), ((0, 2, 3), 1)]
    boundary = OrientedBoundary.from_chain(chain)
    for fold in (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi * 0.999):
        pts = np.array(
            [
                [0.0, 0.0, 0.0],
                [1.0, 0.0, 0.0],
                [0.0, 1.0, 0.0],
                [-math.cos(fold), 0.0, math.sin(fold)],
            ]
        )
        value = enclosed_projection_volume(boundary, Embedding(pts))
        expected = math.sqrt(0.25 + 0.25 + 2 * 0.25 * math.cos(fold))
        assert value == pytest.approx(expected, abs=1e-12)
    right_angle = np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    )
    assert enclosed_projection_volume(
        boundary, Embedding(right_angle)
    ) == pytest.approx(math.sqrt(0.5), abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 3), st.integers(0, 2))
def test_translation_invariance(seed, extra_dims, k):
    rng = _rng(seed)
    m = k + 1 + extra_dims
    pts = rng.standard_normal((k + 3, m))
    boundary, _ = make_bipyramid(k)
    base = enclosed_projection_volume(boundary, Embedding(pts))
    shifted = enclosed_projection_volume(
        boundary, Embedding(pts + rng.standard_normal(m))
    )
    assert shifted == pytest.approx(base, abs=1e-9 * (base + 1))


def test_coordinate_permutation_invariance():
    rng = _rng(5)
    pts = rng.standard_normal((4, 5))
    boundary = simplex_boundary_oriented((0, 1, 2, 3))
    base = enclosed_projection_volume(boundary, Embedding(pts))
    for perm in [(4, 0, 1, 2, 3), (1, 0, 3, 2, 4)]:
        value = enclosed_projection_volume(boundary, Embedding(pts[:, list(perm)]))
        assert value == pytest.approx(base, rel=1e-12)


def test_orientation_reversal_invariance():
    rng = _rng(6)
    pts = rng.standard_normal((4, 4))
    forward = simplex_boundary_oriented((0, 1, 2, 3))
    backward = simplex_boundary_oriented((1, 0, 2, 3))
    emb = Embedding(pts)
    assert enclosed_projection_volume(forward, emb) == pytest.approx(
        enclosed_projection_volume(backward, emb), rel=1e-12
    )


def test_batch_matches_scalar():
    rng = _rng(9)
    pts = rng.standard_normal((8, 5))
    for k in (0, 1, 2):
        vsets = np.array(list(combinations(range(8), k + 2))[:20])
        batch = simplex_boundary_projection_volumes(vsets, pts)
        for row, value in zip(vsets, batch):
            scalar = enclosed_projection_volume(
                simplex_boundary_oriented(tuple(row)), Embedding(pts)
            )
            assert value == pytest.approx(scalar, abs=1e-12 * (1 + scalar))


def _per_member_volumes(vertex_sets, points):
    """The volume kernel as it was before faces were shared: every member
    recomputes the means and determinants of its own faces."""
    vsets = np.asarray(vertex_sets, dtype=np.int64)
    n_members, width = vsets.shape
    k = width - 2
    pts = np.asarray(points, dtype=float)
    m = pts.shape[1]
    signs = np.array([1 if i % 2 == 0 else -1 for i in range(width)], dtype=float)
    keep = [[j for j in range(width) if j != i] for i in range(width)]
    face_vertices = np.stack([vsets[:, cols] for cols in keep], axis=1)
    face_pts = pts[face_vertices]  # (M, k+2, k+1, m)
    means = face_pts.mean(axis=2)  # (M, k+2, m)
    if k > 0:
        edges = face_pts[:, :, 1:, :] - face_pts[:, :, :1, :]  # (M, k+2, k, m)
    fact = float(math.factorial(k))
    total = np.zeros(n_members)
    for idx in multi_indices(m, k + 1):
        if k == 0:
            dets = np.ones((n_members, width))
        else:
            dets = np.linalg.det(edges[:, :, :, list(idx[1:])])
        contrib = (signs * means[:, :, idx[0]] * dets).sum(axis=1) / fact
        total += contrib * contrib
    return np.sqrt(total)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_shared_face_kernel_is_bitwise_per_member_kernel(k):
    """Same operations on the same operands: the bits agree, with faces
    shared from a complex's rows or found among the members."""
    rng = _rng(40 + k)
    for n in sorted({k + 2, 7, 12}):
        x = complete_complex(n, k + 1)
        members = x.simplex_rows(k + 1)
        faces = (x.simplex_rows(k), x.facet_table(k + 1))
        for m in sorted({k + 1, 4, 6}):
            for scale in (1e-3, 1.0, 1e3):
                pts = scale * rng.standard_normal((n, m))
                expected = _per_member_volumes(members, pts).tobytes()
                shared = simplex_boundary_projection_volumes(members, pts, faces=faces)
                assert shared.tobytes() == expected
                subset = members[rng.permutation(len(members))[: max(1, len(members) // 3)]]
                found = simplex_boundary_projection_volumes(subset, pts)
                assert found.tobytes() == _per_member_volumes(subset, pts).tobytes()


# -- simplex volumes ---------------------------------------------------------------


def test_simplex_volume_examples():
    assert simplex_volume(np.array([[0.0], [1.0]])) == 1.0
    assert simplex_volume(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])) == 0.5
    collinear = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
    assert simplex_volume(collinear) == pytest.approx(0.0, abs=1e-9)


def test_affine_boundary_volume_bridge():
    rng = _rng(11)
    for k in (0, 1, 2):
        for _ in range(10):
            pts = rng.standard_normal((k + 2, k + 3))
            boundary = simplex_boundary_oriented(tuple(range(k + 2)))
            vol = simplex_volume(pts)
            env = enclosed_projection_volume(boundary, Embedding(pts))
            assert env == pytest.approx(vol, rel=1e-9)


def test_flat_filling_equality_and_projection_inequality():
    rng = _rng(13)
    for k in (1, 2):
        boundary, chain = make_bipyramid(k)
        # genuine flat tiling: apexes on opposite sides of the base
        # hyperplane inside the flat, then an affine lift
        flat = rng.standard_normal((k + 3, k + 1))
        flat[:, -1] = 0.0
        flat[k + 1, -1] = 1.0
        flat[k + 2, -1] = -1.0
        lift = rng.standard_normal((k + 1, k + 4))
        offset = rng.standard_normal(k + 4)
        flat_pts = flat @ lift + offset  # image inside a (k+1)-flat
        piece_sum = sum(
            abs(coeff) * simplex_volume(flat_pts[list(cell)])
            for cell, coeff in chain
        )
        env = enclosed_projection_volume(boundary, Embedding(flat_pts))
        assert env == pytest.approx(piece_sum, rel=1e-9)

        bent = rng.standard_normal((k + 3, k + 4))
        piece_sum = sum(
            abs(coeff) * simplex_volume(bent[list(cell)]) for cell, coeff in chain
        )
        env = enclosed_projection_volume(boundary, Embedding(bent))
        assert piece_sum >= env - 1e-9 * (piece_sum + 1)


# -- Stokes ------------------------------------------------------------------------


def test_stokes_single_simplex():
    rng = _rng(17)
    for k in (0, 1, 2):
        sigma = tuple(range(k + 2))
        boundary = simplex_boundary_oriented(sigma)
        pts = rng.standard_normal((k + 2, k + 3))
        assert stokes_check(boundary, [(sigma, 1)], Embedding(pts)) <= 1e-9


def test_stokes_bipyramid():
    rng = _rng(19)
    for k in (1, 2):
        boundary, chain = make_bipyramid(k)
        pts = rng.standard_normal((k + 3, min(k + 4, 6)))
        assert stokes_check(boundary, chain, Embedding(pts)) <= 1e-9


def test_stokes_mismatch_raises_and_flags():
    boundary, chain = make_bipyramid(1)
    wrong = [(chain[0][0], 1), (chain[1][0], 1)]  # second sign flipped
    pts = _rng(23).standard_normal((4, 3))
    with pytest.raises(BoundaryMismatchError):
        stokes_check(boundary, wrong, Embedding(pts))
    residual = stokes_check(
        boundary, wrong, Embedding(pts), check_boundary=False
    )
    assert residual > 1e-6
    assert residual == _per_index_stokes(boundary, wrong, Embedding(pts))


def test_stokes_residual_keeps_nan():
    # a NaN coordinate gives a NaN residual, which no tolerance accepts, not 0.0
    pts = np.zeros((3, 3))
    pts[1, 0] = np.nan
    with np.errstate(invalid="ignore"):
        residual = stokes_check(simplex_boundary_oriented((0, 1, 2)), [((0, 1, 2), 1)],
                                Embedding(pts))
    assert math.isnan(residual)


def _per_index_stokes(boundary, filling, embedding):
    """The Stokes residual one multi-index at a time from the scalar
    references, summed over faces and cells left to right."""
    worst = 0.0
    for idx in multi_indices(embedding.ambient_dim, boundary.k + 1):
        from_boundary = from_filling = 0.0
        for s, sign in boundary.faces:
            from_boundary += sign * moment_integral(embedding.coords(s), idx)
        for s, coeff in filling:
            canonical, perm = sort_with_sign(s)
            from_filling += coeff * perm * signed_projected_volume(
                embedding.coords(canonical), idx)
        worst = max(worst, abs(from_boundary - from_filling))
    return worst


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_stokes_is_bitwise_per_index_reference(k):
    """All multi-indices at once give the bits of the scalar loop: single
    simplices in shuffled vertex order and bipyramids, at several scales."""
    rng = _rng(29 + k)
    for m in range(1, 7):
        for scale in (1e-3, 1.0, 1e3):
            pts = scale * rng.standard_normal((k + 4, m))
            sigma = tuple(int(v) for v in rng.permutation(k + 4)[:k + 2])
            fillings = [(simplex_boundary_oriented(sigma), [(sigma, 1)])]
            if k > 0:
                fillings.append(make_bipyramid(k))
            for boundary, chain in fillings:
                expected = _per_index_stokes(boundary, chain, Embedding(pts))
                found = stokes_check(boundary, chain, Embedding(pts))
                assert np.float64(found).tobytes() == np.float64(expected).tobytes()


# -- embedding I/O -----------------------------------------------------------------


def test_embedding_csv_roundtrip(tmp_path):
    emb = Embedding(np.array([[0.5, -1.25], [3.0, 2.0], [1.0, 1.0]]))
    path = tmp_path / "emb.csv"
    emb.to_csv(path)
    back = Embedding.from_csv(path)
    assert np.array_equal(back.points, emb.points)


def test_embedding_csv_with_complex_labels(tmp_path):
    from simdist.complexes import build_complex

    x = build_complex([(10, 30), (30, 20)])
    emb = Embedding(np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]))
    path = tmp_path / "emb.csv"
    emb.to_csv(path, labels=x.labels)
    back = Embedding.from_csv(path, x)
    assert np.array_equal(back.points, emb.points)


def test_embedding_json_roundtrip(tmp_path):
    emb = Embedding(np.array([[0.5, -1.25], [3.0, 2.0]]))
    path = tmp_path / "emb.json"
    emb.to_json(path)
    back = Embedding.from_json(path)
    assert np.array_equal(back.points, emb.points)


def test_embedding_missing_vertex(tmp_path):
    from simdist.complexes import build_complex

    path = tmp_path / "emb.csv"
    path.write_text("vertex,x1\n0,1.0\n")
    x = build_complex([(0, 1)])
    with pytest.raises(GeometryError):
        Embedding.from_csv(path, x)


def test_embedding_files_reject_repeats_and_malformed_points(tmp_path):
    cases = [
        ("vertex,x1\n0,1.0\n1,2.0\n0,3.0\n", "vertex 0 listed twice in embedding file"),
        ("vertex,x1\n0,1.0\n1,one\n", "vertex 1: expected numeric coordinates"),
        ('{"points": {"0": [1.0], "1": [2.0], "1": [3.0]}}',
         "vertex 1 listed twice in embedding file"),
        ('{"m": 1}', "embedding JSON needs a 'points' object"),
        ('{"m": 1, "points": [[1.0]]}', "embedding JSON needs a 'points' object"),
        ('{"points": {"0": [1.0], "1": 2.0}}', "vertex 1: expected a list of coordinates"),
        ('{"points": {"0": {"x": 1.0}}}', "vertex 0: expected a list of coordinates"),
        ('{"points": {"0": [null]}}', "vertex 0: expected numeric coordinates"),
    ]
    for text, message in cases:
        path = tmp_path / ("emb.json" if text.startswith("{") else "emb.csv")
        path.write_text(text)
        read = Embedding.from_json if path.suffix == ".json" else Embedding.from_csv
        with pytest.raises(GeometryError) as info:
            read(path)
        assert str(info.value) == message
