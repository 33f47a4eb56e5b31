import math
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simdist.complexes import (
    ComplexError,
    InvalidSimplexError,
    MissingSimplexError,
    NotPureError,
    SimplicialComplex,
    build_complex,
    complete_complex,
    load_complex,
    save_complex_json,
    save_complex_text,
)
from simdist.random_complexes import LmParams, linial_meshulam
from test_random_complexes import LM_GRID, philox_tops


def test_single_triangle_closure():
    x = build_complex([(0, 1, 2)])
    assert x.f_vector() == (3, 3, 1)
    assert x.dim == 2
    assert x.is_pure


def test_path_graph():
    x = build_complex([(0, 1), (1, 2)])
    assert x.dim == 1
    assert x.simplex_count(0) == 3
    assert x.simplex_count(1) == 2


def test_non_pure_detected():
    x = build_complex([(0, 1, 2), (2, 3)])
    assert not x.is_pure
    with pytest.raises(NotPureError):
        x.weight((2, 3))


def test_build_rejects_bad_input():
    with pytest.raises(ComplexError):
        build_complex([])
    with pytest.raises(InvalidSimplexError):
        build_complex([(0, 0, 1)])


def test_build_error_texts():
    cases = [
        ([(0, 1), ()], "empty simplex"),
        ([(0, 1), [3, 1, 3]], "repeated vertex in simplex [3, 1, 3]"),
        ([(5, 2, 5), (1, 1)], "repeated vertex in simplex (5, 2, 5)"),
        # the first invalid simplex is reported, whatever comes after it
        ([(0, 1), (), (2, 2)], "empty simplex"),
        ([(2, 2), (0, "x")], "repeated vertex in simplex (2, 2)"),
        ([(1, 2), (0, 3, 0), (4, 4)], "repeated vertex in simplex (0, 3, 0)"),
        ([(0, 2**63), (2, 2)], "repeated vertex in simplex (2, 2)"),
        ([(0, 2**63)], "vertex label 9223372036854775808 outside the int64 range"),
        ([(-(2**63) - 1, 4)], "vertex label -9223372036854775809 outside the int64 range"),
    ]
    for simplices, message in cases:
        with pytest.raises(ComplexError) as info:
            build_complex(simplices)
        assert str(info.value) == message
    with pytest.raises(ValueError, match="invalid literal"):
        build_complex([(0, 1), (0, "x"), (2, 2)])
    assert build_complex([(2**63 - 1, -(2**63))]).labels == (-(2**63), 2**63 - 1)
    with pytest.raises(InvalidSimplexError, match=r"repeated vertex in simplex \[4, 4, 5\]"):
        SimplicialComplex.from_rows(np.array([[0, 1], [2, 3]]), np.array([[4, 4, 5]]))


def _closure_oracle(generating):
    """The set-based build the array build replaced: canonical tuples,
    dense relabeling, and per-level sets closed downward one level at a
    time. Returns the labels, the sorted levels, the facet tables, the
    coface lists and the weights by the coface recursion."""
    generating = [tuple(sorted(map(int, s))) for s in generating]
    labels = sorted({v for s in generating for v in s})
    ids = {lab: i for i, lab in enumerate(labels)}
    generating = [tuple(ids[v] for v in s) for s in generating]
    dim = max(len(s) for s in generating) - 1
    per_dim = [set() for _ in range(dim + 1)]
    for s in generating:
        per_dim[len(s) - 1].add(s)
    for k in range(dim, 0, -1):
        per_dim[k - 1].update(chain.from_iterable(combinations(s, k) for s in per_dim[k]))
    levels = [sorted(level) for level in per_dim]
    index = [{s: i for i, s in enumerate(level)} for level in levels]
    facets = [None] + [
        [[index[k - 1][s[:j] + s[j + 1:]] for j in range(k + 1)] for s in levels[k]]
        for k in range(1, dim + 1)
    ]
    cofaces = [[[] for _ in level] for level in levels]
    for k in range(1, dim + 1):
        for i, row in enumerate(facets[k]):
            for face in row:
                cofaces[k - 1][face].append(i)
    weights = [None] * (dim + 1)
    weights[dim] = [1] * len(levels[dim])
    for k in range(dim - 1, -1, -1):
        weights[k] = [sum(weights[k + 1][c] for c in up) for up in cofaces[k]]
    return tuple(labels), levels, facets, cofaces, weights


def _assert_matches_oracle(x, generating):
    labels, levels, facets, cofaces, weights = _closure_oracle(generating)
    assert x.labels == labels
    assert x.dim == len(levels) - 1
    assert x.f_vector() == tuple(map(len, levels))
    for k, level in enumerate(levels):
        assert x.simplex_rows(k).tolist() == [list(s) for s in level]
        assert x.simplices(k) == level
        if k:
            assert x.facet_table(k).tolist() == facets[k]
        indptr, indices = x.coface_csr(k)
        assert [indices[a:b].tolist() for a, b in zip(indptr, indptr[1:])] == cofaces[k]
    assert x.is_pure == all(w > 0 for level in weights for w in level)
    assert x._level_weights() == weights
    if x.is_pure:
        assert [x.weights_of_dim(k) for k in range(x.dim + 1)] == weights


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.lists(st.sampled_from([-(2**62), -7, -3, 0, 2, 5, 9, 10, 41, 2**40]),
             min_size=1, max_size=5, unique=True),
    min_size=1, max_size=14,
))
def test_build_matches_set_closure_oracle(simplices):
    """Duplicates, faces listed beside their cofaces, mixed sizes, non-pure
    inputs and arbitrary labels, in any order."""
    simplices = simplices + simplices[: len(simplices) // 3]  # some twice
    _assert_matches_oracle(build_complex(simplices), simplices)
    blocks = {}
    for s in simplices:
        blocks.setdefault(len(s), []).append(s)
    from_rows = SimplicialComplex.from_rows(*map(np.array, blocks.values()))
    _assert_matches_oracle(from_rows, simplices)


def test_lm_build_matches_set_closure_oracle():
    # The tops come straight from the Philox stream, not from the sampler.
    for params in LM_GRID + [LmParams(9, 0.4, 1, 3), LmParams(7, 0.5, 2, 1)]:
        n, k = params.num_vertices, params.k
        if n > 12:
            continue  # N=80 is left to the generic-build comparison
        generating = list(combinations(range(n), k + 1))
        generating += list(map(tuple, philox_tops(params).tolist()))
        _assert_matches_oracle(linial_meshulam(params), generating)


def test_redundant_entries_absorbed():
    x = build_complex([(0, 1, 2), (0, 1)])
    assert x.f_vector() == (3, 3, 1)
    assert x.maximal_simplices() == [(0, 1, 2)]


def test_complete_graph_vertex_weight():
    for n in (3, 5, 8):
        kn = complete_complex(n, 1)
        for v in range(n):
            assert kn.weight((v,)) == n - 1


def test_single_simplex_face_weights():
    n = 3
    x = build_complex([tuple(range(n + 1))])
    for k in range(n + 1):
        for face in combinations(range(n + 1), k + 1):
            assert x.weight(face) == math.factorial(n - k)


def test_weight_not_in_complex():
    x = build_complex([(0, 1, 2)])
    with pytest.raises(MissingSimplexError):
        x.weight((0, 3))


def _weight_total_holds(x):
    n = x.dim
    top = x.simplex_count(n)
    for k in range(n + 1):
        total = sum(x.weights_of_dim(k))
        assert total == math.factorial(n + 1) // math.factorial(k + 1) * top


def test_weight_total_identity_examples():
    _weight_total_holds(build_complex([(0, 1, 2)]))
    _weight_total_holds(complete_complex(6, 2))
    _weight_total_holds(build_complex([(0, 1, 2, 3), (2, 3, 4, 5), (0, 3, 4, 5)]))


@settings(max_examples=25, deadline=None)
@given(st.lists(
    st.frozensets(st.integers(0, 9), min_size=3, max_size=4),
    min_size=1, max_size=6,
))
def test_weight_total_identity_random(maximal):
    x = build_complex([tuple(sorted(s)) for s in maximal])
    if x.is_pure:
        _weight_total_holds(x)
    else:
        with pytest.raises(NotPureError):
            x.weights_of_dim(0)


def test_downward_closure():
    x = build_complex([(0, 2, 5, 7), (1, 2, 5)])
    for k in range(1, x.dim + 1):
        for s in x.simplices(k):
            for facet in combinations(s, k):
                assert x.contains(facet)


@settings(max_examples=20, deadline=None)
@given(st.permutations(list(range(6))))
def test_relabeling_preserves_weight_multisets(perm):
    maximal = [(0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5)]
    x = build_complex(maximal)
    y = build_complex([tuple(perm[v] for v in s) for s in maximal])
    assert x.f_vector() == y.f_vector()
    for k in range(x.dim + 1):
        assert sorted(x.weights_of_dim(k)) == sorted(y.weights_of_dim(k))


def test_link_of_vertex_in_triangle():
    x = build_complex([(0, 1, 2)])
    lk = x.link((0,))
    assert lk.f_vector() == (2, 1)
    assert lk.labels == (1, 2)


def test_link_of_empty_simplex_is_complex():
    x = build_complex([(0, 1, 2)])
    assert x.link(()) is x


def test_link_of_shared_edge():
    x = build_complex([(0, 1, 2), (1, 2, 3)])
    lk = x.link((1, 2))
    assert lk.dim == 0
    assert lk.simplex_count(0) == 2
    assert lk.labels == (0, 3)


def test_link_of_maximal_simplex_is_empty():
    x = build_complex([(0, 1, 2)])
    lk = x.link((0, 1, 2))
    assert lk.dim == -1
    assert lk.num_vertices == 0


def test_link_missing_simplex():
    x = build_complex([(0, 1, 2)])
    with pytest.raises(MissingSimplexError):
        x.link((0, 4))


def test_link_downward_closed_and_dim_bound():
    x = build_complex([(0, 1, 2, 3), (1, 2, 3, 4), (3, 4, 5)])
    for k in range(x.dim + 1):
        for tau in x.simplices(k):
            lk = x.link(tau)
            assert lk.dim <= x.dim - len(tau)
            for j in range(1, lk.dim + 1):
                for s in lk.simplices(j):
                    for facet in combinations(s, j):
                        assert lk.contains(facet)


def test_dense_relabeling_keeps_labels():
    x = build_complex([(10, 20), (20, 77)])
    assert x.labels == (10, 20, 77)
    assert x.from_labels((10, 20)) == (0, 1)
    assert x.to_labels((0, 1)) == (10, 20)


def test_text_roundtrip(tmp_path):
    x = build_complex([(0, 1, 2), (2, 3)])
    path = tmp_path / "complex.txt"
    save_complex_text(x, path)
    y = load_complex(path)
    assert y.f_vector() == x.f_vector()
    assert [y.to_labels(s) for s in y.maximal_simplices()] == [
        x.to_labels(s) for s in x.maximal_simplices()
    ]


def test_text_comments_and_errors(tmp_path):
    path = tmp_path / "complex.txt"
    path.write_text("# a comment\n0 1 2\n\n2 3\n")
    x = load_complex(path)
    assert x.f_vector() == (4, 4, 1)
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1 oops\n")
    with pytest.raises(ComplexError):
        load_complex(bad)


def test_load_error_texts(tmp_path):
    cases = [
        ("# header\n\n0 1 2\n1 2 x\n", "line 4: expected integer vertex ids"),
        ("0 1 2\n  # indented comment\n0.5 1\n", "line 3: expected integer vertex ids"),
        # parse errors come first, wherever the bad simplex is
        ("3 1 3\n0 x\n", "line 2: expected integer vertex ids"),
        ("0 1 2\n2 3\n3 1 3\n4 4\n", "repeated vertex in simplex [3, 1, 3]"),
        ("0 1\n9223372036854775808 1\n",
         "vertex label 9223372036854775808 outside the int64 range"),
        ('{"maximal": [[0, 1], [], [2, 2]]}', "empty simplex"),
        ('{"maximal": [[0, 1, 2], [5, 4, 5]]}', "repeated vertex in simplex [5, 4, 5]"),
        # JSON labels are integers, as text labels are: no float, bool, string or null
        ('{"maximal": [[0, 1], [1, 2.5]]}',
         "simplex [1, 2.5]: expected a list of integer vertex ids"),
        ('{"maximal": [[0, 1], [true, 2]]}',
         "simplex [true, 2]: expected a list of integer vertex ids"),
        ('{"maximal": [["0", 1]]}', 'simplex ["0", 1]: expected a list of integer vertex ids'),
        ('{"maximal": [[0, null]]}', "simplex [0, null]: expected a list of integer vertex ids"),
        ('{"maximal": [[0, [1]]]}', "simplex [0, [1]]: expected a list of integer vertex ids"),
        ('{"maximal": [[0, 1], 2]}', "simplex 2: expected a list of integer vertex ids"),
        ('{"maximal": 5}', "JSON 'maximal' must be a list of simplices"),
    ]
    path = tmp_path / "bad.cplx"
    for text, message in cases:
        path.write_text(text)
        with pytest.raises(ComplexError) as info:
            load_complex(path)
        assert str(info.value) == message
    for text in ("# only a comment\n\n", '{"maximal": []}'):
        path.write_text(text)
        with pytest.raises(ComplexError) as info:
            load_complex(path)
        assert str(info.value) == f"no simplices found in {path}"


def test_json_roundtrip(tmp_path):
    x = build_complex([(5, 6, 7), (7, 8)])
    path = tmp_path / "complex.json"
    save_complex_json(x, path)
    y = load_complex(path)
    assert y.f_vector() == x.f_vector()
    assert y.labels == x.labels
