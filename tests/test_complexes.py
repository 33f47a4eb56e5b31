import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simdist.complexes import (
    ComplexError,
    InvalidSimplexError,
    MissingSimplexError,
    NotPureError,
    build_complex,
    complete_complex,
    load_complex,
    save_complex_json,
    save_complex_text,
)


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


def test_json_roundtrip(tmp_path):
    x = build_complex([(5, 6, 7), (7, 8)])
    path = tmp_path / "complex.json"
    save_complex_json(x, path)
    y = load_complex(path)
    assert y.f_vector() == x.f_vector()
    assert y.labels == x.labels
