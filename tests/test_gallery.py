import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

import simdist.gallery as gallery_module
from simdist.complexes import DegreeError, build_complex, complete_complex
from simdist.gallery import (
    GalleryGraph,
    UnfillableError,
    fill_number,
    gallery_ball_sizes,
    gallery_distance,
    gallery_distances_from,
    gallery_link_report,
    is_gallery_connected,
)
from simdist.random_complexes import LmParams, linial_meshulam
from test_cochains import _annulus

INF = math.inf


# -- independent brute-force oracle -------------------------------------------


def node_adjacency(nodes):
    """Two (k+1)-simplices are adjacent iff they share k+1 vertices."""
    sets = [set(s) for s in nodes]
    return [
        [w for w, t in enumerate(sets) if w != v and len(s & t) == len(s) - 1]
        for v, s in enumerate(sets)
    ]


def node_star(nodes, face):
    """Indices of the (k+1)-simplices containing `face`."""
    return {i for i, s in enumerate(nodes) if set(face) <= set(s)}


def brute_force_fill(complex_, faces):
    """Subset enumeration by increasing size; None when unfillable."""
    nodes = complex_.simplices(len(next(iter(faces))))
    adjacency = node_adjacency(nodes)
    stars = [node_star(nodes, f) for f in faces]
    pairs = list(combinations(range(len(stars)), 2))

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
    for size in range(1, len(nodes) + 1):
        for subset in combinations(range(len(nodes)), size):
            if connects(subset):
                return size
    return None


def connects_every_pair(graph, faces, witness):
    """True iff every pair of stars is joined inside the witness alone."""
    adjacency = node_adjacency(graph.nodes)
    node_index = {s: i for i, s in enumerate(graph.nodes)}
    chosen = {node_index[s] for s in witness}
    for fa, fb in combinations(faces, 2):
        sa = node_star(graph.nodes, fa) & chosen
        sb = node_star(graph.nodes, fb) & chosen
        reached = set(sa)
        frontier = list(sa)
        while frontier:
            nxt = []
            for v in frontier:
                for w in adjacency[v]:
                    if w in chosen and w not in reached:
                        reached.add(w)
                        nxt.append(w)
            frontier = nxt
        if not reached & sb:
            return False
    return True


def gallery_connected_oracle(complex_, k):
    """Some (k+1)-simplex, every k-simplex in one, and one node component."""
    nodes = complex_.simplices(k + 1)
    if not nodes or any(not node_star(nodes, f) for f in complex_.simplices(k)):
        return False
    adjacency = node_adjacency(nodes)
    reached, frontier = {0}, [0]
    while frontier:
        frontier = [w for v in frontier for w in adjacency[v] if w not in reached]
        reached.update(frontier)
    return len(reached) == len(nodes)


def bfs_graph_distance(complex_, u, v):
    """Plain BFS on the 1-skeleton, independent of the gallery machinery."""
    adjacency = {w: set() for (w,) in complex_.simplices(0)}
    for a, b in complex_.simplices(1):
        adjacency[a].add(b)
        adjacency[b].add(a)
    dist = {u: 0}
    frontier = [u]
    while frontier:
        nxt = []
        for w in frontier:
            for z in adjacency[w]:
                if z not in dist:
                    dist[z] = dist[w] + 1
                    nxt.append(z)
        frontier = nxt
    return dist.get(v, INF)


# -- distances -----------------------------------------------------------------


def test_path_graph_distance():
    x = build_complex([(0, 1), (1, 2)])
    assert gallery_distance(x, (0,), (2,)) == 2
    assert gallery_distance(x, (0,), (1,)) == 1
    assert gallery_distance(x, (0,), (0,)) == 0


def test_faces_of_one_simplex_distance_one():
    x = complete_complex(6, 2)
    # edges of a common triangle sit at distance 1
    assert gallery_distance(x, (0, 1), (1, 2)) == 1
    # vertex-disjoint edges need two triangles glued along an edge
    assert gallery_distance(x, (0, 1), (2, 3)) == 2


def test_distance_disjoint_triangles_infinite():
    x = build_complex([(0, 1, 2), (3, 4, 5)])
    assert gallery_distance(x, (0, 1), (3, 4)) == INF


def test_distance_matches_graph_metric():
    x = linial_meshulam(LmParams(12, 0.25, 0, seed=8))
    for u in range(12):
        for v in range(12):
            assert gallery_distance(x, (u,), (v,)) == bfs_graph_distance(x, u, v)


def test_metric_properties_exhaustive():
    x = build_complex([(0, 1, 2), (1, 2, 3), (2, 3, 4), (4, 5, 6)])
    edges = x.simplices(1)
    dist = {
        (a, b): gallery_distance(x, a, b)
        for a in edges
        for b in edges
    }
    for a in edges:
        for b in edges:
            assert dist[(a, b)] == dist[(b, a)]
            if a != b and dist[(a, b)] != INF:
                assert dist[(a, b)] >= 1
            for c in edges:
                if dist[(a, b)] != INF and dist[(b, c)] != INF:
                    assert dist[(a, c)] <= dist[(a, b)] + dist[(b, c)]


def node_bfs_distance(complex_, eta0, eta1):
    """Fewest (k+1)-simplices in a gallery from a star to a star, by BFS."""
    if eta0 == eta1:
        return 0
    nodes = complex_.simplices(len(eta0))
    adjacency = node_adjacency(nodes)
    targets = node_star(nodes, eta1)
    frontier, reached, length = node_star(nodes, eta0), set(), 1
    while frontier:
        if frontier & targets:
            return length
        reached |= frontier
        frontier = {w for v in frontier for w in adjacency[v]} - reached
        length += 1
    return INF


def test_distance_matches_node_bfs():
    rng = np.random.default_rng(5)
    seen = {0: 0, 1: 0, "finite": 0, INF: 0}
    split = 0  # complexes with two or more gallery components
    for k in (1, 2):
        for _ in range(12):
            n = int(rng.integers(k + 5, k + 8))
            # a few (k+1)-simplices, and some k-simplices that lie in none
            tops = [rng.choice(n, k + 2, replace=False).tolist()
                    for _ in range(int(rng.integers(2, 9)))]
            tops += [rng.choice(n, k + 1, replace=False).tolist() for _ in range(3)]
            x = build_complex(tops)
            graph = GalleryGraph(x, k)
            split += len(set(graph.components)) > 1
            for a in x.simplices(k):
                row = gallery_distances_from(x, a)
                for b in x.simplices(k):
                    expected = node_bfs_distance(x, a, b)
                    assert gallery_distance(x, a, b) == expected
                    assert row[b] == expected
                    seen[expected if expected in (0, 1, INF) else "finite"] += 1
    assert min(seen.values()) > 0, seen
    assert split >= 10


# -- connectivity ----------------------------------------------------------------


def test_single_simplex_connected():
    x = build_complex([(0, 1, 2, 3)])
    for k in range(3):
        assert is_gallery_connected(x, k)


def test_skeleton_without_fillings_disconnected():
    x = complete_complex(5, 1)  # complete graph, no triangles
    assert not is_gallery_connected(x, 1)


def test_complete_complex_connected():
    for k in (0, 1, 2):
        x = complete_complex(k + 3, k + 1)
        assert is_gallery_connected(x, k)
        # exhaustive pairwise oracle for the same statement
        for a in x.simplices(k):
            for b in x.simplices(k):
                assert gallery_distance(x, a, b) != INF


def test_connectivity_requires_coverage():
    x = build_complex([(0, 1, 2), (2, 3)])  # edge (2,3) in no triangle
    assert not is_gallery_connected(x, 1)


def test_incidence_connectivity_matches_gallery_graph():
    two_triangles = build_complex([(0, 1, 2), (2, 3, 4)])  # covered, apart at k=1
    assert not is_gallery_connected(two_triangles, 1)
    assert is_gallery_connected(two_triangles, 0)
    rng = np.random.default_rng(1)
    for _ in range(150):
        n = int(rng.integers(4, 9))
        tops = [rng.choice(n, int(rng.integers(1, 5)), replace=False).tolist()
                for _ in range(int(rng.integers(1, 12)))]
        x = build_complex(tops)
        for k in range(x.dim + 1):
            expected = gallery_connected_oracle(x, k)
            assert is_gallery_connected(x, k) == expected


def csgraph_incidence_components(complex_, k):
    """csgraph's count and labels of the face-coface incidence, faces first."""
    from scipy import sparse
    from scipy.sparse import csgraph

    indptr, indices = complex_.coface_csr(k)
    n_faces = len(indptr) - 1
    size = n_faces + complex_.simplex_count(k + 1)
    rows = np.concatenate([indptr, np.full(size - n_faces, indptr[-1])])
    incidence = sparse.csr_matrix(
        (np.ones(len(indices)), indices + n_faces, rows), shape=(size, size)
    )
    return csgraph.connected_components(incidence, directed=False)


def test_component_labels_match_csgraph():
    from scipy import sparse
    from scipy.sparse import csgraph

    def two_components(n, p, k, seed):
        first, second = (linial_meshulam(LmParams(n, p, k, seed=s)).simplex_rows(k + 1)
                         for s in (seed, seed + 1))
        return build_complex(np.concatenate([first, second + n]).tolist())

    small = [(linial_meshulam(LmParams(n, p, k, seed=seed)), k)
             for n, p, k, seed in [(12, 0.3, 0, 1), (12, 0.15, 0, 2), (11, 0.5, 1, 1),
                                   (10, 0.2, 1, 3), (9, 0.5, 2, 2), (8, 0.3, 2, 4)]]
    small += [(two_components(8, 0.6, 1, 1), 1), (two_components(7, 0.7, 2, 1), 2)]
    # faces in no coface: the edges (0, 9) and (4, 10), and the vertex 11
    lone = build_complex([(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 9), (4, 10), (11,)])
    small += [(lone, 1), (lone, 0)]
    # a strip of 5,000 triangles, 5,000 gallery steps long, with its vertex
    # labels scrambled so that neither faces nor nodes come in strip order
    order = np.random.default_rng(5).permutation(5002)
    strip = build_complex(np.stack([order[:-2], order[1:-1], order[2:]], axis=1).tolist())
    for x, k in small + [(strip, 1), (strip, 0)]:
        count, labels = csgraph_incidence_components(x, k)
        found, face_labels, node_labels = gallery_module._incidence_components(x, k)
        assert found == count
        assert np.concatenate([face_labels, node_labels]).tolist() == labels.tolist()
    assert gallery_module._incidence_components(strip, 1)[0] == 1
    for x, k in small:
        indptr, indices, degrees = GalleryGraph(x, k)._adjacency
        rows = [set(indices[indptr[v]:indptr[v + 1]].tolist()) for v in range(len(degrees))]
        assert rows == [set(row) for row in node_adjacency(x.simplices(k + 1))]
        assert degrees.tolist() == [len(row) for row in rows]
    # random edge lists, with self-loops and untouched nodes
    rng = np.random.default_rng(7)
    for _ in range(100):
        size = int(rng.integers(1, 60))
        a, b = rng.integers(0, size, (2, int(rng.integers(0, 2 * size))))
        graph = sparse.csr_matrix((np.ones(len(a)), (a, b)), shape=(size, size))
        count, labels = csgraph.connected_components(graph, directed=False)
        found, found_labels = gallery_module._components(size, a, b)
        assert found == count and found_labels.tolist() == labels.tolist()


def test_degree_validation():
    x = build_complex([(0, 1, 2)])
    with pytest.raises(DegreeError):
        is_gallery_connected(x, 3)


# -- filling numbers -------------------------------------------------------------


def test_fill_simplex_boundary_is_one():
    x = linial_meshulam(LmParams(8, 0.7, 1, seed=2))
    for sigma in x.simplices(2):
        faces = list(combinations(sigma, 2))
        assert fill_number(x, faces).exact == 1


def test_fill_pairs_equal_graph_distance():
    x = linial_meshulam(LmParams(14, 0.3, 0, seed=3))
    for u in range(0, 14, 3):
        for v in range(1, 14, 4):
            if u == v:
                continue
            expected = bfs_graph_distance(x, u, v)
            if expected == INF:
                with pytest.raises(UnfillableError):
                    fill_number(x, [(u,), (v,)])
            else:
                result = fill_number(x, [(u,), (v,)])
                assert result.exact == expected


def test_fill_square_of_two_triangles():
    x = build_complex([(0, 1, 2), (1, 2, 3)])
    result = fill_number(x, [(0, 1), (1, 3), (2, 3), (0, 2)])
    assert result.exact == 2
    assert result.lower <= 2 <= result.upper


def test_fill_ordering_invariant():
    x = linial_meshulam(LmParams(9, 0.5, 1, seed=21))
    for sigma in combinations(range(9), 3):
        faces = list(combinations(sigma, 2))
        result = fill_number(x, faces)
        assert result.lower <= (result.exact or result.upper) <= result.upper


def test_fill_matches_brute_force_small():
    # (N, p, k): triangle boundaries of 3 edges, tetrahedron boundaries of
    # 4 triangles
    for n, p, k in [(6, 0.45, 1), (6, 0.5, 2)]:
        for seed in range(6):
            x = linial_meshulam(LmParams(n, p, k, seed=seed))
            if x.simplex_count(k + 1) == 0 or x.simplex_count(k + 1) > 14:
                continue
            for sigma in combinations(range(n), k + 2):
                faces = list(combinations(sigma, k + 1))
                expected = brute_force_fill(x, faces)
                if expected is None:
                    with pytest.raises(UnfillableError):
                        fill_number(x, faces)
                else:
                    assert fill_number(x, faces).exact == expected


def test_fill_witness_is_a_filling():
    cases = [
        (LmParams(9, 0.55, 1, seed=13), [(0, 1, 2), (2, 5, 8), (1, 4, 7)]),
        (LmParams(8, 0.5, 2, seed=13), [(0, 1, 2, 3), (0, 1, 3, 7), (0, 2, 3, 5)]),
    ]
    for params, sigmas in cases:
        x = linial_meshulam(params)
        graph = GalleryGraph(x, params.k)
        for sigma in sigmas:
            faces = list(combinations(sigma, params.k + 1))
            try:
                result = fill_number(x, faces)
            except UnfillableError:
                continue
            assert len(result.witness) == result.exact
            # re-check connectivity of every pair within the witness only
            assert connects_every_pair(graph, faces, result.witness)


def test_fill_bounds_meet_on_every_member():
    for params in [LmParams(10, 0.6, 1, seed=17), LmParams(7, 0.6, 2, seed=3)]:
        x = linial_meshulam(params)
        for sigma in combinations(range(params.num_vertices), params.k + 2):
            faces = list(combinations(sigma, params.k + 1))
            try:
                result = fill_number(x, faces)
            except UnfillableError:
                continue
            assert result.lower == result.upper == result.exact
            assert result.exact == len(result.witness)
            assert not result.budget_exhausted


def test_fill_k2_member_with_fill_five():
    # regression: a budgeted subset search could only bracket this as [5, 8]
    x = linial_meshulam(LmParams(12, 0.6, 2, seed=1))
    graph = GalleryGraph(x, 2)
    faces = list(combinations((0, 2, 3, 7), 3))
    result = fill_number(x, faces)
    assert result.exact == result.lower == result.upper == 5
    assert len(result.witness) == 5
    assert connects_every_pair(graph, faces, result.witness)


def test_fill_many_faces_beside_another_component():
    # five faces in a strip of triangles; the lone triangle is unreachable
    # from all of them
    x = build_complex(
        [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 6), (10, 11, 12)]
    )
    faces = [(0, 1), (1, 3), (2, 4), (3, 5), (5, 6)]
    result = fill_number(x, faces)
    assert result.exact == brute_force_fill(x, faces) == 5
    assert connects_every_pair(GalleryGraph(x, 1), faces, result.witness)


def test_relax_crosses_empty_levels():
    # nodes: edge (0,1) alone, then the path (2,3)-(3,4)-(4,5); no entry is
    # 2, but the 3 must still spread along its path
    graph = GalleryGraph(build_complex([(0, 1), (2, 3), (3, 4), (4, 5)]), 0)
    table = np.array([1, 3, 99, 99], dtype=np.int32)
    assert graph.relax(table, 10).tolist() == [1, 3, 4, 5]
    assert graph.relax(np.array([1, 3, 99, 99], dtype=np.int32), 4).tolist() == [1, 3, 4, 99]


@pytest.mark.parametrize("block_entries", [gallery_module.BLOCK_ENTRIES, 1 << 11])
def test_fill_numbers_match_fill_number_on_every_member(monkeypatch, block_entries):
    # the default budget holds every member in one block, where spider caps
    # differ between rows; the small one puts a row or two in each block, so
    # rows and face tables cross many block edges
    monkeypatch.setattr(gallery_module, "BLOCK_ENTRIES", block_entries)
    beaten = 0  # members whose fill is below their spider
    for n, p, k, seed in [(11, 0.5, 1, 1), (11, 0.5, 1, 2), (8, 0.6, 2, 2),
                          (9, 0.5, 2, 2), (8, 0.6, 3, 1), (8, 0.6, 3, 2)]:
        x = linial_meshulam(LmParams(n, p, k, seed=seed))
        graph = GalleryGraph(x, k)
        rows = np.array(list(combinations(range(n), k + 2)))
        faces = x.facet_indices(rows)
        fills = graph.fill_numbers(faces)
        simplices = x.simplices(k)
        for row, fill in zip(faces, fills.tolist()):
            assert fill == fill_number(x, [simplices[i] for i in row]).exact
        tables = graph.face_tables(np.arange(len(simplices))).astype(np.int64)
        spider = tables[faces].sum(axis=1).min(axis=1) - (k + 1)
        assert (fills <= spider).all()
        beaten += int((fills < spider).sum())
    assert beaten > 0


def test_steiner_tables_batch_matches_one_row_at_a_time():
    # rows of one batch relax to the largest cap among them; below its own
    # cap, each row's tables must equal those of the row run alone
    for n, p, k, seed in [(9, 0.5, 2, 2), (8, 0.6, 3, 1)]:
        x = linial_meshulam(LmParams(n, p, k, seed=seed))
        graph = GalleryGraph(x, k)
        faces = x.facet_indices(np.array(list(combinations(range(n), k + 2))))
        tables = graph.face_tables(np.arange(x.simplex_count(k))).astype(np.int64)
        tables = tables[faces]
        caps = tables.sum(axis=1).min(axis=1) - (k + 1)
        tables, caps = tables[caps > 2], caps[caps > 2]
        assert len(set(caps.tolist())) > 1
        tree, _ = graph.steiner_tables(tables, caps)
        for i, cap in enumerate(caps.tolist()):
            alone, _ = graph.steiner_tables(tables[i:i + 1], caps[i:i + 1])
            for subset, table in alone.items():
                assert (np.minimum(tree[subset][i], cap) == np.minimum(table[0], cap)).all()


def star_tables_oracle(complex_, k):
    """Face tables by one plain BFS over the nodes from each face's star."""
    nodes = complex_.simplices(k + 1)
    adjacency = node_adjacency(nodes)
    tables = []
    for face in complex_.simplices(k):
        dist = dict.fromkeys(node_star(nodes, face), 1)
        frontier = list(dist)
        while frontier:
            reached = []
            for v in frontier:
                for w in adjacency[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        reached.append(w)
            frontier = reached
        tables.append([dist.get(v) for v in range(len(nodes))])
    return tables


def _face_search_cases():
    """Complexes, their degree, face rows whose faces share a component, and
    the dtype of their face tables."""
    def members(x, k, vertices):
        rows = np.array(list(combinations(vertices, k + 2)))
        return x.facet_indices(rows)

    for n, p, k, seed in [(11, 0.5, 1, 1), (9, 0.5, 2, 2)]:
        x = linial_meshulam(LmParams(n, p, k, seed=seed))
        yield x, k, members(x, k, range(n)), np.uint8
    # two components; rows stay inside one
    first, second = (linial_meshulam(LmParams(8, 0.6, 1, seed=s)).simplex_rows(2)
                     for s in (1, 3))
    x = build_complex(np.concatenate([first, second + 8]).tolist())
    yield (x, 1, np.concatenate([members(x, 1, range(8)), members(x, 1, range(8, 16))]),
           np.uint8)
    # the edges (0, 9) and (4, 10) lie in no triangle; the first sits between
    # edges that do, the second comes last
    x = build_complex([(0, 1, 2), (1, 2, 3), (2, 3, 4), (0, 9), (4, 10)])
    yield x, 1, np.array([[x.index_of(f) for f in faces] for faces in (
        [(0, 1), (1, 3), (2, 4)], [(0, 2), (1, 2), (3, 4)], [(0, 1), (0, 2), (1, 2)])]), np.uint8
    # busy faces, with more cofaces than the coface table is wide: the spine
    # (0, 1) of a book of 9 pages with a strip off its last page, and the hub
    # of a star of 9 edges with a tail
    x = build_complex([(0, 1, i) for i in range(2, 11)] + [(1, 10, 11), (10, 11, 12)])
    yield x, 1, np.array([[x.index_of(f) for f in faces] for faces in (
        [(0, 2), (0, 3), (11, 12)], [(0, 1), (1, 5), (10, 12)], [(0, 4), (1, 4), (0, 1)])]), np.uint8
    x = build_complex([(0, i) for i in range(1, 10)] + [(9, 10), (10, 11)])
    yield x, 0, np.array([[1, 2, 11], [0, 5, 10], [3, 4, 0]]), np.uint8
    # 300 levels, past uint8
    x = build_complex([(i, i + 1) for i in range(300)])
    yield x, 0, x.facet_indices(np.array([[0, 300], [5, 280], [7, 9]])), np.uint16
    # a cycle of 1,040 edges and 261 levels, past uint8 and past 8 bit planes
    x = _annulus(260)
    yield x, 1, np.array([[x.index_of(f) for f in faces] for faces in (
        [(0, 1), (130, 131), (200, 201)], [(0, 260), (65, 66), (1, 2)],
        [(0, 1), (0, 260), (1, 260)])]), np.uint16


def test_face_search_matches_node_bfs(monkeypatch):
    # the face tables equal a plain BFS over the nodes, and the fills built
    # on them equal those built on the oracle's tables
    for x, k, rows, dtype in _face_search_cases():
        simplices = x.simplices(k)
        sets = [[simplices[i] for i in row] for row in rows]
        graph = GalleryGraph(x, k)
        tables = graph.face_tables(np.arange(len(simplices)))
        assert tables.dtype == dtype
        marker = np.iinfo(dtype).max
        oracle = np.array([[marker if t is None else t for t in row]
                           for row in star_tables_oracle(x, k)], dtype=dtype)
        assert tables.tolist() == oracle.tolist()
        with monkeypatch.context() as patch:
            patch.setattr(GalleryGraph, "face_tables", lambda self, faces: oracle[faces])
            expected = (graph.fill_numbers(rows),
                        [fill_number(x, faces) for faces in sets])
        assert graph.fill_numbers(rows).tolist() == expected[0].tolist()
        for faces, reference in zip(sets, expected[1]):
            result = fill_number(x, faces)
            assert result.witness == reference.witness
            assert result.states_visited == reference.states_visited
            assert result.exact == reference.exact


@pytest.mark.parametrize("levels", [1, 8])
def test_face_search_level_cap_from_both_sides(levels):
    # `levels` bit planes hold distances up to 2**levels - 1; paths whose last
    # level sits just below, at and just past that cap need one more plane
    # (at 8, one more byte pass) on the far side, and past 253 levels uint16
    cap = 2 ** levels - 1
    for last in (n for n in (cap - 2, cap - 1, cap, cap + 1) if n >= 1):
        # a path of `last` edges and a disjoint edge that no source reaches
        x = build_complex([(i, i + 1) for i in range(last)] + [(last + 1, last + 2)])
        dtype = np.uint8 if last + 2 <= 255 else np.uint16
        graph = GalleryGraph(x, 0)
        dist = graph._levels(np.array([0]))
        assert dist.dtype == dtype
        marker = np.iinfo(dtype).max
        assert dist[:, 0].tolist() == list(range(last + 1)) + [marker - 1] * 2
        tables = graph.face_tables(np.arange(x.simplex_count(0)))
        assert tables.dtype == dtype
        assert tables.tolist() == [[marker if t is None else t for t in row]
                                   for row in star_tables_oracle(x, 0)]
        ends = x.facet_indices(np.array([[0, last]]))
        assert graph.fill_numbers(ends).tolist() == [last]
        assert fill_number(x, [(0,), (last,)]).exact == last
        assert gallery_distance(x, (0,), (last,)) == last


def test_face_tables_widen_between_blocks(monkeypatch):
    # a path of 300 edges and a disjoint edge, one source per block: the
    # middle vertex is at most 150 steps from any node, so its block comes
    # back uint8; vertex 0's block needs uint16, which widens the first row
    # and moves its unreached marker from 255 to 65535
    x = build_complex([(i, i + 1) for i in range(300)] + [(301, 302)])
    monkeypatch.setattr(gallery_module, "BLOCK_ENTRIES", x.simplex_count(0))
    graph = GalleryGraph(x, 0)
    assert graph.face_tables([150]).dtype == np.uint8
    tables = graph.face_tables([150, 0])
    assert tables.dtype == np.uint16
    assert tables[:, -1].tolist() == [65535, 65535]
    oracle = star_tables_oracle(x, 0)
    assert tables.tolist() == [[65535 if t is None else t for t in oracle[f]]
                               for f in (150, 0)]


def test_busy_face_costs_only_its_cofaces():
    # a book of 5,000 triangles on the edge (0, 1), and a star of 5,000 edges
    # on vertex 0: one face holds every coface, yet the coface table stays
    # within twice the incidences and faces, and a search allocates a few MB
    pages = 5000
    book = build_complex([(0, 1, i) for i in range(2, pages + 2)])
    star = build_complex([(0, i) for i in range(1, pages + 1)])
    tracemalloc.start()
    try:
        for x, k, hub, leaf, other in [(book, 1, (0, 1), (0, 2), (1, 3)),
                                       (star, 0, (0,), (1,), (2,))]:
            assert gallery_distance(x, hub, leaf) == 1
            assert gallery_distance(x, leaf, other) == 2
            table, busy, _, rest = gallery_module._coface_table(x, k)
            assert busy.tolist() == [x.index_of(hub)]
            assert table.size <= 2 * (x.simplex_count(k + 1) * (k + 2) + x.simplex_count(k))
            assert table.shape[1] + len(rest) == pages
            graph = GalleryGraph(x, k)
            tables = graph.face_tables([x.index_of(hub), x.index_of(leaf)])
            assert (tables[0] == 1).all()
            assert sorted(np.flatnonzero(tables[1] == 1)) == x.coface_indices(k, x.index_of(leaf))
            assert (tables[1] <= 2).all()
            faces = [x.index_of(leaf), x.index_of(other), x.index_of(hub)]
            assert graph.fill_numbers([faces]).tolist() == [2]
        assert tracemalloc.get_traced_memory()[1] < 16 << 20
    finally:
        tracemalloc.stop()


def test_fill_numbers_raise_for_the_first_unfillable_row():
    # a Steiner triple system on 7 points, with one more triangle: every edge
    # lies in a triangle, but (4, 5, 0) is a gallery component of its own
    x = build_complex([(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 0),
                       (5, 6, 1), (6, 0, 2), (0, 1, 2)])
    rows = [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 4, 5)]
    faces = x.facet_indices(np.array(rows))
    with pytest.raises(UnfillableError) as exc:
        GalleryGraph(x, 1).fill_numbers(faces)
    assert str(exc.value) == "no gallery joins (0, 1) and (0, 4)"
    assert GalleryGraph(x, 1).fill_numbers(faces[:2]).tolist() == [1, 1]


def test_fill_tables_widen_past_uint8():
    # a path of 300 edges: the end vertices are 300 gallery steps apart
    x = build_complex([(i, i + 1) for i in range(300)])
    graph = GalleryGraph(x, 0)
    assert graph.face_tables([0]).dtype == np.uint16
    ends = x.facet_indices(np.array([[0, 300], [5, 280]]))
    assert graph.fill_numbers(ends).tolist() == [300, 275]
    assert fill_number(x, [(0,), (300,)]).exact == 300
    assert gallery_distance(x, (0,), (300,)) == 300


def test_fill_empty_and_singleton():
    x = build_complex([(0, 1, 2)])
    assert fill_number(x, [(0, 1)]).exact == 0


# -- growth bounds ----------------------------------------------------------------


def test_neighbor_count_bound():
    for params in [LmParams(9, 0.7, 1, seed=1), LmParams(7, 0.9, 2, seed=2)]:
        x = linial_meshulam(params)
        k = params.k
        d_max = max(
            (len(x.coface_indices(k, i)) for i in range(x.simplex_count(k))),
            default=0,
        )
        tight_hits = 0
        total = 0
        for eta in x.simplices(k):
            dists = gallery_distances_from(x, eta)
            neighbors = sum(1 for v in dists.values() if v == 1)
            assert neighbors <= d_max * (k + 2)
            tight_hits += neighbors <= d_max * max(k, 1)
            total += 1
        # the tighter D*k version is reported, not asserted: a (k+1)-simplex
        # has k+2 facets, so it can fail
        print(f"k={k}: D*max(k,1) neighbor bound held on {tight_hits}/{total}")


def test_ball_size_bound():
    params = LmParams(9, 0.65, 1, seed=4)
    x = linial_meshulam(params)
    k = params.k
    d_max = max(len(x.coface_indices(k, i)) for i in range(x.simplex_count(k)))
    base = d_max * max(k, 1)
    for eta in x.simplices(k)[::7]:
        sizes = gallery_ball_sizes(x, eta, 4)
        for r, size in enumerate(sizes):
            assert size <= base ** (r + 1)


# -- link-connectivity criteria -----------------------------------------------


def test_link_report_complete_complex():
    report = gallery_link_report(complete_complex(6, 2), 1)
    assert report.inductive_holds
    assert report.inductive_hypotheses_met
    assert report.inductive_conclusion


def test_link_report_disconnected_link_vacuous():
    # two triangles joined only at vertex 2: its link is disconnected
    x = build_complex([(0, 1, 2), (2, 3, 4)])
    report = gallery_link_report(x, 1)
    assert not report.inductive_hypotheses_met
    assert not report.inductive_conclusion  # the triangles share no edge
    assert report.inductive_holds  # vacuously


def test_link_report_lm_sample():
    hits = 0
    for seed in range(5):
        report = gallery_link_report(
            linial_meshulam(LmParams(15, 0.8, 1, seed=seed)), 1
        )
        hits += report.inductive_holds
    assert hits >= 4


def link_union_find_connected(link_complex):
    """Union-find over the link's edges; a link of at most one vertex is connected."""
    n = link_complex.simplex_count(0)
    if n <= 1:
        return True
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in link_complex.simplices(1):
        parent[find(a)] = find(b)
    return len({find(v) for v in range(n)}) == 1


def test_link_report_matches_union_find_oracle():
    cases = [
        complete_complex(6, 2),  # links with no isolated vertex
        build_complex([(0, 1, 2), (0, 3)]),  # link of 0: one isolated vertex
        build_complex([(0, 1, 2), (0, 3), (0, 4), (5, 6)]),  # two isolated
        build_complex([(0, 1, 2, 3), (0, 4, 5), (4, 6), (7,)]),
    ]
    rng = np.random.default_rng(9)
    while len(cases) < 40:
        n = int(rng.integers(5, 9))
        tops = [rng.choice(n, int(rng.integers(1, 5)), replace=False).tolist()
                for _ in range(int(rng.integers(2, 9)))]
        x = build_complex(tops)
        if x.dim >= 2:
            cases.append(x)
    isolated_seen = set()
    for x in cases:
        for k in range(1, x.dim):
            all_connected = True
            for tau in x.simplices(k - 1):
                link = x.link(tau)
                n = link.simplex_count(0)
                on_edges = {v for e in link.simplices(1) for v in e}
                isolated_seen.add(min(n - len(on_edges), 2))
                all_connected &= n > 0 and link_union_find_connected(link)
            report = gallery_link_report(x, k)
            assert report.details["all_links_connected"] == all_connected
    assert isolated_seen == {0, 1, 2}
