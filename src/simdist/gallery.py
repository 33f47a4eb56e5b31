"""Gallery adjacency on (k+1)-simplices, distances, and filling numbers.

A gallery is a sequence of (k+1)-simplices in which consecutive members share
exactly k+1 vertices (a common k-face); its length counts the simplices. The
distance between two k-simplices is the minimal length of a gallery whose
first member contains one and whose last member contains the other; the empty
gallery connects a simplex to itself, so the self-distance is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import scipy.sparse as sparse
from scipy.sparse import csgraph

from .complexes import DegreeError, MissingSimplexError, SimplicialComplex

__all__ = [
    "FillResult",
    "GalleryGraph",
    "GalleryLinkReport",
    "UnfillableError",
    "fill_number",
    "gallery_ball_sizes",
    "gallery_distance",
    "gallery_distances_from",
    "gallery_link_report",
    "is_gallery_connected",
]

INF = math.inf
UNREACHED = np.iinfo(np.int32).max // 4  # face-table entry of another component


class UnfillableError(ValueError):
    """Some pair of the face set cannot be joined by any gallery."""


def _incidence_components(
    complex_: SimplicialComplex, k: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """Components of the graph joining each k-face to the (k+1)-simplices on it.

    Returns their number and the labels of the k-faces and of the
    (k+1)-simplices. Two (k+1)-simplices, or two distinct k-faces, share a
    component iff a gallery joins them; a k-face in no (k+1)-simplex is a
    component of its own.
    """
    indptr, indices = complex_.coface_csr(k)
    n_faces = len(indptr) - 1
    size = n_faces + complex_.simplex_count(k + 1)
    # vertices 0..n_faces-1 are the faces, n_faces + j is (k+1)-simplex j;
    # only the face rows hold entries. float64 entries: csgraph would convert
    # any other dtype on every call
    rows = np.concatenate([indptr, np.full(size - n_faces, indptr[-1])])
    incidence = sparse.csr_matrix(
        (np.ones(len(indices)), indices + n_faces, rows), shape=(size, size)
    )
    count, labels = csgraph.connected_components(incidence, directed=False)
    return count, labels[:n_faces], labels[n_faces:]


class GalleryGraph:
    """Adjacency among (k+1)-simplices sharing a k-face, as one sorted CSR.

    With B the k-face x (k+1)-simplex incidence, the adjacency is B^T B
    minus its diagonal: two distinct (k+1)-simplices share at most one k-face.
    """

    def __init__(self, complex_: SimplicialComplex, k: int):
        if k < 0 or k > complex_.dim:
            raise DegreeError(f"degree {k} outside 0..{complex_.dim}")
        self.complex = complex_
        self.k = k
        self.nodes = complex_.simplices(k + 1)
        indptr, indices = complex_.coface_csr(k)
        incidence = sparse.csr_matrix(
            (np.ones(len(indices), dtype=np.int32), indices, indptr),
            shape=(len(indptr) - 1, self.num_nodes),
        )
        # B^T B is symmetric, so its CSC arrays are also its CSR arrays
        shared = incidence.T @ incidence
        shared.setdiag(0)
        shared.eliminate_zeros()
        shared.sort_indices()
        # intp arrays index faster than scipy's int32
        self._indptr = shared.indptr.astype(np.intp)
        self._indices = shared.indices.astype(np.intp)
        self._degrees = np.diff(self._indptr)
        self._incidence_count, _, self.components = _incidence_components(complex_, k)
        self._face_tables: dict[int, np.ndarray] = {}

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def _neighbours(self, nodes: np.ndarray) -> np.ndarray:
        """Adjacency rows of a nonempty node array, concatenated."""
        counts = self._degrees[nodes]
        ends = np.cumsum(counts)
        positions = np.repeat(self._indptr[nodes] - ends + counts, counts)
        positions += np.arange(ends[-1])
        return self._indices[positions]

    def relax(self, table: np.ndarray, cap: int) -> np.ndarray:
        """Lower `table` in place to min over u of table[u] + dist(u, v).

        Levels are settled in increasing order, each pushing one step to
        its neighbours, so every entry that ends at most `cap` is exact;
        entries above `cap` only stay above it. Stops early once no entry
        lies between the level reached and `cap`.
        """
        level = int(table.min(initial=cap))
        while level < cap:
            frontier = (table == level).nonzero()[0]
            if frontier.size:
                reached = self._neighbours(frontier)
                table[reached] = np.minimum(table[reached], level + 1)
            elif not ((table > level) & (table < cap)).any():
                break
            level += 1
        return table

    def face_table(self, face: int) -> np.ndarray:
        """Node-count distance from the star of k-face number `face`, cached.

        A node of the star costs 1 and each step adds 1; nodes of other
        components hold UNREACHED.
        """
        table = self._face_tables.get(face)
        if table is None:
            table = np.full(self.num_nodes, UNREACHED, dtype=np.int32)
            table[self.complex.coface_indices(self.k, face)] = 1
            table = self._face_tables[face] = self.relax(table, UNREACHED)
        return table


def _graph_at(complex_: SimplicialComplex, face: tuple, graph: GalleryGraph | None):
    """The gallery graph at the dimension of `face`: `graph`, or a new one."""
    k = len(face) - 1
    if graph is None:
        return GalleryGraph(complex_, k)
    if graph.k != k:
        raise DegreeError(f"{face!r} is not a {graph.k}-simplex")
    return graph


def gallery_distance(
    complex_: SimplicialComplex, eta0, eta1, *, graph: GalleryGraph | None = None
):
    """Minimal gallery length joining two k-simplices; inf when none exists."""
    s0 = tuple(sorted(eta0))
    s1 = tuple(sorted(eta1))
    if len(s0) != len(s1):
        raise DegreeError("both simplices must have the same dimension")
    i0 = complex_.index_of(s0)
    i1 = complex_.index_of(s1)
    if s0 == s1:
        return 0
    graph = _graph_at(complex_, s0, graph)
    targets = complex_.coface_indices(graph.k, i1)
    best = graph.face_table(i0)[targets].min(initial=UNREACHED)
    return INF if best == UNREACHED else int(best)


def is_gallery_connected(
    complex_: SimplicialComplex, k: int, *, graph: GalleryGraph | None = None
) -> bool:
    """True iff every pair of k-simplices is joined by a (k+1)-gallery.

    That is, some (k+1)-simplex exists and the face-coface incidence is one
    component: a k-simplex in no (k+1)-simplex is a component of its own
    (the quantifier includes a simplex paired with itself).
    """
    if k < 0 or k > complex_.dim:
        raise DegreeError(f"degree {k} outside 0..{complex_.dim}")
    if complex_.simplex_count(k + 1) == 0:
        return False
    if graph is not None:
        return graph._incidence_count == 1
    return _incidence_components(complex_, k)[0] == 1


def gallery_distances_from(
    complex_: SimplicialComplex, tau, *, graph: GalleryGraph | None = None
) -> dict[tuple, float]:
    """Gallery distances from one k-simplex to every k-simplex."""
    graph = _graph_at(complex_, tuple(sorted(tau)), graph)
    return {
        eta: gallery_distance(complex_, tau, eta, graph=graph)
        for eta in complex_.simplices(graph.k)
    }


def gallery_ball_sizes(
    complex_: SimplicialComplex, tau, r_max: int, *, graph: GalleryGraph | None = None
) -> list[int]:
    """|B(tau, r)| for r = 0..r_max under the gallery distance."""
    dists = gallery_distances_from(complex_, tau, graph=graph)
    return [sum(1 for d in dists.values() if d <= r) for r in range(r_max + 1)]


@dataclass
class FillResult:
    """Exact filling number of a face set and one filling that attains it.

    ``lower`` and ``upper`` always equal ``exact`` and ``budget_exhausted`` is
    always false; they stay so that documents keep their fields.
    ``states_visited`` counts the face-subset tables built.
    """

    lower: int
    upper: int
    exact: int
    witness: tuple[tuple[int, ...], ...]
    budget_exhausted: bool = False
    states_visited: int = 0

    def to_dict(self, complex_: SimplicialComplex | None = None) -> dict:
        witness = [
            [int(v) for v in (complex_.to_labels(s) if complex_ else s)]
            for s in self.witness
        ]
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "witness": witness,
            "budget_exhausted": self.budget_exhausted,
            "states_visited": self.states_visited,
        }


def _splits(subset: int):
    """Proper parts of a face bitmask that hold its lowest face, so each
    unordered split into two nonempty parts is produced once."""
    low = subset & -subset
    part = (subset - 1) & subset
    while part:
        if part & low:
            yield part
        part = (part - 1) & subset


def fill_number(
    complex_: SimplicialComplex,
    faces,
    *,
    graph: GalleryGraph | None = None,
) -> FillResult:
    """Minimal number of (k+1)-simplices gallery-connecting every pair of faces.

    A star is a clique of the gallery graph, so the simplices a filling takes
    from one star lie in one connected part of it; joining every pair then
    means one connected part touches every star. The filling number is thus
    the node-weighted group Steiner number of the stars, which the
    Dreyfus–Wagner dynamic program over face subsets computes exactly:
    ``tree[S][v]`` is the fewest nodes of a connected set that holds node v
    and touches every star in S, and ``merged[S]`` is its value at nodes where
    two parts of S meet, ``min over splits A|B of tree[A] + tree[B] - 1``,
    from which ``tree[S]`` follows by unit-step relaxation.
    """
    face_set = sorted({tuple(sorted(f)) for f in faces})
    if len({len(f) for f in face_set}) > 1:
        raise DegreeError("faces must share one dimension")
    face_ids = [complex_.index_of(f) for f in face_set]
    if len(face_set) <= 1:
        return FillResult(0, 0, 0, ())
    k = len(face_set[0]) - 1
    graph = _graph_at(complex_, face_set[0], graph)

    stars = []
    for f, i in zip(face_set, face_ids):
        star = complex_.coface_indices(k, i)
        if not star:
            raise UnfillableError(f"{f!r} lies in no ({k + 1})-simplex")
        stars.append(star)

    # One simplex containing every face settles it immediately.
    common = set(stars[0])
    for star in stars[1:]:
        common &= set(star)
        if not common:
            break
    if common:
        witness = (graph.nodes[min(common)],)
        return FillResult(1, 1, 1, witness)

    for a, b in combinations(range(len(face_set)), 2):
        if graph.components[stars[a][0]] != graph.components[stars[b][0]]:
            raise UnfillableError(
                f"no gallery joins {face_set[a]!r} and {face_set[b]!r}"
            )

    # The spider, shortest galleries from `center` to every star, is a
    # filling of `cap` nodes, so the tables need only be exact below cap:
    # entries under cap are exact and the others only say "at least cap".
    face_tables = [graph.face_table(i) for i in face_ids]
    spider = np.sum(face_tables, axis=0, dtype=np.int64) - (len(face_set) - 1)
    center = int(spider.argmin())
    cap = int(spider[center])
    full = (1 << len(face_set)) - 1
    tree = {1 << i: np.minimum(t, cap) for i, t in enumerate(face_tables)}
    merged = {}
    for subset in range(3, full + 1):
        if subset & (subset - 1) == 0:
            continue  # a single face: its table is a face table
        best = None
        for part in _splits(subset):
            joined = tree[part] + tree[subset ^ part]
            best = joined if best is None else np.minimum(best, joined, out=best)
        best -= 1
        merged[subset] = best
        tree[subset] = (
            best if subset == full else graph.relax(best.copy(), cap - 1)
        )

    # Walk the tables back from the best meeting node of all faces, or from
    # the spider's center when nothing beats the spider.
    root = int(merged[full].argmin())
    if merged[full][root] < cap:
        exact, stack = int(merged[full][root]), [(full, root)]
    else:
        exact, stack = cap, [(1 << i, center) for i in range(len(face_set))]
    chosen = set()
    while stack:
        subset, v = stack.pop()
        chosen.add(v)
        value = tree[subset][v]
        if subset in merged and merged[subset][v] == value:
            part = next(
                p for p in _splits(subset)
                if tree[p][v] + tree[subset ^ p][v] - 1 == value
            )
            stack += [(part, v), (subset ^ part, v)]
        elif value > 1:
            row = graph._indices[graph._indptr[v]:graph._indptr[v + 1]]
            stack.append((subset, int(row[tree[subset][row] == value - 1][0])))
    witness = tuple(graph.nodes[v] for v in sorted(chosen))
    return FillResult(exact, exact, exact, witness, False, len(merged))


@dataclass
class GalleryLinkReport:
    """Checks tying link connectivity to gallery connectivity on one complex.

    Local criterion: two k-simplices meeting in a (k-1)-simplex with a
    connected link are joined by a gallery. Inductive criterion: k-gallery
    connectivity plus connected (k-1)-links imply (k+1)-gallery connectivity.
    """

    k: int
    local_pairs_checked: int = 0
    local_vacuous_pairs: int = 0
    local_holds: bool = True
    local_counterexample: tuple | None = None
    inductive_hypotheses_met: bool = False
    inductive_conclusion: bool = False
    details: dict = field(default_factory=dict)

    @property
    def inductive_holds(self) -> bool:
        return (not self.inductive_hypotheses_met) or self.inductive_conclusion

    @property
    def passed(self) -> bool:
        return self.local_holds and self.inductive_holds

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "local_pairs_checked": self.local_pairs_checked,
            "local_vacuous_pairs": self.local_vacuous_pairs,
            "local_holds": self.local_holds,
            "local_counterexample": (
                None
                if self.local_counterexample is None
                else [list(s) for s in self.local_counterexample]
            ),
            "inductive_hypotheses_met": self.inductive_hypotheses_met,
            "inductive_conclusion": self.inductive_conclusion,
            "inductive_holds": self.inductive_holds,
            "passed": self.passed,
        }


def gallery_link_report(complex_: SimplicialComplex, k: int) -> GalleryLinkReport:
    """Verify the link-connectivity criteria for gallery connectivity at level k.

    The k-simplices through a (k-1)-simplex tau are its cofaces, tau joined by
    each link vertex in link-vertex order; a pair of them is joined iff the
    incidence gives both one label.
    """
    if k < 1 or k > complex_.dim - 1:
        raise DegreeError(f"degree {k} outside 1..{complex_.dim - 1}")
    report = GalleryLinkReport(k=k)
    count, face_labels, _ = _incidence_components(complex_, k)

    all_links_connected = True
    for t, tau in enumerate(complex_.simplices(k - 1)):
        link_complex = complex_.link(tau)
        n_link_vertices = link_complex.simplex_count(0)
        connected = n_link_vertices <= 1 or is_gallery_connected(link_complex, 0)
        if n_link_vertices == 0 or not connected:
            all_links_connected = False
        pairs = n_link_vertices * (n_link_vertices - 1) // 2
        if not connected:
            report.local_vacuous_pairs += pairs
            continue
        report.local_pairs_checked += pairs
        faces = complex_.coface_indices(k - 1, t)
        found = face_labels[faces]
        if report.local_holds and (found != found[:1]).any():
            report.local_holds = False
            a, b = next(
                (a, b) for a, b in combinations(range(len(faces)), 2)
                if found[a] != found[b]
            )
            simplices = complex_.simplices(k)
            report.local_counterexample = (simplices[faces[a]], simplices[faces[b]])

    lower_connected = is_gallery_connected(complex_, k - 1)
    report.inductive_hypotheses_met = lower_connected and all_links_connected
    report.inductive_conclusion = count == 1
    report.details = {
        "lower_gallery_connected": lower_connected,
        "all_links_connected": all_links_connected,
    }
    return report
