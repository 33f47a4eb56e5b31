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
from functools import cached_property
from itertools import combinations

import numpy as np

from .complexes import DegreeError, MissingSimplexError, SimplicialComplex, _read_only

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
# Entries of one block of face tables or Dreyfus-Wagner tables: the batched
# kernels work through their rows in blocks of about this many entries.
BLOCK_ENTRIES = 1 << 22
# _BITS[b] spreads the 8 bits of byte b over the 8 bytes of a uint64, low bit
# first, so one gather unpacks a packed bit row into 0/1 bytes
_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).view(np.uint64).ravel()


class UnfillableError(ValueError):
    """Some pair of the face set cannot be joined by any gallery."""


def _coface_table(complex_: SimplicialComplex, k: int):
    """The cofaces of each k-face, kept on the complex per k, in the hybrid
    layout of Bell and Garland (SC 2009): a read-only (faces, width) table
    that holds each face's first `width` cofaces in increasing order, padded
    with n_{k+1}, one past the last (k+1)-simplex; and, for the busy faces
    that have more, the rest as a CSR over those faces (busy, starts, rest).
    The width is at most twice the mean coface count plus 2, so the table
    holds at most twice as many entries as the incidences and faces, and
    one busy face costs only its own cofaces."""
    def build():
        indptr, cofaces = complex_.coface_csr(k)
        sizes = np.diff(indptr)
        width = max(1, min(int(sizes.max(initial=0)),
                           2 * (len(cofaces) + len(sizes)) // max(1, len(sizes))))
        table = np.full((len(sizes), width), complex_.simplex_count(k + 1), dtype=np.intp)
        owner = np.repeat(np.arange(len(sizes)), sizes)
        column = np.arange(len(cofaces)) - indptr[owner]
        fits = column < width
        table[owner[fits], column[fits]] = cofaces[fits]
        extra = np.maximum(sizes - width, 0)
        busy = np.flatnonzero(extra)
        starts = np.cumsum(extra[busy]) - extra[busy]
        return tuple(map(_read_only, (table, busy, starts, cofaces[~fits])))

    return complex_._cached(("coface table", k), build)


def _segments(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Positions of the runs starting at `starts` of `counts` entries each,
    one run after another: the entries of some rows of a CSR array."""
    ends = np.cumsum(counts)
    positions = np.repeat(starts - ends + counts, counts)
    positions += np.arange(len(positions))
    return positions


def _components(size: int, a: np.ndarray, b: np.ndarray) -> tuple[int, np.ndarray]:
    """Components of the graph on nodes 0..size-1 with edges (a[i], b[i]).

    Returns their number and the node labels, numbered as csgraph numbers
    them: by their smallest node. Each round hooks the larger root of every
    edge that still joins two roots under the smaller one, then jumps
    pointers until every node points at its root, so a root is always its
    component's smallest node.
    """
    parent = np.arange(size)
    while True:
        u, v = parent[a], parent[b]
        live = u != v
        if not live.any():
            break
        a, b, u, v = a[live], b[live], u[live], v[live]
        np.minimum.at(parent, np.maximum(u, v), np.minimum(u, v))
        while not np.array_equal(grand := parent[parent], parent):
            parent = grand
    roots, labels = np.unique(parent, return_inverse=True)
    return len(roots), labels


def _incidence_components(
    complex_: SimplicialComplex, k: int
) -> tuple[int, np.ndarray, np.ndarray]:
    """Components of the graph joining each k-face to the (k+1)-simplices on it.

    Returns their number and the labels of the k-faces and of the
    (k+1)-simplices, kept on the complex per k. Two (k+1)-simplices, or two
    distinct k-faces, share a component iff a gallery joins them; a k-face in
    no (k+1)-simplex is a component of its own.
    """
    def build():
        indptr, indices = complex_.coface_csr(k)
        n_faces = len(indptr) - 1
        # nodes 0..n_faces-1 are the faces, n_faces + j is (k+1)-simplex j
        count, labels = _components(
            n_faces + complex_.simplex_count(k + 1),
            np.repeat(np.arange(n_faces), np.diff(indptr)), indices + n_faces,
        )
        labels.flags.writeable = False
        return count, labels[:n_faces], labels[n_faces:]

    return complex_._cached(("gallery labels", k), build)


class GalleryGraph:
    """Adjacency among (k+1)-simplices sharing a k-face, as one CSR.

    With B the k-face x (k+1)-simplex incidence, the adjacency is B^T B
    minus its diagonal: two distinct (k+1)-simplices share at most one k-face.
    The face graph, the k-faces adjacent when one node holds both, is walked
    through the facet table and the coface table by the bit-parallel search
    of `_levels`. What a graph reads is built on first use and kept on the
    complex per k, so a graph is cheap to make.
    """

    def __init__(self, complex_: SimplicialComplex, k: int):
        if k < 0 or k > complex_.dim:
            raise DegreeError(f"degree {k} outside 0..{complex_.dim}")
        self.complex = complex_
        self.k = k
        self.num_nodes = complex_.simplex_count(k + 1)
        _, self._face_components, self.components = _incidence_components(complex_, k)
        self._face_count = complex_.simplex_count(k)
        self._node_faces = complex_.facet_table(k + 1)

    @cached_property
    def _adjacency(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The node adjacency's indptr, indices and row lengths. Rows are in
        no particular order. Only the Dreyfus-Wagner search and the witness
        walk of `fill_number` step from node to node."""
        complex_, k = self.complex, self.k

        def build():
            # a node's neighbours are the other cofaces of each of its
            # k-faces, face by face; each face's cofaces hold the node once
            indptr, cofaces = complex_.coface_csr(k)
            faces = complex_.facet_table(k + 1)
            counts = np.diff(indptr)[faces]
            found = cofaces[_segments(indptr[faces.ravel()], counts.ravel())]
            sizes = counts.sum(axis=1)
            found = found[found != np.repeat(np.arange(len(faces)), sizes)]
            degrees = sizes - (k + 2)
            return np.concatenate([[0], np.cumsum(degrees)]), found, degrees

        return complex_._cached(("node adjacency", k), build)

    @property
    def nodes(self) -> list[tuple[int, ...]]:
        """The (k+1)-simplices as tuples, node i first."""
        return self.complex.simplices(self.k + 1)

    def _neighbours(self, nodes: np.ndarray) -> np.ndarray:
        """Adjacency rows of a node array, concatenated."""
        indptr, indices, degrees = self._adjacency
        return indices[_segments(indptr[nodes], degrees[nodes])]

    def relax(self, table: np.ndarray, cap: int) -> np.ndarray:
        """Lower `table` in place to min over u of table[u] + dist(u, v).

        `table` is one row over the nodes or a contiguous (rows, nodes)
        array whose rows are relaxed each on its own. Levels are settled in
        increasing order, each pushing one step from every (row, node) entry
        at that level to the node's neighbours, so every entry that ends at
        most `cap` is exact; entries above `cap` only stay above it. Stops
        early once no entry lies between the level reached and `cap`.
        """
        flat = table.reshape(-1)
        level = int(flat.min(initial=cap))
        while level < cap:
            frontier = (flat == level).nonzero()[0]
            if frontier.size:
                nodes = frontier % self.num_nodes
                reached = self._neighbours(nodes)
                reached += np.repeat(frontier - nodes, self._adjacency[2][nodes])
                flat[reached] = np.minimum(flat[reached], level + 1)
            elif not ((flat > level) & (flat < cap)).any():
                break
            level += 1
        return table

    def _levels(self, sources: np.ndarray, dtype=np.uint8) -> np.ndarray:
        """Face-graph distances from each source, by one multi-source BFS.

        The search of Then et al. (PVLDB 8(4), 2014): each face keeps one bit
        per source in packed uint64 words, and a level moves every source at
        once. Each node holds the OR of its k-faces' frontier words, and a
        face reaches the OR over its cofaces minus what it has seen: the
        coface table's columns, whose pad reads a zero row past the last
        node, and one `reduceat` over the busy faces' other cofaces. Levels run
        until no source advances. Bit b of the levels that reach each face
        collects in a plane of its own, so the distances are unpacked once, a
        byte of planes at a time. Returns a (faces, sources) array of `dtype`,
        or of the smallest wider unsigned dtype that holds the last level + 2,
        with its maximum - 1 where unreached.
        """
        count = len(sources)
        start = np.ones((self._face_count, -(-count // 64) * 64), dtype=bool)
        start[sources, np.arange(count)] = False
        unseen = np.packbits(start, axis=1, bitorder="little").view(np.uint64)
        frontier = ~unseen
        cofaces, busy, starts, rest = _coface_table(self.complex, self.k)
        held = np.zeros((self.num_nodes + 1, unseen.shape[1]), dtype=np.uint64)
        body = held[:-1]
        planes = []
        level = 0
        while True:
            body[:] = frontier.take(self._node_faces[:, 0], axis=0)
            for column in self._node_faces.T[1:]:
                body |= frontier.take(column, axis=0)
            frontier = held.take(cofaces[:, 0], axis=0)
            for column in cofaces.T[1:]:
                frontier |= held.take(column, axis=0)
            if len(busy):
                frontier[busy] |= np.bitwise_or.reduceat(
                    held.take(rest, axis=0), starts, axis=0)
            frontier &= unseen
            if not frontier.any():
                break
            level += 1
            unseen ^= frontier
            if level & (level - 1) == 0:
                planes.append(frontier.copy())
            else:
                for bit, plane in enumerate(planes):
                    if level >> bit & 1:
                        plane |= frontier
        dtype = np.promote_types(dtype, np.min_scalar_type(level + 2))
        dist = np.zeros((self._face_count, count), dtype=dtype)
        # each byte lane gathers eight bits of one distance
        for low in range(0, len(planes), 8):
            lanes = np.zeros((self._face_count, unseen.shape[1] * 8), dtype=np.uint64)
            for bit, plane in enumerate(planes[low:low + 8]):
                lanes |= _BITS[plane.view(np.uint8)] << np.uint64(bit)
            dist |= lanes.view(np.uint8)[:, :count].astype(dtype) << low
        unreached = _BITS[unseen.view(np.uint8)].view(bool)[:, :count]
        np.copyto(dist, np.iinfo(dtype).max - 1, where=unreached)
        return dist

    def _nearest(self, dist: np.ndarray) -> np.ndarray:
        """Min over each node's k-faces of the rows of a (faces, m) array."""
        block = dist[self._node_faces[:, 0]]
        for column in self._node_faces.T[1:]:
            np.minimum(block, dist[column], out=block)
        return block

    def face_tables(self, faces) -> np.ndarray:
        """Node-count distances from the stars of k-faces, one row per face.

        A node of the face's star costs 1 and each gallery step adds 1, so
        an entry is 1 + the least face-graph distance from the face to a
        k-face of the node. Rows come in blocks of faces from the
        multi-source BFS of `_levels`, and are stored in the smallest
        unsigned dtype that holds them. Nodes of other components hold the
        dtype's maximum, above every real entry.
        """
        faces = np.asarray(faces, dtype=np.intp)
        tables = np.empty((len(faces), self.num_nodes), dtype=np.uint8)
        step = max(1, BLOCK_ENTRIES // self._face_count)
        width = max(1, BLOCK_ENTRIES // max(1, self.num_nodes))
        for start in range(0, len(faces), step):
            dist = self._levels(faces[start:start + step], tables.dtype)
            if dist.dtype != tables.dtype:  # widen, and move the unreached marker along
                marker = np.iinfo(tables.dtype).max
                tables = tables.astype(dist.dtype)
                tables[:start][tables[:start] == marker] = np.iinfo(dist.dtype).max
            for first in range(0, dist.shape[1], width):
                part = self._nearest(dist[:, first:first + width]).T + 1
                tables[start + first:start + first + len(part)] = part
            del dist, part  # free the block before the next one's search
        return tables

    def steiner_tables(self, tables: np.ndarray, caps: np.ndarray):
        """Dreyfus-Wagner tables over the face subsets of a batch of face sets.

        `tables` is an (m, s, nodes) int64 array of the face tables of m sets
        of s faces, and `caps` their spider fills. Returns the dicts `tree`
        and `merged` by face bitmask, each entry an (m, nodes) array:
        ``tree[S]`` is the fewest nodes of a connected set that holds the node
        and touches every star in S, and ``merged[S]`` its value where two
        parts of S meet, ``min over splits A|B of tree[A] + tree[B] - 1``.
        The spider is a filling of `cap` nodes, so each row need only be
        exact below its cap: entries under it are exact, and the others only
        say "at least cap". The relaxation therefore stops at the largest cap
        of the batch, which is still exact for every row.
        """
        s = tables.shape[1]
        full = (1 << s) - 1
        limit = int(caps.max()) - 1
        tree = {1 << i: np.minimum(tables[:, i], caps[:, None]) for i in range(s)}
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
            tree[subset] = best if subset == full else self.relax(best.copy(), limit)
        return tree, merged

    def fill_numbers(self, faces) -> np.ndarray:
        """Exact filling numbers of face sets given as rows of k-face indices.

        `faces` is an (M, s) array, s >= 2, of distinct k-face indices per
        row, such as `complex_.facet_indices(rows)` for the boundaries of
        (k+1)-simplex rows. Every row's faces must share one gallery
        component: for the first row whose faces do not, `fill_number`
        raises its UnfillableError. A row's spider, the fewest nodes of
        shortest galleries from one node to every star, is
        ``min_v sum_i t_i(v) - (s - 1)``. With at most three faces nothing
        beats it: a minimal connected set touching three stars has at most
        one branch node. With more faces, rows whose spider exceeds 2 run
        the Dreyfus-Wagner recursion of `steiner_tables`, the member as the
        leading array axis. Rows go in blocks of about BLOCK_ENTRIES entries.
        """
        faces = np.asarray(faces, dtype=np.intp)
        labels = self._face_components[faces]
        apart = (labels != labels[:, :1]).any(axis=1)
        if apart.any():
            simplices = self.complex.simplices(self.k)
            fill_number(self.complex, [simplices[i] for i in faces[apart.argmax()]])
        used, where = np.unique(faces, return_inverse=True)
        tables = self.face_tables(used)
        where = where.reshape(faces.shape)
        s = faces.shape[1]
        fills = np.empty(len(faces), dtype=np.int64)
        # narrowest dtype that holds a sum of s entries: small rows stay in cache
        wide = np.min_scalar_type(s * int(np.iinfo(tables.dtype).max))
        step = max(1, BLOCK_ENTRIES // max(1, self.num_nodes << s))
        for start in range(0, len(faces), step):
            rows = where[start:start + step]
            spider = tables[rows[:, 0]].astype(wide)
            for column in rows.T[1:]:
                spider += tables[column]
            fills[start:start + step] = spider.min(axis=1) - (s - 1)
        if s <= 3:
            return fills
        # a block holds 2^s subset tables, and relaxing one pushes along
        # every adjacency entry of its rows
        search = np.flatnonzero(fills > 2)
        step = max(1, BLOCK_ENTRIES // ((len(self._adjacency[1]) + self.num_nodes) << s))
        for start in range(0, len(search), step):
            rows = search[start:start + step]
            caps = fills[rows]
            _, merged = self.steiner_tables(tables[where[rows]].astype(np.int64), caps)
            fills[rows] = np.minimum(merged[(1 << s) - 1].min(axis=1), caps)
        return fills


def _face_distances(complex_: SimplicialComplex, face: tuple) -> np.ndarray:
    """Face-graph distances from a k-face to every k-face, inf when unreached.

    A gallery of m simplices passes through m + 1 faces, each two
    consecutive ones in one simplex, so between distinct faces this is the
    gallery distance. The face search of `GalleryGraph` with one source.
    """
    graph = GalleryGraph(complex_, len(face) - 1)
    dist = graph._levels(np.array([complex_.index_of(face)]))[:, 0]
    return np.where(dist == np.iinfo(dist.dtype).max - 1, INF, dist)


def _length(dist: float):
    return INF if dist == INF else int(dist)


def gallery_distance(complex_: SimplicialComplex, eta0, eta1):
    """Minimal gallery length joining two k-simplices; inf when none exists."""
    s0 = tuple(sorted(eta0))
    s1 = tuple(sorted(eta1))
    if len(s0) != len(s1):
        raise DegreeError("both simplices must have the same dimension")
    complex_.index_of(s0)  # raises for a missing eta0, also when eta1 is it
    i1 = complex_.index_of(s1)
    if s0 == s1:
        return 0
    return _length(_face_distances(complex_, s0)[i1])


def is_gallery_connected(complex_: SimplicialComplex, k: int) -> bool:
    """True iff every pair of k-simplices is joined by a (k+1)-gallery.

    That is, some (k+1)-simplex exists and the face-coface incidence is one
    component: a k-simplex in no (k+1)-simplex is a component of its own
    (the quantifier includes a simplex paired with itself).
    """
    if k < 0 or k > complex_.dim:
        raise DegreeError(f"degree {k} outside 0..{complex_.dim}")
    if complex_.simplex_count(k + 1) == 0:
        return False
    return _incidence_components(complex_, k)[0] == 1


def gallery_distances_from(complex_: SimplicialComplex, tau) -> dict[tuple, float]:
    """Gallery distances from one k-simplex to every k-simplex."""
    face = tuple(sorted(tau))
    dists = _face_distances(complex_, face).tolist()
    return dict(zip(complex_.simplices(len(face) - 1), map(_length, dists)))


def gallery_ball_sizes(complex_: SimplicialComplex, tau, r_max: int) -> list[int]:
    """|B(tau, r)| for r = 0..r_max under the gallery distance."""
    dists = gallery_distances_from(complex_, tau)
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


def _splits(subset: int):
    """Proper parts of a face bitmask that hold its lowest face, so each
    unordered split into two nonempty parts is produced once."""
    low = subset & -subset
    part = (subset - 1) & subset
    while part:
        if part & low:
            yield part
        part = (part - 1) & subset


def fill_number(complex_: SimplicialComplex, faces) -> FillResult:
    """Minimal number of (k+1)-simplices gallery-connecting every pair of faces.

    A star is a clique of the gallery graph, so the simplices a filling takes
    from one star lie in one connected part of it; joining every pair then
    means one connected part touches every star. The filling number is thus
    the node-weighted group Steiner number of the stars, which the
    Dreyfus–Wagner dynamic program over face subsets
    (`GalleryGraph.steiner_tables`) computes exactly. This is the reference
    that `GalleryGraph.fill_numbers` is tested against: it runs the recursion
    at any number of faces, where the batch takes the spider at three or
    fewer, and walks the tables back to one filling that attains the number.
    """
    face_set = sorted({tuple(sorted(f)) for f in faces})
    if len({len(f) for f in face_set}) > 1:
        raise DegreeError("faces must share one dimension")
    face_ids = [complex_.index_of(f) for f in face_set]
    if len(face_set) <= 1:
        return FillResult(0, 0, 0, ())
    k = len(face_set[0]) - 1
    graph = GalleryGraph(complex_, k)

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
    # filling of `cap` nodes; the recursion runs as a batch of one face set.
    tables = graph.face_tables(face_ids).astype(np.int64)
    spider = tables.sum(axis=0) - (len(face_set) - 1)
    center = int(spider.argmin())
    cap = int(spider[center])
    full = (1 << len(face_set)) - 1
    tree, merged = graph.steiner_tables(tables[None], np.array([cap]))
    tree = {subset: table[0] for subset, table in tree.items()}
    merged = {subset: table[0] for subset, table in merged.items()}

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
            indptr, indices, _ = graph._adjacency
            row = indices[indptr[v]:indptr[v + 1]]
            stack.append((subset, int(row[tree[subset][row] == value - 1].min())))
    witness = tuple(graph.nodes[v] for v in sorted(chosen))
    return FillResult(exact, exact, exact, witness, False, len(merged))


@dataclass
class GalleryLinkReport:
    """Checks tying link connectivity to gallery connectivity on one complex.

    Inductive criterion: k-gallery connectivity plus connected (k-1)-links
    imply (k+1)-gallery connectivity.
    """

    k: int
    inductive_hypotheses_met: bool = False
    inductive_conclusion: bool = False
    details: dict = field(default_factory=dict)

    @property
    def inductive_holds(self) -> bool:
        return (not self.inductive_hypotheses_met) or self.inductive_conclusion


def _link_components(
    complex_: SimplicialComplex, k: int, owner: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """Number of components of the link of every (k-1)-simplex tau.

    `owner` and `indices` list the entries of the level-(k-1) coface CSR:
    entry e is the k-simplex indices[e] on tau owner[e], which is one vertex
    of tau's link. The link's edges are tau's (k+1)-cofaces, each joining
    its two k-faces through tau, so one labelling over the entries settles
    every link at once.
    """
    n_k = complex_.simplex_count(k)
    keys = owner * n_k + indices  # increasing: rows by tau, sorted within
    rho = complex_.facet_table(k + 1)
    sigma = complex_.facet_table(k)
    # tau is rho without vertices a < b; in the face of rho without a,
    # vertex b sits at column b - 1
    a, b = np.triu_indices(k + 2, 1)
    tau = sigma[rho[:, a], b - 1].ravel()
    ends = [np.searchsorted(keys, tau * n_k + rho[:, c].ravel()) for c in (a, b)]
    count, labels = _components(len(keys), *ends)
    link_of = np.empty(count, dtype=np.intp)
    link_of[labels] = owner
    return np.bincount(link_of, minlength=complex_.simplex_count(k - 1))


def gallery_link_report(complex_: SimplicialComplex, k: int) -> GalleryLinkReport:
    """Verify the inductive link-connectivity criterion at level k."""
    if k < 1 or k > complex_.dim - 1:
        raise DegreeError(f"degree {k} outside 1..{complex_.dim - 1}")
    report = GalleryLinkReport(k=k)
    count = _incidence_components(complex_, k)[0]

    indptr, indices = complex_.coface_csr(k - 1)
    sizes = np.diff(indptr)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    connected = _link_components(complex_, k, owner, indices) <= 1
    all_links_connected = bool((connected & (sizes > 0)).all())

    lower_connected = is_gallery_connected(complex_, k - 1)
    report.inductive_hypotheses_met = lower_connected and all_links_connected
    report.inductive_conclusion = count == 1
    report.details = {
        "lower_gallery_connected": lower_connected,
        "all_links_connected": all_links_connected,
    }
    return report
