"""Pure simplicial complexes: construction, skeletons, links, and weights.

Simplices are canonical tuples of strictly increasing vertex ids. A complex
relabels its input vertices to dense ids 0..N-1 at build time (original labels
are kept in a side table for I/O); because the relabeling is monotone, sorted
label tuples map to sorted id tuples and orientation signs are unaffected.
"""

from __future__ import annotations

import json
from itertools import chain, combinations

import numpy as np

__all__ = [
    "ComplexError",
    "DegreeError",
    "InvalidSimplexError",
    "MissingSimplexError",
    "NotPureError",
    "SimplicialComplex",
    "build_complex",
    "complete_complex",
    "load_complex",
    "save_complex_json",
    "save_complex_text",
    "sort_with_sign",
]


class ComplexError(ValueError):
    """Base class for simplicial-complex construction and query errors."""


class InvalidSimplexError(ComplexError):
    """A simplex had repeated vertices or was empty."""


class MissingSimplexError(ComplexError):
    """A queried simplex is not part of the complex."""


class NotPureError(ComplexError):
    """Operation requires a pure complex (every simplex under a top simplex)."""


class DegreeError(ComplexError):
    """A degree/dimension argument is outside the valid range."""


def sort_with_sign(vertices) -> tuple[tuple[int, ...], int]:
    """Sort a vertex tuple, returning (canonical_tuple, permutation_sign).

    The sign is 0 when a vertex repeats, matching the convention that
    alternating functions vanish on degenerate tuples.
    """
    vs = list(vertices)
    sign = 1
    # insertion sort; tuples are short
    for i in range(1, len(vs)):
        j = i
        while j > 0 and vs[j - 1] > vs[j]:
            vs[j - 1], vs[j] = vs[j], vs[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(vs, vs[1:]):
        if a == b:
            return tuple(vs), 0
    return tuple(vs), sign


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque key per row of a 2-D integer array. Keys are the rows'
    big-endian bytes, so they compare like the rows lexicographically when
    the entries are nonnegative, and are equal exactly when the rows are."""
    data = np.ascontiguousarray(rows, dtype=">i8")
    return data.view(np.dtype((np.void, 8 * data.shape[1]))).ravel()


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D integer array in lexicographic order, and
    where each input row sits among them. Rows are compared whole."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.int64)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _canonical(vertices) -> tuple[int, ...]:
    simplex = tuple(sorted(map(int, vertices)))
    if not simplex:
        raise InvalidSimplexError("empty simplex")
    if len(set(simplex)) < len(simplex):
        raise InvalidSimplexError(f"repeated vertex in simplex {vertices!r}")
    return simplex


def _generating_rows(simplices) -> list[np.ndarray]:
    """Generating simplices as int64 arrays of sorted rows, one per size."""
    rows = [_canonical(s) for s in simplices]
    try:
        flat = np.fromiter(chain.from_iterable(rows), dtype=np.int64)
    except OverflowError:
        int64 = np.iinfo(np.int64)
        label = next(v for v in chain.from_iterable(rows)
                     if not int64.min <= v <= int64.max)
        raise ComplexError(f"vertex label {label} outside the int64 range") from None
    sizes = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    starts = np.cumsum(sizes) - sizes
    return [flat[starts[sizes == size, None] + np.arange(size)]
            for size in np.unique(sizes).tolist()]


class SimplicialComplex:
    """Immutable downward-closed complex with dense vertex ids.

    All query methods take and return simplices as tuples of dense ids.
    ``labels[i]`` recovers the original label of vertex id ``i``. Each level
    is stored as a row array; the tuple lists and index dicts behind
    `simplices`, `index_of`, `contains` and `from_labels` are made on first
    use.
    """

    __slots__ = ("dim", "labels", "_label_to_id", "_rows", "_facets", "_tuples",
                 "_indexes", "_cofaces", "_weights", "_pure", "_cache", "__weakref__")

    def __init__(self, generating_simplices, *, allow_empty: bool = False):
        self._build(_generating_rows(generating_simplices), allow_empty)

    @classmethod
    def from_rows(cls, *blocks) -> "SimplicialComplex":
        """The complex generated by 2-D integer arrays, one simplex per row.

        The same complex as the constructor builds from the rows listed block
        after block, without a Python object per simplex.
        """
        rows = [np.sort(np.asarray(block, dtype=np.int64), axis=1) for block in blocks]
        if any(b.shape[1] == 0 or (b[:, 1:] == b[:, :-1]).any() for b in rows):
            # the constructor names the first invalid row
            return cls([row for block in blocks for row in np.asarray(block).tolist()])
        complex_ = cls.__new__(cls)
        complex_._build(rows, False)
        return complex_

    def _build(self, blocks: list[np.ndarray], allow_empty: bool) -> None:
        """Levels top down from sorted generating rows: level k is the
        distinct rows among the k-simplices given and the facets of level
        k+1, and where each of those facets lands is level k+1's facet
        table."""
        blocks = [block for block in blocks if len(block)]
        if not blocks and not allow_empty:
            raise ComplexError("a complex needs at least one simplex")
        labels = (np.unique(np.concatenate([block.ravel() for block in blocks]))
                  if blocks else np.zeros(0, dtype=np.int64))
        self.labels = tuple(labels.tolist())
        self._label_to_id = None
        self.dim = max((block.shape[1] for block in blocks), default=0) - 1
        by_size: list[list] = [[] for _ in range(self.dim + 2)]
        for block in blocks:
            by_size[block.shape[1]].append(np.searchsorted(labels, block))

        self._rows = [None] * (self.dim + 1)
        # _facets[k], k >= 1: the (n_k, k+1) facet indices of the k-simplices
        self._facets = [None] * (self.dim + 1)
        facets = np.zeros((0, self.dim + 1), dtype=np.int64)  # of level k+1
        for k in range(self.dim, -1, -1):
            given = by_size[k + 1]
            level, where = _unique_rows(np.concatenate(given + [facets]))
            self._rows[k] = _read_only(level)
            if k < self.dim:
                placed = where[sum(map(len, given)):]
                self._facets[k + 1] = _read_only(placed.reshape(-1, k + 2))
            if k > 0:
                keep = [[c for c in range(k + 1) if c != j] for j in range(k + 1)]
                facets = level[:, keep].reshape(-1, k)
        self._tuples = [None] * (self.dim + 1)
        self._indexes = [None] * (self.dim + 1)

        # cofaces[k] = CSR (indptr, indices): the (k+1)-simplices containing
        # k-simplex i are indices[indptr[i]:indptr[i+1]], in increasing order.
        # The top level has none.
        self._cofaces = []
        for k in range(self.dim + 1):
            n_faces = len(self._rows[k])
            facets = self.facet_table(k + 1).ravel()
            indptr = np.zeros(n_faces + 1, dtype=np.int64)
            np.cumsum(np.bincount(facets, minlength=n_faces), out=indptr[1:])
            indices = np.argsort(facets, kind="stable") // (k + 2)
            self._cofaces.append((_read_only(indptr), _read_only(indices)))

        # weight recursion: w_n = 1 on top simplices; w_k(t) = sum of w_{k+1}
        # over cofaces of t, which equals (n-k)! * #{top simplices containing t}.
        # The top level has no cofaces, so its sums are 0 and it adds the 1.
        # Object arrays keep the sums exact Python integers.
        self._weights: list[list[int]] = []
        up = np.zeros(0, dtype=object)
        for k in range(self.dim, -1, -1):
            indptr, indices = self._cofaces[k]
            sums = np.zeros(len(indices) + 1, dtype=object)
            np.cumsum(up[indices], out=sums[1:])
            up = sums[indptr[1:]] - sums[indptr[:-1]] + int(k == self.dim)
            self._weights.insert(0, up.tolist())
        self._pure = all(min(level, default=1) > 0 for level in self._weights)
        self._cache: dict = {}

    # -- basic queries ------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.labels)

    @property
    def is_pure(self) -> bool:
        """True iff every simplex is a face of a top-dimensional simplex."""
        return self._pure

    def simplices(self, k: int) -> list[tuple[int, ...]]:
        """Canonical k-simplices in sorted order. k=-1 gives [()]."""
        if k == -1:
            return [()]
        if k < -1:
            raise DegreeError(f"invalid dimension {k}")
        if k > self.dim:
            return []
        if self._tuples[k] is None:
            self._tuples[k] = list(map(tuple, self._rows[k].tolist()))
        return self._tuples[k]

    def simplex_rows(self, k: int) -> np.ndarray:
        """The k-simplices as a read-only (n_k, k+1) int64 array, canonical order."""
        if k < 0:
            raise DegreeError(f"invalid dimension {k}")
        if k > self.dim:
            return np.empty((0, k + 1), dtype=np.int64)
        return self._rows[k]

    def simplex_count(self, k: int) -> int:
        return 1 if k == -1 else len(self.simplex_rows(k))

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(rows) for rows in self._rows)

    def _level_index(self, k: int) -> dict:
        if self._indexes[k] is None:
            self._indexes[k] = {s: i for i, s in enumerate(self.simplices(k))}
        return self._indexes[k]

    def contains(self, simplex) -> bool:
        s = _canonical(simplex)
        k = len(s) - 1
        return k <= self.dim and s in self._level_index(k)

    def index_of(self, simplex) -> int:
        s = _canonical(simplex)
        k = len(s) - 1
        if k > self.dim or s not in self._level_index(k):
            raise MissingSimplexError(f"simplex {simplex!r} not in complex")
        return self._level_index(k)[s]

    def facet_table(self, k: int) -> np.ndarray:
        """Facets of every k-simplex (k >= 1) as a read-only (n_k, k+1) array.

        Entry ``[i, j]`` is the index of the (k-1)-simplex that omits column
        j of k-simplex i, the table `facet_indices(simplex_rows(k))` gives;
        it is kept from the build.
        """
        if k < 1:
            raise DegreeError(f"no facets in dimension {k}")
        if k > self.dim:
            return np.empty((0, k + 1), dtype=np.int64)
        return self._facets[k]

    def facet_indices(self, rows) -> np.ndarray:
        """Canonical indices of the facets of simplices given as vertex rows.

        ``rows`` is an (M, w) integer array of strictly increasing dense ids.
        Entry ``[i, j]`` of the (M, w) result is the index of the
        (w-2)-simplex that omits column j of row i. Rows are compared whole,
        never packed into one integer, so the lookup is exact at every
        vertex count.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] < 2:
            raise DegreeError("facet lookup needs an (M, w) array with w >= 2")
        width = rows.shape[1]
        unsorted = rows[:, 1:] <= rows[:, :-1]
        if unsorted.any():
            row = rows[unsorted.any(axis=1).argmax()]
            raise InvalidSimplexError(f"row {row.tolist()} is not strictly increasing")
        keep = [[c for c in range(width) if c != j] for j in range(width)]
        faces = rows[:, keep].reshape(-1, width - 1)
        table = self.simplex_rows(width - 2)
        pos = np.searchsorted(_row_keys(table), _row_keys(faces))
        found = pos < len(table)
        found[found] = (table[pos[found]] == faces[found]).all(axis=1)
        if not found.all():
            face = faces[found.argmin()]
            raise MissingSimplexError(f"simplex {tuple(face.tolist())!r} not in complex")
        return pos.reshape(rows.shape)

    def coface_csr(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Cofaces of every k-simplex as a read-only CSR pair (indptr, indices).

        The (k+1)-simplices containing k-simplex i are
        ``indices[indptr[i]:indptr[i+1]]``, in increasing order.
        """
        if k < 0 or k > self.dim:
            raise DegreeError(f"degree {k} outside 0..{self.dim}")
        return self._cofaces[k]

    def coface_indices(self, k: int, i: int) -> list[int]:
        """Indices of the (k+1)-simplices containing the i-th k-simplex."""
        if k >= self.dim:
            return []
        indptr, indices = self._cofaces[k]
        return indices[indptr[i]:indptr[i + 1]].tolist()

    def weights_of_dim(self, k: int) -> list[int]:
        """m-values of all k-simplices (exact integers), canonical order."""
        if not self._pure:
            raise NotPureError("weights are only defined on pure complexes")
        if k < 0 or k > self.dim:
            raise DegreeError(f"no weights in dimension {k}")
        return self._weights[k]

    def weight(self, simplex) -> int:
        """(n-k)! times the number of top simplices containing ``simplex``."""
        if not self._pure:
            raise NotPureError("weights are only defined on pure complexes")
        s = _canonical(simplex)
        return self._weights[len(s) - 1][self.index_of(s)]

    def _cached(self, key: tuple, build):
        """The derived value kept under `key`, made by `build()` on first use.

        Other modules keep what they derive from the complex here, keyed by
        (quantity, degree, ...). A kept value must not reference the complex:
        a cycle would hold every complex until the cycle collector runs.
        """
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    # -- labels -------------------------------------------------------------

    def to_labels(self, simplex) -> tuple:
        return tuple(self.labels[v] for v in simplex)

    def from_labels(self, simplex) -> tuple[int, ...]:
        if self._label_to_id is None:
            self._label_to_id = {lab: i for i, lab in enumerate(self.labels)}
        try:
            return _canonical(self._label_to_id[v] for v in simplex)
        except KeyError as exc:
            raise MissingSimplexError(f"unknown vertex label {exc}") from None

    # -- derived complexes --------------------------------------------------

    def link(self, simplex) -> "SimplicialComplex":
        """Subcomplex of faces disjoint from ``simplex`` whose union with it
        lies in the complex. The empty simplex gives the complex itself."""
        tau = tuple(simplex)
        if not tau:
            return self
        tau = _canonical(tau)
        self.index_of(tau)  # membership check
        tau_set = set(tau)
        members = []
        for k in range(self.dim - len(tau) + 1):
            for s in self.simplices(k):
                if tau_set.isdisjoint(s):
                    joint = tuple(sorted(s + tau))
                    kj = len(joint) - 1
                    if kj <= self.dim and joint in self._level_index(kj):
                        members.append(self.to_labels(s))
        return SimplicialComplex(members, allow_empty=True)

    def _maximal_rows(self) -> list[np.ndarray]:
        """Rows of the simplices with no coface, level by level."""
        return [rows[indptr[1:] == indptr[:-1]]
                for rows, (indptr, _) in zip(self._rows, self._cofaces)]

    def maximal_simplices(self) -> list[tuple[int, ...]]:
        """Simplices with no coface, in canonical order (dense ids)."""
        return [tuple(row) for rows in self._maximal_rows() for row in rows.tolist()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimplicialComplex(dim={self.dim}, f={self.f_vector()})"


def build_complex(maximal_simplices) -> SimplicialComplex:
    """Build the downward closure of the given simplices.

    Vertex labels may be arbitrary integers; they are relabeled densely.
    Entries that turn out to be faces of other entries are absorbed.
    """
    return SimplicialComplex(maximal_simplices)


# -- file formats ------------------------------------------------------------
#
# Text: one maximal simplex per line, whitespace-separated vertex labels,
# '#' starts a comment line. JSON: {"maximal": [[...], ...]}.


def _parse_text(text: str) -> list[list[int]]:
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        try:
            rows.append([int(tok) for tok in stripped.split()])
        except ValueError:
            raise ComplexError(f"line {lineno}: expected integer vertex ids")
    return rows


def load_complex(path) -> SimplicialComplex:
    """Load a complex from the text or JSON maximal-simplex format."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        data = json.loads(text)
        if "maximal" not in data:
            raise ComplexError("JSON complex file needs a 'maximal' key")
        rows = data["maximal"]
    else:
        rows = _parse_text(text)
    if not rows:
        raise ComplexError(f"no simplices found in {path}")
    return build_complex(rows)


def _maximal_labels(complex_: SimplicialComplex) -> list[list[int]]:
    labels = np.array(complex_.labels, dtype=np.int64)
    return [row for rows in complex_._maximal_rows() for row in labels[rows].tolist()]


def save_complex_text(complex_: SimplicialComplex, path) -> None:
    lines = [" ".join(map(str, row)) for row in _maximal_labels(complex_)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def save_complex_json(complex_: SimplicialComplex, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"maximal": _maximal_labels(complex_)}, fh, separators=(",", ":"),
                  sort_keys=True)
        fh.write("\n")


def complete_complex(num_vertices: int, dim: int) -> SimplicialComplex:
    """All subsets of {0..num_vertices-1} of size <= dim+1."""
    if num_vertices < dim + 1:
        raise ComplexError("not enough vertices for the requested dimension")
    return build_complex(combinations(range(num_vertices), dim + 1))
