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


class SimplicialComplex:
    """Immutable downward-closed complex with dense vertex ids.

    All query methods take and return simplices as tuples of dense ids.
    ``labels[i]`` recovers the original label of vertex id ``i``.
    """

    __slots__ = ("dim", "labels", "_label_to_id", "_simplices", "_rows", "_index",
                 "_cofaces", "_weights", "_pure", "_differentials",
                 "_gallery_labels")

    def __init__(self, generating_simplices, *, allow_empty: bool = False):
        generating = [_canonical(s) for s in generating_simplices]
        if not generating and not allow_empty:
            raise ComplexError("a complex needs at least one simplex")

        label_set = sorted({v for s in generating for v in s})
        self.labels = tuple(label_set)
        self._label_to_id = {lab: i for i, lab in enumerate(label_set)}
        generating = [tuple(map(self._label_to_id.__getitem__, s)) for s in generating]

        self.dim = max((len(s) - 1 for s in generating), default=-1)
        per_dim: list[set] = [set() for _ in range(self.dim + 1)]
        for s in generating:
            per_dim[len(s) - 1].add(s)
        for k in range(self.dim, 0, -1):
            per_dim[k - 1].update(chain.from_iterable(combinations(s, k) for s in per_dim[k]))

        self._simplices = [sorted(level) for level in per_dim]
        self._rows = [
            _read_only(np.array(level, dtype=np.int64).reshape(-1, k + 1))
            for k, level in enumerate(self._simplices)
        ]
        self._index = [
            {s: i for i, s in enumerate(level)} for level in self._simplices
        ]

        # cofaces[k] = CSR (indptr, indices): the (k+1)-simplices containing
        # k-simplex i are indices[indptr[i]:indptr[i+1]], in increasing order.
        # The top level has none. Every facet is in the complex, so the facet
        # search needs none of the checks of `facet_indices`.
        self._cofaces = []
        for k in range(self.dim + 1):
            n_faces = len(self._simplices[k])
            facets, _ = self._facet_search(self.simplex_rows(k + 1))
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
        self._pure = all(all(w > 0 for w in level) for level in self._weights)
        # incidence matrices by degree, filled by cochains.differential_matrix
        self._differentials: dict = {}
        # gallery component labels by degree, filled by gallery._incidence_components
        self._gallery_labels: dict = {}

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
        return self._simplices[k]

    def simplex_rows(self, k: int) -> np.ndarray:
        """The k-simplices as a read-only (n_k, k+1) int64 array, canonical order."""
        if k < 0:
            raise DegreeError(f"invalid dimension {k}")
        if k > self.dim:
            return np.empty((0, k + 1), dtype=np.int64)
        return self._rows[k]

    def simplex_count(self, k: int) -> int:
        return len(self.simplices(k))

    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self._simplices)

    def contains(self, simplex) -> bool:
        s = _canonical(simplex)
        k = len(s) - 1
        return k <= self.dim and s in self._index[k]

    def index_of(self, simplex) -> int:
        s = _canonical(simplex)
        k = len(s) - 1
        if k > self.dim or s not in self._index[k]:
            raise MissingSimplexError(f"simplex {simplex!r} not in complex")
        return self._index[k][s]

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
        pos, faces = self._facet_search(rows)
        table = self.simplex_rows(width - 2)
        found = pos < len(table)
        found[found] = (table[pos[found]] == faces[found]).all(axis=1)
        if not found.all():
            face = faces[found.argmin()]
            raise MissingSimplexError(f"simplex {tuple(face.tolist())!r} not in complex")
        return pos.reshape(rows.shape)

    def _facet_search(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The facets of (M, w) rows, w per row in column order, and where each
        sorts among the (w-2)-simplices (present iff equal to the one there)."""
        width = rows.shape[1]
        keep = [[c for c in range(width) if c != j] for j in range(width)]
        faces = rows[:, keep].reshape(-1, width - 1)
        table = _row_keys(self.simplex_rows(width - 2))
        return np.searchsorted(table, _row_keys(faces)), faces

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

    # -- labels -------------------------------------------------------------

    def to_labels(self, simplex) -> tuple:
        return tuple(self.labels[v] for v in simplex)

    def from_labels(self, simplex) -> tuple[int, ...]:
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
            for s in self._simplices[k]:
                if tau_set.isdisjoint(s):
                    joint = tuple(sorted(s + tau))
                    kj = len(joint) - 1
                    if kj <= self.dim and joint in self._index[kj]:
                        members.append(self.to_labels(s))
        return SimplicialComplex(members, allow_empty=True)

    def maximal_simplices(self) -> list[tuple[int, ...]]:
        """Simplices with no coface, in canonical order (dense ids)."""
        out = []
        for (indptr, _), level in zip(self._cofaces, self._simplices):
            out += [level[i] for i in np.flatnonzero(indptr[1:] == indptr[:-1])]
        return out

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


def save_complex_text(complex_: SimplicialComplex, path) -> None:
    lines = [
        " ".join(str(v) for v in complex_.to_labels(s))
        for s in complex_.maximal_simplices()
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def save_complex_json(complex_: SimplicialComplex, path) -> None:
    rows = [
        [int(v) for v in complex_.to_labels(s)]
        for s in complex_.maximal_simplices()
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"maximal": rows}, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")


def complete_complex(num_vertices: int, dim: int) -> SimplicialComplex:
    """All subsets of {0..num_vertices-1} of size <= dim+1."""
    if num_vertices < dim + 1:
        raise ComplexError("not enough vertices for the requested dimension")
    return build_complex(combinations(range(num_vertices), dim + 1))
