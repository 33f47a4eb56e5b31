"""Projection volumes of embedded chains, moment integrals, and Stokes checks.

The one non-textbook formula here is the closed form for the moment integral
of a coordinate form over an affine simplex: the average of an affine function
over a simplex is its value at the centroid, i.e. the mean of the vertex
values, and the wedge part pulls back to a constant determinant. The Monte
Carlo oracle in the test suite validates this before anything else relies on
it. Coordinates are 0-based throughout.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .complexes import InvalidSimplexError, _unique_rows, sort_with_sign

__all__ = [
    "BoundaryMismatchError",
    "Embedding",
    "EnumerationLimitError",
    "GeometryError",
    "NotClosedError",
    "OrientedBoundary",
    "chain_boundary",
    "enclosed_projection_volume",
    "moment_integral",
    "multi_indices",
    "signed_projected_volume",
    "simplex_boundary_oriented",
    "simplex_boundary_projection_volumes",
    "simplex_volume",
    "stokes_check",
]

MAX_AMBIENT_DIM = 16
MAX_BOUNDARY_DIM = 3


class GeometryError(ValueError):
    """Base class for geometric evaluation errors."""


class EnumerationLimitError(GeometryError):
    """Multi-index enumeration would blow up combinatorially."""


class NotClosedError(GeometryError):
    """A signed face list is not the boundary of a chain."""


class BoundaryMismatchError(GeometryError):
    """A filling's algebraic boundary differs from the stated boundary."""


class OrientedBoundary:
    """A closed signed list of k-simplices (a polytope boundary with the
    orientations induced by the enclosed polytope).

    Faces are canonical sorted tuples with signs in {+1, -1}; each simplex
    appears once. Closedness means the signed (k-1)-face sums cancel (for
    k=0: the signs sum to zero).
    """

    __slots__ = ("k", "faces")

    def __init__(self, k: int, faces):
        clean = []
        seen = set()
        for simplex, sign in faces:
            s = tuple(simplex)
            if len(s) != k + 1 or any(a >= b for a, b in zip(s, s[1:])):
                raise InvalidSimplexError(f"{s!r} is not a canonical {k}-simplex")
            if sign not in (1, -1):
                raise GeometryError(f"face sign must be +-1, got {sign!r}")
            if s in seen:
                raise GeometryError(f"face {s!r} listed twice")
            seen.add(s)
            clean.append((s, int(sign)))
        self.k = k
        self.faces = tuple(clean)
        if not self.is_closed():
            raise NotClosedError("signed faces do not form a closed boundary")

    def is_closed(self) -> bool:
        sums: dict[tuple, int] = {}
        for simplex, sign in self.faces:
            for i in range(len(simplex)):
                facet = simplex[:i] + simplex[i + 1:]
                parity = 1 if i % 2 == 0 else -1
                sums[facet] = sums.get(facet, 0) + sign * parity
        return all(v == 0 for v in sums.values())

    def face_dict(self) -> dict[tuple, int]:
        return dict(self.faces)

    @classmethod
    def from_chain(cls, chain) -> "OrientedBoundary":
        """Boundary of a signed chain of (k+1)-simplices (ordered tuples allowed)."""
        bnd = chain_boundary(chain)
        faces = [(s, c) for s, c in bnd.items() if c != 0]
        if any(abs(c) != 1 for _, c in faces):
            raise NotClosedError("chain boundary has coefficients outside +-1")
        if not faces:
            raise NotClosedError("chain boundary is empty")
        k = len(faces[0][0]) - 1
        return cls(k, faces)

    def __eq__(self, other):
        return (
            isinstance(other, OrientedBoundary)
            and self.k == other.k
            and set(self.faces) == set(other.faces)
        )

    def __hash__(self):
        return hash((self.k, frozenset(self.faces)))

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"OrientedBoundary(k={self.k}, faces={len(self.faces)})"


def chain_boundary(chain) -> dict[tuple, int]:
    """Signed canonical face counts of a chain of ordered simplices."""
    out: dict[tuple, int] = {}
    for vertices, coeff in chain:
        canonical, perm_sign = sort_with_sign(vertices)
        if perm_sign == 0:
            raise InvalidSimplexError(f"repeated vertex in {vertices!r}")
        for i in range(len(canonical)):
            facet = canonical[:i] + canonical[i + 1:]
            parity = 1 if i % 2 == 0 else -1
            out[facet] = out.get(facet, 0) + int(coeff) * perm_sign * parity
    return {s: c for s, c in out.items() if c != 0}


def simplex_boundary_oriented(ordered_vertices) -> OrientedBoundary:
    """Boundary of an ordered (k+1)-simplex: face i carries sign (-1)^i."""
    vertices = tuple(ordered_vertices)
    if len(set(vertices)) != len(vertices):
        raise InvalidSimplexError(f"repeated vertex in {vertices!r}")
    if len(vertices) < 2:
        raise InvalidSimplexError("a boundary needs at least an edge")
    faces = []
    for i in range(len(vertices)):
        rest = vertices[:i] + vertices[i + 1:]
        canonical, perm_sign = sort_with_sign(rest)
        sign = perm_sign * (1 if i % 2 == 0 else -1)
        faces.append((canonical, sign))
    return OrientedBoundary(len(vertices) - 2, faces)


class Embedding:
    """Map from dense vertex ids to points in R^m."""

    __slots__ = ("points",)

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] < 1:
            raise GeometryError("embedding needs an (n_vertices, m) array")
        self.points = pts

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    @property
    def num_vertices(self) -> int:
        return self.points.shape[0]

    def coords(self, simplex) -> np.ndarray:
        return self.points[list(simplex)]

    @classmethod
    def gaussian(cls, num_vertices: int, m: int, seed: int) -> "Embedding":
        rng = np.random.Generator(np.random.Philox(key=seed))
        return cls(rng.standard_normal((num_vertices, m)))

    # CSV format: header "vertex,x1,...,xm", one row per vertex label.
    @classmethod
    def from_csv(cls, path, complex_=None) -> "Embedding":
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header or header[0] != "vertex":
                raise GeometryError("embedding CSV must start with a 'vertex' header")
            pairs = [(row[0], row[1:]) for row in reader if row]
        return cls._from_label_pairs(pairs, complex_)

    @classmethod
    def from_json(cls, path, complex_=None) -> "Embedding":
        with open(path, "r", encoding="utf-8") as fh:
            # objects as tuples of (key, value) pairs, so a repeated label shows
            data = json.load(fh, object_pairs_hook=tuple)
        points = dict(data).get("points") if type(data) is tuple else None
        if type(points) is not tuple:
            raise GeometryError("embedding JSON needs a 'points' object")
        return cls._from_label_pairs(points, complex_)

    @classmethod
    def _from_label_pairs(cls, pairs, complex_) -> "Embedding":
        """The embedding of (label, coordinate list) pairs, one per vertex."""
        rows = {}
        for label, point in pairs:
            vertex = int(label)
            if vertex in rows:
                raise GeometryError(f"vertex {vertex} listed twice in embedding file")
            if type(point) is not list:
                raise GeometryError(f"vertex {vertex}: expected a list of coordinates")
            try:
                rows[vertex] = [float(x) for x in point]
            except (TypeError, ValueError):
                raise GeometryError(f"vertex {vertex}: expected numeric coordinates") from None
        if not rows:
            raise GeometryError("embedding file has no points")
        widths = {len(pt) for pt in rows.values()}
        if len(widths) != 1:
            raise GeometryError("inconsistent coordinate counts in embedding file")
        if complex_ is not None:
            labels = complex_.labels
            missing = [lab for lab in labels if lab not in rows]
            if missing:
                raise GeometryError(f"embedding missing vertices {missing[:5]}")
            return cls(np.array([rows[lab] for lab in labels]))
        return cls(np.array([rows[lab] for lab in sorted(rows)]))

    def to_csv(self, path, labels=None) -> None:
        labels = range(self.num_vertices) if labels is None else labels
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["vertex"] + [f"x{i + 1}" for i in range(self.ambient_dim)])
            for lab, row in zip(labels, self.points):
                writer.writerow([lab] + [repr(float(x)) for x in row])

    def to_json(self, path, labels=None) -> None:
        labels = range(self.num_vertices) if labels is None else labels
        data = {
            "m": self.ambient_dim,
            "points": {
                str(lab): [float(x) for x in row]
                for lab, row in zip(labels, self.points)
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True)
            fh.write("\n")


def multi_indices(m: int, length: int):
    """Increasing coordinate tuples of the given length out of 0..m-1.

    Enumeration costs C(m, length): guarded so the blowup fails loudly.
    """
    if m > MAX_AMBIENT_DIM or length > MAX_BOUNDARY_DIM + 1:
        raise EnumerationLimitError(
            f"C({m},{length}) multi-indices refused: limits are "
            f"m<={MAX_AMBIENT_DIM}, boundary dim<={MAX_BOUNDARY_DIM}"
        )
    return combinations(range(m), length)


def moment_integral(points, index) -> float:
    """Integral of x_{i1} dx_{i2}^...^dx_{i_{k+1}} over the affine k-simplex.

    ``points`` are the k+1 ordered vertices; ``index`` is an increasing tuple
    whose first entry is the coordinate factor and whose remaining k entries
    are the wedge coordinates. Equals (mean of coordinate i1 over the
    vertices) times the signed projected k-volume.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise GeometryError("points must be a (k+1, m) array")
    k = pts.shape[0] - 1
    idx = tuple(index)
    if len(idx) != k + 1 or any(a >= b for a, b in zip(idx, idx[1:])):
        raise GeometryError(f"index {idx!r} must be increasing of length {k + 1}")
    if idx[-1] >= pts.shape[1]:
        raise GeometryError("index exceeds ambient dimension")
    mean = float(pts[:, idx[0]].mean())
    if k == 0:
        return mean
    edges = pts[1:] - pts[0]
    det = float(np.linalg.det(edges[:, list(idx[1:])]))
    return mean * det / math.factorial(k)


def signed_projected_volume(points, coords) -> float:
    """Signed volume of the coordinate projection of an ordered affine simplex."""
    pts = np.asarray(points, dtype=float)
    level = pts.shape[0] - 1
    coords = list(coords)
    if len(coords) != level:
        raise GeometryError("need exactly one coordinate per edge vector")
    if level == 0:
        return 1.0
    edges = pts[1:] - pts[0]
    return float(np.linalg.det(edges[:, coords])) / math.factorial(level)


def enclosed_projection_volume(boundary: OrientedBoundary, embedding: Embedding) -> float:
    """l2 norm over multi-indices of the signed boundary moment sums.

    By Stokes this equals the projection volume of any filling, so it is a
    function of the embedded boundary alone.
    """
    m = embedding.ambient_dim
    face_points = [(embedding.coords(s), sign) for s, sign in boundary.faces]
    total = 0.0
    for idx in multi_indices(m, boundary.k + 1):
        acc = 0.0
        for pts, sign in face_points:
            acc += sign * moment_integral(pts, idx)
        total += acc * acc
    return math.sqrt(total)


def simplex_boundary_projection_volumes(vertex_sets, points, faces=None) -> np.ndarray:
    """Vectorized enclosed projection volumes of simplex boundaries.

    ``vertex_sets`` is an (M, k+2) integer array of sorted vertex ids whose
    rows denote boundaries with the standard alternating orientation;
    ``points`` is the (n_vertices, m) coordinate array. ``faces`` is an
    optional pair (face rows, face indices): an (F, k+1) array of k-faces
    and the (M, k+2) index of each member's faces in it, column j the face
    without vertex j, such as a complex's k-simplex rows and
    `facet_indices` of the members. Without it the distinct faces of the
    members are used. By Stokes a member's volume is a signed sum of its
    faces' moments, and each face's mean point and coordinate-plane
    determinants are computed once, however many members it bounds.
    Matches the scalar moment path to rounding.
    """
    vsets = np.asarray(vertex_sets, dtype=np.int64)
    if vsets.ndim != 2:
        raise GeometryError("vertex_sets must be an (M, k+2) array")
    n_members, width = vsets.shape
    k = width - 2
    pts = np.asarray(points, dtype=float)
    m = pts.shape[1]
    if n_members == 0:
        return np.zeros(0)

    if faces is None:
        keep = [[j for j in range(width) if j != i] for i in range(width)]
        face_rows, where = _unique_rows(vsets[:, keep].reshape(-1, width - 1))
        face_indices = where.reshape(n_members, width)
    else:
        face_rows, face_indices = faces
    face_indices = np.ascontiguousarray(np.transpose(face_indices))  # sums run along members
    signs = np.array([[1.0 if i % 2 == 0 else -1.0] for i in range(width)])
    face_pts = pts[face_rows]  # (F, k+1, m)
    means = face_pts.mean(axis=1)  # (F, m)
    edges = face_pts[:, 1:, :] - face_pts[:, :1, :]  # (F, k, m); the det of none is 1

    total = np.zeros(n_members)
    for idx in multi_indices(m, k + 1):
        dets = np.linalg.det(edges[:, :, list(idx[1:])])
        terms = signs * (means[:, idx[0]] * dets)[face_indices]
        contrib = terms.sum(axis=0) / math.factorial(k)
        total += contrib * contrib
    return np.sqrt(total)


def simplex_volume(points) -> float:
    """Unsigned volume sqrt(det Gram)/(l!) of the convex hull of l+1 points.

    Degenerate configurations give 0; tiny negative determinants from
    rounding are clamped after normalizing out the coordinate scale.
    """
    pts = np.asarray(points, dtype=float)
    level = pts.shape[0] - 1
    if level == 0:
        return 1.0
    edges = pts[1:] - pts[0]
    gram = edges @ edges.T
    scale = float(np.max(np.abs(np.diag(gram))))
    if scale == 0.0:
        return 0.0
    det = float(np.linalg.det(gram / scale))
    if det < 0.0:
        if det < -1e-9:
            raise GeometryError(f"Gram determinant {det} too negative to clamp")
        det = 0.0
    return math.sqrt(det * scale**level) / math.factorial(level)


def _canonical_chain(chain):
    out = []
    for vertices, coeff in chain:
        canonical, perm_sign = sort_with_sign(vertices)
        if perm_sign == 0:
            raise InvalidSimplexError(f"repeated vertex in {vertices!r}")
        out.append((canonical, int(coeff) * perm_sign))
    return out


def stokes_check(
    boundary: OrientedBoundary,
    filling,
    embedding: Embedding,
    *,
    check_boundary: bool = True,
) -> float:
    """Max over multi-indices of |boundary moment sum - filling volume sum|.

    ``filling`` is a signed chain of (k+1)-simplices (ordered tuples with
    coefficients). With ``check_boundary`` the chain boundary must equal the
    stated boundary exactly; disabling it turns the residual into a negative
    control for mismatched fillings. Each face and cell takes all multi-indices
    at once, with the float operations of `moment_integral` and
    `signed_projected_volume` summed in face and cell order, bit for bit.
    """
    chain = _canonical_chain(filling)
    if check_boundary:
        if chain_boundary(chain) != boundary.face_dict():
            raise BoundaryMismatchError(
                "filling boundary does not match the stated boundary"
            )
    k = boundary.k
    idx = np.array(list(multi_indices(embedding.ambient_dim, k + 1)), int).reshape(-1, k + 1)
    from_boundary = np.zeros(len(idx))
    for s, sign in boundary.faces:  # the det of no edges is 1
        pts = embedding.coords(s)
        dets = np.linalg.det((pts[1:] - pts[0])[:, idx[:, 1:]].transpose(1, 0, 2))
        from_boundary += sign * (pts[:, idx[:, 0]].mean(axis=0) * dets / math.factorial(k))
    from_filling = np.zeros(len(idx))
    for s, coeff in chain:
        pts = embedding.coords(s)
        dets = np.linalg.det((pts[1:] - pts[0])[:, idx].transpose(1, 0, 2))
        from_filling += coeff * (dets / math.factorial(k + 1))
    return float(np.max(np.abs(from_boundary - from_filling), initial=0.0))
