"""Cochain spaces with weighted inner products, differentials, and spectra.

A degree-k cochain is stored as a float vector aligned with the canonical
k-simplices of its complex; evaluation on an arbitrary ordered tuple picks up
the permutation sign. The inner product weights each canonical simplex by the
integer weight of the complex, which absorbs the (k+1)! orderings exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .complexes import (
    DegreeError,
    NotPureError,
    SimplicialComplex,
    _read_only,
    sort_with_sign,
)
from .gallery import _components

if TYPE_CHECKING:
    from scipy import sparse

__all__ = [
    "Cochain",
    "SpectralError",
    "SpectralMismatchError",
    "SpectralResult",
    "UpperLaplacian",
    "adjoint_differential",
    "cohomology_dim",
    "differential",
    "differential_matrix",
    "exact_rank",
    "inner_product",
    "norm",
    "random_cochain",
    "spectrum",
    "upper_laplacian",
]

# k-simplices up to which `spectrum` lists every eigenvalue, and up to which a
# gap-only solve is dense: at 561 the dense and the Lanczos gap take equal
# time (bench/spectrum_wall.py, BENCH_gap_lanczos.json)
DENSE_EIGENSOLVE_LIMIT = 3000
GAP_DENSE_LIMIT = 561
LANCZOS_RESIDUAL = 1e-9  # times k+3: the Ritz residual a Lanczos gap accepts
DEFAULT_TOLERANCE = 1e-8

# 31-bit primes: entries stay below p, so int64 products in the vectorized
# elimination cannot overflow.
_RANK_PRIMES = (2147483647, 2147483629)


class SpectralError(RuntimeError):
    """Eigensolver failure (never silently truncated)."""


class SpectralMismatchError(SpectralError):
    """Tolerance-based zero count disagrees with the exact kernel dimension."""


@dataclass
class Cochain:
    """Real-valued alternating function on the ordered k-simplices."""

    complex: SimplicialComplex
    k: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        expected = self.complex.simplex_count(self.k)
        if self.values.shape != (expected,):
            raise DegreeError(
                f"degree-{self.k} cochain needs {expected} values, "
                f"got shape {self.values.shape}"
            )

    @classmethod
    def zeros(cls, complex_: SimplicialComplex, k: int) -> "Cochain":
        return cls(complex_, k, np.zeros(complex_.simplex_count(k)))

    @classmethod
    def indicator(cls, complex_: SimplicialComplex, simplex) -> "Cochain":
        s = tuple(sorted(simplex))
        k = len(s) - 1
        values = np.zeros(complex_.simplex_count(k))
        values[complex_.index_of(s)] = 1.0
        return cls(complex_, k, values)

    def __call__(self, ordered_vertices) -> float:
        """Evaluate on an ordered tuple, with the permutation sign."""
        canonical, sign = sort_with_sign(ordered_vertices)
        if sign == 0:
            return 0.0
        return sign * float(self.values[self.complex.index_of(canonical)])

    def to_dict(self) -> dict:
        keys = (
            "->".join(str(v) for v in self.complex.to_labels(s))
            for s in self.complex.simplices(self.k)
        )
        return {"k": self.k, "values": dict(zip(keys, self.values.tolist()))}

    @classmethod
    def from_dict(cls, complex_: SimplicialComplex, data: dict) -> "Cochain":
        k = int(data["k"])
        values = np.zeros(complex_.simplex_count(k))
        for key, val in data["values"].items():
            s = complex_.from_labels(int(tok) for tok in key.split("->"))
            if len(s) - 1 != k:
                raise DegreeError(f"key {key!r} is not a {k}-simplex")
            values[complex_.index_of(s)] = float(val)
        return cls(complex_, k, values)


def _coboundary_entries(complex_: SimplicialComplex, k: int):
    """The columns of d_k's rows as an (n_{k+1}, k+2) array, and their signs.

    The face that omits vertex j carries (-1)^j; faces that omit later
    vertices come first in canonical order, so reversed columns are sorted.
    """
    if k < 0 or k > complex_.dim:
        raise DegreeError(f"degree {k} outside 0..{complex_.dim}")
    return (complex_.facet_table(k + 1)[:, ::-1],
            (-1) ** np.arange(k + 1, -1, -1, dtype=np.int64))


def _signed_gather(values: np.ndarray, faces: np.ndarray, signs) -> np.ndarray:
    """The matrix (faces, signs) times values, added a column at a time as CSR does."""
    out = np.zeros(len(faces))
    for j, sign in enumerate(signs):
        out += values[faces[:, j]] * sign
    return out


def _dd_zero(complex_: SimplicialComplex) -> bool:
    """Whether d_{k+1} d_k = 0 in every degree: each (row, k-face) entry sums
    its outer times inner signs over the facet-table composite, exactly."""
    for k in range(max(complex_.dim - 1, 0)):
        outer, outer_signs = _coboundary_entries(complex_, k + 1)
        inner, inner_signs = _coboundary_entries(complex_, k)
        keys = np.arange(len(outer))[:, None, None] * complex_.simplex_count(k) + inner[outer]
        _, at = np.unique(keys.ravel(), return_inverse=True)
        signs = np.broadcast_to(outer_signs[:, None] * inner_signs, keys.shape)
        if np.any(np.bincount(at, signs.ravel())):
            return False
    return True


def differential_matrix(complex_: SimplicialComplex, k: int) -> sparse.csr_matrix:
    """Signed incidence matrix of d_k: rows (k+1)-simplices, columns k-simplices.

    Entries are exact integers. Valid on non-pure complexes too; k equal to
    the dimension gives the zero map (no rows). Built once per complex and
    degree; the shared matrix is read-only, so an in-place edit raises.
    """
    cols, signs = _coboundary_entries(complex_, k)

    def build():
        from scipy import sparse

        mat = sparse.csr_matrix(
            (np.tile(signs, len(cols)), cols.ravel(), np.arange(0, cols.size + 1, k + 2)),
            shape=(len(cols), complex_.simplex_count(k)),
        )
        for arr in (mat.data, mat.indices, mat.indptr):
            arr.flags.writeable = False
        return mat

    return complex_._cached(("differential", k), build)


def differential(complex_: SimplicialComplex, phi: Cochain) -> Cochain:
    """Apply d_k: (d phi)(v_0..v_{k+1}) = sum_i (-1)^i phi(v_0..^v_i..v_{k+1})."""
    if phi.k >= complex_.dim:
        raise DegreeError(f"no degree-{phi.k + 1} cochains on a {complex_.dim}-complex")
    values = _signed_gather(phi.values, *_coboundary_entries(complex_, phi.k))
    return Cochain(complex_, phi.k + 1, values)


def _weights_array(complex_: SimplicialComplex, k: int) -> np.ndarray:
    """The degree-k weights as a read-only float array, kept on the complex."""
    return complex_._cached(
        ("float weights", k),
        lambda: _read_only(np.asarray(complex_.weights_of_dim(k), dtype=float)),
    )


def inner_product(complex_: SimplicialComplex, phi: Cochain, psi: Cochain) -> float:
    """Weighted inner product: sum over canonical simplices of m * phi * psi."""
    if phi.k != psi.k:
        raise DegreeError(f"degree mismatch: {phi.k} vs {psi.k}")
    w = _weights_array(complex_, phi.k)
    return float(np.dot(w * phi.values, psi.values))


def norm(complex_: SimplicialComplex, phi: Cochain) -> float:
    return math.sqrt(max(inner_product(complex_, phi, phi), 0.0))


def adjoint_differential(complex_: SimplicialComplex, psi: Cochain) -> Cochain:
    """Adjoint of d_{k-1} with respect to the weighted inner products."""
    if psi.k < 1:
        raise DegreeError("adjoint differential needs degree >= 1")
    faces, signs = _coboundary_entries(complex_, psi.k - 1)
    w_hi = _weights_array(complex_, psi.k)
    w_lo = _weights_array(complex_, psi.k - 1)
    # the transpose of d_{k-1}, added in row order as CSR's transpose does
    down = np.bincount(faces.ravel(), ((w_hi * psi.values)[:, None] * signs).ravel(),
                       minlength=len(w_lo))
    return Cochain(complex_, psi.k - 1, down / w_lo)


@dataclass
class UpperLaplacian:
    """d_k* d_k, exposed through the symmetric conjugate W^{1/2} . W^{-1/2}.

    The symmetric matrix has the same spectrum as the operator itself.
    `apply` and `dense` read the facet table; no sparse matrix is built.
    """

    complex: SimplicialComplex
    k: int
    weights_k: np.ndarray
    weights_k1: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.weights_k)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Apply the operator itself (not the symmetrized conjugate)."""
        d_phi = differential(self.complex, Cochain(self.complex, self.k, values))
        return adjoint_differential(self.complex, d_phi).values

    def dense(self) -> np.ndarray:
        """The symmetric conjugate as a dense array, gathered from the facet table.

        Two k-faces share at most one coface, so an off-diagonal entry is one
        product; the products are rounded as in the sparse chain
        W^{-1/2} d^T W d W^{-1/2}, and the diagonal sums run in coface order as
        its rows do, so the bytes match.
        """
        faces, signs = _coboundary_entries(self.complex, self.k)
        c = 1.0 / np.sqrt(self.weights_k)
        a = c[faces] * signs * self.weights_k1[:, None]
        p, q = np.nonzero(~np.eye(self.k + 2, dtype=bool))
        out = np.zeros((self.dim, self.dim))
        out[faces[:, p], faces[:, q]] = a[:, p] * signs[q] * c[faces[:, q]]
        out.flat[::self.dim + 1] = np.bincount(
            faces.ravel(), (a * signs).ravel(), minlength=self.dim) * c
        return out


def upper_laplacian(complex_: SimplicialComplex, k: int) -> UpperLaplacian:
    if not complex_.is_pure:
        raise NotPureError("Laplacians are defined on pure complexes only")
    if k < 0 or k > complex_.dim - 1:
        raise DegreeError(f"degree {k} outside 0..{complex_.dim - 1}")
    return UpperLaplacian(
        complex_, k, _weights_array(complex_, k), _weights_array(complex_, k + 1)
    )


@dataclass(frozen=True)
class SpectralResult:
    """Eigenvalues of an upper Laplacian with a verified zero/nonzero split."""

    eigenvalues: np.ndarray
    zero_multiplicity: int
    lambda_min_nonzero: float | None
    tolerance: float
    dense: bool = True


def spectrum(
    complex_: SimplicialComplex,
    k: int,
    tolerance: float = DEFAULT_TOLERANCE,
    whole: bool = True,
) -> SpectralResult:
    """Eigenvalues of the upper k-Laplacian with a verified zero/nonzero split.

    With `whole`, all eigenvalues from a dense solve up to
    DENSE_EIGENSOLVE_LIMIT k-simplices; without it only the gap is asked for,
    and the dense solve stops at GAP_DENSE_LIMIT. Above the limit the result
    holds the least nonzero eigenvalue alone, from a block Lanczos solve.
    The tolerance-based zero count is cross-checked against the exact kernel
    dimension from integer rank; a mismatch raises SpectralMismatchError
    instead of reporting a spectral gap that may be a numerical artifact.
    Solved once per complex, degree, tolerance and solver; the shared result
    is frozen and its eigenvalues are read-only.
    """
    limit = DENSE_EIGENSOLVE_LIMIT if whole else GAP_DENSE_LIMIT
    dense = upper_laplacian(complex_, k).dim <= limit
    return complex_._cached(("spectrum", k, tolerance, dense),
                            lambda: _solve_spectrum(complex_, k, tolerance, dense))


def _solve_spectrum(complex_: SimplicialComplex, k: int, tolerance: float,
                    dense: bool) -> SpectralResult:
    lap = upper_laplacian(complex_, k)
    kernel_dim = lap.dim - _coboundary_rank(complex_, k)
    if dense:
        try:
            eigenvalues = np.linalg.eigvalsh(lap.dense())
        except np.linalg.LinAlgError as exc:
            raise SpectralError(f"dense eigensolver failed: {exc}") from exc
        zero_multiplicity = int(np.sum(eigenvalues <= tolerance))
        if zero_multiplicity != kernel_dim:
            raise SpectralMismatchError(
                f"{zero_multiplicity} eigenvalues below {tolerance} but the "
                f"kernel of the degree-{k} coboundary has dimension {kernel_dim}"
            )
        nonzero = eigenvalues[eigenvalues > tolerance]
        lam = float(nonzero[0]) if nonzero.size else None
        return SpectralResult(_read_only(eigenvalues), zero_multiplicity, lam, tolerance, True)

    # Only the least nonzero eigenvalue: the h kernel directions outside the
    # image of d_{k-1} (the cohomology) stay at zero in the shifted operator,
    # so the gap is its (h+1)-th least eigenvalue.
    rank_down = 1 if k == 0 else _coboundary_rank(complex_, k - 1)
    h = kernel_dim - rank_down
    vals = _least_eigenvalues(_shifted_operator(complex_, lap, rank_down), lap.dim,
                              h + 1, LANCZOS_RESIDUAL * (k + 3))
    lam = float(vals[-1])
    if np.any(vals[:-1] > tolerance) or lam <= tolerance:
        raise SpectralMismatchError(
            f"iterative solve found {int(np.sum(vals <= tolerance))} of {h + 1} "
            f"eigenvalues below {tolerance} after deflation; expected {h}"
        )
    return SpectralResult(_read_only(np.array([lam])), kernel_dim, lam, tolerance, False)


def _shifted_operator(complex_: SimplicialComplex, lap: UpperLaplacian, rank_down: int):
    """The symmetric upper Laplacian plus (k+3) S G^+ S^T, applied to a vector.

    S = W^{1/2} d_{k-1} (the sqrt(w) column at k=0) spans the known kernel,
    and the exact projector S G^+ S^T, G = S^T S, lifts it above the spectral
    ceiling k+2; G^+ must keep exactly rank d_{k-1} directions. With tables and
    coefficients made once here, the Laplacian is a gather, a column sum and a
    bincount over the transposed facet table, S^T a bincount and S (times the
    shift) a gather and column sum over the one a degree down.
    """
    k, n_k = lap.k, lap.dim
    faces, signs = _coboundary_entries(complex_, k)
    faces = np.ascontiguousarray(faces.T)  # each product runs along the simplices
    coef = signs[:, None] / np.sqrt(lap.weights_k)[faces]
    spread = coef * lap.weights_k1
    scale = np.sqrt(lap.weights_k)
    if k == 0:  # S is the sqrt(w) column: every vertex has the one empty face
        inner, inner_signs = np.zeros((1, n_k), dtype=np.int64), np.ones(1)
        gram = np.array([[scale @ scale]])
    else:
        below = upper_laplacian(complex_, k - 1)
        root = np.sqrt(below.weights_k)
        gram = below.dense() * root[:, None] * root  # W^{1/2} L_{k-1} W^{1/2} = S^T S
        inner, inner_signs = _coboundary_entries(complex_, k - 1)
        inner = np.ascontiguousarray(inner.T)
    lower = inner_signs[:, None] * scale  # S's entries, one row per face column
    lift = (k + 3) * lower
    # G^+ with scipy's pinvh cutoff
    vals, vecs = np.linalg.eigh(gram)
    kept = vals > vals[-1] * len(vals) * np.finfo(float).eps
    if np.count_nonzero(kept) != rank_down:
        raise SpectralMismatchError(
            f"the pseudo-inverse keeps {np.count_nonzero(kept)} directions but "
            f"the degree-{k - 1} coboundary has rank {rank_down}"
        )
    gram_pinv = (vecs[:, kept] / vals[kept]) @ vecs[:, kept].T

    def apply(v: np.ndarray) -> np.ndarray:
        up = (v[faces] * coef).sum(axis=0)
        down = gram_pinv @ np.bincount(inner.ravel(), (lower * v).ravel(),
                                       minlength=len(gram_pinv))
        return (np.bincount(faces.ravel(), (spread * up).ravel(), minlength=n_k)
                + (down[inner] * lift).sum(axis=0))

    return apply


def _least_eigenvalues(apply, n: int, b: int, residual: float) -> np.ndarray:
    """The b least eigenvalues of a symmetric operator on R^n, ascending.

    Block Lanczos with full reorthogonalisation (Lanczos 1950; Parlett, The
    Symmetric Eigenvalue Problem, ch. 13), one vector of the block at a time:
    the basis starts from a fixed Philox block of b vectors, so the values
    are deterministic, and a block of b resolves an eigenvalue of
    multiplicity up to b. Each step applies the operator to the next basis
    vector, orthogonalises the image against the whole basis twice and
    appends it, or drops it when nothing is left of it, which deflates the
    block; its coefficients fill the projected matrix T. The b least
    eigenvalues of T are computed on a geometric schedule, a quarter more
    steps each time; once they move by at most `residual`, the schedule
    narrows to a sixteenth. There the Ritz residuals |Ay - θy| are read off
    the Lanczos relation as |T's rows past the applied vectors times s|;
    while one is above `residual`, the next check goes where their last rate
    of decay brings it below, at most a quarter more steps on. Then one
    application each finds them, and the solve ends when all are at most
    `residual`. The basis grows by blocks of rows that are never copied.
    When every image is dropped, the basis spans an invariant subspace,
    which holds each eigenvalue of the random block min(multiplicity, b)
    times, and the Ritz pairs are exact.
    """
    rng = np.random.Generator(np.random.Philox(key=0))
    rows = min(n, max(b, 2**20 // n))  # 8 MB blocks of the basis, never copied
    blocks: list[np.ndarray] = []
    proj = np.zeros((0, 0))
    size = 0

    def append(w: np.ndarray, column: int) -> None:
        nonlocal proj, size
        start = np.sqrt(w @ w)
        parts = [(i, block[:size - i]) for i, block in zip(range(0, size, rows), blocks)]
        for _ in range(2):
            for i, part in parts:
                coeffs = part @ w
                w -= coeffs @ part
                proj[i:i + len(part), column] += coeffs
        beta = np.sqrt(w @ w)
        if beta <= 1e-10 * start:  # the block Krylov space holds this image
            return
        if size == len(blocks) * rows:
            blocks.append(np.empty((rows, n)))
        if size == len(proj):  # doubled, up to the rows the basis holds
            proj = np.pad(proj, (0, min(max(size, 64), len(blocks) * rows - size)))
        proj[size, column] = beta
        np.divide(w, beta, out=blocks[-1][size % rows])
        size += 1

    for w in rng.standard_normal((b, n)):
        append(w, 0)
    proj[:, 0] = 0  # the start block's own coefficients are not in T
    steps, check, previous, last = 0, 4 * b, None, None
    while True:
        append(apply(blocks[steps // rows][steps % rows]), steps)
        steps += 1
        if steps < min(check, size):
            continue
        least = np.linalg.eigvalsh(proj[:steps, :steps])[:b]
        settled = previous is not None and np.max(np.abs(least - previous)) <= residual
        previous = least
        check = steps + max(b, steps // (16 if settled else 4))
        if not settled and steps < size:
            continue
        ritz, vectors = np.linalg.eigh(proj[:steps, :steps])
        worst = np.linalg.norm(proj[steps:size, :steps] @ vectors[:, :b], axis=0).max()
        if worst > residual:
            if last is not None and worst < last[1]:  # at most a quarter more steps
                rate = math.log(last[1] / worst) / (steps - last[0])
                ahead = math.ceil(math.log(worst / residual) / rate)
                check = steps + max(b, min(ahead, steps // 4))
            last = steps, worst
            continue
        pairs = sum(vectors[i:i + rows, :b].T @ block[:steps - i]
                    for i, block in zip(range(0, steps, rows), blocks))
        if all(np.linalg.norm(apply(y) - theta * y) <= residual
               for theta, y in zip(ritz[:b], pairs)):
            return ritz[:b]
        if steps == size:
            raise SpectralError(
                f"block Lanczos residual above {residual} on an invariant subspace"
            )


# -- exact rank ---------------------------------------------------------------


def _integer_entries(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """Rows, columns and values of the nonzero entries, as int64 arrays, in
    row-major order. A sparse matrix is read through a copy from its
    `tocoo`, so only its own package is used and the input is left as it is."""
    if hasattr(matrix, "tocoo"):
        coo = matrix.tocoo(copy=True)
        coo.sum_duplicates()
        row, col, data, shape = coo.row, coo.col, coo.data, coo.shape
    else:
        dense = np.atleast_2d(np.asarray(matrix))
        row, col = np.nonzero(dense)
        data, shape = dense[row, col], dense.shape
    values = data.astype(np.int64)
    if not np.array_equal(values, data):
        raise ValueError("exact rank needs an integer matrix")
    live = values != 0
    return (row[live].astype(np.int64), col[live].astype(np.int64),
            values[live], shape)


def _peel_singletons(rows, cols, values, shape):
    """Pivot away every row or column holding exactly one live nonzero.

    Such a pivot adds 1 to the rank over Q whatever the entry: the other
    entries of its line are cleared by operations that touch nothing else,
    and the pivot's row and column drop out without fill-in. Passes alternate
    between singleton columns and singleton rows until neither finds one.
    Returns the row of each pivot, and the entries of the remaining core.
    The pivot rows are independent: on the pivot columns, each pivot's entry
    is the only nonzero of its row or its column among the pivots of its own
    and later passes, so that submatrix has the product of the pivot entries
    as its determinant.
    """
    pivot_rows = [np.empty(0, dtype=np.int64)]
    idle = 0
    axis = 0  # 0: singleton columns, pivot rows removed; 1: the transpose
    while rows.size and idle < 2:
        lines, cross = (cols, rows) if axis == 0 else (rows, cols)
        single = np.bincount(lines, minlength=shape[1 - axis])[lines] == 1
        at = cross[single]
        if at.size:
            hit = np.zeros(shape[axis], dtype=bool)
            hit[at] = True  # one pivot per hit cross line
            owner = np.empty(shape[axis], dtype=np.int64)
            owner[at] = rows[single]  # the pivot's row: one singleton's
            pivot_rows.append(owner[hit])
            keep = ~hit[cross]
            rows, cols, values = rows[keep], cols[keep], values[keep]
            idle = 0
        else:
            idle += 1
        axis = 1 - axis
    return np.concatenate(pivot_rows), rows, cols, values


def _rank_mod_p(matrix: np.ndarray, p: int) -> int:
    a = np.mod(matrix, p)
    n_rows, n_cols = a.shape
    rank = 0
    for col in range(n_cols):
        pivots = np.nonzero(a[rank:, col])[0]
        if pivots.size == 0:
            continue
        pivot_row = rank + int(pivots[0])
        if pivot_row != rank:
            a[[rank, pivot_row]] = a[[pivot_row, rank]]
        inv = pow(int(a[rank, col]), p - 2, p)
        a[rank, col:] = (a[rank, col:] * inv) % p
        below = np.nonzero(a[rank + 1:, col])[0] + rank + 1
        if below.size:
            a[below, col:] = (
                a[below, col:] - np.outer(a[below, col], a[rank, col:])
            ) % p
        rank += 1
        if rank == n_rows:
            break
    return rank


def _rank_over_rationals(matrix: np.ndarray) -> int:
    rows = [[Fraction(int(x)) for x in row] for row in matrix]
    n_cols = matrix.shape[1]
    rank = 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [x - factor * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def exact_rank(matrix) -> int:
    """Rank of an integer matrix over the rationals, dense or sparse.

    Singleton rows and columns are peeled first (exact, no fill-in), so the
    input is never densified; only the core they leave is. The core is
    eliminated over two fixed 31-bit prime fields (each gives a lower bound
    on the rational rank); disagreement falls back to exact Fraction
    elimination. Two primes agreeing is evidence, not proof: both could
    divide the same nonzero invariant factor. Only a core whose mod-p rank
    equals its smaller dimension has a certified rank.
    """
    return _entries_rank(*_integer_entries(matrix))[0]


def _entries_rank(rows, cols, values, shape) -> tuple[int, np.ndarray]:
    """`exact_rank` of the matrix with these int64 nonzero entries, and the
    rows of the pivots its peel took."""
    pivot_rows, rows, cols, values = _peel_singletons(rows, cols, values, shape)
    rank = len(pivot_rows)
    if rows.size:
        core_rows, rows = np.unique(rows, return_inverse=True)
        core_cols, cols = np.unique(cols, return_inverse=True)
        core = np.zeros((core_rows.size, core_cols.size), dtype=np.int64)
        core[rows, cols] = values
        r0 = _rank_mod_p(core, _RANK_PRIMES[0])
        r1 = _rank_mod_p(core, _RANK_PRIMES[1])
        rank += r0 if r0 == r1 else _rank_over_rationals(core)
    return rank, pivot_rows


def _least_vertices(complex_: SimplicialComplex) -> np.ndarray:
    """Mask of the vertices that are the least of their component of the
    1-skeleton, kept on the complex for the ranks of every degree."""
    def build():
        _, labels = _components(complex_.num_vertices, *complex_.simplex_rows(1).T)
        least = np.zeros(complex_.num_vertices, dtype=bool)
        least[np.unique(labels, return_index=True)[1]] = True
        return _read_only(least)

    return complex_._cached(("least vertices",), build)


def _coboundary_rank(complex_: SimplicialComplex, k: int) -> int:
    """Exact rank of d_k, ranked once per complex and degree."""
    return _coboundary_peel(complex_, k)[0]


def _coboundary_peel(complex_: SimplicialComplex, k: int) -> tuple[int, np.ndarray]:
    """Exact rank of d_k, and the rows of its peel's pivots, with columns that
    lie in the span of the others left out.

    At k=0 these are the least vertex of each component of the 1-skeleton:
    the rows of a component sum to zero there, and no edge spans two
    components. At k >= 1 they are the k-simplices at the pivot rows of the
    peel of d_{k-1}. Those rows of d_{k-1} are independent, and every row y
    of d_k has y d_{k-1} = 0, so no nonzero combination of rows of d_k lives
    on those columns alone: leaving them out keeps the rank. On a complete
    k-skeleton they are the k-simplices through the least vertex, so each
    (k+1)-simplex through it is a singleton row and the peel starts there.
    At k=1 they are the edges of a spanning forest of the 1-skeleton, and on
    a closed surface the peel of d_1 leaves only a small core. The entries
    are those of `differential_matrix`, taken from the facet table without
    building it.
    """
    def build():
        if k == 0:
            kept = ~_least_vertices(complex_)
        else:
            kept = np.ones(complex_.simplex_count(k), dtype=bool)
            kept[_coboundary_peel(complex_, k - 1)[1]] = False
        cols, signs = _coboundary_entries(complex_, k)
        rows, at = np.nonzero(kept[cols])
        rank, pivot_rows = _entries_rank(
            rows, cols[rows, at], signs[at], (len(cols), complex_.simplex_count(k)),
        )
        return rank, _read_only(pivot_rows)

    return complex_._cached(("rank", k), build)


def cohomology_dim(complex_: SimplicialComplex, k: int) -> int:
    """dim ker d_k - rank d_{k-1}, with the reduced convention at k=0.

    The reduced convention takes the degree -1 space to be the constants, so
    the degree-0 dimension counts connected components minus one. Ranks are
    exact integer ranks at every size, shared with `spectrum` through the
    complex's rank cache.
    """
    if k < 0 or k > complex_.dim:
        raise DegreeError(f"degree {k} outside 0..{complex_.dim}")
    kernel_dim = complex_.simplex_count(k)
    if k < complex_.dim:
        kernel_dim -= _coboundary_rank(complex_, k)
    if k == 0:
        rank_down = 1 if complex_.num_vertices else 0
    else:
        rank_down = _coboundary_rank(complex_, k - 1)
    return kernel_dim - rank_down


def random_cochain(
    complex_: SimplicialComplex, k: int, rng: np.random.Generator
) -> Cochain:
    return Cochain(complex_, k, rng.standard_normal(complex_.simplex_count(k)))
