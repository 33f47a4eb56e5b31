"""Boundary families, spectral filling inequalities, and distortion bounds.

The pipeline: a family of oriented simplex boundaries inside a complex plus
an embedding of the vertices yields, for every member, a combinatorial
filling number and an enclosed projection volume. The distortion of the
embedding is the product of the two suprema of their ratios; a spectral gap
of the upper Laplacian turns counting data into a lower bound for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import serialize
from .cochains import (  # noqa: F401 - perfbench/tracing.py wraps differential_matrix here
    DEFAULT_TOLERANCE,
    Cochain,
    _dd_zero,
    _signed_gather,
    _weights_array,
    adjoint_differential,
    cohomology_dim,
    differential,
    differential_matrix,
    inner_product,
    norm,
    random_cochain,
    spectrum,
    upper_laplacian,
)
from .complexes import DegreeError, NotPureError, SimplicialComplex, _row_keys
from .gallery import (  # noqa: F401 - kept where perfbench looks up fill_number
    GalleryGraph,
    UnfillableError,
    fill_number,
    is_gallery_connected,
)
from .geometry import (  # noqa: F401 - perfbench traces enclosed_projection_volume here
    Embedding,
    GeometryError,
    OrientedBoundary,
    enclosed_projection_volume,
    simplex_boundary_oriented,
    simplex_boundary_projection_volumes,
    stokes_check,
)
from .random_complexes import LmParams, _all_subsets, _lex_facets, linial_meshulam

__all__ = [
    "BoundaryFamily",
    "DistortionBound",
    "DistortionReport",
    "EmbeddingSpec",
    "ExperimentReport",
    "FillBoundUndefinedError",
    "HypothesisReport",
    "InequalityCheck",
    "TrialRecord",
    "boundary_pairing",
    "cochain_energy_inequality",
    "combinatorial_fill_bound",
    "compute_hypotheses",
    "distortion_constant",
    "distortion_lower_bound",
    "evaluate_distortion",
    "lm_distortion_experiment",
    "projection_volume_inequality",
    "spectral_embedding",
    "verify_instance",
    "vertex_set_family",
]


class FillBoundUndefinedError(ValueError):
    """The counting bound's logarithm base is degenerate."""


@dataclass
class HypothesisReport:
    """Flags feeding the spectral inequalities and the distortion bound."""

    k: int
    pure: bool
    gallery_connected: bool
    cohomology_zero: bool
    lambda_min_nonzero: float | None
    spectral_zero_multiplicity: int | None
    tolerance: float
    lambda_at_least_half: bool = field(init=False)

    def __post_init__(self):
        lam = self.lambda_min_nonzero
        self.lambda_at_least_half = lam is not None and lam >= 0.5

    def all_hold(self, *, require_gallery: bool = True) -> bool:
        ok = self.pure and self.cohomology_zero and self.lambda_min_nonzero is not None
        if require_gallery:
            ok = ok and self.gallery_connected
        return ok

    def flags_string(self) -> str:
        """Compact CSV form: pure, gallery, cohomology, lambda>=1/2."""
        bits = (
            self.pure,
            self.gallery_connected,
            self.cohomology_zero,
            self.lambda_at_least_half,
        )
        return "".join("1" if b else "0" for b in bits)


def compute_hypotheses(
    complex_: SimplicialComplex, k: int, tolerance: float = DEFAULT_TOLERANCE
) -> HypothesisReport:
    """Evaluate purity, gallery connectivity, vanishing cohomology, and the
    verified spectral gap at level k. Degenerate instances (no k-simplices or
    no (k+1)-simplices) report the corresponding flags as failing.

    Reads what the complex keeps: each coboundary is ranked once, and the
    spectrum is solved once per tolerance, however often this is called."""
    pure = complex_.is_pure
    if k > complex_.dim:
        return HypothesisReport(k, pure, False, True, None, None, tolerance)
    gallery_connected = is_gallery_connected(complex_, k)
    lam = None
    zero_mult = None
    if pure and k <= complex_.dim - 1:
        spectral = spectrum(complex_, k, tolerance, whole=False)
        lam = spectral.lambda_min_nonzero
        zero_mult = spectral.zero_multiplicity
    cohomology_zero = cohomology_dim(complex_, k) == 0
    return HypothesisReport(
        k, pure, gallery_connected, cohomology_zero, lam, zero_mult, tolerance
    )


class BoundaryFamily:
    """Boundaries of (k+1)-simplices, given as an (M, k+2) array of vertex rows.

    Each row is strictly increasing and stands for the boundary of that
    simplex with the alternating orientation: `face_indices[i, j]` is the
    index of the k-face that omits vertex j of row i, which carries the sign
    (-1)^j. Every face must lie in the complex. Caches the statistics the
    inequalities need: s (faces per member, k+2), the per-simplex membership
    counts, and l (min over counted k-simplices of weight/count, exact as a
    Fraction). Statistics are computed from the rows, never user-supplied.
    `face_indices`, when given, is trusted to be the rows' facet table.
    """

    def __init__(self, complex_: SimplicialComplex, vertex_sets, face_indices=None):
        rows = np.array(vertex_sets, dtype=np.int64)
        if rows.ndim != 2 or len(rows) == 0:
            raise ValueError("a boundary family needs a nonempty (M, k+2) row array")
        if face_indices is None:
            face_indices = complex_.facet_indices(rows)
        self.face_indices = face_indices
        self.complex = complex_
        self.vertex_sets = rows
        self.s = rows.shape[1]
        self.k = self.s - 2
        self.counts = np.bincount(
            self.face_indices.ravel(), minlength=complex_.simplex_count(self.k)
        )

    @property
    def size(self) -> int:
        return len(self.vertex_sets)

    @cached_property
    def l_exact(self) -> Fraction:
        """min over k-simplices belonging to some member of weight/count,
        taken over the distinct (weight, count) pairs."""
        weights = self.complex.weights_of_dim(self.k)
        pairs = {(w, c) for w, c in zip(weights, self.counts.tolist()) if c}
        if not pairs:
            raise ValueError("no k-simplex belongs to any member")
        return min(Fraction(w, c) for w, c in pairs)

    @property
    def l(self) -> float:
        return float(self.l_exact)


def vertex_set_family(complex_: SimplicialComplex, k: int) -> BoundaryFamily:
    """All C(N, k+2) simplex boundaries on the vertex set, with the standard
    alternating orientation. Requires the complete k-skeleton, so every face
    exists, at its lex rank among the (k+1)-subsets, which needs no search;
    each k-simplex then belongs to exactly N-k-1 members."""
    n = complex_.num_vertices
    if complex_.simplex_count(k) != math.comb(n, k + 1):
        raise DegreeError(f"complex lacks a complete {k}-skeleton")
    if n < k + 2:
        raise DegreeError("not enough vertices for any boundary")
    rows = _all_subsets(n, k + 2)
    return BoundaryFamily(complex_, rows, _lex_facets(rows, n))


def boundary_pairing(phi: Cochain, boundary: OrientedBoundary) -> float:
    """Signed sum of a k-cochain over the oriented faces of a boundary.

    Vanishes on coboundaries; on the boundary of a simplex it equals the
    differential evaluated there.
    """
    if boundary.k != phi.k:
        raise DegreeError(f"cochain degree {phi.k} vs boundary dimension {boundary.k}")
    complex_ = phi.complex
    # left to right: builtin sum() compensates float sums since Python 3.12
    total = 0.0
    for face, sign in boundary.faces:
        total += sign * phi.values[complex_.index_of(face)]
    return float(total)


@dataclass
class InequalityCheck:
    """One evaluation of a spectral filling inequality."""

    lhs: float | None
    rhs: float | None
    margin: float | None
    l: float | None
    s: int
    lam: float | None = field(metadata={"key": "lambda"})
    hypotheses: HypothesisReport
    applicable: bool


def cochain_energy_inequality(
    complex_: SimplicialComplex,
    family: BoundaryFamily,
    phi: Cochain,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> InequalityCheck:
    """Margin of ||d phi||^2 >= (l*lambda/s) * sum over members of the squared
    boundary pairing. Hypothesis failures are reported, not asserted."""
    if phi.k != family.k:
        raise DegreeError("cochain degree must match the family dimension")
    hyp = compute_hypotheses(complex_, family.k, tolerance)
    applicable = hyp.all_hold(require_gallery=False)
    lhs = rhs = margin = None
    l_value = None
    if hyp.pure and family.k <= complex_.dim - 1:
        d_phi = differential(complex_, phi)
        lhs = inner_product(complex_, d_phi, d_phi)
    if applicable and lhs is not None:
        l_value = family.l
        coefficient = l_value * hyp.lambda_min_nonzero / family.s
        signs = (-1) ** np.arange(family.s)  # v0 - v1 + v2 ..., as `boundary_pairing` adds
        pairings = _signed_gather(phi.values, family.face_indices, signs)
        # cumsum adds left to right; builtin sum() compensates since Python 3.12
        rhs = coefficient * float(np.cumsum(np.square(pairings))[-1])
        margin = lhs - rhs
    return InequalityCheck(lhs, rhs, margin, l_value, family.s,
                           hyp.lambda_min_nonzero, hyp, applicable and lhs is not None)


def projection_volume_inequality(
    complex_: SimplicialComplex,
    family: BoundaryFamily,
    embedding: Embedding,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> InequalityCheck:
    """Margin of sum over (k+1)-simplices of m * volume(boundary image)^2
    >= (l*lambda/s) * sum over members of volume(member image)^2."""
    k = family.k
    if embedding.num_vertices != complex_.num_vertices:
        raise GeometryError("embedding does not cover the vertex set")
    hyp = compute_hypotheses(complex_, k, tolerance)
    applicable = hyp.all_hold(require_gallery=True)
    lhs = rhs = margin = None
    l_value = None
    if hyp.pure and k <= complex_.dim - 1 and complex_.simplex_count(k + 1) > 0:
        volumes = simplex_boundary_projection_volumes(
            complex_.simplex_rows(k + 1), embedding.points,
            faces=(complex_.simplex_rows(k), complex_.facet_table(k + 1)),
        )
        lhs = float(np.dot(_weights_array(complex_, k + 1), volumes**2))
    if applicable and lhs is not None:
        l_value = family.l
        coefficient = l_value * hyp.lambda_min_nonzero / family.s
        member_volumes = simplex_boundary_projection_volumes(
            family.vertex_sets, embedding.points,
            faces=(complex_.simplex_rows(k), family.face_indices),
        )
        rhs = coefficient * float(np.sum(member_volumes**2))
        margin = lhs - rhs
    return InequalityCheck(lhs, rhs, margin, l_value, family.s,
                           hyp.lambda_min_nonzero, hyp, applicable and lhs is not None)


def combinatorial_fill_bound(
    family_size: int, num_k_simplices: int, s: int, max_degree: int, k: int
) -> float:
    """Counting lower bound: some member has filling number at least
    (ln(|B|/|X^(k)|) - s ln 2)/((s-1) ln(D max(k,1))) - 1."""
    if min(family_size, num_k_simplices, s, max_degree) <= 0:
        raise ValueError("all counting inputs must be positive")
    if s < 2:
        raise FillBoundUndefinedError("bound needs members with at least 2 faces")
    base = max_degree * max(k, 1)
    if base <= 1:
        raise FillBoundUndefinedError(
            f"gallery branching base D*max(k,1) = {base} <= 1"
        )
    numerator = math.log(family_size / num_k_simplices) - s * math.log(2.0)
    return numerator / ((s - 1) * math.log(base)) - 1.0


def _max_gallery_degree(complex_: SimplicialComplex, k: int) -> int:
    if k >= complex_.dim:
        return 0
    indptr, _ = complex_.coface_csr(k)
    return int(np.diff(indptr).max(initial=0))


@dataclass
class DistortionBound:
    """Evaluation of the spectral-counting lower bound for one family."""

    k: int
    n: int
    family_size: int
    num_k_simplices: int
    num_top_simplices: int
    s: int
    d_max: int
    l: float | None
    lam: float | None = field(metadata={"key": "lambda"})
    first_factor: float | None
    second_factor: float | None
    second_factor_cap: float | None
    counting_chain_ok: bool | None
    vacuous: bool
    applicable: bool
    bound: float | None
    hypotheses: HypothesisReport


def distortion_lower_bound(
    complex_: SimplicialComplex,
    family: BoundaryFamily,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> DistortionBound:
    """Evaluate the counting/spectral lower bound for the family's distortion.

    Refuses to produce a bound when any hypothesis (purity, gallery
    connectivity, vanishing cohomology, verified spectral gap) fails. The
    second factor is always capped by sqrt(2(k+2)*lambda); the exact integer
    counting chain l*|A|/s <= (n+1)!/(k+1)! * |X^(n)| backs that cap and both
    are re-checked on every evaluation.
    """
    k = family.k
    n = complex_.dim
    hyp = compute_hypotheses(complex_, k, tolerance)
    applicable = hyp.all_hold(require_gallery=True)
    d_max = _max_gallery_degree(complex_, k)
    num_k = complex_.simplex_count(k)
    num_top = complex_.simplex_count(n)
    size = family.size

    try:
        first = combinatorial_fill_bound(size // 2, num_k, family.s, d_max, k)
    except ValueError:
        first = None
    vacuous = first is None or first <= 0.0

    l_value = second = cap = None
    counting_ok = None
    bound = None
    if applicable:
        l_exact = family.l_exact
        l_value = float(l_exact)
        lam = hyp.lambda_min_nonzero
        ratio = (
            2 * math.factorial(k + 2) * l_value * lam * size
            / (math.factorial(n + 1) * family.s * num_top)
        )
        second = math.sqrt(ratio)
        cap = math.sqrt(2 * (k + 2) * lam)
        counting_ok = (
            l_exact * size * Fraction(1, family.s)
            <= Fraction(math.factorial(n + 1), math.factorial(k + 1)) * num_top
        )
        if not counting_ok or second > cap * (1.0 + 1e-9):
            raise RuntimeError(
                "counting-chain invariant violated; family statistics are inconsistent"
            )
        if first is not None:
            bound = first * second
    return DistortionBound(
        k=k, n=n, family_size=size, num_k_simplices=num_k,
        num_top_simplices=num_top, s=family.s, d_max=d_max, l=l_value,
        lam=hyp.lambda_min_nonzero, first_factor=first, second_factor=second,
        second_factor_cap=cap, counting_chain_ok=counting_ok, vacuous=vacuous,
        applicable=applicable, bound=bound, hypotheses=hyp,
    )


@dataclass
class MemberEvaluation:
    """Filling number and embedded volume for one family member."""

    faces: tuple
    volume: float
    fill_exact: int


@dataclass
class DistortionReport:
    """Distortion of one embedding against one boundary family.

    Filling numbers are exact, so each `_lo` field equals its `_hi` field;
    both stay so that documents keep their fields. `infinite` marks a member
    whose embedded volume vanishes (the distortion is then unbounded by
    convention).
    """

    k: int
    family_size: int
    evaluated_members: int
    sup_forward_lo: float | None
    sup_forward_hi: float | None
    sup_backward_lo: float | None
    sup_backward_hi: float | None
    distortion_lo: float | None
    distortion_hi: float | None
    infinite: bool
    exact_fill: bool
    hypotheses: HypothesisReport
    bound: DistortionBound | None
    members: list[MemberEvaluation] = field(
        default_factory=list, repr=False, metadata={"key": None})


def evaluate_distortion(
    complex_: SimplicialComplex,
    family: BoundaryFamily,
    embedding: Embedding,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    include_bound: bool = True,
    keep_members: bool = False,
) -> DistortionReport:
    """Measure the two suprema of volume/filling ratios over the family.

    Boundaries of (k+1)-simplices present in the complex are always included
    (they are the members whose filling number is 1): those that are not
    already family rows are appended as extra rows.
    """
    k = family.k
    if embedding.num_vertices != complex_.num_vertices:
        raise GeometryError("embedding does not cover the vertex set")
    hyp = compute_hypotheses(complex_, k, tolerance)

    tops = complex_.simplex_rows(k + 1)
    present = np.sort(_row_keys(family.vertex_sets))
    keys = _row_keys(tops)
    at = np.minimum(np.searchsorted(present, keys), len(present) - 1)
    missing = present[at] != keys
    rows = np.concatenate([family.vertex_sets, tops[missing]])
    faces = np.concatenate([family.face_indices, complex_.facet_table(k + 1)[missing]])
    volumes = simplex_boundary_projection_volumes(
        rows, embedding.points, faces=(complex_.simplex_rows(k), faces)
    )
    fills = GalleryGraph(complex_, k).fill_numbers(faces)
    positive = volumes > 0.0
    forward = float((volumes / fills).max(initial=0.0))
    backward = float((fills[positive] / volumes[positive]).max(initial=0.0))
    infinite = bool((volumes == 0.0).any())
    evaluations = []
    if keep_members:
        for row, volume, fill in zip(rows.tolist(), volumes.tolist(), fills.tolist()):
            faces = tuple(tuple(row[:j] + row[j + 1:]) for j in range(k + 2))
            evaluations.append(MemberEvaluation(faces, volume, fill))

    bound = None
    if include_bound:
        bound = distortion_lower_bound(complex_, family, tolerance=tolerance)

    if infinite:
        backward = distortion = None
    else:
        distortion = forward * backward

    return DistortionReport(
        k=k,
        family_size=family.size,
        evaluated_members=len(rows),
        sup_forward_lo=forward,
        sup_forward_hi=forward,
        sup_backward_lo=backward,
        sup_backward_hi=backward,
        distortion_lo=distortion,
        distortion_hi=distortion,
        infinite=infinite,
        exact_fill=True,
        hypotheses=hyp,
        bound=bound,
        members=evaluations if keep_members else [],
    )


def spectral_embedding(complex_: SimplicialComplex, m: int) -> Embedding:
    """Vertex coordinates from the m lowest nonzero degree-0 eigenvectors."""
    lap = upper_laplacian(complex_, 0)
    values, vectors = np.linalg.eigh(lap.dense())
    nonzero = np.nonzero(values > DEFAULT_TOLERANCE)[0]
    if len(nonzero) < m:
        raise GeometryError(
            f"only {len(nonzero)} nonzero eigenvectors available, wanted {m}"
        )
    columns = vectors[:, nonzero[:m]]
    coords = columns / np.sqrt(lap.weights_k)[:, None]
    return Embedding(coords)


@dataclass(frozen=True)
class EmbeddingSpec:
    """Parsed `gaussian:m:seed`, `spectral:m`, or `file:path` embedding source."""

    kind: str
    m: int | None = None
    seed: int | None = None
    path: str | None = None

    @classmethod
    def parse(cls, text: str) -> "EmbeddingSpec":
        parts = text.split(":", 1)
        kind = parts[0]
        if kind == "gaussian":
            try:
                m_text, seed_text = parts[1].split(":")
                return cls("gaussian", m=int(m_text), seed=int(seed_text))
            except (IndexError, ValueError):
                raise ValueError("expected gaussian:<m>:<seed>") from None
        if kind == "spectral":
            try:
                return cls("spectral", m=int(parts[1]))
            except (IndexError, ValueError):
                raise ValueError("expected spectral:<m>") from None
        if kind == "file":
            if len(parts) != 2 or not parts[1]:
                raise ValueError("expected file:<path>")
            return cls("file", path=parts[1])
        raise ValueError(f"unknown embedding kind {kind!r}")

    def describe(self) -> str:
        if self.kind == "gaussian":
            return f"gaussian:{self.m}:{self.seed}"
        if self.kind == "spectral":
            return f"spectral:{self.m}"
        return f"file:{self.path}"

    def realize(self, complex_: SimplicialComplex, trial: int = 0) -> Embedding:
        if self.kind == "gaussian":
            return Embedding.gaussian(
                complex_.num_vertices, self.m, self.seed + trial
            )
        if self.kind == "spectral":
            return spectral_embedding(complex_, self.m)
        if self.path.endswith(".json"):
            return Embedding.from_json(self.path, complex_)
        return Embedding.from_csv(self.path, complex_)


def distortion_constant(k: int) -> float:
    """Explicit constant in the ln(N)/ln(pN) lower bound for the random model."""
    return 1.0 / (2.0 * (k + 1) * math.sqrt(3.0 * (k + 2)))


@dataclass
class TrialRecord:
    """One random-complex distortion trial."""

    trial: int
    seed: int
    n: int
    p: float
    lam: float | None = field(metadata={"key": "lambda"})
    l: float | None
    s: int
    d_max: int
    bound: float | None
    measured_lo: float | None
    measured_hi: float | None
    hypotheses: HypothesisReport
    exact_fill: bool
    infinite: bool
    applicable: bool
    consistent: bool | None

    def csv_row(self) -> list:
        return [
            self.seed, self.n, self.p, self.lam, self.l, self.s, self.d_max,
            self.bound, self.measured_lo, self.measured_hi,
            self.hypotheses.flags_string(), self.trial, self.exact_fill,
            self.infinite, self.consistent,
        ]


CSV_HEADER = [
    "seed", "N", "p", "lambda", "l", "s", "D", "bound", "measured_lo",
    "measured_hi", "hypotheses", "trial", "exact_fill", "infinite",
    "consistent",
]


@dataclass
class ExperimentReport:
    """Aggregated random-complex distortion trials."""

    params: LmParams
    embedding: str
    trials: int
    records: list[TrialRecord]
    hypotheses_ok: int
    checked: int
    consistent: int
    reference_constant: float
    reference_bound: float | None
    pass_rate: float | None = field(init=False)

    def __post_init__(self):
        self.pass_rate = None if self.checked == 0 else self.consistent / self.checked


def lm_distortion_experiment(
    params: LmParams,
    spec: EmbeddingSpec,
    trials: int,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> ExperimentReport:
    """Sample complexes, verify hypotheses, and compare measured distortion
    against the spectral-counting bound (trial i uses seed+i; gaussian
    embeddings advance their own seed the same way). Trials whose spectral
    gap is below 1/2 are flagged through the hypothesis string rather than
    counted as failures."""
    if trials < 1:
        raise ValueError("need at least one trial")

    def run_trial(trial: int) -> TrialRecord:
        trial_params = LmParams(
            params.num_vertices, params.p, params.k, params.seed + trial
        )
        complex_ = linial_meshulam(trial_params)
        k = params.k
        hyp = compute_hypotheses(complex_, k, tolerance)
        bound_value = l_value = None
        measured_lo = measured_hi = None
        applicable = False
        consistent = None
        d_max, s = 0, params.k + 2
        exact_fill = infinite = False
        try:
            embedding = spec.realize(complex_, trial)
            family = vertex_set_family(complex_, k)
            report = evaluate_distortion(complex_, family, embedding, tolerance=tolerance)
        except (UnfillableError, NotPureError, GeometryError):
            # degenerate sample: hypotheses cannot all hold; keep the trial
            # as data with empty measurements
            pass
        else:
            bound_obj = report.bound
            bound_value = bound_obj.bound if bound_obj else None
            if hyp.pure:
                l_value = family.l
            measured_lo = report.distortion_lo
            measured_hi = report.distortion_hi
            applicable = (
                bound_value is not None and report.exact_fill and not report.infinite
            )
            if applicable:
                consistent = measured_lo >= bound_value - 1e-9 * (abs(bound_value) + 1)
            d_max = bound_obj.d_max if bound_obj else 0
            s = family.s
            exact_fill = report.exact_fill
            infinite = report.infinite
        return TrialRecord(
            trial=trial, seed=trial_params.seed, n=params.num_vertices,
            p=params.p, lam=hyp.lambda_min_nonzero, l=l_value, s=s,
            d_max=d_max, bound=bound_value, measured_lo=measured_lo,
            measured_hi=measured_hi, hypotheses=hyp, exact_fill=exact_fill,
            infinite=infinite, applicable=applicable, consistent=consistent,
        )

    records = [run_trial(t) for t in range(trials)]

    k = params.k
    n = params.num_vertices
    p_n = params.p * n
    reference = (
        distortion_constant(k) * math.log(n) / math.log(p_n) if p_n > 1.0 else None
    )
    return ExperimentReport(
        params=params,
        embedding=spec.describe(),
        trials=trials,
        records=records,
        hypotheses_ok=sum(r.hypotheses.all_hold() for r in records),
        checked=sum(r.applicable for r in records),
        consistent=sum(1 for r in records if r.consistent),
        reference_constant=distortion_constant(k),
        reference_bound=reference,
    )


def verify_instance(
    complex_: SimplicialComplex,
    k: int,
    embedding: Embedding | None,
    *,
    seed: int = 0,
    tolerance: float = DEFAULT_TOLERANCE,
    num_random_cochains: int = 5,
) -> dict:
    """Run the full identity/inequality battery on one instance.

    Covers exact d(d(.)) = 0, adjointness and the Rayleigh identity on random
    cochains, per-simplex Stokes residuals for the embedding, and both
    spectral filling inequalities. Returns a report dict with an `ok` flag
    (identities within tolerances) and `hypotheses_ok`.
    """
    rng = np.random.Generator(np.random.Philox(key=seed))
    report: dict = {"k": k, "checks": {"dd_zero": _dd_zero(complex_)}}
    ok = report["checks"]["dd_zero"]

    hyp = compute_hypotheses(complex_, k, tolerance)
    report["hypotheses"] = serialize.document(hyp)

    adj_worst = ray_worst = 0.0
    if complex_.is_pure and k <= complex_.dim - 1:
        lap = upper_laplacian(complex_, k)
        for _ in range(num_random_cochains):
            phi = random_cochain(complex_, k, rng)
            psi = random_cochain(complex_, k + 1, rng)
            d_phi = differential(complex_, phi)
            lhs = inner_product(complex_, d_phi, psi)
            rhs = inner_product(complex_, phi, adjoint_differential(complex_, psi))
            scale = norm(complex_, phi) * norm(complex_, psi) + 1.0
            adj_worst = max(adj_worst, abs(lhs - rhs) / scale)
            energy = inner_product(complex_, d_phi, d_phi)
            rayleigh = float(np.dot(lap.weights_k * lap.apply(phi.values), phi.values))
            ray_worst = max(ray_worst, abs(energy - rayleigh) / (abs(energy) + 1.0))
        report["checks"]["adjoint_residual"] = adj_worst
        report["checks"]["rayleigh_residual"] = ray_worst
        ok &= adj_worst <= 1e-10 and ray_worst <= 1e-9

    if embedding is not None and k <= complex_.dim - 1:
        tops = complex_.simplex_rows(k + 1)
        if len(tops) > 20:
            tops = tops[rng.choice(len(tops), size=20, replace=False)]
        stokes_worst = 0.0
        for sigma in map(tuple, tops.tolist()):
            boundary = simplex_boundary_oriented(sigma)
            residual = stokes_check(boundary, [(sigma, 1)], embedding)
            stokes_worst = max(stokes_worst, residual)
        report["checks"]["stokes_residual"] = stokes_worst
        scale = float(np.abs(embedding.points).max()) ** (k + 1) + 1.0
        ok &= stokes_worst <= 1e-9 * scale

    if hyp.all_hold(require_gallery=False) and (
            complex_.simplex_count(k) == math.comb(complex_.num_vertices, k + 1)):
        family = vertex_set_family(complex_, k)
        margins = []
        for _ in range(num_random_cochains):
            phi = random_cochain(complex_, k, rng)
            check = cochain_energy_inequality(complex_, family, phi, tolerance=tolerance)
            margins.append((check.margin, check.lhs))
        energy_ok = all(m >= -1e-8 * (abs(lhs) + 1.0) for m, lhs in margins)
        report["checks"]["energy_margin_min"] = min(m for m, _ in margins)
        ok &= energy_ok
        if embedding is not None and hyp.gallery_connected:
            check = projection_volume_inequality(complex_, family, embedding,
                                                 tolerance=tolerance)
            volume_ok = check.margin is not None and (
                check.margin >= -1e-8 * (abs(check.lhs) + 1.0))
            report["checks"]["volume_margin"] = check.margin
            ok &= volume_ok

    report["ok"] = bool(ok)
    report["hypotheses_ok"] = hyp.all_hold()
    return report
