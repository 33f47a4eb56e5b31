"""Gallery filling numbers, weighted Laplacian spectra, projection volumes,
and distortion bounds for simplicial complexes."""

from .cochains import (
    Cochain,
    SpectralResult,
    adjoint_differential,
    cohomology_dim,
    differential,
    differential_matrix,
    exact_rank,
    inner_product,
    norm,
    spectrum,
    upper_laplacian,
)
from .complexes import (
    ComplexError,
    SimplicialComplex,
    build_complex,
    complete_complex,
    load_complex,
    save_complex_json,
    save_complex_text,
)
from .distortion import (
    BoundaryFamily,
    EmbeddingSpec,
    HypothesisReport,
    boundary_pairing,
    cochain_energy_inequality,
    combinatorial_fill_bound,
    compute_hypotheses,
    distortion_lower_bound,
    evaluate_distortion,
    lm_distortion_experiment,
    projection_volume_inequality,
    spectral_embedding,
    verify_instance,
    vertex_set_family,
)
from .gallery import (
    FillResult,
    GalleryGraph,
    UnfillableError,
    fill_number,
    gallery_ball_sizes,
    gallery_distance,
    gallery_distances_from,
    gallery_link_report,
    is_gallery_connected,
)
from .geometry import (
    Embedding,
    OrientedBoundary,
    chain_boundary,
    enclosed_projection_volume,
    moment_integral,
    multi_indices,
    signed_projected_volume,
    simplex_boundary_oriented,
    simplex_volume,
    stokes_check,
)
from .random_complexes import (
    LmParams,
    concentration_report,
    linial_meshulam,
    top_simplex_sample,
)

__version__ = "0.1.0"
