"""Random geometric graphs on the sphere: simulation and spectral recovery.

Simulate graphs whose connection probabilities depend only on latent
inner products on S^{d-1}, then recover the latent pairwise-distance
(Gram) matrix and the latent dimension from a single observed adjacency
matrix by locating the d-eigenvalue cluster tied to the degree-1
spherical harmonics.  An analytic spectrum computed by quadrature serves
as the validation oracle.
"""

from .dimension import DimensionScan, estimate_dimension, scan_spectrum
from .errors import (
    EigenSolverError,
    HeicError,
    NumericError,
    QuadratureError,
    ValidationError,
)
from .estimator import (
    ClusterSelection,
    EventEReport,
    GramEstimate,
    HeicDiagnostics,
    event_e_check,
    find_cluster,
    gram_estimate,
    heic,
    noise_bound,
    window_gaps,
)
from .experiments import (
    ConvergenceRecord,
    DimensionStudyResult,
    ExperimentConfig,
    MseRecord,
    RhoRule,
    replicate_seeds,
    run_dimension_study,
    run_mse_study,
    run_spectrum_convergence,
)
from .harmonics import (
    AnalyticSpectrum,
    SpectrumLevel,
    addition_constant,
    analytic_spectrum,
    funck_hecke_table,
    gap1_analytic,
    gegenbauer,
    harmonic_space_dim,
)
from .links import LinkFunction, affine, custom, link_from_spec, table, threshold
from .model import (
    GraphModel,
    LatentSample,
    edge_density,
    gram_population,
    inner_products,
    probability_matrix,
    sample_adjacency,
    sample_uniform_sphere,
)
from .spectral import SortedSpectrum, delta_2, normalize_adjacency, symmetric_eig

__version__ = "0.1.0"

__all__ = [
    "AnalyticSpectrum",
    "ClusterSelection",
    "ConvergenceRecord",
    "DimensionScan",
    "DimensionStudyResult",
    "EigenSolverError",
    "EventEReport",
    "ExperimentConfig",
    "GramEstimate",
    "GraphModel",
    "HeicDiagnostics",
    "HeicError",
    "LatentSample",
    "LinkFunction",
    "MseRecord",
    "NumericError",
    "QuadratureError",
    "RhoRule",
    "SortedSpectrum",
    "SpectrumLevel",
    "ValidationError",
    "addition_constant",
    "affine",
    "analytic_spectrum",
    "custom",
    "delta_2",
    "edge_density",
    "estimate_dimension",
    "event_e_check",
    "find_cluster",
    "funck_hecke_table",
    "gap1_analytic",
    "gegenbauer",
    "gram_estimate",
    "gram_population",
    "harmonic_space_dim",
    "heic",
    "inner_products",
    "link_from_spec",
    "noise_bound",
    "normalize_adjacency",
    "probability_matrix",
    "replicate_seeds",
    "run_dimension_study",
    "run_mse_study",
    "run_spectrum_convergence",
    "sample_adjacency",
    "sample_uniform_sphere",
    "scan_spectrum",
    "symmetric_eig",
    "table",
    "threshold",
    "window_gaps",
]
