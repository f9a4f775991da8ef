"""Similarity measurements for PSD matrices of arbitrary size and rank."""

from .errors import DomainError, OptimizerError, ParseError, PsdSimError
from .linalg import (
    TOL_PSD,
    TOL_RANK,
    PrincipalSystem,
    PsdMatrix,
    Subspace,
    embed_pad,
    fiber_representation,
    hermitian_eig,
    pencil_eigenvalues,
    principal_system,
    psd_power,
    range_subspace,
)
from .grassmann import GrassmannMetric, grassmann_distance
from .divergences import (
    FiberDivergence,
    divergence,
    geodesic_ab_is_distance_check,
    parse_divergence,
)
from .pointset import (
    LiftWitness,
    PointSetValue,
    ProjectionWitness,
    alpha_beta_pointset,
    lift_plus,
    pointset_minus,
    pointset_plus,
    project_minus,
)
from .geodist import (
    GdResult,
    MetricSpec,
    gd,
    pairwise_gram,
)
from .geometry import (
    PsdCurve,
    SubspaceGeodesic,
    parallel_transport,
    quasi_geodesic,
    quasi_geodesic_curve,
    quasi_geodesic_length,
    subspace_geodesic,
    transport_curve,
)

__version__ = "0.1.0"
