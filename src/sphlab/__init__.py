"""Desk-scale numerics for discrete spherical averages and their maximal norms.

The package evaluates every explicit quantity in the underlying theory:
exact lattice-sphere counts, torus Fourier symbols and their Gaussian and
semigroup approximants, quadratic Gauss sums and the arc decomposition of
the sphere symbol, spatial operators on finite tori, and the order-interval
maximal norm for Hermitian families.  The ``sphlab`` command drives the
batch verification surveys.
"""

from .errors import (
    CapExceeded,
    DomainError,
    EmptySphere,
    IndivisibleSide,
    InfeasibleScale,
    NonHermitianInput,
    OddSide,
    RangeError,
    RegimeViolation,
    SphlabError,
)
from .fields import (
    DyadicRange,
    TorusField,
    apply_multiplier,
    dft,
    discrete_laplacian,
    dyadic_maximal,
    idft,
    inverse_kernel,
    periodized_multiplier_apply,
    sampled_kernel_apply,
    sign_flip_modulation,
    spherical_average,
)
from .gauss import (
    THETA_CUTOFF,
    ArcDecomposition,
    BumpCutoff,
    DecompositionReport,
    FareyFraction,
    GaussIdentityReport,
    decompose_arcs,
    decomposition_error,
    eval_cutoff,
    eval_major_arc_term,
    eval_minor_term,
    farey_set,
    gauss_sum,
    verify_gauss_identities,
)
from .lattice import (
    SphereSpec,
    density_ratio,
    enumerate_sphere,
    representation_count,
    sphere_counts,
    surface_measure,
    theta_coefficients,
)
from .ncmax import (
    HermitianStack,
    MajorantSolution,
    MaximalRatioStats,
    empirical_maximal_ratio,
    lp_norm,
    maximal_norm_commutative,
    order_interval_majorant,
    random_hermitian_stack,
    square_function_norm,
)
from .symbols import (
    ResidualSurvey,
    continuous_sphere_symbol_batch,
    count_negative_cos,
    eval_continuous_sphere_symbol,
    eval_folded_symbol,
    eval_gaussian_approximant,
    eval_semigroup_symbol,
    nearest_lattice,
    periodic_norm,
    reduce_to_torus,
    residual_survey,
    sphere_multiplier_batch,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
