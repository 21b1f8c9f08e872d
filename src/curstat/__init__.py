"""Distribution function estimation from current status data.

Observations are pairs (examination time, status indicator); the
lifetime itself is never seen, only whether it exceeded the examination
time. This package estimates the lifetime distribution function on
[0, 1] by four routes: an adaptive quotient of two projection density
estimates, an adaptive least-squares regression of the indicators, the
max-min NPMLE, and a fixed-bin histogram benchmark. A Monte Carlo
harness compares them on five built-in data models.
"""

from .bases import (
    CAP_DENSITY,
    CAP_REGRESSION,
    DYADIC,
    HAAR,
    POLY,
    TRIG,
    BasisFamily,
    BasisModel,
    EmptyCollectionError,
    build_collection,
    corrected_dim,
    design_matrix,
    dyadic_family,
    dyadic_model,
    gram_matrix,
    haar_family,
    haar_model,
    phi0,
    poly_family,
    poly_model,
    project_function,
    quadrature_rule,
    trig_family,
    trig_model,
)
from .data import ObservationSample, SampleFormatError, read_sample, write_sample
from .estimates import CdfEstimate, StepCdf
from .isotonic import birge_histogram, npmle_maxmin, npmle_pava
from .projection import (
    ProjectionEstimate,
    density_contrast,
    density_penalty,
    empirical_coefficients,
    select_projection_model,
)
from .quotient import fit_quotient_cdf, quotient_cdf
from .regression import (
    LeastSquaresFit,
    fit_cdf_regression,
    fit_least_squares,
    regression_penalty,
)
from .simulate import (
    METHODS,
    MODEL_IDS,
    BenchConfig,
    MseCell,
    MseReport,
    SimModel,
    default_birge_bins,
    default_reps,
    estimate_sample,
    generate,
    monte_carlo,
    replication_rng,
    true_cdf,
    truncated_mse,
)

__version__ = "0.1.0"
