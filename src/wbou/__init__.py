"""Well-balanced Ornstein-Uhlenbeck toolkit.

Simulation, distribution law, second-order analytics, estimation,
state-space (CARMA) representation, and a stochastic-volatility
extension for the moving-average process with the two-sided kernel
e^{-lambda |t - s|} driven by a Levy process.

Importing the package loads no scipy: a function that needs a scipy
subpackage (signal for the path recursions, integrate for quad, special
for the normal and gamma tails) imports it where it calls it.
"""
from .analytics import (
    SecondOrderParams,
    acf_ou,
    acf_x,
    acov_x,
    compact_cov,
    effective_hurst,
    hurst_constant,
    increment_acf,
    increment_acf_ou,
    lambda_sign_threshold,
    mean_x,
    mean_y,
    msd,
    var_x,
    var_y,
)
from .carma import CarmaSpec, carma_from_wbou, simulate_carma
from .drivers import (
    BrownianDriver,
    CompoundPoissonDriver,
    DriftDriver,
    DriverSpec,
    ExponentialJumps,
    GammaSubordinatorDriver,
    LevyMeasure,
    LevyTriplet,
    NormalJumps,
    PointMassJumps,
    brownian,
    compound_poisson,
    deterministic_drift,
    gamma_subordinator,
)
from .errors import (
    BadLag,
    DegenerateSeries,
    DimensionMismatch,
    DomainError,
    EmptyRange,
    GridError,
    GridMismatch,
    InvalidLambda,
    LagTooLarge,
    MissingComponents,
    NegativeLag,
    NotASubordinator,
    SkipTooLarge,
    WbouError,
)
from .estimation import (
    AcfEstimate,
    FitResult,
    Series,
    empirical_acf,
    fit_acf,
    model_curve,
    read_acf_csv,
    read_series_csv,
    realized_volatility,
    signature_plot,
    write_acf_csv,
    write_signature_csv,
)
from .law import (
    ExistenceResult,
    char_fn_joint,
    char_fn_x,
    existence_check,
    g_from_gbar,
    gbar_from_g,
    kbar,
    triplet_of_x,
)
from .paths import (
    CompactPath,
    OuPath,
    SimulationGrid,
    TruncationPolicy,
    WbouPath,
    derivative_identity_residual,
    max_abs_increment,
    ou_from_increments,
    path_total_variation,
    simulate_compact_kernel,
    simulate_ou,
    simulate_wbou,
    simulate_wbou_ensemble,
    wbou_from_increments,
    write_path_csv,
)
from .rng import as_generator, substream
from .svmodel import (
    SvPath,
    SvSpec,
    big_r,
    corr_squared_returns,
    cov_integrated_vol,
    integrated_vol_explicit,
    rbar_fn,
    simulate_sv,
    simulate_sv_ensemble,
    spot_vol_moments,
    write_sv_csv,
)

__version__ = "0.1.0"
