"""Time-changed Gaussian processes and their Fokker-Planck-Kolmogorov equations.

Simulation of Gaussian processes run on inverse-stable-subordinator clocks,
the subordination integral for their densities, finite-difference solvers
for the classical / time-fractional / distributed-order FPK equations, and
numerical evaluation of the time-nonlocal operators appearing on the
fractional equations' right-hand sides.  Every quantity is computable by at
least two independent routes, and the test suite holds them against each
other.
"""
from .config import DEFAULT_CONFIG, SolverConfig
from .errors import (
    DegenerateDensityError,
    InversionError,
    NumericsError,
    QuadratureError,
    StabilityError,
)
from .fraccalc import (
    SampledFunction,
    caputo_l1,
    laplace_forward,
    mittag_leffler,
)
from .gaussian import (
    Brownian,
    FractionalBrownian,
    GaussianSpec,
    Mixed,
    MobiusHurst,
    OrnsteinUhlenbeck,
    PathEnsemble,
    PiecewiseHurst,
    PolynomialHurst,
    VariableHurst,
    gaussian_transition_density,
    sample_gaussian_paths,
)
from .subordinators import (
    SeededRng,
    SubordinatorSpec,
    inverse_time_density,
    inverse_time_moment,
    sample_inverse_ensemble,
    sample_inverse_marginal,
)
from .timechange import (
    GridDensity,
    TimeChangedSpec,
    laplace_subordination_residual,
    sample_timechanged_marginal,
    sample_timechanged_paths,
    subordinated_density,
    subordinated_grid_density,
)
from .fpke import (
    ClassicalEquation,
    DistributedOrderEquation,
    FractionalEquation,
    OUGenerator,
    ScaledLaplacian,
    residual_norm,
    solve_classical,
    solve_distributed_order,
    solve_fractional,
)
from .lambdaop import (
    AnalyticTransform,
    ContourConfig,
    GOperator,
    LambdaOperator,
    constant_transform,
    eval_G,
    eval_G_grid,
    eval_Lambda,
    eval_Lambda_grid,
    fbm_fpke_residual,
)

__version__ = "0.1.0"
