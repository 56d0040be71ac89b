"""Order recovery for multi-term subdiffusion from a single boundary trace.

Layers:
    specfun   Gamma, Mittag-Leffler family, contour relaxation kernels
    forward   spectral trace assembly and the benchmark problems
    models    small-time regressor families and the physical-parameter map
    fit       box-constrained quasi-Newton least-squares recovery
    cli       experiment runner (simulate / fit; check runs the battery)
    checks    cross-module invariant battery behind `fracorder check`
"""

from fracorder.fit import (
    FitConfig,
    FitResult,
    NumericsError,
    RankDeficiencyError,
    linear_init,
    minimize,
    objective,
    objective_grad,
    recover,
)
from fracorder.forward import (
    Case,
    SpectralProblem,
    TraceSample,
    build_example_4_1,
    build_example_4_2,
    laplace_trace,
    sample_trace,
    trace_initial,
    trace_source,
)
from fracorder.models import (
    IdentifiabilityError,
    Kind,
    ModelParams,
    PhysicalParams,
    eval_model,
    from_physical,
    grad_model,
    to_physical,
)
from fracorder.specfun import (
    AccuracyError,
    ContourSpec,
    DomainError,
    MLArgs,
    OrderSpec,
    gamma,
    log_gamma,
    ml2,
    mml,
    s1_kernel_contour,
    s1_kernel_series,
    s2_kernel_contour,
    s2_kernel_int_series,
    s2_kernel_series,
    tight_contour,
)

__version__ = "0.1.0"
