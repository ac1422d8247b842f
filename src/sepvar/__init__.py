"""Separable nonlinear least squares with multiple right-hand sides.

Variable projection reductions (stacked projected residuals, the smaller
orthogonal-factor form, and a literal block-diagonal rewrite) next to a joint
nonlinear reference solver, with statistical diagnostics and a synthetic
spectroscopy-style experiment harness.
"""

from .exceptions import (
    EvaluationError,
    GenerationError,
    InvalidInputError,
    ModelOverflowError,
    ProblemTooLargeError,
    RankDeficiencyError,
    SepvarError,
)
from .factor import QRFactors, pinv_apply, proj_perp_apply, q2t_apply, thin_qr
from .lm import LMConfig, LMReport, lm_solve
from .model import (
    BasisEval,
    BeerAux,
    BeerLawModel,
    Dataset,
    ExpDecayModel,
    normalize_abscissa,
)
from .solver import (
    METHOD_NLS_FULL,
    METHOD_VP_GL,
    METHOD_VP_KM,
    METHOD_VP_NAIVE,
    METHODS,
    FitResult,
    SolverConfig,
    fit,
    initial_beta,
    nls_full_jacobian,
    nls_full_residual,
)
from .stats import (
    Diagnostics,
    build_H,
    compute_diagnostics,
    confidence_bounds,
    covariance,
    r_score,
    relative_error,
    sigma_of_regression,
)
from .synth import (
    GridSpec,
    TruthSpec,
    frame_grids,
    gen_tau_profiles,
    generate,
    regenerate_noise,
)
from .vpcore import MultiProblem, ReducedEval, eval_gl, eval_km, eval_naive

__version__ = "0.1.0"
