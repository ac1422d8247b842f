"""Fit orchestration: the three VP reductions and the joint NLS reference.

VP methods minimize the reduced residual over the nonlinear parameters only
and recover each dataset's linear parameters by one exact linear solve at the
optimum.  The reference method stacks all linear parameters into the iterate
and solves the joint problem, warm-starting the linear part from the linear
solution at the initial nonlinear guess.  Every method runs through the same
evaluation cache (``_CachedReduced``) and one LM call; for the reference each
point is evaluated once, by one model evaluation per group
(``vpcore.dataset_bases``) that gives its joint residual and, when LM reads
it, its Jacobian.  The joint formulation itself stays literal.
"""

import time
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import InvalidInputError
from .factor import pinv_apply, thin_qr
from .lm import LMConfig, lm_solve
from .vpcore import dataset_bases, eval_gl, eval_km, eval_naive

METHOD_VP_GL = "vp-gl"
METHOD_VP_KM = "vp-km"
METHOD_VP_NAIVE = "vp-naive"
METHOD_NLS_FULL = "nls-full"
METHODS = (METHOD_VP_GL, METHOD_VP_KM, METHOD_VP_NAIVE, METHOD_NLS_FULL)

_VP_EVALS = {
    METHOD_VP_GL: eval_gl,
    METHOD_VP_KM: eval_km,
    METHOD_VP_NAIVE: eval_naive,
}


@dataclass(frozen=True)
class SolverConfig:
    method: str = METHOD_VP_GL
    lm: LMConfig = field(default_factory=LMConfig)

    def __post_init__(self):
        if self.method not in METHODS:
            raise InvalidInputError(
                f"unknown method {self.method!r}; expected one of {METHODS}"
            )


@dataclass
class FitResult:
    alpha_hat: np.ndarray
    beta_hat: list
    residuals: list
    lm_report: object
    wall_time: float
    method: str
    # the reduced evaluation at alpha_hat that gave beta_hat and residuals:
    # eval_gl's for vp-gl and nls-full, eval_km's for vp-km and
    # eval_naive's for vp-naive; the diagnostics read their block-arrow
    # blocks from it
    final_eval: object = field(repr=False)

    @property
    def cost(self):
        """Final joint cost 0.5*sum_k ||y_k - phi_k beta_k||^2."""
        return 0.5 * sum(float(r @ r) for r in self.residuals)


def initial_beta(problem, alpha0):
    """Per-dataset linear solutions at the initial nonlinear guess: one
    pivoted QR per dataset of its basis, which comes from one model
    evaluation per group (``vpcore.dataset_bases``)."""
    return _warm_start(problem, alpha0).betas


def _warm_start(problem, alpha0):
    """The joint evaluation at (alpha0, initial_beta), from one model evaluation."""
    bases = dataset_bases(alpha0, problem)
    betas = [pinv_apply(thin_qr(be.phi), ds.y) for ds, be in zip(problem.datasets, bases)]
    return _JointEval(np.concatenate([alpha0, *betas]), problem, bases)


class _JointEval:
    """The joint residual z at x = (alpha, beta_1, ..., beta_s), dataset by
    dataset y_k - phi_k(alpha) beta_k, from one model evaluation per group
    (``vpcore.dataset_bases``, unless its ``bases`` are given); the Jacobian
    is formed from the same bases, and a copy of x's betas, when first read."""

    def __init__(self, x, problem, bases=None):
        self.x = x = np.array(x, dtype=float)
        p, n, s = problem.p, problem.n, problem.s
        if x.shape != (p + s * n,):
            raise InvalidInputError(f"x must have length {p + s * n}, got {x.shape}")
        self.problem = problem
        self.betas = [x[p + k * n : p + (k + 1) * n] for k in range(s)]
        self.bases = dataset_bases(x[:p], problem) if bases is None else bases
        self.z = np.concatenate(
            [ds.y - be.phi @ b for ds, b, be in zip(problem.datasets, self.betas, self.bases)]
        )

    @cached_property
    def jac(self):
        """The Jacobian of z, as ``nls_full_jacobian`` describes it."""
        p, n, starts = self.problem.p, self.problem.n, self.problem.block_starts
        J = np.zeros((starts[-1], p + self.problem.s * n))
        for k, (beta, be) in enumerate(zip(self.betas, self.bases)):
            rows = slice(starts[k], starts[k + 1])
            for l in range(p):
                J[rows, l] = -(be.dphi[l] @ beta)
            J[rows, p + k * n : p + (k + 1) * n] = -be.phi
        return J


def nls_full_residual(x, problem):
    """Stacked joint residual y_k - phi_k(alpha) beta_k, dataset by dataset;
    x = (alpha, beta_1, ..., beta_s)."""
    return _JointEval(x, problem).z


def nls_full_jacobian(x, problem):
    """Jacobian of the stacked joint residual, dense with its exact block
    sparsity: the alpha columns -dphi_l beta_k and each dataset's -phi_k."""
    return _JointEval(x, problem).jac


class _CachedReduced:
    """One evaluation per point, for every method: a reduced evaluation per
    alpha for the VP methods, and for ``nls-full`` a joint one
    (``_JointEval``) per x = (alpha, beta_1, ..., beta_s), so the joint
    reference too evaluates each point once.  The engine asks for the
    residual at each trial point and for the Jacobian at each iterate it
    accepts, so the cache keeps the latest evaluation and the one at the
    current iterate: residual and Jacobian come from a single pass, a trial
    step too short to move the point costs nothing, and the evaluation at
    the returned iterate is always here for ``fit`` to read once.

    The latest evaluation is dropped before a new one starts, so a fit holds
    at most two evaluations, each with its own bases, at any time.  The
    cache belongs to one fit, and the evaluation at alpha_hat leaves with
    the ``FitResult``."""

    def __init__(self, problem, method, start=None):
        if method == METHOD_NLS_FULL:
            self._eval = lambda x: _JointEval(x, problem)
        elif method == METHOD_VP_NAIVE:
            self._eval = lambda a: eval_naive(a, problem)
        else:
            base = _VP_EVALS[method]
            self._eval = lambda a: base(a, problem)
        # (point bytes, evaluation); nls-full enters its warm start's
        self._latest = (None, None) if start is None else (start.x.tobytes(), start)
        self._iterate = (None, None)

    def at(self, x):
        x = np.asarray(x, dtype=float)
        key = x.tobytes()
        for cached_key, value in (self._latest, self._iterate):
            if key == cached_key:
                return value
        # drop the latest evaluation (the iterate's stays) before the next
        # one starts, also if that one raises
        self._latest = (None, None)
        self._latest = (key, self._eval(x))
        return self._latest[1]

    def residual(self, x):
        return self.at(x).z

    def jacobian(self, x):
        red = self.at(x)
        if self._latest[1] is red:
            self._iterate = self._latest
        return red.jac


def _final_linear_solve(problem, red):
    """Linear parameters and joint residuals, read from the reduced
    evaluation ``red`` at alpha_hat, whatever the strides of its phis."""
    residuals = [
        ds.y - phi @ beta for ds, phi, beta in zip(problem.datasets, red.phis, red.betas)
    ]
    return list(red.betas), residuals


def fit(problem, cfg, alpha0):
    """Run one fit; linear parameters are always the exact linear minimizers
    at the returned nonlinear solution.  Several threads may fit one problem
    at once."""
    alpha0 = np.asarray(alpha0, dtype=float)
    if alpha0.shape != (problem.p,):
        raise InvalidInputError(
            f"alpha0 must have length {problem.p}, got {alpha0.shape}"
        )
    t_start = time.perf_counter()
    joint = cfg.method == METHOD_NLS_FULL
    start = _warm_start(problem, alpha0) if joint else None
    cache = _CachedReduced(problem, cfg.method, start)
    report = lm_solve(cache.residual, cache.jacobian, start.x if joint else alpha0, cfg.lm)
    alpha_hat = report.x_final[: problem.p]
    # the joint reference reduces once, at alpha_hat
    red = _VP_EVALS[METHOD_VP_GL](alpha_hat, problem) if joint else cache.at(alpha_hat)
    betas, residuals = _final_linear_solve(problem, red)
    wall = time.perf_counter() - t_start
    return FitResult(
        alpha_hat=alpha_hat,
        beta_hat=betas,
        residuals=residuals,
        lm_report=report,
        wall_time=wall,
        method=cfg.method,
        final_eval=red,
    )
