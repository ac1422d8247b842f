"""Self-contained Levenberg-Marquardt engine.

Minimizes 0.5*||r(x)||^2 for a user-supplied residual and Jacobian.  The
damped step solves (J^T J + lambda * diag(J^T J)) d = -J^T r, realized as a
least-squares solve of the augmented system [J; sqrt(lambda) D] via QR, so
normal equations are never formed explicitly.  Marquardt scaling by the
Gram-matrix diagonal keeps mixed parameter scales usable.

J is factored once per iterate, as in MINPACK's lmder (More 1978): one
Householder QR of [J | r] gives the triangle R, c = Q^T r and the gradient
J^T r = R^T c.  Since [J; sqrt(lambda) D] and [R; sqrt(lambda) D] have the
same least-squares solution for -r and -c, each damping value tried at that
iterate takes its step from one QR of the small array [R -c; sqrt(lambda) D 0]
instead of refactoring the M rows of J.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np
import scipy.linalg as sl

from .exceptions import EvaluationError, InvalidInputError
from .inputs import POSITIVE, POSITIVE_INT, Rule, read_fields, ruled

LAMBDA_LIMIT = 1e12
EPS = np.finfo(float).eps

STATUS_FTOL = "converged-ftol"
STATUS_XTOL = "converged-xtol"
STATUS_GTOL = "converged-gtol"
STATUS_MAX_ITER = "max-iter"
STATUS_LINEAR_FAIL = "failed-linear-solve"


@dataclass(frozen=True)
class LMConfig:
    max_iter: int = ruled(POSITIVE_INT, default=200)
    ftol: float = ruled(POSITIVE, default=1e-10)
    xtol: float = ruled(POSITIVE, default=1e-10)
    gtol: float = ruled(POSITIVE, default=1e-10)
    lambda0: float = ruled(Rule(float, "nonnegative", lambda v: v >= 0.0), default=1e-3)
    lambda_up: float = ruled(Rule(float, "greater than 1", lambda v: v > 1.0), default=10.0)
    lambda_down: float = ruled(Rule(float, "in (0, 1)", lambda v: 0.0 < v < 1.0), default=0.3)

    def __post_init__(self):
        read_fields(self, "LM ")


@dataclass
class LMReport:
    x_final: np.ndarray
    cost_history: list
    n_iter: int
    n_feval: int
    status: str


def _checked(fn, x, what):
    val = np.asarray(fn(x), dtype=float)
    if not np.isfinite(val).all():
        raise EvaluationError(f"{what} evaluation returned non-finite values", x=x.copy())
    return val


@cache
def _strict_lower(shape):
    """The read-only strictly lower triangular mask of a matrix shape."""
    mask = np.tril(np.ones(shape, dtype=bool), -1)
    mask.flags.writeable = False
    return mask


def _factor(J, r):
    """The triangle R and c = Q^T r of one Householder QR of [J | r].

    LAPACK's geqrf runs on one Fortran-ordered copy, and Q is never formed.
    R has min(M, p) rows, c as many entries; both are copies, so the M-row
    work array is freed on return.
    """
    m, p = J.shape
    a = np.empty((m, p + 1), order="F")
    a[:, :p] = J
    a[:, p] = r
    lwork = int(sl.lapack.dgeqrf_lwork(m, p + 1)[0])
    qr = sl.lapack.dgeqrf(a, lwork=lwork, overwrite_a=True)[0]
    # np.triu(x) is np.where(mask, 0, x) with a fresh mask; a cached one
    # gives the same array at about half the cost of this call at small p
    r_block = qr[:p, :p]
    return np.where(_strict_lower(r_block.shape), 0.0, r_block), qr[:p, p].copy()


def _damped_step(R, c, lam):
    """Solve the damped least-squares subproblem.

    ``R`` (min(M, p) x p) and ``c = Q^T r`` come from ``_factor``.  The
    subproblem min ||J d + r||^2 + lam ||D d||^2 is solved by one geqrf of
    the Fortran array [R -c; sqrt(lam) D 0], whose leading p x p triangle is
    the damped R' and whose last column holds Q'^T [-c; 0], and one
    triangular solve.  D holds R's column norms, which are J's.

    Returns the step and the cost decrease the linear model predicts for it,
    or None for a singular system.  With (J^T J + lam D^2) d = -J^T r the
    prediction 0.5||J d||^2 + lam ||D d||^2 equals
    0.5||Q'^T b'||^2 + 0.5 lam ||D d||^2, a sum of squares that the small QR
    already holds, so it is free of cancellation.
    """
    k, p = R.shape
    d = np.sqrt(np.sum(R * R, axis=0))
    scale = d.max(initial=0.0)
    if scale == 0.0:
        return None
    d = np.maximum(d, 1e-14 * scale)
    a = np.zeros((k + p, p + 1), order="F")
    a[:k, :p], a[:k, p] = R, -c
    a.ravel(order="F")[k :: k + p + 1] = np.sqrt(lam) * d  # the diagonal of rows k..
    qr = sl.lapack.dgeqrf(a, overwrite_a=True)[0]
    diag = np.abs(qr.diagonal()[:p])
    if diag.min() <= 1e-14 * diag.max():
        return None
    qtb = qr[:p, p]
    # at lam = 0 geqrf leaves the triangle R as it is, and the solve runs on R^T as
    # solve_triangular's does for a C-ordered R, so the step is R's own bit for bit
    step = sl.lapack.dtrtrs(qr[:p, :p].T, qtb, lower=1, trans=1)[0]
    if not np.isfinite(step).all():
        return None
    ds = d * step
    return step, 0.5 * float(qtb @ qtb + lam * (ds @ ds))


def lm_solve(residual_fn, jacobian_fn, x0, cfg=None):
    """Levenberg-Marquardt iteration with accepted-step monotone cost history.

    Termination:

    * ``converged-ftol``: an accepted step decreased the cost by at most
      ftol*cost; or the damped model predicts a decrease of at most
      eps*cost (eps the machine epsilon), too small to resolve, so the
      trial is not evaluated; or a rejected trial raised the cost by at
      most ftol*cost while its predicted decrease was at most ftol*cost
      (MINPACK's test, More 1978); or damping escalated past 1e12 without an
      acceptable step (stagnation).
    * ``converged-xtol``: step norm below xtol*(xtol+||x||).
    * ``converged-gtol``: max-norm of the gradient below gtol.
    * ``max-iter``: the iteration budget ran out.
    * ``failed-linear-solve``: a singular damped system survived escalation
      past 1e12.
    """
    cfg = cfg or LMConfig()
    x = np.asarray(x0, dtype=float).copy()
    if x.ndim != 1:
        raise InvalidInputError(f"x0 must be a vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError("x0 must be finite")

    r = _checked(residual_fn, x, "residual")
    J = _checked(jacobian_fn, x, "jacobian")
    if J.shape != (r.size, x.size):
        raise InvalidInputError(
            f"jacobian shape {J.shape} does not match residual {r.size} x {x.size}"
        )
    R, c = _factor(J, r)
    cost = 0.5 * float(r @ r)
    cost_history = [cost]
    n_feval = 1
    lam = cfg.lambda0
    status = STATUS_MAX_ITER

    grad = R.T @ c  # J^T r
    if np.max(np.abs(grad), initial=0.0) < cfg.gtol:
        return LMReport(x, cost_history, 0, n_feval, STATUS_GTOL)

    n_iter = 0
    while n_iter < cfg.max_iter:
        n_iter += 1
        solved = _damped_step(R, c, lam)
        if solved is None:
            lam = max(lam, 1e-12) * cfg.lambda_up
            if lam > LAMBDA_LIMIT:
                status = STATUS_LINEAR_FAIL
                break
            continue
        step, predicted = solved
        if predicted <= EPS * cost:
            # no decrease the trial could show is above round-off
            status = STATUS_FTOL
            break

        x_new = x + step
        r_new = _checked(residual_fn, x_new, "residual")
        n_feval += 1
        cost_new = 0.5 * float(r_new @ r_new)

        if cost_new < cost:
            decrease = cost - cost_new
            x, r, cost = x_new, r_new, cost_new
            cost_history.append(cost)
            lam *= cfg.lambda_down
            if decrease <= cfg.ftol * max(cost, np.finfo(float).tiny):
                status = STATUS_FTOL
                break
            if np.sqrt(step @ step) < cfg.xtol * (cfg.xtol + np.sqrt(x @ x)):
                status = STATUS_XTOL
                break
            R, c = _factor(_checked(jacobian_fn, x, "jacobian"), r)
            grad = R.T @ c
            if np.max(np.abs(grad), initial=0.0) < cfg.gtol:
                status = STATUS_GTOL
                break
        else:
            limit = cfg.ftol * cost
            if predicted <= limit and cost_new - cost <= limit:
                # predicted and actual change are both within ftol
                status = STATUS_FTOL
                break
            lam = max(lam, 1e-12) * cfg.lambda_up
            if lam > LAMBDA_LIMIT:
                # stagnation: no damping gives an acceptable step
                status = STATUS_FTOL
                break

    return LMReport(x, cost_history, n_iter, n_feval, status)
