"""Post-fit diagnostics: regression sigma, R-score, covariance, confidence bounds.

The covariance is sigma^2 (H^T H)^-1 for the mixed Jacobian
H = [J | blockdiag(phi_1, ..., phi_s)].  J is the full (exact) reduced
Jacobian of ``eval_gl`` at the solution, whichever reduction solved the
problem, so the statistics do not inherit the one-term Jacobian
approximation; phi_k is the basis matrix of dataset k.

H^T H is block-arrow.  With J_k the rows of J that belong to dataset k, its
blocks are A = J^T J (p x p), B_k = J_k^T phi_k (p x n) and
D_k = phi_k^T phi_k (n x n), and beta_k touches only B_k and D_k.  With
F_k = B_k D_k^-1 and the p x p Schur complement S = J^T J - sum_k F_k B_k^T,

    (H^T H)^-1 = blockdiag(0, D_1^-1, ..., D_s^-1) + W^T S^-1 W,
    W = [I, -F_1, ..., -F_s].

No block is formed from a per-dataset copy.  J^T J comes from the
p (p + 1) / 2 dot products of J's columns, which the grouped kernels store
contiguously.
Column l of J_k is -(P_perp dphi_l beta_k + pinv(phi_k)^T dphi_l^T z_k), and
P_perp phi_k = 0 while pinv(phi_k) phi_k = I (phi_k = Q1 R), so
B_k = J_k^T phi_k = -v_k, with v_k the p x n products whose row l is
dphi_l^T z_k.  Every evaluation keeps those products (``ReducedEval.v``)
with the Grams D_k (``ReducedEval.d``), formed as R^T R from each group's
QR in one batched n x n product; ``eval_naive`` keeps its own
dphi_l^T r and per-dataset phi_k^T phi_k.
``compute_diagnostics`` keeps S^-1, the D_k^-1 and the F_k (O(s n^2) memory,
O(M p^2 + s (p n^2 + n^3)) time) and reads the variances off them:
sigma^2 diag(S^-1) for alpha and sigma^2 diag(D_k^-1 + F_k^T S^-1 F_k) for
beta_k.  The dense covariance is built only when ``Diagnostics.covariance``
is first read.  H^T H is positive definite exactly when every D_k and S
are, so a Cholesky factorization checks each of them; one that fails
raises a RuntimeWarning and its pseudo-inverse takes the place of its
inverse.

The residual z = P_perp y, the reduced Jacobian, the products and the
Grams come from the evaluation at alpha_hat that every fit carries
(``FitResult.final_eval``), so the diagnostics never evaluate the bases:
sigma is z's norm over the root of the degrees of freedom, and the
R-score's model values are y - z.  A ``vp-gl`` or ``nls-full`` fit holds
the ``eval_gl`` evaluation itself and a ``vp-naive`` fit the literal
``eval_naive`` one.  A ``vp-km`` fit holds an ``eval_km`` evaluation: the
z, products and Grams of ``eval_gl`` with the one-term Jacobian
J_km = -P_perp dphi_l beta, which gives the Schur complement itself
(Kaufman 1975; O'Leary & Rust 2013).  The two terms of the GL Jacobian are
orthogonal (P_perp Q1 = 0), and its second term gives
sum_k v_k D_k^-1 v_k^T exactly, so S = J_km^T J_km, which goes to the
shared tail of ``arrow_inverse`` as it is.
``build_H`` and ``covariance`` are the dense reference of the same
quantities; ``build_H`` evaluates everything afresh at alpha_hat.
"""

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as sl
from scipy.special import ndtri

from .exceptions import InvalidInputError
from .vpcore import FORM_KM, build_block_diag, eval_gl

_RANK_WARNING = "H^T H is numerically rank deficient; covariance uses a pseudo-inverse"


@dataclass(frozen=True)
class ArrowInverse:
    """(H^T H)^-1 of a block-arrow Gram matrix, kept as its blocks.

    ``s_inv`` is S^-1 (p x p); ``d_inv`` stacks the D_k^-1 (s x n x n) and
    ``f`` the F_k = B_k D_k^-1 (s x p x n), in dataset order.
    """

    s_inv: np.ndarray
    d_inv: np.ndarray
    f: np.ndarray
    rank_warning: bool = False

    def diagonal(self):
        """diag((H^T H)^-1): alpha first, then beta_1, ..., beta_s."""
        beta = np.diagonal(self.d_inv, axis1=1, axis2=2) + np.sum(
            (self.s_inv @ self.f) * self.f, axis=1
        )
        return np.concatenate([np.diag(self.s_inv), beta.ravel()])

    def dense(self):
        """blockdiag(0, D_1^-1, ..., D_s^-1) + W^T S^-1 W as one matrix."""
        s, p, n = self.f.shape
        w = np.hstack([np.eye(p), -self.f.transpose(1, 0, 2).reshape(p, s * n)])
        inv = w.T @ self.s_inv @ w
        for k in range(s):
            block = slice(p + k * n, p + (k + 1) * n)
            inv[block, block] += self.d_inv[k]
        return inv


@dataclass
class Diagnostics:
    sigma: float
    r_score: float
    conf_bounds: np.ndarray
    dof: int
    gram_inverse: ArrowInverse = field(repr=False)

    @property
    def rank_warning(self):
        return self.gram_inverse.rank_warning

    @cached_property
    def covariance(self):
        """sigma^2 (H^T H)^-1, alpha first; built on first read."""
        C = self.sigma**2 * self.gram_inverse.dense()
        return 0.5 * (C + C.T)


def sigma_of_regression(residual, m_total, n, s, p):
    """Residual norm over the root of M - s*n - p degrees of freedom."""
    residual = np.asarray(residual, dtype=float)
    dof = m_total - s * n - p
    if dof <= 0:
        raise InvalidInputError(f"nonpositive degrees of freedom: {dof}")
    return float(np.linalg.norm(residual) / np.sqrt(dof))


def r_score(y_all, yhat_all):
    """Regression-sum-of-squares ratio around the observation mean.

    Note this is sum((yhat - ybar)^2) / sum((y - ybar)^2), not the
    conventional 1 - SSE/SST.
    """
    y_all = np.asarray(y_all, dtype=float)
    yhat_all = np.asarray(yhat_all, dtype=float)
    if y_all.shape != yhat_all.shape:
        raise InvalidInputError("observation and model vectors must match in length")
    ybar = y_all.mean()
    dev = y_all - ybar  # squared in place, then reused for yhat_all
    denom = float(np.sum(np.square(dev, out=dev)))
    if denom == 0.0:
        raise InvalidInputError("observations are constant; R-score undefined")
    np.subtract(yhat_all, ybar, out=dev)
    return float(np.sum(np.square(dev, out=dev)) / denom)


def build_H(result, problem):
    """Mixed parameter Jacobian [dz/dalpha | G] at the fitted solution, dense.

    The dense reference of the diagnostics: a fresh ``eval_gl`` at alpha_hat
    gives dz/dalpha, and ``build_block_diag`` evaluates the model again, once
    per group, for G = blockdiag(phi_1, ..., phi_s).
    """
    alpha_hat = np.asarray(result.alpha_hat, dtype=float)
    dz = eval_gl(alpha_hat, problem).jac
    big, _, _ = build_block_diag(problem, alpha_hat)
    return np.hstack([dz, big])


def covariance(H, sigma):
    """sigma^2 (H^T H)^(-1) of a dense H; falls back to a pseudo-inverse with
    a warning when the Gram matrix is numerically singular."""
    H = np.asarray(H, dtype=float)
    if not np.all(np.isfinite(H)) or not np.isfinite(sigma):
        raise InvalidInputError("non-finite inputs to covariance")
    gram = H.T @ H
    rank_warning = False
    try:
        c, low = sl.cho_factor(gram)
        inv = sl.cho_solve((c, low), np.eye(gram.shape[0]))
    except sl.LinAlgError:
        rank_warning = True
        warnings.warn(_RANK_WARNING, RuntimeWarning, stacklevel=2)
        inv = np.linalg.pinv(gram)
    C = sigma**2 * inv
    C = 0.5 * (C + C.T)
    return C, rank_warning


def _spd_inverse(a):
    """Inverse of a symmetric positive definite matrix, or of each in a
    stack, by Cholesky factorization; None if one is not positive definite."""
    try:
        l_inv = np.linalg.inv(np.linalg.cholesky(a))
    except np.linalg.LinAlgError:
        return None
    return np.swapaxes(l_inv, -1, -2) @ l_inv


def arrow_inverse(a, b, d, schur=False):
    """Blocks of (H^T H)^-1 from the blocks of the block-arrow H^T H: A = J^T J
    (p x p), the B_k = J_k^T phi_k (s x p x n) and the D_k = phi_k^T phi_k
    (s x n x n).  With ``schur`` true, ``a`` is the Schur complement
    S = A - sum_k B_k D_k^-1 B_k^T itself, and is taken as it is.

    D_k and S are checked by Cholesky factorization; if one is not positive
    definite, a RuntimeWarning is raised and pseudo-inverses are used.
    """
    d_inv = _spd_inverse(d)
    rank_warning = d_inv is None
    if rank_warning:
        d_inv = np.linalg.pinv(d, hermitian=True)
    f = b @ d_inv
    complement = a if schur else a - (f @ b.transpose(0, 2, 1)).sum(axis=0)
    s_inv = _spd_inverse(complement)
    if s_inv is None:
        rank_warning = True
        s_inv = np.linalg.pinv(complement, hermitian=True)
    if rank_warning:
        warnings.warn(_RANK_WARNING, RuntimeWarning, stacklevel=2)
    return ArrowInverse(s_inv=s_inv, d_inv=d_inv, f=f, rank_warning=rank_warning)


def _half_widths(variances, level):
    if not np.all(np.isfinite(variances)):
        raise InvalidInputError("covariance contains non-finite entries")
    if not (0.0 < level < 1.0):
        raise InvalidInputError(f"confidence level must be in (0, 1), got {level}")
    q = ndtri(0.5 + level / 2.0)  # the standard normal quantile
    return q * np.sqrt(np.clip(variances, 0.0, None))


def confidence_bounds(C, level=0.95):
    """Two-sided normal-quantile half-widths from the covariance diagonal."""
    C = np.asarray(C, dtype=float)
    if not np.all(np.isfinite(C)):
        raise InvalidInputError("covariance contains non-finite entries")
    return _half_widths(np.diag(C), level)


def relative_error(alpha_true, alpha_fit):
    """Componentwise (true - fit) / true."""
    alpha_true = np.asarray(alpha_true, dtype=float)
    alpha_fit = np.asarray(alpha_fit, dtype=float)
    if alpha_true.shape != alpha_fit.shape:
        raise InvalidInputError("parameter vectors must match in length")
    if np.any(alpha_true == 0.0):
        raise InvalidInputError("relative error undefined for zero true parameters")
    return (alpha_true - alpha_fit) / alpha_true


def _column_gram(jac):
    """J^T J from the dot products of J's columns, each computed once."""
    cols = jac.T
    p = len(cols)
    a = np.empty((p, p))
    for i in range(p):
        for j in range(i, p):
            a[i, j] = a[j, i] = cols[i].dot(cols[j])
    return a


def compute_diagnostics(result, problem, level=0.95):
    """Assemble the diagnostics record for a converged fit from its final
    evaluation: sigma and the R-score from its residual z, the variances
    from the blocks of (H^T H)^-1; the dense H and covariance are never
    formed here."""
    red = result.final_eval
    s, n, p, m_total = problem.s, problem.n, problem.p, problem.m_total
    sigma = sigma_of_regression(red.z, m_total, n, s, p)
    y_all = np.concatenate([ds.y for ds in problem.datasets])
    score = r_score(y_all, y_all - red.z)  # the model values y - z
    a = _column_gram(red.jac)
    b = np.negative(red.v)  # B_k = J_k^T phi_k = -v_k
    if not all(np.isfinite(x).all() for x in (a, b, red.d)) or not np.isfinite(sigma):
        raise InvalidInputError("non-finite inputs to covariance")
    # an eval_km evaluation's J^T J is S itself
    inverse = arrow_inverse(a, b, red.d, schur=red.form == FORM_KM)
    return Diagnostics(
        sigma=sigma,
        r_score=score,
        conf_bounds=_half_widths(sigma**2 * inverse.diagonal(), level),
        dof=m_total - s * n - p,
        gram_inverse=inverse,
    )
