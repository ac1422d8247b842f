"""Dense QR kernels: thin factorization, pseudo-inverse and projector application.

All higher-level residual/Jacobian assembly is built on four operations:
factor once, then apply ``pinv``, the orthogonal complement projector, or the
trailing block of an orthogonal factor to vectors.  :class:`QRFactors` holds
one form of the factor, the explicit thin ``q1`` and ``r1``.  The trailing
(m x (m-n)) factor is never formed: it comes from the Householder reflectors
of ``q1``'s own QR, whose leading columns are +-``q1``.  Any orthonormal
complement serves, since the projected functional does not depend on it.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sl

from .exceptions import InvalidInputError, RankDeficiencyError

DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class QRFactors:
    """Thin pivoted QR factorization of an m x n matrix (m >= n, full rank):
    phi[:, perm] == q1 @ r1."""

    q1: np.ndarray
    r1: np.ndarray
    perm: np.ndarray

    @property
    def m(self):
        return self.q1.shape[0]

    @property
    def n(self):
        return self.q1.shape[1]


def thin_qr(phi):
    """Householder QR with column pivoting; raises on rank deficiency.

    The numerical rank is the number of diagonal entries of R with
    |r_ii| > DEFAULT_RANK_TOL * |r_00|.  Anything short of full column rank raises
    :class:`RankDeficiencyError` carrying the detected rank.
    """
    phi = np.asarray(phi, dtype=float)
    if phi.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got ndim={phi.ndim}")
    m, n = phi.shape
    if n < 1 or m < n:
        raise InvalidInputError(f"need m >= n >= 1, got shape {phi.shape}")
    if not np.all(np.isfinite(phi)):
        raise InvalidInputError("matrix contains non-finite entries")

    # lwork sizes only LAPACK orgqr's workspace; 3n (its wrapper's default) fixes its
    # blocking past 128 columns, so Q1's bits do not hang on scipy's size query
    q1, r1, perm = sl.qr(phi, mode="economic", pivoting=True, check_finite=False, lwork=3 * n)
    diag = np.abs(np.diag(r1))
    if diag[0] == 0.0:
        rank = 0
    else:
        rank = int(np.count_nonzero(diag > DEFAULT_RANK_TOL * diag[0]))
    if rank < n:
        raise RankDeficiencyError(
            f"matrix of shape {phi.shape} has numerical rank {rank} < {n}",
            rank=rank,
        )
    return QRFactors(q1=q1, r1=r1, perm=perm)


def _check_len(f, y):
    y = np.asarray(y, dtype=float)
    if y.shape[0] != f.m:
        raise InvalidInputError(f"vector has length {y.shape[0]}, expected {f.m}")
    return y


def pinv_apply(f, y):
    """Least-squares solve: returns the coefficient vector minimizing ||y - phi b||."""
    y = _check_len(f, y)
    w = f.q1.T @ y
    z = sl.solve_triangular(f.r1, w)
    beta = np.empty_like(z)
    beta[f.perm] = z
    return beta


def pinv_transpose_apply(f, w):
    """Apply the transposed pseudo-inverse to a length-n vector (or n x k matrix)."""
    w = np.asarray(w, dtype=float)
    if w.shape[0] != f.n:
        raise InvalidInputError(f"vector has length {w.shape[0]}, expected {f.n}")
    return f.q1 @ sl.solve_triangular(f.r1, w[f.perm], trans="T")


def gram_inverse(f):
    """(phi^T phi)^-1 of the factored matrix, as P R^-1 R^-T P^T from the
    triangular factor alone, so the Gram itself is never formed."""
    r_inv = sl.solve_triangular(f.r1, np.eye(f.n))
    inv = np.empty((f.n, f.n))
    inv[np.ix_(f.perm, f.perm)] = r_inv @ r_inv.T
    return inv


def proj_perp_apply(f, y):
    """Project onto the orthogonal complement of the factored column space."""
    y = _check_len(f, y)
    return y - f.q1 @ (f.q1.T @ y)


def q2t_apply(f, y):
    """Trailing m-n rows of a full orthogonal factor transposed times y.

    The factor is that of a Householder QR of ``q1``, applied by LAPACK's
    ``dormqr`` without being formed.  Accepts a vector or a matrix of stacked
    columns.  Same columnwise norm as :func:`proj_perp_apply`; empty when
    m == n (the projected functional is identically zero then).
    """
    y = _check_len(f, y)
    if f.m == f.n:
        return y[:0].copy()
    (qr, tau), _ = sl.qr(f.q1, mode="raw")
    c = np.asfortranarray(y[:, None] if y.ndim == 1 else y)
    _, work, info = sl.lapack.dormqr("L", "T", qr, tau, c, -1)
    cq, _, info = sl.lapack.dormqr("L", "T", qr, tau, c, int(work[0]))
    if info != 0:
        raise InvalidInputError(f"orthogonal factor application failed (info={info})")
    return (cq[:, 0] if y.ndim == 1 else cq)[f.n :]
