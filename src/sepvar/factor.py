"""Dense QR kernels: thin factorization, pseudo-inverse and projector application.

All higher-level residual/Jacobian assembly is built on four operations:
factor once, then apply ``pinv``, the orthogonal complement projector, or the
trailing block of the orthogonal factor to vectors.  The (m x (m-n)) trailing
factor is never materialized; it is applied through the stored Householder
reflectors.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sl

from .exceptions import InvalidInputError, RankDeficiencyError

DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class QRFactors:
    """Thin pivoted QR factorization of an m x n matrix (m >= n, full rank).

    phi[:, perm] == q1 @ r1.  ``qr_raw``/``householder_tau`` hold the LAPACK
    reflector representation used to apply the full orthogonal factor.
    """

    q1: np.ndarray
    r1: np.ndarray
    perm: np.ndarray
    qr_raw: np.ndarray = field(repr=False)
    householder_tau: np.ndarray = field(repr=False)
    rank: int = 0

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

    (qr_raw, tau), _, jpvt = sl.qr(phi, mode="raw", pivoting=True)
    r1 = np.triu(qr_raw[:n, :n])
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
    q1, _, info = sl.lapack.dorgqr(qr_raw[:, :n].copy(order="F"), tau)
    if info != 0:
        raise RankDeficiencyError(f"orthogonal factor generation failed (info={info})", rank=rank)
    return QRFactors(
        q1=q1,
        r1=r1,
        perm=np.asarray(jpvt),
        qr_raw=qr_raw,
        householder_tau=tau,
        rank=rank,
    )


def _check_len(f, y):
    y = np.asarray(y, dtype=float)
    if y.shape[0] != f.m:
        raise InvalidInputError(f"vector has length {y.shape[0]}, expected {f.m}")
    return y


def _apply_qt(f, y):
    """Apply the full orthogonal factor transposed via the stored reflectors
    (blocked LAPACK application; the factor itself is never formed)."""
    y = np.asarray(y, dtype=float)
    one_d = y.ndim == 1
    c = np.asfortranarray(y[:, None] if one_d else y)
    _, work, info = sl.lapack.dormqr(
        "L", "T", f.qr_raw, f.householder_tau, c, -1
    )
    cq, _, info = sl.lapack.dormqr(
        "L", "T", f.qr_raw, f.householder_tau, c, int(work[0])
    )
    if info != 0:
        raise InvalidInputError(f"orthogonal factor application failed (info={info})")
    return cq[:, 0] if one_d else cq


def pinv_apply(f, y):
    """Least-squares solve: returns the coefficient vector minimizing ||y - phi b||."""
    if f.rank < f.n:
        raise RankDeficiencyError("factorization is rank deficient", rank=f.rank)
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


def proj_perp_apply(f, y):
    """Project onto the orthogonal complement of the factored column space."""
    y = _check_len(f, y)
    return y - f.q1 @ (f.q1.T @ y)


def q2t_apply(f, y):
    """Trailing m-n rows of the full orthogonal factor transposed times y.

    Accepts a vector or a matrix of stacked column vectors.  Same columnwise
    norm as :func:`proj_perp_apply`; empty when m == n (the projected
    functional is identically zero then).
    """
    y = _check_len(f, y)
    if f.m == f.n:
        return y[:0].copy()
    return _apply_qt(f, y)[f.n :]
