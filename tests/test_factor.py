import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sl

from sepvar.exceptions import InvalidInputError, RankDeficiencyError
from sepvar.factor import (
    pinv_apply,
    pinv_transpose_apply,
    proj_perp_apply,
    q2t_apply,
    thin_qr,
)


def normal_equations_solve(phi, y):
    """Independent oracle: (phi^T phi)^(-1) phi^T y."""
    return np.linalg.solve(phi.T @ phi, phi.T @ y)


class TestThinQR:
    def test_identity(self):
        f = thin_qr(np.eye(2))
        npt.assert_allclose(np.abs(f.q1), np.eye(2), atol=1e-15)
        npt.assert_allclose(np.abs(np.diag(f.r1)), [1.0, 1.0], atol=1e-15)

    def test_orthogonal_columns_pivot_order(self):
        phi = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0]])
        f = thin_qr(phi)
        npt.assert_allclose(sorted(np.abs(np.diag(f.r1))), [2.0, 3.0], atol=1e-14)
        # pivoting puts the larger column first
        assert abs(f.r1[0, 0]) == 3.0

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=(20, 3))
        f = thin_qr(phi)
        npt.assert_allclose(f.q1.T @ f.q1, np.eye(3), atol=1e-12)
        err = np.linalg.norm(f.q1 @ f.r1 - phi[:, f.perm])
        assert err <= 1e-12 * np.linalg.norm(phi)

    def test_pinv_matches_normal_equations(self):
        rng = np.random.default_rng(6)
        phi = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        beta = pinv_apply(thin_qr(phi), y)
        ref = normal_equations_solve(phi, y)
        npt.assert_allclose(beta, ref, rtol=1e-8)

    def test_wide_matrix_rejected(self):
        with pytest.raises(InvalidInputError):
            thin_qr(np.ones((2, 3)))

    def test_nonfinite_rejected(self):
        phi = np.ones((3, 2))
        phi[0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            thin_qr(phi)

    @pytest.mark.parametrize("m,n", [(5, 1), (40, 2), (809, 3), (300, 130)])
    def test_matches_literal_lapack_reference(self, m, n):
        """thin_qr is the pivoted Householder QR of LAPACK's geqp3 with Q1
        generated by dorgqr at its default workspace, bit for bit; 130
        columns take dorgqr past its unblocked size."""
        rng = np.random.default_rng(m + n)
        phi = rng.normal(size=(m, n)) * np.exp(rng.normal(size=n))
        (qr_raw, tau), _, perm = sl.qr(phi, mode="raw", pivoting=True)
        q1, _, info = sl.lapack.dorgqr(qr_raw[:, :n].copy(order="F"), tau)
        assert info == 0
        f = thin_qr(phi)
        assert f.q1.tobytes() == q1.tobytes()
        assert f.r1.tobytes() == np.triu(qr_raw[:n, :n]).tobytes()
        assert f.perm.tobytes() == perm.tobytes()

    def test_rank_deficiency_reported(self):
        phi = np.outer(np.arange(1.0, 6.0), [1.0, 2.0])  # rank 1
        with pytest.raises(RankDeficiencyError) as exc:
            thin_qr(phi)
        assert exc.value.rank == 1


class TestPinvApply:
    def test_identity_basis(self):
        y = np.array([3.0, -1.0, 2.0])
        f = thin_qr(np.eye(3))
        npt.assert_allclose(pinv_apply(f, y), y, atol=1e-14)

    def test_consistent_system(self):
        rng = np.random.default_rng(7)
        phi = rng.normal(size=(12, 3))
        beta_star = rng.normal(size=3)
        beta = pinv_apply(thin_qr(phi), phi @ beta_star)
        npt.assert_allclose(beta, beta_star, rtol=1e-10)

    def test_random_vs_oracle(self):
        rng = np.random.default_rng(8)
        phi = rng.normal(size=(30, 3))
        y = rng.normal(size=30)
        npt.assert_allclose(
            pinv_apply(thin_qr(phi), y), normal_equations_solve(phi, y), rtol=1e-8
        )


class TestProjPerp:
    def test_orthogonal_input_unchanged(self):
        phi = np.eye(4)[:, :2]
        y = np.array([0.0, 0.0, 1.0, -2.0])
        npt.assert_allclose(proj_perp_apply(thin_qr(phi), y), y, atol=1e-14)

    def test_in_range_annihilated(self):
        rng = np.random.default_rng(9)
        phi = rng.normal(size=(10, 3))
        y = phi @ rng.normal(size=3)
        r = proj_perp_apply(thin_qr(phi), y)
        assert np.linalg.norm(r) <= 1e-12 * np.linalg.norm(y)

    def test_pythagoras(self):
        rng = np.random.default_rng(10)
        phi = rng.normal(size=(15, 4))
        y = rng.normal(size=15)
        f = thin_qr(phi)
        perp = proj_perp_apply(f, y)
        par = f.q1.T @ y
        total = np.linalg.norm(perp) ** 2 + np.linalg.norm(par) ** 2
        npt.assert_allclose(total, np.linalg.norm(y) ** 2, rtol=1e-12)

    def test_result_orthogonal_to_columns(self):
        rng = np.random.default_rng(11)
        phi = rng.normal(size=(25, 4))
        y = rng.normal(size=25)
        r = proj_perp_apply(thin_qr(phi), y)
        bound = 1e-10 * np.linalg.norm(phi) * np.linalg.norm(y)
        assert np.max(np.abs(phi.T @ r)) <= bound


class TestQ2TApply:
    def test_in_range_gives_zero(self):
        rng = np.random.default_rng(12)
        phi = rng.normal(size=(8, 3))
        y = phi @ rng.normal(size=3)
        z = q2t_apply(thin_qr(phi), y)
        assert z.shape == (5,)
        assert np.linalg.norm(z) <= 1e-12 * np.linalg.norm(y)

    def test_coordinate_projector(self):
        phi = np.eye(6)[:, :2]
        y = np.arange(1.0, 7.0)
        z = q2t_apply(thin_qr(phi), y)
        npt.assert_allclose(sorted(np.abs(z)), sorted(np.abs(y[2:])), atol=1e-13)

    def test_square_case_empty(self):
        rng = np.random.default_rng(13)
        phi = rng.normal(size=(3, 3))
        z = q2t_apply(thin_qr(phi), np.ones(3))
        assert z.size == 0

    def test_norm_agreement_many_instances(self):
        rng = np.random.default_rng(14)
        for _ in range(1000):
            m = int(rng.integers(3, 9))
            n = int(rng.integers(1, m))
            phi = rng.normal(size=(m, n))
            y = rng.normal(size=m)
            f = thin_qr(phi)
            npt.assert_allclose(
                np.linalg.norm(q2t_apply(f, y)),
                np.linalg.norm(proj_perp_apply(f, y)),
                rtol=1e-12,
                atol=1e-14,
            )


class TestProjectorIdentities:
    """Explicit small-matrix identities for the projector and pseudo-inverse."""

    @pytest.mark.parametrize("m,n", [(4, 2), (6, 3), (8, 4), (5, 1)])
    def test_projector_identities(self, m, n):
        rng = np.random.default_rng(100 + m)
        phi = rng.normal(size=(m, n))
        f = thin_qr(phi)
        P = f.q1 @ f.q1.T
        npt.assert_allclose(P @ P, P, atol=1e-12)
        npt.assert_allclose(P.T, P, atol=1e-12)
        npt.assert_allclose(P @ phi, phi, atol=1e-12)
        # trailing orthogonal factor annihilates the column space
        z = np.column_stack([q2t_apply(f, phi[:, j]) for j in range(n)])
        npt.assert_allclose(z, 0.0, atol=1e-12)

    def test_pinv_reproduction(self):
        rng = np.random.default_rng(200)
        phi = rng.normal(size=(7, 3))
        f = thin_qr(phi)
        pinv = np.column_stack([pinv_apply(f, col) for col in np.eye(7)])
        npt.assert_allclose(
            phi @ pinv @ phi, phi, atol=1e-12 * np.linalg.norm(phi)
        )

    def test_pinv_transpose_apply(self):
        rng = np.random.default_rng(201)
        phi = rng.normal(size=(9, 3))
        f = thin_qr(phi)
        pinv = np.column_stack([pinv_apply(f, col) for col in np.eye(9)])
        w = rng.normal(size=3)
        npt.assert_allclose(pinv_transpose_apply(f, w), pinv.T @ w, atol=1e-12)
