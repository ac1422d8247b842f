import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest

import sepvar as sv
from sepvar import stats
from sepvar.exceptions import InvalidInputError
from sepvar.model import Dataset
from sepvar.solver import SolverConfig, _final_linear_solve, fit
from sepvar.stats import (
    arrow_inverse,
    build_H,
    compute_diagnostics,
    confidence_bounds,
    covariance,
    r_score,
    relative_error,
    sigma_of_regression,
)

from conftest import central_diff_jacobian, interleaved_exp_problem, make_exp_problem


class TestSigma:
    def test_hand_computed(self):
        # ||(3, 4)|| = 5 over sqrt(4 - 1*1 - 1) = sqrt(2)
        val = sigma_of_regression([3.0, 0.0, 0.0, 4.0], m_total=4, n=1, s=1, p=1)
        npt.assert_allclose(val, 5.0 / np.sqrt(2.0), rtol=1e-15)

    def test_zero_residual(self):
        assert sigma_of_regression(np.zeros(10), 10, 1, 2, 1) == 0.0

    def test_nonpositive_dof_rejected(self):
        with pytest.raises(InvalidInputError):
            sigma_of_regression(np.zeros(4), m_total=4, n=1, s=3, p=1)


class TestRScore:
    def test_perfect_fit_is_one(self):
        y = np.array([1.0, 2.0, 3.0, 7.0])
        npt.assert_allclose(r_score(y, y), 1.0, rtol=1e-15)

    def test_mean_prediction_is_zero(self):
        y = np.array([1.0, 2.0, 3.0])
        yhat = np.full(3, y.mean())
        npt.assert_allclose(r_score(y, yhat), 0.0, atol=1e-15)

    def test_hand_computed(self):
        y = np.array([0.0, 2.0])  # ybar = 1, SST = 2
        yhat = np.array([0.5, 1.5])  # SSR = 0.5
        npt.assert_allclose(r_score(y, yhat), 0.25, rtol=1e-15)

    def test_can_exceed_one(self):
        # overshooting model: this ratio form is not clamped to [0, 1]
        y = np.array([0.0, 2.0])
        yhat = np.array([-1.0, 3.0])
        assert r_score(y, yhat) == 4.0

    def test_constant_observations_rejected(self):
        with pytest.raises(InvalidInputError):
            r_score(np.ones(5), np.ones(5))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            r_score(np.ones(3), np.ones(4))


class TestBuildH:
    def test_shape(self, rng):
        prob, spec = make_exp_problem(rng, s=3, snr=50.0, seed=21)
        res = fit(prob, SolverConfig(), np.asarray(spec.alpha_true) * 1.1)
        H = build_H(res, prob)
        assert H.shape == (prob.m_total, prob.p + prob.s * prob.n)

    def test_linear_block_is_basis(self, rng):
        prob, spec = make_exp_problem(rng, s=2, snr=50.0, seed=22)
        res = fit(prob, SolverConfig(), np.asarray(spec.alpha_true) * 1.1)
        H = build_H(res, prob)
        row = 0
        for k, ds in enumerate(prob.datasets):
            phi = prob.model.eval(res.alpha_hat, ds).phi
            cols = slice(prob.p + k * prob.n, prob.p + (k + 1) * prob.n)
            npt.assert_allclose(H[row:row + ds.m, cols], phi, rtol=1e-14)
            row += ds.m

    def test_nonlinear_block_matches_reduced_jacobian(self, rng):
        prob, spec = make_exp_problem(rng, s=2, snr=50.0, seed=23)
        res = fit(prob, SolverConfig(method="vp-km"), np.asarray(spec.alpha_true) * 1.1)
        H = build_H(res, prob)
        red = sv.eval_gl(res.alpha_hat, prob)
        npt.assert_allclose(H[:, : prob.p], red.jac, rtol=1e-13)

    def test_nonlinear_block_is_projected_residual_derivative(self, rng):
        """[DERIVED-style oracle] the first block of H is d/dalpha of the
        stacked projected residual, checked by finite differences."""
        prob, spec = make_exp_problem(rng, s=2, snr=30.0, seed=24)
        res = fit(prob, SolverConfig(), np.asarray(spec.alpha_true) * 1.15)
        H = build_H(res, prob)
        fd = central_diff_jacobian(
            lambda a: sv.eval_gl(a, prob).z, res.alpha_hat
        )
        scale = max(np.abs(fd).max(), 1e-10)
        npt.assert_allclose(H[:, : prob.p], fd, atol=1e-5 * scale)


class TestCovariance:
    def test_identity_jacobian(self):
        C, warn = covariance(np.eye(4), sigma=2.0)
        npt.assert_allclose(C, 4.0 * np.eye(4), rtol=1e-14)
        assert not warn

    def test_scaling_with_sigma(self, rng):
        H = rng.normal(size=(20, 3))
        C1, _ = covariance(H, 1.0)
        C3, _ = covariance(H, 3.0)
        npt.assert_allclose(C3, 9.0 * C1, rtol=1e-12)

    def test_matches_direct_inverse(self, rng):
        H = rng.normal(size=(15, 4))
        C, _ = covariance(H, 1.5)
        ref = 1.5**2 * np.linalg.inv(H.T @ H)
        npt.assert_allclose(C, ref, rtol=1e-9)

    def test_singular_falls_back_with_warning(self):
        H = np.ones((5, 2))  # identical columns
        with pytest.warns(RuntimeWarning):
            C, warn = covariance(H, 1.0)
        assert warn
        assert np.all(np.isfinite(C))

    def test_symmetric(self, rng):
        H = rng.normal(size=(30, 5))
        C, _ = covariance(H, 0.7)
        npt.assert_allclose(C, C.T, atol=0.0)

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            covariance(np.array([[np.nan]]), 1.0)


class TestConfidenceBounds:
    def test_standard_quantile(self):
        # 95% two-sided normal quantile
        b = confidence_bounds(np.eye(1), level=0.95)
        npt.assert_allclose(b, [1.959963984540054], rtol=1e-12)

    def test_scales_with_sqrt_variance(self):
        C = np.diag([4.0, 9.0])
        b = confidence_bounds(C, level=0.95)
        npt.assert_allclose(b[1] / b[0], 1.5, rtol=1e-12)

    def test_bad_level_rejected(self):
        with pytest.raises(InvalidInputError):
            confidence_bounds(np.eye(2), level=1.0)

    @pytest.mark.parametrize("level", [0.0, 1.0, -0.5, float("nan"), "0.95", True])
    def test_level_is_read_before_the_covariance(self, level):
        """A bad level is named, also when the covariance is not finite."""
        for C in (np.eye(2), np.array([[np.nan]])):
            with pytest.raises(InvalidInputError, match="'level' must be"):
                confidence_bounds(C, level=level)

    def test_nonfinite_covariance_named_at_a_good_level(self):
        with pytest.raises(InvalidInputError, match="covariance contains non-finite"):
            confidence_bounds(np.array([[np.nan]]), level=0.9)

    def test_tiny_negative_diagonal_clipped(self):
        C = np.array([[-1e-18]])
        b = confidence_bounds(C)
        assert b[0] == 0.0


class TestRelativeError:
    def test_sign_convention(self):
        npt.assert_allclose(
            relative_error([2.0, 4.0], [1.0, 5.0]), [0.5, -0.25], rtol=1e-15
        )

    def test_zero_truth_rejected(self):
        with pytest.raises(InvalidInputError):
            relative_error([0.0], [1.0])


def readme_exp_problem():
    """The README quick-start problem: two datasets of 40 and 50 points."""
    return sv.generate(sv.TruthSpec(
        kind="exp", alpha_true=[1.2, 0.25], beta_true=([1.0, 0.8], [0.9, 1.1]),
        grids=(sv.GridSpec(40, 0.0, 4.0), sv.GridSpec(50, 0.0, 5.0)), snr=100.0, seed=7))


class TestComputeDiagnostics:
    def test_full_record(self, rng):
        prob, spec = make_exp_problem(rng, s=3, snr=100.0, seed=31)
        res = fit(prob, SolverConfig(), np.asarray(spec.alpha_true) * 1.1)
        d = compute_diagnostics(res, prob)
        n_params = prob.p + prob.s * prob.n
        assert d.dof == prob.m_total - n_params
        assert d.covariance.shape == (n_params, n_params)
        assert d.conf_bounds.shape == (n_params,)
        assert d.sigma > 0.0
        assert 0.5 < d.r_score < 1.5
        assert not d.rank_warning

    def test_sigma_independent_of_method(self, rng):
        """All methods polish the linear part the same way, so sigma at the
        common solution agrees across formulations."""
        grids = tuple(sv.GridSpec(40 + 5 * k, 0.0, 4.0) for k in range(2))
        beta = tuple(rng.uniform(0.8, 1.5, 2) for _ in range(2))
        spec = sv.TruthSpec(kind="exp", alpha_true=[1.2, 0.25], beta_true=beta,
                            grids=grids, snr=50.0, seed=32)
        prob = sv.generate(spec)
        sigmas = []
        for m in sv.METHODS:
            res = fit(prob, SolverConfig(method=m), np.asarray(spec.alpha_true) * 1.1)
            sigmas.append(compute_diagnostics(res, prob).sigma)
        npt.assert_allclose(sigmas, sigmas[0], rtol=1e-6)

    def test_dataset_permutation_consistency(self, rng):
        """Reordering datasets permutes the linear blocks of the bounds but
        leaves sigma, R and the nonlinear bounds unchanged."""
        prob, spec = make_exp_problem(rng, s=3, snr=50.0, seed=33)
        perm = [2, 0, 1]
        prob2 = sv.MultiProblem(
            datasets=tuple(prob.datasets[i] for i in perm), model=prob.model
        )
        alpha0 = np.asarray(spec.alpha_true) * 1.1
        d1 = compute_diagnostics(fit(prob, SolverConfig(), alpha0), prob)
        d2 = compute_diagnostics(fit(prob2, SolverConfig(), alpha0), prob2)
        npt.assert_allclose(d2.sigma, d1.sigma, rtol=1e-9)
        npt.assert_allclose(d2.r_score, d1.r_score, rtol=1e-9)
        p, n = prob.p, prob.n
        npt.assert_allclose(d2.conf_bounds[:p], d1.conf_bounds[:p], rtol=1e-6)
        for j, i in enumerate(perm):
            npt.assert_allclose(
                d2.conf_bounds[p + j * n : p + (j + 1) * n],
                d1.conf_bounds[p + i * n : p + (i + 1) * n],
                rtol=1e-6,
            )

    @pytest.mark.parametrize("method", sv.METHODS)
    @pytest.mark.parametrize("kind", ["exp", "frame"])
    def test_sigma_and_r_score_are_the_public_ones(self, rng, kind, method):
        """Bit for bit the public functions of freshly joined observations
        and residuals, on every call."""
        if kind == "exp":
            prob, spec = make_exp_problem(rng, s=3, snr=50.0, seed=36)
            alpha0 = np.asarray(spec.alpha_true) * 1.1
        else:
            prob, alpha0 = small_frame_problem(soundings=2), np.array([1.1, 0.9])
        res = fit(prob, SolverConfig(method=method), alpha0)
        y = np.concatenate([ds.y for ds in prob.datasets])
        residual = np.concatenate(res.residuals)
        for _ in range(2):
            d = compute_diagnostics(res, prob)
            assert d.sigma == sigma_of_regression(residual, y.size, prob.n, prob.s, prob.p)
            assert d.r_score == r_score(y, y - residual)
            assert d.dof == y.size - prob.s * prob.n - prob.p

    @pytest.mark.parametrize("kind", ["exp", "frame"])
    def test_two_fits_of_one_problem(self, rng, kind):
        """Two fits diagnosed on one problem, one after the other, each give
        the diagnostics of a freshly loaded copy."""
        if kind == "exp":
            prob, spec = make_exp_problem(rng, s=3, snr=50.0, seed=37)
            starts = (np.asarray(spec.alpha_true) * 1.1, np.asarray(spec.alpha_true) * 0.9)
        else:
            prob, starts = small_frame_problem(soundings=2), (np.array([1.1, 0.9]),) * 2
        fits = [fit(prob, SolverConfig(method=m), a0)
                for m, a0 in zip(("vp-gl", "vp-km"), starts)]
        for res in fits:
            d = compute_diagnostics(res, prob)
            copy = sv.MultiProblem(
                tuple(Dataset(t=ds.t.copy(), y=ds.y.copy(), aux=ds.aux, id=ds.id)
                      for ds in prob.datasets),
                prob.model,
            )
            ref = compute_diagnostics(res, copy)
            assert (d.sigma, d.r_score, d.dof) == (ref.sigma, ref.r_score, ref.dof)
            assert np.array_equal(d.conf_bounds, ref.conf_bounds)
        assert fits[0].residuals[0].tobytes() != fits[1].residuals[0].tobytes()

    def test_constant_observations_raise_every_time(self):
        """A fit of constant observations has no R-score: diagnostics raise,
        on the first call and on a repeat for the same problem."""
        prob = sv.generate(sv.TruthSpec(
            kind="exp", alpha_true=[1.2, 0.25], beta_true=([1.0, 0.8], [0.9, 1.1]),
            grids=(sv.GridSpec(40, 0.0, 4.0), sv.GridSpec(50, 0.0, 5.0)), snr=100.0, seed=7))
        const = sv.MultiProblem(
            tuple(Dataset(t=ds.t, y=np.full(ds.m, 2.0)) for ds in prob.datasets), prob.model)
        res = fit(const, SolverConfig(), np.array([1.0, 0.3]))
        for _ in range(2):
            with pytest.raises(InvalidInputError, match="R-score undefined"):
                compute_diagnostics(res, const)

    @pytest.fixture
    def no_work(self, monkeypatch):
        """Fails the test if compute_diagnostics starts on sigma."""
        def refuse(*args):
            raise AssertionError("diagnostics started before the refusal")
        monkeypatch.setattr(stats, "sigma_of_regression", refuse)

    def test_another_problems_layout_is_refused(self, no_work):
        """The README exp fit diagnosed with a two-spectrum frame problem is
        refused before any work, naming both row counts."""
        prob = readme_exp_problem()
        res = fit(prob, SolverConfig(), np.array([1.0, 0.3]))
        frame = small_frame_problem(soundings=1)
        assert frame.s == prob.s
        with pytest.raises(InvalidInputError,
                           match=f"fit has 90 residual rows and the problem {frame.m_total};"):
            compute_diagnostics(res, frame)

    def test_another_problems_linear_parameters_are_refused(self, no_work):
        """Three datasets of 30 points have the README problem's 90 rows but
        not its 2 x 2 linear parameters."""
        prob = readme_exp_problem()
        res = fit(prob, SolverConfig(), np.array([1.0, 0.3]))
        y = np.concatenate([ds.y for ds in prob.datasets])
        t = np.linspace(0.0, 3.0, 30)
        other = sv.MultiProblem(tuple(Dataset(t=t, y=y[30 * k : 30 * (k + 1)]) for k in range(3)),
                                prob.model)
        assert other.m_total == prob.m_total
        with pytest.raises(InvalidInputError, match="are 2 x 2 and the problem's 3 x 2;"):
            compute_diagnostics(res, other)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, float("nan"), "0.95", None])
    def test_level_is_read_first(self, no_work, level):
        """A bad level is named before any work, also for a fit whose
        inverse Grams are not finite or whose layout is another problem's."""
        prob = readme_exp_problem()
        res = fit(prob, SolverConfig(), np.array([1.0, 0.3]))
        red = res.final_eval
        broken = SimpleNamespace(final_eval=dataclasses.replace(red, d_inv=red.d_inv * np.inf))
        for result, problem in ((res, prob), (broken, prob), (res, small_frame_problem(1))):
            with pytest.raises(InvalidInputError, match="'level' must be"):
                compute_diagnostics(result, problem, level=level)

    def test_nonfinite_inputs_named_at_a_good_level(self):
        prob = readme_exp_problem()
        red = fit(prob, SolverConfig(), np.array([1.0, 0.3])).final_eval
        broken = SimpleNamespace(final_eval=dataclasses.replace(red, d_inv=red.d_inv * np.inf))
        with pytest.raises(InvalidInputError, match="non-finite inputs to covariance"):
            compute_diagnostics(broken, prob, level=0.9)

    def test_bounds_shrink_with_snr(self):
        """Statistical sanity: tighter noise gives tighter intervals."""
        rng = np.random.default_rng(34)
        grids = tuple(sv.GridSpec(40, 0.0, 4.0) for _ in range(3))
        beta = tuple(rng.uniform(0.8, 1.5, 2) for _ in range(3))
        widths = []
        for snr in (20.0, 2000.0):
            spec = sv.TruthSpec(kind="exp", alpha_true=[1.2, 0.25],
                                beta_true=beta, grids=grids, snr=snr, seed=35)
            prob = sv.generate(spec)
            res = fit(prob, SolverConfig(), np.array([1.4, 0.3]))
            widths.append(compute_diagnostics(res, prob).conf_bounds[0])
        assert widths[1] < 0.05 * widths[0]


# vp-km diagnostics against those of a fresh eval_gl, relative to the
# largest entry; the two cases here read at most 1.4e-13 (F_k of the frame)
KM_ROUTE_RTOL = 1e-12


def small_frame_problem(soundings, seed=41):
    """Beer-law frame layout (two bands per sounding) on short grids."""
    grids = sv.frame_grids(n_soundings=soundings, strong_length=160, weak_length=130)
    beta = tuple(np.array([1.0, 0.1, -0.05]) for _ in grids)
    spec = sv.TruthSpec(kind="beer", alpha_true=[1.0, 1.0], beta_true=beta,
                        grids=grids, snr=200.0, seed=seed)
    return sv.generate(spec)


def assert_matches_dense(d, res, prob, rtol):
    """Covariance entries relative to the root of their two variances, and
    bounds relative to themselves, against the dense reference."""
    C_ref, warn = covariance(build_H(res, prob), d.sigma)
    assert warn == d.rank_warning
    scale = np.sqrt(np.outer(np.diag(C_ref), np.diag(C_ref)))
    assert np.max(np.abs(d.covariance - C_ref) / scale) <= rtol
    npt.assert_allclose(d.conf_bounds, confidence_bounds(C_ref), rtol=rtol)


def arrow_blocks(jacs, phis):
    """A = J^T J, B_k = J_k^T phi_k and D_k = phi_k^T phi_k of the stacked
    per-dataset blocks J_k (s x m x p) and phi_k (s x m x n)."""
    a = sum(j.T @ j for j in jacs)
    return a, jacs.transpose(0, 2, 1) @ phis, phis.transpose(0, 2, 1) @ phis


class TestBlockArrowDiagnostics:
    """The Schur-complement path against the dense H reference."""

    @pytest.mark.parametrize("method", sv.METHODS)
    def test_exp_matches_dense(self, rng, method):
        prob, spec = make_exp_problem(rng, s=3, snr=50.0, seed=42)
        res = fit(prob, SolverConfig(method=method), np.asarray(spec.alpha_true) * 1.1)
        assert_matches_dense(compute_diagnostics(res, prob), res, prob, rtol=1e-10)

    @pytest.mark.parametrize("method", sv.METHODS)
    def test_beer_frame_matches_dense(self, method):
        prob = small_frame_problem(soundings=2)
        res = fit(prob, SolverConfig(method=method), np.array([1.1, 0.9]))
        assert_matches_dense(compute_diagnostics(res, prob), res, prob, rtol=1e-10)

    def test_kernel_matches_dense_inverse(self, rng):
        s, m, n, p = 4, 9, 2, 3
        jac = rng.normal(size=(s * m, p))
        phis = [rng.normal(size=(m, n)) for _ in range(s)]
        H = np.zeros((s * m, p + s * n))
        H[:, :p] = jac
        for k in range(s):
            H[k * m:(k + 1) * m, p + k * n:p + (k + 1) * n] = phis[k]
        inv = arrow_inverse(*arrow_blocks(jac.reshape(s, m, p), np.stack(phis)))
        ref = np.linalg.inv(H.T @ H)
        npt.assert_allclose(inv.dense(), ref, rtol=1e-10, atol=1e-12 * np.abs(ref).max())
        npt.assert_allclose(inv.diagonal(), np.diag(inv.dense()), rtol=1e-12)
        assert not inv.rank_warning

    @pytest.mark.parametrize("equal", ["alpha-columns", "basis-columns"])
    def test_singular_block_warns(self, rng, equal):
        """Two equal alpha columns of J make S singular while every D_k is
        fine; two equal basis columns make D_k singular.  The Cholesky
        checks on S and D_k catch either."""
        s, m, n, p = 3, 10, 2, 2
        x = rng.normal(size=(s, m, p + n))
        if equal == "alpha-columns":
            x[:, :, 1] = x[:, :, 0]
        else:
            x[:, :, p + 1] = x[:, :, p]
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            inv = arrow_inverse(*arrow_blocks(x[:, :, :p], x[:, :, p:]))
        assert inv.rank_warning
        assert np.all(np.isfinite(inv.diagonal()))
        assert np.all(np.isfinite(inv.dense()))

    @pytest.mark.parametrize(
        "method, evals",
        [("vp-gl", 0), ("nls-full", 0), ("vp-km", 0), ("vp-naive", 0)],
    )
    def test_reuses_fit_evaluation(self, rng, monkeypatch, method, evals):
        prob, spec = make_exp_problem(rng, s=2, snr=50.0, seed=43)
        res = fit(prob, SolverConfig(method=method), np.asarray(spec.alpha_true) * 1.1)
        calls = []
        inner = stats.eval_gl
        monkeypatch.setattr(stats, "eval_gl", lambda *a: calls.append(a) or inner(*a))
        d = compute_diagnostics(res, prob)
        assert len(calls) == evals
        assert_matches_dense(d, res, prob, rtol=1e-10)

    @pytest.mark.parametrize("kind", ["exp", "frame"])
    def test_km_diagnostics_equal_fresh_gl_evaluation(self, rng, kind):
        """vp-km diagnostics take S = J_km^T J_km from the fit's own
        evaluation; they equal those computed from a fresh eval_gl at
        alpha_hat: sigma bit for bit, and the bounds, S^-1, D_k^-1 and F_k
        within KM_ROUTE_RTOL of the largest entry (each bound of itself)."""
        if kind == "exp":
            prob, spec = make_exp_problem(rng, s=3, snr=50.0, seed=44)
            alpha0 = np.asarray(spec.alpha_true) * 1.1
        else:
            prob, alpha0 = small_frame_problem(soundings=3), np.array([1.1, 0.9])
        res = fit(prob, SolverConfig(method="vp-km"), alpha0)
        d = compute_diagnostics(res, prob)
        res.final_eval = sv.eval_gl(res.alpha_hat, prob)
        ref = compute_diagnostics(res, prob)
        assert d.sigma == ref.sigma
        npt.assert_allclose(d.conf_bounds, ref.conf_bounds, rtol=KM_ROUTE_RTOL, atol=0)
        for name in ("s_inv", "d_inv", "f"):
            ours, theirs = getattr(d.gram_inverse, name), getattr(ref.gram_inverse, name)
            assert np.max(np.abs(ours - theirs)) <= KM_ROUTE_RTOL * np.max(np.abs(theirs))

    @pytest.mark.parametrize("kind", ["exp-padded", "frame"])
    def test_km_gram_is_gl_schur_complement(self, kind):
        """A vp-km fit's final J_km^T J_km is the Schur complement
        J^T J - sum_k v_k D_k^-1 v_k^T of a fresh eval_gl at alpha_hat to
        rounding, relative to max |J^T J|: P_perp Q1 = 0 makes them equal
        in exact arithmetic, so the diagnostics take S from it."""
        if kind == "exp-padded":  # two groups, each padded to its longest
            prob, alpha0 = interleaved_exp_problem(), np.array([1.0, 0.3])
        else:
            prob, alpha0 = small_frame_problem(soundings=3), np.array([1.1, 0.9])
        res = fit(prob, SolverConfig(method="vp-km"), alpha0)
        km = res.final_eval
        gl = sv.eval_gl(res.alpha_hat, prob)
        a = gl.jac.T @ gl.jac
        schur = a - np.einsum("kpn,knm,kqm->pq", gl.v, gl.d_inv, gl.v)
        # the two cases read 1.9e-16 and 6.2e-16
        assert np.max(np.abs(km.jac.T @ km.jac - schur)) <= 1e-14 * np.max(np.abs(a))

    @pytest.mark.parametrize("method", ["vp-gl", "vp-km"])
    def test_memory_linear_in_datasets(self, method):
        peaks = {}
        for s in (32, 128):
            prob = small_frame_problem(soundings=s // 2)
            res = fit(prob, SolverConfig(method=method), np.array([1.1, 0.9]))
            tracemalloc.start()
            try:
                compute_diagnostics(res, prob)
                peaks[s] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[128] / peaks[32] < 6.0


def arrow_oracle(a, b, phis, schur):
    """diag((H^T H)^-1) at 50 digits, of H^T H assembled from the blocks the
    diagnostics read (A, or S itself when ``schur``, and B_k) and the exact
    Grams phi_k^T phi_k of the double-precision bases.  With A given, this is
    H^T H in exact arithmetic, so the oracle charges a route only for what
    it does from the D_k on."""
    import mpmath

    with mpmath.workdps(50):
        s, p, n = b.shape
        grams = [mpmath.matrix(phi.tolist()) for phi in phis]
        grams = [g.T * g for g in grams]
        blocks = [mpmath.matrix(bk.tolist()) for bk in b]
        top = mpmath.matrix(a.tolist())
        if schur:  # A = S + sum_k B_k D_k^-1 B_k^T
            for bk, g in zip(blocks, grams):
                top += bk * mpmath.inverse(g) * bk.T
        size = p + s * n
        gram = mpmath.zeros(size, size)
        for i in range(p):
            for j in range(p):
                gram[i, j] = top[i, j]
        for k, (bk, g) in enumerate(zip(blocks, grams)):
            at = p + k * n
            for i in range(n):
                for l in range(p):
                    gram[l, at + i] = gram[at + i, l] = bk[l, i]
                for j in range(n):
                    gram[at + i, at + j] = g[i, j]
        inv = mpmath.inverse(gram)
        return np.array([float(inv[i, i]) for i in range(size)])


# Ill-conditioned points of the README exp layout, where the two rates
# nearly coincide: the collapsed-rate stop that nls-full reaches from some
# README starts (cond(phi_k) 4.4e4), the point where it converges from
# (2.08, 2.27) (cond(phi_k) 8e6), and four more with cond(phi_k) from 4e3
# to 3.3e5
COLLAPSED_RATES = [(0.43987, 0.43992), (0.3778545, 0.37785476), (0.8, 0.80001),
                   (2.0, 2.0001), (0.3, 0.3003), (1.0, 1.001)]


class TestInverseGramAccuracy:
    """The D_k^-1 that the diagnostics take from R^-1 R^-T against the
    Cholesky inverse of the Gram R^T R, which squares cond(phi_k)."""

    @pytest.mark.parametrize("ev", [sv.eval_gl, sv.eval_km], ids=["gl", "km"])
    @pytest.mark.parametrize("alpha", COLLAPSED_RATES, ids=str)
    def test_variances_at_least_as_close_to_50_digit_inverse(self, alpha, ev):
        """The alpha and beta variances of compute_diagnostics are at least
        as close to a 50-digit inverse of H^T H as those of arrow_inverse
        given the Grams R^T R of each basis's QR, or within the rounding
        floor that both routes share.  That floor, eps max |A| ||S^-1||,
        is the error of S^-1 from rounding S = A - sum_k F_k B_k^T at the
        scale of A; below it, which route lands closer is chance (it is the
        parent's at (1.0, 1.001) with the gl form: 6.5e-10 against 2.6e-9,
        under a floor of 3.7e-9)."""
        prob = readme_exp_problem()
        alpha = np.array(alpha)
        red = ev(alpha, prob)
        betas, residuals = _final_linear_solve(prob, red)
        result = SimpleNamespace(alpha_hat=alpha, beta_hat=betas, residuals=residuals,
                                 final_eval=red)
        ours = compute_diagnostics(result, prob).gram_inverse
        a, b, schur = stats._column_gram(red.jac), -red.v, red.form == "km"
        grams = np.stack([r.T @ r for r in (np.linalg.qr(phi)[1] for phi in red.phis)])
        cholesky = arrow_inverse(a, b, grams, schur=schur)
        exact = arrow_oracle(a, b, red.phis, schur)
        floor = np.finfo(float).eps * np.max(np.abs(a)) * np.linalg.norm(ours.s_inv, 2)
        p = prob.p
        for part in (slice(0, p), slice(p, None)):
            err = np.max(np.abs(ours.diagonal() - exact)[part] / exact[part])
            parent = np.max(np.abs(cholesky.diagonal() - exact)[part] / exact[part])
            assert err <= max(parent, floor), (err, parent, floor)
