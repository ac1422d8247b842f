import weakref

import numpy as np
import numpy.testing as npt
import pytest

import sepvar as sv
from sepvar.exceptions import InvalidInputError
from sepvar import solver, stats
from sepvar.cli import spec_from_config
from sepvar.solver import METHODS, SolverConfig, fit, initial_beta

from conftest import central_diff_jacobian, interleaved_exp_problem, make_exp_problem


def noiseless_problem(rng, s=3):
    prob, spec = make_exp_problem(rng, s=s, snr=np.inf, seed=314159)
    return prob, spec


def sep_rate_spec(s, snr, seed):
    """Well-separated decay rates and dense grids: a single clear optimum,
    so all formulations must land on the same solution."""
    rng = np.random.default_rng(seed)
    grids = tuple(
        sv.GridSpec(40 + 5 * k, 0.0, 4.0 + 0.3 * k) for k in range(s)
    )
    beta_true = tuple(rng.uniform(0.8, 1.5, 2) for _ in range(s))
    return sv.TruthSpec(
        kind="exp",
        alpha_true=[1.2, 0.25],
        beta_true=beta_true,
        grids=grids,
        snr=snr,
        seed=seed,
    )


class TestConfig:
    def test_unknown_method_rejected(self):
        with pytest.raises(InvalidInputError):
            SolverConfig(method="gauss-newton")

    def test_all_methods_enumerated(self):
        assert METHODS == ("vp-gl", "vp-km", "vp-naive", "nls-full")


class TestNoiselessRecovery:
    @pytest.mark.parametrize("method", METHODS)
    def test_exact_recovery(self, method, rng):
        prob, spec = noiseless_problem(rng)
        alpha0 = np.asarray(spec.alpha_true) * 1.3
        res = fit(prob, SolverConfig(method=method), alpha0)
        npt.assert_allclose(res.alpha_hat, spec.alpha_true, rtol=1e-6)
        for k, beta in enumerate(res.beta_hat):
            npt.assert_allclose(beta, spec.beta_true[k], rtol=1e-5)
        assert res.cost <= 1e-16

    def test_methods_agree_with_noise(self):
        spec = sep_rate_spec(s=3, snr=100.0, seed=2718)
        prob = sv.generate(spec)
        alpha0 = np.asarray(spec.alpha_true) * 1.2
        sols = [
            fit(prob, SolverConfig(method=m), alpha0).alpha_hat for m in METHODS
        ]
        for other in sols[1:]:
            npt.assert_allclose(other, sols[0], rtol=1e-5)


class TestSingleDataset:
    def test_s1_reduces_to_classic_varpro(self):
        spec = sep_rate_spec(s=1, snr=200.0, seed=11)
        prob = sv.generate(spec)
        alpha0 = np.asarray(spec.alpha_true) * 1.25
        gl = fit(prob, SolverConfig(method="vp-gl"), alpha0)
        km = fit(prob, SolverConfig(method="vp-km"), alpha0)
        nv = fit(prob, SolverConfig(method="vp-naive"), alpha0)
        npt.assert_allclose(km.alpha_hat, gl.alpha_hat, rtol=1e-6)
        npt.assert_allclose(nv.alpha_hat, gl.alpha_hat, rtol=1e-6)


class TestNLSFull:
    def test_jacobian_matches_finite_differences(self, rng):
        prob, spec = make_exp_problem(rng, s=2, snr=40.0, seed=5)
        x = np.concatenate(
            [np.asarray(spec.alpha_true) * 1.1]
            + [np.asarray(b) * 0.9 for b in spec.beta_true]
        )
        J = sv.nls_full_jacobian(x, prob)
        fd = central_diff_jacobian(lambda v: sv.nls_full_residual(v, prob), x)
        npt.assert_allclose(J, fd, atol=1e-6 * max(1.0, np.abs(fd).max()))

    def test_jacobian_block_sparsity(self, rng):
        prob, spec = make_exp_problem(rng, s=3, snr=np.inf, seed=6)
        x = np.concatenate(
            [np.asarray(spec.alpha_true)] + [np.asarray(b) for b in spec.beta_true]
        )
        J = sv.nls_full_jacobian(x, prob)
        p, n = prob.p, prob.n
        row = 0
        for k, ds in enumerate(prob.datasets):
            for j, other in enumerate(range(prob.s)):
                if other == k:
                    continue
                cols = slice(p + other * n, p + (other + 1) * n)
                npt.assert_allclose(J[row:row + ds.m, cols], 0.0, atol=0.0)
            row += ds.m

    def test_initial_beta_warm_start(self, rng):
        prob, spec = make_exp_problem(rng, s=2, snr=np.inf, seed=7)
        betas = initial_beta(prob, spec.alpha_true)
        for k, b in enumerate(betas):
            npt.assert_allclose(b, spec.beta_true[k], rtol=1e-8)

    def test_x_length_validated(self, rng):
        prob, _ = make_exp_problem(rng, s=2, seed=8)
        with pytest.raises(InvalidInputError):
            sv.nls_full_residual(np.zeros(3), prob)
        with pytest.raises(InvalidInputError):
            sv.nls_full_jacobian(np.zeros(3), prob)


class TestFitResult:
    @pytest.mark.parametrize("method", METHODS)
    def test_residuals_orthogonal_to_basis(self, method, rng):
        """Invariant: returned residuals are orthogonal to the fitted basis
        columns, because the linear part is always the exact minimizer."""
        prob, spec = make_exp_problem(rng, s=3, snr=30.0, seed=9)
        res = fit(prob, SolverConfig(method=method), np.asarray(spec.alpha_true) * 1.2)
        for ds, r in zip(prob.datasets, res.residuals):
            phi = prob.model.eval(res.alpha_hat, ds).phi
            bound = 1e-8 * np.linalg.norm(phi) * np.linalg.norm(ds.y)
            assert np.max(np.abs(phi.T @ r)) <= bound

    def test_cost_matches_residual_norms(self, rng):
        prob, spec = make_exp_problem(rng, s=2, snr=25.0, seed=10)
        res = fit(prob, SolverConfig(), np.asarray(spec.alpha_true) * 1.1)
        direct = 0.5 * sum(np.linalg.norm(r) ** 2 for r in res.residuals)
        npt.assert_allclose(res.cost, direct, rtol=1e-14)

    def test_reports_populated(self, rng):
        prob, spec = make_exp_problem(rng, s=2, snr=50.0, seed=12)
        res = fit(prob, SolverConfig(), np.asarray(spec.alpha_true) * 1.1)
        assert res.method == "vp-gl"
        assert res.wall_time > 0.0
        assert res.lm_report.status.startswith("converged")
        assert len(res.beta_hat) == prob.s
        assert res.alpha_hat.shape == (prob.p,)

    def test_alpha0_length_validated(self, rng):
        prob, _ = make_exp_problem(rng, s=2, seed=13)
        with pytest.raises(InvalidInputError):
            fit(prob, SolverConfig(), np.zeros(prob.p + 1))


class TestFinalLinearSolve:
    @pytest.mark.parametrize("method", ["vp-gl", "vp-km", "vp-naive"])
    @pytest.mark.parametrize("max_iter", [2, 3, 4, 200])
    def test_reuses_the_evaluation_at_alpha_hat(self, method, max_iter, monkeypatch, rng):
        """Jacobians and the final linear solve add no evaluation, whether
        the last LM trial was accepted or rejected."""
        prob, spec = make_exp_problem(rng, s=3, snr=100.0, seed=14)
        points = []
        inner = solver._VP_EVALS[method]

        def counted(alpha, problem, **kwargs):
            points.append(np.asarray(alpha, dtype=float).tobytes())
            return inner(alpha, problem, **kwargs)

        monkeypatch.setitem(solver._VP_EVALS, method, counted)
        if method == "vp-naive":
            monkeypatch.setattr(solver, "eval_naive", counted)
        cfg = SolverConfig(method=method, lm=sv.LMConfig(max_iter=max_iter))
        res = fit(prob, cfg, np.asarray(spec.alpha_true) * 1.3)
        assert len(points) <= res.lm_report.n_feval
        ref = initial_beta(prob, res.alpha_hat)
        for got, want in zip(res.beta_hat, ref):
            npt.assert_allclose(got, want, rtol=1e-10)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("kind", ["exp-padded", "frame"])
    def test_results_are_read_from_the_final_evaluation(self, method, kind):
        """Each residual is a view of the final evaluation's z = P_perp y,
        cut at block_starts, each beta_hat a row of its s x n betas, in
        problem order, and sigma and the R-score are the public functions of
        that z, all bit for bit.  The exp datasets of 40, 70, 45 and 90
        points form two padded groups that interleave in problem order."""
        if kind == "exp-padded":
            prob, alpha0 = interleaved_exp_problem(), np.array([1.0, 0.3])
        else:
            prob, alpha0 = frame_problem(2, 11), np.array([1.1, 0.9])
        res = fit(prob, SolverConfig(method=method), alpha0)
        red, starts = res.final_eval, prob.block_starts
        assert red.betas.shape == (prob.s, prob.n)
        assert len(res.beta_hat) == len(res.residuals) == prob.s
        ref = initial_beta(prob, res.alpha_hat)  # one pivoted QR per dataset
        for k in range(prob.s):
            block = red.z[starts[k] : starts[k + 1]]
            assert np.shares_memory(res.residuals[k], block)
            assert res.residuals[k].tobytes() == block.tobytes()
            assert res.beta_hat[k].tobytes() == red.betas[k].tobytes()
            assert np.linalg.norm(red.betas[k] - ref[k]) <= 1e-10 * np.linalg.norm(ref[k])
        y = np.concatenate([ds.y for ds in prob.datasets])
        diag = stats.compute_diagnostics(res, prob)
        assert diag.sigma == stats.sigma_of_regression(red.z, y.size, prob.n, prob.s, prob.p)
        assert diag.r_score == stats.r_score(y, y - red.z)

    def test_nls_full_evaluates_once_at_alpha_hat(self, monkeypatch, rng):
        """The joint reference reduces once, at alpha_hat, and the final
        linear solve and the diagnostics share that evaluation."""
        prob, spec = make_exp_problem(rng, s=3, snr=100.0, seed=14)
        calls = []
        inner = solver._VP_EVALS["vp-gl"]

        def counted(alpha, problem):
            red = inner(alpha, problem)
            calls.append((np.array(alpha, dtype=float), red))
            return red

        monkeypatch.setitem(solver._VP_EVALS, "vp-gl", counted)
        res = fit(prob, SolverConfig(method="nls-full"), np.asarray(spec.alpha_true) * 1.3)
        assert len(calls) == 1
        alpha, red = calls[0]
        assert np.array_equal(alpha, res.alpha_hat)
        assert res.final_eval is red
        for got, beta in zip(res.beta_hat, red.betas):
            assert np.array_equal(got, beta)

    def test_nls_full_evaluates_each_point_once(self, monkeypatch, rng):
        """The joint residual and Jacobian at an iterate come from one model
        evaluation, one per LM point; the start's is the warm start's."""
        prob, spec = make_exp_problem(rng, s=3, snr=100.0, seed=14)
        calls = []
        inner = solver.dataset_bases

        def counted(alpha, problem):
            calls.append(np.array(alpha, dtype=float))
            return inner(alpha, problem)

        monkeypatch.setattr(solver, "dataset_bases", counted)
        res = fit(prob, SolverConfig(method="nls-full"), np.asarray(spec.alpha_true) * 1.3)
        accepted = len(res.lm_report.cost_history) - 1
        assert accepted >= 2
        assert len(calls) == res.lm_report.n_feval


def frame_problem(soundings, seed):
    """A ``sepvar generate`` frame-layout problem: 2 * soundings spectra on
    809- and 651-point bands, n = 3, p = 2, SNR 200."""
    cfg = {"model": "beer", "n": 3, "p": 2, "seed": seed, "snr": 200,
           "alpha_true": [1.0, 1.0], "frame": {"soundings": soundings}}
    return sv.generate(spec_from_config(cfg))


# the README quick-start problem: datasets of 40 and 50 points
README_EXP = {"model": "exp", "n": 2, "p": 2, "seed": 7, "snr": 100, "alpha_true": [1.2, 0.25],
              "grids": [{"length": 40, "lo": 0.0, "hi": 4.0},
                        {"length": 50, "lo": 0.0, "hi": 5.0}]}


class TestIterationEconomy:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_frame_fits_take_four_evaluations(self, seed):
        """s = 64 frame fits converge in three steps; the fourth step's
        predicted decrease is round-off, so it costs no evaluation."""
        prob = frame_problem(32, seed)
        for method in ("vp-gl", "vp-km"):
            res = fit(prob, SolverConfig(method=method), np.array([1.1, 0.9]))
            assert res.lm_report.status == "converged-ftol"
            assert res.lm_report.n_feval <= 4, method
            npt.assert_allclose(res.alpha_hat, [1.0, 1.0], rtol=1e-3)

    def test_naive_stops_after_a_round_off_rejection(self):
        prob = frame_problem(8, 23)
        res = fit(prob, SolverConfig(method="vp-naive"), np.array([1.1, 0.9]))
        assert res.lm_report.status == "converged-ftol"
        assert res.lm_report.n_feval <= 5

    def test_vp_converges_in_reasonable_iterations(self, rng):
        """Guards against regressions that would silently turn the reduced
        iteration into something much slower."""
        prob, spec = make_exp_problem(rng, s=3, snr=100.0, seed=14)
        res = fit(prob, SolverConfig(), np.asarray(spec.alpha_true) * 1.3)
        assert res.lm_report.n_iter <= 40

    def test_beer_paper_configuration(self, rng):
        """Spectroscopy model at a reduced scale: two species, three
        continuum coefficients per dataset."""
        grids = sv.frame_grids(n_soundings=2)
        spec = sv.TruthSpec(
            kind="beer",
            alpha_true=[1.0, 1.0],
            beta_true=tuple(np.array([1.0, 0.1, -0.05]) for _ in grids),
            grids=grids,
            snr=500.0,
            seed=77,
        )
        prob = sv.generate(spec)
        for method in ("vp-gl", "nls-full"):
            res = fit(prob, SolverConfig(method=method), np.array([1.4, 0.7]))
            npt.assert_allclose(res.alpha_hat, [1.0, 1.0], rtol=5e-3)


def literal_joint(x, prob):
    """The joint residual and Jacobian built dataset by dataset from
    model.eval, and the linear solutions at x's alpha by each dataset's
    pivoted QR."""
    p, n = prob.p, prob.n
    alpha = x[:p]
    z, betas = [], []
    J = np.zeros((prob.m_total, p + prob.s * n))
    row = 0
    for k, ds in enumerate(prob.datasets):
        beta = x[p + k * n : p + (k + 1) * n]
        be = prob.model.eval(alpha, ds)
        z.append(ds.y - be.phi @ beta)
        rows = slice(row, row + ds.m)
        for l in range(p):
            J[rows, l] = -(be.dphi[l] @ beta)
        J[rows, p + k * n : p + (k + 1) * n] = -be.phi
        betas.append(sv.pinv_apply(sv.thin_qr(be.phi), ds.y))
        row += ds.m
    return np.concatenate(z), J, betas


class TestReferencePaths:
    """The block-diagonal and joint reference formulations evaluate the
    model once per group, and give what dataset-by-dataset evaluation
    gives, bit for bit."""

    @staticmethod
    def problems():
        # groups (0, 2) and (1, 3) for both: frame bands alternate, and so
        # do the exp length buckets
        return ((frame_problem(2, 21), np.array([1.1, 0.9])),
                (interleaved_exp_problem(), np.array([1.1, 0.3])))

    def test_joint_residual_jacobian_and_warm_start_are_literal(self):
        for prob, alpha in self.problems():
            assert [g.index for g in prob.groups] == [(0, 2), (1, 3)]
            betas = initial_beta(prob, alpha)
            x = np.concatenate([alpha] + [1.1 * b for b in betas])
            z, J, ref_betas = literal_joint(x, prob)
            assert np.array_equal(sv.nls_full_residual(x, prob), z)
            assert np.array_equal(sv.nls_full_jacobian(x, prob), J)
            for got, want in zip(betas, ref_betas):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("method", ["vp-naive", "nls-full"])
    def test_fit_makes_no_one_dataset_eval(self, method, monkeypatch):
        """Neither the fit nor its diagnostics, nor the dense H of
        ``stats.build_H``, evaluate the model one dataset at a time."""
        for prob, alpha in self.problems():
            calls = []
            cls = type(prob.model)
            inner = cls.eval

            def counted(model, a, dataset, inner=inner):
                calls.append(dataset)
                return inner(model, a, dataset)

            monkeypatch.setattr(cls, "eval", counted)
            res = fit(prob, SolverConfig(method=method), alpha)
            sv.compute_diagnostics(res, prob)
            stats.build_H(res, prob)
            assert res.lm_report.n_feval >= 2
            assert calls == []


class TestEvaluationCache:
    """A vp-gl/vp-km fit keeps the latest evaluation and the iterate's; a
    result that has left the fit is never written again."""

    ALPHA0 = np.array([1.1, 0.9])

    @staticmethod
    def snapshot(res, prob):
        red = res.final_eval
        diag = sv.compute_diagnostics(res, prob)
        return [np.array(a) for a in (*red.phis, *red.betas, red.jac, red.z, *res.residuals,
                                      diag.conf_bounds, diag.gram_inverse.s_inv,
                                      diag.gram_inverse.d_inv, diag.gram_inverse.f)]

    @pytest.mark.parametrize("method", ["vp-gl", "vp-km"])
    def test_result_survives_a_second_fit(self, method):
        prob = frame_problem(2, 11)
        first = fit(prob, SolverConfig(method=method), self.ALPHA0)
        before = self.snapshot(first, prob)
        fit(prob, SolverConfig(method=method), np.array([1.5, 1.5]))
        after = self.snapshot(first, prob)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))

    @pytest.mark.parametrize("method", ["vp-gl", "vp-km"])
    def test_final_eval_is_the_iterate_after_a_rejected_trial(self, method, monkeypatch):
        """Here the last trial is rejected, so the evaluation at alpha_hat
        is the cached iterate's, not the latest one.  (Frame seed 24 ends on
        a rejected trial with both methods; the first assertion checks it.)"""
        prob = frame_problem(2, 24)
        points = []
        inner = solver._VP_EVALS[method]

        def recorded(alpha, problem, **kwargs):
            points.append(np.array(alpha, dtype=float))
            return inner(alpha, problem, **kwargs)

        monkeypatch.setitem(solver._VP_EVALS, method, recorded)
        res = fit(prob, SolverConfig(method=method), self.ALPHA0)
        assert len(points) > 2 and not np.array_equal(points[-1], res.alpha_hat)
        red = res.final_eval
        for ds, phi in zip(prob.datasets, red.phis):
            assert np.array_equal(phi, prob.model.eval(res.alpha_hat, ds).phi)
        fresh = inner(res.alpha_hat, prob)
        assert np.array_equal(red.z, fresh.z)
        assert np.array_equal(red.jac, fresh.jac)
        assert all(np.array_equal(a, b) for a, b in zip(red.betas, fresh.betas))

    @pytest.mark.parametrize("method", ["vp-gl", "vp-km"])
    def test_iterate_survives_rejected_trials(self, method):
        """The engine's calls after three rejected trials in a row: the
        iterate's evaluation is still the one made at the iterate."""
        prob = frame_problem(2, 11)
        cache = solver._CachedReduced(prob, method)
        iterate = self.ALPHA0
        cache.residual(iterate)
        cache.jacobian(iterate)
        for trial in ([1.5, 0.5], [1.2, 0.8], [0.7, 1.3]):
            cache.residual(np.array(trial))
        red = cache.at(iterate)
        for ds, phi in zip(prob.datasets, red.phis):
            assert np.array_equal(phi, prob.model.eval(iterate, ds).phi)

    @pytest.mark.parametrize("family", ["beer", "exp"])
    @pytest.mark.parametrize("method", ["vp-gl", "vp-km"])
    def test_at_most_the_iterate_lives_when_an_evaluation_starts(self, method, family,
                                                                monkeypatch):
        """The engine's calls for an iterate, its Jacobian and three
        rejected trials: when each evaluation starts, the iterate's is the
        only earlier one still alive, so a fit holds at most two.  The exp
        problem's 40- and 50-point datasets are one padded group."""
        prob = frame_problem(2, 11) if family == "beer" else sv.generate(
            spec_from_config(README_EXP))
        refs, alive = [], []
        inner = solver._VP_EVALS[method]

        def recorded(alpha, problem):
            alive.append([i for i, ref in enumerate(refs) if ref() is not None])
            red = inner(alpha, problem)
            refs.append(weakref.ref(red))
            return red

        monkeypatch.setitem(solver._VP_EVALS, method, recorded)
        cache = solver._CachedReduced(prob, method)
        cache.residual(self.ALPHA0)
        cache.jacobian(self.ALPHA0)
        for trial in ([1.5, 0.5], [1.2, 0.8], [0.7, 1.3]):
            cache.residual(np.array(trial))
        assert alive == [[], [0], [0], [0]]
        assert refs[0]() is cache.at(self.ALPHA0)


class TestStackReuse:
    """Each evaluation of a vp-gl/vp-km fit owns its group stacks; since the
    fit's cache drops the latest evaluation before the next one starts, no
    group ever has more than two stacks alive during a whole fit.  The
    starts are far enough out that the fits reject trials in a row, where
    a cache that kept one more evaluation would hold a third stack."""

    @staticmethod
    def live_stacks_per_group(prob, method, alpha0, monkeypatch):
        """The most stacks of each group alive at once during one fit."""
        stacks = [[] for _ in prob.groups]
        most = [0 for _ in prob.groups]
        inner = solver._VP_EVALS[method]

        def recorded(alpha, problem):
            red = inner(alpha, problem)
            for g, group in enumerate(problem.groups):
                stacks[g].append(weakref.ref(red.phis[group.index[0]].base))
                live = sum(ref() is not None for ref in stacks[g])
                most[g] = max(most[g], live)
            return red

        monkeypatch.setitem(solver._VP_EVALS, method, recorded)
        fit(prob, SolverConfig(method=method), alpha0)
        for per_group in stacks:
            assert len(per_group) > 2
        return most

    @pytest.mark.parametrize("method", ["vp-gl", "vp-km"])
    def test_two_stacks_per_group(self, method, monkeypatch):
        prob = frame_problem(2, 11)
        assert self.live_stacks_per_group(prob, method, np.array([5.0, 5.0]),
                                          monkeypatch) == [2, 2]

    @pytest.mark.parametrize("method", ["vp-gl", "vp-km"])
    def test_exp_fit_reuses_two_stacks(self, method, monkeypatch):
        """The exp problem's 40- and 50-point datasets are one padded group,
        so its fit holds two stacks at most too."""
        prob = sv.generate(spec_from_config(README_EXP))
        assert [g.index for g in prob.groups] == [(0, 1)]
        assert self.live_stacks_per_group(prob, method, np.array([2.5, 0.8]),
                                          monkeypatch) == [2]
