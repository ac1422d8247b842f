import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sl

from sepvar import lm
from sepvar.exceptions import EvaluationError, InvalidInputError
from sepvar.lm import (
    STATUS_FTOL,
    STATUS_GTOL,
    STATUS_LINEAR_FAIL,
    STATUS_MAX_ITER,
    STATUS_XTOL,
    LMConfig,
    LMReport,
    lm_solve,
)


def linear_problem(rng, m=20, n=3):
    A = rng.normal(size=(m, n))
    x_star = rng.normal(size=n)
    b = A @ x_star

    def residual(x):
        return A @ x - b

    def jacobian(x):
        return A

    return residual, jacobian, x_star


class TestConfigValidation:
    def test_defaults_valid(self):
        cfg = LMConfig()
        assert cfg.max_iter == 200 and cfg.lambda0 == 1e-3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iter": 0},
            {"ftol": 0.0},
            {"xtol": -1e-8},
            {"lambda_up": 0.9},
            {"lambda_down": 1.5},
            {"lambda0": -1.0},
            # a bool or text is not a number, and max_iter counts whole iterations
            {"ftol": True},
            {"max_iter": True},
            {"max_iter": 2.5},
            {"lambda0": "0.1"},
            # JSON's NaN is a float, which the range checks must not let through
            {"ftol": float("nan")},
            {"gtol": float("nan")},
            {"lambda0": float("nan")},
            # a record's integer field takes an int only
            {"max_iter": 2.0},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(InvalidInputError):
            LMConfig(**kwargs)


class TestLinear:
    def test_undamped_solves_in_one_accepted_step(self, rng):
        residual, jacobian, x_star = linear_problem(rng)
        rep = lm_solve(residual, jacobian, np.zeros(3), LMConfig(lambda0=0.0))
        npt.assert_allclose(rep.x_final, x_star, rtol=1e-10)
        assert rep.n_iter <= 2

    def test_damped_still_converges(self, rng):
        residual, jacobian, x_star = linear_problem(rng)
        rep = lm_solve(residual, jacobian, np.zeros(3))
        npt.assert_allclose(rep.x_final, x_star, rtol=1e-6)
        assert rep.status in (STATUS_FTOL, STATUS_XTOL, STATUS_GTOL)

    def test_inconsistent_system_reaches_normal_solution(self, rng):
        A = rng.normal(size=(12, 3))
        b = rng.normal(size=12)
        rep = lm_solve(lambda x: A @ x - b, lambda x: A, np.zeros(3))
        ref = np.linalg.lstsq(A, b, rcond=None)[0]
        npt.assert_allclose(rep.x_final, ref, rtol=1e-6)


class TestRosenbrock:
    """Classic curved valley in residual form r = (1-x, 10(y-x^2))."""

    @staticmethod
    def residual(x):
        return np.array([1.0 - x[0], 10.0 * (x[1] - x[0] ** 2)])

    @staticmethod
    def jacobian(x):
        return np.array([[-1.0, 0.0], [-20.0 * x[0], 10.0]])

    def test_converges_to_global_minimum(self):
        rep = lm_solve(self.residual, self.jacobian, np.array([-1.2, 1.0]))
        npt.assert_allclose(rep.x_final, [1.0, 1.0], atol=1e-6)
        assert rep.status in (STATUS_FTOL, STATUS_XTOL, STATUS_GTOL)

    def test_cost_history_monotone(self):
        rep = lm_solve(self.residual, self.jacobian, np.array([-1.2, 1.0]))
        hist = np.asarray(rep.cost_history)
        assert np.all(np.diff(hist) < 0.0)
        assert hist[0] == 0.5 * np.linalg.norm(self.residual([-1.2, 1.0])) ** 2


class TestTermination:
    def test_zero_residual_start_returns_gtol_immediately(self):
        rep = lm_solve(
            lambda x: np.zeros(4), lambda x: np.eye(4, 2), np.array([0.3, -0.1])
        )
        assert rep.status == STATUS_GTOL
        assert rep.n_iter == 0 and rep.n_feval == 1
        npt.assert_allclose(rep.x_final, [0.3, -0.1])

    def test_max_iter_budget_respected(self, rng):
        residual, jacobian, _ = linear_problem(rng)
        cfg = LMConfig(max_iter=1, ftol=1e-300, xtol=1e-300, gtol=1e-300)
        rep = lm_solve(residual, jacobian, np.zeros(3), cfg)
        assert rep.n_iter == 1
        assert rep.status == STATUS_MAX_ITER

    def test_zero_jacobian_is_stationary(self):
        # zero Jacobian means zero gradient: a (degenerate) stationary point
        rep = lm_solve(
            lambda x: np.array([1.0, 1.0]),
            lambda x: np.zeros((2, 2)),
            np.array([1.0, 1.0]),
        )
        assert rep.status == STATUS_GTOL
        assert rep.n_iter == 0

    def test_singular_jacobian_escalates_to_linear_fail(self):
        # an identically-zero column makes every damped system numerically
        # singular; damping escalates past its ceiling and the solver reports
        # the failure without moving
        def residual(x):
            return np.array([x[0] - 1.0, 1.0])

        def jacobian(x):
            return np.array([[1.0, 0.0], [0.0, 0.0]])

        rep = lm_solve(residual, jacobian, np.array([5.0, 0.0]),
                       LMConfig(max_iter=2000))
        assert rep.status == STATUS_LINEAR_FAIL
        npt.assert_allclose(rep.x_final, [5.0, 0.0])

    def test_damping_limit_without_acceptable_step(self):
        # a Jacobian of the wrong sign makes every step uphill, and ftol is too
        # tight for MINPACK's rejected-trial test: damping rises tenfold per
        # iteration from 1e-3 past its 1e12 ceiling, an exit reported as ftol
        def residual(x):
            return x - 1.0

        rep = lm_solve(residual, lambda x: -np.eye(1), np.zeros(1), LMConfig(ftol=1e-20))
        assert rep.status == STATUS_FTOL
        assert (rep.n_iter, rep.n_feval) == (16, 17)
        assert rep.cost_history == [0.5]  # no accepted step
        npt.assert_array_equal(rep.x_final, [0.0])

    def test_stuck_at_minimum_of_nonzero_residual(self):
        # cost 0.5*(cos^2 x + 1) has minima where cos x = 0; the residual
        # never vanishes there, so the solver must still stop cleanly
        rep = lm_solve(
            lambda x: np.array([np.cos(x[0]), 1.0]),
            lambda x: np.array([[-np.sin(x[0])], [0.0]]),
            np.array([0.3]),
        )
        npt.assert_allclose(np.cos(rep.x_final[0]), 0.0, atol=1e-5)
        assert rep.status in (STATUS_FTOL, STATUS_XTOL, STATUS_GTOL)


def dense_damped_step(J, r, lam):
    """The damped step from one QR of the whole system [J; sqrt(lam) D]."""
    d = np.sqrt(np.sum(J * J, axis=0))
    scale = np.max(d) if d.size else 0.0
    if scale == 0.0:
        return None
    d = np.maximum(d, 1e-14 * scale)
    if lam == 0.0 and J.shape[0] < J.shape[1]:
        return None  # fewer rows than columns: the undamped system is singular
    if lam > 0.0:
        A = np.vstack([J, np.sqrt(lam) * np.diag(d)])
        b = np.concatenate([-r, np.zeros(J.shape[1])])
    else:
        A = J
        b = -r
    q, rr = sl.qr(A, mode="economic")
    diag = np.abs(np.diag(rr))
    if diag.min() <= 1e-14 * diag.max():
        return None
    qtb = q.T @ b
    step = sl.solve_triangular(rr, qtb)
    if not np.all(np.isfinite(step)):
        return None
    ds = d * step
    return step, 0.5 * float(qtb @ qtb + lam * (ds @ ds))


def mixed_scale_system(rows, p, seed=()):
    """J (columns of mixed scale, so that the Marquardt scales matter) and r;
    ``rows`` is a count or one of "p-1", "p", "p+1", at least 1."""
    m = {"p-1": max(p - 1, 1), "p": p, "p+1": p + 1}.get(rows, rows)
    rng = np.random.default_rng([p, m, *seed])
    return rng.normal(size=(m, p)) * np.logspace(0, 2, p), rng.normal(size=m)


# fewer residuals than parameters (1, "p-1"), square and tall, up to the
# 50 columns of nls-full's joint Jacobian at s = 16
SHAPES = pytest.mark.parametrize("rows", [1, "p-1", "p", "p+1", 40, 5000])
COLUMNS = pytest.mark.parametrize("p", [1, 2, 5, 50])


class TestFactoredStep:
    """Each damping value solves a small system from one factorization of
    [J | r] per iterate."""

    @pytest.mark.parametrize("lam", [0.0, 1e-12, 1e-3, 1e3, 1e6])
    @COLUMNS
    @SHAPES
    def test_matches_dense_step(self, rows, p, lam):
        J, r = mixed_scale_system(rows, p, seed=(int(lam * 1e3),))
        want = dense_damped_step(J, r, lam)
        got = lm._damped_step(*lm._factor(J, r), lam)
        if want is None:
            assert got is None
            return
        (want_step, want_pred), (step, pred) = want, got
        assert np.linalg.norm(step - want_step) <= 1e-12 * np.linalg.norm(want_step)
        assert abs(pred - want_pred) <= 1e-12 * want_pred

    @COLUMNS
    @SHAPES
    def test_gradient_from_triangle(self, rows, p):
        """R^T c, from the factors LM already holds, is J^T r."""
        J, r = mixed_scale_system(rows, p)
        R, c = lm._factor(J, r)
        want = J.T @ r
        assert np.linalg.norm(R.T @ c - want) <= 1e-12 * np.linalg.norm(want)

    @COLUMNS
    @SHAPES
    def test_triangle_is_triu_of_the_qr(self, rows, p):
        """R is np.triu of geqrf's leading block, bit for bit and in the
        same layout, although the entries it masks out (Householder vector
        entries) take both signs."""
        J, r = mixed_scale_system(rows, p)
        a = np.empty((J.shape[0], p + 1), order="F")
        a[:, :p], a[:, p] = J, r
        block = sl.lapack.dgeqrf(a)[0][:p, :p]
        want = np.triu(block)
        R, _ = lm._factor(J, r)
        assert R.tobytes() == want.tobytes() and R.strides == want.strides
        if min(block.shape) > 2:
            masked = block[np.tril(np.ones(block.shape, dtype=bool), -1)]
            assert np.any(masked < 0.0) and np.any(masked > 0.0)

    @pytest.mark.parametrize("p", [1, 2, 5, 8])
    @pytest.mark.parametrize("rows", ["p", 40])
    def test_undamped_step_is_the_triangular_solve(self, rows, p):
        """At lam = 0 the QR of [R; 0] applies no reflections, so the step
        is R's own triangular solve bit for bit."""
        m = p if rows == "p" else rows
        rng = np.random.default_rng([p, m])
        J = rng.normal(size=(m, p)) * np.logspace(0, 2, p)
        R, c = lm._factor(J, rng.normal(size=m))
        step, pred = lm._damped_step(R, c, 0.0)
        assert step.tobytes() == sl.solve_triangular(R, -c).tobytes()
        assert pred == 0.5 * float(c @ c)

    def test_rank_deficient_undamped_is_singular(self, rng):
        J = rng.normal(size=(30, 3))
        J[:, 2] = J[:, 0] - 2.0 * J[:, 1]
        r = rng.normal(size=30)
        assert dense_damped_step(J, r, 0.0) is None
        assert lm._damped_step(*lm._factor(J, r), 0.0) is None

    def test_one_factorization_per_jacobian(self, monkeypatch):
        """Rosenbrock from (-1.2, 1) rejects trial steps; they reuse the
        iterate's factors, so J is factored once per evaluation of it."""
        events = []
        factor = lm._factor

        def counting_factor(J, r):
            events.append("factor")
            return factor(J, r)

        def residual(x):
            events.append("residual")
            return TestRosenbrock.residual(x)

        def jacobian(x):
            events.append("jacobian")
            return TestRosenbrock.jacobian(x)

        monkeypatch.setattr(lm, "_factor", counting_factor)
        rep = lm_solve(residual, jacobian, np.array([-1.2, 1.0]))
        accepted = len(rep.cost_history) - 1
        assert rep.n_feval - 1 > accepted  # some trials were rejected
        assert events.count("factor") == events.count("jacobian")
        # each factorization directly follows the Jacobian it factors
        for i, event in enumerate(events):
            if event == "factor":
                assert events[i - 1] == "jacobian"


class TestRoundOffStop:
    """Exits for steps whose cost change cannot be resolved."""

    def test_unresolvable_predicted_decrease_is_not_evaluated(self, rng):
        # an undamped step solves the linear problem; the next step's
        # predicted decrease is round-off, so no trial is evaluated for it
        A = rng.normal(size=(12, 3))
        b = rng.normal(size=12)
        calls = []

        def residual(x):
            calls.append(x.copy())
            return A @ x - b

        cfg = LMConfig(lambda0=0.0, xtol=1e-300, gtol=1e-300)
        rep = lm_solve(residual, lambda x: A, np.zeros(3), cfg)
        assert rep.status == STATUS_FTOL
        assert rep.n_feval == len(calls) == 2
        assert len(rep.cost_history) == 2
        npt.assert_allclose(rep.x_final, np.linalg.lstsq(A, b, rcond=None)[0], rtol=1e-12)

    def test_rejected_trial_at_cost_floor_stops_without_escalation(self):
        # r = (max(x, 1e-6), 1): the cost has a floor the linear model does
        # not see, as round-off gives an evaluated residual.  Two accepted
        # steps reach the floor; the third trial predicts a decrease of
        # about 1e-12 of the cost and changes nothing, so the fit stops
        # there instead of raising lambda through a run of rejected trials
        def residual(x):
            return np.array([max(x[0], 1e-6), 1.0])

        def jacobian(x):
            return np.array([[1.0], [0.0]])

        rep = lm_solve(residual, jacobian, np.array([1.0]))
        assert rep.status == STATUS_FTOL
        assert len(rep.cost_history) == 3
        assert rep.n_feval == 4 and rep.n_iter == 3
        assert rep.cost_history[-1] == 0.5 * (1e-12 + 1.0)
        assert 0.0 < rep.x_final[0] < 1e-6


class TestRobustness:
    def test_nonfinite_residual_raises_with_location(self):
        def residual(x):
            return np.array([np.inf if x[0] > 10 else x[0] - 20.0])

        with pytest.raises(EvaluationError):
            lm_solve(
                lambda x: np.array([np.nan]), lambda x: np.eye(1), np.zeros(1)
            )
        # also mid-iteration
        with pytest.raises(EvaluationError) as exc:
            lm_solve(residual, lambda x: np.eye(1), np.array([9.99]),
                     LMConfig(lambda0=0.0))
        assert exc.value.x is not None

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            lm_solve(lambda x: np.zeros(3), lambda x: np.zeros((2, 2)), np.zeros(2))

    def test_nonfinite_x0_rejected(self):
        """A non-finite x0, and one that is not a 1-d vector (2-d, or 0-d),
        is refused before any evaluation."""
        calls = []

        def residual(x):
            calls.append(x)
            return x

        for x0 in (np.array([1.0, np.nan]), np.array([[0.0, 0.0]]), np.array(0.0)):
            with pytest.raises(InvalidInputError):
                lm_solve(residual, lambda x: np.eye(2), x0)
        assert calls == []

    def test_scale_invariance_of_marquardt_damping(self, rng):
        """Rescaling one parameter rescales the corresponding iterate but the
        cost sequence is essentially unchanged (diag(J^T J) scaling)."""
        A = rng.normal(size=(15, 2))
        b = A @ np.array([1.0, 2.0]) + 0.1 * rng.normal(size=15)
        S = np.diag([1.0, 1e4])

        rep1 = lm_solve(lambda x: A @ x - b, lambda x: A, np.zeros(2))
        rep2 = lm_solve(
            lambda x: A @ (S @ x) - b, lambda x: A @ S, np.zeros(2)
        )
        npt.assert_allclose(S @ rep2.x_final, rep1.x_final, rtol=1e-6)
        n = min(len(rep1.cost_history), len(rep2.cost_history))
        npt.assert_allclose(
            rep1.cost_history[:n], rep2.cost_history[:n], rtol=1e-6
        )

    def test_feval_counts_every_residual_call(self, rng):
        calls = []
        residual, jacobian, _ = linear_problem(rng)

        def counting(x):
            calls.append(1)
            return residual(x)

        rep = lm_solve(counting, jacobian, np.zeros(3))
        assert rep.n_feval == len(calls)

    def test_report_fields(self, rng):
        residual, jacobian, _ = linear_problem(rng)
        rep = lm_solve(residual, jacobian, np.zeros(3))
        assert isinstance(rep, LMReport)
        assert rep.x_final.shape == (3,)
        assert len(rep.cost_history) >= 1
        assert rep.n_feval >= rep.n_iter >= 1
