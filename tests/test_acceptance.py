"""Acceptance suite: one test per criterion, one printed pass/fail line each.

The expensive Monte-Carlo and timing sweeps are shared through module-scoped
fixtures; run with ``pytest -s tests/test_acceptance.py`` to see the lines as
they complete.
"""

import contextlib
import dataclasses
import time

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sl

import sepvar as sv
from sepvar.exceptions import InvalidInputError
from sepvar.lm import LMConfig
from sepvar.model import Dataset, ExpDecayModel
from sepvar.solver import METHODS, SolverConfig, fit
from sepvar.stats import compute_diagnostics, sigma_of_regression
from sepvar.vpcore import MultiProblem, eval_gl, eval_km, eval_naive

from conftest import central_diff_jacobian


@contextlib.contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"\n[acceptance] criterion {num:2d} ({name}): FAIL", flush=True)
        raise
    print(f"\n[acceptance] criterion {num:2d} ({name}): PASS", flush=True)


# ---------------------------------------------------------------------------
# problem builders


def exp_spec(s, seed, snr=np.inf):
    rng = np.random.default_rng(seed)
    grids = tuple(sv.GridSpec(40 + 3 * k, 0.0, 4.0 + 0.2 * k) for k in range(s))
    beta = tuple(rng.uniform(0.8, 1.5, 2) for _ in range(s))
    return sv.TruthSpec(kind="exp", alpha_true=[1.2, 0.25], beta_true=beta,
                        grids=grids, snr=snr, seed=seed)


def beer_spec(s, seed, snr=np.inf, length=60):
    grids = tuple(
        sv.GridSpec(length + 5 * k, 6180.0, 6280.0) for k in range(s)
    )
    beta = tuple(np.array([1.0, 0.1, -0.05]) for _ in range(s))
    return sv.TruthSpec(kind="beer", alpha_true=[1.0, 1.0], beta_true=beta,
                        grids=grids, snr=snr, seed=seed)


# ---------------------------------------------------------------------------
# shared sweeps

SNRS = (20.0, 50.0, 100.0, 200.0, 500.0)
N_SNR_SEEDS = 30
SWEEP_S = 4

TIMING_S = (2, 4, 8, 16)
TIMING_REPEATS = 7
EVALS_PER_REPEAT = 20


@pytest.fixture(scope="module")
def snr_sweep():
    """Monte-Carlo precision study on one fixed spectroscopy setup.

    Two high-amplitude and two low-amplitude bands; per noise seed, the same
    noise draw is reused at every SNR so precision scales cleanly.  For each
    realization the study records the joint (MRHS) estimate of the first
    species factor and the mean of the four individual-dataset estimates.
    """
    grids = tuple(
        sv.GridSpec(100, 6180.0, 6280.0, i0_scale=(2.0 if k < 2 else 1.0))
        for k in range(SWEEP_S)
    )
    base = sv.TruthSpec(
        kind="beer", alpha_true=[1.0, 1.0],
        beta_true=tuple(np.array([1.0, 0.1, -0.05]) for _ in range(SWEEP_S)),
        grids=grids, snr=np.inf, seed=20240823,
    )
    alpha0 = np.array([1.15, 0.9])
    cfg = SolverConfig(method="vp-gl")
    out = {"single_std": [], "mrhs_std": [], "mean_sigma": [], "mean_r": []}
    for snr in SNRS:
        spec = dataclasses.replace(base, snr=snr)
        singles, mrhs, sigmas, rs = [], [], [], []
        for i in range(N_SNR_SEEDS):
            prob = sv.regenerate_noise(spec, noise_seed=1000 + i)
            res = fit(prob, cfg, alpha0)
            mrhs.append(res.alpha_hat[0] - 1.0)
            diag = compute_diagnostics(res, prob)
            sigmas.append(diag.sigma)
            rs.append(diag.r_score)
            per_dataset = []
            for ds in prob.datasets:
                sub = MultiProblem(datasets=(ds,), model=prob.model)
                per_dataset.append(fit(sub, cfg, alpha0).alpha_hat[0] - 1.0)
            singles.append(np.mean(per_dataset))
        out["single_std"].append(np.std(singles))
        out["mrhs_std"].append(np.std(mrhs))
        out["mean_sigma"].append(np.mean(sigmas))
        out["mean_r"].append(np.mean(rs))
    return {k: np.asarray(v) for k, v in out.items()}


@pytest.fixture(scope="module")
def timing_sweep():
    """Wall-time sweep at paper-scale sizes (bands of 809 and 651 points).

    Every method runs the same capped number of LM iterations from the same
    start; with tolerances at round-off, how many of those iterations cost a
    full evaluation can differ between methods, so whole-fit times compare
    scaling, not per-iteration cost.  Keys ``(method, s)`` hold fit times;
    keys ``(form, s)`` for form ``gl``/``km`` hold the time of one
    ``eval_gl``/``eval_km`` at ``alpha0``, the per-evaluation cost, taken
    ``EVALS_PER_REPEAT`` times per repeat with the two forms alternating.
    Min-of-repeats suppresses scheduler noise.
    """
    problems = {}
    for s in TIMING_S:
        grids = sv.frame_grids(n_soundings=s // 2)
        spec = sv.TruthSpec(
            kind="beer", alpha_true=[1.0, 1.0],
            beta_true=tuple(np.array([1.0, 0.1, -0.05]) for _ in grids),
            grids=grids, snr=500.0, seed=7,
        )
        problems[s] = sv.generate(spec)
    lm = LMConfig(max_iter=6, ftol=1e-300, xtol=1e-300, gtol=1e-300)
    alpha0 = np.array([1.1, 0.9])
    configs = {m: SolverConfig(method=m, lm=lm) for m in METHODS}
    evals = {"gl": eval_gl, "km": eval_km}
    runs = {(m, s): [] for m in (*METHODS, *evals) for s in TIMING_S}
    # warm-up pass, then interleave methods within each repeat so slow drift
    # in machine speed cannot bias one method's phase of the sweep
    for rep in range(TIMING_REPEATS + 1):
        for s in TIMING_S:
            for method in METHODS:
                wall = fit(problems[s], configs[method], alpha0).wall_time
                if rep > 0:
                    runs[(method, s)].append(wall)
            for _ in range(EVALS_PER_REPEAT):
                for form, evaluate in evals.items():
                    start = time.perf_counter()
                    evaluate(alpha0, problems[s])
                    wall = time.perf_counter() - start
                    if rep > 0:
                        runs[(form, s)].append(wall)
    return {key: float(np.min(vals)) for key, vals in runs.items()}


# ---------------------------------------------------------------------------
# criteria


class TestAcceptance:
    def test_01_solver_equivalence(self):
        """All four formulations agree pairwise and recover the truth on
        noiseless problems of both model families."""
        with criterion(1, "solver equivalence"):
            cases = []
            for s in (1, 2, 4, 16):
                cases += [exp_spec(s, seed) for seed in (10, 11, 12)]
                cases += [beer_spec(s, seed) for seed in (20, 21)]
            assert len(cases) == 20
            for spec in cases:
                prob = sv.generate(spec)
                alpha0 = spec.alpha_true * 1.2
                sols = [fit(prob, SolverConfig(method=m), alpha0).alpha_hat
                        for m in METHODS]
                for a in sols:
                    npt.assert_allclose(a, spec.alpha_true, rtol=1e-7)
                for a in sols[1:]:
                    npt.assert_allclose(a, sols[0], rtol=1e-6)

    def test_02_jacobian_correctness(self):
        """Analytic Jacobians match central finite differences; the one-term
        Jacobian reproduces the exact gradient."""
        with criterion(2, "jacobian correctness"):
            rng = np.random.default_rng(220000)
            for _ in range(50):
                s = int(rng.integers(1, 4))
                spec = sv.TruthSpec(
                    kind="exp",
                    alpha_true=[rng.uniform(0.8, 1.5), rng.uniform(0.1, 0.5)],
                    beta_true=tuple(rng.uniform(0.5, 1.5, 2) for _ in range(s)),
                    grids=tuple(
                        sv.GridSpec(int(rng.integers(8, 15)), 0.0, 4.0)
                        for _ in range(s)
                    ),
                    snr=50.0, seed=int(rng.integers(2**31)),
                )
                prob = sv.generate(spec)
                alpha = spec.alpha_true * rng.uniform(0.85, 1.15, 2)

                for ev in (eval_gl, eval_naive):
                    red = ev(alpha, prob)
                    fd = central_diff_jacobian(lambda a: ev(a, prob).z, alpha)
                    for l in range(prob.p):
                        err = np.linalg.norm(red.jac[:, l] - fd[:, l])
                        assert err <= 1e-6 * max(np.linalg.norm(fd[:, l]), 1e-8)

                x = np.concatenate([alpha] + [b * 1.05 for b in spec.beta_true])
                J = sv.nls_full_jacobian(x, prob)
                fd = central_diff_jacobian(
                    lambda v: sv.nls_full_residual(v, prob), x
                )
                assert np.abs(J - fd).max() <= 1e-6 * max(np.abs(fd).max(), 1e-8)

                gl = eval_gl(alpha, prob)
                km = eval_km(alpha, prob)
                g_gl = gl.jac.T @ gl.z
                g_km = km.jac.T @ km.z
                npt.assert_allclose(g_km, g_gl, rtol=1e-10,
                                    atol=1e-12 * max(np.abs(g_gl).max(), 1e-300))

    def test_03_identity_suite(self):
        """Projector and pseudo-inverse identities on explicit small matrices,
        plus finite-difference checks of the reduced-Jacobian structure."""
        with criterion(3, "projector identity suite"):
            rng = np.random.default_rng(330000)
            for m, n in ((4, 2), (7, 3), (9, 4), (5, 1)):
                phi = rng.normal(size=(m, n))
                f = sv.thin_qr(phi)
                P = f.q1 @ f.q1.T
                assert np.abs(P @ P - P).max() <= 1e-12
                assert np.abs(P.T - P).max() <= 1e-12
                assert np.abs(P @ phi - phi).max() <= 1e-12
                pinv = np.column_stack(
                    [sv.pinv_apply(f, e) for e in np.eye(m)]
                )
                assert np.abs(phi @ pinv @ phi - phi).max() <= 1e-12
                q2t_phi = np.column_stack(
                    [sv.q2t_apply(f, phi[:, j]) for j in range(n)]
                )
                assert np.abs(q2t_phi).max() <= 1e-12

            # full-form reduced Jacobian vs finite differences of the
            # projected residual on one explicit instance
            t = np.sort(rng.uniform(0.1, 3.0, 9))
            model = ExpDecayModel(n_terms=2)
            ds = Dataset(t=t, y=rng.normal(size=9) + 2.0)
            prob = MultiProblem(datasets=(ds,), model=model)
            alpha = np.array([0.9, 0.3])
            red = eval_gl(alpha, prob)
            fd = central_diff_jacobian(lambda a: eval_gl(a, prob).z, alpha)
            assert np.abs(red.jac - fd).max() <= 1e-6 * max(np.abs(fd).max(), 1.0)

            # derivative identity of the trailing orthogonal factor:
            # d(Q2^T) Phi == -Q2^T dPhi for a smooth gauge
            def q2_of(a):
                q, _ = sl.qr(model.eval(a, ds).phi)
                return q[:, 2:]

            be = model.eval(alpha, ds)
            h = 1e-7
            for l in range(2):
                ap, am = alpha.copy(), alpha.copy()
                ap[l] += h
                am[l] -= h
                dq2t = (q2_of(ap).T - q2_of(am).T) / (2 * h)
                lhs = dq2t @ be.phi
                rhs = -q2_of(alpha).T @ be.dphi[l]
                assert np.abs(lhs - rhs).max() <= 1e-6

    def test_04_precision_vs_snr(self, snr_sweep):
        """Precision of the first species factor improves with SNR; the joint
        fit is no more precise than averaging individual fits at low SNR and
        within 25% at high SNR."""
        with criterion(4, "precision vs SNR"):
            single = snr_sweep["single_std"]
            mrhs = snr_sweep["mrhs_std"]
            assert np.all(np.diff(single) < 0.0)
            assert np.all(np.diff(mrhs) < 0.0)
            assert mrhs[0] >= single[0]
            for i, snr in enumerate(SNRS):
                if snr >= 200.0:
                    assert abs(mrhs[i] - single[i]) / single[i] < 0.25

    def test_05_sigma_hyperbola(self, snr_sweep):
        """Mean regression sigma follows a/SNR."""
        with criterion(5, "sigma proportional to 1/SNR"):
            snr = np.asarray(SNRS)
            sig = snr_sweep["mean_sigma"]
            a = np.sum(sig / snr) / np.sum(1.0 / snr**2)
            ss_res = np.sum((sig - a / snr) ** 2)
            ss_tot = np.sum((sig - sig.mean()) ** 2)
            assert 1.0 - ss_res / ss_tot > 0.95

    def test_06_r_score(self, snr_sweep):
        """Mean R-score at SNR 200 lands in [0.98, 1.0]."""
        with criterion(6, "R-score at SNR 200"):
            mean_r = snr_sweep["mean_r"][list(SNRS).index(200.0)]
            assert 0.98 <= mean_r <= 1.0

    def test_07_confidence_bound_shrinkage(self):
        """The mean 95% bound on the first species factor shrinks as datasets
        are added."""
        with criterion(7, "confidence-bound shrinkage"):
            alpha0 = np.array([1.15, 0.9])
            cfg = SolverConfig(method="vp-gl")
            means = []
            for s in (2, 4, 8, 16):
                spec = beer_spec(s, seed=880000 + s, snr=100.0, length=80)
                bounds = []
                for i in range(50):
                    prob = sv.regenerate_noise(spec, noise_seed=5000 + i)
                    res = fit(prob, cfg, alpha0)
                    bounds.append(compute_diagnostics(res, prob).conf_bounds[0])
                means.append(np.mean(bounds))
            assert np.all(np.diff(means) < 0.0)

    def test_08_timing_scaling(self, timing_sweep):
        """Reduced formulations scale mildly with the dataset count; the
        joint and block-diagonal rewrites scale worse."""
        with criterion(8, "timing scaling"):
            t = timing_sweep
            r_gl = t[("vp-gl", 16)] / t[("vp-gl", 2)]
            r_nls = t[("nls-full", 16)] / t[("nls-full", 2)]
            assert r_gl < 0.5 * r_nls
            logs = np.log(TIMING_S)
            slope = {
                m: np.polyfit(logs, np.log([t[(m, s)] for s in TIMING_S]), 1)[0]
                for m in METHODS
            }
            assert slope["vp-gl"] < 1.5
            assert slope["nls-full"] > slope["vp-gl"]
            assert slope["vp-naive"] > slope["vp-gl"]

    def test_09_kaufman_speed(self, timing_sweep):
        """The Kaufman variant costs about the same per evaluation as the
        full form."""
        with criterion(9, "kaufman speed parity"):
            t = timing_sweep
            diffs = [
                abs(t[("km", s)] - t[("gl", s)]) / t[("gl", s)]
                for s in TIMING_S
            ]
            assert np.mean(diffs) < 0.10

    def test_10_degrees_of_freedom(self):
        """Sigma divides by sqrt(M - s*n - p) exactly."""
        with criterion(10, "degrees-of-freedom accounting"):
            npt.assert_allclose(
                sigma_of_regression([3.0, 0.0, 0.0, 4.0], 4, n=1, s=1, p=1),
                5.0 / np.sqrt(2.0), rtol=1e-15,
            )
            npt.assert_allclose(
                sigma_of_regression([1.0, 2.0, 2.0], 12, n=2, s=2, p=3),
                3.0 / np.sqrt(5.0), rtol=1e-15,
            )
            with pytest.raises(InvalidInputError):
                sigma_of_regression(np.zeros(4), 4, n=1, s=3, p=1)
            spec = exp_spec(3, seed=99, snr=50.0)
            prob = sv.generate(spec)
            res = fit(prob, SolverConfig(), spec.alpha_true * 1.1)
            diag = compute_diagnostics(res, prob)
            assert diag.dof == prob.m_total - prob.s * prob.n - prob.p
            residual = np.concatenate(res.residuals)
            npt.assert_allclose(
                diag.sigma, np.linalg.norm(residual) / np.sqrt(diag.dof),
                rtol=1e-14,
            )
