"""Seeded differential checks of the grouped evaluation paths and the
diagnostics on random layouts.  Beer layouts: p and n from 1 to 3, one to
five datasets of one or two lengths, delta, narrow and wider-than-grid
slits, and grids shifted per dataset or not.  Exp layouts: one to three
terms, one to five datasets whose ragged lengths fall in one or two
power-of-two buckets (so shorter datasets are padded into a group), on
grids that start at 0 or at a shift drawn per dataset.  Every layout is
drawn from its seed alone, so a failure names the layout that shows it.
"""

from types import SimpleNamespace

import numpy as np
import pytest

import sepvar as sv
from sepvar import stats
from sepvar.solver import _final_linear_solve
from sepvar.vpcore import build_block_diag, eval_gl, eval_km, eval_naive

# slit half-widths in grid units: the delta response, narrow kernels, and
# 161 taps, wider than every grid of the sweep (reflected more than once)
HALFWIDTHS = (0.0, 1.0, 3.0, 8.0, 20.0)
# the known layout, the seeds of random Beer ones, then of random exp ones
BEER_CASES = ["known", *range(100)]
EXP_CASES = [f"exp{seed}" for seed in range(40)]
CASES = BEER_CASES + EXP_CASES
# the covariance of the blocks against the dense reference, in units of
# eps cond(H)^2, the rounding of the dense Gram's own Cholesky solve.  The
# worst layout of the sweep reads 1.8 (exp33, cond(H) = 1.09: rounding
# alone).  The largest difference, 4.5e-6, is Beer seed 13's at
# cond(H) = 1e6; there a 40-digit inverse of the same Gram differs from the
# dense covariance by 3.8e-6 and from the blocks' by 7e-7
COVARIANCE_TOL = 10.0
# J_km^T J_km against eval_gl's Schur complement, in units of
# eps cond(H) max |J^T J|; the sweep's worst reads 1.9 (Beer seed 27)
SCHUR_TOL = 10.0
# eval_km's Jacobian against -P_perp dphi_l beta formed with eval_naive's
# literal projector, in units of eps max(1, cond(phi)) max |dphi_l beta|;
# the sweep's worst reads 7.6 (exp27, cond(phi) = 1.2)
KM_LITERAL_TOL = 100.0
# the two diagnostics routes' S^-1 and bounds against each other, in units
# of eps cond(H)^2; the worst reads 1.5 (S^-1 of exp33; the bounds' worst
# is 0.58, also exp33)
ROUTE_TOL = 10.0
# eval_naive against eval_gl, in units of eps max(1, cond(phi)) for the
# dense block-diagonal phi, each quantity times its own scale (see
# test_naive_reduction_is_eval_gl); the worst reads 4.0 (z of exp27,
# cond(phi) = 1.2; J 1.5, beta 2.9, d_inv 3.8 (exp24) and v 1.9)
NAIVE_TOL = 10.0
# eval_km's gradient J^T z against eval_gl's, in units of
# eps max(1, cond(phi)) max_l ||J_l|| ||y||; the worst reads 0.17 (Beer
# seed 38, cond(phi) = 1.2)
GRADIENT_TOL = 10.0
# each reduction's D_k^-1 against the inverse of the literal Gram
# phi_k^T phi_k of model.eval's phi_k, in units of eps cond(phi_k)^2 (the
# rounding of that Gram and its inverse) of max |D_k^-1|; the worst reads
# 3.3 (eval_naive, exp24, cond(phi_k) = 1.0; eval_gl and eval_km 2.7, Beer
# seed 35, dataset 4, cond(phi_k) = 1.0)
GRAM_INVERSE_TOL = 10.0
# a residual block against y_k - phi_k beta_k formed from model.eval, in
# units of eps max(1, cond(phi_k)) ||y_k||; the worst reads 0.95 (Beer
# seed 49, dataset 3, cond(phi_k) = 1.0)
RESIDUAL_TOL = 10.0


def beer_layout(seed):
    """(problem, alpha) of the random Beer layout of ``seed``.  Each dataset
    takes one of two lengths in 20..120 and one of two slit half-widths, so
    a layout holds up to four groups; its unit-spaced grid starts at 0 or,
    when the layout is shifted, at a shift drawn per dataset."""
    rng = np.random.default_rng(seed)
    n, p, s = (int(v) for v in rng.integers(1, [4, 4, 6]))
    lengths = rng.choice(rng.integers(20, 121, 2), s)
    halfwidths = rng.choice(rng.choice(HALFWIDTHS, 2), s)
    shifts = rng.uniform(0.0, 1.0, s) if rng.random() < 0.5 else np.zeros(s)
    grids = tuple(sv.GridSpec(int(m), lo, lo + m - 1.0, slit_halfwidth=float(hw))
                  for m, lo, hw in zip(lengths, shifts, halfwidths))
    alpha_true = rng.uniform(0.5, 1.5, p)
    spec = sv.TruthSpec(kind="beer", alpha_true=alpha_true,
                        beta_true=tuple(rng.uniform(0.5, 1.5, n) for _ in grids),
                        grids=grids, snr=200.0, seed=seed)
    return sv.generate(spec), alpha_true * rng.uniform(0.8, 1.2, p)


def known_layout():
    """One dataset, n = p = 1, on the 40-point grid 0..39 under an 8-unit
    slit: the smallest layout on which a GL Jacobian that the diagnostics
    derived from an eval_km evaluation once differed from eval_gl's (by
    2.2e-15 of max |J|)."""
    spec = sv.TruthSpec(kind="beer", alpha_true=[1.0], beta_true=([1.0],),
                        grids=(sv.GridSpec(40, 0.0, 39.0, slit_halfwidth=8),),
                        snr=200.0, seed=3)
    return sv.generate(spec), np.array([1.1])


def exp_layout(seed):
    """(problem, alpha) of the random exp layout of ``seed``.  Each dataset
    takes a length in 33..64 or, in a layout of two buckets, in 65..128 as
    well, and its grid of step 0.1 starts at 0 or, when the layout is
    shifted, at a shift drawn per dataset in [0, 2]; the rates are one per
    octave, well apart."""
    rng = np.random.default_rng([seed, 1])
    n, s = (int(v) for v in rng.integers(1, [4, 6]))
    buckets = ((33, 65), (65, 129))[: int(rng.integers(1, 3))]
    lengths = [int(rng.integers(*buckets[rng.integers(len(buckets))])) for _ in range(s)]
    shifts = rng.uniform(0.0, 2.0, s) if rng.random() < 0.5 else np.zeros(s)
    grids = tuple(sv.GridSpec(m, lo, lo + 0.1 * (m - 1)) for m, lo in zip(lengths, shifts))
    alpha_true = 0.3 * 2.0 ** np.arange(n) * rng.uniform(0.8, 1.2, n)
    spec = sv.TruthSpec(kind="exp", alpha_true=alpha_true,
                        beta_true=tuple(rng.uniform(0.5, 1.5, n) for _ in grids),
                        grids=grids, snr=200.0, seed=seed)
    return sv.generate(spec), alpha_true * rng.uniform(0.9, 1.1, n)


def layout(case):
    if case == "known":
        return known_layout()
    return exp_layout(int(case[3:])) if str(case).startswith("exp") else beer_layout(case)


@pytest.mark.parametrize("case", CASES)
def test_gl_from_km_is_eval_gl(case):
    """The GL blocks that the diagnostics take from an eval_km evaluation
    are eval_gl's.  Its residual, linear parameters, products
    dphi_l^T z_k and inverse Grams are eval_gl's bit for bit, and its
    J_km^T J_km is the Schur complement J^T J - sum_k v_k D_k^-1 v_k^T of
    eval_gl's J (P_perp Q1 = 0 makes them equal in exact arithmetic)
    within SCHUR_TOL eps cond(H) of max |J^T J|."""
    prob, alpha = layout(case)
    km, fresh = eval_km(alpha, prob), eval_gl(alpha, prob)
    for name in ("z", "v", "d_inv"):
        assert getattr(km, name).tobytes() == getattr(fresh, name).tobytes(), name
    assert all(a.tobytes() == b.tobytes() for a, b in zip(km.betas, fresh.betas))
    _, result = diagnostics(fresh, prob, alpha)
    eps = np.finfo(float).eps
    a = fresh.jac.T @ fresh.jac
    schur = a - np.einsum("kpn,knm,kqm->pq", fresh.v, fresh.d_inv, fresh.v)
    cond = np.linalg.cond(stats.build_H(result, prob))
    assert np.max(np.abs(km.jac.T @ km.jac - schur)) <= SCHUR_TOL * eps * cond * np.max(np.abs(a))


@pytest.mark.parametrize("case", CASES)
def test_km_jacobian_is_the_literal_projection(case):
    """eval_km's Jacobian is Kaufman's -P_perp dphi_l beta, formed here as
    eval_naive forms its first term: the projector of the pivoted QR of the
    dense block-diagonal basis, applied to the dense derivatives times the
    linear parameters, within KM_LITERAL_TOL eps max(1, cond(phi)) of the
    largest product dphi_l beta."""
    prob, alpha = layout(case)
    km = eval_km(alpha, prob)
    big, dbig, _ = build_block_diag(prob, alpha)
    f = sv.thin_qr(big)
    beta = sv.pinv_apply(f, np.concatenate([ds.y for ds in prob.datasets]))
    u = [d @ beta for d in dbig]
    literal = -np.column_stack([sv.proj_perp_apply(f, x) for x in u])
    unit = np.finfo(float).eps * max(1.0, np.linalg.cond(big)) * np.max(np.abs(u))
    assert np.max(np.abs(km.jac - literal)) <= KM_LITERAL_TOL * unit


@pytest.mark.parametrize("case", BEER_CASES)
def test_group_products_are_one_dataset_products(case):
    """Each dataset's slice of a group's dphi_beta and products is that of
    its one-dataset group, bit for bit.  (A Beer group holds one length; a
    padded exp dataset's products match its own to rounding only.)"""
    prob, alpha = layout(case)
    model = prob.model
    rng = np.random.default_rng(7)
    for group in prob.groups:
        ge = model.eval_group(alpha, group.inputs)
        g, n, m = ge.phi.shape
        betas = rng.normal(size=(g, int(rng.integers(1, 4)), n))
        z = rng.normal(size=(g, m))
        dense, (u, v) = ge.dphi_beta(betas), ge.products(betas[:, 0], z)
        for i, ds in enumerate(group.datasets):
            alone = model.eval_group(alpha, model.prepare_group((ds,)))
            assert dense[i].tobytes() == alone.dphi_beta(betas[i : i + 1])[0].tobytes()
            for got, want in zip((u, v), alone.products(betas[i : i + 1, 0], z[i : i + 1])):
                assert got[i].tobytes() == want[0].tobytes()


def diagnostics(red, prob, alpha):
    """compute_diagnostics of the evaluation ``red`` at ``alpha``, read as a
    fit's final evaluation, with the fit record the dense reference reads."""
    betas, residuals = _final_linear_solve(prob, red)
    result = SimpleNamespace(alpha_hat=alpha, beta_hat=betas, residuals=residuals,
                             final_eval=red)
    return stats.compute_diagnostics(result, prob), result


@pytest.mark.parametrize("case", CASES)
def test_diagnostics_routes_agree(case):
    """At the layout's alpha, the vp-km route (an eval_km evaluation, whose
    J_km^T J_km is the Schur complement itself) gives eval_gl's sigma,
    R-score, D_k^-1 and F_k bit for bit, since both forms give the same
    products and Grams, and its bounds and S^-1 within ROUTE_TOL
    eps cond(H)^2 of eval_gl's, relative to the largest entry (each bound
    to itself).  Each route's covariance is within COVARIANCE_TOL eps cond(H)^2 of the
    dense sigma^2 (H^T H)^-1, entry by entry relative to the root of the
    two variances."""
    prob, alpha = layout(case)
    gl, result = diagnostics(eval_gl(alpha, prob), prob, alpha)
    km, _ = diagnostics(eval_km(alpha, prob), prob, alpha)
    assert km.sigma == gl.sigma and km.r_score == gl.r_score
    H = stats.build_H(result, prob)
    eps, cond = np.finfo(float).eps, np.linalg.cond(H)
    unit = eps * cond**2
    assert np.max(np.abs(km.conf_bounds - gl.conf_bounds) / gl.conf_bounds) <= ROUTE_TOL * unit
    ours, theirs = km.gram_inverse.s_inv, gl.gram_inverse.s_inv
    assert np.max(np.abs(ours - theirs)) <= ROUTE_TOL * unit * np.max(np.abs(theirs))
    for name in ("d_inv", "f"):
        assert getattr(km.gram_inverse, name).tobytes() == getattr(gl.gram_inverse, name).tobytes()
    reference, _ = stats.covariance(H, gl.sigma)
    scale = np.sqrt(np.outer(np.diag(reference), np.diag(reference)))
    bound = COVARIANCE_TOL * eps * cond**2
    for d in (gl, km):
        assert np.max(np.abs(d.covariance - reference) / scale) <= bound


@pytest.mark.parametrize("case", CASES)
def test_naive_reduction_is_eval_gl(case):
    """The literal reduction on the dense block-diagonal basis phi agrees
    with the grouped one within NAIVE_TOL eps max(1, cond(phi)), each
    quantity at its rounding scale: z at max |y|; J at
    max_l ||dphi_l|| ||y|| / sigma_min(phi), which bounds both of its terms
    (||beta|| and ||pinv^T|| are at most ||y|| / sigma_min and 1 / sigma_min);
    beta, the inverse Grams d_inv and the products v = dphi_l^T z at
    max |beta|, max |d_inv| and max_l ||dphi_l|| ||y||."""
    prob, alpha = layout(case)
    gl, naive = eval_gl(alpha, prob), eval_naive(alpha, prob)
    big, dbig, _ = build_block_diag(prob, alpha)
    sigmas = np.linalg.svd(big, compute_uv=False)
    unit = np.finfo(float).eps * max(1.0, sigmas[0] / sigmas[-1])
    y = np.linalg.norm(np.concatenate([ds.y for ds in prob.datasets]))
    dphi = max(np.linalg.norm(d, 2) for d in dbig)
    scales = {"z": max(np.max(np.abs(ds.y)) for ds in prob.datasets),
              "jac": dphi * y / sigmas[-1], "betas": np.max(np.abs(gl.betas)),
              "d_inv": np.max(np.abs(gl.d_inv)), "v": dphi * y}
    for name, scale in scales.items():
        got, want = getattr(naive, name), getattr(gl, name)
        assert got.shape == want.shape, name
        assert np.max(np.abs(got - want)) <= NAIVE_TOL * unit * scale, name


@pytest.mark.parametrize("case", CASES)
def test_km_gradient_is_eval_gl_gradient(case):
    """Kaufman's Jacobian drops a term orthogonal to z, so eval_km's
    gradient J_km^T z is eval_gl's J^T z within GRADIENT_TOL
    eps max(1, cond(phi)) of max_l ||J_l|| ||y||: the dropped term meets z
    only through Q1^T z, zero to rounding."""
    prob, alpha = layout(case)
    gl, km = eval_gl(alpha, prob), eval_km(alpha, prob)
    big, _, _ = build_block_diag(prob, alpha)
    y = np.linalg.norm(np.concatenate([ds.y for ds in prob.datasets]))
    unit = np.finfo(float).eps * max(1.0, np.linalg.cond(big))
    scale = np.max(np.linalg.norm(gl.jac, axis=0)) * y
    assert np.max(np.abs(km.jac.T @ km.z - gl.jac.T @ gl.z)) <= GRADIENT_TOL * unit * scale


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("ev", [eval_gl, eval_km, eval_naive],
                         ids=["eval_gl", "eval_km", "eval_naive"])
def test_fit_residuals_are_the_literal_residuals(case, ev):
    """The residuals a fit returns, z = P_perp y cut at block_starts, are
    y_k - phi_k beta_k with phi_k from model.eval and the fit's own
    beta_k, within RESIDUAL_TOL eps max(1, cond(phi_k)) ||y_k||."""
    prob, alpha = layout(case)
    betas, residuals = _final_linear_solve(prob, ev(alpha, prob))
    eps = np.finfo(float).eps
    for ds, beta, r in zip(prob.datasets, betas, residuals):
        phi = prob.model.eval(alpha, ds).phi
        literal = ds.y - phi @ beta
        unit = eps * max(1.0, np.linalg.cond(phi)) * np.linalg.norm(ds.y)
        assert np.max(np.abs(r - literal)) <= RESIDUAL_TOL * unit


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("ev", [eval_gl, eval_km, eval_naive],
                         ids=["eval_gl", "eval_km", "eval_naive"])
def test_inverse_grams_are_the_literal_inverses(case, ev):
    """Each reduction's inverse Grams, from its own triangular factor, are
    the inverses of the literal phi_k^T phi_k within GRAM_INVERSE_TOL
    eps cond(phi_k)^2 of max |D_k^-1|."""
    prob, alpha = layout(case)
    red = ev(alpha, prob)
    assert red.d_inv.shape == (prob.s, prob.n, prob.n)
    eps = np.finfo(float).eps
    for ds, d_inv in zip(prob.datasets, red.d_inv):
        phi = prob.model.eval(alpha, ds).phi
        literal = np.linalg.inv(phi.T @ phi)
        unit = eps * np.linalg.cond(phi) ** 2 * np.max(np.abs(literal))
        assert np.max(np.abs(d_inv - literal)) <= GRAM_INVERSE_TOL * unit


@pytest.mark.parametrize("case", BEER_CASES)
def test_group_inverse_grams_are_one_dataset_inverse_grams(case):
    """Each dataset's D_k^-1 in its group's evaluation is that of its
    one-dataset group, bit for bit, in both forms.  (A Beer group holds one
    length; a padded exp dataset's match its own to rounding only.)"""
    prob, alpha = layout(case)
    for ev in (eval_gl, eval_km):
        red = ev(alpha, prob)
        for k, ds in enumerate(prob.datasets):
            alone = ev(alpha, sv.MultiProblem((ds,), prob.model))
            assert red.d_inv[k].tobytes() == alone.d_inv[0].tobytes()
