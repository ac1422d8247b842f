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
from sepvar.vpcore import build_block_diag, eval_gl, eval_km

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
    dphi_l^T z_k and Grams are eval_gl's bit for bit, and its
    J_km^T J_km is the Schur complement J^T J - sum_k v_k D_k^-1 v_k^T of
    eval_gl's J (P_perp Q1 = 0 makes them equal in exact arithmetic)
    within SCHUR_TOL eps cond(H) of max |J^T J|."""
    prob, alpha = layout(case)
    km, fresh = eval_km(alpha, prob), eval_gl(alpha, prob)
    for name in ("z", "v", "d"):
        assert getattr(km, name).tobytes() == getattr(fresh, name).tobytes(), name
    assert all(a.tobytes() == b.tobytes() for a, b in zip(km.betas, fresh.betas))
    _, result = diagnostics(fresh, prob, alpha)
    eps = np.finfo(float).eps
    a = fresh.jac.T @ fresh.jac
    schur = a - np.einsum("kpn,knm,kqm->pq", fresh.v, np.linalg.inv(fresh.d), fresh.v)
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
