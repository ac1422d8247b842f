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
from sepvar.vpcore import eval_gl, eval_km, gl_from_km

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
    slit: the smallest layout on which gl_from_km's J once differed from
    eval_gl's (by 2.2e-15 of max |J|)."""
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
    """gl_from_km of the eval_km evaluation is eval_gl's, bit for bit."""
    prob, alpha = layout(case)
    derived = gl_from_km(eval_km(alpha, prob), prob)
    fresh = eval_gl(alpha, prob)
    assert derived.z.tobytes() == fresh.z.tobytes()
    assert derived.jac.tobytes() == fresh.jac.tobytes()
    for a, b in zip(derived.betas, fresh.betas, strict=True):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", BEER_CASES)
def test_group_products_are_one_dataset_products(case):
    """Each dataset's slice of a group's dphi_beta and dphi_t is that of its
    one-dataset group, bit for bit.  (A Beer group holds one length; a
    padded exp dataset's products match its own to rounding only.)"""
    prob, alpha = layout(case)
    model = prob.model
    rng = np.random.default_rng(7)
    for group in prob.groups:
        ge = model.eval_group(alpha, group.inputs)
        g, n, m = ge.phi.shape
        betas = rng.normal(size=(g, int(rng.integers(1, 4)), n))
        z = rng.normal(size=(g, m))
        u, v = ge.dphi_beta(betas), ge.dphi_t(z)
        for i, ds in enumerate(group.datasets):
            alone = model.eval_group(alpha, model.prepare_group((ds,)))
            assert u[i].tobytes() == alone.dphi_beta(betas[i : i + 1])[0].tobytes()
            assert v[i].tobytes() == alone.dphi_t(z[i : i + 1])[0].tobytes()


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
    diagnostics go through gl_from_km) gives eval_gl's diagnostics bit for
    bit, and each route's covariance is within COVARIANCE_TOL eps cond(H)^2
    of the dense sigma^2 (H^T H)^-1, entry by entry relative to the root of
    the two variances."""
    prob, alpha = layout(case)
    gl, result = diagnostics(eval_gl(alpha, prob), prob, alpha)
    km, _ = diagnostics(eval_km(alpha, prob), prob, alpha)
    assert km.sigma == gl.sigma and km.r_score == gl.r_score
    assert km.conf_bounds.tobytes() == gl.conf_bounds.tobytes()
    for name in ("s_inv", "d_inv", "f"):
        assert getattr(km.gram_inverse, name).tobytes() == getattr(gl.gram_inverse, name).tobytes()
    H = stats.build_H(result, prob)
    reference, _ = stats.covariance(H, gl.sigma)
    scale = np.sqrt(np.outer(np.diag(reference), np.diag(reference)))
    bound = COVARIANCE_TOL * np.finfo(float).eps * np.linalg.cond(H) ** 2
    for d in (gl, km):
        assert np.max(np.abs(d.covariance - reference) / scale) <= bound
