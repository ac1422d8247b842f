"""Seeded differential checks of the grouped evaluation paths on random Beer
layouts: p and n from 1 to 3, one to five datasets of one or two lengths,
delta, narrow and wider-than-grid slits, and grids shifted per dataset or
not.  Every layout is drawn from its seed alone, so a failure names the
layout that shows it.
"""

import numpy as np
import pytest

import sepvar as sv
from sepvar.vpcore import eval_gl, eval_km, gl_from_km

# slit half-widths in grid units: the delta response, narrow kernels, and
# 161 taps, wider than every grid of the sweep (reflected more than once)
HALFWIDTHS = (0.0, 1.0, 3.0, 8.0, 20.0)
CASES = ["known", *range(100)]  # the known layout, then the seeds of random ones


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


def layout(case):
    return known_layout() if case == "known" else beer_layout(case)


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


@pytest.mark.parametrize("case", CASES)
def test_group_products_are_one_dataset_products(case):
    """Each dataset's slice of a group's dphi_beta and dphi_t is that of its
    one-dataset group, bit for bit."""
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
