import numpy as np
import pytest

import sepvar as sv


def central_diff_jacobian(fn, x, h=1e-6):
    """Central finite differences of a vector-valued function, columnwise;
    step scaled per component as h*(1+|x_l|)."""
    x = np.asarray(x, dtype=float)
    cols = []
    for l in range(x.size):
        hl = h * (1.0 + abs(x[l]))
        xp, xm = x.copy(), x.copy()
        xp[l] += hl
        xm[l] -= hl
        cols.append((np.asarray(fn(xp)) - np.asarray(fn(xm))) / (2.0 * hl))
    return np.column_stack(cols)


def make_exp_problem(rng, s=3, n=2, m_range=(8, 16), t_max=3.0, snr=np.inf, seed=None):
    """Small exponential MRHS problem with varying dataset sizes."""
    sizes = rng.choice(np.arange(m_range[0], m_range[1] + 1), size=s, replace=False)
    grids = tuple(sv.GridSpec(int(m), 0.0, t_max * rng.uniform(0.8, 1.2)) for m in sizes)
    alpha_true = np.sort(rng.uniform(0.2, 1.5, n))[::-1].copy()
    beta_true = tuple(rng.uniform(0.5, 1.5, n) for _ in range(s))
    spec = sv.TruthSpec(
        kind="exp",
        alpha_true=alpha_true,
        beta_true=beta_true,
        grids=grids,
        snr=snr,
        seed=int(rng.integers(2**31)) if seed is None else seed,
    )
    return sv.generate(spec), spec


def interleaved_exp_problem(lengths=(40, 70, 45, 90), snr=100.0, seed=17):
    """Exp datasets whose two length buckets (up to 64 and up to 128 points)
    interleave in problem order: groups (0, 2) and (1, 3), each padded."""
    spec = sv.TruthSpec(
        kind="exp",
        alpha_true=[1.2, 0.25],
        beta_true=tuple(np.array([1.0, 0.8]) + 0.05 * k for k in range(len(lengths))),
        grids=tuple(sv.GridSpec(m, 0.0, m / 10.0) for m in lengths),
        snr=snr,
        seed=seed,
    )
    return sv.generate(spec)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
