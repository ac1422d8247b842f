"""Reproducible synthetic problem generation.

Exponential test instances and Beer-law spectra with a satellite-like frame
layout (several soundings, two spectral bands of different lengths).  Each
input record reads its own fields and holds its own defaults: a
:class:`GridSpec` per dataset, :func:`frame_grids` for the frame layout, and
:class:`TruthSpec` for the whole problem; ``sepvar generate`` passes its
config blocks to them as keyword arguments.  :func:`generate` builds every
problem with one loop, drawing a Beer dataset's auxiliaries before any noise.
Noise is multiplicative: y = eta * (1 + g / SNR) with g standard normal, so
the regression sigma scales with 1/SNR by construction.  All randomness flows
from one 64-bit seed through numpy's PCG64 generator.
"""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .exceptions import GenerationError, InvalidInputError, ProblemTooLargeError, SepvarError
from .inputs import (FINITE, FINITE_VECTOR, MAX_SIZE, NONNEGATIVE_FINITE, NONNEGATIVE_INT,
                     POSITIVE, Rule, Vector, read, read_fields, ruled)
from .model import BeerAux, BeerLawModel, Dataset, ExpDecayModel, normalize_abscissa
from .vpcore import ELEMENT_BUDGET, MultiProblem, group_members

RNG_ALGORITHM = "numpy-pcg64"

KIND_EXP = "exp"
KIND_BEER = "beer"

# kind -> (model from its sizes (n, p), column names of one dataset's table)
MODEL_KINDS = {
    KIND_EXP: (lambda n, p: ExpDecayModel(n_terms=n), lambda p: ["t", "y"]),
    KIND_BEER: (
        lambda n, p: BeerLawModel(n_linear=n, p_species=p),
        lambda p: ["t", "y", "i0"] + [f"tau_{l + 1}" for l in range(p)],
    ),
}


def model_kind(kind, n, p):
    """The model of one kind and the column names of its dataset tables."""
    if kind not in MODEL_KINDS:
        raise InvalidInputError(f"unknown model kind {kind!r}")
    make_model, columns = MODEL_KINDS[kind]
    return make_model(n, p), columns(p)


@dataclass(frozen=True)
class GridSpec:
    """Abscissa layout and per-dataset scaling knobs for one dataset."""

    length: int = ruled(Rule(int, "an integer >= 2", lambda v: v >= 2, MAX_SIZE))
    lo: float = ruled(FINITE)
    hi: float = ruled(FINITE)
    i0_scale: float = ruled(Rule(float, "positive and finite", lambda v: 0.0 < v < np.inf),
                            default=1.0)
    tau_scale: Optional[tuple] = ruled(Vector(NONNEGATIVE_FINITE), default=None)  # per species
    slit_halfwidth: Optional[float] = ruled(NONNEGATIVE_FINITE, default=None)  # 1% of the span

    def __post_init__(self):
        read_fields(self, "grid ")
        if not self.lo < self.hi:
            raise InvalidInputError(f"grid needs 'lo' < 'hi', got {self.lo} and {self.hi}")


@dataclass(frozen=True)
class TruthSpec:
    """Ground truth and layout of one synthetic problem."""

    kind: str
    alpha_true: np.ndarray = ruled(FINITE_VECTOR)
    beta_true: tuple = ruled(Vector(FINITE_VECTOR))  # one length-n vector per dataset
    grids: tuple  # one GridSpec per dataset
    snr: float = ruled(POSITIVE, default=np.inf)
    seed: int = ruled(NONNEGATIVE_INT, default=0)

    def __post_init__(self):
        read_fields(self)
        object.__setattr__(self, "grids", tuple(self.grids))
        if self.kind not in MODEL_KINDS:
            raise InvalidInputError(f"unknown model kind {self.kind!r}")
        if len(self.beta_true) != len(self.grids) or not self.grids:
            raise InvalidInputError("need one beta vector and one grid per dataset")
        n = self.beta_true[0].size
        if any(b.size != n for b in self.beta_true):
            raise InvalidInputError("all beta vectors must share one length")
        if self.kind == KIND_EXP and n != self.alpha_true.size:
            raise InvalidInputError("exponential model requires n == p")
        if any(g.tau_scale is not None and len(g.tau_scale) != self.p for g in self.grids):
            raise InvalidInputError(f"tau_scale must have one entry per species, p={self.p}")
        points = sum(g.length for g in self.grids)
        if points * (self.n + self.p) > ELEMENT_BUDGET:  # the bases and their derivatives
            raise ProblemTooLargeError(
                f"the grids hold {points} points, each with n + p = {self.n + self.p} basis "
                f"and derivative rows, more than the budget of {ELEMENT_BUDGET:.3g} elements")

    @property
    def s(self):
        return len(self.grids)

    @property
    def n(self):
        return self.beta_true[0].size

    @property
    def p(self):
        return self.alpha_true.size


def gen_tau_profiles(grid, p, seed, max_depth=1.5):
    """Sum-of-Gaussian-lines optical-depth profiles, one column per species.

    5 to 20 lines per species with random centers, widths and strengths; the
    columns are rejected (and the generator reseeded, up to 10 times) unless
    they are numerically independent.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise InvalidInputError("grid must be a vector of at least two points")
    span = grid[-1] - grid[0]
    rng = np.random.default_rng(seed)
    for _ in range(10):
        tau = np.empty((grid.size, p))
        for l in range(p):
            n_lines = int(rng.integers(5, 21))
            centers = rng.uniform(grid[0], grid[-1], size=n_lines)
            widths = rng.uniform(0.01, 0.05, size=n_lines) * span
            strengths = rng.uniform(0.2, 1.0, size=n_lines)
            col = np.zeros(grid.size)
            for c, w, a in zip(centers, widths, strengths):
                col += a * np.exp(-0.5 * ((grid - c) / w) ** 2)
            peak = col.max()
            if peak > 0.0:
                col *= max_depth / peak
            tau[:, l] = col
        if p <= 1:
            return tau
        sv = np.linalg.svd(tau, compute_uv=False)
        if sv[-1] > 1e-6 * sv[0]:
            return tau
    raise GenerationError(
        f"could not generate {p} independent optical-depth profiles in 10 attempts"
    )


def _solar_background(t_norm, scale, rng):
    """Smooth positive continuum with a mild random slope and curvature."""
    slope = rng.uniform(-0.15, 0.15)
    curve = rng.uniform(-0.1, 0.1)
    return scale * (1.0 + slope * t_norm + curve * t_norm**2 + 0.2)


def _noisy(eta, snr, rng):
    if np.isinf(snr):
        return eta.copy()
    g = rng.standard_normal(eta.size)
    return eta * (1.0 + g / snr)


def _beer_aux(grid, t, p, rng):
    """The Beer auxiliaries of one dataset on grid ``t``, drawn from ``rng``
    in a fixed order: the tau seed, the solar background, then mu_sun."""
    tau = gen_tau_profiles(t, p, int(rng.integers(0, 2**63 - 1)))
    if grid.tau_scale is not None:
        tau = tau * np.asarray(grid.tau_scale)
    i0 = _solar_background(normalize_abscissa(t), grid.i0_scale, rng)
    mu = float(rng.uniform(0.5, 1.0))
    halfwidth = grid.slit_halfwidth
    if halfwidth is None:
        halfwidth = 0.01 * (grid.hi - grid.lo)
    return BeerAux(mu_sun=mu, i0=i0, tau=tau, slit_halfwidth=halfwidth)


def _model_values(model, alpha, drafts, betas):
    """phi_k(alpha) beta_k of each draft dataset, from one ``model.eval_group``
    per group of equal ``model.group_key``, which evaluates the bases only.
    Each phi_k is copied out row-major first, so its product rounds as with
    ``model.eval`` of the dataset alone.  On any error the drafts are
    evaluated one by one, so the error raised is that of the first failing
    one."""
    values = [None] * len(drafts)
    try:
        for index in group_members(model, drafts):
            group = model.prepare_group(tuple(drafts[k] for k in index))
            phi = model.eval_group(alpha, group).phi
            for i, k in enumerate(index):
                values[k] = np.ascontiguousarray(phi[i, :, : drafts[k].m].T) @ betas[k]
    except SepvarError:
        for ds in drafts:
            model.eval_group(alpha, model.prepare_group((ds,)))
        raise
    return values


def generate(spec):
    """The problem of a truth specification, for either model kind.

    Dataset construction order is fixed, so a given seed is bitwise
    reproducible.  The datasets are first built with a placeholder y, and
    their exact model values come from one basis evaluation per group
    (:func:`_model_values`), the same bit for bit as one dataset at a
    time.  SNR = inf yields exact model values.
    """
    rng = np.random.default_rng(spec.seed)
    model, _ = model_kind(spec.kind, spec.n, spec.p)
    # all structural draws happen before any noise draw, so one seed yields
    # the same instrument setup at every SNR
    drafts = []
    for g in spec.grids:
        t = np.linspace(g.lo, g.hi, g.length)
        aux = _beer_aux(g, t, spec.p, rng) if spec.kind == KIND_BEER else None
        drafts.append(Dataset(t=t, y=np.ones_like(t), aux=aux))
    values = _model_values(model, spec.alpha_true, drafts, spec.beta_true)
    datasets = tuple(
        Dataset(t=ds.t, y=_noisy(eta, spec.snr, rng), aux=ds.aux, id=f"ds{k:03d}")
        for k, (ds, eta) in enumerate(zip(drafts, values))
    )
    return MultiProblem(datasets=datasets, model=model)


def regenerate_noise(spec, noise_seed):
    """Same structural problem, different noise stream.

    Builds the noiseless problem from ``spec`` and applies fresh multiplicative
    noise with an independent generator; useful for Monte-Carlo sweeps where
    the instrument setup stays fixed across realizations.
    """
    noise_seed = read(noise_seed, "noise_seed", NONNEGATIVE_INT)
    exact = generate(replace(spec, snr=np.inf))
    rng = np.random.default_rng(noise_seed)
    noisy = [
        Dataset(t=ds.t, y=_noisy(ds.y, spec.snr, rng), aux=ds.aux, id=ds.id)
        for ds in exact.datasets
    ]
    return MultiProblem(datasets=tuple(noisy), model=exact.model)


def frame_grids(
    n_soundings=8,
    strong_length=809,
    weak_length=651,
    strong_range=(6180.0, 6280.0),
    weak_range=(4950.0, 5050.0),
    strong_i0=1.0,
    weak_i0=1.0,
):
    """Satellite-like frame layout: per sounding one strong and one weak band."""
    strong = GridSpec(strong_length, *strong_range, i0_scale=strong_i0)
    weak = GridSpec(weak_length, *weak_range, i0_scale=weak_i0)
    return (strong, weak) * n_soundings
