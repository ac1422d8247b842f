from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest

from sepvar.exceptions import InvalidInputError, ProblemTooLargeError
from sepvar.inputs import MAX_SIZE
from sepvar.synth import (
    RNG_ALGORITHM,
    GridSpec,
    TruthSpec,
    frame_grids,
    gen_tau_profiles,
    generate,
    regenerate_noise,
)


def beer_spec(snr=np.inf, seed=101, s=2):
    grids = tuple(GridSpec(120, 6180.0, 6280.0) for _ in range(s))
    beta = tuple(np.array([1.0, 0.1, -0.05]) for _ in range(s))
    return TruthSpec(kind="beer", alpha_true=[1.0, 1.0], beta_true=beta,
                     grids=grids, snr=snr, seed=seed)


class TestSpecValidation:
    def test_rng_algorithm_constant(self):
        assert RNG_ALGORITHM == "numpy-pcg64"

    def test_exp_requires_square(self):
        with pytest.raises(InvalidInputError):
            TruthSpec(kind="exp", alpha_true=[1.0], beta_true=([1.0, 2.0],),
                      grids=(GridSpec(10, 0.0, 1.0),), snr=10.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            TruthSpec(kind="fourier", alpha_true=[1.0], beta_true=([1.0],),
                      grids=(GridSpec(10, 0.0, 1.0),))

    def test_mismatched_counts_rejected(self):
        with pytest.raises(InvalidInputError):
            TruthSpec(kind="exp", alpha_true=[1.0], beta_true=([1.0], [1.0]),
                      grids=(GridSpec(10, 0.0, 1.0),))

    def test_bad_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            GridSpec(1, 0.0, 1.0)
        with pytest.raises(InvalidInputError):
            GridSpec(10, 1.0, 1.0)

    def test_sizes_past_their_budgets_rejected(self):
        """A grid longer than MAX_SIZE is a bad value; grids that fit it but
        together pass the element budget are a problem too large, refused
        before anything is drawn."""
        with pytest.raises(InvalidInputError, match="'length' must be at most 1000000"):
            GridSpec(MAX_SIZE + 1, 0.0, 1.0)
        grids = (GridSpec(MAX_SIZE, 0.0, 1.0),) * 30
        with pytest.raises(ProblemTooLargeError, match="30000000 points"):
            TruthSpec(kind="exp", alpha_true=[1.0, 0.5], beta_true=([1.0, 1.0],) * 30,
                      grids=grids)

    @pytest.mark.parametrize("fields", [
        {"length": 40.0}, {"length": "40"}, {"lo": np.nan}, {"hi": np.inf},
        {"i0_scale": np.nan}, {"tau_scale": [1.0, -1.0]}, {"slit_halfwidth": -0.5},
        {"slit_halfwidth": np.nan},
    ])
    def test_bad_grid_field_rejected(self, fields):
        with pytest.raises(InvalidInputError):
            GridSpec(**{"length": 40, "lo": 0.0, "hi": 1.0, **fields})

    @pytest.mark.parametrize("field, value", [
        ("lo", True), ("hi", "1.0"), ("i0_scale", True), ("tau_scale", [1.0, False]),
        ("tau_scale", ["2.0", 1.0]), ("slit_halfwidth", True), ("slit_halfwidth", "0.5"),
    ])
    def test_bool_or_text_grid_number_rejected(self, field, value):
        """The range checks read a bool as 0 or 1, so a number field takes a
        number only, and the error names the field."""
        with pytest.raises(InvalidInputError, match=f"grid '{field}' must be a number"):
            GridSpec(**{"length": 40, "lo": 0.0, "hi": 1.0, field: value})

    def test_numpy_numbers_are_numbers(self):
        grid = GridSpec(40, np.float64(0.0), np.int64(2), i0_scale=np.float32(1.5),
                        tau_scale=np.array([1.0, 0.5]), slit_halfwidth=np.float64(0.1))
        assert grid.tau_scale == (1.0, 0.5)

    def test_tau_scale_is_a_tuple_of_one_entry_per_species(self):
        assert GridSpec(40, 0.0, 1.0, tau_scale=[2.0, 0.5]).tau_scale == (2.0, 0.5)
        with pytest.raises(InvalidInputError, match="tau_scale"):
            TruthSpec(kind="beer", alpha_true=[1.0, 1.0], beta_true=([1.0],),
                      grids=(GridSpec(40, 0.0, 1.0, tau_scale=[2.0]),))

    def test_nonpositive_snr_rejected(self):
        with pytest.raises(InvalidInputError):
            TruthSpec(kind="exp", alpha_true=[1.0], beta_true=([1.0],),
                      grids=(GridSpec(10, 0.0, 1.0),), snr=0.0)

    def test_negative_seed_rejected(self):
        """numpy's generators take no negative seed, so generate would raise
        an untyped ValueError."""
        with pytest.raises(InvalidInputError,
                           match="'seed' must be a nonnegative integer, got -1"):
            beer_spec(seed=-1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, "3"])
    def test_seed_is_a_python_integer(self, seed):
        """A record's integer field takes an int only: numpy failed on 1.5
        inside generate, and True ran as seed 1."""
        with pytest.raises(InvalidInputError, match=f"'seed' must be an integer, got {seed!r}"):
            beer_spec(seed=seed)

    @pytest.mark.parametrize("truth", [{"alpha_true": [np.nan, 1.0]},
                                       {"beta_true": ([1.0, np.inf, 0.0],) * 2}])
    def test_non_finite_truth_rejected(self, truth):
        """A NaN truth failed only in generate's model evaluation."""
        key = next(iter(truth))
        with pytest.raises(InvalidInputError, match=f"'{key}' must be finite"):
            replace(beer_spec(), **truth)


class TestRegenerateNoiseSeed:
    @pytest.mark.parametrize("noise_seed, text", [
        (-1, "a nonnegative integer, got -1"), (1.5, "an integer, got 1.5"),
        (True, "an integer, got True"),
    ])
    def test_bad_noise_seed_rejected(self, noise_seed, text):
        """numpy raised an untyped ValueError for -1 and TypeError for 1.5,
        and ran True as seed 1."""
        with pytest.raises(InvalidInputError, match=f"'noise_seed' must be {text}"):
            regenerate_noise(beer_spec(snr=100.0), noise_seed)


class TestTauProfiles:
    def test_shape_and_nonnegative(self):
        grid = np.linspace(6180.0, 6280.0, 200)
        tau = gen_tau_profiles(grid, 2, seed=5)
        assert tau.shape == (200, 2)
        assert np.all(tau >= 0.0)

    def test_peak_normalization(self):
        grid = np.linspace(0.0, 100.0, 300)
        tau = gen_tau_profiles(grid, 3, seed=6, max_depth=1.5)
        npt.assert_allclose(tau.max(axis=0), 1.5, rtol=1e-12)

    def test_columns_independent_across_many_seeds(self):
        grid = np.linspace(0.0, 100.0, 150)
        for seed in range(30):
            tau = gen_tau_profiles(grid, 2, seed=seed)
            s = np.linalg.svd(tau, compute_uv=False)
            assert s[-1] > 1e-6 * s[0]

    def test_deterministic(self):
        grid = np.linspace(0.0, 50.0, 80)
        a = gen_tau_profiles(grid, 2, seed=9)
        b = gen_tau_profiles(grid, 2, seed=9)
        assert np.array_equal(a, b)

    def test_bad_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            gen_tau_profiles(np.array([1.0]), 1, seed=0)


class TestNoiseLaw:
    def test_relative_std_matches_inverse_snr(self):
        """sd of (y/eta - 1) over 1e5 points must equal 1/SNR within 2%."""
        n_pts = 100000
        spec = TruthSpec(
            kind="exp", alpha_true=[0.5], beta_true=([1.0],),
            grids=(GridSpec(n_pts, 0.0, 2.0),), snr=100.0, seed=77,
        )
        noisy = generate(spec)
        exact = generate(replace(spec, snr=np.inf))
        rel = noisy.datasets[0].y / exact.datasets[0].y - 1.0
        npt.assert_allclose(rel.std(), 1.0 / 100.0, rtol=0.02)
        npt.assert_allclose(rel.mean(), 0.0, atol=3.0 / (100.0 * np.sqrt(n_pts)))

    def test_infinite_snr_exact(self):
        spec = beer_spec(snr=np.inf)
        prob = generate(spec)
        model = prob.model
        for ds, beta in zip(prob.datasets, spec.beta_true):
            eta = model.eval(spec.alpha_true, ds).phi @ beta
            npt.assert_allclose(ds.y, eta, rtol=1e-12)

    def test_exact_values_are_model_eval_without_calling_it(self, monkeypatch):
        """Noiseless observations are model.eval(alpha_true) @ beta bit for
        bit, for interleaved Beer groups, yet generate evaluates the model
        once per group, not one dataset at a time."""
        spec = TruthSpec(kind="beer", alpha_true=[1.0, 1.0],
                         beta_true=tuple(np.array([1.0, 0.1, -0.05]) for _ in range(4)),
                         grids=frame_grids(n_soundings=2, strong_length=90, weak_length=70))
        model_cls = type(generate(spec).model)
        inner = model_cls.eval
        calls = []
        monkeypatch.setattr(model_cls, "eval", lambda *a: calls.append(a) or inner(*a))
        prob = generate(spec)
        assert calls == [] and [g.index for g in prob.groups] == [(0, 2), (1, 3)]
        for ds, beta in zip(prob.datasets, spec.beta_true):
            assert np.array_equal(ds.y, inner(prob.model, spec.alpha_true, ds).phi @ beta)


class TestReproducibility:
    def test_bitwise_identical_for_same_seed(self):
        a = generate(beer_spec(snr=50.0, seed=11))
        b = generate(beer_spec(snr=50.0, seed=11))
        for da, db in zip(a.datasets, b.datasets):
            assert np.array_equal(da.y, db.y)
            assert np.array_equal(da.aux.tau, db.aux.tau)
            assert np.array_equal(da.aux.i0, db.aux.i0)

    def test_different_seed_different_noise(self):
        a = generate(beer_spec(snr=50.0, seed=11))
        b = generate(beer_spec(snr=50.0, seed=12))
        assert not np.array_equal(a.datasets[0].y, b.datasets[0].y)

    def test_structure_invariant_under_snr(self):
        """One seed fixes the instrument setup regardless of noise level."""
        a = generate(beer_spec(snr=20.0, seed=13))
        b = generate(beer_spec(snr=np.inf, seed=13))
        for da, db in zip(a.datasets, b.datasets):
            assert np.array_equal(da.aux.tau, db.aux.tau)
            assert np.array_equal(da.aux.i0, db.aux.i0)
            assert da.aux.mu_sun == db.aux.mu_sun

    def test_regenerate_noise_keeps_structure(self):
        spec = beer_spec(snr=30.0, seed=14)
        base = generate(spec)
        alt = regenerate_noise(spec, noise_seed=999)
        for da, db in zip(base.datasets, alt.datasets):
            assert np.array_equal(da.aux.tau, db.aux.tau)
            assert not np.array_equal(da.y, db.y)

    def test_regenerate_noise_deterministic(self):
        spec = beer_spec(snr=30.0, seed=14)
        a = regenerate_noise(spec, noise_seed=3)
        b = regenerate_noise(spec, noise_seed=3)
        for da, db in zip(a.datasets, b.datasets):
            assert np.array_equal(da.y, db.y)


class TestFrameGrids:
    def test_default_layout(self):
        grids = frame_grids()
        assert len(grids) == 16
        assert [g.length for g in grids[:2]] == [809, 651]
        assert grids[0].lo == 6180.0 and grids[0].hi == 6280.0
        assert grids[1].lo == 4950.0 and grids[1].hi == 5050.0

    def test_band_scaling_knobs(self):
        grids = frame_grids(n_soundings=1, strong_i0=2.0, weak_i0=0.5)
        assert grids[0].i0_scale == 2.0
        assert grids[1].i0_scale == 0.5

    def test_frame_generates_and_fits_shapes(self):
        grids = frame_grids(n_soundings=1)
        spec = TruthSpec(
            kind="beer", alpha_true=[1.0, 1.0],
            beta_true=tuple(np.array([1.0, 0.1, -0.05]) for _ in grids),
            grids=grids, snr=np.inf, seed=21,
        )
        prob = generate(spec)
        assert prob.s == 2
        assert [ds.t.size for ds in prob.datasets] == [809, 651]
        assert prob.m_total == 809 + 651


class TestDispatch:
    def test_generate_routes_by_kind(self):
        exp_spec = TruthSpec(kind="exp", alpha_true=[0.5], beta_true=([1.0],),
                             grids=(GridSpec(10, 0.0, 1.0),), seed=1)
        assert generate(exp_spec).model.p == 1
        assert generate(beer_spec()).model.p == 2
