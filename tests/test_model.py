import threading

import numpy as np
import numpy.testing as npt
import pytest
import scipy.ndimage as ndi

import sepvar as sv
from sepvar.exceptions import InvalidInputError, ModelOverflowError, ProblemTooLargeError
from sepvar.model import (
    CHUNK,
    MAX_HALF_TAPS,
    BeerAux,
    BeerLawModel,
    Dataset,
    ExpDecayModel,
    SlitConvolution,
    convolve_reflect,
    gaussian_kernel,
    normalize_abscissa,
)
from sepvar.synth import GridSpec, TruthSpec, frame_grids, generate
from sepvar.vpcore import eval_gl

from conftest import central_diff_jacobian


def make_beer_dataset(rng, m=40, p=2, lo=6140.0, hi=6280.0, halfwidth=None, tau=None):
    t = np.linspace(lo, hi, m)
    if tau is None:
        tau = np.zeros((m, p))
        for l in range(p):
            c = rng.uniform(lo, hi, 6)
            w = rng.uniform(0.02, 0.05, 6) * (hi - lo)
            for cc, ww in zip(c, w):
                tau[:, l] += rng.uniform(0.3, 1.0) * np.exp(-0.5 * ((t - cc) / ww) ** 2)
    i0 = 1.0 + 0.1 * np.sin(t / 30.0)
    if halfwidth is None:
        halfwidth = 0.01 * (hi - lo)
    aux = BeerAux(mu_sun=0.8, i0=i0, tau=tau, slit_halfwidth=halfwidth)
    return Dataset(t=t, y=np.ones(m), aux=aux)


class TestDataset:
    def test_nonincreasing_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            Dataset(t=[0.0, 1.0, 1.0], y=[1.0, 2.0, 3.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            Dataset(t=[0.0, 1.0], y=[1.0])

    def test_bad_beer_aux_rejected(self):
        with pytest.raises(InvalidInputError):
            BeerAux(mu_sun=0.5, i0=[1.0, 0.0], tau=np.zeros((2, 1)))
        with pytest.raises(InvalidInputError):
            BeerAux(mu_sun=1.5, i0=[1.0, 1.0], tau=np.zeros((2, 1)))

    @pytest.mark.parametrize("field, value, text", [
        ("mu_sun", True, "a number, got True"), ("mu_sun", "0.7", "a number, got '0.7'"),
        ("mu_sun", 0.0, r"in \(0, 1\], got 0.0"), ("slit_halfwidth", True, "a number, got True"),
        ("slit_halfwidth", -0.5, "nonnegative and finite, got -0.5"),
    ])
    def test_bad_beer_aux_scalar_rejected(self, field, value, text):
        """mu_sun=True was read as 1.0 and "0.7" raised an untyped TypeError."""
        fields = {"mu_sun": 0.5, "i0": [1.0, 1.0], "tau": np.zeros((2, 1)), field: value}
        with pytest.raises(InvalidInputError, match=f"'{field}' must be {text}"):
            BeerAux(**fields)

    @pytest.mark.parametrize("t, y", [([0.0, np.nan], [1.0, 1.0]), ([0.0, 1.0], [np.nan, 1.0]),
                                      ([0.0, np.inf], [1.0, 1.0]), ([0.0, 1.0], [1.0, -np.inf])])
    def test_non_finite_data_rejected(self, t, y):
        """NaN passes every ordering check, so it is refused by name."""
        with pytest.raises(InvalidInputError, match="finite"):
            Dataset(t=t, y=y)

    @pytest.mark.parametrize("field, value", [("i0", [1.0, np.nan]), ("i0", [np.inf, 1.0]),
                                              ("tau", [[np.nan], [0.0]]),
                                              ("slit_halfwidth", np.nan)])
    def test_non_finite_beer_aux_rejected(self, field, value):
        fields = {"mu_sun": 0.5, "i0": [1.0, 1.0], "tau": np.zeros((2, 1)), field: value}
        with pytest.raises(InvalidInputError, match="finite"):
            BeerAux(**fields)


class TestNormalizeAbscissa:
    def test_symmetric_map(self):
        npt.assert_allclose(normalize_abscissa([0.0, 1.0, 2.0]), [-1.0, 0.0, 1.0])

    def test_endpoints(self):
        npt.assert_allclose(normalize_abscissa([5000.0, 5100.0]), [-1.0, 1.0])

    def test_affine_formula(self):
        t = np.array([6140.0, 6250.0, 6280.0])
        expected = 2.0 * (t - t.min()) / (t.max() - t.min()) - 1.0
        npt.assert_allclose(normalize_abscissa(t), expected, rtol=1e-15)

    def test_constant_grid_rejected(self):
        with pytest.raises(InvalidInputError):
            normalize_abscissa(np.array([2.0, 2.0]))


class TestExpBasis:
    def test_zero_alpha_all_ones(self):
        ds = Dataset(t=[1.0, 2.0], y=[0.0, 0.0])
        be = ExpDecayModel(n_terms=2).eval(np.zeros(2), ds)
        npt.assert_allclose(be.phi, np.ones((2, 2)))

    def test_zero_time_kills_derivative(self):
        ds = Dataset(t=[0.0], y=[0.0])
        be = ExpDecayModel(n_terms=1).eval(np.array([1.0]), ds)
        npt.assert_allclose(be.phi, [[1.0]])
        npt.assert_allclose(be.dphi[0], [[0.0]])

    def test_single_point_derivative(self):
        ds = Dataset(t=[2.0], y=[0.0])
        model = ExpDecayModel(n_terms=1)
        be = model.eval(np.array([0.5]), ds)
        npt.assert_allclose(be.phi, [[np.exp(-1.0)]], rtol=1e-15)
        npt.assert_allclose(be.dphi[0], [[-2.0 * np.exp(-1.0)]], rtol=1e-15)
        # independent oracle: central finite difference
        fd = central_diff_jacobian(
            lambda a: model.eval(a, ds).phi.ravel(), np.array([0.5])
        )
        npt.assert_allclose(be.dphi[0].ravel(), fd[:, 0], rtol=1e-8)

    def test_cross_terms_zero(self):
        ds = Dataset(t=[0.5, 1.5, 2.5], y=np.zeros(3))
        be = ExpDecayModel(n_terms=2).eval(np.array([0.3, 0.9]), ds)
        npt.assert_allclose(be.dphi[0][:, 1], 0.0)
        npt.assert_allclose(be.dphi[1][:, 0], 0.0)

    def test_model_shape_check(self):
        ds = Dataset(t=[0.5, 1.5], y=np.zeros(2))
        with pytest.raises(InvalidInputError):
            ExpDecayModel(n_terms=2).eval(np.array([1.0]), ds)

    @pytest.mark.parametrize("entry", ["model.eval", "eval_gl", "eval_km", "fit"])
    def test_overflow_reported_with_index(self, entry):
        """At alpha = (-200, 0.3) the README problem's first grid, 40 points
        on [0, 4], overflows from t = 3.5 on and most at its last point; the
        error is typed, as the Beer law's, not a non-finite basis."""
        spec = TruthSpec(kind="exp", alpha_true=[1.2, 0.25], beta_true=([1.0, 0.8], [0.9, 1.1]),
                         grids=(GridSpec(40, 0.0, 4.0), GridSpec(50, 0.0, 5.0)), snr=100.0,
                         seed=7)
        prob, alpha = generate(spec), np.array([-200.0, 0.3])
        calls = {
            "model.eval": lambda: prob.model.eval(alpha, prob.datasets[0]),
            "eval_gl": lambda: sv.eval_gl(alpha, prob),
            "eval_km": lambda: sv.eval_km(alpha, prob),
            "fit": lambda: sv.fit(prob, sv.SolverConfig(), alpha),
        }
        with pytest.raises(ModelOverflowError, match="grid index 39") as exc:
            calls[entry]()
        assert exc.value.index == 39

    @pytest.mark.parametrize("grids, alpha, index", [
        # exp(705) is finite, but 705 is past the limit; 700 itself is not
        (([0.0, 1.0, 2.0],), [-352.5], 2),
        (([0.0, 1.0, 2.0],), [-350.0], None),
        # negative abscissae overflow under a positive rate, at the least t
        (([-10.0, -5.0, 0.0],), [80.0], 0),
        # a group of 5 and 8 points: only the longer grid passes the limit,
        # past the end of the shorter one
        ((np.linspace(0.0, 4.0, 5), np.linspace(0.0, 7.0, 8)), [-120.0], 7),
    ])
    def test_overflow_limit_on_abscissa_range(self, grids, alpha, index):
        model = ExpDecayModel(n_terms=1)
        datasets = tuple(Dataset(t=t, y=np.zeros(len(t))) for t in grids)
        group = model.prepare_group(datasets)
        if index is None:
            assert np.isfinite(model.eval_group(np.array(alpha), group).phi).all()
            return
        with pytest.raises(ModelOverflowError) as exc:
            model.eval_group(np.array(alpha), group)
        assert exc.value.index == index


class TestBeerBasis:
    def test_zero_alpha_unit_transmission(self, rng):
        ds = make_beer_dataset(rng, m=30)
        n = 3
        be = BeerLawModel(n_linear=n, p_species=2).eval(np.zeros(2), ds)
        # transmission == 1: columns are the convolved polynomial-times-continuum
        aux = ds.aux
        nu = normalize_abscissa(ds.t)
        spacing = float(np.mean(np.diff(ds.t)))
        kernel = gaussian_kernel(spacing, aux.slit_halfwidth)
        mono = (aux.mu_sun * aux.i0)[:, None] * nu[:, None] ** np.arange(n)
        ref = ndi.convolve1d(mono, kernel, axis=0, mode="reflect")
        npt.assert_allclose(be.phi, ref, rtol=1e-13)

    def test_delta_response_vandermonde(self):
        m, p, n = 25, 2, 3
        t = np.linspace(6140.0, 6280.0, m)
        aux = BeerAux(mu_sun=1.0, i0=np.ones(m), tau=np.zeros((m, p)), slit_halfwidth=0.0)
        ds = Dataset(t=t, y=np.ones(m), aux=aux)
        be = BeerLawModel(n_linear=n, p_species=p).eval(np.zeros(p), ds)
        nu = normalize_abscissa(t)
        npt.assert_allclose(be.phi, nu[:, None] ** np.arange(n), rtol=1e-14)

    def test_paper_configuration_shapes(self, rng):
        # three reflectivity coefficients, two species scale factors
        ds = make_beer_dataset(rng, m=50, p=2)
        model = BeerLawModel(n_linear=3, p_species=2)
        be = model.eval(np.array([1.0, 1.0]), ds)
        assert be.phi.shape == (50, 3)
        assert len(be.dphi) == 2 and be.dphi[0].shape == (50, 3)

    def test_zero_tau_zero_derivative(self, rng):
        ds = make_beer_dataset(rng, m=20, tau=np.zeros((20, 2)))
        be = BeerLawModel(n_linear=2, p_species=2).eval(np.array([0.7, 1.3]), ds)
        for d in be.dphi:
            npt.assert_allclose(d, 0.0, atol=1e-15)

    def test_overflow_reported_with_index(self, rng):
        ds = make_beer_dataset(rng, m=20)
        with pytest.raises(ModelOverflowError) as exc:
            BeerLawModel(n_linear=2, p_species=2).eval(np.array([-4000.0, 0.0]), ds)
        assert exc.value.index is not None

    def test_nonpositive_i0_rejected(self):
        with pytest.raises(InvalidInputError):
            BeerAux(mu_sun=1.0, i0=np.array([1.0, -1.0]), tau=np.zeros((2, 1)))


class TestConvolveReflect:
    """The blocked Toeplitz product against ndimage's reflecting convolution."""

    @pytest.mark.parametrize("halfwidth", [1e6, 1e308])
    def test_slit_past_its_budget_is_refused(self, halfwidth):
        """A slit wider than MAX_HALF_TAPS grid steps on either side (the
        first would need 59 PiB of Toeplitz blocks) raises before anything
        is built; the widest one allowed is built."""
        with pytest.raises(ProblemTooLargeError, match="'slit_halfwidth'"):
            gaussian_kernel(1.0, halfwidth)
        assert gaussian_kernel(1.0, MAX_HALF_TAPS / 4.0).size == 2 * MAX_HALF_TAPS + 1

    @pytest.mark.parametrize("m", [5, 10, 33, 651, 809])
    @pytest.mark.parametrize("taps", [3, 5, 17, 65, 129, 193])
    def test_matches_ndimage(self, m, taps, rng):
        # asymmetric positive weights catch a flipped kernel; for m = 5 and
        # 10 most kernels are wider than the grid, so the rows are reflected
        # repeatedly; most (m, taps) pairs leave a partial last tile
        kernel = rng.uniform(0.1, 1.0, taps)
        kernel /= kernel.sum()
        x = np.empty((3, 2, m))
        x[:, 0] = rng.uniform(0.5, 1.5, (3, m))
        x[:, 1] = np.linspace(-1.0, 1.0, m) * rng.uniform(0.5, 2.0, (3, 1))
        out = convolve_reflect(x, kernel, np.empty_like(x))
        ref = ndi.convolve1d(x, kernel, axis=-1, mode="reflect")
        row_max = np.max(np.abs(ref), axis=-1, keepdims=True)
        assert np.all(np.abs(out - ref) <= 1e-14 * row_max)

    def test_gaussian_response_into_strided_output(self, rng):
        kernel = gaussian_kernel(1.0, 8.0)  # 65 taps, as on the frame grids
        x = rng.uniform(0.5, 1.5, (3, 4, 2, 809))
        out = np.empty((3, 4, 809, 2)).transpose(0, 1, 3, 2)
        convolve_reflect(x, kernel, out)
        ref = ndi.convolve1d(x, kernel, axis=-1, mode="reflect")
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_large_group_slices_are_one_dataset_evals(self):
        # 32 datasets per grid, as in the s = 64 frame layout, with 65- and
        # 53-tap responses: BLAS rounds products of other shapes
        # differently, so products over a whole group, or over one slice of
        # it, would not reproduce each dataset's own evaluation
        grids = frame_grids(n_soundings=32)
        spec = TruthSpec(kind="beer", alpha_true=[1.0, 1.0],
                         beta_true=tuple(np.ones(3) for _ in grids),
                         grids=grids, snr=200.0, seed=11)
        prob = generate(spec)
        alpha = np.array([1.1, 0.9])
        for group in prob.groups:
            assert len(group.datasets) == 32
            ge = prob.model.eval_group(alpha, group.inputs)
            for i, ds in enumerate(group.datasets):
                be = prob.model.eval(alpha, ds)
                assert np.array_equal(be.phi, ge.phi[i].T)
                for l in range(prob.p):
                    assert np.array_equal(be.dphi[l], ge.dphi[i, l].T)

    @pytest.mark.parametrize(
        "m, halfwidth",
        [(40, 0.0), (40, 1.5), (40, 12.0), (651, 8.0), (809, 6.5)],
    )
    def test_group_slices_across_chunk_boundaries(self, m, halfwidth, rng):
        # group sizes end on a full chunk (CHUNK, 2 CHUNK) or a partial one
        # (the rest); on m = 40 a 12-unit half-width gives a 97-tap response,
        # wider than the grid, whose tails are reflected more than once, and
        # a zero half-width is the delta slit, which is not convolved
        sizes = sorted({1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, 2 * CHUNK + 1})
        t = np.linspace(0.0, m - 1.0, m)
        datasets = []
        for _ in range(sizes[-1]):
            aux = BeerAux(mu_sun=0.8, i0=rng.uniform(0.9, 1.1, m),
                          tau=rng.uniform(0.0, 1.0, (m, 2)), slit_halfwidth=halfwidth)
            datasets.append(Dataset(t=t, y=np.ones(m), aux=aux))
        model = BeerLawModel(n_linear=3, p_species=2)
        alpha = np.array([1.1, 0.9])
        alone = [model.eval(alpha, ds) for ds in datasets]
        for size in sizes:
            ge = model.eval_group(alpha, model.prepare_group(datasets[:size]))
            assert ge.phi.flags.c_contiguous
            for i, be in enumerate(alone[:size]):
                assert np.array_equal(be.phi, ge.phi[i].T)
                for l in range(model.p):
                    assert np.array_equal(be.dphi[l], ge.dphi[i, l].T)

    @pytest.mark.parametrize("m, taps", [(5, 193), (33, 17), (809, 65)])
    def test_zero_rows_stay_exactly_zero(self, m, taps, rng):
        kernel = rng.uniform(0.1, 1.0, taps)
        x = rng.uniform(0.5, 1.5, (2, 4, m))
        x[0, 1] = 0.0
        x[1, 2] = -0.0
        x[1, 3] = 0.0
        out = convolve_reflect(x, kernel, np.full_like(x, np.nan))
        assert np.all(out[0, 1] == 0.0) and np.all(out[1, 2:] == 0.0)
        assert np.all(out[0, 2] > 0.0)


def slit_groups(rng):
    """(model, datasets) of Beer groups that the products must cover: a
    delta slit, the two frame kernels (65 and 53 taps), a 65-tap kernel on
    a 40-point grid (wider than the grid, so reflected more than once) and
    CHUNK + 1 datasets on shifted grids, a full chunk and a partial one."""
    model = BeerLawModel(n_linear=3, p_species=2)
    cases = []
    for m, lo, hi, halfwidth, count in [(40, 6180.0, 6280.0, 0.0, 2),
                                        (809, 6180.0, 6280.0, 1.0, 3),
                                        (651, 4950.0, 5050.0, 1.0, 5),
                                        (40, 0.0, 39.0, 8.0, 3),
                                        (60, 0.0, 59.0, 2.0, CHUNK + 1)]:
        datasets = []
        for k in range(count):
            shift = 0.5 * k if count == CHUNK + 1 else 0.0
            ds = make_beer_dataset(rng, m=m, lo=lo + shift, hi=hi + shift, halfwidth=halfwidth)
            datasets.append(ds)
        cases.append((model, datasets))
    return cases


class TestDerivativeProducts:
    """The reduced path reads the derivatives only through dphi_l beta and
    dphi_l^T z, from one products call; the dense derivatives are the
    products with the unit vectors."""

    @pytest.mark.parametrize("m, halfwidth", [(40, 8.0), (5, 12.0), (809, 1.0 * 808 / 100),
                                              (651, 1.0 * 650 / 100), (33, 2.0)])
    def test_slit_convolution_is_self_adjoint(self, m, halfwidth, rng):
        """A symmetric kernel on the half-sample reflection gives a
        symmetric K, so <Kx, y> = <x, K^T y> holds with K^T = K, also where
        the reflection repeats (40 and 5 points under 65 and 193 taps)."""
        kernel = gaussian_kernel(1.0, halfwidth)
        assert np.array_equal(kernel, kernel[::-1])
        x, y = rng.normal(size=(2, 1, 1, m))
        kx = convolve_reflect(x, kernel, np.empty_like(x))
        ky = convolve_reflect(y, kernel, np.empty_like(y))
        scale = np.linalg.norm(kx) * np.linalg.norm(y)
        assert abs(np.vdot(kx, y) - np.vdot(x, ky)) <= 1e-14 * scale

    def test_products_are_adjoint(self, rng):
        """<dphi_l beta, z> = <beta, dphi_l^T z> for every dataset and every
        pair of its two vectors and three rows, from one products call per
        group."""
        alpha = np.array([1.1, 0.9])
        for model, datasets in slit_groups(rng):
            ge = model.eval_group(alpha, model.prepare_group(datasets))
            g, n, m = ge.phi.shape
            betas, zs = rng.normal(size=(g, 2, n)), rng.normal(size=(g, 3, m))
            u, v = ge.products(betas, zs)
            lhs = np.einsum("gklm,gqm->gkql", u, zs)
            rhs = np.einsum("gqln,gkn->gkql", v, betas)
            scale = (np.linalg.norm(u, axis=-1)[:, :, None]
                     * np.linalg.norm(zs, axis=-1)[:, None, :, None])
            assert np.all(np.abs(lhs - rhs) <= 1e-14 * scale)

    @pytest.mark.parametrize("g", [1, 4, 32])
    def test_z_row_rounds_as_if_convolved_alone(self, g, rng):
        """A Beer group's products call convolves z's row in one slit call
        with the p rows of dphi_l beta; z's row comes out with the same
        bits as when it is convolved alone, so dphi_l^T z is the product
        V^T (-tau_l * b * K z) of z convolved on its own, and dphi_l beta
        is that of a call with no row, bit for bit.  Frame-band groups of g
        datasets on the 809- and 651-point grids (65 and 53 taps).  (On a
        grid of two tiles, such as 40 points under 65 taps, BLAS may round
        z's row of the 6-row product differently from the 2-row one, by an
        ulp.)"""
        model = BeerLawModel(n_linear=3, p_species=2)
        alpha = np.array([1.1, 0.9])
        for m, lo, hi, halfwidth in [(809, 6180.0, 6280.0, 1.0), (651, 4950.0, 5050.0, 1.0)]:
            datasets = [make_beer_dataset(rng, m=m, lo=lo, hi=hi, halfwidth=halfwidth)
                        for _ in range(g)]
            group = model.prepare_group(datasets)
            ge = model.eval_group(alpha, group)
            beta, z = rng.normal(size=(g, 3)), rng.normal(size=(g, m))
            u, v = ge.products(beta[:, None], z[:, None])
            kz = group.slit.apply(lambda rows, dest: np.copyto(dest, z[rows]), np.empty(z.shape))
            kz *= ge.base
            alone = (group.neg_tau * kz[:, None]) @ group.powers.transpose(0, 2, 1)
            assert v[:, 0].tobytes() == alone.tobytes()
            assert np.array_equal(u, ge.products(beta[:, None], np.empty((g, 0, m)))[0])

    @pytest.mark.parametrize("kind", ["exp", "beer"])
    def test_products_match_dense_derivatives(self, kind, rng):
        """products agrees with the dense derivatives to 1e-12,
        on a padded exp group and on the Beer groups above."""
        if kind == "exp":
            model = ExpDecayModel(n_terms=2)
            datasets = [Dataset(t=np.linspace(0.0, 3.0, m), y=np.zeros(m)) for m in (9, 12, 16)]
            cases, alpha = [(model, datasets)], np.array([1.1, 0.3])
        else:
            cases, alpha = slit_groups(rng), np.array([1.1, 0.9])
        for model, datasets in cases:
            ge = model.eval_group(alpha, model.prepare_group(datasets))
            g, n, m = ge.phi.shape
            beta, z = rng.normal(size=(g, n)), rng.normal(size=(g, m))
            for i, ds in enumerate(datasets):
                z[i, ds.m:] = 0.0
            dense = ge.dphi  # g x p x n x m
            u, v = ge.products(beta[:, None], z[:, None])
            for got, want in [(u[:, 0], np.einsum("glnm,gn->glm", dense, beta)),
                              (v[:, 0], np.einsum("glnm,gm->gln", dense, z))]:
                assert got.shape == want.shape
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_dense_derivatives_are_unit_vector_products(self, rng):
        """GroupEval.dphi is the products with e_1, ..., e_n, each alone,
        bit for bit, in each dataset's slice."""
        alpha = np.array([1.1, 0.9])
        for model, datasets in slit_groups(rng):
            ge = model.eval_group(alpha, model.prepare_group(datasets))
            g, n, m = ge.phi.shape
            for j in range(n):
                unit = np.zeros((g, 1, n))
                unit[:, 0, j] = 1.0
                u, _ = ge.products(unit, np.empty((g, 0, m)))
                assert np.array_equal(u[:, 0], ge.dphi[:, :, j])


class TestDerivativeProperty:
    @pytest.mark.parametrize("kind", ["exp", "beer"])
    def test_dphi_matches_finite_differences(self, kind, rng):
        for trial in range(5):
            if kind == "exp":
                ds = Dataset(t=np.sort(rng.uniform(0, 3, 12)), y=np.zeros(12))
                model = ExpDecayModel(n_terms=2)
                alpha = rng.uniform(0.2, 1.5, 2)
            else:
                ds = make_beer_dataset(rng, m=30)
                model = BeerLawModel(n_linear=3, p_species=2)
                alpha = rng.uniform(0.5, 1.5, 2)
            be = model.eval(alpha, ds)
            fd = central_diff_jacobian(lambda a: model.eval(a, ds).phi.ravel(), alpha)
            scale = max(np.linalg.norm(d) for d in be.dphi)
            for l in range(model.p):
                err = np.linalg.norm(be.dphi[l].ravel() - fd[:, l])
                assert err <= 1e-6 * max(scale, 1e-12)

    def test_bitwise_reproducible(self, rng):
        ds = make_beer_dataset(rng, m=30)
        model = BeerLawModel(n_linear=3, p_species=2)
        alpha = np.array([0.9, 1.1])
        a = model.eval(alpha, ds)
        b = model.eval(alpha, ds)
        assert np.array_equal(a.phi, b.phi)
        assert all(np.array_equal(x, y) for x, y in zip(a.dphi, b.dphi))


class TestThreads:
    def test_evaluation_held_inside_its_convolution_keeps_its_bits(self, monkeypatch):
        """One evaluation of a frame problem waits inside the fill callback
        of its first slit convolution while a second thread evaluates the
        same problem at another alpha.  Each thread convolves in a buffer
        of its own, so both give their single-thread bits."""
        grids = frame_grids(n_soundings=2)
        prob = generate(TruthSpec(kind="beer", alpha_true=[1.0, 1.0],
                                  beta_true=tuple(np.array([1.0, 0.1, -0.05]) for _ in grids),
                                  grids=grids, snr=200.0, seed=11))
        first_alpha, second_alpha = np.array([1.1, 0.9]), np.array([0.8, 1.3])
        # the single-thread bits; these calls also size this thread's buffers
        expected = [eval_gl(a, prob) for a in (first_alpha, second_alpha)]
        inside, release = threading.Event(), threading.Event()
        apply = SlitConvolution.apply

        def holding_apply(slit, fill, out):
            if threading.current_thread() is not holder or inside.is_set():
                return apply(slit, fill, out)

            def fill_then_wait(rows, dest):
                fill(rows, dest)
                inside.set()
                release.wait(30.0)

            return apply(slit, fill_then_wait, out)

        monkeypatch.setattr(SlitConvolution, "apply", holding_apply)
        results = {}
        holder = threading.Thread(
            target=lambda: results.update(first=eval_gl(first_alpha, prob)))
        holder.start()
        try:
            assert inside.wait(30.0)
            results["second"] = eval_gl(second_alpha, prob)
        finally:
            release.set()
            holder.join(30.0)
        assert not holder.is_alive()
        for red, ref in zip((results["first"], results["second"]), expected):
            assert red.z.tobytes() == ref.z.tobytes()
            assert red.jac.tobytes() == ref.jac.tobytes()
