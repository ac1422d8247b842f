import itertools
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
import scipy.linalg as sl

import sepvar as sv
from sepvar import vpcore
from sepvar.exceptions import (
    InvalidInputError,
    ModelOverflowError,
    ProblemTooLargeError,
    RankDeficiencyError,
)
from sepvar.factor import pinv_transpose_apply
from sepvar.model import BeerAux, BeerLawModel, Dataset, ExpDecayModel
from sepvar.vpcore import (
    MultiProblem,
    _factor_group,
    _form_group,
    build_block_diag,
    dataset_bases,
    eval_gl,
    eval_km,
    eval_naive,
)

from conftest import central_diff_jacobian, interleaved_exp_problem, make_exp_problem


def consistent_problem(rng, s=2, n=2):
    """Datasets whose observations lie exactly in the basis column space."""
    alpha = rng.uniform(0.3, 1.2, n)
    model = ExpDecayModel(n_terms=n)
    datasets = []
    for k in range(s):
        m = int(rng.integers(6, 12))
        t = np.sort(rng.uniform(0, 3, m))
        probe = Dataset(t=t, y=np.zeros(m))
        phi = model.eval(alpha, probe).phi
        datasets.append(Dataset(t=t, y=phi @ rng.uniform(0.5, 1.5, n)))
    return MultiProblem(datasets=tuple(datasets), model=model), alpha


def frame_problem(soundings=4, seed=31):
    """Beer frame layout: per sounding one 809- and one 651-point band, so
    the datasets form two shared-grid groups of ``soundings`` each."""
    grids = sv.frame_grids(n_soundings=soundings)
    spec = sv.TruthSpec(
        kind="beer", alpha_true=[1.0, 1.0],
        beta_true=tuple(np.array([1.0, 0.1, -0.05]) for _ in grids),
        grids=grids, snr=200.0, seed=seed,
    )
    return sv.generate(spec)


def reference_eval(alpha, prob, form):
    """Literal per-dataset reduction: model.eval, the pivoted thin_qr and the
    factor helpers, dataset by dataset in problem order."""
    z, jac, betas = [], [], []
    for k, ds in enumerate(prob.datasets):
        be = prob.model.eval(alpha, ds)
        try:
            f = sv.thin_qr(be.phi)
        except RankDeficiencyError as err:
            raise RankDeficiencyError("reference", rank=err.rank, dataset=k) from err
        beta = sv.pinv_apply(f, ds.y)
        if form == "gl":
            r = sv.proj_perp_apply(f, ds.y)
            jb = np.column_stack([
                -(sv.proj_perp_apply(f, d @ beta) + pinv_transpose_apply(f, d.T @ r))
                for d in be.dphi
            ])
        else:
            tail = sv.q2t_apply(f, np.column_stack([ds.y] + [d @ beta for d in be.dphi]))
            r, jb = tail[:, 0], -tail[:, 1:]
        z.append(r)
        jac.append(jb)
        betas.append(beta)
    return np.concatenate(z), np.vstack(jac), betas


def beer_dataset(t, tau, halfwidth=1.0):
    aux = BeerAux(mu_sun=0.8, i0=1.0 + 0.1 * np.sin(t / 30.0), tau=tau,
                  slit_halfwidth=halfwidth)
    return Dataset(t=t, y=1.0 + 0.01 * np.cos(t), aux=aux)


def smooth_tau(t, rng, p=2):
    tau = np.zeros((t.size, p))
    for l in range(p):
        for c in rng.uniform(t[0], t[-1], 4):
            tau[:, l] += rng.uniform(0.3, 1.0) * np.exp(-0.5 * ((t - c) / 8.0) ** 2)
    return tau


def rank_two_tau(t):
    """Absorption so strong everywhere but at two grid points that the
    basis has numerical rank 2 under alpha = (1, -1)."""
    tau = np.zeros((t.size, 2))
    tau[:, 0] = 600.0
    tau[[5, 25], 0] = 0.0
    return tau


def overflow_tau(t, rng, index=17):
    """Overflows at ``index`` under alpha = (1, -1)."""
    tau = smooth_tau(t, rng)
    tau[index, 1] = 800.0
    return tau


def raised(fn, *args):
    """The typed error fn raises, as (type, rank, dataset, index), or None."""
    try:
        fn(*args)
    except (RankDeficiencyError, ModelOverflowError) as err:
        return (type(err), getattr(err, "rank", None), getattr(err, "dataset", None),
                getattr(err, "index", None))
    return None


def assert_matches_reference(ev, alpha, prob, form):
    """The grouped ``ev`` agrees with reference_eval to 1e-12."""
    red = ev(alpha, prob)
    z, jac, betas = reference_eval(alpha, prob, form)

    def close(a, b):
        assert np.linalg.norm(a - b) <= 1e-12 * np.linalg.norm(b)

    for a, b in zip(red.betas, betas):
        close(a, b)
    if form == "gl":
        close(red.z, z)
        close(red.jac, jac)
    else:
        # the reference applies Q2^T, the grouped km form P_perp = Q2 Q2^T;
        # (Q2^T a)^T (Q2^T b) = a^T P_perp b, so compare what both share
        npt.assert_allclose(np.linalg.norm(red.z), np.linalg.norm(z), rtol=1e-12)
        close(red.jac.T @ red.z, jac.T @ z)
        close(red.jac.T @ red.jac, jac.T @ jac)


def assert_blocks_as_alone(ev, alpha, prob):
    """Each dataset's blocks are the same bit for bit in its group as in a
    problem of that dataset alone."""
    red = ev(alpha, prob)
    bounds = prob.block_starts
    for k, ds in enumerate(prob.datasets):
        alone = ev(alpha, MultiProblem(datasets=(ds,), model=prob.model))
        rows = slice(bounds[k], bounds[k + 1])
        assert np.array_equal(alone.z, red.z[rows])
        assert np.array_equal(alone.jac, red.jac[rows])
        assert np.array_equal(alone.betas[0], red.betas[k])


class TestGroupedKernel:
    ALPHA_FAIL = np.array([1.0, -1.0])

    @pytest.mark.parametrize("form", ["gl", "km"])
    def test_gl_km_match_per_dataset_reference(self, form):
        prob = frame_problem()
        assert [len(g.index) for g in prob.groups] == [4, 4]
        ev = eval_gl if form == "gl" else eval_km
        for alpha in (np.array([1.1, 0.9]), np.array([0.7, 1.4])):
            assert_matches_reference(ev, alpha, prob, form)

    def test_one_dataset_eval_is_its_group_slice(self):
        prob = frame_problem()
        alpha = np.array([1.1, 0.9])
        for group in prob.groups:
            ge = prob.model.eval_group(alpha, group.inputs)
            for i, ds in enumerate(group.datasets):
                be = prob.model.eval(alpha, ds)
                assert np.array_equal(be.phi, ge.phi[i].T)
                for l in range(prob.p):
                    assert np.array_equal(be.dphi[l], ge.dphi[i, l].T)

    @pytest.mark.parametrize("ev", [eval_gl, eval_km])
    def test_grouping_does_not_change_results(self, ev):
        """A dataset's blocks are the same in its group of 4 as alone."""
        assert_blocks_as_alone(ev, np.array([1.1, 0.9]), frame_problem())

    @pytest.mark.parametrize(
        "ev",
        [eval_gl, eval_km, eval_naive],
        ids=["eval_gl", "eval_km", "eval_naive"],
    )
    @pytest.mark.parametrize("kind", ["exp", "frame"])
    def test_phis_are_model_bases_in_problem_order(self, ev, kind, rng):
        """Each phis[k] equals model.eval's basis matrix; the grouped
        kernels read it as a view of the group's stack, not a copy."""
        if kind == "exp":
            prob, _ = make_exp_problem(rng, s=3, snr=50.0, seed=51)
            alpha = np.array([1.0, 0.3])
        else:
            prob, alpha = frame_problem(soundings=2), np.array([1.1, 0.9])
        red = ev(alpha, prob)
        assert len(red.phis) == prob.s
        for ds, phi in zip(prob.datasets, red.phis):
            assert np.array_equal(phi, prob.model.eval(alpha, ds).phi)
        if ev is not eval_naive:  # the literal reduction copies each basis out
            for group in prob.groups:
                stack = red.phis[group.index[0]].base
                assert all(red.phis[k].base is stack for k in group.index)

    @pytest.mark.parametrize("bad", ["rank", "overflow"])
    def test_non_first_dataset_of_group_fails(self, bad, rng):
        t = np.linspace(6180.0, 6280.0, 40)
        failing = rank_two_tau(t) if bad == "rank" else overflow_tau(t, rng)
        taus = [smooth_tau(t, rng), failing, smooth_tau(t, rng)]
        prob = MultiProblem(datasets=tuple(beer_dataset(t, tau) for tau in taus),
                            model=BeerLawModel(n_linear=3, p_species=2))
        assert [g.index for g in prob.groups] == [(0, 1, 2)]
        expected = raised(reference_eval, self.ALPHA_FAIL, prob, "gl")
        if bad == "rank":
            assert expected == (RankDeficiencyError, 2, 1, None)
        else:
            assert expected == (ModelOverflowError, None, None, 17)
        for ev in (eval_gl, eval_km):
            assert raised(ev, self.ALPHA_FAIL, prob) == expected

    @pytest.mark.parametrize("order", ["rank-first", "overflow-first"])
    def test_first_failure_in_problem_order_across_groups(self, order, rng):
        """Groups are evaluated one after the other, but the error raised is
        that of the first failing dataset in problem order."""
        ta = np.linspace(6180.0, 6280.0, 40)
        tb = np.linspace(4950.0, 5050.0, 50)
        ok_a, ok_b = beer_dataset(ta, smooth_tau(ta, rng)), beer_dataset(tb, smooth_tau(tb, rng))
        over_a = beer_dataset(ta, overflow_tau(ta, rng))
        rank_b = beer_dataset(tb, rank_two_tau(tb))
        if order == "rank-first":
            datasets = (ok_a, ok_b, rank_b, over_a)  # groups (0, 3) and (1, 2)
            expected = (RankDeficiencyError, 2, 2, None)
        else:
            datasets = (ok_a, ok_b, over_a, rank_b)  # groups (0, 2) and (1, 3)
            expected = (ModelOverflowError, None, None, 17)
        prob = MultiProblem(datasets=datasets, model=BeerLawModel(n_linear=3, p_species=2))
        assert len(prob.groups) == 2
        assert raised(reference_eval, self.ALPHA_FAIL, prob, "gl") == expected
        for ev in (eval_gl, eval_km):
            assert raised(ev, self.ALPHA_FAIL, prob) == expected

    def test_near_collinear_sweep_raises_exactly_when_thin_qr_does(self):
        """alpha = (a, a + delta) with delta spaced across the thin_qr rank
        threshold; one group of lengths 12, 12 and 15, padded to 15."""
        t1, t2 = np.linspace(0.0, 3.0, 12), np.linspace(0.0, 4.0, 15)
        datasets = tuple(Dataset(t=t, y=np.exp(-0.5 * t)) for t in (t1, t1, t2))
        prob = MultiProblem(datasets=datasets, model=ExpDecayModel(n_terms=2))
        assert [g.index for g in prob.groups] == [(0, 1, 2)]
        outcomes = set()
        for delta in np.logspace(-14, -5, 46):
            alpha = np.array([0.7, 0.7 + delta])
            expected = raised(reference_eval, alpha, prob, "gl")
            outcomes.add(expected is None)
            for ev in (eval_gl, eval_km):
                assert raised(ev, alpha, prob) == expected, delta
        assert outcomes == {True, False}


def ragged_exp_problem(bad=()):
    """Exp datasets of 12, 15 and 16 points, one length bucket, so one group
    padded to 16 rows.  The datasets in ``bad`` sit on a grid 1e-11 wide,
    where the two exponentials are numerically parallel."""
    datasets = []
    for k, (m, hi) in enumerate(((12, 3.0), (15, 4.0), (16, 3.5))):
        t = np.linspace(1.0, 1.0 + 1e-11, m) if k in bad else np.linspace(0.0, hi, m)
        datasets.append(Dataset(t=t, y=np.exp(-0.5 * t) + 0.01 * np.cos(3.0 * t)))
    return MultiProblem(datasets=tuple(datasets), model=ExpDecayModel(n_terms=2))


def shifted_beer_problem(rng, taus=None):
    """Beer datasets of one length, each on its own grid (lo and hi shifted
    per dataset) with its own nonzero slit width of one tap count: one
    group, with per-dataset powers of nu and Toeplitz blocks."""
    datasets = []
    for k in range(3):
        t = np.linspace(6180.0 + 0.37 * k, 6280.0 + 0.41 * k, 40)
        tau = smooth_tau(t, rng) if taus is None else taus[k](t)
        datasets.append(beer_dataset(t, tau, halfwidth=6.0 + 0.1 * k))
    return MultiProblem(datasets=tuple(datasets), model=BeerLawModel(n_linear=3, p_species=2))


class SignedNoiseModel(ExpDecayModel):
    """The exp model's group layout with a basis stack of signed noise, so
    that the entries the factor step masks out take both signs."""

    def eval_group(self, alpha, group):
        ge = super().eval_group(alpha, group)
        ge.phi[...] = np.random.default_rng(5).normal(size=ge.phi.shape)
        return ge


class TestShapeGroups:
    """Datasets are grouped by shape, not by grid: ragged exp lengths of one
    bucket are padded with zero rows, and Beer datasets of one length keep
    their own grids and slit kernels."""

    ALPHA_EXP = np.array([1.1, 0.3])
    ALPHA_BEER = np.array([1.1, 0.9])

    def problems(self, rng):
        return ((ragged_exp_problem(), self.ALPHA_EXP),
                (shifted_beer_problem(rng), self.ALPHA_BEER))

    def test_one_group_each(self, rng):
        (exp_prob, _), (beer_prob, _) = self.problems(rng)
        for prob in (exp_prob, beer_prob):
            assert [g.index for g in prob.groups] == [(0, 1, 2)]
        [group] = exp_prob.groups
        assert group.y.shape == (3, 16)
        assert np.all(group.y[0, 12:] == 0.0) and np.all(group.y[1, 15:] == 0.0)
        # distinct grids and kernels are stacked, not one broadcast row
        beer = beer_prob.groups[0].inputs
        assert beer.powers.strides[0] != 0 and beer.slit.t0.strides[0] != 0

    @pytest.mark.parametrize("form", ["gl", "km"])
    def test_gl_km_match_per_dataset_reference(self, form, rng):
        ev = eval_gl if form == "gl" else eval_km
        for prob, alpha in self.problems(rng):
            assert_matches_reference(ev, alpha, prob, form)

    @pytest.mark.parametrize(
        "ev",
        [eval_gl, eval_km],
        ids=["eval_gl", "eval_km"],
    )
    def test_blocks_and_phis_are_each_datasets_own(self, ev, rng):
        for prob, alpha in self.problems(rng):
            red = ev(alpha, prob)
            starts = prob.block_starts
            assert starts == (0, *np.cumsum([ds.m for ds in prob.datasets]))
            assert red.z.shape == (starts[-1],)
            assert red.jac.shape == (starts[-1], prob.p)
            assert red.betas.shape == (prob.s, prob.n)
            for ds, phi in zip(prob.datasets, red.phis):
                assert phi.shape == (ds.m, prob.n)
                assert np.array_equal(phi, prob.model.eval(alpha, ds).phi)

    def test_factor_step_matches_literal_forms(self, rng):
        """Each dataset's slice of the factor step's Q1^T and R is
        np.linalg.qr of that slice alone, bit for bit, its R^-1 the inverse
        of that R and its Gram R^T R, on padded exp, shifted Beer, two-group
        frame and signed-noise bases (noise in the padded rows too).  A
        model's zero-padded slice factors as the dataset's own rows do:
        the same Q1 rows and R, and zero rows past them."""
        noise = MultiProblem(ragged_exp_problem().datasets, SignedNoiseModel(n_terms=3))
        cases = (*self.problems(rng), (frame_problem(soundings=2), self.ALPHA_BEER),
                 (noise, np.array([1.0, 0.5, 0.2])))
        for prob, alpha in cases:
            for group in prob.groups:
                f = _factor_group(alpha, prob, group)
                for i, ds in enumerate(group.datasets):
                    q1, r = np.linalg.qr(f.ge.phi[i].T)
                    assert f.q1t[i].tobytes() == q1.T.tobytes()
                    assert f.r_inv[i].tobytes() == np.linalg.inv(r).tobytes()
                    assert f.d[i].tobytes() == (r.T @ r).tobytes()
                    if prob is not noise:
                        own_q1, own_r = np.linalg.qr(f.ge.phi[i, :, : ds.m].T)
                        assert q1[: ds.m].tobytes() == own_q1.tobytes()
                        assert r.tobytes() == own_r.tobytes()
                        assert np.all(q1[ds.m :] == 0.0)

    @pytest.mark.parametrize("form", ["gl", "km"])
    def test_padded_rows_are_zero(self, form):
        """The form step's rows past each dataset's length are exact zeros,
        in the stacked basis and its derivatives, the residual and the
        Jacobian blocks."""
        prob = ragged_exp_problem()
        [group] = prob.groups
        f = _factor_group(self.ALPHA_EXP, prob, group)
        z, jac, *_ = _form_group(group, f, form)
        for i, ds in enumerate(group.datasets):
            assert np.all(f.ge.phi[i, :, ds.m:] == 0.0)
            assert np.all(f.ge.dphi[i, :, :, ds.m:] == 0.0)
            assert np.all(z[i, ds.m:] == 0.0) and np.all(jac[i, :, ds.m:] == 0.0)

    def test_beer_grouping_does_not_change_results(self, rng):
        """Each Beer dataset's blocks are the same in the shifted-grid group
        as alone, bit for bit: every product keeps the dataset's shape."""
        prob = shifted_beer_problem(rng)
        for ev in (eval_gl, eval_km):
            assert_blocks_as_alone(ev, self.ALPHA_BEER, prob)

    @pytest.mark.parametrize("bad, expected", [
        ((1,), (RankDeficiencyError, 1, 1, None)),
        ((2,), (RankDeficiencyError, 1, 2, None)),
        ((1, 2), (RankDeficiencyError, 1, 1, None)),
    ])
    def test_rank_deficient_exp_dataset_in_padded_group(self, bad, expected):
        prob = ragged_exp_problem(bad)
        assert [g.index for g in prob.groups] == [(0, 1, 2)]
        assert raised(reference_eval, self.ALPHA_EXP, prob, "gl") == expected
        for ev in (eval_gl, eval_km):
            assert raised(ev, self.ALPHA_EXP, prob) == expected

    @pytest.mark.parametrize("order", ["rank-first", "overflow-first"])
    def test_first_failure_in_shifted_beer_group(self, order, rng):
        alpha = TestGroupedKernel.ALPHA_FAIL
        ok = lambda t: smooth_tau(t, rng)  # noqa: E731
        over = lambda t: overflow_tau(t, rng)  # noqa: E731
        if order == "rank-first":
            taus, expected = (ok, rank_two_tau, over), (RankDeficiencyError, 2, 1, None)
        else:
            taus, expected = (ok, over, rank_two_tau), (ModelOverflowError, None, None, 17)
        prob = shifted_beer_problem(rng, taus)
        assert [g.index for g in prob.groups] == [(0, 1, 2)]
        assert raised(reference_eval, alpha, prob, "gl") == expected
        for ev in (eval_gl, eval_km):
            assert raised(ev, alpha, prob) == expected


class TestNonFiniteProducts:
    """A derivative product that is not finite raises the typed
    InvalidInputError of a non-finite basis evaluation, whether or not the
    dense derivatives would have been finite."""

    @staticmethod
    def problem(halfwidth):
        # tau_2 near 1e308 is harmless under alpha_2 = 0, so the basis is
        # finite; the observations near 10 make beta large enough that
        # -tau_2 * b * V beta overflows
        t = np.linspace(6180.0, 6280.0, 40)
        tau = np.column_stack([np.exp(-0.5 * ((t - 6230.0) / 8.0) ** 2), np.full(40, 1e308)])
        aux = BeerAux(mu_sun=0.8, i0=1.0 + 0.1 * np.sin(t / 30.0), tau=tau,
                      slit_halfwidth=halfwidth)
        ds = Dataset(t=t, y=10.0 + 0.01 * np.cos(t), aux=aux)
        return MultiProblem(datasets=(ds, ds), model=BeerLawModel(n_linear=3, p_species=2))

    @pytest.mark.parametrize("halfwidth", [0.0, 1.0])
    def test_eval_and_fit_raise_the_typed_error(self, halfwidth):
        prob = self.problem(halfwidth)
        alpha = np.array([1.0, 0.0])
        be = prob.model.eval(alpha, prob.datasets[0])
        assert np.isfinite(be.phi).all()
        message = "basis evaluation produced non-finite entries"
        for ev in (eval_gl, eval_km):
            with pytest.raises(InvalidInputError, match=message):
                ev(alpha, prob)
        for method in ("vp-gl", "vp-km"):
            with pytest.raises(InvalidInputError, match=message):
                sv.fit(prob, sv.SolverConfig(method=method), alpha)


def delta_beer_problem(rng):
    """Two Beer datasets on one grid with a delta slit: no convolution."""
    t = np.linspace(6180.0, 6280.0, 40)
    datasets = tuple(beer_dataset(t, smooth_tau(t, rng), halfwidth=0.0) for _ in range(2))
    return MultiProblem(datasets=datasets, model=BeerLawModel(n_linear=3, p_species=2))


def literal_block_diag(prob, alpha):
    """The dense block-diagonal basis and its derivatives, zero-filled and
    built dataset by dataset from model.eval."""
    n = prob.n
    big = np.zeros((prob.m_total, prob.s * n))
    dbig = [np.zeros_like(big) for _ in range(prob.p)]
    row = 0
    for k, ds in enumerate(prob.datasets):
        be = prob.model.eval(alpha, ds)
        rows, cols = slice(row, row + ds.m), slice(k * n, (k + 1) * n)
        big[rows, cols] = be.phi
        for l, d in enumerate(be.dphi):
            dbig[l][rows, cols] = d
        row += ds.m
    return big, dbig


class TestDatasetBases:
    """dataset_bases evaluates the model once per group and hands each
    dataset its basis as model.eval of that dataset gives it."""

    def problems(self, rng):
        beer_alpha = np.array([1.1, 0.9])
        return (
            (frame_problem(soundings=2), beer_alpha),
            (shifted_beer_problem(rng), beer_alpha),
            (delta_beer_problem(rng), beer_alpha),
            (interleaved_exp_problem(), np.array([1.1, 0.3])),
        )

    def test_layouts(self, rng):
        """Two interleaved Beer groups, a shifted-grid Beer group, an
        unconvolved group and two interleaved padded exp buckets."""
        frame, shifted, delta, exp = (prob for prob, _ in self.problems(rng))
        assert [g.index for g in frame.groups] == [(0, 2), (1, 3)]
        assert [g.index for g in shifted.groups] == [(0, 1, 2)]
        assert [g.index for g in delta.groups] == [(0, 1)]
        assert delta.groups[0].inputs.slit is None
        assert [g.index for g in exp.groups] == [(0, 2), (1, 3)]
        assert all(g.inputs.valid is not None for g in exp.groups)

    def test_bases_are_model_eval_bit_for_bit(self, rng):
        for prob, alpha in self.problems(rng):
            bases = dataset_bases(alpha, prob)
            assert len(bases) == prob.s
            for ds, be in zip(prob.datasets, bases):
                ref = prob.model.eval(alpha, ds)
                assert len(be.dphi) == prob.p
                for got, want in zip((be.phi, *be.dphi), (ref.phi, *ref.dphi)):
                    assert got.shape == (ds.m, prob.n) and got.flags.c_contiguous
                    assert np.array_equal(got, want)
            for a, b in itertools.combinations(bases, 2):
                assert not np.shares_memory(a.phi, b.phi)

    def test_block_diag_is_the_literal_per_dataset_one(self, rng):
        for prob, alpha in self.problems(rng):
            big, dbig, bases = build_block_diag(prob, alpha)
            ref_big, ref_dbig = literal_block_diag(prob, alpha)
            assert np.array_equal(big, ref_big)
            assert len(dbig) == prob.p
            for got, want in zip(dbig, ref_dbig):
                assert np.array_equal(got, want)
            for got, want in zip(bases, dataset_bases(alpha, prob)):
                assert np.array_equal(got.phi, want.phi)

    def test_first_failure_in_problem_order_across_groups(self, rng):
        """Datasets 2 and 3 overflow at different grid points; dataset 3's
        group is evaluated first, yet dataset 2's error is raised, as
        model.eval dataset by dataset raises it."""
        ta = np.linspace(6180.0, 6280.0, 40)
        tb = np.linspace(4950.0, 5050.0, 50)
        datasets = (
            beer_dataset(ta, smooth_tau(ta, rng)),
            beer_dataset(tb, smooth_tau(tb, rng)),
            beer_dataset(tb, overflow_tau(tb, rng, index=9)),
            beer_dataset(ta, overflow_tau(ta, rng, index=17)),
        )
        prob = MultiProblem(datasets=datasets, model=BeerLawModel(n_linear=3, p_species=2))
        assert [g.index for g in prob.groups] == [(0, 3), (1, 2)]
        alpha = TestGroupedKernel.ALPHA_FAIL
        expected = (ModelOverflowError, None, None, 9)
        assert raised(lambda: [prob.model.eval(alpha, ds) for ds in datasets]) == expected
        assert raised(dataset_bases, alpha, prob) == expected
        assert raised(build_block_diag, prob, alpha) == expected


class TestMultiProblem:
    def test_too_small_dataset_rejected(self):
        model = ExpDecayModel(n_terms=2)
        ds = Dataset(t=[0.0, 1.0], y=[1.0, 2.0])  # m == n
        with pytest.raises(InvalidInputError):
            MultiProblem(datasets=(ds,), model=model)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            MultiProblem(datasets=(), model=ExpDecayModel(n_terms=1))


class TestEvalGL:
    def test_single_rhs_is_classic_vp(self, rng):
        prob, _ = make_exp_problem(rng, s=1)
        alpha = rng.uniform(0.3, 1.0, 2)
        red = eval_gl(alpha, prob)
        ds = prob.datasets[0]
        be = prob.model.eval(alpha, ds)
        f = sv.thin_qr(be.phi)
        npt.assert_allclose(red.z, sv.proj_perp_apply(f, ds.y), atol=1e-14)

    def test_consistent_data_zero_residual(self, rng):
        prob, alpha = consistent_problem(rng, s=3)
        red = eval_gl(alpha, prob)
        assert np.linalg.norm(red.z) <= 1e-10 * max(
            np.linalg.norm(ds.y) for ds in prob.datasets
        )

    def test_jacobian_matches_finite_differences(self, rng):
        grids = (sv.GridSpec(10, 0.0, 3.0), sv.GridSpec(12, 0.0, 2.5), sv.GridSpec(15, 0.0, 3.5))
        beta = tuple(rng.uniform(0.5, 1.5, 2) for _ in grids)
        spec = sv.TruthSpec(kind="exp", alpha_true=[1.0, 0.3], beta_true=beta,
                            grids=grids, snr=50.0, seed=17)
        prob = sv.generate(spec)
        alpha = rng.uniform(0.3, 1.2, 2)
        red = eval_gl(alpha, prob)
        fd = central_diff_jacobian(lambda a: eval_gl(a, prob).z, alpha)
        for l in range(prob.p):
            err = np.linalg.norm(red.jac[:, l] - fd[:, l])
            assert err <= 1e-6 * max(np.linalg.norm(fd[:, l]), 1e-10)

    def test_rank_deficiency_tagged_with_dataset(self, rng):
        prob, _ = make_exp_problem(rng, s=3)
        # equal decay rates collapse the two basis columns in every dataset
        with pytest.raises(RankDeficiencyError) as exc:
            eval_gl(np.array([0.5, 0.5]), prob)
        assert exc.value.dataset == 0

    @pytest.mark.parametrize("evaluate", [eval_gl, eval_km])
    def test_underflowed_basis_column_is_rank_one(self, evaluate):
        """At rate 800 on t in [1, 3] the second basis column underflows to
        exact zeros, so R has a zero on its diagonal and no inverse; the
        pivoted rank decision then names dataset 0 and rank 1."""
        t = np.linspace(1.0, 3.0, 30)
        prob = MultiProblem(datasets=(Dataset(t=t, y=np.exp(-0.5 * t)),),
                            model=ExpDecayModel(n_terms=2))
        with pytest.raises(RankDeficiencyError) as exc:
            evaluate(np.array([0.5, 800.0]), prob)
        assert (exc.value.dataset, exc.value.rank) == (0, 1)


class TestEvalKM:
    def test_norm_matches_gl(self, rng):
        prob, _ = make_exp_problem(rng, s=3)
        for _ in range(10):
            alpha = rng.uniform(0.2, 1.5, 2)
            npt.assert_allclose(
                np.linalg.norm(eval_km(alpha, prob).z),
                np.linalg.norm(eval_gl(alpha, prob).z),
                rtol=1e-12,
            )

    def test_consistent_data_zero(self, rng):
        prob, alpha = consistent_problem(rng, s=2)
        red = eval_km(alpha, prob)
        assert np.linalg.norm(red.z) <= 1e-10 * max(
            np.linalg.norm(ds.y) for ds in prob.datasets
        )

    def test_residual_has_one_row_per_grid_point(self, rng):
        """The km residual is the GL one, P_perp y, one row per grid point."""
        prob, _ = make_exp_problem(rng, s=3)
        alpha = np.array([0.8, 0.4])
        z = eval_km(alpha, prob).z
        assert z.size == prob.m_total == sum(prob.block_sizes)
        ref = [sv.proj_perp_apply(sv.thin_qr(prob.model.eval(alpha, ds).phi), ds.y)
               for ds in prob.datasets]
        npt.assert_allclose(z, np.concatenate(ref), rtol=0, atol=1e-14 * np.linalg.norm(z))

    def test_one_term_jacobian_gives_exact_cost_gradient(self, rng):
        """The one-term Jacobian drops a piece of dz, yet jac^T z must still
        equal the exact gradient of half the squared norm -- checked against
        finite differences of the (gauge-invariant) cost itself."""
        prob, _ = make_exp_problem(rng, s=3)

        def cost(a):
            return np.array([0.5 * np.linalg.norm(eval_km(a, prob).z) ** 2])

        for _ in range(5):
            alpha = rng.uniform(0.3, 1.2, 2)
            red = eval_km(alpha, prob)
            grad = red.jac.T @ red.z
            fd = central_diff_jacobian(cost, alpha).ravel()
            npt.assert_allclose(grad, fd, rtol=1e-5, atol=1e-10)


    @pytest.mark.parametrize("kind", ["exp", "interleaved", "frame"])
    def test_evaluation_holds_only_its_own_arrays(self, kind, rng):
        """An eval_km evaluation, like an eval_gl one, holds its blocks,
        betas, products and Grams and the basis stacks its phis view, and
        no more than a few hundred bytes of Python records per dataset
        besides: no Q1^T, R^-1, products dphi_l beta or GroupEval of its
        factor and form steps, which on the interleaved and frame layouts
        alone would exceed that."""
        if kind == "exp":
            prob, _ = make_exp_problem(rng, s=3, snr=50.0, seed=51)
            alpha = np.array([1.0, 0.3])
        elif kind == "interleaved":
            prob, alpha = interleaved_exp_problem(), np.array([1.0, 0.3])
        else:
            prob, alpha = frame_problem(soundings=2), np.array([1.1, 0.9])
        eval_km(alpha, prob)  # a first evaluation builds the problem's groups
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            km = eval_km(alpha, prob)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        stacks = {id(phi.base): phi.base for phi in km.phis}
        arrays = [km.z, km.jac, km.d, km.v, *km.betas, *stacks.values()]
        own = sum(x.nbytes for x in arrays)
        assert len(stacks) == len(prob.groups)
        # the records, tuples and array headers: 610 to 620 bytes per dataset
        assert own <= held <= own + 2048 + 1024 * prob.s

    @pytest.mark.parametrize("kind", ["exp-padded", "interleaved", "frame"])
    def test_km_products_are_eval_gl_products(self, kind):
        """The two forms share one form step and differ only in the
        Jacobian's second term, so eval_km's products v = dphi_l^T z are
        eval_gl's bit for bit, and so are its residual z, its linear
        parameters and its Grams; its block layout is eval_gl's."""
        if kind == "exp-padded":
            prob, alpha = ragged_exp_problem(), TestShapeGroups.ALPHA_EXP
        elif kind == "interleaved":
            prob, alpha = interleaved_exp_problem(), np.array([1.0, 0.3])
        else:
            prob, alpha = frame_problem(soundings=2), np.array([1.1, 0.9])
        gl, km = eval_gl(alpha, prob), eval_km(alpha, prob)
        assert (gl.form, km.form) == ("gl", "km")
        assert km.z.shape == gl.z.shape == (prob.block_starts[-1],)
        assert km.betas.shape == gl.betas.shape == (prob.s, prob.n)
        for name in ("z", "betas", "v", "d"):
            assert getattr(km, name).tobytes() == getattr(gl, name).tobytes(), name
        assert not np.array_equal(km.jac, gl.jac)


class TestEvalNaive:
    def test_matches_gl_blockwise(self, rng):
        prob, _ = make_exp_problem(rng, s=2)
        alpha = np.array([0.7, 0.25])
        gl = eval_gl(alpha, prob)
        nv = eval_naive(alpha, prob)
        npt.assert_allclose(nv.z, gl.z, atol=1e-12 * np.linalg.norm(gl.z))

    def test_block_pinv_reproduces_per_dataset_betas(self, rng):
        prob, _ = make_exp_problem(rng, s=3)
        alpha = np.array([0.9, 0.3])
        gl = eval_gl(alpha, prob)
        nv = eval_naive(alpha, prob)
        for a, b in zip(gl.betas, nv.betas):
            npt.assert_allclose(a, b, rtol=1e-10)

    def test_jacobian_matches_finite_differences(self, rng):
        grids = (sv.GridSpec(8, 0.0, 3.0), sv.GridSpec(9, 0.0, 2.0))
        beta = tuple(rng.uniform(0.5, 1.5, 2) for _ in grids)
        spec = sv.TruthSpec(kind="exp", alpha_true=[1.0, 0.3], beta_true=beta,
                            grids=grids, snr=30.0, seed=23)
        prob = sv.generate(spec)
        alpha = rng.uniform(0.3, 1.2, 2)
        red = eval_naive(alpha, prob)
        fd = central_diff_jacobian(lambda a: eval_naive(a, prob).z, alpha)
        for l in range(prob.p):
            err = np.linalg.norm(red.jac[:, l] - fd[:, l])
            assert err <= 1e-6 * max(np.linalg.norm(fd[:, l]), 1e-10)

    def test_element_budget_guard(self, rng, monkeypatch):
        prob, _ = make_exp_problem(rng, s=3)
        monkeypatch.setattr(vpcore, "ELEMENT_BUDGET", 10)
        with pytest.raises(ProblemTooLargeError):
            eval_naive(np.array([1.0, 0.4]), prob)

    def test_block_diag_structure(self, rng):
        prob, _ = make_exp_problem(rng, s=3)
        alpha = np.array([0.8, 0.35])
        G, _, _ = build_block_diag(prob, alpha=alpha)
        assert G.shape == (prob.m_total, prob.s * prob.n)
        row = 0
        for k, ds in enumerate(prob.datasets):
            m = ds.t.size
            phi = prob.model.eval(alpha, ds).phi
            block = G[row:row + m]
            npt.assert_allclose(block[:, k * prob.n:(k + 1) * prob.n], phi, rtol=1e-14)
            mask = np.ones(prob.s * prob.n, bool)
            mask[k * prob.n:(k + 1) * prob.n] = False
            npt.assert_allclose(block[:, mask], 0.0, atol=0.0)
            row += m


ALPHA_ENTRY_POINTS = {
    "eval": lambda a, prob: prob.model.eval(a, prob.datasets[0]),
    "eval_group": lambda a, prob: prob.model.eval_group(a, prob.groups[0].inputs),
    "eval_gl": eval_gl,
    "eval_km": eval_km,
    "eval_naive": eval_naive,
}


class TestAlphaCheck:
    """One check refuses a bad alpha on every way into a model: its length
    first, then that it is finite."""

    @pytest.mark.parametrize("alpha, message", [
        ([1.0], "alpha must have length 2, got (1,)"),
        ([np.nan], "alpha must have length 2, got (1,)"),
        ([1.0, 0.4, 0.2], "alpha must have length 2, got (3,)"),
        ([1.0, np.nan], "alpha must be a finite vector"),
        ([np.inf, 0.4], "alpha must be a finite vector"),
    ])
    @pytest.mark.parametrize("entry", sorted(ALPHA_ENTRY_POINTS))
    @pytest.mark.parametrize("kind", ["exp", "beer"])
    def test_bad_alpha_is_refused(self, kind, entry, alpha, message, rng):
        prob = make_exp_problem(rng, s=2)[0] if kind == "exp" else frame_problem(soundings=1)
        with pytest.raises(InvalidInputError) as exc:
            ALPHA_ENTRY_POINTS[entry](np.array(alpha), prob)
        assert str(exc.value) == message


class TestCrossFormulation:
    def test_norm_equivalence_many_trials(self, rng):
        prob, _ = make_exp_problem(rng, s=2, m_range=(5, 10))
        for _ in range(1000):
            alpha = rng.uniform(0.15, 1.6, 2)
            n_gl = np.linalg.norm(eval_gl(alpha, prob).z)
            n_km = np.linalg.norm(eval_km(alpha, prob).z)
            n_nv = np.linalg.norm(eval_naive(alpha, prob).z)
            npt.assert_allclose(n_km, n_gl, rtol=1e-12, atol=1e-14)
            # the dense rewrite factors a much larger matrix, so allow a
            # little more roundoff
            npt.assert_allclose(n_nv, n_gl, rtol=1e-10, atol=1e-14)

    def test_km_gradient_matches_gl(self, rng):
        prob, _ = make_exp_problem(rng, s=3)
        for _ in range(20):
            alpha = rng.uniform(0.2, 1.5, 2)
            gl = eval_gl(alpha, prob)
            km = eval_km(alpha, prob)
            g_gl = gl.jac.T @ gl.z
            g_km = km.jac.T @ km.z
            npt.assert_allclose(g_km, g_gl, rtol=1e-10, atol=1e-14)

    def test_jacobian_block_locality(self, rng):
        exp_prob, _ = make_exp_problem(rng, s=3)
        # the second input batches dataset 1 with datasets 3, 5 and 7
        inputs = ((exp_prob, np.array([0.8, 0.3])), (frame_problem(), np.array([1.1, 0.9])))
        for prob, alpha in inputs:
            base = eval_gl(alpha, prob)
            # perturb dataset 1's observations; every other block must be bitwise equal
            datasets = list(prob.datasets)
            ds = datasets[1]
            datasets[1] = Dataset(t=ds.t, y=ds.y + 0.5, aux=ds.aux, id=ds.id)
            pert = eval_gl(alpha, MultiProblem(datasets=tuple(datasets), model=prob.model))
            bounds = prob.block_starts
            for k in range(prob.s):
                if k == 1:
                    continue
                sel = slice(bounds[k], bounds[k + 1])
                assert np.array_equal(base.jac[sel], pert.jac[sel])
                assert np.array_equal(base.z[sel], pert.z[sel])

    def test_ap13_derivative_identity(self):
        """d(Q2^T) Phi == -Q2^T dPhi, finite-differencing an explicitly formed
        trailing factor on a fixed 5x2 instance."""
        rng = np.random.default_rng(7)
        m, n = 5, 2
        t = np.sort(rng.uniform(0.1, 2.5, m))
        model = ExpDecayModel(n_terms=n)
        ds = Dataset(t=t, y=np.zeros(m))
        alpha = np.array([0.8, 0.3])

        def q2_of(a):
            phi = model.eval(a, ds).phi
            q, _ = sl.qr(phi)  # deterministic full Householder QR
            return q[:, n:]

        be = model.eval(alpha, ds)
        h = 1e-7
        for l in range(n):
            ap, am = alpha.copy(), alpha.copy()
            ap[l] += h
            am[l] -= h
            dq2t = (q2_of(ap).T - q2_of(am).T) / (2 * h)
            lhs = dq2t @ be.phi
            rhs = -q2_of(alpha).T @ be.dphi[l]
            npt.assert_allclose(lhs, rhs, atol=1e-6)
