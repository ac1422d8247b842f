"""Separable model interface and the two built-in models.

A separable model maps a nonlinear parameter vector and one dataset to the
basis matrix (one column per linear parameter) together with its partial
derivatives with respect to each nonlinear parameter.  Two models ship with
the package: a multi-exponential decay test model and a Beer-law absorption
model (polynomial surface reflectivity times solar spectrum times molecular
transmission, convolved with a Gaussian instrument response).

Each model class holds its group kernel as three methods: ``group_key``
says which datasets may share a group (what the batched arithmetic needs,
not the grid), ``prepare_group`` builds what an evaluation of a group reads
that does not depend on alpha, once per group, and ``eval_group(alpha,
group)`` checks alpha (its length, then that it is finite) and returns a
:class:`GroupEval`: the bases, computed with the grid axis last, and the
model's one derivative kernel, which forms the derivatives only as
products (Kaufman 1975; O'Leary & Rust 2013): ``products(betas, zs)``
gives dphi_l beta of k vectors and dphi_l^T z of q rows per dataset
together.  The form step reads one of each; the dense derivatives of
``eval`` and the reference paths are the products with the n unit
vectors and no row.
:class:`ExpDecayModel` keys a dataset by the power-of-two bucket of its
length, and its :class:`ExpGroup` holds the abscissae padded with zero rows
to the group's longest dataset; its products are closed forms.
:class:`BeerLawModel` keys a dataset by its length and its slit's tap
count; each dataset keeps its own grid, auxiliaries and slit kernel, and
its :class:`BeerGroup` holds each dataset's powers of nu, -tau and
mu_sun * I0, and its slit Toeplitz blocks with the buffer of the chunked
convolution; an evaluation forms the exponents -tau alpha of the whole
group from the -tau stack by one batched product.
Per-dataset inputs that are the same bit for bit in every dataset of a
group are one broadcast view, so a group on one grid stores them once.  The
Beer law writes the rows of CHUNK datasets at a time straight into the
group's buffer, fills the reflected tails by slice copies and convolves the
chunk by two stacked matrix products, which BLAS carries out one dataset at
a time with that dataset's own Toeplitz blocks (:func:`convolve_reflect`
shares this kernel).  An evaluation convolves the n rows of the bases,
and ``products`` the p rows of dphi_l beta of each vector and the rows of
z in one call (the reflect-padded convolution is symmetric, so K^T z is
K z).
Each thread reuses a buffer of its own, so one group's inputs serve several
threads at once.  The bases, the products and the dense derivatives are
fresh arrays on every call, and ``eval`` of one dataset is the one-dataset
group, so it matches that dataset's slice of any group bit for bit.
"""

import math
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .exceptions import InvalidInputError, ModelOverflowError, ProblemTooLargeError
from .inputs import NONNEGATIVE_FINITE, Rule, read_fields, ruled

EXP_OVERFLOW_LIMIT = 700.0  # exp() overflows double precision just above this
# Datasets reflected and convolved together in one padded buffer, which
# then does not grow with the group (about 0.25 MB on the frame grids for
# the three rows of a basis).  One s = 64 frame fit plus diagnostics, median
# of 40 interleaved rounds with OpenBLAS on one thread: vp-gl 29.5 ms and
# vp-km 29.8 ms with chunks of 4, 28.7 and 27.2 ms with 12; 8 and 16 were
# slower than 12.
CHUNK = 12
# The most taps a slit kernel may have on either side of its centre.  The
# two Toeplitz blocks of the slit convolution hold 8 h^2 elements for h of
# them, 67 MB at this limit, and the frame grids' slit has 32.
MAX_HALF_TAPS = 1024
MU_SUN = Rule(float, "in (0, 1]", lambda v: 0.0 < v <= 1.0)


@dataclass(frozen=True)
class BeerAux:
    """Auxiliary inputs of the Beer-law model for one dataset.

    mu_sun: geometry factor (cosine of the solar zenith angle), in (0, 1].
    i0: solar-spectrum samples on the dataset grid, all positive.
    tau: prior optical-depth profiles, one column per species, entries >= 0.
    slit_halfwidth: Gaussian instrument-response half-width in grid units
        (0 means a delta response, i.e. no convolution).
    """

    mu_sun: float = ruled(MU_SUN)
    i0: np.ndarray
    tau: np.ndarray
    slit_halfwidth: float = ruled(NONNEGATIVE_FINITE, default=0.0)

    def __post_init__(self):
        read_fields(self)
        object.__setattr__(self, "i0", np.asarray(self.i0, dtype=float))
        object.__setattr__(self, "tau", np.asarray(self.tau, dtype=float))
        if not (np.isfinite(self.i0).all() and np.isfinite(self.tau).all()):
            raise InvalidInputError("i0 and tau must be finite")
        if np.any(self.i0 <= 0.0):
            raise InvalidInputError("solar spectrum samples must all be positive")
        if self.tau.ndim != 2 or self.tau.shape[0] != self.i0.shape[0]:
            raise InvalidInputError("tau must be an m x p matrix matching i0")
        if np.any(self.tau < 0.0):
            raise InvalidInputError("optical depths must be nonnegative")


@dataclass(frozen=True)
class Dataset:
    """One right-hand side: abscissa grid, observations and model auxiliaries."""

    t: np.ndarray
    y: np.ndarray
    aux: Optional[object] = None
    id: str = ""

    def __post_init__(self):
        object.__setattr__(self, "t", np.asarray(self.t, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.t.ndim != 1 or self.y.ndim != 1:
            raise InvalidInputError("t and y must be one-dimensional")
        if self.t.shape != self.y.shape or self.t.size < 1:
            raise InvalidInputError(
                f"t and y must share a positive length, got {self.t.size} and {self.y.size}"
            )
        if not (np.isfinite(self.t).all() and np.isfinite(self.y).all()):
            raise InvalidInputError("t and y must be finite")
        if np.any(np.diff(self.t) <= 0.0):
            raise InvalidInputError("abscissa grid must be strictly increasing")

    @property
    def m(self):
        return self.t.size


@dataclass(frozen=True)
class BasisEval:
    """Basis matrix and its partial derivatives for one dataset.

    phi has shape m x n; dphi holds one m x n matrix per nonlinear parameter.
    """

    phi: np.ndarray
    dphi: tuple

    def __post_init__(self):
        object.__setattr__(self, "phi", np.asarray(self.phi, dtype=float))
        object.__setattr__(self, "dphi", tuple(np.asarray(d, dtype=float) for d in self.dphi))
        for d in self.dphi:
            if d.shape != self.phi.shape:
                raise InvalidInputError("dphi blocks must match phi's shape")
        if not np.all(np.isfinite(self.phi)) or any(
            not np.all(np.isfinite(d)) for d in self.dphi
        ):
            raise InvalidInputError("basis evaluation produced non-finite entries")


@dataclass(frozen=True, eq=False)
class GroupEval:
    """Bases of the datasets of one group, grid axis last, with the kernels
    of their derivative products.

    ``phi`` has shape g x n x m, m the length of the group's longest
    dataset, and every model and slit stores each dataset's n x m block
    C-contiguous: for dataset i of the group, of length m_i, the view
    phi[i, :, :m_i].T is its basis matrix.  Entries past m_i are zero.

    The derivatives are read only through products, which is all that the
    reduced path needs (Kaufman 1975; O'Leary & Rust 2013): each model
    gives one kernel, ``products``, of dphi_l beta and dphi_l^T z; ``dphi``,
    the dense g x p x n x m stack, is its products with the n unit vectors.
    """

    phi: np.ndarray

    def products(self, betas, zs):
        """(dphi_l betas[i, j], dphi_l^T zs[i, j]) of each dataset i, from
        one call: g x k x p x m and g x q x p x n, for k vectors betas
        (g x k x n) and q rows zs (g x q x m) per dataset."""
        raise NotImplementedError

    @cached_property
    def dphi(self):
        """The dense derivatives, g x p x n x m: dphi[i, l, j] is column j
        of dataset i's derivative in alpha_l, its product with the unit
        vector e_j.  The reduced path never reads it."""
        g, n, m = self.phi.shape
        units = np.broadcast_to(np.eye(n), (g, n, n))
        return self.products(units, np.empty((g, 0, m)))[0].transpose(0, 2, 1, 3)

    def basis(self, i, m=None):
        """The BasisEval of the group's i-th dataset, of length ``m`` (by
        default the group's length, as for the only dataset of a one-dataset
        group), copied out in row-major m x n layout: products with it round
        as they did before grouping."""
        phi = np.ascontiguousarray(self.phi[i, :, :m].T)
        dphi = np.ascontiguousarray(self.dphi[i, :, :, :m].transpose(0, 2, 1))
        return BasisEval(phi=phi, dphi=tuple(dphi))


def _per_dataset(sources, build):
    """build(x) for each 1-d array x of ``sources``, stacked on a new first
    axis.  When every source is the same bit for bit, the stack is one
    view of build(sources[0]), so datasets on one grid (or with one slit
    kernel) share it and a one-dataset group copies nothing."""
    one = build(sources[0])
    head = sources[0].tobytes()
    if all(x.tobytes() == head for x in sources[1:]):
        return np.broadcast_to(one, (len(sources),) + one.shape)
    return np.stack([one] + [build(x) for x in sources[1:]])


def normalize_abscissa(t):
    """Affine map of a strictly increasing grid onto [-1, 1]."""
    t = np.asarray(t, dtype=float)
    lo, hi = t[0], t[-1]
    if hi == lo:
        raise InvalidInputError("cannot normalize a constant grid")
    return 2.0 * (t - lo) / (hi - lo) - 1.0


def _checked_alpha(alpha, p):
    """alpha as a float vector of length p, all of it finite."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (p,):
        raise InvalidInputError(f"alpha must have length {p}, got {alpha.shape}")
    if not np.isfinite(alpha).all():
        raise InvalidInputError("alpha must be a finite vector")
    return alpha


@dataclass(frozen=True, eq=False)
class ExpGroup:
    """What ``ExpDecayModel.eval_group`` reads that does not depend on
    alpha, built by ``ExpDecayModel.prepare_group``: the negated abscissae
    of each dataset, zero-padded to the longest one, a 0/1 mask of the rows
    that hold data (None when no dataset is padded) and the least and
    greatest abscissa of the datasets, padding left out."""

    shape: tuple  # of the group's basis stack, g x n x m
    neg_t: np.ndarray  # g x m
    valid: Optional[np.ndarray]  # g x 1 x m
    t_range: tuple  # (least, greatest)


@dataclass(frozen=True, eq=False)
class ExpGroupEval(GroupEval):
    """An :class:`ExpGroup`'s bases, with the abscissae their derivatives
    read."""

    neg_t: np.ndarray  # g x m

    def products(self, betas, zs):
        """Closed forms: dphi_l is zero but for its row l, -t * phi_l, so
        dphi_l beta is beta_l (-t * phi_l), and dphi_l^T z is zero but for
        its entry l, (-t * phi_l) . z."""
        d = self.neg_t[:, None, :] * self.phi  # g x n x m, row l -t * phi_l
        g, q, n = *zs.shape[:2], d.shape[1]
        v = np.zeros((g, q, n, n))
        # one n x m matrix-vector product per row of zs, the shape of dphi_l z
        v.reshape(g, q, n * n)[:, :, :: n + 1] = (d[:, None] @ zs[..., None])[..., 0]
        # + 0.0 turns -0.0 into the +0.0 that the sum over the zero rows gave
        return betas[..., None] * d[:, None] + 0.0, v


def _half_taps(spacing, halfwidth):
    """Taps on either side of the centre of gaussian_kernel(spacing,
    halfwidth); 0 for the delta response.  More than MAX_HALF_TAPS raise
    ProblemTooLargeError before anything is built from them."""
    if halfwidth <= 0.0 or spacing <= 0.0:
        return 0
    half = 4.0 * halfwidth / spacing  # infinite for a huge halfwidth
    if not half < MAX_HALF_TAPS + 1:
        raise ProblemTooLargeError(
            f"'slit_halfwidth' {halfwidth:g} spans {half:.3g} grid steps on either side "
            f"of the slit's centre; at most {MAX_HALF_TAPS} fit the budget")
    return int(np.floor(half))


def _grid_spacing(t):
    return float(np.mean(np.diff(t)))


def gaussian_kernel(spacing, halfwidth):
    """Truncated Gaussian instrument response on a uniform grid.

    Support is +/- 4 half-widths; weights are renormalized to unit sum.  A
    nonpositive half-width (or one below the grid spacing scale) degenerates
    to a discrete delta.
    """
    nh = _half_taps(spacing, halfwidth)
    if nh < 1:
        return np.array([1.0])
    x = np.arange(-nh, nh + 1) * spacing
    w = np.exp(-0.5 * (x / halfwidth) ** 2)
    return w / w.sum()


def _reflect_tails(buf, h, m):
    """Fill the tails of rows whose samples sit at buf[..., h:h + m] by
    reflection about their edges (numpy's ``symmetric`` padding).  Two slice
    copies do it unless a tail is longer than the row, which happens only
    for a kernel wider than the grid and needs repeated reflection."""
    right = buf.shape[-1] - m - h
    if right > m:
        widths = [(0, 0)] * (buf.ndim - 1) + [(h, right)]
        buf[...] = np.pad(buf[..., h : h + m], widths, mode="symmetric")
        return
    buf[..., :h] = buf[..., 2 * h - 1 : h - 1 : -1]
    buf[..., h + m :] = buf[..., h + m - 1 : h + m - 1 - right : -1]


class SlitConvolution:
    """The chunk kernel of :func:`convolve_reflect`, built for one kernel per
    entry of the output's leading axis (all of one length): each entry's two
    Toeplitz blocks (one broadcast pair when every kernel is the same) and a
    scratch buffer in which entries are reflected and convolved CHUNK at a
    time.

    ``apply(fill, out)`` runs the kernel.  ``fill(rows, dest)`` writes the
    samples of the entries in slice ``rows`` into ``dest``, the buffer's
    interior, shaped like ``out[rows]``.  The two Toeplitz products run as
    stacked products over the chunk, which numpy carries out as one BLAS call
    per entry with that entry's own shape and blocks, so each entry rounds
    exactly as it would alone.  Each thread has its own buffer, which grows
    to the largest output shape asked for in that thread, and every call
    overwrites the part of it that it reads, so one instance serves any
    number of calls, also from several threads at once.
    """

    def __init__(self, kernels):
        taps = kernels[0].size
        if any(kernel.size != taps for kernel in kernels):
            raise InvalidInputError("the kernels of one convolution need one tap count")
        self.h = taps // 2
        b = 2 * self.h
        cols = np.arange(b)

        def band(kernel):
            out = np.zeros((2 * b, b))
            out[cols + np.arange(taps)[:, None], cols] = kernel[::-1, None]
            return out

        bands = _per_dataset(kernels, band)  # count x 2b x b
        self.t0, self.t1 = bands[:, :b], bands[:, b:]
        self._local = threading.local()  # the calling thread's scratch buffer

    def apply(self, fill, out):
        h, b = self.h, self.t0.shape[-1]
        count, m = len(out), out.shape[-1]
        shape = (min(CHUNK, count),) + out.shape[1:-1] + (-(-(m + 2 * h) // b) * b,)
        size = math.prod(shape)
        scratch = getattr(self._local, "scratch", None)
        if scratch is None or scratch.size < size:
            scratch = self._local.scratch = np.empty(size)
        buf = scratch[:size].reshape(shape)
        for start in range(0, count, CHUNK):
            rows = slice(start, min(start + CHUNK, count))
            part = buf[: rows.stop - start]
            fill(rows, part[..., h : h + m])
            _reflect_tails(part, h, m)
            tiles = part.reshape(part.shape[0], -1, b)
            y = tiles @ self.t0[rows]
            y[:, :-1] += tiles[:, 1:] @ self.t1[rows]
            out[rows] = y.reshape(part.shape)[..., :m]
        return out


def convolve_reflect(x, kernel, out):
    """Convolve each row of ``x`` (grid axis last) with an odd-length
    ``kernel`` into ``out``, extending the rows by reflection about their
    edges (ndimage's ``reflect``, numpy's ``symmetric`` padding, repeated
    when the kernel is wider than the grid).

    With h the kernel half-width, the padded row is cut into tiles of width
    b = 2h.  Output tile j then reads input tiles j and j + 1 only, through
    the two b x b blocks of the banded Toeplitz matrix:
    Y_j = X_j T0 + X_{j+1} T1.  Laid end to end, the tiles of all rows form
    one matrix, and X_j, X_{j+1} are that matrix and its view one tile on,
    so the convolution is two matrix products with no window copies.  An
    output meets a tile of the next row (or none, at the very end) only
    through exact zeros of T1.

    The products run once per entry of the leading axis (one dataset of a
    group), so an entry's result is the same bit for bit whatever else is
    in ``x``: BLAS may round differently for other matrix shapes.
    """
    slit = SlitConvolution((kernel,) * len(out))
    return slit.apply(lambda rows, dest: np.copyto(dest, x[rows]), out)


def _beer_aux(dataset, p):
    aux = dataset.aux
    if not isinstance(aux, BeerAux):
        raise InvalidInputError("Beer-law model requires a BeerAux auxiliary record")
    if aux.tau.shape[1] != p:
        raise InvalidInputError(
            f"alpha has length {p} but tau has {aux.tau.shape[1]} species columns"
        )
    return aux


def _slit_taps(dataset):
    """Tap count of a Beer dataset's slit kernel, without its weights."""
    halfwidth = getattr(dataset.aux, "slit_halfwidth", 0.0)
    return 2 * _half_taps(_grid_spacing(dataset.t), halfwidth) + 1


def _nu_powers(t, n_linear):
    """nu ** j for j < n_linear (n_linear x m), nu the normalized grid.  The
    powers 0 and 1 are exactly 1 and nu, so only the higher ones call pow,
    which is most of what building a one-dataset group costs."""
    nu = normalize_abscissa(t)
    powers = np.ones((n_linear, nu.size))
    powers[1:2] = nu
    for j in range(2, n_linear):
        # a full vector of exponents: given a lone exponent 2 (nu ** 2, or
        # nu ** np.arange(2, 3)[:, None] when n_linear = 3) numpy computes
        # nu * nu, which rounds differently from pow
        np.power(nu, np.full(nu.size, float(j)), out=powers[j])
    return powers


@dataclass(frozen=True, eq=False)
class BeerGroup:
    """What ``BeerLawModel.eval_group`` reads of datasets of one length and
    slit tap count that does not depend on alpha, built by
    ``BeerLawModel.prepare_group`` from the checked auxiliaries: each
    dataset's powers of nu (g x n x m), its -tau (g x p x m) and
    mu_sun * I0 (g x m) and, unless the slit is a delta, the slit
    convolution with each dataset's Toeplitz blocks and the chunk buffers.
    Powers and blocks that are the same for every dataset are one broadcast
    view.  A problem builds one per group and reuses it in every
    evaluation, from any thread."""

    shape: tuple  # of the group's basis stack, g x n x m
    powers: np.ndarray
    neg_tau: np.ndarray  # g x p x m
    scale: np.ndarray
    slit: Optional[SlitConvolution]

    def convolve(self, fill, out):
        """``out`` (g x ... x m) holding the rows that ``fill(rows, dest)``
        writes for the datasets in slice ``rows``, convolved with each
        dataset's slit (:meth:`SlitConvolution.apply`); a delta slit fills
        ``out`` directly."""
        if self.slit is None:
            fill(slice(None), out)
            return out
        return self.slit.apply(fill, out)


@dataclass(frozen=True, eq=False)
class BeerGroupEval(GroupEval):
    """A :class:`BeerGroup`'s bases, with b = mu_sun * I0 * exp(-tau alpha),
    which their derivatives read."""

    group: BeerGroup
    base: np.ndarray  # g x m

    def products(self, betas, zs):
        """dphi_l beta = K(-tau_l * b * V beta) and
        dphi_l^T z = V^T (-tau_l * b * K^T z), V the powers of nu and K the
        slit convolution, reflect padding included, from one convolution
        call of the k p rows of dphi_l beta and the q rows of zs per
        dataset.  V e_j is nu^j exactly, so the products with the unit
        vectors are the dense derivatives.  K^T is K: a symmetric kernel
        (every :func:`gaussian_kernel` is) on the half-sample reflection of
        the padding gives a symmetric matrix, also where it repeats."""
        group = self.group
        g, p, m = group.neg_tau.shape
        k, q = betas.shape[1], zs.shape[1]
        w = betas @ group.powers  # g x k x m
        w *= self.base[:, None]

        def fill(rows, dest):
            np.multiply(group.neg_tau[rows, None], w[rows, :, None],
                        out=dest[:, : k * p].reshape(-1, k, p, m))
            dest[:, k * p :] = zs[rows]

        out = group.convolve(fill, np.empty((g, k * p + q, m)))
        bkz = out[:, k * p :]
        bkz *= self.base[:, None]  # b * K^T z
        v = (group.neg_tau[:, None] * bkz[:, :, None]) @ group.powers.transpose(0, 2, 1)[:, None]
        return out[:, : k * p].reshape(g, k, p, m), v


@dataclass(frozen=True)
class ExpDecayModel:
    """Sum-of-decaying-exponentials test model; n linear == p nonlinear terms."""

    n_terms: int

    @property
    def n(self):
        return self.n_terms

    @property
    def p(self):
        return self.n_terms

    def eval(self, alpha, dataset):
        return self.eval_group(alpha, self.prepare_group((dataset,))).basis(0)

    def group_key(self, dataset):
        """Datasets with equal keys can share one ``eval_group`` call: the
        power-of-two bucket of the length, so that padding a dataset to the
        longest of its group at most doubles it."""
        return (dataset.m - 1).bit_length()

    def prepare_group(self, datasets):
        """The :class:`ExpGroup` of datasets of any lengths."""
        lengths = [ds.m for ds in datasets]
        m = max(lengths)
        neg_t = np.zeros((len(datasets), m))
        for row, ds in zip(neg_t, datasets):
            np.negative(ds.t, out=row[: ds.m])
        valid = None
        if min(lengths) < m:
            valid = (np.arange(m) < np.array(lengths)[:, None]).astype(float)[:, None, :]
        t_range = (min(float(ds.t[0]) for ds in datasets), max(float(ds.t[-1]) for ds in datasets))
        return ExpGroup((len(datasets), self.n_terms, m), neg_t, valid, t_range)

    def eval_group(self, alpha, group):
        """Multi-exponential basis of the datasets of an :class:`ExpGroup`:
        row j of each dataset's block is exp(-alpha_j * t), and zero past
        the dataset's length.  The derivative with respect to alpha_l is
        nonzero only in row l (:class:`ExpGroupEval`).

        An exponent -alpha_j * t above EXP_OVERFLOW_LIMIT raises
        ModelOverflowError with the grid index of the first dataset's
        largest exponent.  The exponent is linear in t, so its largest value
        is at the least or greatest abscissa, and the check reads those two
        only.
        """
        alpha = _checked_alpha(alpha, self.p)
        phi = np.empty(group.shape)
        np.multiply(alpha[:, None], group.neg_t[:, None, :], out=phi)
        lo, hi = group.t_range
        rates = alpha.tolist()  # Python floats: a scalar check
        a, b = min(rates), max(rates)
        if -min(a * lo, a * hi, b * lo, b * hi) > EXP_OVERFLOW_LIMIT:
            exponent = phi.max(axis=1)  # g x m; zero at padded rows
            first = np.flatnonzero(exponent.max(axis=1) > EXP_OVERFLOW_LIMIT)[0]
            index = int(np.argmax(exponent[first]))
            raise ModelOverflowError(
                f"exponential basis overflows at grid index {index}", index=index
            )
        np.exp(phi, out=phi)
        if group.valid is not None:
            phi *= group.valid
        return ExpGroupEval(phi, group.neg_t)


@dataclass(frozen=True)
class BeerLawModel:
    """Beer-law absorption model: n reflectivity coefficients, p species factors."""

    n_linear: int
    p_species: int

    @property
    def n(self):
        return self.n_linear

    @property
    def p(self):
        return self.p_species

    def eval(self, alpha, dataset):
        return self.eval_group(alpha, self.prepare_group((dataset,))).basis(0)

    def group_key(self, dataset):
        """Datasets with equal keys can share one ``eval_group`` call: the
        length and the slit kernel's tap count."""
        return dataset.m, _slit_taps(dataset)

    def prepare_group(self, datasets):
        """The :class:`BeerGroup` of datasets of one length and slit tap
        count, each on its own grid."""
        auxes = tuple(_beer_aux(ds, self.p) for ds in datasets)
        m = datasets[0].m
        if any(ds.m != m for ds in datasets):
            raise InvalidInputError("the datasets of one Beer group need one length")
        powers = _per_dataset([ds.t for ds in datasets],
                              lambda t: _nu_powers(t, self.n_linear))
        neg_tau = np.array([aux.tau.T for aux in auxes])  # g x p x m, C-contiguous
        np.negative(neg_tau, out=neg_tau)
        scale = np.stack([aux.i0 for aux in auxes])
        scale *= np.array([aux.mu_sun for aux in auxes])[:, None]
        kernels = [gaussian_kernel(_grid_spacing(ds.t), aux.slit_halfwidth)
                   for ds, aux in zip(datasets, auxes)]
        slit = SlitConvolution(kernels) if kernels[0].size > 1 else None
        shape = (len(auxes), self.n_linear, m)
        return BeerGroup(shape, powers, neg_tau, scale, slit)

    def eval_group(self, alpha, group):
        """Beer-law basis of the datasets of a :class:`BeerGroup`.

        Row j of each dataset's block is the convolution of
        nu^j * b, b = mu_sun * I0 * exp(-sum_l alpha_l tau_l), with the
        instrument response, nu being the abscissa normalized to [-1, 1].
        Differentiation and convolution commute (the response does not
        depend on alpha), so the derivatives are convolved products with
        -tau_l, which :class:`BeerGroupEval` forms only as products.  The
        unconvolved rows are written into the padded buffer of the group's
        slit convolution, so no unconvolved stack of the whole group is
        formed; a delta slit fills the C-contiguous output stack directly.
        """
        alpha = _checked_alpha(alpha, self.p)
        # -(tau alpha), g x m: one vector-matrix product per dataset with
        # its own -tau, so a dataset's row rounds as it does alone
        exponent = alpha @ group.neg_tau
        over = np.flatnonzero(np.max(exponent, axis=1) > EXP_OVERFLOW_LIMIT)
        if over.size:
            index = int(np.argmax(exponent[over[0]]))
            raise ModelOverflowError(
                f"absorption exponent overflows at grid index {index}", index=index
            )
        base = np.exp(exponent, out=exponent)
        base *= group.scale
        powers = group.powers

        def fill(rows, dest):
            np.multiply(base[rows, None, :], powers[rows], out=dest)

        return BeerGroupEval(group.convolve(fill, np.empty(group.shape)), group, base)
