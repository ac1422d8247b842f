"""Reduced residual and Jacobian assembly for the three MRHS formulations.

Each dataset owns its own basis matrix (possibly of a different row count);
the nonlinear parameters are shared.  Three equivalent reductions are
provided:

* ``eval_gl``   -- stacked per-dataset projected residuals with the full
                   (exact) Jacobian.
* ``eval_km``   -- the same residual with Kaufman's simplified one-term
                   Jacobian -P_perp dphi_l beta (exact at the gradient
                   level only).
* ``eval_naive``-- the problem rewritten with one explicit dense
                   block-diagonal basis matrix and the single-RHS formulas
                   applied to it.

``eval_gl`` and ``eval_km`` are two residual forms of one grouped kernel.
``MultiProblem.groups`` puts datasets that the model can evaluate together
(equal ``model.group_key``: for the exp model the power-of-two bucket of
the length, for the Beer law the length and slit tap count, whatever the
grids) into one group, once per problem and in order of each group's first
dataset, with the model's alpha-free inputs of the group
(``model.prepare_group``) and the observations, zero-padded to the group's
longest dataset.  A frame layout of 32 soundings gives two groups of 32,
also when each sounding's grids are shifted; the exp quick-start problem
of 40 and 50 points is one group.  Each group goes through two steps.  The
factor step evaluates the stacked bases (the model's one layout, grid axis
last, zero past each dataset's length), factors them by one batched reduced
QR into the rows of Q1^T and R, inverts R and screens the rank
(:class:`GroupFactors`).  Zero rows leave R, the linear parameters and the
projected residual unchanged in exact arithmetic, and the padded rows of
Q1, the residuals and the Jacobian blocks come out zero.  The form step,
one for both forms, turns these into the linear parameters beta, the
residual z = P_perp y and, from one call of the model's product kernel
(``GroupEval.products``), u = dphi_l beta and v = dphi_l^T z together; the
dense derivatives never enter the reduced path.  The two forms differ only
in the Jacobian: -(P_perp u + pinv^T v) for ``gl`` and -P_perp u for
``km`` (Kaufman 1975; O'Leary & Rust 2013), so both forms give the same z,
beta, v and Grams bit for bit.  A non-finite product raises the typed error
of a non-finite basis evaluation.  Every evaluation is a plain
:class:`ReducedEval` record, filled as its groups are formed: residual and
Jacobian, each block its dataset's own rows, one per grid point (from
``MultiProblem.block_starts``), and each dataset's basis matrix as the
unpadded view of the stack this evaluation allocated.  The fixed-size
per-dataset outputs are gathered in problem order by one copy per group:
the linear parameters, the Grams D_k = phi_k^T phi_k, formed by the factor
step as R^T R in one batched n x n product, and the products
v_k = dphi_l^T z_k.  A fit's final linear solve reads its linear
parameters and residual blocks from its evaluation at alpha_hat, and the
diagnostics read B_k = J_k^T phi_k as -v_k and D_k.  Every product is
computed dataset by dataset within the stack, so a group of equal-length
datasets gives the results of each dataset alone; a padded dataset's match
them to rounding.  The rank decisions, made on each dataset's unpadded
rows, and the typed errors are those of the pivoted per-dataset
``thin_qr``.

The three residuals always share the same 2-norm; projectors are never
materialized except inside ``eval_naive``, which is deliberately literal so
its cost profile reflects the formulation it implements.  Only its model
evaluation is shared: :func:`dataset_bases` evaluates each group of
``MultiProblem.groups`` once, with its dense derivatives, and copies out
every dataset's own rows, the same bit for bit as ``model.eval`` of that
dataset, for the block-diagonal basis and for the joint reference fit.
"""

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import (
    InvalidInputError,
    ProblemTooLargeError,
    RankDeficiencyError,
    SepvarError,
)
from .factor import (
    pinv_apply,
    pinv_transpose_apply,
    proj_perp_apply,
    q2t_apply,  # noqa: F401  (a patch point of the benchmark tracer)
    thin_qr,
)
from .model import _checked_alpha

# the most elements eval_naive's dense block-diagonal matrix may hold
ELEMENT_BUDGET = 1e8
# Above this ratio sigma_min(R) / sigma_max(R) the pivoted rank check of
# thin_qr cannot fire: its |r_ii| >= sigma_min and |r_00| <= sigma_max.  The
# factor step bounds the ratio from below by 1 / (||R||_F ||R^-1||_F).
RANK_SCREEN = 1e-8

FORM_GL = "gl"
FORM_KM = "km"


@dataclass(frozen=True)
class DatasetGroup:
    """Datasets of one problem with equal ``model.group_key``, with what
    every evaluation of them reads that does not depend on alpha.  The
    group's length m is that of its longest dataset."""

    index: tuple  # positions of the datasets in the problem, ascending
    datasets: tuple
    y: np.ndarray  # g x m stacked observations, zero past each dataset's length
    inputs: object = field(repr=False)  # the model's prepare_group(datasets)


def group_members(model, datasets):
    """The positions of the datasets with equal ``model.group_key``, one
    list per key, in order of each key's first dataset."""
    members = {}
    for k, ds in enumerate(datasets):
        members.setdefault(model.group_key(ds), []).append(k)
    return list(members.values())


@dataclass(frozen=True)
class MultiProblem:
    """A shared-nonlinear-parameters fitting problem over several datasets.

    What no evaluation changes is computed once, on first use: the dataset
    groups with their stacked observations and model inputs (``groups``)
    and the residual block layout (``block_sizes``, ``block_starts``).  A
    problem therefore treats its datasets as immutable: to fit changed
    data, build a new problem.
    """

    datasets: tuple
    model: object

    def __post_init__(self):
        object.__setattr__(self, "datasets", tuple(self.datasets))
        if len(self.datasets) < 1:
            raise InvalidInputError("need at least one dataset")
        n = self.model.n
        for k, ds in enumerate(self.datasets):
            if ds.m <= n:
                raise InvalidInputError(
                    f"dataset {k} has m={ds.m} <= n={n}; projected residual would be empty"
                )
        if sum(ds.m - n for ds in self.datasets) < self.model.p:
            raise InvalidInputError(
                "reduced problem is unidentifiable: sum(m_k - n) < p"
            )

    @property
    def s(self):
        return len(self.datasets)

    @property
    def n(self):
        return self.model.n

    @property
    def p(self):
        return self.model.p

    @property
    def m_total(self):
        return self.block_starts[-1]

    @cached_property
    def groups(self):
        """Datasets with equal ``model.group_key``, grouped in order of their
        first member, each with its ``model.prepare_group`` inputs, which
        every evaluation reuses, from any thread."""
        groups = []
        for index in group_members(self.model, self.datasets):
            datasets = tuple(self.datasets[k] for k in index)
            y = np.zeros((len(datasets), max(ds.m for ds in datasets)))
            for row, ds in zip(y, datasets):
                row[: ds.m] = ds.y
            inputs = self.model.prepare_group(datasets)
            groups.append(DatasetGroup(tuple(index), datasets, y, inputs))
        return tuple(groups)

    @cached_property
    def block_sizes(self):
        """Rows of each dataset's residual block: its length, in every form."""
        return tuple(ds.m for ds in self.datasets)

    @cached_property
    def block_starts(self):
        """First row of each dataset's residual block, and the total row
        count last."""
        return (0, *itertools.accumulate(self.block_sizes))


@dataclass(frozen=True)
class GroupFactors:
    """One group's basis evaluation and its stacked reduced QR, with the
    rows of Q1^T, the inverse of R and the Grams phi^T phi = R^T R."""

    ge: object  # the model's GroupEval
    r_inv: np.ndarray  # g x n x n
    q1t: np.ndarray  # g x n x m
    d: np.ndarray  # g x n x n


@dataclass(frozen=True)
class ReducedEval:
    """Residual, Jacobian and per-dataset intermediates at one alpha.

    ``z`` is the projected residual P_perp y, one row per grid point, with
    dataset k's block at ``MultiProblem.block_starts[k]``, and ``jac`` its
    Jacobian in the evaluation's ``form``: ``gl`` (``eval_gl``,
    ``eval_naive``) or ``km`` (``eval_km``).  At a fit's alpha_hat, z's
    blocks are the fit's residuals and ``betas`` (s x n, row k dataset k's
    pinv(phi_k) y_k) its linear parameters.  ``phis`` holds each dataset's
    m x n basis matrix, in problem order; a grouped kernel's phis are
    transposed views of its group's stack, which they keep alive.  Every
    evaluation also keeps, in problem order, the Grams ``d`` =
    phi_k^T phi_k (s x n x n) and the products ``v`` = dphi_l^T z
    (s x p x n; row l of dataset k is dphi_l^T z_k); the diagnostics read
    both.
    """

    z: np.ndarray
    jac: np.ndarray
    betas: np.ndarray = field(repr=False)
    phis: tuple = field(repr=False)
    d: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    form: str = FORM_GL


def _in_problem_order(problem, parts):
    """Per-group stacks, one per group of ``problem.groups``, as one stack
    in problem order: the only group's own when it holds every dataset,
    else one copy per group."""
    if len(parts) == 1:  # one group holds every dataset, in problem order
        return parts[0]
    out = np.empty((problem.s, *parts[0].shape[1:]))
    for group, part in zip(problem.groups, parts):
        out[list(group.index)] = part
    return out


def _raise_first_failure(alpha, problem):
    """Evaluate and factor dataset by dataset, in problem order, so the
    error raised is the one of the first failing dataset."""
    for k, ds in enumerate(problem.datasets):
        try:
            thin_qr(problem.model.eval(alpha, ds).phi)
        except RankDeficiencyError as err:
            raise RankDeficiencyError(
                f"basis matrix of dataset {k} is rank deficient (rank {err.rank})",
                rank=err.rank,
                dataset=k,
            ) from err


def _check_finite(*arrays):
    """Raise the typed error of a non-finite basis or derivative product."""
    if not all(np.isfinite(a).all() for a in arrays):
        raise InvalidInputError("basis evaluation produced non-finite entries")


def _factor_group(alpha, problem, group):
    """The factor step of one group: the model's stacked bases, one batched
    reduced QR without pivoting (each dataset's Q1 and R as LAPACK gives
    them for that dataset alone), R's inverse and the Grams phi^T phi,
    formed as R^T R, one batched n x n product.  A basis whose R may be
    near singular (by the bound ||R||_F ||R^-1||_F on its condition number)
    goes through the pivoted thin_qr of its dataset's own rows for the rank
    decision."""
    ge = problem.model.eval_group(alpha, group.inputs)
    _check_finite(ge.phi)
    a = ge.phi.transpose(0, 2, 1)  # g x m x n, zero rows past each length
    q1, r = np.linalg.qr(a)
    try:
        r_inv = np.linalg.inv(r)
        # sigma_max / sigma_min <= ||R||_F ||R^-1||_F, NaN or infinite for an
        # R that is singular to working precision
        norms = np.square(r).sum(axis=(1, 2)) * np.square(r_inv).sum(axis=(1, 2))
        suspects = (~(norms < RANK_SCREEN**-2)).nonzero()[0]
    except np.linalg.LinAlgError:  # an R with an exact zero on its diagonal
        r_inv, suspects = None, range(len(r))
    for i in suspects:
        # the pivoted rank decision on the dataset's own rows; raises if deficient
        thin_qr(a[i, : group.datasets[i].m])
    if r_inv is None:
        raise RankDeficiencyError("a basis matrix of the group has a singular R factor")
    return GroupFactors(ge, r_inv, q1.transpose(0, 2, 1), r.transpose(0, 2, 1) @ r)


def _form_group(group, f, form):
    """The form step of one group, the same for both forms but for the
    Jacobian's second term: residual and Jacobian blocks, grid axis last.

    Returns (z, jac, beta, v): z = P_perp y (g x m), jac g x p x m, beta
    g x n and v, the products dphi_l^T z (g x p x n).  Dataset i's blocks
    are its first m_i rows; the rows past them are zero.  The derivatives
    enter only through one call of the model's ``ge.products``, which
    gives u = dphi_l beta and v together.  The ``gl`` Jacobian is
    -(P_perp u + pinv^T v), the ``km`` one -P_perp u.
    """
    r_inv, q1t, ge = f.r_inv, f.q1t, f.ge
    y = group.y
    w = (q1t @ y[:, :, None])[:, :, 0]
    beta = (r_inv @ w[:, :, None])[:, :, 0]
    z = (w[:, None, :] @ q1t)[:, 0]
    np.subtract(y, z, out=z)
    u, v = ge.products(beta, z)  # g x p x m and g x p x n
    # P_perp u + pinv^T v == u + Q1 (R^-T v - Q1^T u), one row per l; its
    # negative, formed as (Q1^T u - R^-T v) Q1^T - u, rounds the same; the
    # km form leaves out R^-T v
    qu = u @ q1t.transpose(0, 2, 1)
    if form == FORM_GL:
        qu -= v @ r_inv
    jac = qu @ q1t
    jac -= u
    # a non-finite product makes its rows of jac non-finite; jac can also
    # overflow from finite products, which the engine's own check reports
    if not np.isfinite(jac).all():
        _check_finite(u, v)
    return z, jac, beta, v


def _evaluate(alpha, problem, form):
    """eval_gl or eval_km.  On any error in a factor or form step the
    datasets are re-run one by one in problem order, so the error raised is
    that of the first failing dataset, as the per-dataset formulation would
    raise it."""
    alpha = _checked_alpha(alpha, problem.p)
    try:
        return _reduce(alpha, problem, form)
    except SepvarError:
        _raise_first_failure(alpha, problem)
        raise


def _reduce(alpha, problem, form):
    """The grouped kernel behind eval_gl and eval_km.

    Each group is factored and formed in turn, its blocks are copied into
    the evaluation's residual and Jacobian, which are allocated first, and
    its factors and blocks are released before the next group is factored.
    Of each dataset's padded blocks, only its own rows are copied.  The
    evaluation keeps a view of each dataset's basis matrix, and its linear
    parameters, Grams and products dphi_l^T z, gathered in problem order at
    the end by one copy per group, or none when one group holds every
    dataset.
    """
    starts = problem.block_starts
    z_all = np.empty(starts[-1])
    # column-major, like the transposed p x rows blocks copied into it
    jac_all = np.empty((problem.p, starts[-1])).T
    phis = [None] * problem.s
    betas, grams, products = [], [], []
    for group in problem.groups:
        f = _factor_group(alpha, problem, group)
        z, jac, beta, v = _form_group(group, f, form)
        betas.append(beta)
        grams.append(f.d)
        products.append(v)
        for i, k in enumerate(group.index):
            m = group.datasets[i].m
            rows = slice(starts[k], starts[k + 1])
            z_all[rows] = z[i, :m]
            jac_all[rows] = jac[i, :, :m].T
            phis[k] = f.ge.phi[i, :, :m].T
        del f, z, jac, beta, v

    return ReducedEval(
        z=z_all,
        jac=jac_all,
        betas=_in_problem_order(problem, betas),
        phis=tuple(phis),
        d=_in_problem_order(problem, grams),
        v=_in_problem_order(problem, products),
        form=form,
    )


def eval_gl(alpha, problem):
    """Golub-LeVeque reduction: projected residuals with the full Jacobian.

    Block k of the l-th Jacobian column is
    -(P_perp dphi_l beta + pinv^T dphi_l^T r) with beta the linear solution
    and r the projected residual of dataset k.  Every call evaluates the
    bases afresh, and the result's phis are views of its own stacks.
    """
    return _evaluate(alpha, problem, FORM_GL)


def eval_km(alpha, problem):
    """Kaufman reduction: the residual, linear parameters, products and
    Grams of :func:`eval_gl`, bit for bit, with the one-term (approximate)
    Jacobian -P_perp dphi_l beta (Kaufman 1975)."""
    return _evaluate(alpha, problem, FORM_KM)


def dataset_bases(alpha, problem):
    """Each dataset's BasisEval at alpha, in problem order, from one
    ``model.eval_group`` per group of ``problem.groups``.

    Each basis is a C-contiguous row-major copy of its dataset's own rows of
    the group stack, so it is the same bit for bit as ``model.eval`` of that
    dataset.  On any error the datasets are evaluated one by one in problem
    order, so the error raised is that of the first failing dataset, as
    ``model.eval`` would raise it.
    """
    model = problem.model
    try:
        bases = [None] * problem.s
        for group in problem.groups:
            ge = model.eval_group(alpha, group.inputs)
            for i, k in enumerate(group.index):
                bases[k] = ge.basis(i, group.datasets[i].m)
        return bases
    except SepvarError:
        for ds in problem.datasets:
            model.eval(alpha, ds)
        raise


def build_block_diag(problem, alpha):
    """Dense block-diagonal basis matrix at alpha, its derivatives and the
    per-dataset BasisEval records they are built from.

    The bases come from one model evaluation per group
    (:func:`dataset_bases`); the matrices are deliberately explicit
    (zero-filled), so the naive formulation keeps its literal cost profile.
    """
    bases = dataset_bases(alpha, problem)
    m_total = problem.m_total
    n_total = problem.n * problem.s
    big = np.zeros((m_total, n_total))
    dbig = [np.zeros((m_total, n_total)) for _ in range(problem.p)]
    row = 0
    for k, be in enumerate(bases):
        m_k = be.phi.shape[0]
        cols = slice(k * problem.n, (k + 1) * problem.n)
        big[row : row + m_k, cols] = be.phi
        for l in range(problem.p):
            dbig[l][row : row + m_k, cols] = be.dphi[l]
        row += m_k
    return big, dbig, bases


def eval_naive(alpha, problem):
    """Naive reduction: single-RHS formulas on the explicit block-diagonal matrix."""
    alpha = _checked_alpha(alpha, problem.p)
    m_total = problem.m_total
    n_total = problem.n * problem.s
    if m_total * n_total > ELEMENT_BUDGET:
        raise ProblemTooLargeError(
            f"block-diagonal matrix would hold {m_total * n_total:.3g} elements, "
            f"budget is {ELEMENT_BUDGET:.3g}"
        )
    big, dbig, bases = build_block_diag(problem, alpha)
    y_all = np.concatenate([ds.y for ds in problem.datasets])
    try:
        f = thin_qr(big)
    except RankDeficiencyError as err:
        raise RankDeficiencyError(
            f"block-diagonal basis matrix is rank deficient (rank {err.rank})",
            rank=err.rank,
        ) from err
    beta_all = pinv_apply(f, y_all)
    r = proj_perp_apply(f, y_all)
    jac = np.empty((m_total, problem.p))
    v = []
    for l in range(problem.p):
        term1 = proj_perp_apply(f, dbig[l] @ beta_all)
        v.append(dbig[l].T @ r)
        term2 = pinv_transpose_apply(f, v[l])
        jac[:, l] = -(term1 + term2)
    return ReducedEval(
        z=r,
        jac=jac,
        betas=beta_all.reshape(problem.s, problem.n),
        phis=tuple(be.phi for be in bases),
        d=np.stack([be.phi.T @ be.phi for be in bases]),
        v=np.stack(v).reshape(problem.p, problem.s, problem.n).transpose(1, 0, 2),
    )
