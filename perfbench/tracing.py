"""Spans recorded from outside the program, around calls into each sepvar layer.

The tracer replaces module attributes (and two class methods, and the entries
of ``solver._VP_EVALS``) with wrappers that time each call. The modules import
with ``from .x import y``, so every binding a caller looks a function up by is
wrapped on its own: ``vpcore.thin_qr`` and ``solver.thin_qr`` are two patch
points. ``install`` and ``uninstall`` restore the originals exactly, so an
untraced operation runs the unmodified program.

A span's self time is its duration minus the durations of its direct
children. Spans nest strictly (one thread), so the self times of all spans of
an operation add up to the durations of its root spans.
"""

import functools
import sys
import time
from collections import defaultdict

from sepvar import cli, lm, model, solver, stats, synth, vpcore
from sepvar.exceptions import RankDeficiencyError

LAYERS = ("model", "factor", "vpcore", "lm", "solver", "stats")

# LM statuses as ``lm.py`` names them; each gets a ``lm.status.<name>`` count
LM_STATUSES = (
    lm.STATUS_FTOL,
    lm.STATUS_XTOL,
    lm.STATUS_GTOL,
    lm.STATUS_MAX_ITER,
    lm.STATUS_LINEAR_FAIL,
)


def _qr_flops(m, n):
    """Householder QR (geqp3) plus forming the thin factor (orgqr), each
    2mn^2 - 2n^3/3 flops; computed from the shape, not measured."""
    return 4.0 * m * n * n - 4.0 * n**3 / 3.0


def _note_qr(counts, args, kwargs, result):
    m, n = result.q1.shape
    counts["factor.qr_gflop"] += _qr_flops(m, n) / 1e9


def _error_qr(counts, err):
    if isinstance(err, RankDeficiencyError):
        counts["factor.rank_errors"] += 1


def _note_lm(counts, args, kwargs, report):
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
    ftol = (cfg or lm.LMConfig()).ftol
    hist = report.cost_history
    accepted = len(hist) - 1
    trials = report.n_feval - 1
    counts["lm.fits"] += 1
    counts["lm.iters"] += report.n_iter
    counts["lm.accepted"] += accepted
    counts["lm.rejected"] += trials - accepted
    counts[f"lm.status.{report.status}"] += 1
    if report.status == lm.STATUS_FTOL:
        # the ftol branch exits right after an accepted step whose relative
        # decrease is within ftol; anything else left through lambda > limit
        tiny_decrease = accepted >= 1 and hist[-2] - hist[-1] <= ftol * max(
            hist[-1], sys.float_info.min
        )
        if not tiny_decrease:
            counts["lm.exit_lambda_limit"] += 1


def _error_lm(counts, err):
    counts["lm.raised"] += 1


def _note_H(counts, args, kwargs, H):
    # computed from the shape: M x (p + s*n) float64 entries
    counts["stats.H_mb"] += H.shape[0] * H.shape[1] * 8 / 2**20


def _note_cov(counts, args, kwargs, result):
    counts["stats.rank_warnings"] += int(bool(result[1]))


def patch_points():
    """(owner, attribute, layer, counter, note, on_error) for every binding.

    ``counter`` names a count incremented once per call; ``note`` reads the
    arguments and result, ``on_error`` the exception a call raised.
    """
    points = [
        (synth, "generate", "synth", None, None, None),
        (cli, "write_bundle", "cli", None, None, None),
        (cli, "load_bundle", "cli", None, None, None),
        (solver, "fit", "solver", None, None, None),
        (stats, "compute_diagnostics", "stats", None, None, None),
        (model.BeerLawModel, "eval", "model", "model.evals", None, None),
        (model.ExpDecayModel, "eval", "model", "model.evals", None, None),
        (solver, "lm_solve", "lm", None, _note_lm, _error_lm),
        (solver, "eval_naive", "vpcore", "vpcore.evals", None, None),
        (solver, "nls_full_residual", "solver", None, None, None),
        (solver, "nls_full_jacobian", "solver", None, None, None),
        (solver, "initial_beta", "solver", None, None, None),
        (solver, "_final_linear_solve", "solver", None, None, None),
        (solver._CachedReduced, "at", "solver", None, None, None),
        (stats, "eval_gl", "vpcore", "vpcore.evals", None, None),
        (stats, "build_block_diag", "vpcore", None, None, None),
        (stats, "build_H", "stats", None, _note_H, None),
        (stats, "covariance", "stats", None, _note_cov, None),
        (vpcore, "build_block_diag", "vpcore", None, None, None),
    ]
    for method in (solver.METHOD_VP_GL, solver.METHOD_VP_KM):
        points.append((solver._VP_EVALS, method, "vpcore", "vpcore.evals", None, None))
    for owner in (vpcore, solver):
        points.append((owner, "thin_qr", "factor", "factor.qr_calls", _note_qr, _error_qr))
        points.append((owner, "pinv_apply", "factor", None, None, None))
    for name in ("pinv_transpose_apply", "proj_perp_apply", "q2t_apply"):
        points.append((vpcore, name, "factor", None, None, None))
    return points


def _owner_name(owner):
    if isinstance(owner, dict):
        return "solver._VP_EVALS"
    return getattr(owner, "__name__", type(owner).__name__).replace("sepvar.", "")


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else owner.__dict__[attr]


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class OpTrace:
    """Per-layer self times and counts of one operation (one fit plus its
    diagnostics); counts are kept per root span and summed."""

    def __init__(self, wall, self_s, span_s, counts, roots):
        self.wall = wall
        self.self_s = self_s  # layer -> seconds
        self.span_s = span_s  # span name -> summed duration, children included
        self.counts = counts  # name -> number, over the whole operation
        self.roots = roots  # list of (root name, duration, counts under it)

    @property
    def root_s(self):
        return sum(d for _, d, _ in self.roots)

    @property
    def residue_s(self):
        """Time inside the operation spent outside every sepvar span."""
        return self.wall - self.root_s

    def count_signature(self):
        """Every count of the operation, for the exact-repeat check."""
        return [(n, sorted(c.items())) for n, _, c in self.roots]


class Tracer:
    """Records spans of one operation at a time; spans of the first
    ``keep_ops`` operations are kept for writing out."""

    def __init__(self, keep_ops=0):
        self.keep_ops = keep_ops
        self.kept = []
        self._originals = None
        self._stack = []
        self._op = -1
        self._next_id = 0

    # -- patching ---------------------------------------------------------

    def install(self):
        if self._originals is not None:
            return
        self._originals = []
        for owner, attr, layer, counter, note, on_error in patch_points():
            fn = _get(owner, attr)
            name = f"{_owner_name(owner)}.{attr}"
            self._originals.append((owner, attr, fn))
            _set(owner, attr, self._wrap(fn, layer, name, counter, note, on_error))

    def uninstall(self):
        if self._originals is None:
            return
        for owner, attr, fn in reversed(self._originals):
            _set(owner, attr, fn)
        self._originals = None

    def _wrap(self, fn, layer, name, counter, note, on_error):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            frame = [0.0, tracer._next_id, stack[-1][1] if stack else None]
            tracer._next_id += 1
            if not stack:
                tracer._root_counts = defaultdict(float)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                tracer._close(frame, layer, name, counter, t0, clock())
                if on_error is not None:
                    on_error(tracer._root_counts, err)
                raise
            tracer._close(frame, layer, name, counter, t0, clock())
            if note is not None:
                note(tracer._root_counts, args, kwargs, result)
            return result

        return traced

    def _close(self, frame, layer, name, counter, t0, t1):
        stack = self._stack
        stack.pop()
        dur = t1 - t0
        self._self_s[layer] += dur - frame[0]
        self._span_s[name] += dur
        self._root_counts["spans"] += 1
        if counter is not None:
            self._root_counts[counter] += 1
        if stack:
            stack[-1][0] += dur
        else:
            self._roots.append((name, dur, self._root_counts))
        if self._keep:
            self.kept.append((frame[1], frame[2], self._op, layer, name, t0, t1))

    # -- operations -------------------------------------------------------

    def begin_op(self):
        self._op += 1
        self._keep = self._op < self.keep_ops
        self._self_s = defaultdict(float)
        self._span_s = defaultdict(float)
        self._root_counts = defaultdict(float)
        self._roots = []
        self._t0 = time.perf_counter()

    def end_op(self):
        wall = time.perf_counter() - self._t0
        if self._stack:
            raise RuntimeError("operation ended with open spans")
        counts = defaultdict(float)
        for _, _, root_counts in self._roots:
            for key, value in root_counts.items():
                counts[key] += value
        return OpTrace(
            wall=wall,
            self_s=dict(self._self_s),
            span_s=dict(self._span_s),
            counts=dict(counts),
            roots=[(n, d, dict(c)) for n, d, c in self._roots],
        )
