"""Command-line harness: generate problem bundles, run fits, sweep benchmarks.

Bundle layout: a directory with ``manifest.json`` (schema version, model
kind, sizes, truth block, per-dataset metadata) plus one CSV per dataset with
the columns ``synth.model_kind`` names, written with one ``%`` format of the
whole table and read with one ``np.loadtxt`` per file.  Floats carry 17
significant digits, so regeneration with the same seed is byte-identical and
loading returns the generated arrays bit for bit.  A bundle that cannot be
read as written is a usage error; a bad value is named by its file line.

Every ``bench`` CSV row (fit, failed cell, mean/std summary) is a record
printed by ``_record_to_row``.
"""

import argparse
import csv
import io
import itertools
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import stats, synth
from .exceptions import InvalidInputError, ProblemTooLargeError, SepvarError
from .inputs import (FINITE_VECTOR, NONNEGATIVE_FINITE, NONNEGATIVE_INT, POSITIVE, SIZE, Rule,
                     Vector, from_json, json_int, json_object, json_text, listed, read)
from .lm import LMConfig
from .model import MU_SUN, BeerAux, Dataset
from .solver import METHODS, SolverConfig, fit
from .vpcore import MultiProblem

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_SOLVER_FAILURE = 1
EXIT_USAGE = 2


def _fmt(x):
    return format(float(x), ".17g")


def _jsonify(obj):
    """Recursive JSON text with deterministic key order and fixed float format."""
    if isinstance(obj, dict):
        items = ", ".join(
            f"{json.dumps(str(k))}: {_jsonify(v)}" for k, v in sorted(obj.items())
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        return "[" + ", ".join(_jsonify(v) for v in seq) + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if np.isinf(x):
            return '"inf"' if x > 0 else '"-inf"'
        return _fmt(x)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def write_json(path, obj):
    Path(path).write_text(_jsonify(obj) + "\n")


def load_config(path):
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as err:
        raise UsageError(f"cannot read config {path}: {err}") from err
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} does not hold a JSON object")
    return cfg


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# generate

CONFIG_KEYS = {"model", "n", "p", "seed", "snr", "alpha_true", "beta_true", "frame", "grids"}


def _inf_text(value):
    """A JSON SNR or list of them, where "inf" or "infinity" in any case is infinite."""
    if isinstance(value, list):
        return [_inf_text(v) for v in value]
    return np.inf if isinstance(value, str) and value.lower() in ("inf", "infinity") else value


def spec_from_config(cfg):
    """The TruthSpec of a ``generate`` config.  The ``frame`` block holds
    ``synth.frame_grids`` arguments (``soundings`` is ``n_soundings``) and
    each ``grids`` entry ``synth.GridSpec`` fields, so those records alone
    read their keys and hold their defaults; a key nothing reads, or a value
    a reader refuses, is a usage error that names it."""
    unknown = sorted(set(cfg) - CONFIG_KEYS)
    if unknown:
        raise UsageError(f"unknown config key(s) {', '.join(map(repr, unknown))}")
    if "frame" in cfg and "grids" in cfg:
        raise UsageError("config gives both 'frame' and 'grids'")
    try:
        n, p = (read(cfg[key], key, SIZE, json=True) for key in ("n", "p"))
        seed = read(cfg.get("seed", 0), "seed", NONNEGATIVE_INT, json=True)
        alpha_true = read(cfg["alpha_true"], "alpha_true", FINITE_VECTOR, json=True)
        if alpha_true.size != p:
            raise InvalidInputError(f"'alpha_true' must have length p={p}")
        if "frame" in cfg:
            frame = {k: json_int(v) if k.endswith("_length") else v  # GridSpec lengths
                     for k, v in json_object(cfg["frame"], "frame").items()}
            soundings = read(frame.pop("soundings", 8), "soundings", SIZE, json=True)
            grids = synth.frame_grids(n_soundings=soundings, **frame)
        else:
            grids = tuple(from_json(synth.GridSpec, entry, "grids")
                          for entry in listed(cfg["grids"], "grids"))
        beta_true = cfg["beta_true"] if "beta_true" in cfg else (
            np.random.default_rng(seed + 1).uniform(0.5, 1.5, size=(len(grids), n)))
        return synth.TruthSpec(
            kind=json_text(cfg.get("model", synth.KIND_BEER), "model"), alpha_true=alpha_true,
            beta_true=beta_true, grids=grids, snr=_inf_text(cfg.get("snr", "inf")), seed=seed,
        )
    except (KeyError, TypeError, ValueError, ProblemTooLargeError) as err:
        raise UsageError(f"config: {type(err).__name__}: {err}") from err


def write_bundle(out_dir, spec, problem):
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _, names = synth.model_kind(spec.kind, spec.n, spec.p)
    entries = []
    for k, ds in enumerate(problem.datasets):
        fname = f"dataset_{k:03d}.csv"
        columns = [ds.t, ds.y]
        entry = {"id": ds.id, "file": fname, "m": ds.m}
        if spec.kind == synth.KIND_BEER:
            columns += [ds.aux.i0, ds.aux.tau]
            entry["mu_sun"] = ds.aux.mu_sun
            entry["slit_halfwidth"] = ds.aux.slit_halfwidth
        table = np.column_stack(columns)
        row_fmt = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
        with open(out / fname, "w", newline="") as fh:
            fh.write(",".join(names) + "\r\n")
            fh.write((row_fmt * table.shape[0]) % tuple(table.ravel().tolist()))
        entries.append(entry)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "model": spec.kind,
        "n": spec.n,
        "p": spec.p,
        "s": spec.s,
        "snr": spec.snr,
        "seed": spec.seed,
        "rng_algorithm": synth.RNG_ALGORITHM,
        "truth": {
            "alpha_true": spec.alpha_true,
            "beta_true": [b for b in spec.beta_true],
        },
        "datasets": entries,
    }
    write_json(out / "manifest.json", manifest)


def _bad_line(body, width):
    """Where the data rows after the header line stop being ``width``
    numbers, named by file line; None if they never do."""
    for lineno, line in enumerate(body.splitlines(), start=2):
        if not line.strip():
            continue
        values = line.split(",")
        if len(values) != width:
            return f"line {lineno} has {len(values)} value(s), expected {width}"
        for v in values:
            try:
                float(v)
            except ValueError:
                return f"line {lineno}: {v.strip()!r} is not a number"
    return None


def _load_dataset(bundle, entry, kind, names):
    """One dataset from its CSV; the columns ``names`` are picked by header name."""
    path = bundle / json_text(entry["file"], "file")
    try:
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            body = fh.read()
    except (OSError, ValueError) as err:
        raise UsageError(f"cannot read {path}: {err}") from err
    if not body.strip():
        data = np.empty((0, len(header)))
    else:
        try:
            data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
        except ValueError as err:
            reason = _bad_line(body, len(header)) or err
            raise UsageError(f"cannot read {path}: {reason}") from err
    missing = [name for name in names if name not in header]
    if missing:
        raise UsageError(f"{path} has no column {', '.join(missing)}")
    m = read(entry["m"], "m", SIZE, json=True)
    if data.shape != (m, len(header)):
        raise UsageError(
            f"{path} has {data.shape[0]} row(s) of {data.shape[1]} value(s), "
            f"expected {m} of {len(header)}"
        )
    t, y, *extra = data[:, [header.index(name) for name in names]].T.copy()
    # read outside the try below, so that an error names the manifest
    ds_id = json_text(entry["id"], "id")
    if kind == synth.KIND_BEER:
        mu_sun = read(entry["mu_sun"], "mu_sun", MU_SUN, json=True)
        halfwidth = read(entry["slit_halfwidth"], "slit_halfwidth", NONNEGATIVE_FINITE, json=True)
    try:
        aux = None
        if kind == synth.KIND_BEER:
            aux = BeerAux(mu_sun, extra[0], np.column_stack(extra[1:]), halfwidth)
        return Dataset(t=t, y=y, aux=aux, id=ds_id)
    except InvalidInputError as err:
        raise UsageError(f"{path}: {err}") from err


def load_bundle(bundle_dir):
    """The problem and manifest of a bundle.  The manifest's ``s`` must
    count its ``datasets`` entries, each dataset ``id`` must be its own, and
    an ``snr`` the fit record copies is a positive number or "inf"."""
    bundle = Path(bundle_dir)
    manifest_path = bundle / "manifest.json"
    if not manifest_path.is_file():
        raise UsageError(f"no manifest.json in {bundle_dir}")
    try:
        manifest = json.loads(manifest_path.read_text())
        if not isinstance(manifest, dict):
            raise UsageError(f"{manifest_path} does not hold a JSON object")
        if manifest.get("schema_version") != SCHEMA_VERSION:
            raise UsageError(
                f"unsupported bundle schema version {manifest.get('schema_version')}"
            )
        kind = json_text(manifest["model"], "model")
        n, p, s = (read(manifest[key], key, SIZE, json=True) for key in ("n", "p", "s"))
        model, names = synth.model_kind(kind, n, p)
        entries = listed(manifest["datasets"], "datasets")
        if len(entries) != s:
            raise InvalidInputError(f"'s' is {s} but 'datasets' lists {len(entries)} dataset(s)")
        datasets = tuple(_load_dataset(bundle, json_object(entry, f"datasets[{k}]"), kind, names)
                         for k, entry in enumerate(entries))
        seen = set()
        for ds in datasets:
            if ds.id in seen:
                raise InvalidInputError(f"'id' {ds.id!r} names more than one dataset")
            seen.add(ds.id)
            model.group_key(ds)  # checks the slit's size before a fit builds it
        problem = MultiProblem(datasets=datasets, model=model)
        if "snr" in manifest:  # the record copies it
            manifest["snr"] = read(_inf_text(manifest["snr"]), "snr", POSITIVE, json=True)
        truth = manifest.get("truth")
        truth = {} if truth is None else json_object(truth, "truth")
        if truth.get("alpha_true") is not None:  # the record's relative errors read it
            truth["alpha_true"] = read(truth["alpha_true"], "alpha_true", FINITE_VECTOR, json=True)
            if truth["alpha_true"].size != p:
                raise InvalidInputError(f"'alpha_true' must have length p={p}")
    # InvalidInputError is a ValueError
    except (OSError, ValueError, KeyError, TypeError, ProblemTooLargeError) as err:
        raise UsageError(f"{manifest_path}: {type(err).__name__}: {err}") from err
    return problem, manifest


def cmd_generate(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    spec = spec_from_config(cfg)
    try:
        problem = synth.generate(spec)
    except ProblemTooLargeError as err:  # a slit too wide for its grid
        raise UsageError(f"config: {type(err).__name__}: {err}") from err
    write_bundle(args.out, spec, problem)
    print(f"wrote bundle with {spec.s} dataset(s) to {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fit


def run_record(problem, manifest, method, alpha0, lm_cfg=None):
    """The fit record of ``problem``; a manifest truth's ``alpha_true`` is an array."""
    alpha_true = ((manifest or {}).get("truth") or {}).get("alpha_true")
    result = fit(problem, SolverConfig(method=method, lm=lm_cfg or LMConfig()), alpha0)
    diag = stats.compute_diagnostics(result, problem)
    record = {
        "schema_version": SCHEMA_VERSION,
        "method": method,
        "s": problem.s,
        "snr": manifest.get("snr", "unknown") if manifest else "unknown",
        "seed": manifest.get("seed") if manifest else None,
        "alpha_hat": result.alpha_hat,
        "sigma": diag.sigma,
        "r_score": diag.r_score,
        "conf_bound_alpha": diag.conf_bounds[: problem.p],
        "wall_time_s": result.wall_time,
        "n_iter": result.lm_report.n_iter,
        "status": result.lm_report.status,
    }
    if alpha_true is not None and alpha_true.all():  # a zero truth has none
        record["relative_errors"] = stats.relative_error(alpha_true, result.alpha_hat)
    return record, result


def _write_residuals_csv(path, problem, result):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["dataset", "t", "residual"])
        for ds, r in zip(problem.datasets, result.residuals):
            w.writerows([ds.id, _fmt(t), _fmt(v)] for t, v in zip(ds.t, r))


def cmd_fit(args):
    problem, manifest = load_bundle(args.bundle)
    alpha0 = _parse_alpha0(args.alpha0, problem.p)
    try:
        record, result = run_record(problem, manifest, args.method, alpha0)
    except SepvarError as err:
        error_doc = {
            "error": type(err).__name__,
            "message": str(err),
            "method": args.method,
        }
        if args.out:
            write_json(args.out, error_doc)
        print(_jsonify(error_doc), file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    out = Path(args.out)
    write_json(out, record)
    _write_residuals_csv(out.with_name(out.stem + "_residuals.csv"), problem, result)
    print(_jsonify(record))
    return EXIT_OK


def _parse_alpha0(text, p):
    if text is None:
        return np.ones(p)
    try:
        vals = np.asarray([float(v) for v in text.split(",")], dtype=float)
    except ValueError as err:
        raise UsageError(f"cannot parse --alpha0 {text!r}") from err
    if vals.size != p:
        raise UsageError(f"--alpha0 needs {p} comma-separated values")
    if not np.all(np.isfinite(vals)):
        raise UsageError(f"--alpha0 {text!r} must be finite")
    return vals


# ---------------------------------------------------------------------------
# bench


def _cell_seed(base_seed, index):
    return int(np.random.SeedSequence([base_seed, index]).generate_state(1)[0])


def _join(vals):
    return ";".join(_fmt(v) for v in np.atleast_1d(vals))


def _text(value):
    return value if isinstance(value, str) else _fmt(value)


# bench CSV column -> how a record's value prints; a summary record holds the
# stat name in "seed" and "status" and the mean or std in the fit columns
BENCH_FORMAT = {
    "method": str,
    "s": str,
    "snr": _text,
    "seed": str,
    "alpha_hat": _join,
    "relative_errors": _join,
    "sigma": _fmt,
    "r_score": _fmt,
    "conf_bound_alpha": _join,
    "wall_time_s": _fmt,
    "n_iter": _fmt,
    "status": str,
}
BENCH_COLUMNS = list(BENCH_FORMAT)
CELL_COLUMNS = ("method", "s", "snr", "seed")
# the fit columns, with the values of a cell whose fit raised
NO_FIT = {
    "alpha_hat": [], "relative_errors": [], "sigma": float("nan"),
    "r_score": float("nan"), "conf_bound_alpha": [], "wall_time_s": float("nan"),
    "n_iter": 0,
}


def _bench_spec(problem, s, snr, seed):
    """The TruthSpec of one bench cell: the ``problem`` config cut to ``s``
    datasets, at ``snr`` and ``seed``."""
    base = dict(problem, snr=snr, seed=seed)
    if "frame" in base:
        if s < 2 or s % 2:
            raise UsageError(f"s={s}: a frame problem needs an even s >= 2")
        base["frame"] = {**json_object(base["frame"], "frame"), "soundings": s // 2}
    for key in ("grids", "beta_true"):
        if key in base:
            if not 1 <= s <= len(listed(base[key], key)):
                raise UsageError(f"s={s} is not in 1..{len(base[key])}, the problem's {key}")
            base[key] = base[key][:s]
    return spec_from_config(base)


def _bench_cell(lm_cfg, method, spec, alpha0):
    problem = synth.generate(spec)
    alpha0 = np.ones(spec.p) if alpha0 is None else alpha0
    manifest = {"snr": spec.snr, "seed": spec.seed, "truth": {"alpha_true": spec.alpha_true}}
    record, _ = run_record(problem, manifest, method, alpha0, lm_cfg)
    # a record without relative errors prints them empty, as a failed cell does
    return {**NO_FIT, **record}


def _record_to_row(record):
    return [fmt(record[column]) for column, fmt in BENCH_FORMAT.items()]


BENCH_KEYS = {"methods", "s_values", "snr_values", "n_seeds", "base_seed", "alpha0", "lm",
              "problem"}


def cmd_bench(args):
    cfg = load_config(args.config)
    unknown = sorted(set(cfg) - BENCH_KEYS)
    if unknown:
        raise UsageError(f"unknown bench config key(s) {', '.join(map(repr, unknown))}")
    try:
        methods = cfg.get("methods", list(METHODS))
        if not isinstance(methods, list) or any(m not in METHODS for m in methods):
            raise InvalidInputError(f"'methods' must be a list of {METHODS}, got {methods!r}")
        s_values = read(cfg.get("s_values", [2, 4, 8, 16]), "s_values", Vector(Rule(int)),
                        json=True)
        snr_values = read(_inf_text(cfg.get("snr_values", ["inf"])), "snr_values",
                          Vector(POSITIVE), json=True)
        n_seeds = read(cfg.get("n_seeds", 1), "n_seeds", NONNEGATIVE_INT, json=True)
        base_seed = read(cfg.get("base_seed", 0), "base_seed", NONNEGATIVE_INT, json=True)
        alpha0 = cfg.get("alpha0")
        alpha0 = None if alpha0 is None else read(alpha0, "alpha0", FINITE_VECTOR, json=True)
        lm = cfg.get("lm")  # absent or null: the default settings
        lm_cfg = from_json(LMConfig, {} if lm is None else lm, "lm")
        grid = itertools.product(methods, s_values, snr_values, range(n_seeds))
        cells = [(method, s, snr, _cell_seed(base_seed, index))
                 for index, (method, s, snr, _) in enumerate(grid)]
        problem = json_object(cfg.get("problem", {}), "problem")
        specs = [_bench_spec(problem, *cell[1:]) for cell in cells]
    except (KeyError, TypeError, ValueError) as err:  # InvalidInputError is a ValueError
        raise UsageError(f"bench config: {type(err).__name__}: {err}") from err
    if alpha0 is not None and any(alpha0.shape != (spec.p,) for spec in specs):
        raise UsageError(f"bench config key 'alpha0' needs {specs[0].p} values, "
                         f"one per nonlinear parameter")

    records = []
    for cell, spec in zip(cells, specs):
        try:
            records.append(_bench_cell(lm_cfg, cell[0], spec, alpha0))
        except SepvarError as err:
            records.append(
                dict(zip(CELL_COLUMNS, cell), **NO_FIT, status=f"error:{type(err).__name__}")
            )

    rows = [_record_to_row(r) for r in records + _summary_records(records)]
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(BENCH_COLUMNS)
        w.writerows(rows)
    print(f"wrote {len(rows)} row(s) to {args.out}")
    return EXIT_OK


def _summary_records(records):
    """Mean and std of every fit column over the fitted cells of each
    (method, s, snr) group."""
    groups = {}
    for r in records:
        if r["status"].startswith("error:"):
            continue
        groups.setdefault((r["method"], r["s"], float(r["snr"])), []).append(r)
    summary = []
    for key, recs in sorted(groups.items(), key=lambda kv: str(kv[0])):
        for stat, fn in (("mean", np.mean), ("std", np.std)):
            summary.append({
                **dict(zip(CELL_COLUMNS, key)), "seed": stat, "status": stat,
                **{c: fn([r[c] for r in recs], axis=0) for c in NO_FIT},
            })
    return summary


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sepvar",
        description="Separable least squares with multiple right-hand sides: "
        "generate synthetic bundles, run fits, sweep benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a synthetic dataset bundle")
    g.add_argument("--config", required=True, help="JSON config file")
    g.add_argument("--out", required=True, help="output bundle directory")
    g.add_argument("--seed", type=int, default=None, help="override config seed")
    g.set_defaults(func=cmd_generate)

    f = sub.add_parser("fit", help="fit a dataset bundle")
    f.add_argument("bundle", help="bundle directory")
    f.add_argument("--method", required=True, choices=METHODS)
    f.add_argument("--alpha0", default=None, help="comma-separated initial guess")
    f.add_argument("--out", required=True, help="output record JSON path")
    f.set_defaults(func=cmd_fit)

    b = sub.add_parser("bench", help="run a benchmark sweep")
    b.add_argument("--config", required=True, help="JSON sweep config")
    b.add_argument("--out", required=True, help="output CSV path")
    b.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SepvarError as err:
        print(_jsonify({"error": type(err).__name__, "message": str(err)}), file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    except Exception:
        traceback.print_exc()
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
