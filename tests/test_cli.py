import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from sepvar import cli, synth
from sepvar.exceptions import InvalidInputError
from sepvar.inputs import FINITE, from_json, read
from sepvar.lm import LMConfig
from sepvar.model import BeerAux, BeerLawModel, Dataset, ExpDecayModel
from sepvar.vpcore import MultiProblem


def write_config(path, cfg):
    Path(path).write_text(json.dumps(cfg))
    return str(path)


def exp_config(s=2, snr="inf", seed=7, length=40):
    return {
        "model": "exp",
        "n": 2,
        "p": 2,
        "seed": seed,
        "snr": snr,
        "alpha_true": [1.2, 0.25],
        "beta_true": [[1.0, 0.8] for _ in range(s)],
        "grids": [
            {"length": length + 5 * k, "lo": 0.0, "hi": 4.0} for k in range(s)
        ],
    }


def beer_config(s=2, snr="inf", seed=3, length=120):
    return {
        "model": "beer",
        "n": 3,
        "p": 2,
        "seed": seed,
        "snr": snr,
        "alpha_true": [1.0, 1.0],
        "beta_true": [[1.0, 0.1, -0.05] for _ in range(s)],
        "grids": [
            {"length": length, "lo": 6180.0, "hi": 6280.0} for _ in range(s)
        ],
    }


class TestJsonFormatting:
    def test_deterministic_key_order(self):
        a = cli._jsonify({"b": 1, "a": 2})
        assert a == '{"a": 2, "b": 1}'

    def test_float_format_and_inf(self):
        assert cli._jsonify(0.1) == "0.10000000000000001"
        assert cli._jsonify(float("inf")) == '"inf"'
        assert cli._jsonify([1, True, None]) == "[1, true, null]"

    def test_numpy_types(self):
        out = cli._jsonify({"v": np.array([1.5, 2.5]), "n": np.int64(3)})
        assert out == '{"n": 3, "v": [1.5, 2.5]}'


class TestGenerate:
    def test_bundle_layout(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", exp_config(s=3))
        out = tmp_path / "bundle"
        assert cli.main(["generate", "--config", cfg, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema_version"] == 1
        assert manifest["s"] == 3
        assert manifest["rng_algorithm"] == "numpy-pcg64"
        for entry in manifest["datasets"]:
            assert (out / entry["file"]).is_file()

    def test_same_seed_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", exp_config(snr=50.0, seed=99))
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["generate", "--config", cfg, "--out", str(a)])
        cli.main(["generate", "--config", cfg, "--out", str(b)])
        for f in sorted(p.name for p in a.iterdir()):
            assert (a / f).read_bytes() == (b / f).read_bytes()

    def test_seed_override_changes_noise(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", exp_config(snr=50.0, seed=1))
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["generate", "--config", cfg, "--out", str(a)])
        cli.main(["generate", "--config", cfg, "--out", str(b), "--seed", "2"])
        assert (a / "dataset_000.csv").read_bytes() != (b / "dataset_000.csv").read_bytes()

    def test_negative_seed_override_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", exp_config())
        out = tmp_path / "bundle"
        assert cli.main(["generate", "--config", cfg, "--out", str(out), "--seed", "-1"]) == 2
        assert "'seed' must be a nonnegative integer" in capsys.readouterr().err
        assert not out.exists()

    def test_beer_bundle_roundtrip(self, tmp_path):
        cfg_dict = beer_config(snr=200.0)
        cfg = write_config(tmp_path / "cfg.json", cfg_dict)
        out = tmp_path / "bundle"
        cli.main(["generate", "--config", cfg, "--out", str(out)])
        problem, manifest = cli.load_bundle(out)
        assert problem.s == 2
        assert manifest["model"] == "beer"
        assert problem.datasets[0].aux.tau.shape == (120, 2)
        generated = synth.generate(cli.spec_from_config(cfg_dict))
        for want, got in zip(generated.datasets, problem.datasets):
            for name in ("t", "y"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
            for name in ("i0", "tau"):
                assert getattr(got.aux, name).tobytes() == getattr(want.aux, name).tobytes()
            assert got.aux.mu_sun == want.aux.mu_sun
            assert got.aux.slit_halfwidth == want.aux.slit_halfwidth
            assert got.id == want.id

    def test_model_failure_exits_1_without_a_bundle(self, tmp_path, capsys):
        """A truth whose model overflows is a solver failure, not a usage
        error: exit 1 with the typed error document and no bundle."""
        cfg = write_config(tmp_path / "cfg.json", {**beer_config(), "alpha_true": [-1000, 1]})
        out = tmp_path / "bundle"
        assert cli.main(["generate", "--config", cfg, "--out", str(out)]) == 1
        doc = json.loads(capsys.readouterr().err)
        assert doc["error"] == "ModelOverflowError"
        assert not out.exists()

    def test_missing_config_is_usage_error(self, tmp_path):
        rc = cli.main(
            ["generate", "--config", str(tmp_path / "nope.json"),
             "--out", str(tmp_path / "o")]
        )
        assert rc == 2


def _replace_line(name, index, text):
    def edit(bundle):
        path = bundle / name
        lines = path.read_text().splitlines()
        lines[index] = text
        path.write_text("\n".join(lines) + "\n")
        return path

    return edit


def _drop_tau_2(bundle):
    path = bundle / "dataset_000.csv"
    rows = [line.split(",") for line in path.read_text().splitlines()]
    path.write_text("".join(",".join(row[:-1]) + "\n" for row in rows))
    return path


def _drop_last_row(bundle):
    path = bundle / "dataset_001.csv"
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))
    return path


def _keep_header(bundle):
    path = bundle / "dataset_000.csv"
    path.write_text(path.read_text().splitlines()[0] + "\n")
    return path


def _edit_manifest(bundle, **changes):
    path = bundle / "manifest.json"
    path.write_text(json.dumps({**json.loads(path.read_text()), **changes}))
    return path


def _edit_entry(bundle, **changes):
    """Change the manifest entry of dataset 0."""
    path = bundle / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["datasets"][0].update(changes)
    path.write_text(json.dumps(manifest))
    return path


def _entry_0_is_a_number(bundle):
    path = bundle / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["datasets"][0] = 3
    path.write_text(json.dumps(manifest))
    return path


MALFORMED = {
    "missing-column": _drop_tau_2,
    "ragged-row": _replace_line("dataset_000.csv", 5, "1,2,3"),
    "non-numeric-row": _replace_line("dataset_001.csv", 2, "1,x,1,0,0"),
    "row-count": _drop_last_row,
    "unreadable-manifest": _replace_line("manifest.json", 0, "{not json"),
    "manifest-not-object": _replace_line("manifest.json", 0, "[]"),
    "unknown-model-kind": lambda b: _edit_manifest(b, model="bogus"),
    "header-only": _keep_header,
    "non-finite-value": _replace_line("dataset_000.csv", 1, "6180,nan,1,0,0"),
    # manifest integers are read strictly: int() would load a 2-coefficient
    # model from "n": 2.9
    "manifest-fractional-n": lambda b: _edit_manifest(b, n=2.9),
    "manifest-bool-p": lambda b: _edit_manifest(b, p=True),
    "manifest-text-n": lambda b: _edit_manifest(b, n="3"),
    "manifest-fractional-m": lambda b: _edit_entry(b, m=19.5),
    "manifest-bool-m": lambda b: _edit_entry(b, m=True),
    "manifest-text-m": lambda b: _edit_entry(b, m="20"),
    # manifest floats are read strictly: float() would load true as 1.0
    "manifest-bool-mu_sun": lambda b: _edit_entry(b, mu_sun=True),
    "manifest-text-mu_sun": lambda b: _edit_entry(b, mu_sun="0.7"),
    "manifest-bool-slit_halfwidth": lambda b: _edit_entry(b, slit_halfwidth=True),
    # a model needs a linear and a nonlinear parameter
    "manifest-zero-n": lambda b: _edit_manifest(b, n=0),
    "manifest-zero-p": lambda b: _edit_manifest(b, p=0),
    # the datasets list and its entries are read by name: a number raised a
    # TypeError naming no key, and a list id was taken as the dataset's id
    "manifest-datasets-not-a-list": lambda b: _edit_manifest(b, datasets=3),
    "manifest-entry-not-an-object": _entry_0_is_a_number,
    "manifest-list-id": lambda b: _edit_entry(b, id=["ds000"]),
    "manifest-number-file": lambda b: _edit_entry(b, file=0),
    # the model kind is a text: a list raised a TypeError naming no key
    "manifest-list-model": lambda b: _edit_manifest(b, model=["beer"]),
    # s counts the datasets, ids are each dataset's own, and the SNR the
    # record copies is a number: each of these fitted and exited 0
    "manifest-s-mismatch": lambda b: _edit_manifest(b, s=5),
    "manifest-duplicate-id": lambda b: _edit_entry(b, id="ds001"),
    "manifest-list-snr": lambda b: _edit_manifest(b, snr=[1]),
    "manifest-zero-snr": lambda b: _edit_manifest(b, snr=0),
}

# what the message must say besides the file name: the file line of the bad
# value (the header is line 1), and the value count of the header
MALFORMED_TEXT = {
    "non-numeric-row": "line 3: 'x' is not a number",
    "header-only": "has 0 row(s) of 5 value(s), expected 20 of 5",
    "non-finite-value": "t and y must be finite",
    "manifest-fractional-n": "'n' must be an integer, got 2.9",
    "manifest-bool-p": "'p' must be an integer, got True",
    "manifest-text-n": "'n' must be an integer, got '3'",
    "manifest-fractional-m": "'m' must be an integer, got 19.5",
    "manifest-bool-m": "'m' must be an integer, got True",
    "manifest-text-m": "'m' must be an integer, got '20'",
    "manifest-bool-mu_sun": "'mu_sun' must be a number, got True",
    "manifest-text-mu_sun": "'mu_sun' must be a number, got '0.7'",
    "manifest-bool-slit_halfwidth": "'slit_halfwidth' must be a number, got True",
    "manifest-zero-n": "'n' must be a positive integer, got 0",
    "manifest-zero-p": "'p' must be a positive integer, got 0",
    "manifest-datasets-not-a-list": "'datasets' must be a list, got 3",
    "manifest-entry-not-an-object": "'datasets[0]' must be a JSON object, got 3",
    "manifest-number-file": "'file' must be a string, got 0",
    "manifest-list-id": "'id' must be a string, got ['ds000']",
    "manifest-list-model": "'model' must be a string, got ['beer']",
    "manifest-s-mismatch": "'s' is 5 but 'datasets' lists 2 dataset(s)",
    "manifest-duplicate-id": "'id' 'ds001' names more than one dataset",
    "manifest-list-snr": "'snr' must be a number, got [1]",
    "manifest-zero-snr": "'snr' must be positive, got 0",
}


class TestMalformedBundle:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_usage_error_names_file(self, tmp_path, capsys, case):
        cfg = write_config(tmp_path / "cfg.json", beer_config(length=20))
        bundle = tmp_path / "bundle"
        assert cli.main(["generate", "--config", cfg, "--out", str(bundle)]) == 0
        broken = MALFORMED[case](bundle)
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = cli.main(
                ["fit", str(bundle), "--method", "vp-gl", "--out", str(tmp_path / "o.json")]
            )
        assert rc == 2
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert str(broken) in err
        assert MALFORMED_TEXT.get(case, "") in err


def frame_config(**frame):
    return {"model": "beer", "n": 3, "p": 2, "seed": 4, "alpha_true": [1.0, 1.0],
            "frame": frame}


def _without(cfg, key):
    return {k: v for k, v in cfg.items() if k != key}


def _bench(problem, s):
    return {"methods": ["vp-gl"], "s_values": [s], "problem": problem}


# command, config and the text the usage error must name
CONFIG_ERRORS = {
    "frame-key-typo": ("generate", frame_config(sounding=2), "'sounding'"),
    "grid-key-typo": (
        "generate",
        {**exp_config(), "grids": [{"length": 40, "lo": 0.0, "hi": 4.0, "slit_half_width": 0}] * 2},
        "'slit_half_width'",
    ),
    "top-level-typo": ("generate", {**exp_config(), "sed": 3}, "'sed'"),
    # a list raised a TypeError (unhashable type) naming no key
    "list-model": ("generate", {**exp_config(), "model": ["exp"]},
                   "'model' must be a string, got ['exp']"),
    "frame-and-grids": ("generate", {**exp_config(), "frame": {}}, "both 'frame' and 'grids'"),
    "missing-p": ("generate", _without(exp_config(), "p"), "KeyError: 'p'"),
    "missing-alpha_true": (
        "generate", _without(exp_config(), "alpha_true"), "KeyError: 'alpha_true'"
    ),
    "missing-grids": ("generate", _without(exp_config(), "grids"), "KeyError: 'grids'"),
    "generate-non-object": ("generate", [], "does not hold a JSON object"),
    "bench-non-object": ("bench", [], "does not hold a JSON object"),
    "bench-odd-frame-s": ("bench", _bench(frame_config(), 3), "s=3"),
    "bench-s-beyond-grids": ("bench", _bench(exp_config(s=2), 4), "s=4"),
    "bench-key-typo": ("bench", {"s_value": [2], "problem": exp_config(s=2)}, "'s_value'"),
    "bench-bad-n_seeds": ("bench", {**_bench(exp_config(s=2), 2), "n_seeds": "x"}, "'n_seeds'"),
    "bench-bad-s_values": ("bench", {**_bench(exp_config(s=2), 2), "s_values": 2}, "'s_values'"),
    "bench-bad-snr": ("bench", {**_bench(exp_config(s=2), 2), "snr_values": ["loud"]},
                      "'snr_values'"),
    "bench-methods-not-list": ("bench", {**_bench(exp_config(s=2), 2), "methods": 3},
                               "'methods'"),
    "bench-alpha0-length": ("bench", {**_bench(exp_config(s=2), 2), "alpha0": [1.4]},
                            "'alpha0'"),
    "bench-alpha0-text": ("bench", {**_bench(exp_config(s=2), 2), "alpha0": ["a", "b"]},
                          "'alpha0'"),
    # config integers are read strictly: int() would truncate 2.9 to 2 and
    # read true as 1
    "fractional-n": ("generate", {**exp_config(), "n": 2.5}, "'n' must be an integer"),
    "bool-p": ("generate", {**exp_config(), "p": True}, "'p' must be an integer"),
    "text-seed": ("generate", {**exp_config(), "seed": "7"}, "'seed' must be an integer"),
    "frame-fractional-soundings": ("generate", frame_config(soundings=1.5),
                                   "'soundings' must be an integer"),
    "bench-fractional-s_values": ("bench", {**_bench(exp_config(s=2), 2), "s_values": [2.9]},
                                  "'s_values' must be an integer"),
    "bench-fractional-n_seeds": ("bench", {**_bench(exp_config(s=2), 2), "n_seeds": 1.7},
                                 "'n_seeds' must be an integer"),
    "bench-bool-base_seed": ("bench", {**_bench(exp_config(s=2), 2), "base_seed": True},
                             "'base_seed' must be an integer"),
    # numpy's generators take no negative seed: at seed -1 the beta draw takes
    # seed + 1 = 0, and a given beta_true skips that draw, so both reached
    # generate's own draws and raised from numpy
    "negative-seed": ("generate", _without(exp_config(seed=-1), "beta_true"),
                      "'seed' must be a nonnegative integer, got -1"),
    "negative-seed-beta_true": ("generate", exp_config(seed=-5),
                                "'seed' must be a nonnegative integer, got -5"),
    "bench-negative-base_seed": ("bench", {**_bench(exp_config(s=2), 2), "base_seed": -1},
                                 "'base_seed' must be a nonnegative integer, got -1"),
    "bench-problem-fractional-p": ("bench", _bench({**exp_config(s=2), "p": 2.5}, 2),
                                   "'p' must be an integer"),
    # so are config floats: float() would read true as SNR 1.0
    "bool-snr": ("generate", {**exp_config(), "snr": True}, "'snr' must be a number"),
    "text-snr": ("generate", {**exp_config(), "snr": "100"}, "'snr' must be a number"),
    "bench-bool-snr_values": ("bench", {**_bench(exp_config(s=2), 2), "snr_values": [False]},
                              "'snr_values' must be a number"),
    # and so are the truth vectors, entry by entry, and every GridSpec number:
    # np.asarray(..., float) read "1.2" as 1.2 and true as 1.0
    "text-alpha_true": ("generate", {**exp_config(), "alpha_true": ["1.2", True]},
                        "'alpha_true' must be a number, got '1.2'"),
    "bool-beta_true": ("generate", {**exp_config(), "beta_true": [[True, "0.8"], [0.9, 1.1]]},
                       "'beta_true' must be a number, got True"),
    "bench-bool-alpha0": ("bench", {**_bench(exp_config(s=2), 2), "alpha0": [1.4, True]},
                          "'alpha0' must be a number, got True"),
    "grid-bool-lo": (
        "generate", {**exp_config(), "grids": [{"length": 40, "lo": True, "hi": 4.0}] * 2},
        "'lo' must be a number, got True",
    ),
    "grid-bool-slit_halfwidth": (
        "generate",
        {**beer_config(), "grids": [{"length": 120, "lo": 6180.0, "hi": 6280.0,
                                     "slit_halfwidth": True}] * 2},
        "'slit_halfwidth' must be a number, got True",
    ),
    "grid-bool-tau_scale": (
        "generate",
        {**beer_config(), "grids": [{"length": 120, "lo": 6180.0, "hi": 6280.0,
                                     "tau_scale": [True, 1.0]}] * 2},
        "'tau_scale' must be a number, got True",
    ),
    "frame-bool-strong_i0": ("generate", frame_config(soundings=1, strong_i0=True),
                             "'i0_scale' must be a number, got True"),
    # zero sizes wrote a bundle of all-zero y (exp) or one that did not load
    # (beer), and zero soundings failed without naming the key
    "zero-n-and-p": ("generate", {**exp_config(), "n": 0, "p": 0, "alpha_true": [],
                                  "beta_true": [[], []]},
                     "'n' must be a positive integer, got 0"),
    "beer-zero-p": ("generate", {**beer_config(), "p": 0, "alpha_true": []},
                    "'p' must be a positive integer, got 0"),
    "frame-zero-soundings": ("generate", frame_config(soundings=0),
                             "'soundings' must be a positive integer, got 0"),
    # JSON's NaN and Infinity are numbers: a NaN truth failed after the spec
    # was built, a NaN bench alpha0 made every cell an error row, and a
    # negative n_seeds wrote a header-only CSV
    "nan-alpha_true": ("generate", {**exp_config(), "alpha_true": [float("nan"), 0.25]},
                       "'alpha_true' must be finite, got nan"),
    "inf-beta_true": ("generate", {**exp_config(), "beta_true": [[1.0, float("inf")]] * 2},
                      "'beta_true' must be finite, got inf"),
    "bench-nan-alpha0": ("bench", {**_bench(exp_config(s=2), 2), "alpha0": [float("nan"), 0.3]},
                         "'alpha0' must be finite, got nan"),
    "bench-negative-n_seeds": ("bench", {**_bench(exp_config(s=2), 2), "n_seeds": -1},
                               "'n_seeds' must be a nonnegative integer, got -1"),
    # a JSON integer too large for a float raised OverflowError (exit 1), and
    # blocks of the wrong type raised a TypeError that named no key
    "grid-huge-hi": ("generate", {**exp_config(), "grids": [{"length": 40, "lo": 0.0,
                                                             "hi": 10**400}] * 2},
                     "'hi' must be finite, got an integer too large for a float"),
    "grids-not-a-list": ("generate", {**exp_config(), "grids": 3},
                         "'grids' must be a list, got 3"),
    "frame-not-an-object": ("generate", {**frame_config(), "frame": 3},
                            "'frame' must be a JSON object, got 3"),
    # and so were the bench blocks; an lm block of [] ran with the default settings
    "bench-problem-not-an-object": ("bench", _bench(3, 2),
                                    "'problem' must be a JSON object, got 3"),
    "bench-frame-not-an-object": ("bench", _bench({**frame_config(), "frame": 3}, 2),
                                  "'frame' must be a JSON object, got 3"),
    "bench-grids-not-a-list": ("bench", _bench({**exp_config(), "grids": 3}, 2),
                               "'grids' must be a list, got 3"),
    "bench-lm-not-an-object": ("bench", {**_bench(exp_config(s=2), 2), "lm": []},
                               "'lm' must be a JSON object, got []"),
}


class TestConfigErrors:
    @pytest.mark.parametrize("case", sorted(CONFIG_ERRORS))
    def test_usage_error_names_key(self, tmp_path, capsys, case):
        command, cfg_dict, text = CONFIG_ERRORS[case]
        cfg = write_config(tmp_path / "cfg.json", cfg_dict)
        out = tmp_path / "out"
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert text in err
        if "non-object" in case:
            assert cfg in err
        assert not out.exists()

    def test_blocks_build_the_records_they_name(self):
        """Every frame_grids argument and every GridSpec field set in a
        config gives the records the per-key reader built."""
        frame = cli.spec_from_config(frame_config(
            soundings=2, strong_length=300, weak_length=200, strong_range=[6100.0, 6300.0],
            weak_range=[4900.0, 5100.0], strong_i0=1.5, weak_i0=0.5,
        ))
        assert frame.grids == (
            synth.GridSpec(300, 6100.0, 6300.0, i0_scale=1.5),
            synth.GridSpec(200, 4900.0, 5100.0, i0_scale=0.5),
        ) * 2
        grids = cli.spec_from_config({
            "model": "beer", "n": 3, "p": 2, "seed": 4, "snr": 50, "alpha_true": [1.0, 1.0],
            "beta_true": [[1.0, 0.1, -0.05], [0.9, 0.2, 0.0]],
            "grids": [{"length": 150, "lo": 6180.0, "hi": 6280.0, "i0_scale": 1.3,
                       "tau_scale": [2.0, 0.5], "slit_halfwidth": 0.0},
                      {"length": 110, "lo": 4950, "hi": 5050, "i0_scale": 1,
                       "tau_scale": [1, 1.5], "slit_halfwidth": 3.5}],
        })
        assert grids.grids == (
            synth.GridSpec(150, 6180.0, 6280.0, i0_scale=1.3, tau_scale=(2.0, 0.5),
                           slit_halfwidth=0.0),
            synth.GridSpec(110, 4950.0, 5050.0, i0_scale=1.0, tau_scale=(1.0, 1.5),
                           slit_halfwidth=3.5),
        )
        assert (grids.kind, grids.snr, grids.seed) == ("beer", 50.0, 4)
        npt.assert_array_equal(grids.alpha_true, [1.0, 1.0])
        npt.assert_array_equal(np.stack(grids.beta_true), [[1.0, 0.1, -0.05], [0.9, 0.2, 0.0]])

    def test_integral_numbers_are_integers(self):
        """A JSON number with no fractional part reads as that integer."""
        spec = cli.spec_from_config({**frame_config(soundings=1.0), "n": 3.0, "seed": 4.0})
        ref = cli.spec_from_config(frame_config(soundings=1))
        assert type(spec.seed) is int and spec.seed == ref.seed
        assert spec.grids == ref.grids
        npt.assert_array_equal(np.stack(spec.beta_true), np.stack(ref.beta_true))

    def test_record_blocks_read_json_integers(self):
        """A grids entry, the frame lengths and the lm block are JSON too, so
        their integer fields read 3.0 as 3."""
        exp = cli.spec_from_config({**exp_config(), "grids": [
            {"length": 40.0, "lo": 0.0, "hi": 4.0}, {"length": 45, "lo": 0.0, "hi": 4.0}]})
        assert exp.grids == cli.spec_from_config(exp_config()).grids
        frame = cli.spec_from_config(frame_config(soundings=1, strong_length=300.0))
        assert frame.grids[0] == synth.GridSpec(300, 6180.0, 6280.0)
        lm = from_json(LMConfig, {"max_iter": 7.0, "ftol": 1}, "lm")  # as cmd_bench reads it
        assert type(lm.max_iter) is int and lm == LMConfig(max_iter=7, ftol=1.0)

    def test_huge_integer_is_out_of_range(self):
        """An integer too large for a float is refused by its rule's range,
        not by float()'s OverflowError."""
        with pytest.raises(InvalidInputError, match="'hi' must be finite"):
            read(10**400, "hi", FINITE, json=True)

    def test_snr_reads_a_number_or_infinity_text(self):
        """snr is a JSON number, an integer one too, or "inf"/"infinity" in
        any case."""
        for snr, want in ((50, 50.0), (50.5, 50.5), ("inf", np.inf), ("Infinity", np.inf)):
            spec = cli.spec_from_config({**exp_config(), "snr": snr})
            assert type(spec.snr) is float and spec.snr == want

    def test_config_is_not_modified(self):
        cfg = frame_config(soundings=1)
        cli.spec_from_config(cfg)
        assert cfg == frame_config(soundings=1)


# a child process that caps its own address space, then runs cli.main on
# its arguments: a size that slips past its check fails to allocate at once
# instead of paging for minutes
CAPPED_MAIN = """
import resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from sepvar import cli
sys.exit(cli.main(sys.argv[2:]))
"""
ADDRESS_SPACE = 2**30  # a fit of the README problems needs about 0.4 GB


def run_capped(argv):
    """(exit code, stderr) of ``cli.main(argv)`` in a capped child process."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", CAPPED_MAIN, str(ADDRESS_SPACE), *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=120)
    return done.returncode, done.stderr


# a size read from outside, far too large, each a usage error that names its
# key before anything is built from it: (command, edit, key)
SIZE_ERRORS = {
    # p column names were built one by one
    "manifest-p-1e9": ("fit", lambda b: _edit_manifest(b, p=1000000000), "'p'"),
    # the slit's Toeplitz blocks (59 PiB), or an int() of an infinite tap count
    "manifest-slit_halfwidth-1e6": ("fit", lambda b: _edit_entry(b, slit_halfwidth=1e6),
                                    "'slit_halfwidth'"),
    "manifest-slit_halfwidth-1e308": ("fit", lambda b: _edit_entry(b, slit_halfwidth=1e308),
                                      "'slit_halfwidth'"),
    "config-grid-length-1e308": (
        "generate", {**beer_config(), "grids": [{"length": 1e308, "lo": 6180.0, "hi": 6280.0}] * 2},
        "'length'"),
    "config-frame-soundings-1e308": ("generate", frame_config(soundings=1e308), "'soundings'"),
}


class TestSizeLimits:
    @pytest.mark.parametrize("case", sorted(SIZE_ERRORS))
    def test_usage_error_names_key(self, tmp_path, case):
        command, edit, key = SIZE_ERRORS[case]
        out = tmp_path / "out"
        if command == "fit":
            cfg = write_config(tmp_path / "cfg.json", beer_config(length=20))
            bundle = tmp_path / "bundle"
            assert cli.main(["generate", "--config", cfg, "--out", str(bundle)]) == 0
            edit(bundle)
            rc, err = run_capped(["fit", bundle, "--method", "vp-gl", "--out", out])
        else:
            cfg = write_config(tmp_path / "cfg.json", edit)
            rc, err = run_capped(["generate", "--config", cfg, "--out", out])
        assert rc == 2, err
        assert err.startswith("error: ") and key in err and "Traceback" not in err
        assert not out.exists()


class TestFormats:
    """Output bytes pinned to literals; inputs are literals too, not fits."""

    def _dataset_000(self, tmp_path, spec, problem):
        cli.write_bundle(tmp_path, spec, problem)
        return (tmp_path / "dataset_000.csv").read_bytes()

    def test_exp_dataset_csv_bytes(self, tmp_path):
        t = np.array([0.0, 0.5, 1.25])
        y = np.array([1.0, 0.1, -2.5e-7])
        spec = synth.TruthSpec(
            kind="exp", alpha_true=[1.2, 0.25], beta_true=(np.array([1.0, 0.8]),) * 2,
            grids=(synth.GridSpec(3, 0.0, 1.25),) * 2, snr=100.0, seed=7,
        )
        problem = MultiProblem(
            datasets=(Dataset(t=t, y=y, id="ds000"), Dataset(t=t, y=y, id="ds001")),
            model=ExpDecayModel(n_terms=2),
        )
        assert self._dataset_000(tmp_path, spec, problem) == (
            b"t,y\r\n0,1\r\n0.5,0.10000000000000001\r\n1.25,-2.4999999999999999e-07\r\n"
        )

    def test_beer_dataset_csv_bytes(self, tmp_path):
        aux = BeerAux(
            mu_sun=0.75, i0=np.array([1.0, 1.2, 0.9]),
            tau=np.array([[0.0, 0.3], [1.5, 1e-3], [2.0 / 3.0, 0.1]]), slit_halfwidth=0.5,
        )
        ds = Dataset(
            t=np.array([6180.0, 6180.1, 6180.2]), y=np.array([0.3, 1.0 / 3.0, 0.25]),
            aux=aux, id="ds000",
        )
        spec = synth.TruthSpec(
            kind="beer", alpha_true=[1.0, 1.0], beta_true=(np.array([1.0]),),
            grids=(synth.GridSpec(3, 6180.0, 6180.2),), seed=3,
        )
        problem = MultiProblem(datasets=(ds,), model=BeerLawModel(n_linear=1, p_species=2))
        assert self._dataset_000(tmp_path, spec, problem) == (
            b"t,y,i0,tau_1,tau_2\r\n"
            b"6180,0.29999999999999999,1,0,0.29999999999999999\r\n"
            b"6180.1000000000004,0.33333333333333331,1.2,1.5,0.001\r\n"
            b"6180.1999999999998,0.25,0.90000000000000002,0.66666666666666663,"
            b"0.10000000000000001\r\n"
        )

    RECORDS = [
        {"method": "vp-gl", "s": 2, "snr": 100.0, "seed": 11,
         "alpha_hat": np.array([1.25, 0.2]), "relative_errors": np.array([-0.1, 0.2]),
         "sigma": 0.01, "r_score": 0.999, "conf_bound_alpha": np.array([0.1, 0.03]),
         "wall_time_s": 0.004, "n_iter": 4, "status": "converged-ftol"},
        {"method": "vp-gl", "s": 2, "snr": 100.0, "seed": 12,
         "alpha_hat": np.array([1.0, 0.3]), "relative_errors": np.array([0.3, -0.05]),
         "sigma": 0.02, "r_score": 0.998, "conf_bound_alpha": np.array([0.2, 0.05]),
         "wall_time_s": 0.006, "n_iter": 7, "status": "converged-xtol"},
    ]

    def test_bench_rows(self):
        rows = [cli._record_to_row(r) for r in self.RECORDS]
        rows += [cli._record_to_row(r) for r in cli._summary_records(self.RECORDS)]
        assert rows == [
            ["vp-gl", "2", "100", "11", "1.25;0.20000000000000001",
             "-0.10000000000000001;0.20000000000000001", "0.01", "0.999",
             "0.10000000000000001;0.029999999999999999", "0.0040000000000000001", "4",
             "converged-ftol"],
            ["vp-gl", "2", "100", "12", "1;0.29999999999999999",
             "0.29999999999999999;-0.050000000000000003", "0.02", "0.998",
             "0.20000000000000001;0.050000000000000003", "0.0060000000000000001", "7",
             "converged-xtol"],
            ["vp-gl", "2", "100", "mean", "1.125;0.25",
             "0.099999999999999992;0.075000000000000011", "0.014999999999999999",
             "0.99849999999999994", "0.15000000000000002;0.040000000000000001",
             "0.0050000000000000001", "5.5", "mean"],
            ["vp-gl", "2", "100", "std", "0.125;0.049999999999999989",
             "0.20000000000000001;0.125", "0.0050000000000000001", "0.00050000000000000044",
             "0.050000000000000003;0.010000000000000002", "0.001", "1.5", "std"],
        ]

    def test_bench_error_rows(self, tmp_path):
        """Cells whose fit raises print empty fit columns and no summary."""
        cfg = write_config(
            tmp_path / "bench.json",
            {"methods": ["vp-gl"], "s_values": [2], "snr_values": [100], "n_seeds": 2,
             "base_seed": 1, "alpha0": [0.5, 0.5], "problem": exp_config(s=2)},
        )
        out = tmp_path / "bench.csv"
        assert cli.main(["bench", "--config", cfg, "--out", str(out)]) == 0
        assert out.read_bytes() == (
            b"method,s,snr,seed,alpha_hat,relative_errors,sigma,r_score,"
            b"conf_bound_alpha,wall_time_s,n_iter,status\r\n"
            b"vp-gl,2,100,1835504127,,,nan,nan,,nan,0,error:RankDeficiencyError\r\n"
            b"vp-gl,2,100,1189033389,,,nan,nan,,nan,0,error:RankDeficiencyError\r\n"
        )


class TestFit:
    def test_noiseless_fit_recovers_truth(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", exp_config(snr="inf"))
        bundle = tmp_path / "bundle"
        cli.main(["generate", "--config", cfg, "--out", str(bundle)])
        out = tmp_path / "fit.json"
        rc = cli.main(
            ["fit", str(bundle), "--method", "vp-gl",
             "--alpha0", "1.4,0.3", "--out", str(out)]
        )
        assert rc == 0
        record = json.loads(out.read_text())
        npt.assert_allclose(record["alpha_hat"], [1.2, 0.25], rtol=1e-6)
        assert max(abs(e) for e in record["relative_errors"]) < 1e-7
        res_csv = tmp_path / "fit_residuals.csv"
        assert res_csv.is_file()
        lines = res_csv.read_text().strip().splitlines()
        assert lines[0] == "dataset,t,residual"
        assert len(lines) == 1 + 40 + 45

    def test_all_methods_run(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", exp_config(snr=100.0))
        bundle = tmp_path / "bundle"
        cli.main(["generate", "--config", cfg, "--out", str(bundle)])
        for method in ("vp-gl", "vp-km", "vp-naive", "nls-full"):
            out = tmp_path / f"{method}.json"
            rc = cli.main(
                ["fit", str(bundle), "--method", method,
                 "--alpha0", "1.4,0.3", "--out", str(out)]
            )
            assert rc == 0
            record = json.loads(out.read_text())
            assert record["method"] == method
            assert record["status"].startswith("converged")

    def test_unknown_method_is_usage_exit(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", str(tmp_path), "--method", "bogus", "--out", "x.json"])
        assert exc.value.code == 2

    def test_solver_failure_exit_code(self, tmp_path):
        """A rank-collapsing initial guess (equal decay rates) aborts the fit
        and exits 1 with an error document."""
        cfg = write_config(tmp_path / "cfg.json", exp_config(snr="inf"))
        bundle = tmp_path / "bundle"
        cli.main(["generate", "--config", cfg, "--out", str(bundle)])
        out = tmp_path / "fit.json"
        rc = cli.main(
            ["fit", str(bundle), "--method", "vp-gl",
             "--alpha0", "0.5,0.5", "--out", str(out)]
        )
        assert rc == 1
        doc = json.loads(out.read_text())
        assert doc["error"] == "RankDeficiencyError"

    def test_bad_alpha0_is_usage_error(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", exp_config())
        bundle = tmp_path / "bundle"
        cli.main(["generate", "--config", cfg, "--out", str(bundle)])
        rc = cli.main(
            ["fit", str(bundle), "--method", "vp-gl",
             "--alpha0", "1.0", "--out", str(tmp_path / "o.json")]
        )
        assert rc == 2

    def test_non_finite_alpha0_is_usage_error(self, tmp_path, capsys):
        """A start that parses as a float but is not finite is refused like
        unparsable text, not fitted into an InvalidInputError record."""
        cfg = write_config(tmp_path / "cfg.json", exp_config())
        bundle = tmp_path / "bundle"
        cli.main(["generate", "--config", cfg, "--out", str(bundle)])
        out = tmp_path / "o.json"
        rc = cli.main(["fit", str(bundle), "--method", "vp-gl", "--alpha0", "nan,0.3",
                       "--out", str(out)])
        assert rc == 2
        assert "--alpha0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("alpha_true, text", [
        (["1.2", True], "'alpha_true' must be a number, got '1.2'"),
        ([1.2], "'alpha_true' must have length p=2"),
        ([float("nan"), 0.25], "'alpha_true' must be finite, got nan"),
    ], ids=["text-and-bool", "short", "nan"])
    def test_manifest_alpha_true_is_read_strictly(self, tmp_path, capsys, alpha_true, text):
        """The manifest's truth vector goes through the config float reader,
        before the fit: np.asarray(..., float) read "1.2" as 1.2 and true as
        1.0, and a short vector failed only after the fit, as a solver
        error."""
        cfg = write_config(tmp_path / "cfg.json", exp_config())
        bundle = tmp_path / "bundle"
        cli.main(["generate", "--config", cfg, "--out", str(bundle)])
        manifest_path = bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["truth"]["alpha_true"] = alpha_true
        manifest_path.write_text(json.dumps(manifest))
        out = tmp_path / "o.json"
        rc = cli.main(["fit", str(bundle), "--method", "vp-gl", "--alpha0", "1.0,0.3",
                       "--out", str(out)])
        assert rc == 2
        assert text in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snr, recorded", [("inf", "inf"), ("Infinity", "inf"), (50, 50)])
    def test_manifest_snr_reads_as_the_config_snr(self, tmp_path, snr, recorded):
        """The manifest's SNR is read like a config's, "inf" in any case
        included, and the record copies the value read."""
        cfg = write_config(tmp_path / "cfg.json", exp_config())
        bundle = tmp_path / "bundle"
        cli.main(["generate", "--config", cfg, "--out", str(bundle)])
        _edit_manifest(bundle, snr=snr)
        out = tmp_path / "o.json"
        assert cli.main(["fit", str(bundle), "--method", "vp-gl", "--alpha0", "1.0,0.3",
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text())["snr"] == recorded

    def test_manifest_truth_is_an_object(self, tmp_path, capsys):
        """A manifest truth that is not a JSON object is a usage error that
        names it; a list of it raised an AttributeError (exit 1)."""
        cfg = write_config(tmp_path / "cfg.json", exp_config())
        bundle = tmp_path / "bundle"
        cli.main(["generate", "--config", cfg, "--out", str(bundle)])
        manifest_path = bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["truth"] = [manifest["truth"]]
        manifest_path.write_text(json.dumps(manifest))
        out = tmp_path / "o.json"
        rc = cli.main(["fit", str(bundle), "--method", "vp-gl", "--alpha0", "1.0,0.3",
                       "--out", str(out)])
        assert rc == 2
        assert "'truth' must be a JSON object" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_truth_has_no_relative_errors(self, tmp_path):
        """A species that is absent (a zero in alpha_true) is fitted like any
        other; the record leaves out the relative errors, which the zero
        truth does not have, instead of failing after the fit."""
        cfg = write_config(tmp_path / "cfg.json",
                           {**beer_config(snr=200.0), "alpha_true": [1.0, 0.0]})
        bundle = tmp_path / "bundle"
        assert cli.main(["generate", "--config", cfg, "--out", str(bundle)]) == 0
        alphas = []
        for method in ("vp-gl", "vp-km", "vp-naive", "nls-full"):
            out = tmp_path / f"{method}.json"
            assert cli.main(["fit", str(bundle), "--method", method,
                             "--alpha0", "1.1,0.1", "--out", str(out)]) == 0
            record = json.loads(out.read_text())
            assert record["status"].startswith("converged")
            assert "relative_errors" not in record
            alphas.append(record["alpha_hat"])
        npt.assert_allclose(alphas, [alphas[0]] * 4, rtol=0, atol=1e-8)
        npt.assert_allclose(alphas[0], [1.0, 0.0], atol=1e-2)

    def test_missing_bundle_is_usage_error(self, tmp_path):
        rc = cli.main(
            ["fit", str(tmp_path / "nothing"), "--method", "vp-gl",
             "--out", str(tmp_path / "o.json")]
        )
        assert rc == 2


def _beer_grids(*grids, seed, alpha_true=(1.0, 1.0)):
    return {"model": "beer", "n": 3, "p": 2, "seed": seed, "snr": 200,
            "alpha_true": list(alpha_true),
            "grids": [dict(zip(("length", "lo", "hi", "slit_halfwidth"), g)) for g in grids]}


def _exp_grids(*grids, seed):
    return {"model": "exp", "n": 2, "p": 2, "seed": seed, "snr": 100, "alpha_true": [1.2, 0.25],
            "grids": [dict(zip(("length", "lo", "hi"), g)) for g in grids]}


# equal lengths on grids shifted per dataset, as a per-sounding spectral
# calibration gives: one group with each dataset's own powers of nu and slit
# Toeplitz blocks
SHIFTED = [(120, 6180.0, 6280.0), (120, 6180.3, 6280.3), (120, 6180.6, 6280.7),
           (120, 6180.9, 6281.1)]

# config and start of each layout whose four fits must agree
LAYOUTS = {
    # one group of 40 and 50 points, padded to 50
    "problem": (_exp_grids((40, 0.0, 4.0), (50, 0.0, 5.0), seed=7), "1.0,0.3"),
    # one delta-slit (unconvolved) Beer group
    "delta": (_beer_grids(*[(120, 6180.0, 6280.0, 0)] * 2, seed=5), "1.1,0.9"),
    "shifted": (_beer_grids(*SHIFTED, seed=13), "1.1,0.9"),
    # a 65-tap slit on 40-point grids at unit spacing, one grid shifted by
    # 0.5: the kernel is wider than the grid, so each reflected row, the row
    # of z whose convolution gives dphi_l^T z included, turns at its edges
    # more than once
    "wide": (_beer_grids((40, 0.0, 39.0, 8), (40, 0.0, 39.0, 8), (40, 0.5, 39.5, 8), seed=17),
             "1.1,0.9"),
    # lengths 40, 70, 45, 90: the two length buckets interleave in problem
    # order, groups (0, 2) and (1, 3), and each dataset goes back to its place
    "ragged": (_exp_grids((40, 0.0, 4.0), (70, 0.0, 7.0), (45, 0.0, 4.5), (90, 0.0, 9.0),
                          seed=9), "1.0,0.3"),
    # a species that is absent: a zero truth has no relative errors
    "zero": (_beer_grids(*SHIFTED, seed=13, alpha_true=(1.0, 0.0)), "1.1,0.1"),
}


class TestLayouts:
    @pytest.mark.parametrize("name", sorted(LAYOUTS))
    def test_methods_agree(self, tmp_path, name):
        """Every method's fit record of a generated bundle, the naive and
        joint ones included: alpha_hat agrees to 1e-6 and every bound is
        finite."""
        cfg, alpha0 = LAYOUTS[name]
        bundle = tmp_path / name
        config = write_config(tmp_path / "cfg.json", cfg)
        assert cli.main(["generate", "--config", config, "--out", str(bundle)]) == 0
        records = []
        for method in cli.METHODS:
            out = tmp_path / f"{method}.json"
            assert cli.main(["fit", str(bundle), "--method", method, "--alpha0", alpha0,
                             "--out", str(out)]) == 0
            records.append(json.loads(out.read_text()))
        for record in records:
            npt.assert_allclose(record["alpha_hat"], records[0]["alpha_hat"], rtol=1e-6, atol=0)
            assert np.isfinite(np.asarray(record["conf_bound_alpha"], dtype=float)).all()
            assert ("relative_errors" in record) == (name != "zero")


class TestBench:
    def test_small_sweep(self, tmp_path):
        cfg = write_config(
            tmp_path / "bench.json",
            {
                "methods": ["vp-gl", "vp-km"],
                "s_values": [1, 2],
                "snr_values": [100.0],
                "n_seeds": 2,
                "base_seed": 42,
                "alpha0": [1.4, 0.3],
                "problem": exp_config(s=2, snr="inf"),
            },
        )
        out = tmp_path / "bench.csv"
        rc = cli.main(["bench", "--config", cfg, "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "method"
        # 2 methods x 2 sizes x 1 snr x 2 seeds, plus mean/std per group
        assert len(lines) == 1 + 8 + 8

    def test_zero_truth_prints_empty_relative_errors(self, tmp_path):
        """Cells with a zero in alpha_true are fitted and summarized; their
        relative error column is empty, as for a cell whose fit raised."""
        cfg = write_config(
            tmp_path / "bench.json",
            {"methods": ["vp-gl"], "s_values": [2], "snr_values": [100], "n_seeds": 2,
             "alpha0": [1.4, 0.3], "problem": {**exp_config(s=2), "alpha_true": [1.2, 0.0]}},
        )
        out = tmp_path / "bench.csv"
        assert cli.main(["bench", "--config", cfg, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().splitlines()]
        column = rows[0].index("relative_errors")
        assert [row[-1] for row in rows[1:]] == ["converged-ftol"] * 2 + ["mean", "std"]
        assert [row[column] for row in rows[1:]] == [""] * 4

    def test_cell_seeds_deterministic(self):
        a = cli._cell_seed(42, 3)
        b = cli._cell_seed(42, 3)
        c = cli._cell_seed(42, 4)
        assert a == b != c

    def test_repeat_runs_give_same_rows(self, tmp_path):
        cfg_dict = {
            "methods": ["vp-gl"],
            "s_values": [2],
            "snr_values": [50.0],
            "n_seeds": 3,
            "base_seed": 9,
            "alpha0": [1.4, 0.3],
            "problem": exp_config(s=2, snr="inf"),
        }
        cfg = write_config(tmp_path / "bench.json", cfg_dict)
        out1, out2 = tmp_path / "b1.csv", tmp_path / "b2.csv"
        cli.main(["bench", "--config", cfg, "--out", str(out1)])
        cli.main(["bench", "--config", cfg, "--out", str(out2)])

        def strip_times(text):
            rows = [line.split(",") for line in text.strip().splitlines()]
            wall = rows[0].index("wall_time_s")
            for row in rows[1:]:
                row[wall] = ""
            return rows

        assert strip_times(out1.read_text()) == strip_times(out2.read_text())

    def test_unknown_method_in_config_is_usage_error(self, tmp_path):
        cfg = write_config(
            tmp_path / "bench.json",
            {"methods": ["nope"], "problem": exp_config()},
        )
        rc = cli.main(["bench", "--config", cfg, "--out", str(tmp_path / "b.csv")])
        assert rc == 2

    @pytest.mark.parametrize("lm, key", [({"max_iters": 1}, "max_iters"),
                                         ({"max_iter": 0}, "max_iter"),
                                         ({"ftol": True}, "ftol"),
                                         ({"max_iter": True}, "max_iter"),
                                         ({"max_iter": 2.5}, "max_iter")])
    def test_bad_lm_block_is_usage_error(self, tmp_path, capsys, lm, key):
        """An unknown key or an invalid value, a bool or a fractional
        iteration count among them, stops the sweep before any cell runs,
        and the message names the key."""
        cfg = write_config(
            tmp_path / "bench.json",
            {"methods": ["vp-gl"], "s_values": [2], "lm": lm, "problem": exp_config()},
        )
        out = tmp_path / "b.csv"
        assert cli.main(["bench", "--config", cfg, "--out", str(out)]) == 2
        assert repr(key) in capsys.readouterr().err
        assert not out.exists()

    def test_null_lm_block_is_the_default(self, tmp_path):
        """An lm block that is absent or null runs with the default settings."""
        rows = []
        for name, extra in (("absent", {}), ("null", {"lm": None}), ("empty", {"lm": {}})):
            cfg = write_config(tmp_path / f"{name}.json",
                               {**_bench(exp_config(s=1), 1), "alpha0": [1.4, 0.3], **extra})
            out = tmp_path / f"{name}.csv"
            assert cli.main(["bench", "--config", cfg, "--out", str(out)]) == 0
            table = [line.split(",") for line in out.read_text().splitlines()]
            wall = table[0].index("wall_time_s")
            rows.append([row[:wall] + row[wall + 1 :] for row in table])
        assert rows[0] == rows[1] == rows[2]

    def test_frame_problem_sweep(self, tmp_path):
        """A frame problem is cut to s/2 soundings of a strong and a weak band."""
        cfg = write_config(tmp_path / "bench.json",
                           {**_bench({**frame_config(), "snr": 200}, 2), "alpha0": [1.1, 0.9]})
        out = tmp_path / "bench.csv"
        assert cli.main(["bench", "--config", cfg, "--out", str(out)]) == 0
        header, row, *summary = [line.split(",") for line in out.read_text().splitlines()]
        record = dict(zip(header, row))
        assert (record["method"], record["s"]) == ("vp-gl", "2")
        assert record["status"].startswith("converged")
        npt.assert_allclose([float(a) for a in record["alpha_hat"].split(";")], [1.0, 1.0],
                            rtol=0.05)
        assert [r[header.index("seed")] for r in summary] == ["mean", "std"]

    def test_empty_sweep_header_only(self, tmp_path):
        cfg = write_config(
            tmp_path / "bench.json",
            {
                "methods": [],
                "s_values": [],
                "snr_values": [],
                "n_seeds": 0,
                "problem": exp_config(),
            },
        )
        out = tmp_path / "b.csv"
        rc = cli.main(["bench", "--config", cfg, "--out", str(out)])
        assert rc == 0
        assert out.read_text().strip().splitlines() == [",".join(cli.BENCH_COLUMNS)]
