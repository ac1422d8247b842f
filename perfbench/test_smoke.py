"""Smoke test of the benchmark at toy sizes (frame s=4, 16 starts, s=2).

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that count metrics repeat exactly, that the correctness gate trips on a
perturbed result, and that layer self times plus the benchmark's residue
add up to the traced wall time of every operation.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
# metrics that are counts, or computed from counts and shapes
EXACT = {"lm.accept_ratio", "factor.qr_gflop", "stats.H_mb", "cli.bundle_mb",
         "returned_frac", "recovered_frac"}


def exact(section):
    return [m["name"] for m in SPEC[section]
            if m["unit"].startswith("count") or m["name"] in EXACT]


def run_cli(workload, trace, seed=3, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return out


@pytest.fixture(scope="module")
def results():
    got = {}
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            out = run_cli(w["name"], trace)
            assert out.returncode == 0, out.stderr
            got[w["name"], trace] = json.loads(out.stdout.strip().splitlines()[-1])
    return got


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_emitted_with_unit(results, trace, section):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for w in SPEC["workloads"]:
        res = results[w["name"], trace]
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
        assert set(res["metrics"]) == set(expected)
        for name, m in res["metrics"].items():
            assert m["unit"] == expected[name]
            assert isinstance(m["value"], float) and np.isfinite(m["value"])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_counts_repeat_across_runs(results, trace, section):
    names = exact(section)
    assert len(names) >= 2
    for w in SPEC["workloads"]:
        out = run_cli(w["name"], trace)
        again = json.loads(out.stdout.strip().splitlines()[-1])["metrics"]
        first = results[w["name"], trace]["metrics"]
        for name in names:
            assert again[name]["value"] == first[name]["value"], (w["name"], name)


def _first_round(name, scratch):
    workload = bench.WORKLOAD_CLASSES[name](seed=3, size="smoke")
    workload.scratch = scratch / name
    problems, workload.setups = bench.set_up_all(workload.configs(), workload.scratch)
    workload.prepare(problems)
    workload.warm_up()
    return workload, [bench.run_op(p) for p in dict.fromkeys(workload.round(0))]


def _perturbed(smp, factor):
    return bench.Sample(smp.pair, smp.fit_s, smp.diag_s, smp.error,
                        smp.alpha_hat * factor, smp.lm)


def test_gate_trips_on_perturbed_alpha(tmp_path):
    frame, samples = _first_round("frame-retrieval", tmp_path)
    assert all(frame.solved(s) for s in samples)
    frame.check_round(samples)
    with pytest.raises(bench.GateFailure):
        frame.solved(_perturbed(samples[0], 1.0 + 2e-3))
    with pytest.raises(bench.GateFailure):
        frame.check_round([_perturbed(samples[0], 1.0 + 1e-5)] + samples[1:])

    ref, samples = _first_round("reference-joint", tmp_path)
    assert all(ref.solved(s) for s in samples)
    with pytest.raises(bench.GateFailure):
        ref.solved(_perturbed(samples[0], 1.0 + 1e-5))

    multi, samples = _first_round("exp-multistart", tmp_path)
    reference = [s for s in samples if s.pair.kind == "ref"][0]
    assert multi.solved(reference)
    with pytest.raises(bench.GateFailure):
        multi.solved(_perturbed(reference, 1.2))
    recovered = [s for s in samples if s.pair.kind == "op" and multi.solved(s)]
    assert recovered and not multi.solved(_perturbed(recovered[0], 1.0 + 1e-5))


def test_repeat_check_trips_on_changed_result(tmp_path):
    workload, samples = _first_round("reference-joint", tmp_path)
    run = bench.Run(workload, trace=False)
    run.record(samples[0], traced=False)
    run.record(samples[0], traced=False)
    with pytest.raises(bench.GateFailure):
        run.record(_perturbed(samples[0], 1.0 + 1e-15), traced=False)


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_layer_self_times_add_up_to_traced_wall(name, tmp_path):
    workload, _ = _first_round(name, tmp_path)
    run = bench.Run(workload, trace=True)
    run.loop(0.0)
    assert run.traced
    for smp in run.traced:
        t = smp.trace
        layers = sum(t.self_s.values())
        assert abs(layers + t.residue_s - t.wall) <= 1e-9
        assert 0.0 <= t.residue_s <= 0.05 * t.wall
        assert {n for n, _, _ in t.roots} <= {"solver.fit", "stats.compute_diagnostics"}
    assert bench.check_accounting(run) <= 1e-9


def test_bare_directory_exits_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_cli("exp-multistart", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
