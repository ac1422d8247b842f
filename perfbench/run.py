"""Run one workload of the sepvar benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; the program is imported from
``src/``. Workloads: frame-retrieval, exp-multistart, reference-joint, or
``all`` for the three in turn. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics from spans around each call into a
sepvar module. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 0
only when every correctness check passed. The default seed is 1; seed 9001
is held out for re-checking a claimed gain.

Each workload runs in a fresh child process whose environment pins the BLAS
thread count, so LM iteration counts repeat exactly and peak RSS is the
workload's own.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TIMEOUT_S = 175


def run_one(argv, env):
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "bench.py"), *argv],
            cwd=ROOT, env=env, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3
    return done.returncode


def expand(argv):
    """One argument list per workload; ``--workload all`` names every
    workload in BENCHMARK.json."""
    at = argv.index("--workload") + 1 if "--workload" in argv else len(argv)
    if argv[at:at + 1] != ["all"]:
        return [argv]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [argv[:at] + [w["name"]] + argv[at + 1:] for w in spec["workloads"]]


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "sepvar" / "__init__.py").is_file():
        print(f"error: no sepvar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env.update({var: str(BLAS_THREADS) for var in THREAD_VARS})
    return max([run_one(args, env) for args in expand(argv)])


if __name__ == "__main__":
    sys.exit(main())
