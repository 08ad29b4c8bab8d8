"""Run one workload of the ratio-rules benchmark and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload mine --seed 1 --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` splits the time between an untraced and a traced pass of
the same workload and reports the per-layer ledger instead.
``--smoke`` shrinks every input so a run takes seconds (used by
``perfbench/test_smoke.py``).

This process makes the seeded inputs, then runs the program under test
in a separate runner process (``runner.py``), so the input generator and
the output checks stay out of the program's peak RSS.  Every metric is
printed as ``name value unit`` before the last line, which is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The program
is imported from ``src/`` of the current directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

#: One BLAS/OpenMP thread per program process: two pool workers with
#: two OpenBLAS threads each oversubscribe a 2-core host.  Set before
#: numpy is first imported; the runner and its workers inherit it.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

WORKLOAD_NAMES = ("mine", "fill", "ingest", "serve", "serve-scale")

#: The runner must finish well inside the 180 s a run may take.
RUNNER_TIMEOUT_S = 150


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, for the self-test"
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: {root} holds no src/repro; run from a source checkout",
            file=sys.stderr,
        )
        return 2
    for name in THREAD_ENV:
        os.environ[name] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    )
    sys.path.insert(0, str(root / "src"))

    import harness
    import workloads

    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        started = time.perf_counter()
        workload = workloads.WORKLOADS[args.workload](
            work, args.seed, smoke=args.smoke
        )
        workload.prepare()
        state, out = work / "workload.pickle", work / "result.json"
        with open(state, "wb") as handle:
            pickle.dump(workload, handle)
        runner = subprocess.run(
            [
                sys.executable,
                str(BENCH_DIR / "runner.py"),
                str(state),
                str(args.seconds),
                str(args.trace),
                str(out),
            ],
            timeout=RUNNER_TIMEOUT_S,
        )
        if runner.returncode != 0:
            print(f"error: runner exited with {runner.returncode}", file=sys.stderr)
            return 1
        with open(out) as handle:
            raw = json.load(handle)
        table = harness.metric_tables(root)[raw["table"]]
        if raw["table"] == "per_layer":
            table += workload.extra_layers
        result = harness.finish(raw, workload.verify(raw["verify"]), table)
        print(harness.host_line())
        print(f"wall {time.perf_counter() - started:.1f} s")
        for line in result.pop("lines"):
            print(line)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
