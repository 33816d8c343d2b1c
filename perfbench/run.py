#!/usr/bin/env python3
"""Scenario benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds scenario_bench (the neatbound
library plus perfbench/src, Release, one CMake build tree under
.bench_build/), then runs one workload and prints one JSON object as
the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; setup_s is the median of
SETUP_REPEATS cold set-ups, each in a fresh scenario_bench process.
--trace 1 reports the per-layer metrics of a separate traced pass.
Exits non-zero without a result when the build or scenario_bench fails.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("dense-grid", "sparse-precision", "observed-mix")
SETUP_REPEATS = 41
BENCH_TIMEOUT_S = 170


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (root / base).resolve()


def build_bench(root, out):
    """Configures and builds scenario_bench; returns its path."""
    if not (root / "CMakeLists.txt").is_file() or not (root / "src").is_dir():
        raise RuntimeError(f"no neatbound sources under {root}")
    tree = out / "perfbench"
    tree.mkdir(parents=True, exist_ok=True)
    with open(out / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (tree / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(tree),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(tree), "--target",
                      "scenario_bench", "-j", "3"])
        for step in steps:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stdout)
                raise RuntimeError("build failed: " + " ".join(step))
    return tree / "scenario_bench"


def run_bench(bench, args):
    done = subprocess.run([str(bench)] + args, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          timeout=BENCH_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"scenario_bench exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("scenario_bench printed nothing")
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--toy", action="store_true",
                        help="tiny specs, for the self-test")
    parser.add_argument("--pins", default=str(HERE / "pinned_digests.json"),
                        help="pinned summary digests (workload -> seed -> hex)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = Path.cwd()
    out = build_dir(root)
    try:
        bench = build_bench(root, out)
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--work", str(out / "work")]
        if args.toy:
            common.append("--toy")
        setup = []
        if args.trace == "0":
            for _ in range(SETUP_REPEATS):
                setup.append(run_bench(
                    bench, common + ["--setup-only"])["setup_s"])
        result = run_bench(bench, common + [
            "--seconds", str(args.seconds), "--trace", args.trace,
            "--pins", args.pins])
    except (RuntimeError, subprocess.TimeoutExpired, OSError,
            ValueError) as error:
        sys.stderr.write(f"perfbench: {error}\n")
        return 1

    digest = result.pop("digest", "")
    sys.stderr.write(f"perfbench: digest {args.workload} seed {args.seed}"
                     f"{' toy' if args.toy else ''}: {digest}\n")
    walls = ", ".join(f"{w:.4f}" for w in result.pop("unit_wall_s", []))
    sys.stderr.write(f"perfbench: untraced unit wall times (s): {walls}\n")
    for failure in result.pop("failures", []):
        sys.stderr.write(f"perfbench: check failed: {failure}\n")
    if setup:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(setup), "unit": "s"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
