#!/usr/bin/env python3
"""Toy-size self-test of the scenario benchmark.

    python3 perfbench/tests/selftest.py

Run from the repository root.  For every workload, at toy size:
  * --trace 0 prints every end-to-end metric of BENCHMARK.json with its
    unit, and --trace 1 every per-layer metric, both as the last stdout
    line with exactly the keys correct/attempted/failed/metrics;
  * the traced pass reproduces the untraced digest (scenario_bench fails
    the traced units' runs otherwise, so failed must be 0);
  * a corrupted pinned digest shows up as failed operations with exit
    code 0, not as a crash, and the true digest passes the same pin check;
  * a directory holding only BENCHMARK.json and perfbench/ makes run.py
    exit non-zero without printing a result.
Exits 0 when every check passes.
"""

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
RUN = ROOT / "perfbench" / "run.py"
SEED = 1
FAILURES = []


def check(condition, message):
    if not condition:
        FAILURES.append(message)
        print(f"FAIL: {message}")


def run(workload, trace, pins=None, cwd=ROOT):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(SEED), "--seconds", "0", "--trace", str(trace), "--toy"]
    if pins is not None:
        cmd += ["--pins", str(pins)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def result_of(done, label):
    check(done.returncode == 0, f"{label}: exit code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        return None
    result = json.loads(lines[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    return result


def digest_of(done):
    match = re.search(r"digest \S+ seed \d+ toy: (0x[0-9a-f]{16})",
                      done.stderr)
    return match.group(1) if match else None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    with tempfile.TemporaryDirectory() as tmp:
        no_pins = Path(tmp) / "none.json"
        no_pins.write_text("{}")
        for workload in (w["name"] for w in spec["workloads"]):
            digests = {}
            for trace in (0, 1):
                label = f"{workload} --trace {trace}"
                done = run(workload, trace, no_pins)
                result = result_of(done, label)
                if result is None:
                    continue
                digests[trace] = digest_of(done)
                check(result["correct"] is True and result["failed"] == 0,
                      f"{label}: correct={result['correct']} "
                      f"failed={result['failed']}")
                check(result["attempted"] >= 1, f"{label}: nothing attempted")
                for metric in expected[trace]:
                    got = result["metrics"].get(metric["name"])
                    check(got is not None, f"{label}: {metric['name']} missing")
                    if got is not None:
                        check(got["unit"] == metric["unit"],
                              f"{label}: {metric['name']} unit {got['unit']}")
                check(len(result["metrics"]) == len(expected[trace]),
                      f"{label}: {len(result['metrics'])} metrics printed")
            check(digests.get(0) is not None and
                  digests.get(0) == digests.get(1),
                  f"{workload}: traced digest {digests.get(1)} != untraced "
                  f"{digests.get(0)}")

            key = f"{workload}:toy"
            bad = Path(tmp) / "bad.json"
            bad.write_text(json.dumps({key: {str(SEED): "0x" + "0" * 16}}))
            result = result_of(run(workload, 0, bad), f"{workload} bad pin")
            if result is not None:
                check(result["correct"] is False and
                      result["failed"] == result["attempted"] > 0,
                      f"{workload}: corrupted pin gave correct="
                      f"{result['correct']} failed={result['failed']}")
            good = Path(tmp) / "good.json"
            good.write_text(json.dumps({key: {str(SEED): digests.get(0)}}))
            result = result_of(run(workload, 0, good), f"{workload} true pin")
            if result is not None:
                check(result["correct"] is True and result["failed"] == 0,
                      f"{workload}: true pin gave failed={result['failed']}")

        bare = Path(tmp) / "bare"
        shutil.copytree(ROOT / "perfbench", bare / "perfbench")
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = run("dense-grid", 0, cwd=bare)
        check(done.returncode != 0 and not done.stdout.strip(),
              f"bare directory: exit {done.returncode}, "
              f"stdout {done.stdout.strip()[:80]!r}")

    print("selftest:", "FAILED" if FAILURES else "ok",
          f"({len(FAILURES)} failure(s))")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
