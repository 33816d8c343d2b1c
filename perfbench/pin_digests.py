#!/usr/bin/env python3
"""Re-records perfbench/pinned_digests.json.

    python3 perfbench/pin_digests.py [--seeds 0-20]

Run from the repository root.  Runs one unit of every workload for each
seed (and seed 1 of every --toy workload) with no pins, reads the summary
digest run.py reports, and writes them as {workload: {seed: digest}}.
Only a change that alters simulation results on purpose re-pins, and it
says so.
"""

import argparse
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("dense-grid", "sparse-precision", "observed-mix")


def digest(workload, seed, toy, no_pins):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "0",
           "--pins", str(no_pins)] + (["--toy"] if toy else [])
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: checks failed\n"
                         + done.stderr)
    return re.search(r"digest \S+ seed \d+(?: toy)?: (0x[0-9a-f]{16})",
                     done.stderr).group(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-20", help="inclusive range A-B")
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    pins = {}
    with tempfile.TemporaryDirectory() as tmp:
        no_pins = Path(tmp) / "none.json"
        no_pins.write_text("{}")
        for workload in WORKLOADS:
            pins[workload] = {str(seed): digest(workload, seed, False, no_pins)
                              for seed in range(first, last + 1)}
            pins[workload + ":toy"] = {"1": digest(workload, 1, True, no_pins)}
    (HERE / "pinned_digests.json").write_text(
        json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
