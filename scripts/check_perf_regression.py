#!/usr/bin/env python3
"""Fail when engine throughput regressed against the recorded baseline.

Usage:
    check_perf_regression.py BASELINE CURRENT_JSON [--max-regression F]

CURRENT_JSON is a bench_engine_throughput JSON summary (see
scripts/perf_baseline).  BASELINE is either another such summary
(e.g. BENCH_engine.json) or a BENCH_history.jsonl trajectory, in which
case the *latest* entry's rounds_per_sec is the reference.  The
comparison is on a rate, so the current run may be downsized (fewer
rounds/seeds) relative to the baseline.  Exit status 1 when

    current_rounds_per_sec < baseline_rounds_per_sec * (1 - F)

with F defaulting to 0.25 (the CI gate).  Machines differ; F is a guard
against order-of-magnitude regressions, not a microbenchmark oracle —
override with --max-regression when comparing across hardware tiers.
"""
import argparse
import json
import sys


def latest_history_entry(path: str) -> dict:
    entries = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    if not entries:
        raise SystemExit(f"{path}: empty history file")
    return entries[-1]


def perf_entry(path: str) -> dict:
    """The meta/entry dict holding the throughput keys for `path`."""
    if path.endswith(".jsonl"):
        entry = latest_history_entry(path)
        print(f"{path}: latest entry {entry.get('sha', '?')[:12]} "
              f"({entry.get('date', '?')})")
        return entry
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["meta"]


def throughput(entry: dict, path: str, key: str) -> float:
    try:
        value = float(entry[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise SystemExit(f"{path}: missing/invalid {key}: {exc}")
    if value <= 0:
        raise SystemExit(f"{path}: non-positive {key} {value}")
    return value


def gate(label: str, base: float, cur: float, max_regression: float) -> bool:
    floor = base * (1.0 - max_regression)
    ratio = cur / base
    print(f"{label}: baseline {base:,.0f} rounds/s   current {cur:,.0f} "
          f"rounds/s   ratio {ratio:.2f}   floor {floor:,.0f}")
    if cur < floor:
        print(f"FAIL: {label} regressed more than {max_regression:.0%}",
              file=sys.stderr)
        return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--max-regression", type=float, default=0.25,
                        help="allowed fractional slowdown (default 0.25)")
    args = parser.parse_args()

    base = perf_entry(args.baseline)
    cur = perf_entry(args.current)
    ok = gate("grid", throughput(base, args.baseline, "rounds_per_sec"),
              throughput(cur, args.current, "rounds_per_sec"),
              args.max_regression)
    # The same-cell row is gated once both sides carry it (older history
    # entries predate it).
    key = "samecell_serial_rounds_per_sec"
    if key in base and key in cur:
        ok = gate("same-cell", throughput(base, args.baseline, key),
                  throughput(cur, args.current, key),
                  args.max_regression) and ok
    if not ok:
        return 1
    print("OK: within the regression budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
