#!/usr/bin/env python3
"""Diff two BENCH_*.json files and fail on wall-time regressions.

Usage:
    bench_compare.py BASELINE.json CURRENT.json [--threshold=0.10]

Compares every numeric field whose name is `wall_ms` or ends in
`_wall_ms` / starts with a per-size prefix ending in `wall_ms_serial` /
`wall_ms_parallel` (the round_latency sweep layout), printing a table of
baseline vs current with the relative change. Exits non-zero when any
wall-time field regressed by more than the threshold (default +10%).

A field present in the current file but absent from the baseline (a
freshly added metric — e.g. the sparse-ladder keys a new bench revision
emits) is not a regression and must not crash the gate: each such key is
reported as a per-key "new metric, no baseline" note and the comparison
still exits 0. Refresh the committed baseline to start tracking it.

Non-timing fields are reported informationally when they differ in a way
worth flagging (`bit_identical` flipping to "no" is always an error;
`allocs_per_round_steady` growing beyond the threshold is a warning,
since allocation counts are a contract the workspace refactor
established but legitimately move with config changes; `partial_bytes`
from the shard workers tracks the on-disk partial size — growth warns;
a `sha256_impl` flip between baseline and current is called out, since
every hashing-bound timing moves with the SHA-256 compression CPUID
selected).

Timing noise caveat: single-run wall times on shared CI runners jitter;
the 10% default threshold is deliberately loose. Use a tighter threshold
only on quiet dedicated hardware.
"""

import argparse
import json
import sys


def is_wall_field(name: str) -> bool:
    return name == "wall_ms" or name.endswith("wall_ms") or \
        "wall_ms_" in name or name.endswith("ms_per_round_serial")


def load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"error: cannot load {path}: {err}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Compare two BENCH_*.json files for perf regressions.")
    parser.add_argument("baseline", help="baseline BENCH_*.json")
    parser.add_argument("current", help="current BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="max allowed relative wall-time regression "
                             "(default 0.10 = +10%%)")
    args = parser.parse_args()

    base = load(args.baseline)
    curr = load(args.current)

    if base.get("bench") != curr.get("bench"):
        print(f"warning: comparing different benches: "
              f"{base.get('bench')!r} vs {curr.get('bench')!r}")

    failures = []
    warnings = []
    notes = []
    rows = []
    # Current-only fields: a new bench revision legitimately grows new
    # metrics before the committed baseline catches up. Note each one so
    # the gap is visible (and the baseline gets refreshed), never crash
    # or silently swallow them.
    for name in curr:
        if name not in base:
            notes.append(f"new metric, no baseline: {name!r} = {curr[name]!r}")
    for name in base:
        if name not in curr:
            warnings.append(f"field {name!r} missing from current")
            continue
        bval, cval = base[name], curr[name]
        if name.endswith("bit_identical"):
            if cval != "yes":
                failures.append(f"{name}: determinism gate broken "
                                f"({bval!r} -> {cval!r})")
            continue
        if name == "sha256_impl":
            # The hardware and portable compressions differ severalfold
            # in speed; a flip explains a timing delta by itself.
            if bval != cval:
                warnings.append(
                    f"sha256_impl changed ({bval!r} -> {cval!r}); "
                    f"timing deltas include the SHA-256 implementation, "
                    f"not only the code under test")
            continue
        if not isinstance(bval, (int, float)) or \
                not isinstance(cval, (int, float)):
            continue
        if not is_wall_field(name) and \
                not name.endswith("allocs_per_round_steady") and \
                name != "partial_bytes":
            continue
        if bval <= 0:
            continue
        change = (cval - bval) / bval
        rows.append((name, bval, cval, change))
        if change > args.threshold:
            msg = (f"{name}: {bval:.1f} -> {cval:.1f} "
                   f"(+{change * 100.0:.1f}% > +{args.threshold * 100.0:.0f}%)")
            if name.endswith("allocs_per_round_steady"):
                warnings.append("allocation growth: " + msg)
            elif name == "partial_bytes":
                # Checkpoint files legitimately grow with run counts; the
                # size trend is tracked, not gated.
                warnings.append("partial size growth: " + msg)
            else:
                failures.append(msg)

    if rows:
        width = max(len(r[0]) for r in rows)
        print(f"{'field':<{width}}  {'baseline':>12}  {'current':>12}  change")
        for name, bval, cval, change in rows:
            print(f"{name:<{width}}  {bval:>12.1f}  {cval:>12.1f}  "
                  f"{change * 100.0:+6.1f}%")
    else:
        print("no comparable wall-time fields found")

    for msg in notes:
        print(f"note: {msg}")
    for msg in warnings:
        print(f"warning: {msg}")
    if failures:
        for msg in failures:
            print(f"REGRESSION: {msg}")
        return 1
    print(f"OK: no wall-time regression beyond "
          f"+{args.threshold * 100.0:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
