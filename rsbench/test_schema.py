#!/usr/bin/env python3
"""Schema test for the RoleShare benchmark.

    python3 rsbench/test_schema.py

Runs every workload at smoke size, untraced and traced, and asserts that
each run prints a correct result whose metrics are exactly BENCHMARK.json's
end_to_end (untraced) or per_layer (traced) names, each with its unit. It
also checks BENCHMARK.json's names, units, bounds and sizes, and
that run.py refuses, without printing a result, in a directory that holds
only BENCHMARK.json and the benchmark. Exits 1 on the first failed group.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def check_spec(spec):
    errors = []
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        errors.append(f"keys {sorted(spec)}")
    if not 1 <= len(spec["paths"]) <= 16 or not all(
            PATH.match(p) and not p.startswith("/") and ".." not in p
            for p in spec["paths"]):
        errors.append("paths")
    if not (1 <= len(spec["command"]) <= 32 and
            all(len(c) <= 200 for c in spec["command"])):
        errors.append("command")
    if not (isinstance(spec["run_seconds"], int) and
            1 <= spec["run_seconds"] <= 60):
        errors.append("run_seconds")
    if not 2 <= len(spec["workloads"]) <= 8:
        errors.append("workload count")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or \
                "\n" in w["why"]:
            errors.append(f"workload {w}")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        errors.append("end_to_end count")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or \
                not 0 < m["bound"] <= 0.25:
            errors.append(f"end_to_end {m}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errors.append("setup_s must be an end_to_end metric in s, lower")
    elif setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        errors.append("setup_s must have the largest bound")
    if not 1 <= len(spec["per_layer"]) <= 128:
        errors.append("per_layer count")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            errors.append(f"per_layer {m}")
    names = [x["name"] for x in spec["workloads"] + spec["end_to_end"] +
             spec["per_layer"]]
    for n in names:
        if not NAME.match(n):
            errors.append(f"name {n!r}")
    if len(set(names)) != len(names):
        errors.append("names are not unique")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower",
                                                            "higher"):
            errors.append(f"metric {m}")
    if len((ROOT / "BENCHMARK.json").read_bytes()) > 64 * 1024:
        errors.append("BENCHMARK.json exceeds 64 KiB")
    return errors


def check_runs(spec):
    errors = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{w['name']} --trace {trace}"
            out = subprocess.run(
                [sys.executable, "rsbench/run.py", "--workload", w["name"],
                 "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--smoke"], cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                errors.append(f"{label}: exit {out.returncode}\n"
                              f"{out.stderr[-2000:]}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{label}: result keys {sorted(result)}")
                continue
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                wrong = sorted(k for k in got
                               if k in expected and got[k] != expected[k])
                errors.append(
                    f"{label}: missing {sorted(set(expected) - set(got))}, "
                    f"extra {sorted(set(got) - set(expected))}, "
                    f"wrong units {wrong}")
            if not all(isinstance(v["value"], (int, float))
                       for v in result["metrics"].values()):
                errors.append(f"{label}: a metric value is not a number")
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                errors.append(f"{label}: correct={result['correct']} "
                              f"attempted={result['attempted']} "
                              f"failed={result['failed']}\n"
                              f"{out.stderr[-2000:]}")
            print(f"ok   {label}", flush=True)
    return errors


def check_refuses_without_sources(spec):
    """Only BENCHMARK.json and the benchmark's paths: exit != 0, no result."""
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in spec["paths"]:
        shutil.copytree(ROOT / p, bare / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        spec["command"] + ["--workload", spec["workloads"][0]["name"],
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or '"metrics"' in out.stdout:
        return [f"bare directory: exit {out.returncode}, printed "
                f"{out.stdout[-300:]!r}"]
    print("ok   refuses to run without the program's sources", flush=True)
    return []


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for group in (check_spec, check_refuses_without_sources, check_runs):
        errors = group(spec)
        if errors:
            for e in errors:
                print(f"FAIL {e}")
            return 1
    print("all schema checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
