#!/usr/bin/env python3
"""RoleShare benchmark: build rsbench from this checkout, run one workload.

    python3 rsbench/run.py --workload fig3_dense --seed 0 --seconds 20 --trace 0

Run from the root of a checkout. The binary is built (Release) under
$CARGO_TARGET_DIR/rsbench (default .bench_build/rsbench); everything a run
writes goes to .bench_out/<workload>/. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list. The line before it stamps the environment.

The binary runs under a watchdog: a hang or a crash becomes one failed
operation naming its cause, and what was measured before it still prints.

Extra modes:
    --smoke            tiny sizes (the schema test, test_schema.py)
    --record-digests   rewrite digests.json for this workload from a clean
                       run at the default seed (only when outputs change
                       on purpose)
"""
import argparse
import ctypes
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else None
DIGESTS = BENCH_DIR / "digests.json"

# Seed 0 runs the figures' own configurations (NOTES.md, "Seeds"); its
# output digests are committed in digests.json. A claimed gain must also
# hold on the held-out seed.
DEFAULT_SEED = 0
HELD_OUT_SEED = 7919

WATCHDOG_S = 150.0      # the binary's deadline; the whole run stays < 180 s
SMOKE_WATCHDOG_S = 120.0
SETUP_LAUNCHES = 20     # extra set-up-only launches; setup_s is the median


def log(msg):
    print(f"rsbench: {msg}", file=sys.stderr, flush=True)


def local_env():
    """The environment with TMPDIR inside the checkout: compilers and the
    binary write nowhere else."""
    tmp = ROOT / ".bench_out" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp))


def run_quiet(cmd, log_path, cwd):
    with open(log_path, "ab") as out:
        return subprocess.run(cmd, cwd=cwd, stdout=out, env=local_env(),
                              stderr=subprocess.STDOUT).returncode


def build():
    """Configures (once) and builds the Release binary; returns its path."""
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") \
        / "rsbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    build_log = build_dir / "build.log"
    if not (build_dir / "CMakeCache.txt").is_file():
        if run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"], build_log, ROOT) != 0:
            return None, build_log
    if run_quiet(["cmake", "--build", str(build_dir), "-j", "4"],
                 build_log, ROOT) != 0:
        return None, build_log
    return build_dir / "rsbench", build_log


def become_subreaper():
    """Orphaned orchestrator workers re-parent to us, so we can reap them."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def stop_and_reap(pgid, kill, limit_s=10.0):
    """Kills what is left of the binary's process group (after a hang or a
    crash, orchestrator workers may outlive it) and waits for all."""
    if kill:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            time.sleep(0.02)


def run_binary(binary, args, out_dir, deadline_s):
    """Runs the binary under the watchdog; returns (returncode, cause)."""
    env = local_env()
    with open(out_dir / "bench.log", "wb") as out:
        # The binary measures setup_s from this instant (CLOCK_MONOTONIC,
        # the clock of both time.monotonic and std::chrono::steady_clock).
        launch = [f"--launched-at={time.monotonic():.9f}"]
        proc = subprocess.Popen([str(binary)] + args + launch, cwd=ROOT,
                                stdout=out, env=env,
                                stderr=subprocess.STDOUT,
                                start_new_session=True)
        cause = ""
        try:
            rc = proc.wait(timeout=deadline_s)
            if rc < 0:
                cause = f"crashed: signal {-rc}"
            elif rc != 0:
                cause = f"exited with status {rc}"
        except subprocess.TimeoutExpired:
            rc = None
            cause = f"watchdog: no exit after {deadline_s:.0f} s, killed"
        stop_and_reap(proc.pid, kill=rc != 0)
        if rc is None:
            proc.wait()
    return rc, cause


def read_records(path):
    records = []
    if path.is_file():
        for line in path.read_text().splitlines():
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                pass  # a line cut short by a kill
    return records


def git_stamp():
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel"], capture_output=True,
                             text=True, check=True).stdout.strip()
        if Path(top).resolve() != ROOT:
            return "none", None
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True,
                             check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status",
                                "--porcelain"], capture_output=True,
                               text=True, check=True).stdout.strip() != ""
        return sha, dirty
    except (OSError, subprocess.CalledProcessError):
        return "none", None


def digest_failures(workload, ops):
    """Op digests of a default-seed run against the committed ones."""
    committed = json.loads(DIGESTS.read_text()).get(workload, []) \
        if DIGESTS.is_file() else []
    if not committed:
        return [f"no committed digests for {workload}"]
    failures = []
    for op in ops:
        if not op["digest"]:
            continue
        k = 0 if workload == "fig6_orchestrated" else op["index"]
        if k < len(committed) and op["digest"] != committed[k]:
            failures.append(f"op {op['index']}: digest {op['digest'][:16]}… "
                            f"!= committed {committed[k][:16]}…")
    return failures


def main():
    if SPEC is None:
        log(f"no BENCHMARK.json at {ROOT}")
        return 2
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    if args.record_digests:
        args.seed, args.trace, args.smoke = DEFAULT_SEED, 0, False

    if not (ROOT / "src" / "sim").is_dir() or \
            not (ROOT / "bench" / "bench_drivers.hpp").is_file():
        log(f"no RoleShare sources (src/, bench/) under {ROOT}")
        return 2
    binary, build_log = build()
    if binary is None:
        log(f"build failed; see {build_log}")
        return 1

    out_dir = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    become_subreaper()
    deadline = SMOKE_WATCHDOG_S if args.smoke else WATCHDOG_S

    def launch(run_dir, extra):
        return run_binary(
            binary,
            [f"--workload={args.workload}", f"--seed={args.seed}",
             f"--seconds={args.seconds:g}", f"--trace={args.trace}",
             f"--out={run_dir.relative_to(ROOT)}"]
            + (["--smoke=1"] if args.smoke else []) + extra,
            run_dir, deadline)

    setup_samples, setup_failures = [], []
    if args.trace == 0:
        for i in range(SETUP_LAUNCHES):
            run_dir = out_dir / f"setup{i}"
            run_dir.mkdir()
            _, setup_cause = launch(run_dir, ["--setup-only=1"])
            if setup_cause:
                setup_failures.append(f"set-up launch {i}: {setup_cause}")
            setup_samples += [r["launch_to_ready_s"] for r in
                              read_records(run_dir / "records.jsonl")
                              if r["kind"] == "setup"]
    rc, cause = launch(out_dir, [])

    records = read_records(out_dir / "records.jsonl")
    ops = [r for r in records if r["kind"] == "op"]
    checks = [r for r in records if r["kind"] == "check"]
    problems = [f"check {c['name']}: {c['detail']}" for c in checks
                if not c["ok"]]
    problems += [f"op {o['workload']}#{o['index']}: {o['cause']}"
                 for o in ops if o["failed"]]
    attempted = sum(o["attempted"] for o in ops) + len(setup_failures)
    failed = sum(o["failed"] for o in ops) + len(setup_failures)
    problems += setup_failures
    if cause:  # the watchdog kill or crash is one more failed operation
        attempted += 1
        failed += 1
        problems.append(cause)
    if args.seed == DEFAULT_SEED and not args.smoke and \
            not args.record_digests:
        problems += digest_failures(
            args.workload, [o for o in ops if o["workload"] == args.workload])

    metrics = {}
    if args.trace == 0:
        # The median over ops of each op's rounds per second: robust to an
        # op that a noisy neighbour slowed down. Every run covers each
        # panel equally often, so the median sees the same panel mix.
        rates = [o["rounds"] / o["wall_s"] if not o["failed"] else 0.0
                 for o in ops
                 if o["workload"] == args.workload and o["wall_s"] > 0]
        setup_samples += [r["launch_to_ready_s"] for r in records
                          if r["kind"] == "setup"]
        rss = [max(r["self_mb"], r["children_mb"])
               for r in records if r["kind"] == "rss"]
        values = {
            "rounds_per_s": statistics.median(rates) if rates else 0.0,
            "setup_s": statistics.median(setup_samples)
            if setup_samples else 0.0,
            "peak_rss_mb": max(rss) if rss else 0.0,
            "success_rate": (attempted - failed) / attempted
            if attempted else 0.0,
        }
        wanted = SPEC["end_to_end"]
    else:
        values = {r["name"]: r["value"] for r in records
                  if r["kind"] == "metric"}
        units = {r["name"]: r["unit"] for r in records
                 if r["kind"] == "metric"}
        wanted = SPEC["per_layer"]
        for m in wanted:
            if m["name"] in units and units[m["name"]] != m["unit"]:
                problems.append(f"{m['name']}: unit {units[m['name']]} "
                                f"!= {m['unit']}")
    for m in wanted:
        if m["name"] in values and values[m["name"]] is not None:
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
        else:
            problems.append(f"metric {m['name']} was not measured")

    env_record = next((r for r in records if r["kind"] == "env"), {})
    sha, dirty = git_stamp()
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "compiler": env_record.get("compiler", "unknown"),
        "build_type": env_record.get("build_type", "unknown"),
        "ndebug": env_record.get("ndebug"),
        "git_sha": sha,
        "git_dirty": dirty,
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
    }
    result = {"correct": not problems and attempted > 0,
              "attempted": max(attempted, 1),
              "failed": failed if attempted > 0 else 1,
              "metrics": metrics}
    (out_dir / "result.json").write_text(
        json.dumps({"env": env, "problems": problems, "result": result},
                   indent=1) + "\n")

    if args.record_digests:
        if problems:
            log("not recording digests from an unclean run")
            for p in problems:
                log(p)
            return 1
        digests = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        ordered = sorted((o for o in ops if o["workload"] == args.workload),
                         key=lambda o: o["index"])
        digests[args.workload] = [o["digest"] for o in ordered][
            :1 if args.workload == "fig6_orchestrated" else None]
        DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) +
                           "\n")
        log(f"recorded {len(digests[args.workload])} digests for "
            f"{args.workload}")

    for p in problems:
        log(p)
    if args.trace == 0:
        rate = failed / attempted if attempted else 1.0
        print(f"rsbench: {args.workload} seed={args.seed}: "
              + " ".join(f"{k}={v['value']:.6g}{v['unit']}"
                         for k, v in metrics.items())
              + f" error_rate={rate:.6g} ({failed}/{attempted} failed)")
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
