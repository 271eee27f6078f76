#!/usr/bin/env python3
"""Builds the NetKernel benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build) under the current directory, span dumps to .bench_out/. The
benchmark binary's report is passed through; its last line is one JSON
object {"correct", "attempted", "failed", "metrics"}. The metric names are
checked against BENCHMARK.json. Exits nonzero, without a result line, when
the build or the run fails; exits 1 after the result line when a
correctness check failed.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        try:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                 timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step {cmd[:2]} failed: {err}")
            return None
        if res.returncode != 0:
            log(f"build step {' '.join(cmd[:2])} exited {res.returncode}")
            return None
    return out


def git_identity():
    """(commit, dirty) of the checkout, or ("unknown", False) outside git."""
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if commit.returncode != 0:
            return "unknown", False
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True, timeout=10)
        return commit.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", False


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run_workload(args):
    out = build()
    if out is None:
        return 3
    os.makedirs(".bench_out", exist_ok=True)
    commit, dirty = git_identity()
    cmd = [os.path.join(out, "nk_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", ".bench_out",
           "--commit", commit, "--dirty", "1" if dirty else "0"]
    try:
        res = subprocess.run(cmd, capture_output=True, text=True,
                             timeout=RUN_TIMEOUT_S, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"benchmark run failed: {err}")
        return 4
    sys.stderr.write(res.stderr)
    lines = res.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stderr.write(res.stdout)
        log(f"no result line (exit {res.returncode})")
        return 5
    try:
        want = expected_metrics(args.trace)
    except (OSError, ValueError, KeyError) as err:
        log(f"cannot read BENCHMARK.json: {err}")
        return 6
    got = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        sys.stderr.write(res.stdout)
        log("result line does not match BENCHMARK.json")
        return 6
    print("\n".join(lines), flush=True)
    if res.returncode != 0 or not result["correct"]:
        return 1
    return 0


def selftest():
    out = build()
    if out is None:
        return 3
    res = subprocess.run([os.path.join(out, "nk_perfbench_test")],
                         timeout=RUN_TIMEOUT_S, check=False)
    return res.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=["bulk_dc", "rpc_fanin", "churn_mice"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
