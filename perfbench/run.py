#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  Builds the benchmark package in
perfbench/ (which compiles the repository's libraries from src/) into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs one
workload.  Build output goes to standard error; the last line of standard
output is the workload's JSON result.  WAL storage lives under
.bench_scratch/ in the checkout and is removed when the run ends.
"""

import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("closed_fastpath", "open_batched", "modelcheck")
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("run.py: configure failed")
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        sys.exit("run.py: build failed")
    return os.path.join(build_dir, "perfbench")


def parse_args(argv):
    if argv == ["--self-test"]:
        return None
    args = {}
    it = iter(argv)
    for flag in it:
        if flag not in ("--workload", "--seed", "--seconds", "--trace"):
            sys.exit("run.py: unknown argument %r" % flag)
        value = next(it, None)
        if value is None:
            sys.exit("run.py: %s needs a value" % flag)
        args[flag[2:]] = value
    missing = {"workload", "seed", "seconds", "trace"} - args.keys()
    if missing:
        sys.exit("run.py: missing " + ", ".join("--" + m for m in sorted(missing)))
    if args["workload"] not in WORKLOADS:
        sys.exit("run.py: unknown workload %r" % args["workload"])
    if args["trace"] not in ("0", "1"):
        sys.exit("run.py: --trace takes 0 or 1")
    return args


def check_result(line, trace):
    """The last line must be the result object with exactly these keys."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError("unexpected keys %s" % sorted(result))
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != wanted:
        raise ValueError("metrics differ from BENCHMARK.json: %s"
                         % sorted(set(result["metrics"]) ^ wanted))
    if result["attempted"] < 1:
        raise ValueError("no operation attempted")


def main():
    args = parse_args(sys.argv[1:])
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.abspath(build_dir))
    if args is None:
        sys.exit(subprocess.run([binary, "--self-test"]).returncode)

    scratch = os.path.abspath(".bench_scratch")
    os.makedirs(scratch, exist_ok=True)
    cmd = [binary, "--workload", args["workload"], "--seed", args["seed"],
           "--seconds", args["seconds"], "--trace", args["trace"], "--scratch", scratch]
    # Own process group: on a timeout the forked shares are killed too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("run.py: workload timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        sys.exit("run.py: workload exited with %d" % proc.returncode)
    try:
        check_result(lines[-1], args["trace"] == "1")
    except (ValueError, KeyError) as e:
        sys.exit("run.py: bad result line: %s" % e)
    sys.stdout.write(stdout)


if __name__ == "__main__":
    main()
