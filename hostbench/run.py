#!/usr/bin/env python3
"""Build the hostbench driver from source and run one workload.

Usage (from the repository root):

    python3 hostbench/run.py --workload bert-dgx1 --seed 1 --seconds 24 --trace 0

The driver is configured and built under $CARGO_TARGET_DIR (default
.bench_build) in the current directory; build output goes to stderr.  A
failed build exits non-zero without printing a result.

An untraced run is split into short driver processes of equal length,
each drawing its own inputs from the seed (--part) and timing one set-up.
On a shared host the same input runs up to 1.5x slower from one second
to the next, so the result averages the sub-runs over the whole run: the
mean of each metric, but the median of their set-up times.  A traced run
is a single process.  The last line of standard output is
the JSON result.  Extra arguments (--smoke, --expected FILE,
--record FILE) are passed to the driver; --smoke runs one sub-run.
"""

import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Seconds of --seconds per untraced sub-run: a few rounds of the
# workload's jobs (the gpt-dapple job plans in about 1.4 s, a bert-dgx1
# round takes about 0.3 s).  Each sub-run adds about 0.8 s of set-up,
# served phase and checks.
PART_SECONDS = 3.0
# Every run must end within 180 s of its start, the build aside.
RUN_BUDGET_S = 170.0
# The longest --seconds that fits RUN_BUDGET_S and the driver's pool of
# novel serve specs (kMaxSeconds in hostbench.cc gives the figures).
MAX_SECONDS = 45.0


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "hostbench-release")


def build(out):
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j", jobs,
                    "--target", "hostbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "hostbench")


def option(args, name, default=None):
    return args[args.index(name) + 1] if name in args else default


def combine(results):
    """One result from the sub-runs': each metric's mean, but the median
    of their set-up times, so that one slow start does not move it."""
    def average(name):
        values = [r["metrics"][name]["value"] for r in results]
        if name == "setup_s":
            return statistics.median(values)
        return statistics.fmean(values)

    metrics = {name: {"value": average(name), "unit": first["unit"]}
               for name, first in results[0]["metrics"].items()}
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def main():
    args = list(sys.argv[1:])
    try:
        seconds = float(option(args, "--seconds", "10"))
    except ValueError:
        seconds = float("nan")
    if not 0.0 < seconds <= MAX_SECONDS:
        print("hostbench: --seconds must be in (0, %g]" % MAX_SECONDS,
              file=sys.stderr)
        return 2

    out = build_dir()
    try:
        binary = build(out)
    except (subprocess.CalledProcessError, OSError) as err:
        print("hostbench: build failed: %s" % err, file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S

    if "--trace-out" not in args:
        args += ["--trace-out", os.path.join(out, "trace")]
    if "--expected" not in args and "--record" not in args:
        args += ["--expected", os.path.join(HERE, "expected.txt")]
    parts = 1
    if (option(args, "--trace", "0") == "0" and "--smoke" not in args
            and "--record" not in args):
        parts = max(1, round(seconds / PART_SECONDS))
        args += ["--setups", "1"]
        if "--seconds" in args:
            args[args.index("--seconds") + 1] = repr(seconds / parts)
        else:
            args += ["--seconds", repr(seconds / parts)]

    results, code = [], 0
    for part in range(parts):
        try:
            proc = subprocess.run(
                [binary] + args + ["--part", str(part)],
                stdout=subprocess.PIPE, text=True,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print("hostbench: run exceeded its time budget",
                  file=sys.stderr)
            return 3
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            sys.stdout.write(proc.stdout)
            print("hostbench: sub-run %d printed no result" % part,
                  file=sys.stderr)
            return proc.returncode or 4
        for line in lines[:-1]:
            print(("[part %d] " % part if parts > 1 else "") + line)
        results.append(json.loads(lines[-1]))
        code = code or proc.returncode

    result = combine(results) if parts > 1 else results[0]
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
