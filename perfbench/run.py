#!/usr/bin/env python3
"""Host-speed benchmark of the Swordfish evaluator, pipeline and daemon.

Builds the repository (Release) and the benchmark harness into
.bench_build/, runs one workload and prints the harness's result as the
last line of standard output:

    python3 perfbench/run.py --workload mc_combined --seed 1 \
        --seconds 10 --trace 0 <widths and limits from BENCHMARK.json>

    python3 perfbench/run.py --smoke     # every workload, tiny, checks only

The widths and latency limits are written once, in BENCHMARK.json's
command; --smoke reads them from there. Every result's metric names and
units must match BENCHMARK.json's lists. See perfbench/README.md for the
workloads, metrics and checks.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = ".bench_build"
HARNESS = os.path.join(BUILD, "perfbench_harness")
DAEMON = os.path.join(BUILD, "swordfish", "src", "service", "swordfishd")
WORKLOADS = ("mc_combined", "pipeline_digital", "daemon_mix")
RUN_TIMEOUT_S = 170
FIXED = ("pool_threads", "daemon_workers", "daemon_threads", "slo_s")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then bring the harness and swordfishd up to date."""
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"no {needed} here: run from a checkout of the repository")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", "perfbench", "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "--target",
                    "perfbench_harness", "swordfishd", "-j", jobs],
                   check=True, stdout=sys.stderr)


def stop_process_group(proc):
    """Kill whatever the harness left in its process group, and wait."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    for _ in range(500):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def load_benchmark():
    """BENCHMARK.json, which fixes the widths, limits and metric lists."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")


def check_metrics(bench, workload, trace, result):
    """The result reports exactly the metrics BENCHMARK.json lists."""
    listed = bench["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        extra = sorted(set(got.items()) - set(want.items()))
        absent = sorted(set(want.items()) - set(got.items()))
        fail(f"{workload} trace={trace} metrics differ from BENCHMARK.json:"
             f" only in the result {extra}, only in BENCHMARK.json {absent}")


def harness(args, workload, seed, seconds, trace, smoke=False):
    """Run the harness once; returns (result dict, stdout text)."""
    work = os.path.join(BUILD, "runs", f"{os.getpid()}-{workload}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # Runtime knobs of the program come only from the command line here.
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SWORDFISH_")}
    cmd = [HARNESS, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--pool-threads", str(args.pool_threads),
           "--daemon-workers", str(args.daemon_workers),
           "--daemon-threads", str(args.daemon_threads),
           "--slo-s", args.slo_s,
           "--swordfishd", DAEMON, "--work-dir", work]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out = None
    stop_process_group(proc)
    shutil.rmtree(work, ignore_errors=True)
    if out is None:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(out)
        fail(f"{workload} harness exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload} printed a malformed result")
    return result, out


def smoke(args, bench):
    """Every workload, untraced and traced, at tiny sizes; checks only."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, _ = harness(args, workload, 1, 0.5, trace, smoke=True)
            check_metrics(bench, workload, trace, result)
            status = "ok" if result["correct"] else "FAILED"
            ok = ok and result["correct"]
            print(f"smoke {workload} trace={trace}: {status} "
                  f"({len(result['metrics'])} metrics, "
                  f"{result['attempted']} attempted, "
                  f"{result['failed']} failed)")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--pool-threads", type=int)
    parser.add_argument("--daemon-workers", type=int)
    parser.add_argument("--daemon-threads", type=int)
    parser.add_argument("--slo-s")
    args = parser.parse_args()
    bench = load_benchmark()
    if args.smoke:
        fixed = parser.parse_args(bench["command"][2:])
        for name in FIXED:
            setattr(args, name, getattr(fixed, name))
    elif args.workload is None:
        parser.error("--workload is required (or --smoke)")
    missing = [name for name in FIXED if getattr(args, name) is None]
    if missing:
        parser.error(f"missing {missing}: pass the command of BENCHMARK.json")

    os.chdir(ROOT)
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        fail(f"build failed: {err}")
    if args.smoke:
        return smoke(args, bench)
    result, out = harness(args, args.workload, args.seed, args.seconds,
                          args.trace)
    check_metrics(bench, args.workload, args.trace, result)
    sys.stdout.write(out if out.endswith("\n") else out + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
