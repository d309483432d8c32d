#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. Builds perfbench/ (the esrp library
plus the esrp_perfbench program) in .bench_build/perfbench, then runs the
workload in its own process, bracketed by two memory-bandwidth probes and a
/proc/stat steal reading. Prints a run-context JSON line and, as the last
line of stdout, the result object {correct, attempted, failed, metrics}.
Workloads and metrics are described in perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "esrp_perfbench")
WORKLOAD_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "esrp_perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)


def triad_gbs():
    out = subprocess.run([EXE, "--triad"], check=True, capture_output=True,
                         text=True, timeout=60).stdout
    return float(out.strip())


def cpu_jiffies():
    """(steal, total) jiffies summed over all CPUs."""
    with open("/proc/stat") as f:
        fields = [int(v) for v in f.readline().split()[1:]]
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1
    triad_start = triad_gbs()
    steal0, total0 = cpu_jiffies()
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(BUILD, "spans-%s-seed%d.json" % (args.workload, args.seed))
        cmd += ["--trace-out", spans]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKLOAD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        log("esrp_perfbench exited with %d" % proc.returncode)
        return 1
    steal1, total1 = cpu_jiffies()
    triad_end = triad_gbs()

    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    context = {}
    for line in lines[:-1]:
        if line.startswith("{\"context\""):
            context = json.loads(line)["context"]
        else:
            print(line)
    steal_pct = 100.0 * (steal1 - steal0) / max(1, total1 - total0)
    context.update({
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "trace": args.trace,
        "triad_gbs_start": triad_start,
        "triad_gbs_end": triad_end,
        "steal_jiffies_delta": steal1 - steal0,
    })
    if args.trace:
        result["metrics"]["machine.triad_gbs"] = {
            "value": 0.5 * (triad_start + triad_end), "unit": "GB/s"}
        result["metrics"]["machine.steal_pct"] = {"value": steal_pct, "unit": "%"}
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
