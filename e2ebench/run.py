#!/usr/bin/env python3
"""End-to-end + per-layer benchmark runner (see README.md here).

    python3 e2ebench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 e2ebench/run.py --workload all ...   # every workload in turn
    python3 e2ebench/run.py --selftest

Run from the repository root. Builds e2ebench (Release) from the sources
under src/ into .bench_build/e2ebench, then:

  --trace 0  runs PROCESSES fresh processes one after another, each for
             T / PROCESSES seconds of untraced iterations. Each gives one
             setup_s, one cold_s (its first iteration) and one peak_rss_mib
             (after that iteration); the later, warm iterations give
             episodes_per_s and cpu_us_per_episode. Medians throughout.
  --trace 1  one process alternating untraced and traced iterations for T
             seconds; prints the layer table and every per-layer metric.

Every result is stamped (build type, compiler, git describe, nproc, CPU
model, jobs, seed). The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}; metric names and units come
from BENCHMARK.json at the repository root.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
BINARY = BUILD / "e2ebench"

# Fresh processes per --trace 0 run, each measuring --seconds / PROCESSES;
# cold_s, setup_s and peak_rss_mib are medians over them.
PROCESSES = 8
# A child that has not finished by then is killed and counted as failed.
CHILD_TIMEOUT_S = 150


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then (re)build the benchmark target; logs to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(BUILD), "--target", "e2ebench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail("build step failed: " + " ".join(cmd))


def child_env():
    env = dict(os.environ)
    env.pop("OAQ_JOBS", None)  # the pool size must not vary between runs
    return env


def run_child(args):
    """Runs e2ebench; returns (parsed last-line JSON or None, stdout text)."""
    try:
        done = subprocess.run([str(BINARY)] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              env=child_env(), timeout=CHILD_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        print("error: e2ebench timed out: " + " ".join(args), file=sys.stderr)
        return None, ""
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"error: e2ebench exited {done.returncode}: " + " ".join(args),
              file=sys.stderr)
        return None, done.stdout
    try:
        return json.loads(lines[-1]), "\n".join(lines[:-1])
    except json.JSONDecodeError:
        print("error: e2ebench printed no result: " + " ".join(args),
              file=sys.stderr)
        return None, done.stdout


def git_describe():
    env = dict(os.environ)
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)  # never look above
    try:
        done = subprocess.run(["git", "describe", "--always", "--dirty",
                               "--tags"], cwd=ROOT, env=env, text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, check=False)
    except OSError:
        return "unknown"
    out = done.stdout.strip()
    return out if done.returncode == 0 and out else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.complete = True  # every child returned a result

    def add(self, result):
        if result is None:
            self.attempted += 1
            self.failed += 1
            self.complete = False
            return
        self.attempted += int(result["attempted"])
        self.failed += int(result["failed"])
        for reason in result.get("failures", []):
            print(f"check failed: {reason}", file=sys.stderr)


def end_to_end(opts, workload, tally):
    """PROCESSES fresh timed processes back to back; returns (values, stamp).

    Each process's first iteration is its cold one; the rest are warm.
    Spreading the cold samples over the whole run, instead of running them
    together, keeps one slow stretch of a shared host from moving them all.
    """
    setup, cold, rss, rates, cpu_us, stamp = [], [], [], [], [], {}
    for i in range(PROCESSES):
        args = ["--workload", workload, "--mode", "timed",
                "--seed", str(opts.seed * 100 + i),
                "--seconds", str(opts.seconds / PROCESSES)]
        args += ["--t0-ns", str(time.monotonic_ns())]
        result, _ = run_child(args)
        tally.add(result)
        if result is None or len(result["wall_s"]) < 2:
            continue
        stamp = result["stamp"]
        setup.append(result["setup_s"])
        cold.append(result["wall_s"][0])
        rss.append(result["cold_rss_mib"])
        for w, c, e in zip(*(result[k][1:]
                             for k in ("wall_s", "cpu_s", "episodes"))):
            rates.append(e / w)
            cpu_us.append(1e6 * c / e)
    if not cold:
        return None, stamp
    values = {
        "episodes_per_s": statistics.median(rates),
        "cold_s": statistics.median(cold),
        "setup_s": statistics.median(setup),
        "cpu_us_per_episode": statistics.median(cpu_us),
        "peak_rss_mib": statistics.median(rss),
    }
    return values, stamp


def traced(opts, workload, tally):
    args = ["--workload", workload, "--mode", "traced",
            "--seed", str(opts.seed), "--seconds", str(opts.seconds)]
    result, text = run_child(args)
    tally.add(result)
    if text:
        print(text)
    if result is None:
        return None, {}
    return result, result["stamp"]


def selftest():
    build()
    done = subprocess.run([str(BINARY), "--selftest"], cwd=ROOT,
                          env=child_env(), check=False)
    return done.returncode


def measure(opts, spec, workload):
    """One workload: prints its stamp line and its result line."""
    tally = Tally()
    if opts.trace:
        values, stamp = traced(opts, workload, tally)
        wanted = spec["per_layer"]
    else:
        values, stamp = end_to_end(opts, workload, tally)
        wanted = spec["end_to_end"]
    stamp = dict(stamp, git_describe=git_describe(), nproc=os.cpu_count(),
                 cpu_model=cpu_model(), seed=opts.seed, workload=workload,
                 trace=opts.trace)
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    if stamp.get("build_type") != "Release":
        print(f"warning: build type {stamp.get('build_type')} is not Release",
              file=sys.stderr)

    metrics = {}
    if values is not None:
        for m in wanted:
            if m["name"] not in values:
                fail(f"e2ebench reported no metric {m['name']}")
            metrics[m["name"]] = {"value": values[m["name"]],
                                  "unit": m["unit"]}
    correct = tally.complete and tally.failed == 0 and values is not None
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}), flush=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()
    if opts.selftest:
        return selftest()

    try:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    workloads = [w["name"] for w in spec["workloads"]]
    if opts.workload != "all" and opts.workload not in workloads:
        fail(f"--workload must be all or one of {', '.join(workloads)}")
    if opts.seed < 0 or opts.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    build()
    for workload in workloads if opts.workload == "all" else [opts.workload]:
        measure(opts, spec, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
