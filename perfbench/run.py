#!/usr/bin/env python3
"""The repository benchmark: time to verdict, CPU and memory per workload.

Run from the repository root:

    python3 perfbench/run.py --workload mutant-sweep --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all            # every workload, a table

The first call builds perfbench from the repository's sources into
.bench_build/ (or $CARGO_TARGET_DIR when set); later calls rebuild only what
changed.  Each workload repetition runs in its own benchmark process, so CPU
time and peak memory are that process's own.  Each process is pinned to one
CPU, rotating over the allowed CPUs; the pinning is part of every result.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.  The
last stdout line is one JSON object with the keys correct, attempted, failed
and metrics; the line before it describes the host and the runs.  The exit
code is 0 only when every verdict passed its gate.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# BENCHMARK.json gates mutant-sweep and refute.  lease-certify runs on
# request only: its run-to-run spread on a shared VM nearly filled its bound
# (see README.md).
WORKLOADS = ["mutant-sweep", "lease-certify", "refute"]


class Placement:
    """The CPU each benchmark process runs on: one CPU per process, the n-th
    process on the n-th allowed CPU, round robin.  Every SimEnv step hands
    control from one thread to another; on one CPU that is a local wakeup,
    while across CPUs of a busy VM it waits for the host to run the target
    vCPU, which makes times swing by several times.  Rotating keeps any one
    CPU's share of the host from deciding the median."""

    def __init__(self):
        self.allowed = sorted(os.sched_getaffinity(0))
        self.count = 0

    def next(self):
        self.count += 1
        return {self.allowed[(self.count - 1) % len(self.allowed)]}

    def describe(self):
        cpus = ",".join(str(cpu) for cpu in self.allowed)
        return f"one CPU per process, round robin over {cpus}"


END_TO_END = {
    "verdict_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "sim.start_us": "us",
    "sim.handoff_us": "us",
    "sim.step_us": "us",
    "sim.step_p99_us": "us",
    "sim.finish_us": "us",
    "sim.restart_us": "us",
    "sim.steps_per_schedule": "steps/schedule",
    "system.populate_us": "us",
    "system.check_us": "us",
    "system.fingerprint_us": "us",
    "system.calls.make": "count",
    "system.calls.check": "count",
    "system.calls.fingerprint": "count",
    "system.share": "ratio",
    "explore.schedules": "count",
    "explore.transitions": "count",
    "explore.runs": "count",
    "explore.useful_run_ratio": "ratio",
    "explore.sleep_set_prunes": "count",
    "explore.fault_prunes": "count",
    "explore.fingerprint_prunes": "count",
    "explore.fp_hit_ratio": "ratio",
    "explore.schedules_per_s": "1/s",
    "explore.self_s": "s",
    "explore.engine_s_est": "s",
    "explore.steals": "count",
    "explore.checkpoints": "count",
    "explore.checkpoint_bytes": "bytes",
    "minimize.runs": "count",
    "minimize_s": "s",
    "replay_s": "s",
    "trace.overhead": "ratio",
}

MIN_RUNS = 3          # workload processes per measurement, at least
SETUPS_PER_RUN = 5    # set-up processes after each workload process
CHILD_TIMEOUT_S = 150  # a benchmark process that runs longer is killed


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                           or os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"repository sources not found under {ROOT}/src")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def spawn(binary, args, cpus):
    """Runs one benchmark process on `cpus`; returns (exit code, last JSON line
    or None, rusage).  The process is killed if it outlives CHILD_TIMEOUT_S."""
    os.sched_setaffinity(0, cpus)  # inherited by the child
    proc = subprocess.Popen([binary] + args, stdout=subprocess.PIPE)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    lines = out.decode(errors="replace").strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, usage


def cpu_model():
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host(workload, placement, build_info):
    flags = build_info.get("cxx_flags", "")
    sanitizers = [f for f in flags.split() if f.startswith("-fsanitize")]
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "pinning": placement.describe(),
        "workload": workload,
        "cpu_model": cpu_model(),
        "kernel": platform.release(),
        "build_type": build_info.get("build_type"),
        "compiler": build_info.get("compiler"),
        "cxx_flags": flags.strip(),
        "sanitizers": " ".join(sanitizers) or "none",
    }


class Tally:
    """Verdicts attempted and failed, plus every reason for a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, code, result, expected_verdicts):
        if result is None:
            self.attempted += expected_verdicts
            self.failed += expected_verdicts
            self.problems.append(f"benchmark process exited {code} without a result")
            return False
        self.attempted += result["verdicts"]
        self.failed += result["failed"]
        for case in result.get("cases", []):
            for mismatch in case.get("mismatches", []):
                self.problems.append(f"{case['label']}: {mismatch}")
        if code != 0 and result["failed"] == 0:
            self.failed += 1
            self.problems.append(f"benchmark process exited {code}")
        return True


def repetitions(seconds, minimum):
    """Yields repetition indices: at least `minimum`, then more while the
    next one, at the pace so far, still ends within `seconds`."""
    start = time.monotonic()
    count = 0
    while True:
        elapsed = time.monotonic() - start
        if count >= minimum and elapsed + elapsed / max(count, 1) > seconds:
            return
        yield count
        count += 1


def measure_end_to_end(binary, common, seconds, placement, tally):
    runs, digests, setups = [], set(), []
    expected = None
    for _ in repetitions(seconds, MIN_RUNS):
        code, result, usage = spawn(binary, ["run"] + common,
                                    placement.next())
        if not tally.add(code, result, expected or 1):
            break
        expected = result["verdicts"]
        digests.add(result["digest"])
        runs.append({
            "verdict_s": result["verdict_s"],
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": result["peak_rss_mb"],
        })
        # Set-up takes milliseconds, so a batch of set-ups run back to back
        # reads the host's speed at one moment.  Spreading them over
        # the run, between the workload processes, lets the median average
        # the host's slow and fast stretches as verdict_s does.
        for _ in range(SETUPS_PER_RUN):
            code, result, _ = spawn(binary, ["setup"] + common,
                                    placement.next())
            if code != 0 or result is None:
                tally.failed += 1
                tally.problems.append(f"set-up process exited {code}")
                break
            setups.append(result["setup_s"])
    if len(digests) > 1:
        tally.failed += 1
        tally.problems.append("results differ between repetitions")
    samples = {name: [run[name] for run in runs]
               for name in ("verdict_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = setups
    return samples


def measure_layers(binary, common, seconds, seed, placement, tally):
    samples = {name: [] for name in PER_LAYER}
    for rep in repetitions(seconds, 1):
        code, result, _ = spawn(binary, ["trace"] + common
                                + ["--seed", str(seed + rep)],
                                placement.next())
        if not tally.add(code, result, 1):
            break
        if not result.get("passive", False):
            tally.failed += 1
            tally.problems.append("traced results differ from untraced ones")
        for name in PER_LAYER:
            samples[name].append(result["metrics"][name])
    return samples


def run_workload(binary, workload, args):
    placement = Placement()
    scratch = os.path.join(build_dir(), "run")
    os.makedirs(scratch, exist_ok=True)
    common = ["--workload", workload, "--scratch", scratch]
    if args.smoke:
        common.append("--smoke")
    if args.perturb:
        common.append("--perturb")

    tally = Tally()
    # An untimed set-up process first: page cache and dynamic loader warm.
    code, warm, _ = spawn(binary, ["setup"] + common, placement.next())
    if code != 0 or warm is None:
        fail(f"benchmark binary failed to start for workload {workload}")
    try:
        if args.trace:
            samples = measure_layers(binary, common, args.seconds, args.seed,
                                     placement, tally)
            units = PER_LAYER
        else:
            samples = measure_end_to_end(binary, common, args.seconds,
                                         placement, tally)
            units = END_TO_END
    finally:
        os.sched_setaffinity(0, set(placement.allowed))

    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        value = statistics.median(values) if values else 0.0
        metrics[name] = {"value": value, "unit": unit}
    detail = {
        "host": host(workload, placement, warm.get("build", {})),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
        "problems": tally.problems[:20],
    }
    result = {
        "correct": tally.failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": metrics,
    }
    return detail, result


def print_table(workload, result):
    print(f"{workload}: {result['attempted']} verdicts, "
          f"{result['failed']} failed")
    for name, metric in result["metrics"].items():
        print(f"  {name:28s} {metric['value']:>14.6g} {metric['unit']}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes of every workload, for testing")
    parser.add_argument("--perturb", action="store_true",
                        help="expect one schedule more than pinned, so "
                             "every verdict fails (tests the gate)")
    args = parser.parse_args()

    binary = build()
    if args.workload != "all":
        detail, result = run_workload(binary, args.workload, args)
        print(json.dumps(detail))
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        detail, result = run_workload(binary, workload, args)
        print(json.dumps(detail))
        print_table(workload, result)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
