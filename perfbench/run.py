#!/usr/bin/env python3
"""APEX benchmark: builds apex_perfbench, runs workloads, prints metrics.

    python3 perfbench/run.py --workload sim-bfs --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, one process each

Run it from the root of a checkout.  The benchmark binary
(perfbench/apex_perfbench.cpp) and libapex are built from source into
.bench_build/ on first use.  Each workload runs in its own apex_perfbench
process, so its peak RSS is its own.  The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are END_TO_END below; with --trace 1 they are
PER_LAYER, from a run in which every operation is repeated with tracing on
(spans are written to .bench_build/spans/).  Lines before the last are for
people: every metric with its unit and sample count, plus the
workload-specific figures (work units, work/s, trials/s, fail_rate).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("sim-bfs", "host-spmv", "pram-compile", "fuzz")

# (name, unit, better).  BENCHMARK.json lists the same metrics; the
# self-test checks that the two agree.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("op_s_p50", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("lang.lex_s", "s", "lower"),
    ("lang.parse_s", "s", "lower"),
    ("lang.codegen_s", "s", "lower"),
    ("lang.tokens", "count", "lower"),
    ("pram.make_s", "s", "lower"),
    ("pram.validate_s", "s", "lower"),
    ("pram.verify_s", "s", "lower"),
    ("pram.task_slots", "count", "lower"),
    ("pram.nop_share", "share", "lower"),
    ("graph.partition_s", "s", "lower"),
    ("sim.steps", "count", "lower"),
    ("sim.idle_grants", "count", "lower"),
    ("sim.reads", "count", "lower"),
    ("sim.writes", "count", "lower"),
    ("sim.locals", "count", "lower"),
    ("sim.steps_per_s", "1/s", "higher"),
    ("clock.updates", "count", "lower"),
    ("clock.lost_updates", "count", "lower"),
    ("clock.accesses", "count", "lower"),
    ("clock.work_share", "share", "lower"),
    ("agreement.cycles", "count", "lower"),
    ("agreement.f_evals", "count", "lower"),
    ("agreement.write_ratio", "share", "higher"),
    ("agreement.bin_accesses", "count", "lower"),
    ("agreement.work_share", "share", "lower"),
    ("exec.ctor_s", "s", "lower"),
    ("exec.work", "work", "lower"),
    ("exec.work_per_s", "work/s", "higher"),
    ("exec.work_per_slot", "work/slot", "lower"),
    ("exec.var_accesses", "count", "lower"),
    ("exec.stamp_misses", "count", "lower"),
    ("exec.incomplete_tasks", "count", "lower"),
    ("host.ctor_s", "s", "lower"),
    ("host.run_s", "s", "lower"),
    ("host.work", "work", "lower"),
    ("host.work_per_s", "work/s", "higher"),
    ("host.work_per_slot", "work/slot", "lower"),
    ("host.stamp_misses", "count", "lower"),
    ("host.lost_commits", "count", "lower"),
    ("host.repaired_commits", "count", "lower"),
    ("host.retries", "count", "lower"),
    ("check.trial_s.agreement", "s", "lower"),
    ("check.trial_s.consensus", "s", "lower"),
    ("check.trial_s.workload", "s", "lower"),
    ("check.trial_s.grammar", "s", "lower"),
    ("check.failures", "count", "lower"),
    ("batch.trials_per_s", "1/s", "higher"),
    ("batch.efficiency", "share", "higher"),
    ("bench.trace_overhead", "ratio", "lower"),
)

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
SPANS_DIR = ROOT / ".bench_build" / "spans"
BINARY = BUILD_DIR / "apex_perfbench"
RUN_TIMEOUT_S = 170


def median_with_count(values):
    """Median of a non-empty sample list, with the number of samples."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values), len(values)


def fail_rate(attempted, failed):
    """Failed operations over attempted operations."""
    if attempted < 1 or not 0 <= failed <= attempted:
        raise ValueError(f"bad counts: {failed} failed of {attempted}")
    return failed / attempted


def layer_value(raw, name):
    """A per-layer metric from apex_perfbench's raw report.

    Per-operation samples reduce to their median; run totals are taken as
    they are; a layer the workload never enters reads 0.
    """
    if name in raw["samples"]:
        return median_with_count(raw["samples"][name])[0]
    return raw["totals"].get(name, 0.0)


def aggregate(raw, trace):
    """The result object (the last line of output) from a raw report."""
    known = {name for name, _, _ in PER_LAYER}
    unknown = (set(raw["samples"]) | set(raw["totals"])) - known
    if unknown:
        raise ValueError(f"unknown metrics reported: {sorted(unknown)}")
    ops = raw["ops"]
    attempted = len(ops)
    failed = sum(1 for op in ops if not op["ok"])
    if trace:
        metrics = {name: {"value": layer_value(raw, name), "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        values = {
            "setup_s": median_with_count(raw["setup_s"])[0],
            "op_s_p50": median_with_count([op["s"] for op in ops])[0],
            "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
    correct = failed == 0 and not raw["trace_errors"]
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def describe(raw, result):
    """Human-readable lines: every metric with its unit and sample count."""
    ops = raw["ops"]
    secs = [op["s"] for op in ops]
    lines = [f"workload={raw['workload']} seed={raw['seed']} "
             f"trace={raw['trace']} correct={result['correct']}",
             f"  fail_rate = {fail_rate(result['attempted'], result['failed'])}"
             f" failed/attempted ({result['failed']}/{result['attempted']})"]
    counts = {"setup_s": len(raw["setup_s"]), "op_s_p50": len(ops)}
    for name, m in result["metrics"].items():
        n = counts.get(name)
        if name in raw["samples"]:
            n = len(raw["samples"][name])
        extra = f" (median of {n})" if n else ""
        lines.append(f"  {name} = {m['value']:.6g} {m['unit']}{extra}")
    work = [op["work"] for op in ops]
    if any(work):
        lines.append(f"  work = {statistics.median(work):.10g} work units/op "
                     f"(median of {len(work)}; op 0: {work[0]})")
        lines.append(f"  work_per_s = {sum(work) / sum(secs):.6g} work/s")
    trials = raw["info"].get("trials_per_op")
    if trials:
        lines.append(f"  trials_per_s = {trials * len(ops) / sum(secs):.6g} "
                     f"1/s ({trials:.0f} trials/op)")
    for key, value in raw["info"].items():
        lines.append(f"  info.{key} = {value:.6g}")
    for msg in raw["failures"] + raw["trace_errors"]:
        lines.append(f"  FAILURE: {msg}")
    return lines


def build():
    """Configure once, then build incrementally; returns True on success."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        print(f"perfbench: no APEX sources at {ROOT}", file=sys.stderr)
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return True


def run_binary(workload, seed, seconds, trace, inject_fault):
    """Runs one workload in its own process; returns its raw report."""
    cmd = [str(BINARY), f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}"]
    if trace:
        SPANS_DIR.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--spans={SPANS_DIR / f'{workload}-seed{seed}.json'}")
    if inject_fault:
        cmd.append("--inject-fault")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"apex_perfbench exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    if raw["workload"] != workload or raw["seed"] != seed:
        raise RuntimeError("apex_perfbench reported another workload or seed")
    return raw


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt operation 0's output before its check")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not build():
        return 1
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in workloads:
        start = time.monotonic()
        try:
            raw = run_binary(workload, args.seed, args.seconds, args.trace,
                             args.inject_fault)
            result = aggregate(raw, args.trace)
        except (RuntimeError, ValueError, KeyError, IndexError,
                subprocess.TimeoutExpired, json.JSONDecodeError) as e:
            print(f"perfbench: {workload}: {e}", file=sys.stderr)
            return 1
        for line in describe(raw, result):
            print(line)
        print(f"  (run took {time.monotonic() - start:.1f} s)")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
