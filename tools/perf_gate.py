#!/usr/bin/env python3
"""Perf gate: compare a fresh `apexcli perfbench` JSON against a baseline.

Usage: tools/perf_gate.py BASE FRESH

BASE is the committed baseline (BENCH_core.json), FRESH the new perfbench
output.  Exits 0 when every check passes and 1 on a regression or a schema
drift, printing GitHub Actions ::error annotations.
"""
# Absolute steps/sec are machine-specific (the committed baseline
# was measured on a dev box; CI runners are slower and noisier),
# so the HARD gate compares MACHINE-RELATIVE within-run ratios:
#   * batched / single_step per (sched, n, observer) — the grant
#     engine's advantage over the per-grant reference;
#   * instrumented / no-observer on the batched engine per
#     (sched, n) — what observation costs on the same hardware.
# A shrinking ratio means the engine lost ground regardless of the
# hardware underneath: that FAILS the job.  Missing output or a
# schema drift that would silently disable the gate also FAILS.
# Absolute steps/sec against the committed baseline stays a
# warning.
import json
import sys

if len(sys.argv) != 3:
    print("usage: perf_gate.py BASE FRESH", file=sys.stderr)
    sys.exit(2)
base_path, fresh_path = sys.argv[1], sys.argv[2]

def die(msg):
    print(f"::error title=perf gate::{msg}")
    sys.exit(1)

try:
    base = json.load(open(base_path))
except Exception as e:  # noqa: BLE001
    die(f"committed {base_path} unreadable: {e}")
try:
    fresh = json.load(open(fresh_path))
except Exception as e:  # noqa: BLE001
    die(f"perfbench output missing or unparsable: {e}")

for doc, name in ((base, base_path),
                  (fresh, fresh_path)):
    if 'rows' not in doc or not doc['rows']:
        die(f"{name}: no 'rows' — perfbench schema drifted")
    for want in ('sched', 'n', 'observer', 'engine',
                 'steps_per_sec'):
        if want not in doc['rows'][0]:
            die(f"{name}: row key '{want}' missing — schema drift")
if 'fuzz' not in fresh or 'trials_per_sec' not in fresh['fuzz']:
    die(f"{fresh_path}: fuzz.trials_per_sec missing — "
        "perfbench no longer measures fuzz throughput")
print(f"fuzz throughput: {fresh['fuzz']['trials_per_sec']:.2f} "
      f"trials/sec ({fresh['fuzz']['trials']} trials, "
      f"{fresh['fuzz']['failures']} failures)")
if fresh['fuzz']['failures'] != 0:
    die("perfbench fuzz slice reported failures")

# Graph-scale rows: the CSR kernels at n=1e4 on the virtualized
# host executor.  Hard requirements: the grid exists in both
# files, and every fresh row completed, passed its invariants,
# and was audit-clean.  The partition/rr placement ratio joins
# the within-run ratio gate below.
for doc, name in ((base, base_path),
                  (fresh, fresh_path)):
    if 'graph_rows' not in doc or not doc['graph_rows']:
        die(f"{name}: no 'graph_rows' — the graph-scale grid "
            "vanished from perfbench")
    for want in ('workload', 'n', 'policy', 'completed',
                 'invariants_ok', 'lost_commits', 'work_per_sec'):
        if want not in doc['graph_rows'][0]:
            die(f"{name}: graph row key '{want}' missing — "
                "schema drift")
for r in fresh['graph_rows']:
    tag = f"{r['workload']} n={r['n']} {r['policy']}"
    if not r['completed'] or not r['invariants_ok']:
        die(f"graph row {tag} failed or violated invariants")
    if r['lost_commits'] != 0:
        die(f"graph row {tag} was not audit-clean "
            f"(lost_commits={r['lost_commits']})")

def graph_ratios(doc):
    by = {(r['workload'], r['n'], r['policy']): r['work_per_sec']
          for r in doc['graph_rows']}
    out = {}
    for (w, n, p), v in by.items():
        if p != 'partition':
            continue
        ref = by.get((w, n, 'rr'))
        if ref:
            out[('graph_placement', w, n)] = v / ref
    return out

def table(doc):
    return {(r['sched'], r['n'], r['observer'], r['engine']):
            r['steps_per_sec'] for r in doc['rows']}

def engine_ratios(by):
    out = {}
    for (s, n, o, e), v in by.items():
        if e != 'batched':
            continue
        ref = by.get((s, n, o, 'single_step'))
        if ref:
            out[('engine', s, n, o)] = v / ref
    return out

def observer_ratios(by):
    out = {}
    for (s, n, o, e), v in by.items():
        if e != 'batched' or not o:
            continue
        ref = by.get((s, n, False, 'batched'))
        if ref:
            out[('observer', s, n)] = v / ref
    return out

bt, ft = table(base), table(fresh)
b = {**engine_ratios(bt), **observer_ratios(bt),
     **graph_ratios(base)}
f = {**engine_ratios(ft), **observer_ratios(ft),
     **graph_ratios(fresh)}
common = sorted(set(b) & set(f))
if not common:
    die("no comparable ratio configurations between the committed "
        "baseline and the fresh perfbench output — the gate "
        "checked nothing")
failures = []
for k in common:
    rel = f[k] / b[k]
    print(f"{k}: {f[k]:5.2f}x (baseline {b[k]:5.2f}x, "
          f"rel {rel:.2f})")
    if rel < 0.8:
        failures.append((k, rel))
for k, rel in failures:
    print(f"::error title=perf regression::{k} ratio fell to "
          f"{rel:.2f} of the committed baseline (>20% drop)")
if failures:
    sys.exit(1)

# Absolute steps/sec: informational cross-machine comparison.
for k in sorted(set(bt) & set(ft)):
    rel = ft[k] / bt[k] if bt[k] else 0
    if rel < 0.5:
        print(f"::warning title=absolute perf::{k} absolute "
              f"steps/sec at {rel:.2f} of committed baseline "
              f"(expected on slower CI hardware)")
print("perf gate passed: all within-run ratios within 20% of the "
      "committed baseline")
