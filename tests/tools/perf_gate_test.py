#!/usr/bin/env python3
"""Pins tools/perf_gate.py's verdicts on a small perfbench fixture.

Usage: perf_gate_test.py

Runs the gate on the fixture against itself (must pass) and against
variants that each break one check (each must fail with that check's
message).  Exits 0 when every case behaves, 1 otherwise.
"""
import copy
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
GATE = os.path.join(HERE, '..', '..', 'tools', 'perf_gate.py')
with open(os.path.join(HERE, 'perf_gate_fixture.json')) as f:
    BASE = json.load(f)


def ratio_drop(doc):
    for r in doc['rows']:
        if r['engine'] == 'batched' and not r['observer']:
            r['steps_per_sec'] *= 0.7  # batched/single_step falls 30%


def no_graph_rows(doc):
    del doc['graph_rows']


def missing_row_key(doc):
    del doc['rows'][0]['steps_per_sec']


def fuzz_failures(doc):
    doc['fuzz']['failures'] = 2


# (name, mutation of the fresh file, expected exit code, expected output)
CASES = [
    ('self', None, 0, 'perf gate passed'),
    ('engine ratio drop', ratio_drop, 1, 'ratio fell to 0.70'),
    ('missing graph_rows', no_graph_rows, 1, "no 'graph_rows'"),
    ('missing row key', missing_row_key, 1,
     "row key 'steps_per_sec' missing"),
    ('fuzz failures', fuzz_failures, 1,
     'perfbench fuzz slice reported failures'),
]


def main():
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        base_path = os.path.join(tmp, 'base.json')
        with open(base_path, 'w') as f:
            json.dump(BASE, f)
        for name, mutate, want_rc, want_text in CASES:
            fresh = copy.deepcopy(BASE)
            if mutate:
                mutate(fresh)
            fresh_path = os.path.join(tmp, 'fresh.json')
            with open(fresh_path, 'w') as f:
                json.dump(fresh, f)
            proc = subprocess.run(
                [sys.executable, GATE, base_path, fresh_path],
                capture_output=True, text=True)
            ok = proc.returncode == want_rc and want_text in proc.stdout
            print(f"{'ok  ' if ok else 'FAIL'} {name}: exit {proc.returncode}"
                  f" (want {want_rc})")
            if not ok:
                failed += 1
                print(proc.stdout + proc.stderr)
    return 1 if failed else 0


if __name__ == '__main__':
    sys.exit(main())
