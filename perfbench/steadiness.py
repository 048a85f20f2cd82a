#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of one build agree?

    python3 perfbench/steadiness.py

Run from the repository root. For each workload in BENCHMARK.json it
makes ten rounds; round i uses seed i + 1 and runs each of two sets, A and
B, once, alternating which goes first. Each run is
`python3 perfbench/run.py ... --trace 0`. It then prints, for every
(workload, end-to-end metric) pair, each set's median and quartiles, the
spread (Q3 - Q1) / median, and whether the sets agree within the metric's
bound in BENCHMARK.json:

  * each set's spread is within the bound, and
  * set B's median is not worse than set A's by more than the bound.

"steady" additionally asks for every spread below a third of its bound.
Raw values are saved as JSON under .bench_build/ for later comparison.
Exits 1 when any pair disagrees or a run fails.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        raise SystemExit("steadiness: %s seed %d failed (exit %d)"
                         % (workload, seed, done.returncode))
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    # values[workload][set][metric] -> list of run values
    values = {w: [dict() for _ in range(SETS)] for w in workloads}
    for w in workloads:
        for i in range(RUNS):
            for s in ((0, 1), (1, 0))[i % 2]:
                started = time.monotonic()
                got = run_once(w, i + 1, seconds)
                for name, value in got.items():
                    values[w][s].setdefault(name, []).append(value)
                print("# %s round %d set %d: %.1f s" % (
                    w, i, s, time.monotonic() - started), flush=True)

    out = ROOT / ".bench_build" / ("steadiness-%d.json" % int(time.time()))
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(values, indent=1))

    all_agree = True
    print("%-14s %-24s %-5s %12s %12s %12s %7s %7s %s" % (
        "workload", "metric", "set", "q1", "median", "q3", "spread", "bound",
        "verdict"))
    for w in workloads:
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            medians = []
            agree = True
            steady = True
            for s in range(SETS):
                q1, q2, q3 = stats.quartiles(values[w][s][name])
                sp = stats.spread(values[w][s][name])
                medians.append(q2)
                agree = agree and sp <= bound
                steady = steady and sp < bound / 3
                print("%-14s %-24s %-5d %12.6g %12.6g %12.6g %7.3f %7.3f" % (
                    w, name, s, q1, q2, q3, sp, bound))
            agree = agree and stats.worse_by(
                medians[0], medians[1], m["better"]) <= bound
            verdict = ("steady" if agree and steady else
                       "agree" if agree else "DISAGREE")
            print("%-14s %-24s %s" % (w, name, verdict))
            all_agree = all_agree and agree
    print("# raw values: %s" % out.relative_to(ROOT))
    return 0 if all_agree else 1


if __name__ == "__main__":
    sys.exit(main())
