"""Steadiness check: the same code measured as two sets of runs.

    python3 perfsuite/steady.py [--workloads paper-grid serve-mixed] [--runs 10]

Runs ``run.py`` ``--runs`` times per workload in each of two sets, A
and B, on the same seed list (1..N) and with the ``run_seconds`` of
``BENCHMARK.json``. The sets are interleaved in time (seed 1: A then B,
seed 2: B then A, ...), so a slow drift of the host lands on both sets
alike and a set-to-set difference is the benchmark's own noise. For
every workload and end-to-end metric it prints each set's median and
quartiles, the quartile spread as a share of the median, and the
set-to-set change of the median, against the metric's bound. A metric
passes when each set's spread stays within the bound and set B's median
differs from set A's by no more than the bound, either way. Exit
status 1 if any metric fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload: str, seed: int, seconds: int) -> Dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(f"  {workload} seed {seed}: INCORRECT "
              f"({result['failed']} of {result['attempted']} failed)")
    return result


def summary(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def worse_by(spec: Dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if spec["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]

    specs = {m["name"]: m for m in bench["end_to_end"]}
    failed = False
    for workload in args.workloads:
        runs: List[List[Dict]] = [[], []]
        for i in range(args.runs):
            for s in ((0, 1) if i % 2 == 0 else (1, 0)):
                runs[s].append(run_once(workload, i + 1, seconds))
        sets = [
            {name: summary([r["metrics"][name]["value"] for r in set_runs])
             for name in specs}
            for set_runs in runs
        ]
        print(f"\n{workload}: {args.runs} runs per set, {seconds} s each")
        print(f"  {'metric':18s} {'set':>3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s} {'bound':>6s}  verdict")
        for name, spec in specs.items():
            verdicts = []
            for s, stats in enumerate(sets):
                ok = stats[name]["spread"] <= spec["bound"]
                verdicts.append(ok)
                print(f"  {name:18s} {'AB'[s]:>3s} {stats[name]['median']:12.6g} "
                      f"{stats[name]['q1']:12.6g} {stats[name]['q3']:12.6g} "
                      f"{stats[name]['spread']:7.1%} {spec['bound']:6.0%}  "
                      f"{'ok' if ok else 'TOO NOISY'}")
            drift = worse_by(spec, sets[0][name]["median"], sets[1][name]["median"])
            ok = abs(drift) <= spec["bound"]
            verdicts.append(ok)
            print(f"  {name:18s} B-A median worse by {drift:+.1%} "
                  f"(bound {spec['bound']:.0%})  {'ok' if ok else 'DRIFTS'}")
            failed |= not all(verdicts)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
