"""Planted-slowdown self-test: does the benchmark flag what it should?

    python3 perfsuite/selftest.py [--runs 3] [--seconds 12]

Each plant is a busy-wait that ``run.py --plant`` adds inside the
program's own process (see ``layers.PLANT_DELAY_S``). A metric is
*flagged* when the median of the planted runs is worse than the median
of unplanted runs by more than the metric's bound in BENCHMARK.json,
and reads as a *gain* when it is better by more than the bound. The
expectations:

* ``config_hash`` flags ``latency_p50_ms`` on serve-mixed and nothing on
  paper-grid (a hash per point is noise next to stepping it);
* ``apply_batch`` flags ``sim_steps_per_s`` on manycore-fleet and nothing
  on paper-grid or serve-mixed (neither runs the fleet);
* ``apply`` flags ``sim_steps_per_s`` on paper-grid and nothing on
  manycore-fleet (the fleet steps through ``apply_batch``);
* ``background_thread`` (a busy thread in the program) reads as a
  regression on paper-grid and as a gain nowhere: it must not fool the
  calibration into crediting the program with a faster host.

Exit status 1 if any expectation fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: (plant, workload, metrics that must be among the flagged ones; None =
#: "some metric"). An empty list means nothing may be flagged. A slower
#: step or request also lowers throughput, so other metrics of the same
#: workload may be flagged beside the expected ones. No metric may ever
#: read as a gain.
EXPECT = [
    ("config_hash", "serve-mixed", ["latency_p50_ms"]),
    ("config_hash", "paper-grid", []),
    ("apply_batch", "manycore-fleet", ["sim_steps_per_s"]),
    ("apply_batch", "paper-grid", []),
    ("apply_batch", "serve-mixed", []),
    ("apply", "paper-grid", ["sim_steps_per_s"]),
    ("apply", "manycore-fleet", []),
    ("background_thread", "paper-grid", None),
]


def medians(workload: str, plant: Optional[str], runs: int, seconds: int) -> Dict[str, float]:
    values: Dict[str, List[float]] = {}
    for seed in range(1, runs + 1):
        argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        if plant:
            argv += ["--plant", plant]
        out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                             check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=12)
    args = parser.parse_args(argv)
    specs = {m["name"]: m for m in
             json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    baseline: Dict[str, Dict[str, float]] = {}
    failed = False
    for plant, workload, expected in EXPECT:
        if workload not in baseline:
            baseline[workload] = medians(workload, None, args.runs, args.seconds)
        planted = medians(workload, plant, args.runs, args.seconds)
        flagged, gains = [], []
        print(f"\n{plant} on {workload}:")
        for name, spec in specs.items():
            base, now = baseline[workload][name], planted[name]
            change = (now - base) / base if base else 0.0
            worse = change if spec["better"] == "lower" else -change
            if worse > spec["bound"]:
                flagged.append(name)
            elif -worse > spec["bound"]:
                gains.append(name)
            print(f"  {name:18s} {base:12.6g} -> {now:12.6g}  worse by {worse:+7.1%}"
                  f"{'  FLAGGED' if name in flagged else ''}"
                  f"{'  GAIN' if name in gains else ''}")
        if expected is None:
            ok = bool(flagged) and not gains
            want = "some regression, no gain"
        elif expected:
            ok = set(expected) <= set(flagged) and not gains
            want = f"flags {expected}, no gain"
        else:
            ok = not flagged and not gains
            want = "flags nothing, no gain"
        print(f"  expected {want}: {'ok' if ok else 'FAILED'}")
        failed |= not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
