"""The program process of a batch workload (paper-grid, manycore-fleet,
fault-campaign).

Started by ``run.py`` as ``python3 perfsuite/program.py --workload W
--seed N``. It imports ``repro``, builds the workload's inputs, warms the
runner with a few-step pass over the first chunk (imports, substrates,
traces, operators, PI designs), reports ready, then obeys one JSON
command per stdin line, answering one JSON line each:

* ``{"cmd": "chunk", "k": k, "traced": bool}`` runs chunk ``k`` through
  the experiment layer and the ``--jobs 1`` runner, timing it from
  outside; ``traced`` installs the layer timers for that chunk only.
* ``{"cmd": "verify", "n": n}`` re-runs a seeded sample of fleet members
  on the scalar engine and compares them bit for bit.
* ``{"cmd": "layers"}`` returns the per-layer metrics of the traced
  chunks (and, with ``--trace``, of the set-up pass).
* ``{"cmd": "exit"}`` exits.

Chunk replies carry the process's peak memory so far, so the
verification re-runs never count towards it.

The orchestrator runs its calibration loop only between commands, while
this process is idle.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from repro.experiments.common import set_default_runner  # noqa: E402
from repro.sim.runner import ParallelRunner  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402

#: Horizon of the set-up pass: a few steps, so it builds everything a
#: chunk needs without simulating much.
WARMUP_DURATION_S = 1e-4


class CapturingRunner(ParallelRunner):
    """The ``--jobs 1`` runner, keeping each batch's points and results."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.captured = []

    def run_points(self, points, **kwargs):
        results = super().run_points(points, **kwargs)
        self.captured.extend(zip(points, results))
        return results


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class Program:
    """One workload's inputs, runner and layer timers."""

    def __init__(self, workload: str, seed: int):
        self.seed = seed
        self.work = workloads.BATCH_WORKLOADS[workload](seed)
        self.runner = CapturingRunner(
            jobs=1, cache=None, backend=self.work.backend
        )
        set_default_runner(self.runner)
        self.recorder = layers.LayerRecorder()
        self.oracle = workloads.PathOracle()
        self.seen = {}
        self.outside_runner_s = []

    def warm_up(self, traced: bool) -> None:
        """The set-up pass; traced, it feeds the set-up layers' timers."""
        cfg = replace(self.work.config, duration_s=WARMUP_DURATION_S)
        if traced:
            self.recorder.install()
        try:
            self.work.run_chunk(0, config=cfg)
        finally:
            self.recorder.uninstall()
        self.runner.captured.clear()

    def chunk(self, k: int, traced: bool) -> dict:
        self.runner.captured.clear()
        rec = self.recorder
        before = rec.snapshot()
        if traced:
            rec.install()
        try:
            cpu0 = _cpu_s()
            t0 = time.perf_counter()
            self.work.run_chunk(k)
            elapsed = time.perf_counter() - t0
            cpu = _cpu_s() - cpu0
        finally:
            rec.uninstall()
        captured = list(self.runner.captured)
        self.runner.captured.clear()
        points = [p for p, _ in captured]
        digests = {workloads.point_id(p): workloads.digest(r) for p, r in captured}
        reply = {
            "elapsed_s": elapsed,
            "cpu_s": cpu,
            "points": len(points),
            "steps": sum(workloads.n_steps(p) for p in points),
            "digests": digests,
            "sane": sum(1 for _, r in captured if math.isfinite(r.bips) and r.bips >= 0),
            "maxrss_mb": _maxrss_mb(),
        }
        if traced:
            after = rec.snapshot()

            def delta(field, name):
                return after[field].get(name, 0) - before[field].get(name, 0)

            self.outside_runner_s.append(
                elapsed - delta("total", "runner.run_points")
            )
            reply["paths"] = {
                "fused": delta("calls", "engine.fused_runs"),
                "fallback": delta("calls", "runner.fallback_points"),
            }
            reply["expected_paths"] = self.oracle.paths(
                points, self.work.backend
            )
        else:
            for p, r in captured:
                self.seen.setdefault(workloads.point_id(p), (p, digests[workloads.point_id(p)]))
        return reply

    def verify(self, n: int) -> dict:
        """Fleet members versus their scalar runs, for a seeded sample."""
        if self.work.backend != "fleet":
            return {"checked": 0, "mismatches": []}
        members = [
            (pid, point, dig)
            for pid, (point, dig) in sorted(self.seen.items())
            if not self.oracle.fleet_fallback(point, "fleet")
        ]
        rng = random.Random(f"verify:{self.work.name}:{self.seed}")
        sample = rng.sample(members, min(n, len(members)))
        scalar = ParallelRunner(jobs=1, cache=None, backend="pool")
        mismatches = [
            pid
            for pid, point, dig in sample
            if workloads.digest(scalar.run_points([point])[0]) != dig
        ]
        return {"checked": len(sample), "mismatches": mismatches}

    def layers(self) -> dict:
        snap = self.recorder.snapshot()
        values = layers.layer_metrics(snap)
        outside = self.outside_runner_s
        values["experiments.outside_runner_ms"] = (
            sum(outside) / len(outside) * 1e3 if outside else 0.0
        )
        return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.BATCH_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--plant", default=None, choices=layers.PLANTS)
    parser.add_argument("--trace", action="store_true",
                        help="time the set-up pass's layers too")
    args = parser.parse_args(argv)

    # Replies go to the original stdout; anything the program prints
    # lands on stderr instead of corrupting the protocol.
    reply_fd = os.dup(1)
    os.dup2(2, 1)
    replies = os.fdopen(reply_fd, "w", buffering=1)

    def send(obj) -> None:
        replies.write(json.dumps(obj) + "\n")

    program = Program(args.workload, args.seed)
    layers.plant(args.plant)
    program.warm_up(args.trace)
    send({"event": "ready", "cycle": program.work.cycle})
    for line in sys.stdin:
        cmd = json.loads(line)
        op = cmd["cmd"]
        if op == "chunk":
            send(program.chunk(cmd["k"], cmd["traced"]))
        elif op == "verify":
            send(program.verify(cmd["n"]))
        elif op == "layers":
            send(program.layers())
        elif op == "exit":
            send({"event": "bye"})
            return 0
        else:
            raise ValueError(f"unknown command {op!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
