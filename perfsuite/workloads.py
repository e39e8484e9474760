"""Inputs of every benchmark workload, generated from ``--seed``.

The program never sees the seed: it receives only the configs and
requests built here. Seed ``DEFAULT_SEED`` reproduces the paper's own
inputs (the repository's default ``SimulationConfig.seed``), whose
outputs are pinned bit for bit in ``digests.json``.

Imported only by processes that also import ``repro`` (the program
processes and the load generator); the orchestrator stays repro-free.
"""

from __future__ import annotations

import hashlib
import json
import random
from typing import Dict, List, Sequence, Tuple

from repro.core.taxonomy import ALL_POLICY_SPECS
from repro.experiments import manycore, robustness
from repro.experiments.common import default_config
from repro.sim.engine import EngineSubstrate, ThermalTimingSimulator
from repro.sim.fleet import fleet_blockers
from repro.sim.report import result_to_dict
from repro.sim.runner import RunPoint
from repro.sim.workloads import ALL_WORKLOADS
from repro.util.rng import DEFAULT_ROOT_SEED

DEFAULT_SEED = 0

#: Simulated horizons (seconds of silicon time). paper-grid is long
#: enough that stepping, not construction, dominates a point; the fleet
#: campaigns are short enough that one chunk fits a few seconds of host
#: time on a 2-core box.
PAPER_GRID_DURATION_S = 0.05
MANYCORE_DURATION_S = 0.0025
FAULT_DURATION_S = 0.01

#: serve-mixed: points warmed into the cache before timing and the
#: horizons of served points. Each block of SERVE_BLOCK requests holds
#: one new point (simulation plus cache write); the rest re-ask warm
#: points, so the designed cache-hit share is 9/10.
SERVE_WARM_POINTS = 48
SERVE_DURATIONS_S = (0.002, 0.004)
SERVE_MISS_DURATION_S = 0.002
SERVE_BLOCK = 10


def config_seed(seed: int) -> int:
    """The ``SimulationConfig.seed`` a benchmark seed maps to."""
    return DEFAULT_ROOT_SEED + int(seed)


def digest(result) -> str:
    """Bit-exact fingerprint of one result (shortest-repr JSON floats)."""
    return digest_dict(result_to_dict(result))


def digest_dict(data: Dict) -> str:
    """Fingerprint of a ``result_to_dict`` dictionary."""
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:32]


def point_id(point: RunPoint) -> str:
    """Seed-independent name of a simulation point."""
    cfg = point.config
    return "|".join(
        [
            point.workload.name,
            point.spec.key if point.spec else "unthrottled",
            cfg.scenario.name if cfg.scenario is not None else "cmp4",
            f"{cfg.threshold_c:g}",
            cfg.fault_plan.name if cfg.fault_plan is not None else "nofault",
            "guarded" if cfg.guard is not None else "unguarded",
            f"{cfg.duration_s:g}",
        ]
    )


def n_steps(point: RunPoint) -> int:
    """Chip-steps one point simulates (the engine's own rounding)."""
    cfg = point.config
    return max(1, int(round(cfg.duration_s / cfg.machine.sample_period_s)))


# ---------------------------------------------------------------------------
# Batch workloads: each run walks a seeded sequence of equal-shaped chunks.
# ---------------------------------------------------------------------------


class PaperGrid:
    """Table 8's 12 policies plus the unthrottled row, one workload a chunk."""

    name = "paper-grid"
    backend = "pool"
    duration_s = PAPER_GRID_DURATION_S
    #: Distinct chunks before the sequence repeats.
    cycle = len(ALL_WORKLOADS)

    def __init__(self, seed: int):
        rng = random.Random(f"paper-grid:{seed}")
        self.order = list(ALL_WORKLOADS)
        rng.shuffle(self.order)
        self.config = default_config(
            duration_s=self.duration_s, seed=config_seed(seed)
        )
        self.specs = [None] + list(ALL_POLICY_SPECS)

    def run_chunk(self, k: int, config=None) -> None:
        """One Table 8 row through the experiment layer."""
        from repro.experiments import table8
        from repro.experiments.common import clear_result_cache, run_matrix

        cfg = config or self.config
        w = self.order[k % len(self.order)]
        clear_result_cache()
        run_matrix(self.specs, [w], cfg)
        table8.render(table8.compute(cfg, [w]))
        clear_result_cache()


class ManycoreFleet:
    """The whole many-core experiment per chunk: mesh16, mesh64 and
    biglittle4+4 x unthrottled + 5 policies x 3 thresholds (54 points).

    Every chunk has the same composition, so the median over chunks does
    not depend on which thresholds a short run happened to reach.
    """

    name = "manycore-fleet"
    backend = "fleet"
    duration_s = MANYCORE_DURATION_S
    cycle = 1

    def __init__(self, seed: int):
        self.config = default_config(
            duration_s=self.duration_s, seed=config_seed(seed)
        )

    def run_chunk(self, k: int, config=None) -> None:
        """``repro --backend fleet experiment manycore``."""
        manycore.render(manycore.compute(config or self.config))


class FaultCampaign:
    """workload7 x 12 policies x 4 severities, unguarded and guarded."""

    name = "fault-campaign"
    backend = "fleet"
    duration_s = FAULT_DURATION_S
    cycle = 1

    def __init__(self, seed: int):
        rng = random.Random(f"fault-campaign:{seed}")
        self.specs = list(ALL_POLICY_SPECS)
        rng.shuffle(self.specs)
        self.config = default_config(
            duration_s=self.duration_s, seed=config_seed(seed)
        )

    def run_chunk(self, k: int, config=None) -> None:
        """``repro --backend fleet robustness --guards`` on workload7."""
        cfg = config or self.config
        robustness.render(
            robustness.compute(cfg, specs=self.specs, include_guards=True)
        )


BATCH_WORKLOADS = {w.name: w for w in (PaperGrid, ManycoreFleet, FaultCampaign)}


# ---------------------------------------------------------------------------
# serve-mixed: request bodies for a closed loop over a warmed cache.
# ---------------------------------------------------------------------------


class ServeMixed:
    """Warm set, miss stream and a 9-hits-per-10 request schedule."""

    name = "serve-mixed"

    def __init__(self, seed: int):
        self.seed = int(seed)
        rng = random.Random(f"serve-mixed:{seed}")
        keys = ["none"] + [s.key for s in ALL_POLICY_SPECS]
        names = [w.name for w in ALL_WORKLOADS]
        self.warm: List[Dict] = []
        seen = set()
        while len(self.warm) < SERVE_WARM_POINTS:
            body = {
                "workload": rng.choice(names),
                "policy": rng.choice(keys),
                "config": {
                    "duration_s": rng.choice(SERVE_DURATIONS_S),
                    "seed": config_seed(seed) + rng.randrange(4),
                },
            }
            key = body_key(body)
            if key not in seen:
                seen.add(key)
                self.warm.append(body)
        self._rng = rng
        self._names = names
        self._keys = keys
        self._misses = 0

    def miss(self, j: int) -> Dict:
        """The ``j``-th never-seen point: unique config seed per request."""
        rng = random.Random(f"serve-miss:{self.seed}:{j}")
        return {
            "workload": rng.choice(self._names),
            "policy": rng.choice(self._keys),
            "config": {
                "duration_s": SERVE_MISS_DURATION_S,
                "seed": config_seed(self.seed) + 1000 + j,
            },
        }

    def schedule(self, n: int) -> List[Tuple[bool, Dict]]:
        """The next ``n`` requests as ``(is_hit, body)``, whole blocks only."""
        out: List[Tuple[bool, Dict]] = []
        while len(out) < n:
            miss_at = self._rng.randrange(SERVE_BLOCK)
            for i in range(SERVE_BLOCK):
                if i == miss_at:
                    out.append((False, self.miss(self._misses)))
                    self._misses += 1
                else:
                    out.append((True, self._rng.choice(self.warm)))
        return out


def body_key(body: Dict) -> str:
    """Canonical text of a request body (its identity for digests)."""
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Expected execution paths, read from the program's own blocker lists.
# ---------------------------------------------------------------------------


class PathOracle:
    """Predicts fused runs and fleet fallbacks for points, cheaply.

    ``fusion_blockers`` of a simulator and ``fleet_blockers`` of a
    config decide which loop a point takes. Simulators are built on a
    shared substrate per chip (so mesh64 factors its operator once) and
    memoised per policy/fault/guard shape.
    """

    def __init__(self):
        self._substrates: Dict[str, EngineSubstrate] = {}
        self._fused: Dict[Tuple, bool] = {}

    def fused(self, point: RunPoint) -> bool:
        """Whether ``point`` runs on the fused whole-run path."""
        cfg = point.config
        key = (
            point.spec.key if point.spec else None,
            cfg.fault_plan,
            cfg.guard,
            cfg.hardware_trip,
            cfg.record_series,
            cfg.fuse_steps,
            cfg.scenario.name if cfg.scenario is not None else None,
        )
        hit = self._fused.get(key)
        if hit is None:
            skey = key[-1] or "cmp4"
            sub = self._substrates.get(skey)
            if sub is None:
                sub = self._substrates[skey] = EngineSubstrate.for_config(cfg)
            sim = ThermalTimingSimulator(
                point.workload.benchmarks, point.spec, cfg, substrate=sub
            )
            hit = self._fused[key] = not sim.fusion_blockers
        return hit

    @staticmethod
    def fleet_fallback(point: RunPoint, backend: str) -> bool:
        """Whether ``point`` leaves the fleet for the scalar engine."""
        return backend == "fleet" and bool(fleet_blockers(point.config))

    def paths(self, points: Sequence[RunPoint], backend: str) -> Dict[str, int]:
        """Expected ``{"fused": n, "fallback": n}`` over ``points``."""
        return {
            "fused": sum(self.fused(p) for p in points),
            "fallback": sum(self.fleet_fallback(p, backend) for p in points),
        }

