"""Per-layer timers and planted slowdowns, installed from outside the program.

``LayerRecorder.install()`` wraps the public functions at each layer
boundary (serve stages, runner, engine, fleet, thermal, core, control,
uarch, faults) with timers that keep a span stack per thread, so every
layer gets its call count, total time and self time (its duration minus
the wrapped calls beneath it). Nothing inside ``repro`` is edited; the
wrappers only read clocks and arguments, so results stay bit-identical,
which the traced run checks. ``uninstall()`` restores the originals.

``plant()`` adds a busy-wait inside one program function (or a busy
background thread), for the benchmark's self-test.

This module imports ``repro`` only inside ``install``/``plant``, so the
orchestrator can use :func:`layer_metrics` without importing the program.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Per-layer metrics: name -> (unit, better). ``layer_metrics`` fills
#: every one of them on every workload; a layer the workload never
#: enters reads 0.
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "serve.parse_us": ("us", "lower"),
    "serve.encode_us": ("us", "lower"),
    "serve.execute_hit_ms": ("ms", "lower"),
    "serve.execute_miss_ms": ("ms", "lower"),
    "serve.outside_execute_ms": ("ms", "lower"),
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.refused": ("count", "lower"),
    "runner.config_hash_us": ("us", "lower"),
    "runner.config_hash_calls": ("count", "lower"),
    "runner.cache_get_us": ("us", "lower"),
    "runner.cache_put_us": ("us", "lower"),
    "runner.cache_hit_ratio": ("ratio", "higher"),
    "runner.dispatch_ms": ("ms", "lower"),
    "runner.fallback_points": ("count", "lower"),
    "engine.construct_ms": ("ms", "lower"),
    "engine.construct_calls": ("count", "lower"),
    "engine.warm_start_ms": ("ms", "lower"),
    "engine.step_us.unthrottled": ("us", "lower"),
    "engine.step_us.stopgo": ("us", "lower"),
    "engine.step_us.dvfs": ("us", "lower"),
    "engine.step_us.migration": ("us", "lower"),
    "engine.step_other_us": ("us", "lower"),
    "engine.fused_runs": ("count", "higher"),
    "fleet.construct_ms": ("ms", "lower"),
    "fleet.member_step_us": ("us", "lower"),
    "fleet.members": ("count", "higher"),
    "thermal.apply_us": ("us", "lower"),
    "thermal.apply_calls": ("count", "lower"),
    "thermal.apply_batch_us": ("us", "lower"),
    "thermal.apply_batch_calls": ("count", "lower"),
    "thermal.operator_ms": ("ms", "lower"),
    "thermal.floorplan_ms": ("ms", "lower"),
    "thermal.leakage_us": ("us", "lower"),
    "core.scales_us": ("us", "lower"),
    "core.migrate_us": ("us", "lower"),
    "core.migrate_calls": ("count", "lower"),
    "control.pi_design_ms": ("ms", "lower"),
    "uarch.tracegen_ms": ("ms", "lower"),
    "faults.sensor_us": ("us", "lower"),
    "faults.guard_us": ("us", "lower"),
    "experiments.outside_runner_ms": ("ms", "lower"),
    "obs.trace_overhead_pct": ("%", "lower"),
    "obs.traced_hit_p50_ms": ("ms", "lower"),
    "host.cpu_per_wall": ("ratio", "lower"),
    "host.calib_rate": ("1/s", "higher"),
    "host.calib_spread_pct": ("%", "lower"),
}

STEP_CLASSES = ("unthrottled", "stopgo", "dvfs", "migration")


class LayerRecorder:
    """Call counts, total and self times per layer, across threads."""

    def __init__(self):
        self.total: Dict[str, float] = defaultdict(float)
        self.own: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.items: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # -- accounting ----------------------------------------------------------

    def _local(self):
        tls = self._tls
        if not hasattr(tls, "stack"):
            tls.stack = []
            tls.warm = 0.0
            tls.backend = None
        return tls

    def add(self, name: str, elapsed: float, own: float, items: float = 0.0,
            calls: int = 1) -> None:
        """Fold one finished call into ``name``'s totals."""
        with self._lock:
            self.total[name] += elapsed
            self.own[name] += own
            self.calls[name] += calls
            self.items[name] += items

    def count(self, name: str, n: float = 1) -> None:
        """Bump a plain counter."""
        with self._lock:
            self.calls[name] += int(n)

    def _call(self, fn, args, kwargs):
        """Run ``fn`` as one span; returns ``(result, elapsed, own)``."""
        stack = self._local().stack
        stack.append(0.0)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            child = stack.pop()
            if stack:
                stack[-1] += elapsed
        return out, elapsed, elapsed - child

    def timed(self, name: str, fn: Callable,
              items: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped as a span named ``name``."""
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out, elapsed, own = rec._call(fn, args, kwargs)
            rec.add(name, elapsed, own, items(args, out) if items else 0.0)
            return out

        return wrapper

    def snapshot(self) -> Dict:
        """JSON-safe copy of every counter."""
        with self._lock:
            return {
                "total": dict(self.total),
                "own": dict(self.own),
                "calls": dict(self.calls),
                "items": dict(self.items),
            }

    # -- patching ------------------------------------------------------------

    @property
    def installed(self) -> bool:
        """Whether the wrappers are currently in place."""
        return bool(self._patches)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        import repro.control.pi as pi
        import repro.scenarios as scenarios
        import repro.serve.protocol as protocol
        import repro.serve.server as server
        import repro.sim.engine as engine
        import repro.sim.fleet as fleet
        import repro.sim.runner as runner
        import repro.thermal.coupling as coupling
        import repro.thermal.layouts as layouts
        import repro.uarch.tracegen as tracegen
        from repro.core.dvfs import DVFSPolicy
        from repro.core.migration import MigrationPolicy
        from repro.core.stopgo import StopGoPolicy
        from repro.faults.guards import SensorGuardBank
        from repro.faults.injector import FaultInjector, FleetFaultInjector
        from repro.thermal.leakage import LeakageModel
        from repro.thermal.model import StepOperator, ThermalKernel, _dt_key

        rec = self
        t = self.timed

        # serve
        parse = protocol.JobRequest.__dict__["parse"].__func__
        self._patch(protocol.JobRequest, "parse",
                    classmethod(t("serve.parse", parse)))
        encode = t("serve.encode", protocol.job_payload)
        self._patch(protocol, "job_payload", encode)
        self._patch(server, "job_payload", encode)
        execute = server.ServeExecutor.execute

        def timed_execute(self_, request, trace=None):
            out, elapsed, own = rec._call(execute, (self_, request, trace), {})
            kind = "miss" if out[2] else "hit"
            rec.add(f"serve.execute_{kind}", elapsed, own)
            return out

        self._patch(server.ServeExecutor, "execute", timed_execute)

        # runner
        self._patch(runner, "config_hash",
                    t("runner.config_hash", runner.config_hash))
        self._patch(runner.ResultCache, "get",
                    t("runner.cache_get", runner.ResultCache.get,
                      items=lambda a, out: float(out is not None)))
        self._patch(runner.ResultCache, "put",
                    t("runner.cache_put", runner.ResultCache.put))
        run_points = runner.ParallelRunner.run_points

        def timed_run_points(self_, points, **kwargs):
            tls = rec._local()
            outer, tls.backend = tls.backend, self_.backend
            try:
                out, elapsed, own = rec._call(
                    run_points, (self_, points), kwargs
                )
            finally:
                tls.backend = outer
            rec.add("runner.run_points", elapsed, own, len(points))
            return out

        self._patch(runner.ParallelRunner, "run_points", timed_run_points)

        # engine
        sim_cls = engine.ThermalTimingSimulator
        self._patch(sim_cls, "__init__",
                    t("engine.construct", sim_cls.__init__))
        sim_run = sim_cls.run

        def timed_run(self_):
            tls = rec._local()
            warm0 = tls.warm
            result, elapsed, own = rec._call(sim_run, (self_,), {})
            steps = max(1, int(round(self_.config.duration_s / self_.dt)))
            if self_.spec is None:
                kind = "unthrottled"
            elif self_.migration is not None:
                kind = "migration"
            elif isinstance(self_.throttle, DVFSPolicy):
                kind = "dvfs"
            else:
                kind = "stopgo"
            rec.add(f"engine.step.{kind}", elapsed - (tls.warm - warm0), 0.0,
                    steps)
            rec.add("engine.run", elapsed, own, steps)
            if self_.last_run_fused:
                rec.count("engine.fused_runs")
            if tls.backend == "fleet":
                rec.count("runner.fallback_points")
            return result

        self._patch(sim_cls, "run", timed_run)
        steady = coupling.coupled_steady_state

        def timed_steady(*args, **kwargs):
            out, elapsed, own = rec._call(steady, args, kwargs)
            rec._local().warm += elapsed
            rec.add("engine.warm_start", elapsed, own)
            return out

        self._patch(engine, "coupled_steady_state", timed_steady)

        # fleet
        self._patch(fleet.FleetEngine, "__init__",
                    t("fleet.construct", fleet.FleetEngine.__init__,
                      items=lambda a, out: float(len(a[0].members))))
        fleet_run = fleet.FleetEngine.run

        def timed_fleet_run(self_):
            tls = rec._local()
            warm0 = tls.warm
            out, elapsed, own = rec._call(fleet_run, (self_,), {})
            member_steps = sum(m.n_steps for m in self_.members)
            rec.add("fleet.member_step", elapsed - (tls.warm - warm0), own,
                    member_steps)
            rec.count("engine.fused_runs", sum(m.fused for m in self_.members))
            return out

        self._patch(fleet.FleetEngine, "run", timed_fleet_run)

        # thermal
        self._patch(StepOperator, "apply",
                    t("thermal.apply", StepOperator.apply))
        self._patch(StepOperator, "apply_batch",
                    t("thermal.apply_batch", StepOperator.apply_batch,
                      items=lambda a, out: float(a[1].shape[0])))
        operator_for = ThermalKernel.operator_for
        timed_operator = t("thermal.operator", operator_for)

        def operator_for_first(self_, dt):
            if _dt_key(dt) in self_._propagators:
                return operator_for(self_, dt)
            return timed_operator(self_, dt)

        self._patch(ThermalKernel, "operator_for", operator_for_first)
        mesh = t("thermal.floorplan", layouts.build_mesh_floorplan)
        self._patch(layouts, "build_mesh_floorplan", mesh)
        self._patch(scenarios, "build_mesh_floorplan", mesh)
        self._patch(LeakageModel, "power_fast",
                    t("thermal.leakage", LeakageModel.power_fast))

        # core, control, uarch
        for cls in (DVFSPolicy, StopGoPolicy):
            self._patch(cls, "scales_from_hottest",
                        t("core.scales", cls.scales_from_hottest))
        self._patch(MigrationPolicy, "decide",
                    t("core.migrate", MigrationPolicy.decide))
        self._patch(pi, "design_pi", t("control.pi_design", pi.design_pi))
        trace = t("uarch.tracegen", tracegen.generate_trace)
        self._patch(tracegen, "generate_trace", trace)
        self._patch(engine, "generate_trace", trace)

        # faults
        for cls in (FaultInjector, FleetFaultInjector):
            self._patch(cls, "apply_sensor_faults",
                        t("faults.sensor", cls.apply_sensor_faults))
        self._patch(SensorGuardBank, "observe",
                    t("faults.guard", SensorGuardBank.observe))


def _mean(snap: Dict, name: str, scale: float, field: str = "total") -> float:
    calls = snap["calls"].get(name, 0)
    return snap[field].get(name, 0.0) / calls * scale if calls else 0.0


def _per_item(snap: Dict, name: str, scale: float) -> float:
    items = snap["items"].get(name, 0.0)
    return snap["total"].get(name, 0.0) / items * scale if items else 0.0


def layer_metrics(snap: Dict) -> Dict[str, float]:
    """Per-layer metric values from a :meth:`LayerRecorder.snapshot`.

    Only the program-side metrics; the caller adds the serve, obs and
    host metrics it measures itself.
    """
    calls = snap["calls"]
    out = {
        "serve.parse_us": _mean(snap, "serve.parse", 1e6, "own"),
        "serve.encode_us": _mean(snap, "serve.encode", 1e6),
        "serve.execute_hit_ms": _mean(snap, "serve.execute_hit", 1e3),
        "serve.execute_miss_ms": _mean(snap, "serve.execute_miss", 1e3),
        "runner.config_hash_us": _mean(snap, "runner.config_hash", 1e6),
        "runner.config_hash_calls": float(calls.get("runner.config_hash", 0)),
        "runner.cache_get_us": _mean(snap, "runner.cache_get", 1e6),
        "runner.cache_put_us": _mean(snap, "runner.cache_put", 1e6),
        "runner.cache_hit_ratio": (
            snap["items"].get("runner.cache_get", 0.0)
            / calls["runner.cache_get"]
            if calls.get("runner.cache_get") else 0.0
        ),
        "runner.dispatch_ms": _mean(snap, "runner.run_points", 1e3, "own"),
        "runner.fallback_points": float(calls.get("runner.fallback_points", 0)),
        "engine.construct_ms": _mean(snap, "engine.construct", 1e3),
        "engine.construct_calls": float(calls.get("engine.construct", 0)),
        "engine.warm_start_ms": (
            snap["total"].get("engine.warm_start", 0.0)
            / calls["engine.construct"] * 1e3
            if calls.get("engine.construct") else 0.0
        ),
        "engine.step_other_us": (
            snap["own"].get("engine.run", 0.0)
            / snap["items"]["engine.run"] * 1e6
            if snap["items"].get("engine.run") else 0.0
        ),
        "engine.fused_runs": float(calls.get("engine.fused_runs", 0)),
        "fleet.construct_ms": _mean(snap, "fleet.construct", 1e3),
        "fleet.member_step_us": _per_item(snap, "fleet.member_step", 1e6),
        "fleet.members": snap["items"].get("fleet.construct", 0.0),
        "thermal.apply_us": _mean(snap, "thermal.apply", 1e6),
        "thermal.apply_calls": float(calls.get("thermal.apply", 0)),
        "thermal.apply_batch_us": _per_item(snap, "thermal.apply_batch", 1e6),
        "thermal.apply_batch_calls": float(calls.get("thermal.apply_batch", 0)),
        "thermal.operator_ms": _mean(snap, "thermal.operator", 1e3),
        "thermal.floorplan_ms": _mean(snap, "thermal.floorplan", 1e3),
        "thermal.leakage_us": _mean(snap, "thermal.leakage", 1e6),
        "core.scales_us": _mean(snap, "core.scales", 1e6),
        "core.migrate_us": _mean(snap, "core.migrate", 1e6),
        "core.migrate_calls": float(calls.get("core.migrate", 0)),
        "control.pi_design_ms": _mean(snap, "control.pi_design", 1e3),
        "uarch.tracegen_ms": _mean(snap, "uarch.tracegen", 1e3),
        "faults.sensor_us": _mean(snap, "faults.sensor", 1e6),
        "faults.guard_us": _mean(snap, "faults.guard", 1e6),
    }
    for kind in STEP_CLASSES:
        out[f"engine.step_us.{kind}"] = _per_item(
            snap, f"engine.step.{kind}", 1e6
        )
    return out


# ---------------------------------------------------------------------------
# Planted slowdowns (self-test only)
# ---------------------------------------------------------------------------

#: Busy-wait per call of each planted function (seconds).
PLANT_DELAY_S = {
    "config_hash": 3e-3,
    "apply_batch": 2e-3,
    "apply": 40e-6,
}
PLANTS = tuple(PLANT_DELAY_S) + ("background_thread",)


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _slowed(fn: Callable, seconds: float) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        _busy(seconds)
        return fn(*args, **kwargs)

    return wrapper


def _spin_forever() -> None:
    # Busy 3 ms of every 4, in bursts that hold the interpreter lock.
    # A thread that never slept would starve the main thread outright:
    # each numpy call releases the lock and waits a switch interval to
    # win it back.
    while True:
        _busy(3e-3)
        time.sleep(1e-3)


def plant(name: Optional[str]) -> None:
    """Slow the program down at one place (``None``: do nothing)."""
    if not name:
        return
    if name not in PLANTS:
        raise ValueError(f"unknown plant {name!r}; known: {PLANTS}")
    if name == "background_thread":
        threading.Thread(target=_spin_forever, daemon=True,
                         name="planted-spinner").start()
        return
    import repro.sim.runner as runner
    from repro.thermal.model import StepOperator

    owner = runner if name == "config_hash" else StepOperator
    attr = name
    setattr(owner, attr, _slowed(getattr(owner, attr), PLANT_DELAY_S[name]))
