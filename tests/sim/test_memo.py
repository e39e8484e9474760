"""Once-per-chip construction tables and the bounded trace cache.

Simulators of one chip share the memoised thermal kernel, leakage
weights and network index tables instead of rebuilding them per point;
every shared table is a pure function of its key, so sharing changes no
result. Generated traces live in one bounded LRU, and a substrate's
hot-loop view of a trace lives exactly as long as the trace.
"""

import gc
import weakref
from dataclasses import fields

import numpy as np
import pytest

from repro.core.taxonomy import spec_by_key
from repro.sim.engine import EngineSubstrate, SimulationConfig, ThermalTimingSimulator
from repro.sim.workloads import get_workload
from repro.thermal.floorplan import Floorplan
from repro.thermal.layouts import build_cmp_floorplan
from repro.thermal.leakage import LeakageModel
from repro.thermal.model import ThermalModel, shared_kernel
from repro.thermal.package import HIGH_PERFORMANCE_PACKAGE
from repro.uarch import tracegen
from repro.uarch.tracegen import TRACE_CACHE_ENTRIES, generate_trace

W7 = get_workload("workload7")
CFG = SimulationConfig(duration_s=0.005)
DT = 100_000 / 3.6e9


def result_fields(result) -> dict:
    return {f.name: getattr(result, f.name) for f in fields(result)}


class TestSharedTables:
    def test_standalone_simulators_share_kernel_and_weights(self):
        spec = spec_by_key("distributed-dvfs-none")
        a = ThermalTimingSimulator(W7.benchmarks, spec, CFG)
        b = ThermalTimingSimulator(W7.benchmarks, None, CFG)
        assert a.thermal.kernel is b.thermal.kernel
        assert a.leakage.block_weights is b.leakage.block_weights
        assert a._core_unit_idx is b._core_unit_idx
        assert not a.leakage.block_weights.flags.writeable
        assert not a._core_unit_idx.flags.writeable

    def test_standalone_matches_substrate_built(self):
        """Standalone and substrate-built simulators share one kernel and
        produce the same run bit for bit."""
        spec = spec_by_key("global-stop-go-none")
        substrate = EngineSubstrate.for_config(CFG)
        alone = ThermalTimingSimulator(W7.benchmarks, spec, CFG)
        built = ThermalTimingSimulator(
            W7.benchmarks, spec, CFG, substrate=substrate
        )
        assert built.thermal.kernel is alone.thermal.kernel
        assert built.leakage.block_weights is alone.leakage.block_weights
        assert result_fields(built.run()) == result_fields(alone.run())
        np.testing.assert_array_equal(
            built.thermal.temperatures, alone.thermal.temperatures
        )

    def test_equal_packages_share_a_kernel(self):
        fp = build_cmp_floorplan()
        other = type(HIGH_PERFORMANCE_PACKAGE)(
            **{
                f.name: getattr(HIGH_PERFORMANCE_PACKAGE, f.name)
                for f in fields(HIGH_PERFORMANCE_PACKAGE)
            }
        )
        assert other == HIGH_PERFORMANCE_PACKAGE
        assert other is not HIGH_PERFORMANCE_PACKAGE
        kernel = shared_kernel(fp, HIGH_PERFORMANCE_PACKAGE)
        assert shared_kernel(fp, other) is kernel
        # A model of an equal package may use the shared kernel.
        ThermalModel(fp, other, DT, kernel=kernel)

    def test_dropping_a_floorplan_frees_kernel_and_weights(self):
        fp = Floorplan(build_cmp_floorplan().blocks)  # private, unmemoised
        model = ThermalModel(fp, HIGH_PERFORMANCE_PACKAGE, DT)
        leakage = LeakageModel(fp, 10.0)
        assert shared_kernel(fp, HIGH_PERFORMANCE_PACKAGE) is model.kernel
        kernel_ref = weakref.ref(model.kernel)
        weights_ref = weakref.ref(leakage.block_weights)
        plan_ref = weakref.ref(fp)
        del model, leakage, fp
        gc.collect()
        assert plan_ref() is None
        assert kernel_ref() is None
        assert weights_ref() is None

    def test_kernel_does_not_keep_its_floorplan_alive(self):
        fp = Floorplan(build_cmp_floorplan().blocks)
        kernel = shared_kernel(fp, HIGH_PERFORMANCE_PACKAGE)
        assert kernel.floorplan is fp
        del fp
        gc.collect()
        assert kernel.floorplan is None

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_steady_state_rejects_non_finite_power(self, bad):
        kernel = shared_kernel(build_cmp_floorplan(), HIGH_PERFORMANCE_PACKAGE)
        power = np.ones(kernel.network.n_blocks)
        power[3] = bad
        with pytest.raises(ValueError):
            kernel.steady_state(power)

    def test_unknown_node_name_raises_key_error(self):
        kernel = shared_kernel(build_cmp_floorplan(), HIGH_PERFORMANCE_PACKAGE)
        assert kernel.network.index("sink") == kernel.network.n_nodes - 1
        with pytest.raises(KeyError):
            kernel.network.index("core9.fpu")


class TestTraceCache:
    def test_lru_stays_at_its_bound(self):
        """More distinct seeds than the bound: the cache holds exactly the
        most recent TRACE_CACHE_ENTRIES traces, and a hit refreshes one."""
        tracegen.clear_trace_cache()
        n = TRACE_CACHE_ENTRIES + 9
        traces = [
            generate_trace("gzip", duration_s=1e-4, seed=s) for s in range(n)
        ]
        assert len(tracegen._TRACE_CACHE) == TRACE_CACHE_ENTRIES
        # The oldest were evicted; the newest are shared objects.
        assert generate_trace("gzip", duration_s=1e-4, seed=n - 1) is traces[-1]
        assert generate_trace("gzip", duration_s=1e-4, seed=0) is not traces[0]
        assert len(tracegen._TRACE_CACHE) == TRACE_CACHE_ENTRIES
        # seed 0 re-entered as most recent, evicting the oldest survivor.
        first_survivor = n - TRACE_CACHE_ENTRIES
        assert (
            generate_trace("gzip", duration_s=1e-4, seed=first_survivor)
            is not traces[first_survivor]
        )
        tracegen.clear_trace_cache()

    def test_key_covers_the_core_config(self):
        from dataclasses import replace

        from repro.uarch.config import MachineConfig

        base = MachineConfig()
        narrow = replace(base, core=replace(base.core, n_fxu=1))
        a = generate_trace("gcc", base, duration_s=1e-3)
        b = generate_trace("gcc", narrow, duration_s=1e-3)
        assert a is not b

    def test_substrate_view_lives_with_its_trace(self):
        substrate = EngineSubstrate.for_config(CFG)
        trace = generate_trace("gzip", duration_s=1e-3, seed=77, use_cache=False)
        view = substrate.trace_aux(trace)
        assert substrate.trace_aux(trace) is view
        assert len(substrate._aux) == 1
        del trace, view
        gc.collect()
        assert len(substrate._aux) == 0

    def test_recycled_id_never_aliases_a_view(self):
        """A stale entry under a trace's id (as left by a freed trace
        whose id was reused) is never handed to the new trace."""
        substrate = EngineSubstrate.for_config(CFG)
        old = generate_trace("gzip", duration_s=1e-3, seed=78, use_cache=False)
        new = generate_trace("mcf", duration_s=1e-3, seed=78, use_cache=False)
        stale_view = substrate.trace_aux(old)
        substrate._aux[id(new)] = substrate._aux.pop(id(old))
        view = substrate.trace_aux(new)
        assert view is not stale_view
        assert view.instructions == new.instructions.tolist()

    def test_concurrent_callers_share_entries_within_the_bound(self):
        """Eight threads with a short switch interval race over the same
        keys: while nothing is evicted, every caller of a key gets the
        one shared trace (a lost update would hand out two), and racing
        over more keys than the cache holds never exceeds its bound."""
        import sys
        import threading

        def race(keys, check):
            errors = []

            def worker(offset):
                try:
                    for i in range(len(keys)):
                        seed = keys[(i + offset) % len(keys)]
                        check(seed, generate_trace("gzip", duration_s=1e-4, seed=seed))
                except AssertionError as exc:  # pragma: no cover - reported below
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(k * 7,)) for k in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            assert not errors

        seen = {}
        lock = threading.Lock()

        def record(seed, trace):
            with lock:
                seen.setdefault(seed, set()).add(id(trace))

        def bounded(seed, trace):
            assert len(tracegen._TRACE_CACHE) <= TRACE_CACHE_ENTRIES

        tracegen.clear_trace_cache()
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            shared = list(range(1000, 1000 + TRACE_CACHE_ENTRIES // 2))
            race(shared, record)
            assert all(len(ids) == 1 for ids in seen.values())
            assert set(seen) == set(shared)
            race(list(range(2000, 2000 + TRACE_CACHE_ENTRIES + 16)), bounded)
            assert len(tracegen._TRACE_CACHE) == TRACE_CACHE_ENTRIES
        finally:
            sys.setswitchinterval(old)
            tracegen.clear_trace_cache()
