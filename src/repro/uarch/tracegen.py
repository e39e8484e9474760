"""Trace generation and caching.

``generate_trace`` runs the interval engine for a benchmark profile and
converts the resulting activity into a :class:`PowerTrace` via the power
model. Traces are deterministic in ``(benchmark, config, duration, seed)``
and cached at module level, since the same 22 traces back every policy and
workload combination (the paper likewise generates each SimPoint trace
once and reuses it across all experiments). The cache is a bounded,
thread-safe LRU of :data:`TRACE_CACHE_ENTRIES` traces, so a long-running
server fed fresh seeds keeps a constant footprint.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

from repro.uarch.benchmarks import BenchmarkProfile, get_benchmark
from repro.uarch.config import MachineConfig
from repro.uarch.interval_model import simulate_intervals
from repro.uarch.power import PowerModel
from repro.uarch.trace import PowerTrace
from repro.util.rng import DEFAULT_ROOT_SEED, RngStream

#: Default full-speed trace length (seconds). The paper's traces are
#: "hundreds of milliseconds" and loop to fill the 0.5 s experiment.
DEFAULT_TRACE_DURATION_S = 0.25

#: Traces the process-wide cache holds. A constant, not a knob: more
#: than three times the distinct traces of the largest experiment (20,
#: for Tables 5-8 and Figure 7), so a whole sweep stays resident, while
#: a server answering fresh seeds for hours holds at most this many.
TRACE_CACHE_ENTRIES = 64

_CacheKey = Tuple[object, ...]


class _TraceLRU:
    """Thread-safe least-recently-used map from cache key to trace."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._entries: "OrderedDict[_CacheKey, PowerTrace]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: _CacheKey) -> Optional[PowerTrace]:
        """The cached trace for ``key`` (now most recent), or ``None``."""
        with self._lock:
            trace = self._entries.get(key)
            if trace is not None:
                self._entries.move_to_end(key)
            return trace

    def put(self, key: _CacheKey, trace: PowerTrace) -> PowerTrace:
        """Cache ``trace``; returns the resident trace for ``key``.

        If another thread cached the key first, its trace is kept and
        returned, so concurrent callers still share one object.
        """
        with self._lock:
            resident = self._entries.setdefault(key, trace)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
            return resident

    def clear(self) -> int:
        """Drop every entry; returns how many there were."""
        with self._lock:
            n = len(self._entries)
            self._entries.clear()
            return n


_TRACE_CACHE = _TraceLRU(TRACE_CACHE_ENTRIES)


def _cache_key(
    profile: BenchmarkProfile,
    config: MachineConfig,
    duration_s: float,
    seed: int,
    power_scale: float,
) -> _CacheKey:
    """Everything a trace depends on: the profile, every machine field
    the interval model reads, the length, seed and power scale."""
    return (
        profile.name,
        config.trace_sample_cycles,
        config.clock_hz,
        config.core,
        duration_s,
        seed,
        power_scale,
    )


def generate_trace(
    benchmark,
    config: Optional[MachineConfig] = None,
    duration_s: float = DEFAULT_TRACE_DURATION_S,
    seed: int = DEFAULT_ROOT_SEED,
    power_scale: float = 1.0,
    use_cache: bool = True,
) -> PowerTrace:
    """Generate (or fetch from cache) the power trace of one benchmark.

    Parameters
    ----------
    benchmark:
        A :class:`BenchmarkProfile` or a benchmark name.
    config:
        Machine configuration; defaults to the paper's Table 3 machine.
    duration_s:
        Full-speed length of the trace.
    seed:
        Root seed for the benchmark's phase/jitter streams.
    power_scale:
        Uniform power-budget scale (see :class:`PowerModel`).
    use_cache:
        Reuse a previously generated identical trace if available.
    """
    profile = (
        benchmark if isinstance(benchmark, BenchmarkProfile) else get_benchmark(benchmark)
    )
    config = config or MachineConfig()
    if not duration_s > 0:
        raise ValueError(f"duration_s must be positive: {duration_s}")

    key = _cache_key(profile, config, duration_s, seed, power_scale)
    if use_cache:
        cached = _TRACE_CACHE.get(key)
        if cached is not None:
            return cached

    n_intervals = max(1, int(round(duration_s / config.sample_period_s)))
    rng = RngStream(seed, "trace", profile.name)
    stats = simulate_intervals(profile, config, n_intervals, rng)
    model = PowerModel(config, scale=power_scale)

    trace = PowerTrace(
        benchmark=profile.name,
        sample_period_s=config.sample_period_s,
        sample_cycles=config.trace_sample_cycles,
        unit_power=model.core_unit_power(stats),
        l2_activity=stats.l2_activity.copy(),
        instructions=stats.instructions.copy(),
        int_rf_accesses=stats.int_rf_accesses.copy(),
        fp_rf_accesses=stats.fp_rf_accesses.copy(),
    )
    if use_cache:
        trace = _TRACE_CACHE.put(key, trace)
    return trace


def clear_trace_cache() -> int:
    """Drop all cached traces; returns how many were discarded."""
    return _TRACE_CACHE.clear()
