"""Performance metrics (paper Section 3.5).

Two headline metrics:

* **BIPS** — raw instruction throughput of the whole workload, billions of
  instructions per second of wall-clock (silicon) time;
* **adjusted duty cycle** — the ratio of work done to the work that would
  have been done with every core at full frequency and no overheads.
  Contributions are weighted by the dynamic frequency ("if all cores run
  half the time at 30% speed and the other half at 40%, this results in a
  duty cycle of 35%"), and overhead stalls (PLL transitions, migration
  context switches) count as zero work.

The accumulator also tracks thermal-emergency exposure: any step whose
true silicon temperature exceeds the threshold (plus a small tolerance
for the setpoint-overshoot regime the PI controller permits) counts
toward ``emergency_s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

#: Temperature above threshold tolerated before counting an emergency.
EMERGENCY_TOLERANCE_C = 0.35


@dataclass
class MetricsAccumulator:
    """Streaming accumulation of run metrics."""

    n_cores: int
    threshold_c: float
    instructions: float = 0.0
    work_time_s: float = 0.0       # sum over cores of frequency-weighted time
    wall_time_s: float = 0.0
    stall_time_s: float = 0.0      # overheads (transitions + migrations)
    frozen_time_s: float = 0.0     # stop-go freezes, summed over cores
    max_temp_c: float = -273.15
    emergency_s: float = 0.0
    per_core_instructions: List[float] = field(default_factory=list)

    def __post_init__(self):
        """Default the per-core tallies and validate the core count."""
        if self.n_cores < 1:
            raise ValueError(f"n_cores must be >= 1: {self.n_cores}")
        if not self.per_core_instructions:
            self.per_core_instructions = [0.0] * self.n_cores

    def record_step(
        self,
        dt: float,
        core_work_s: List[float],
        core_stall_s: List[float],
        core_frozen: List[bool],
        core_instructions: List[float],
        max_temp_c: float,
    ) -> None:
        """Fold one engine step into the totals.

        ``core_work_s`` is frequency-weighted useful time per core in this
        step (``scale * active_time``); ``core_stall_s`` is overhead time.
        """
        if len(core_work_s) != self.n_cores:
            raise ValueError("one work entry per core required")
        self.wall_time_s += dt
        # The step's instructions are a plain left fold from 0.0, not
        # ``sum()``: from Python 3.12 ``sum`` of floats is compensated,
        # which would make totals depend on the interpreter version and
        # differ from the fleet engine's fold (repro.sim.fleet).
        step_instructions = 0.0
        for core in range(self.n_cores):
            self.work_time_s += core_work_s[core]
            self.stall_time_s += core_stall_s[core]
            if core_frozen[core]:
                self.frozen_time_s += dt
            self.per_core_instructions[core] += core_instructions[core]
            step_instructions += core_instructions[core]
        self.instructions += step_instructions
        if max_temp_c > self.max_temp_c:
            self.max_temp_c = max_temp_c
        if max_temp_c > self.threshold_c + EMERGENCY_TOLERANCE_C:
            self.emergency_s += dt

    @property
    def bips(self) -> float:
        """Billions of instructions per second of wall time."""
        if self.wall_time_s == 0:
            return 0.0
        return self.instructions / self.wall_time_s / 1e9

    @property
    def duty_cycle(self) -> float:
        """Adjusted duty cycle in [0, 1]."""
        if self.wall_time_s == 0:
            return 0.0
        return self.work_time_s / (self.n_cores * self.wall_time_s)

    @property
    def had_emergency(self) -> bool:
        """Whether the run ever exceeded the emergency envelope."""
        return self.emergency_s > 0.0
