"""The fleet engine's vectorised folds equal the scalar per-core loops.

:func:`repro.sim.fleet._left_folds` replaces the fleet's per-core Python
loops (metric totals, L2 traffic) with one ``np.add.accumulate`` over a
seeded stack, and :func:`repro.sim.fleet._python_max_fold` replaces the
global-DVFS chip-hot ``np.where`` chain. Both must reproduce the scalar
engine's Python folds bit for bit on any input — NaN, ±inf, signed
zeros and frozen masks included — or fleet members drift from their
scalar runs.
"""

import math

import numpy as np
import pytest

from repro.sim.fleet import _GroupBase, _left_folds, _python_max_fold
from repro.sim.metrics import MetricsAccumulator

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

# Specials make numpy warn about overflow and inf - inf; the Python folds
# they are checked against produce the same values silently.
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

#: Any float64, the specials included.
ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, width=64)
#: Temperatures, core counts and values the engines feed the folds,
#: plus the specials a faulted sensor or an overflow can produce.
SPECIALS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, 84.2, 1e300, -1e300, 5e-324]
)
VALUE = st.one_of(ANY_FLOAT, SPECIALS)


def same(a: float, b: float) -> bool:
    """Bitwise equality, any NaN matching any NaN (payloads carry nothing)."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def matrices(rows, cols):
    return hnp.arrays(np.float64, (rows, cols), elements=VALUE)


@st.composite
def fold_inputs(draw):
    m = draw(st.integers(1, 5))
    c = draw(st.integers(1, 9))
    q = draw(st.integers(1, 4))
    seeds = [draw(hnp.arrays(np.float64, (m,), elements=VALUE)) for _ in range(q)]
    cols = [draw(matrices(m, c)) for _ in range(q)]
    return seeds, cols


@settings(max_examples=200, deadline=None)
@given(fold_inputs())
def test_left_folds_equal_python_left_fold(inputs):
    """Each row of each block folds exactly like ``acc += x`` per core."""
    seeds, cols = inputs
    out = _left_folds(seeds, cols)
    assert out.shape == (len(cols), cols[0].shape[0])
    for j, (seed, col) in enumerate(zip(seeds, cols)):
        for i in range(col.shape[0]):
            acc = float(seed[i])
            for x in col[i].tolist():
                acc += x
            assert same(float(out[j, i]), acc)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda m: st.tuples(
            hnp.arrays(
                np.float64,
                (m,),
                elements=st.floats(0.0, 1e6, allow_nan=False),
            ),
            hnp.arrays(np.bool_, (m, 9)),
        )
    ),
    st.floats(1e-9, 1.0),
)
def test_frozen_fold_equals_conditional_adds(seed_mask, dt):
    """Folding ``where(frozen, dt, 0.0)`` equals ``if frozen: t += dt``:
    adding ``0.0`` leaves a non-negative total bit-for-bit unchanged."""
    seed, frozen = seed_mask
    (out,) = _left_folds([seed], [np.where(frozen, dt, 0.0)])
    for i in range(frozen.shape[0]):
        acc = float(seed[i])
        for is_frozen in frozen[i].tolist():
            if is_frozen:
                acc += dt
        assert same(float(out[i]), acc)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda m: st.integers(1, 9).flatmap(lambda c: matrices(m, c))
    )
)
def test_chip_hot_fold_equals_python_max(hot):
    """The chip-hot selection is the scalar's ``max(hottest)``: a NaN
    first reading is kept, later NaNs are skipped, ties keep the first
    (so ``0.0`` / ``-0.0`` come out exactly as Python picks them)."""
    out = _python_max_fold(hot)
    for i, row in enumerate(hot.tolist()):
        assert same(float(out[i]), max(row))


def _stub_group(m: int, n_cores: int, dt: float, threshold_c: float):
    """A ``_GroupBase`` holding only the accumulators ``_step_metrics`` uses."""
    g = _GroupBase.__new__(_GroupBase)
    g.dt = dt
    g.n_cores = n_cores
    for name in ("wall", "work_t", "stall_t", "frozen_t", "instr_tot", "emerg", "zeros"):
        setattr(g, name, np.zeros(m))
    g.max_t = np.full(m, -273.15)
    g.pci = np.zeros((m, n_cores))
    g.emerg_thresh = np.full(m, threshold_c + 0.35)
    return g


@st.composite
def metric_steps(draw):
    m = draw(st.integers(1, 4))
    c = draw(st.integers(1, 8))
    n = draw(st.integers(1, 4))
    nonneg = st.one_of(
        st.floats(0.0, 1e9, allow_nan=False), st.sampled_from([0.0, 1e300, math.inf])
    )
    steps = []
    for _ in range(n):
        steps.append(
            (
                draw(hnp.arrays(np.float64, (m, c), elements=nonneg)),
                draw(hnp.arrays(np.float64, (m, c), elements=nonneg)),
                draw(st.one_of(st.none(), hnp.arrays(np.bool_, (m, c)))),
                draw(hnp.arrays(np.float64, (m, c), elements=VALUE)),
                draw(hnp.arrays(np.float64, (m,), elements=VALUE)),
            )
        )
    return m, c, steps


@settings(max_examples=150, deadline=None)
@given(metric_steps(), st.floats(1e-6, 1e-3))
def test_step_metrics_equal_record_step(case, dt):
    """The fleet's batched metric fold reproduces
    ``MetricsAccumulator.record_step`` per member, every field."""
    m, c, steps = case
    threshold_c = 84.2
    group = _stub_group(m, c, dt, threshold_c)
    scalar = [MetricsAccumulator(c, threshold_c) for _ in range(m)]
    for work, stalled, frozen, instr, mt in steps:
        group._step_metrics(m, work, stalled, frozen, instr, mt)
        for i, acc in enumerate(scalar):
            acc.record_step(
                dt,
                work[i].tolist(),
                stalled[i].tolist(),
                [False] * c if frozen is None else frozen[i].tolist(),
                instr[i].tolist(),
                float(mt[i]),
            )
    for i, acc in enumerate(scalar):
        assert same(float(group.wall[i]), acc.wall_time_s)
        assert same(float(group.work_t[i]), acc.work_time_s)
        assert same(float(group.stall_t[i]), acc.stall_time_s)
        assert same(float(group.frozen_t[i]), acc.frozen_time_s)
        assert same(float(group.instr_tot[i]), acc.instructions)
        assert same(float(group.max_t[i]), acc.max_temp_c)
        assert same(float(group.emerg[i]), acc.emergency_s)
        for got, want in zip(group.pci[i].tolist(), acc.per_core_instructions):
            assert same(got, want)
