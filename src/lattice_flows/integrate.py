"""Streamed integration and invariant-drift reporting.

Two step policies: classic fixed-step fourth-order Runge-Kutta, and the
embedded Fehlberg 4(5) pair with absolute/relative error control.  States
may be complex; a short real-valued fixed-step run of a polynomial chain
steps Python numbers (``LIST_STEP_MAX_DIM``).  The accepted samples go to
a sink in blocks of BLOCK_ROWS rows, so a run holds one block whatever its
length.  Charts whose coordinates must stay positive are watched at every
accepted step; a crossing halts integration with DomainExit.  A step that
overflows to a non-finite state raises StepFailure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .catalog import LatticeSystem
from .errors import DimensionError, DomainExit, StepFailure
from .states import State, coordinate_names


#: A fixed-step run stops once less than this fraction of dt is left before
#: t_end: such a remainder is rounding that accumulated in t (about 1e-7 dt
#: after 1e5 steps), not a step worth taking.
FIXED_STEP_SLACK = 1e-6

#: Accepted samples per block handed to a run's sink, counted from t = 0.
BLOCK_ROWS = 128

#: The most steps a run may take.  A fixed-step run whose t_end / dt, rounded
#: up, is larger is refused before its first step; an adaptive run that has
#: accepted this many steps short of t_end stops with StepFailure.  It bounds
#: a run's length and the CSV it writes; one block bounds its memory.
MAX_STEPS = 2_000_000

#: The adaptive policy's first step (clipped to t_end), and the step below
#: which it gives up with StepFailure.
DT_INITIAL = 1e-2
DT_MIN = 1e-12

#: A fixed-step run from a state with no imaginary part and at most this many
#: coordinates, on a chart of ``LatticeSystem.list_charts``, steps a list of
#: Python complex numbers: at a few coordinates numpy's cost per call exceeds
#: the arithmetic.  The bits are numpy's: the list fields use only + - x,
#: every constant is complex, and with every imaginary part +-0 each product
#: with a zero is exact, so Python rounds each operation as numpy does.  Past
#: this size the row is faster.  Microseconds per RK4 step, numpy row -> list
#: (AMD EPYC, Python 3.11, numpy 2.4.6; km crosses near d = 21):
#:
#:     d    km            bv-d          vd            ab            toda
#:     5    12.1 -> 5.2   11.1 -> 5.8   10.2 -> 5.1   14.0 -> 7.0   17.3 -> 7.5
#:    13    11.9 -> 8.6   16.6 -> 9.9   15.6 -> 8.5   16.2 -> 11.0  17.1 -> 11.1
#:    17    12.0 -> 10.3  19.2 -> 12.0  17.0 -> 10.4  17.1 -> 13.0  17.1 -> 12.8
#:    21    12.0 -> 12.1  22.1 -> 13.7  18.9 -> 12.1  18.3 -> 14.7  17.3 -> 14.8
#:    25    12.0 -> 13.7  24.4 -> 15.8  21.1 -> 13.6  19.3 -> 16.6  17.2 -> 16.7
#:    41    12.1 -> 20.2  34.9 -> 23.5  29.7 -> 20.8  23.8 -> 24.1  17.3 -> 24.2
LIST_STEP_MAX_DIM = 16


@dataclass(frozen=True)
class FixedStep:
    """Classic RK4 with constant dt (the final step is clipped to t_end).

    No step is shorter than FIXED_STEP_SLACK * min(dt, t_end), so t_end = N * dt
    takes N steps even when the running sum of t falls short of t_end.
    """

    dt: float


@dataclass(frozen=True)
class AdaptiveStep:
    """Embedded Fehlberg 4(5) pair with mixed absolute/relative control."""

    rtol: float = 1e-9
    atol: float = 1e-12


# a step that overflows is named by check_step (StepFailure), not by numpy's warnings
@np.errstate(over="ignore", invalid="ignore")
def integrate(system: LatticeSystem, s0: State, t_end: float, policy, sink) -> None:
    """Integrate the system's field from s0 to t_end, sampling t = 0 and every accepted step.

    A run steps one (d,) row, or a list of Python complex numbers where
    ``LIST_STEP_MAX_DIM`` says, with the same bits.  The samples go to
    ``sink(times, coords)`` in blocks of up to BLOCK_ROWS,
    counted from t = 0: a (k,) array of times and the (k, d) complex array
    whose row i, in the chart of s0, is the state at times[i].  The rows
    accepted before a DomainExit or StepFailure are handed over before it is
    raised.  The sink runs under this function's ``np.errstate``.
    """
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError("t_end must be finite and nonnegative")
    if s0.array.ndim != 1:
        raise DimensionError(f"a run starts from one state, not a block of shape {s0.array.shape}")
    _check_policy(policy)
    if isinstance(policy, FixedStep) and t_end / policy.dt > MAX_STEPS:  # an overflow reads inf
        raise ValueError(f"t / dt = {t_end!r} / {policy.dt!r} is more than the {MAX_STEPS:,} "
                         "fixed steps a run may take; use a larger dt or adaptive steps")
    times, rows = [], []

    def emit(t, y):
        times.append(t)
        rows.append(y)
        if len(times) == BLOCK_ROWS:
            flush()

    def flush():
        if times:
            sink(np.array(times), np.array(rows))
            times.clear()
            rows.clear()

    def fail(exc):
        flush()
        return exc

    emit(0.0, s0.array)
    if t_end == 0.0:
        flush()
        return

    # the chart's field is resolved once; every stage passes s0 for its chart and sizes
    field, spectrum, positive = system._on_chart(s0), system.spectrum, system.positive

    def f(y):
        return field(s0, y, spectrum)

    def check_step(y, t, dt):
        if isinstance(y, list):  # a sum is finite only if every term is; a failure is named from the row
            if cmath.isfinite(sum(y)) and not (positive and min(z.real for z in y) <= 0.0):
                return
            y = np.array(y)
        if not np.isfinite(y).all():
            name, value = _first(s0, ~np.isfinite(y), y)
            raise fail(StepFailure(f"coordinate {name} overflowed to a non-finite value ({value}) "
                                   f"at t = {t:.6g} (dt = {dt:.3g})"))
        if positive and y.real.min() <= 0.0:
            name, value = _first(s0, y.real <= 0.0, y)
            raise fail(DomainExit(f"positivity-constrained coordinate {name} crossed zero to {value} "
                                  f"at t = {t:.6g} (dt = {dt:.3g})"))

    y = s0.array
    if (isinstance(policy, FixedStep) and s0.chart in system.list_charts and s0.dim <= LIST_STEP_MAX_DIM
            and not y.imag.any()):
        y = y.tolist()
    t = 0.0
    if isinstance(policy, FixedStep):
        while t_end - t > FIXED_STEP_SLACK * min(policy.dt, t_end):
            dt = min(policy.dt, t_end - t)
            y = _rk4_step(f, y, dt)
            t += dt
            check_step(y, t, dt)
            emit(t, y)
        flush()
        return

    dt = min(DT_INITIAL, t_end)
    abs_y = np.abs(y)
    end = t_end - 1e-15 * max(1.0, t_end)
    steps = 0
    while t < end:
        dt = min(dt, t_end - t)
        y_new, err = _fehlberg_step(f, y, dt)
        abs_new = np.abs(y_new)
        scale = policy.atol + policy.rtol * np.maximum(abs_y, abs_new)
        ratio = float((np.abs(err) / scale).max()) if err.size else 0.0
        if ratio <= 1.0:
            t += dt
            y, abs_y = y_new, abs_new
            check_step(y, t, dt)
            emit(t, y)
            steps += 1
            if steps == MAX_STEPS and t < end:
                raise fail(StepFailure(f"adaptive run reached the {MAX_STEPS:,}-step limit "
                                       f"at t = {t:.6g} (dt = {dt:.3g})"))
            grow = 0.9 * ratio ** -0.2 if ratio > 0 else 5.0
            dt *= min(5.0, max(0.2, grow))
        else:
            shrunk = dt * max(0.2, 0.9 * ratio**-0.2)
            if shrunk < DT_MIN and not np.isfinite(y_new).all():
                # a non-finite trial rejects every step down to DT_MIN: name the overflow, not the underflow
                check_step(y_new, t + dt, dt)
            dt = shrunk
        if dt < DT_MIN:
            raise fail(StepFailure(f"adaptive step underflow (dt = {dt:.3g}) at t = {t:.6g}"))
    flush()


def _first(s0: State, where, y) -> tuple[str, str]:
    """The CSV column name and the value of the first coordinate of ``y``
    that ``where`` marks."""
    i = int(np.argmax(where))
    return coordinate_names(s0)[i], _cells(y[i : i + 1])[0]


def _check_policy(policy) -> None:
    """Reject step parameters that are non-finite or that disable error control."""
    if isinstance(policy, FixedStep):
        if not (math.isfinite(policy.dt) and policy.dt > 0):
            raise ValueError("dt must be finite and positive")
    elif isinstance(policy, AdaptiveStep):
        tols = (policy.rtol, policy.atol)
        if not all(math.isfinite(x) and x >= 0 for x in tols) or not any(tols):
            raise ValueError("rtol and atol must be finite and nonnegative, and not both zero")
    else:
        raise ValueError(f"unknown step policy {policy!r}")


def _rk4_step(f, y, dt):
    """One classic RK4 step from a (d,) row, or from a list of Python complex
    numbers by the same operations, their factors made complex as numpy makes
    them (a float factor would drop the 0·imag term from Python 3.14 on)."""
    if isinstance(y, list):
        half, full, sixth, two = complex(0.5 * dt), complex(dt), complex(dt / 6.0), 2 + 0j
        k1 = f(y)
        k2 = f([x + half * k for x, k in zip(y, k1)])
        k3 = f([x + half * k for x, k in zip(y, k2)])
        k4 = f([x + full * k for x, k in zip(y, k3)])
        return [x + sixth * (a + two * b + two * c + d) for x, a, b, c, d in zip(y, k1, k2, k3, k4)]
    k1 = f(y)
    k2 = f(y + 0.5 * dt * k1)
    k3 = f(y + 0.5 * dt * k2)
    k4 = f(y + dt * k3)
    return y + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)


#: Fehlberg 4(5), one row per weighted sum of the stages k1 ... k6: the
#: inputs of stages 2-6, then the 4th-order propagation and the error estimate.
FEHLBERG_ROWS = (
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8, 3680 / 513, -845 / 4104),
    (-8 / 27, 2, -3544 / 2565, 1859 / 4104, -11 / 40),
    (25 / 216, 0, 1408 / 2565, 2197 / 4104, -1 / 5, 0),
    (1 / 360, 0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55),
)


def _tableau_columns(rows):
    """Each stage's column of the tableau as (lo, hi, weights): the rows
    lo ... hi - 1 are the sums that take the stage, a contiguous span, and
    ``weights`` their entries as a complex (hi - lo, 1) column, as a complex
    product would cast them."""
    columns = []
    for stage in range(len(rows) - 1):
        used = [r for r, row in enumerate(rows) if stage < len(row) and row[stage]]
        lo, hi = used[0], used[-1] + 1
        if used != list(range(lo, hi)):
            raise ValueError(f"stage {stage + 1} is taken by rows {used}, not a contiguous span")
        columns.append((lo, hi, np.array([rows[r][stage] for r in used], dtype=complex)[:, None]))
    return tuple(columns)


FEHLBERG_COLUMNS = _tableau_columns(FEHLBERG_ROWS)


def _fehlberg_step(f, y, dt):
    """One Fehlberg 4(5) step: 4th-order propagation, 5th-order error estimate.

    The seven weighted sums are running rows of one (7, d) stack that starts
    at zero.  Once a stage is made, its weighted copies are added to the
    span of sums that take it (``FEHLBERG_COLUMNS``), so each sum adds its
    nonzero terms left to right from zero, as a Python ``sum`` adds them
    from its 0, and row s - 2 is complete when stage s needs it.
    """
    sums = np.zeros((len(FEHLBERG_ROWS),) + y.shape, dtype=complex)
    k = f(y)
    for s, (lo, hi, weights) in enumerate(FEHLBERG_COLUMNS):
        sums[lo:hi] += weights * k
        if s < len(FEHLBERG_COLUMNS) - 1:
            k = f(y + dt * sums[s])
    return y + dt * sums[-2], dt * sums[-1]


# ---------------------------------------------------------------------------
# drift reporting and CSV export
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftRecord:
    name: str
    initial: complex
    max_abs_drift: float
    max_rel_drift: float


def drift_report(columns) -> list[DriftRecord]:
    """Drift of each named invariant against its value at t = 0.

    ``columns`` maps names to values, one per sample (``invariant_columns``).
    Relative drift divides by max(|initial|, 1e-12).
    """
    out = []
    for name, values in columns.items():
        values = np.asarray(values, dtype=complex)
        drift = np.max(np.abs(values - values[0]))
        rel = drift / max(abs(values[0]), 1e-12)
        out.append(DriftRecord(name, complex(values[0]), float(drift), float(rel)))
    return out


def _cells(values) -> list[str]:
    """Each number of a 1-D complex array as a CSV cell of 17 significant
    digits: its real part, then its signed imaginary part and ``j`` where
    that is nonzero."""
    return [f"{re:.17g}" if im == 0.0 else f"{re:.17g}{im:+.17g}j"
            for re, im in zip(values.real.tolist(), values.imag.tolist())]


def trajectory_csv(times, coords, columns=None) -> str:
    """The CSV lines of one block of samples: t, the coordinates, then the
    invariant columns, with no header.

    ``times`` and ``coords`` are a block as ``integrate`` hands it to its
    sink; ``columns`` maps each invariant name to its values at those rows
    (as ``LatticeSystem.invariant_columns`` returns them).  Cells are
    formatted a column at a time.
    """
    cells = [[f"{t:.17g}" for t in times.tolist()]]
    cells += [_cells(column) for column in coords.T]
    cells += [_cells(np.asarray(values, dtype=complex)) for values in (columns or {}).values()]
    return "\n".join(map(",".join, zip(*cells))) + "\n"
