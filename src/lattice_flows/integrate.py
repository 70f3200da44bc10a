"""Trajectory integration and invariant-drift reporting.

Two step policies: classic fixed-step fourth-order Runge-Kutta, and the
embedded Fehlberg 4(5) pair with absolute/relative error control.  States
may be complex.  Charts whose coordinates must stay positive are watched at
every accepted step; a crossing halts integration with DomainExit carrying
the partial trajectory.  A step that overflows to a non-finite state raises
StepFailure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import LatticeSystem
from .errors import DomainExit, StepFailure
from .states import State, coordinate_names


#: A fixed-step run stops once less than this fraction of dt is left before
#: t_end: such a remainder is rounding that accumulated in t (about 1e-7 dt
#: after 1e5 steps), not a step worth taking.
FIXED_STEP_SLACK = 1e-6

#: The most steps, t_end / dt rounded up, that a fixed-step run may take.  A
#: trajectory holds every accepted row until it is rendered: ``simulate
#: --system ab --m 2`` peaked at 30 MiB plus about 370 bytes a row (65.7,
#: 100.3 and 171.0 MiB at 1e5, 2e5 and 4e5 steps), so this limit keeps such a
#: run near 730 MiB.  A wider state takes more bytes a row.
MAX_FIXED_STEPS = 2_000_000

#: The adaptive policy's first step (clipped to t_end), and the step below
#: which it gives up with StepFailure.
DT_INITIAL = 1e-2
DT_MIN = 1e-12


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


@dataclass
class Trajectory:
    """Accepted samples: ``coords`` row k, a (T, d) array, is the state at ``times[k]``.

    Every row is in the chart of ``initial``, the state at times[0].
    """

    times: np.ndarray
    coords: np.ndarray
    initial: State

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        y = np.asarray(self.coords, dtype=complex)
        if y.ndim != 2 or len(t) != len(y):
            raise ValueError("one row of coordinates per sample time required")
        if y.shape[1] != self.initial.dim:
            raise ValueError("state dimension must stay constant along a trajectory")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample times must be strictly increasing")
        self.times, self.coords = t, y

    @property
    def final(self) -> State:
        return self.initial.replace_coords(self.coords[-1])


# a step that overflows is named by check_step (StepFailure), not by numpy's warnings
@np.errstate(over="ignore", invalid="ignore")
def integrate(system: LatticeSystem, s0: State, t_end: float, policy) -> Trajectory:
    """Integrate the system's field from s0 to t_end, sampling every accepted step."""
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError("t_end must be finite and nonnegative")
    _check_policy(policy)
    if isinstance(policy, FixedStep) and t_end / policy.dt > MAX_FIXED_STEPS:  # an overflow reads inf
        raise ValueError(f"t / dt = {t_end!r} / {policy.dt!r} is more than the {MAX_FIXED_STEPS:,} "
                         "fixed steps a run may take; use a larger dt or adaptive steps")
    times = [0.0]
    rows = [s0.array]

    def trajectory():
        return Trajectory(np.array(times), np.array(rows), s0)

    if t_end == 0.0:
        return trajectory()

    # the chart's field is resolved once; every stage passes s0 as the template
    field, spectrum, positive = system._on_chart(s0), system.spectrum, system.positive

    def f(y):
        return field(s0, y, spectrum)

    def check_step(y, t, dt):
        if not np.isfinite(y).all():
            name, value = _first(s0, ~np.isfinite(y), y)
            raise StepFailure(f"coordinate {name} overflowed to a non-finite value ({value}) "
                              f"at t = {t:.6g} (dt = {dt:.3g})")
        if positive and y.real.min() <= 0.0:
            name, value = _first(s0, y.real <= 0.0, y)
            raise DomainExit(f"positivity-constrained coordinate {name} crossed zero to {value} "
                             f"at t = {t:.6g} (dt = {dt:.3g})", trajectory())

    y = s0.array
    t = 0.0
    if isinstance(policy, FixedStep):
        while t_end - t > FIXED_STEP_SLACK * min(policy.dt, t_end):
            dt = min(policy.dt, t_end - t)
            y = _rk4_step(f, y, dt)
            t += dt
            check_step(y, t, dt)
            times.append(t)
            rows.append(y)
        return trajectory()

    dt = min(DT_INITIAL, t_end)
    abs_y = np.abs(y)
    while t < t_end - 1e-15 * max(1.0, t_end):
        dt = min(dt, t_end - t)
        y_new, err = _fehlberg_step(f, y, dt)
        abs_new = np.abs(y_new)
        scale = policy.atol + policy.rtol * np.maximum(abs_y, abs_new)
        ratio = float((np.abs(err) / scale).max()) if err.size else 0.0
        if ratio <= 1.0:
            t += dt
            y, abs_y = y_new, abs_new
            check_step(y, t, dt)
            times.append(t)
            rows.append(y)
            grow = 0.9 * ratio ** -0.2 if ratio > 0 else 5.0
            dt *= min(5.0, max(0.2, grow))
        else:
            shrunk = dt * max(0.2, 0.9 * ratio**-0.2)
            if shrunk < DT_MIN and not np.isfinite(y_new).all():
                # a non-finite trial rejects every step down to DT_MIN: name the overflow, not the underflow
                check_step(y_new, t + dt, dt)
            dt = shrunk
        if dt < DT_MIN:
            raise StepFailure(f"adaptive step underflow (dt = {dt:.3g}) at t = {t:.6g}")
    return trajectory()


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
    (-8 / 27, 2, -3554 / 2565, 1859 / 4104, -11 / 40),
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


#: Rows per block in which trajectory_csv formats its cells, a column at a time.
CSV_BLOCK_ROWS = 128


def _cells(values) -> list[str]:
    """Each number of a 1-D complex array as a CSV cell of 17 significant
    digits: its real part, then its signed imaginary part and ``j`` where
    that is nonzero."""
    return [f"{re:.17g}" if im == 0.0 else f"{re:.17g}{im:+.17g}j"
            for re, im in zip(values.real.tolist(), values.imag.tolist())]


def trajectory_csv(traj: Trajectory, columns=None) -> str:
    """Render a trajectory as CSV: t, coordinates, then invariant columns.

    ``columns`` maps each invariant name to its values, one complex number
    per sample (as ``LatticeSystem.invariant_columns`` returns them).  Cells
    are formatted a column at a time, in blocks of CSV_BLOCK_ROWS rows.
    """
    columns = columns or {}
    if any(len(values) != len(traj.times) for values in columns.values()):
        raise ValueError("every invariant column needs one value per sample")
    header = ["t"] + coordinate_names(traj.initial) + list(columns)
    parts = [",".join(header) + "\n"]
    invariants = [np.asarray(values, dtype=complex) for values in columns.values()]
    for lo in range(0, len(traj.times), CSV_BLOCK_ROWS):
        block = slice(lo, lo + CSV_BLOCK_ROWS)
        cells = [[f"{t:.17g}" for t in traj.times[block].tolist()]]
        cells += [_cells(column) for column in traj.coords[block].T]
        cells += [_cells(values[block]) for values in invariants]
        parts.append("\n".join(map(",".join, zip(*cells))) + "\n")
    return "".join(parts)
