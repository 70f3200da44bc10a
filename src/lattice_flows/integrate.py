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
from .states import State


#: A fixed-step run stops once less than this fraction of dt is left before
#: t_end: such a remainder is rounding that accumulated in t (about 1e-7 dt
#: after 1e5 steps), not a step worth taking.
FIXED_STEP_SLACK = 1e-6


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
    dt_initial: float = 1e-2
    dt_min: float = 1e-12


@dataclass
class Trajectory:
    """Accepted samples: ``coords`` row k, a (T, d) array, is the state at ``times[k]``.

    Every row is in the chart of ``initial``, the state at times[0].
    """

    system: str
    times: np.ndarray
    coords: np.ndarray
    initial: State
    policy: FixedStep | AdaptiveStep

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
    def states(self) -> list[State]:
        return [self.initial.replace_coords(y) for y in self.coords]

    @property
    def final(self) -> State:
        return self.initial.replace_coords(self.coords[-1])


# Fehlberg 4(5) tableau: 4th-order propagation, 5th-order error estimate.
_FEHLBERG_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8, 3680 / 513, -845 / 4104),
    (-8 / 27, 2, -3554 / 2565, 1859 / 4104, -11 / 40),
)
_FEHLBERG_B4 = (25 / 216, 0, 1408 / 2565, 2197 / 4104, -1 / 5, 0)
_FEHLBERG_ERR = (1 / 360, 0, -128 / 4275, -2197 / 75240, 1 / 50, 2 / 55)


def integrate(system: LatticeSystem, s0: State, t_end: float, policy) -> Trajectory:
    """Integrate the system's field from s0 to t_end, sampling every accepted step."""
    if not (math.isfinite(t_end) and t_end >= 0):
        raise ValueError("t_end must be finite and nonnegative")
    _check_policy(policy)
    times = [0.0]
    rows = [s0.array]

    def trajectory():
        return Trajectory(system.key, np.array(times), np.array(rows), s0, policy)

    if t_end == 0.0:
        return trajectory()

    def f(y):
        return np.asarray(system.field(s0.replace_coords(y)), dtype=complex)

    def check_step(y, t):
        if not np.all(np.isfinite(y)):
            raise StepFailure(f"state overflowed to a non-finite value at t = {t:.6g}")
        if system.positive and np.min(y.real) <= 0.0:
            raise DomainExit(
                f"positivity-constrained coordinate crossed zero at t = {t:.6g}", trajectory()
            )

    y = s0.array
    t = 0.0
    if isinstance(policy, FixedStep):
        while t_end - t > FIXED_STEP_SLACK * min(policy.dt, t_end):
            dt = min(policy.dt, t_end - t)
            y = _rk4_step(f, y, dt)
            t += dt
            check_step(y, t)
            times.append(t)
            rows.append(y)
        return trajectory()

    dt = min(policy.dt_initial, t_end)
    while t < t_end - 1e-15 * max(1.0, t_end):
        dt = min(dt, t_end - t)
        y_new, err = _fehlberg_step(f, y, dt)
        scale = policy.atol + policy.rtol * np.maximum(np.abs(y), np.abs(y_new))
        ratio = float(np.max(np.abs(err) / scale)) if err.size else 0.0
        if ratio <= 1.0:
            t += dt
            y = y_new
            check_step(y, t)
            times.append(t)
            rows.append(y)
            grow = 0.9 * ratio ** -0.2 if ratio > 0 else 5.0
            dt *= min(5.0, max(0.2, grow))
        else:
            dt *= max(0.2, 0.9 * ratio**-0.2)
        if dt < policy.dt_min:
            raise StepFailure(f"adaptive step underflow (dt = {dt:.3g}) at t = {t:.6g}")
    return trajectory()


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


def _fehlberg_step(f, y, dt):
    ks = []
    for row in _FEHLBERG_A:
        yi = y if not row else y + dt * sum(c * k for c, k in zip(row, ks))
        ks.append(f(yi))
    y_new = y + dt * sum(b * k for b, k in zip(_FEHLBERG_B4, ks))
    err = dt * sum(c * k for c, k in zip(_FEHLBERG_ERR, ks))
    return y_new, np.asarray(err)


# ---------------------------------------------------------------------------
# drift reporting and CSV export
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriftRecord:
    name: str
    initial: complex
    max_abs_drift: float
    max_rel_drift: float


def drift_report(traj: Trajectory, invariants) -> list[DriftRecord]:
    """Drift of each named invariant against its value at t = 0.

    ``invariants`` maps names to callables State -> complex.  Relative drift
    divides by max(|initial|, 1e-12).
    """
    out = []
    for name, fn in invariants.items():
        values = np.array([fn(s) for s in traj.states], dtype=complex)
        drift = np.max(np.abs(values - values[0]))
        rel = drift / max(abs(values[0]), 1e-12)
        out.append(DriftRecord(name, complex(values[0]), float(drift), float(rel)))
    return out


_COORD_PREFIXES = {
    "qp": ("q", "p"),
    "flaschka_ab": ("a", "b"),
    "volterra_u": ("u", None),
    "volterra_v": ("v", None),
    "c_vars": ("c", None),
}


def coordinate_names(state: State) -> list[str]:
    first, second = _COORD_PREFIXES[state.chart]
    if second is None:
        return [f"{first}{i+1}" for i in range(state.dim)]
    nf = state.split
    return [f"{first}{i+1}" for i in range(nf)] + [f"{second}{i+1}" for i in range(state.dim - nf)]


def _fmt(z: complex) -> str:
    if z.imag == 0.0:
        return f"{z.real:.17g}"
    return f"{z.real:.17g}{z.imag:+.17g}j"


def trajectory_csv(traj: Trajectory, columns=None) -> str:
    """Render a trajectory as CSV: t, coordinates, then invariant columns.

    ``columns`` maps each invariant name to its values, one complex number
    per sample (as ``LatticeSystem.invariant_columns`` returns them).
    """
    columns = columns or {}
    if any(len(values) != len(traj.times) for values in columns.values()):
        raise ValueError("every invariant column needs one value per sample")
    header = ["t"] + coordinate_names(traj.initial) + list(columns)
    lines = [",".join(header)]
    invariant_rows = zip(*columns.values()) if columns else [()] * len(traj.times)
    for t, row, values in zip(traj.times.tolist(), traj.coords.tolist(), invariant_rows):
        cells = [f"{t:.17g}"] + [_fmt(z) for z in row] + [_fmt(complex(v)) for v in values]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
