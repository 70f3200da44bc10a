"""Coordinate charts and immutable state vectors.

Five chart families cover every coordinate system used by the lattices:

* ``qp``           -- canonical positions/momenta, split index = number of q's
* ``flaschka_ab``  -- Flaschka-type (a, b) variables, split index = number of a's
* ``volterra_u``   -- Volterra chain variables u_i
* ``volterra_v``   -- rescaled Volterra D variables v_i
* ``c_vars``       -- Cartan-type variables c_j

Coordinates are stored as one read-only complex ndarray per state; real
systems simply stay on the real slice.  Indexing in docstrings follows the
1-based convention of the underlying formulas; code uses 0-based numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ChartMismatch, DimensionError, DomainError

QP = "qp"
FLASCHKA_AB = "flaschka_ab"
VOLTERRA_U = "volterra_u"
VOLTERRA_V = "volterra_v"
C_VARS = "c_vars"

CHARTS = (QP, FLASCHKA_AB, VOLTERRA_U, VOLTERRA_V, C_VARS)

_SPLIT_CHARTS = (QP, FLASCHKA_AB)


@dataclass(frozen=True, eq=False)
class State:
    """A labeled coordinate vector in one of the five charts.

    ``coords`` is a read-only 1-D complex ndarray, copied from the given
    sequence of numbers; ``array`` returns it without copying.
    Equality and hashing compare the coordinates as Python complex numbers,
    so 0.0 equals -0.0 and a state with a NaN coordinate equals only itself.

    ``split`` separates the two coordinate groups for the split charts:
    number of q's for ``qp``, number of a's for ``flaschka_ab``.
    """

    chart: str
    coords: np.ndarray
    split: int | None = None

    def __post_init__(self):
        if self.chart not in CHARTS:
            raise ChartMismatch(f"unknown chart {self.chart!r}")
        coords = np.array(self.coords, dtype=complex)
        if coords.ndim != 1:
            raise DimensionError(f"coordinates must form a flat sequence, got shape {coords.shape}")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        if self.chart in _SPLIT_CHARTS:
            if self.split is None:
                raise DimensionError(f"chart {self.chart!r} requires a split index")
            if not 0 <= self.split <= len(coords):
                raise DimensionError(
                    f"split {self.split} out of range for {len(coords)} coordinates"
                )
        elif self.split is not None:
            raise DimensionError(f"chart {self.chart!r} takes no split index")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or (
            (self.chart, self.split) == (other.chart, other.split)
            and self.coords.tolist() == other.coords.tolist()
        )

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # computed once: the hash of a NaN depends on the float object
        return hash((self.chart, tuple(self.coords.tolist()), self.split))

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def array(self) -> np.ndarray:
        return self.coords

    def first(self) -> np.ndarray:
        """First coordinate group (q's or a's) of a split chart."""
        self._require_split()
        return self.coords[: self.split]

    def second(self) -> np.ndarray:
        """Second coordinate group (p's or b's) of a split chart."""
        self._require_split()
        return self.coords[self.split :]

    def replace_coords(self, coords) -> "State":
        return State(self.chart, coords, self.split)

    def _require_split(self):
        if self.chart not in _SPLIT_CHARTS:
            raise ChartMismatch(f"chart {self.chart!r} has no coordinate groups")

    def require_chart(self, chart: str, what: str = "operation"):
        if self.chart != chart:
            raise ChartMismatch(f"{what} expects chart {chart!r}, got {self.chart!r}")


def qp_state(q, p) -> State:
    """Canonical (q, p) state; q and p must have equal length."""
    q = tuple(q)
    p = tuple(p)
    if len(q) != len(p):
        raise DimensionError(f"q has {len(q)} entries, p has {len(p)}")
    return State(QP, q + p, split=len(q))


def ab_state(a, b) -> State:
    """Flaschka-type (a, b) state; the a/b length pattern is system specific."""
    a = tuple(a)
    b = tuple(b)
    return State(FLASCHKA_AB, a + b, split=len(a))


_AB_PATTERNS = {+1: "m+1 a's and m b's", -1: "n-1 a's and n b's"}


def ab_split(state: State, extra: int, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The (a, b) groups of a Flaschka-type state with len(a) == len(b) + extra.

    ``extra`` is +1 for the boundary-perturbed chain (m+1 a's, m b's) and -1
    for the open Toda chain (n-1 a's, n b's).
    """
    state.require_chart(FLASCHKA_AB, what)
    a, b = state.first(), state.second()
    if len(a) != len(b) + extra:
        raise DimensionError(f"{what} expects {_AB_PATTERNS[extra]}, got {len(a)} and {len(b)}")
    return a, b


def u_state(u) -> State:
    return State(VOLTERRA_U, u)


def v_state(v) -> State:
    return State(VOLTERRA_V, v)


def c_state(c) -> State:
    return State(C_VARS, c)


def require_positive_real(values, what: str):
    """Check the strict-positivity precondition on a coordinate group.

    The positivity-constrained charts demand strictly positive real part
    wherever square roots or reciprocals of the coordinates are taken.
    """
    arr = np.asarray(values, dtype=complex)
    if arr.size and np.min(arr.real) <= 0.0:
        raise DomainError(f"{what} requires coordinates with positive real part")
    return arr


def coordinate_columns(state: State, rows=None) -> np.ndarray:
    """The points a batched function evaluates, as the columns of a (d, N)
    complex array: the rows of ``rows``, an (N, d) block of coordinates in the
    chart of ``state``, or ``state`` itself as the only column."""
    if rows is None:
        return state.array[:, None]
    rows = np.asarray(rows, dtype=complex)
    if rows.ndim != 2 or rows.shape[1] != state.dim:
        raise DimensionError(f"expected an (N, {state.dim}) block of coordinates, got shape {rows.shape}")
    return rows.T


def central_difference(f, state: State, step: float) -> np.ndarray:
    """Derivatives of f along each coordinate, stacked on a leading axis.

    Entry k is (f(x + h e_k) - f(x - h e_k)) / (2h) with h = ``step``; f maps
    a State to a scalar or an array, and may be complex.
    """
    base = state.array
    out = []
    for k in range(state.dim):
        bump = np.zeros(state.dim, dtype=complex)
        bump[k] = step
        plus, minus = f(state.replace_coords(base + bump)), f(state.replace_coords(base - bump))
        out.append((plus - minus) / (2 * step))
    return np.array(out, dtype=complex)
