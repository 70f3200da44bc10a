"""Coordinate charts, immutable state vectors and the state documents.

Five chart families cover every coordinate system used by the lattices.
``CHARTS`` maps each to its coordinate groups, which name the keys of its
state documents and the columns of its trajectories:

* ``qp``           -- canonical positions/momenta q, p; split index = number of q's
* ``flaschka_ab``  -- Flaschka-type (a, b) variables; split index = number of a's
* ``volterra_u``   -- Volterra chain variables u_i
* ``volterra_v``   -- rescaled Volterra D variables v_i
* ``c_vars``       -- Cartan-type variables c_j

A chart with two groups needs a split index.  Coordinates are stored as one
read-only complex ndarray per state; real systems simply stay on the real
slice.  Indexing in docstrings follows the 1-based convention of the
underlying formulas; code uses 0-based numpy arrays.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ChartMismatch, DimensionError, DomainError

QP = "qp"
FLASCHKA_AB = "flaschka_ab"
VOLTERRA_U = "volterra_u"
VOLTERRA_V = "volterra_v"
C_VARS = "c_vars"

CHARTS = {QP: ("q", "p"), FLASCHKA_AB: ("a", "b"), VOLTERRA_U: ("u",), VOLTERRA_V: ("v",), C_VARS: ("c",)}

#: Charts whose coordinates must keep a positive real part.
POSITIVE_CHARTS = (VOLTERRA_U, VOLTERRA_V, C_VARS)


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
        if len(CHARTS[self.chart]) == 2:
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
        if len(CHARTS[self.chart]) != 2:
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


_CONSTRUCTORS = {QP: qp_state, FLASCHKA_AB: ab_state, VOLTERRA_U: u_state, VOLTERRA_V: v_state, C_VARS: c_state}


def _is_number(x, kind=numbers.Number) -> bool:
    return isinstance(x, kind) and not isinstance(x, bool)


def state_from_dict(obj: dict) -> State:
    """Build a State from a JSON-style dict keyed by one chart's coordinate groups.

    Accepted forms: {"q": [...], "p": [...]}, {"a": [...], "b": [...]},
    {"u": [...]}, {"v": [...]}, {"c": [...]}.  Entries may be numbers or
    [re, im] pairs of real numbers; booleans are not numbers here.  Anything
    else raises ValueError.
    """

    def group(name):
        values = obj[name]
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"state group {name!r} must be a list, got {values!r}")
        return [scal(x) for x in values]

    def scal(x):
        if isinstance(x, (list, tuple)) and len(x) == 2 and all(_is_number(v, numbers.Real) for v in x):
            return complex(*x)
        if _is_number(x):
            return complex(x)
        raise ValueError(f"state entry {x!r} is not a number or an [re, im] pair")

    if not isinstance(obj, dict):
        raise ValueError(f"a state document must be a JSON object, got {obj!r}")
    for chart, groups in CHARTS.items():
        if set(obj) == set(groups):
            return _CONSTRUCTORS[chart](*map(group, groups))
    raise DimensionError(f"unrecognized state document keys {sorted(obj)}")


def coordinate_names(state: State) -> list[str]:
    """Column names of the coordinates: group letter and 1-based index (q1, ..., p1, ...)."""
    groups = CHARTS[state.chart]
    sizes = (state.split, state.dim - state.split) if len(groups) == 2 else (state.dim,)
    return [f"{name}{i + 1}" for name, size in zip(groups, sizes) for i in range(size)]


def require_positive_real(values, what: str):
    """Check the strict-positivity precondition on a coordinate group.

    The positivity-constrained charts demand strictly positive real part
    wherever square roots or reciprocals of the coordinates are taken.
    """
    arr = np.asarray(values, dtype=complex)
    if arr.size and np.min(arr.real) <= 0.0:
        raise DomainError(f"{what} requires coordinates with positive real part")
    return arr


def coordinate_columns(state: State, rows) -> np.ndarray:
    """The points a batched function evaluates, as the columns of a (d, N)
    complex array: the rows of ``rows``, an (N, d) block of coordinates in the
    chart of ``state``.  One state is the block ``[state.array]``."""
    rows = np.asarray(rows, dtype=complex)
    if rows.ndim != 2 or rows.shape[1] != state.dim:
        raise DimensionError(f"expected an (N, {state.dim}) block of coordinates, got shape {rows.shape}")
    return rows.T


def stacked(tensor: np.ndarray) -> np.ndarray:
    """Per-state (T, T) matrices with trailing batch axes as one C-ordered
    stack, batch axes first and reversed: (T, T, N) -> (N, T, T) and
    (T, T, K, N) -> (N, K, T, T).  Each slice is laid out, so multiplied,
    as one state's own matrix."""
    return np.ascontiguousarray(tensor.swapaxes(0, 1).T)

