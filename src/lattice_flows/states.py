"""Coordinate charts, immutable state vectors and the state documents.

Five chart families cover every coordinate system used by the lattices.
``CHARTS`` maps each to its coordinate groups, which name the keys of its
state documents and the columns of its trajectories:

* ``qp``           -- canonical positions/momenta q, p; split index = number of q's
* ``flaschka_ab``  -- Flaschka-type (a, b) variables; split index = number of a's
* ``volterra_u``   -- Volterra chain variables u_i
* ``volterra_v``   -- rescaled Volterra D variables v_i
* ``c_vars``       -- Cartan-type variables c_j

A chart with two groups needs a split index.  A ``State`` holds one state's
read-only complex row, or a block of them; real systems simply stay on the
real slice.  Indexing in docstrings follows the 1-based convention of the
underlying formulas; code uses 0-based numpy arrays.
"""

from __future__ import annotations

import numbers
import sys
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
    """A labeled coordinate vector, or a block of them, in one of the five charts.

    ``coords`` is a read-only complex copy of the given numbers, in the layout
    of a given ndarray: one state's (d,) row, or an (N, d) block of N states,
    which every kernel takes as one argument.  ``array`` returns it without
    copying, ``rows`` as (N, d) and ``columns`` as the (d, N) points a field takes.
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
        if coords.ndim not in (1, 2):
            raise DimensionError(f"coordinates must form a row or an (N, d) block, got shape {coords.shape}")
        coords.flags.writeable = False
        object.__setattr__(self, "coords", coords)
        if len(CHARTS[self.chart]) == 2:
            if self.split is None:
                raise DimensionError(f"chart {self.chart!r} requires a split index")
            if not 0 <= self.split <= self.dim:
                raise DimensionError(f"split {self.split} out of range for {self.dim} coordinates")
        elif self.split is not None:
            raise DimensionError(f"chart {self.chart!r} takes no split index")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or ((self.chart, self.split) == (other.chart, other.split)
                                 and self.coords.tolist() == other.coords.tolist())

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # computed once: the hash of a NaN depends on the float object
        return hash((self.chart, tuple(self.coords.ravel().tolist()), self.split))

    @property
    def dim(self) -> int:  # of each state
        return self.coords.shape[-1]

    @property
    def array(self) -> np.ndarray:
        return self.coords

    @property
    def rows(self) -> np.ndarray:  # a lone state is a block of one row
        return self.coords if self.coords.ndim == 2 else self.coords[None]

    @property
    def columns(self) -> np.ndarray:
        return self.rows.T

    def replace_coords(self, coords) -> "State":
        return State(self.chart, coords, self.split)

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


def ab_sizes(state: State, extra: int, what: str) -> tuple[int, int]:
    """(len(a), len(b)) of a Flaschka-type state, from its split and dim
    alone, with len(a) == len(b) + extra required: ``extra`` is +1 for the
    boundary-perturbed chain (m+1 a's, m b's), -1 for the open Toda chain
    (n-1 a's, n b's)."""
    state.require_chart(FLASCHKA_AB, what)
    sizes = state.split, state.dim - state.split
    if sizes[0] != sizes[1] + extra:
        raise DimensionError(f"{what} expects {_AB_PATTERNS[extra]}, got {sizes[0]} and {sizes[1]}")
    return sizes


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
    [re, im] pairs of real numbers that a float holds finitely; booleans are
    not numbers here.  Anything else raises ValueError.
    """

    def group(name):
        values = obj[name]
        if not isinstance(values, (list, tuple)):
            raise ValueError(f"state group {name!r} must be a list, got {values!r}")
        return [scal(x) for x in values]

    def scal(x):
        pair = isinstance(x, (list, tuple)) and len(x) == 2 and all(_is_number(v, numbers.Real) for v in x)
        if not (pair or _is_number(x)):
            raise ValueError(f"state entry {x!r} is not a number or an [re, im] pair")
        parts = x if pair else (x.real, x.imag)
        if not all(abs(v) <= sys.float_info.max for v in parts):  # NaN, an infinity, an int past the float range
            raise ValueError(f"state entry {x!r} is not a finite number")
        return complex(*parts)

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


def tangent_columns(block: State, tangents) -> np.ndarray:
    """``tangents`` as complex (d, N) columns, one per state of ``block``, or DimensionError."""
    tangents = np.asarray(tangents, dtype=complex)
    if tangents.shape != block.columns.shape:
        raise DimensionError(f"expected {block.columns.shape} tangent columns, got shape {tangents.shape}")
    return tangents


def complex_product(x, y) -> np.ndarray:
    """x * y for complex arrays, rounded as one state's scalar product is: numpy's
    vectorised complex product may fuse a multiply and an add, which would
    give a state other bits in a block."""
    out = np.empty(np.broadcast_shapes(x.shape, y.shape), dtype=complex)
    out.real = x.real * y.real - x.imag * y.imag
    out.imag = x.real * y.imag + x.imag * y.real
    return out


def row_norms(x) -> np.ndarray:
    """np.linalg.norm of each slice x[r] of a complex stack, with its bits:
    sqrt(re·re + im·im) over the flattened slice, each dot one per-slice
    BLAS ddot taken by a stacked 1×K·K×1 product.  A non-finite slice gives
    a non-finite norm and leaves the others alone."""
    x = np.asarray(x, dtype=complex).reshape(len(x), 1, -1)
    re, im = x.real, x.imag
    return np.sqrt((re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0, 0])


def matvecs(matrices, vectors) -> np.ndarray:
    """matrices[r] @ vectors[r] for each r of an (N, m, n) stack and an
    (N, n) block: one matrix-vector product per slice, on a contiguous
    vector as one state's would be.  A single matrix product over the
    block would sum in another order."""
    return (matrices @ np.ascontiguousarray(vectors)[..., None])[..., 0]
