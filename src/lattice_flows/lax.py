"""Lax pairs for the four concrete systems, trace invariants, and Casimirs.

Each builder stores its numerically certified commutator convention in
``sign``: +1 means dL/dt = [B, L], -1 means dL/dt = [L, B].  The derivative
dL/dt used by the residual is assembled analytically from the closed-form
entries (chain rule through square roots), never by finite differences.

Matrix layout notes (0-based):

* km    -- n chain variables u_i > 0, L is (n+1) x (n+1) tridiagonal with
           zero diagonal and off-diagonal a_i = sqrt(u_i / 2).
* toda  -- n-1 a's and n b's, L is the n x n Jacobi matrix (diag b, off a).
* ab    -- m+1 a's and m b's with m >= 2, L is 2m x 2m: diagonal pairs
           (b_j, -b_j), a_1 at (0,1), interior a_j coupling +(2j-4, 2j-2)
           and -(2j-3, 2j-1), a_{m+1} at (2m-2, 2m-1).
* vd    -- n >= 4 positive v's, L is (2n-1) x (2n-1): a scalar slot bordered
           by n-1 two-by-two blocks; couplings carry sqrt(v_k) and
           i*sqrt(v_k) entries, the scalar ties to the last block through
           (sqrt(v_1), i*sqrt(v_1)).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, UnsupportedDimension
from .states import VOLTERRA_U, VOLTERRA_V, State, ab_split, coordinate_columns, require_positive_real


@dataclass(frozen=True)
class LaxPair:
    """Two square matrices bound to a state, with a commutator sign convention."""

    system: str
    L: np.ndarray
    B: np.ndarray
    sign: int

    def __post_init__(self):
        if self.L.shape != self.B.shape or self.L.shape[0] != self.L.shape[1]:
            raise DimensionError("L and B must be square matrices of equal size")
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 ([B,L]) or -1 ([L,B])")

    @property
    def dimension(self) -> int:
        return self.L.shape[0]


def _builder(system: str):
    builder = _BUILDERS.get(system)
    if builder is None:
        raise ValueError(f"no Lax builder for system {system!r}")
    return builder


def build_lax(system: str, state: State) -> LaxPair:
    """Assemble the Lax pair of km | toda | vd | ab at the given state."""
    L, B, sign, _ = _builder(system)(state, state.array, None)
    return LaxPair(system, L, B, sign)


def lax_stack(system: str, state: State, rows) -> np.ndarray:
    """L at every row of ``rows``, an (N, d) block of coordinates in the chart
    of ``state``, as a C-ordered (N, T, T) stack.  B is not built."""
    L = _builder(system)(state, np.asarray(rows, dtype=complex).T, None)[0]
    return np.ascontiguousarray(np.moveaxis(L, -1, 0))


def lax_dL(system: str, state: State, ds) -> np.ndarray:
    """Entrywise directional derivative of L along the state velocity ds.

    ``ds`` has the coordinates on its first axis; any further axes are a
    batch of directions and come out trailing: (T, T) + ds.shape[1:].
    """
    _, _, _, dL = _builder(system)(state, state.array, np.asarray(ds, dtype=complex))
    return dL


def lax_residual(pair: LaxPair, field_value, state: State) -> float:
    """Frobenius norm of dL/dt - sign * [B, L] along the given field value."""
    dL = lax_dL(pair.system, state, field_value)
    comm = pair.B @ pair.L - pair.L @ pair.B
    return float(np.linalg.norm(dL - pair.sign * comm))


def trace_invariants(pair: LaxPair, orders) -> list[complex]:
    """H_k = tr(L^k) / k via repeated matrix multiplication."""
    return [column[0] for column in trace_columns(pair.L[None], orders)]


def trace_columns(L, orders, grading: int = 1) -> list[list[complex]]:
    """H_k = tr(L^{grading k}) / k at each matrix of an (N, T, T) stack, one list per order.

    Grading 1 takes every order from one chain of stacked products
    (I @ L @ L ...); grading 2 (the v-degree grading of vd) takes each power
    with np.linalg.matrix_power.  Each value is complex(P.trace()) / k on
    one C-ordered (T, T) slice in Python arithmetic, so it keeps the bits of
    a single-matrix evaluation: a stacked trace sums the diagonal in another
    order, and numpy's complex array division multiplies by 1/k.
    """
    orders = list(orders)
    if any(k < 1 for k in orders):
        raise ValueError("orders must be positive integers")

    def column(power, k):
        return [complex(p.trace()) / k for p in power]

    if grading != 1:
        return [column(np.linalg.matrix_power(L, grading * k), k) for k in orders]
    out = {}
    power = np.eye(L.shape[-1], dtype=complex)
    for k in range(1, max(orders) + 1):
        power = power @ L
        if k in orders:
            out[k] = column(power, k)
    return [out[k] for k in orders]


def grad_trace_invariant(system: str, state: State, orders) -> np.ndarray:
    """Analytic gradient of tr(L^k)/k: component j is tr(L^{k-1} dL/dx_j).

    ``orders`` is one k, giving a (d,) gradient, or a sequence, giving one
    gradient per row.  One builder call yields every dL/dx_j (the unit
    directions as a batch) for all orders; each product and trace is then
    taken slice by slice on C-ordered (T, T) matrices, as a loop over
    single directions would.
    """
    L, _, _, dL = _builder(system)(state, state.array, np.eye(state.dim, dtype=complex))
    dL = np.ascontiguousarray(np.moveaxis(dL, -1, 0))  # (d, T, T)
    grads = np.array([[np.trace(p) for p in np.linalg.matrix_power(L, k - 1) @ dL]
                      for k in np.atleast_1d(orders)], dtype=complex)
    return grads[0] if np.ndim(orders) == 0 else grads


# ---------------------------------------------------------------------------
# closed-form invariants in the (a, b) and v charts
# ---------------------------------------------------------------------------

def h2_ab(state: State) -> complex:
    """Quadratic invariant sum(b^2) + a_1^2 + 2 sum(a_2..a_m)^2 + a_{m+1}^2."""
    a, b = ab_split(state, +1, "h2_ab")
    return complex(np.sum(b**2) + a[0] ** 2 + 2 * np.sum(a[1:-1] ** 2) + a[-1] ** 2)


def casimir_C(state: State) -> complex:
    """Casimir a_1 a_2^2 ... a_m^2 a_{m+1} of the linear (a, b) bracket."""
    return casimir_C_column(state, state.array[None])[0]


def casimir_C_column(state: State, rows) -> list[complex]:
    """casimir_C at each row of an (N, d) block of coordinates in the chart of ``state``.

    The two outer products are Python complex products, which round as
    numpy's scalar product does; numpy's complex array product may not.
    """
    a, _ = ab_split(state, +1, "casimir_C")
    a = np.asarray(rows)[:, : len(a)]
    inner = np.prod(a[:, 1:-1] ** 2, axis=1)
    return [x * y * z for x, y, z in zip(a[:, 0].tolist(), inner.tolist(), a[:, -1].tolist())]


def grad_casimir_C(state: State, rows=None) -> np.ndarray:
    """Analytic gradient of casimir_C with respect to (a_1..a_{m+1}, b_1..b_m);
    at each row of an (N, d) block ``rows`` in the chart of ``state``, if given,
    as an (N, d) array."""
    m = len(ab_split(state, +1, "grad_casimir_C")[1])
    x = coordinate_columns(state, rows)
    a = x[: m + 1]
    own = np.array([1] + [2] * (m - 1) + [1])[:, None]  # exponent of each a_i in C
    rest = _others(m + 1)
    grad = np.zeros_like(x)
    grad[: m + 1] = own * a ** (own - 1) * np.prod(a.take(rest, axis=0) ** own.take(rest, axis=0), axis=1)
    return _rows(grad, rows)


def casimir_F(state: State) -> complex:
    """Casimir (v_n - v_{n-1}) * prod(v_1..v_{n-2}) of the v-chart tau bracket."""
    return casimir_F_column(state, state.array[None])[0]


def casimir_F_column(state: State, rows) -> list[complex]:
    """casimir_F at each row of an (N, n) block of v coordinates; the outer
    product is a Python complex product, as in casimir_C_column."""
    _v_coords(state)
    v = np.asarray(rows)
    return [x * y for x, y in zip((v[:, -1] - v[:, -2]).tolist(), np.prod(v[:, :-2], axis=1).tolist())]


def grad_casimir_F(state: State, rows=None) -> np.ndarray:
    """Analytic gradient of casimir_F; per row of ``rows`` as in grad_casimir_C."""
    _v_coords(state)
    v = coordinate_columns(state, rows)
    n = len(v)
    head = np.prod(v[: n - 2], axis=0)
    rest = (v[-1] - v[-2]) * np.prod(v.take(_others(n - 2), axis=0), axis=1)
    return _rows(np.concatenate([rest, [-head, head]]), rows)


def _rows(columns: np.ndarray, rows) -> np.ndarray:
    """A (d, N) result as C-ordered (N, d) rows, or as (d,) for one state."""
    return columns[:, 0] if rows is None else np.ascontiguousarray(columns.T)


def _others(k: int) -> np.ndarray:
    """(k, k-1) indices: row i lists 0..k-1 without i, in order.  A product
    over a row multiplies left to right, as np.prod(np.delete(x, i)) does."""
    j = np.arange(1, k)
    return j - (j <= np.arange(k)[:, None])


def _v_coords(state: State):
    state.require_chart(VOLTERRA_V, "v invariant")
    v = state.array
    if len(v) < 4:
        raise UnsupportedDimension("v-chart invariants need n >= 4")
    return v


# ---------------------------------------------------------------------------
# builders (state, x, ds) -> (L, B, sign, dL).  ``state`` fixes the chart and
# sizes; x holds the coordinates, coordinates first: state.array, or an
# (d, N) batch whose L is (T, T, N) and whose B is None.  dL = None when ds
# is None.  ds may carry trailing batch axes too, so ds[i] is one
# coordinate's velocity across the batch and dL is (T, T) + ds.shape[1:];
# (ds.T / x).T scales coordinate i by x[i] with or without batch axes.
# ---------------------------------------------------------------------------

def _km_builder(state: State, x, ds):
    state.require_chart(VOLTERRA_U, "km Lax")
    u = require_positive_real(x, "km Lax builder")
    n = len(u)
    a = np.sqrt(u / 2)
    T = n + 1

    def assemble(av):
        L = np.zeros((T, T) + av.shape[1:], dtype=complex)
        for i in range(n):
            L[i, i + 1] = L[i + 1, i] = av[i]
        return L

    B = None
    if u.ndim == 1:
        B = np.zeros((T, T), dtype=complex)
        for i in range(n - 1):
            B[i, i + 2] = a[i] * a[i + 1]
            B[i + 2, i] = -B[i, i + 2]
    dL = assemble((ds.T / (4 * a)).T) if ds is not None else None
    return assemble(a), B, +1, dL


def _toda_builder(state: State, x, ds):
    a, b = ab_split(state, -1, "toda Lax")
    if len(b) < 2:
        raise DimensionError("toda Lax needs n >= 2")
    a, b = x[: len(a)], x[len(a) :]

    def assemble(av, bv):
        n = len(bv)
        L = np.zeros((n, n) + bv.shape[1:], dtype=complex)
        L.reshape((n * n,) + bv.shape[1:])[:: n + 1] = bv  # the diagonal, batch axes kept
        for i in range(n - 1):
            L[i, i + 1] = L[i + 1, i] = av[i]
        return L

    n = len(b)
    L = assemble(a, b)
    B = None
    if x.ndim == 1:
        B = np.zeros((n, n), dtype=complex)
        for i in range(n - 1):
            B[i, i + 1] = a[i]
            B[i + 1, i] = -a[i]
    dL = None
    if ds is not None:
        dL = assemble(ds[: n - 1], ds[n - 1 :])
    return L, B, +1, dL


def _ab_builder(state: State, x, ds):
    a, b = ab_split(state, +1, "ab Lax")
    m = len(b)
    if m < 2:
        raise UnsupportedDimension("the 2m x 2m ab Lax needs m >= 2; both end couplings collide at m = 1")
    a, b = x[: m + 1], x[m + 1 :]

    def assemble_L(av, bv):
        T = 2 * m
        L = np.zeros((T, T) + bv.shape[1:], dtype=complex)
        for j in range(m):
            L[2 * j, 2 * j] = bv[j]
            L[2 * j + 1, 2 * j + 1] = -bv[j]
        L[0, 1] = L[1, 0] = av[0]
        for j in range(2, m + 1):
            r1, c1 = 2 * j - 4, 2 * j - 2
            r2, c2 = 2 * j - 3, 2 * j - 1
            L[r1, c1] = L[c1, r1] = av[j - 1]
            L[r2, c2] = L[c2, r2] = -av[j - 1]
        L[T - 2, T - 1] = L[T - 1, T - 2] = av[m]
        return L

    L = assemble_L(a, b)
    T = 2 * m
    B = None
    if x.ndim == 1:
        B = np.zeros((T, T), dtype=complex)
        B[0, 1] = -a[0]
        for j in range(2, m + 1):
            B[2 * j - 4, 2 * j - 2] = a[j - 1]
            B[2 * j - 3, 2 * j - 1] = a[j - 1]
        B[T - 2, T - 1] = a[m]
        B -= B.T.copy()
    dL = None
    if ds is not None:
        dL = assemble_L(ds[: m + 1], ds[m + 1 :])
    return L, B, +1, dL


def _vd_builder(state: State, x, ds):
    state.require_chart(VOLTERRA_V, "vd Lax")
    v = require_positive_real(x, "vd Lax builder")
    n = len(v)
    if n < 4:
        raise UnsupportedDimension("vd Lax requires n >= 4")
    sq = np.sqrt(v)
    T = 2 * n - 1

    def assemble(s):
        """The L pattern, linear in s = sqrt(v) (or in its derivative)."""
        L = np.zeros((T, T) + s.shape[1:], dtype=complex)

        def put(i, j, val):
            L[i, j] = L[j, i] = val

        # block (1,2) is the non-diagonal coupling mixing v_n and v_{n-1}
        put(1, 3, s[n - 1])
        put(1, 4, 1j * s[n - 1])
        put(2, 3, -s[n - 2])
        put(2, 4, 1j * s[n - 2])
        # diagonal couplings sqrt(v_k), i*sqrt(v_k) for k = n-2 ... 2
        for j in range(2, n - 1):
            k = n - j - 1  # 0-based index of v_{n-j}
            put(2 * j - 1, 2 * j + 1, s[k])
            put(2 * j, 2 * j + 2, 1j * s[k])
        # scalar border ties v_1 to the last block
        put(0, T - 2, s[0])
        put(0, T - 1, 1j * s[0])
        return L

    def halfroot(i, j):
        return 0.5 * sq[i] * sq[j]

    B = None
    if v.ndim == 1:
        B = np.zeros((T, T), dtype=complex)
        B[0, 2 * n - 5] = -halfroot(0, 1)
        B[0, 2 * n - 4] = -halfroot(0, 1)
        # block (1,3): mixes v_{n-2} with v_n and v_{n-1}
        B[1, 5] = halfroot(n - 3, n - 1)
        B[1, 6] = halfroot(n - 3, n - 1)
        B[2, 5] = -halfroot(n - 3, n - 2)
        B[2, 6] = halfroot(n - 3, n - 2)
        # blocks (j, j+2): half-root ladder down the chain
        for j in range(2, n - 2):
            k = n - j - 2  # 0-based index of v_{n-1-j}
            B[2 * j - 1, 2 * j + 3] = halfroot(k, k + 1)
            B[2 * j, 2 * j + 4] = halfroot(k, k + 1)
        # diagonal blocks
        B[3, 4] = 0.5j * (v[n - 2] - v[n - 1])
        B[T - 2, T - 1] = 0.5j * v[0]
        B -= B.T.copy()
    dL = assemble((np.asarray(ds, dtype=complex).T / (2 * sq)).T) if ds is not None else None
    return assemble(sq), B, -1, dL


_BUILDERS = {
    "km": _km_builder,
    "toda": _toda_builder,
    "ab": _ab_builder,
    "vd": _vd_builder,
}


# ---------------------------------------------------------------------------
# JSON serialization of complex matrices as nested [re, im] pairs
# ---------------------------------------------------------------------------

def matrix_to_json(m) -> str:
    arr = np.asarray(m, dtype=complex)
    return json.dumps([[[z.real, z.imag] for z in row] for row in arr])


def matrix_from_json(text: str) -> np.ndarray:
    data = json.loads(text)
    return np.array([[complex(re, im) for re, im in row] for row in data])
