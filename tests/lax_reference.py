"""The Lax builders as hand-written index code, with their dense pair and
gradient: the bit reference that the entry tables of ``lattice_flows.lax``
must reproduce.

A builder takes (state, x, ds): ``state`` fixes the chart and sizes, x is a
(d, N) block of coordinates, and ds is None or a (d, K, N) block of K
velocities per state.  It returns (L, B, sign, dL) with the batch axes
trailing: L and B are (T, T, N) and dL is (T, T, K, N), or None without ds.
"""

import numpy as np

from lattice_flows.errors import DimensionError, UnsupportedDimension
from lattice_flows.states import (VOLTERRA_U, VOLTERRA_V, State, ab_sizes, complex_product, coordinate_columns,
                                  require_positive_real, stacked)


def reference_pair(builder, state, rows, ds=None):
    """(L, B, sign, dL) as C-ordered (N, T, T) and (N, K, T, T) stacks."""
    x, ds = coordinate_columns(state, rows), None if ds is None else np.asarray(ds, dtype=complex)
    L, B, sign, dL = builder(state, x, ds)
    return stacked(L), stacked(B), sign, None if dL is None else stacked(dL)


def reference_grads(builder, state, rows, orders):
    """Trace gradients gathered from the dense dL of all d unit directions."""
    d, count = coordinate_columns(state, rows).shape
    units = np.broadcast_to(np.eye(d)[:, :, None], (d, d, count))
    L, _, _, dL = reference_pair(builder, state, rows, units)
    T = L.shape[-1]
    j, i, a = np.nonzero(np.any(dL, axis=0).swapaxes(1, 2))
    entry = j * T + i
    rank = np.arange(len(entry)) - np.searchsorted(entry, entry)
    layers = [rank == r for r in range(rank.max(initial=-1) + 1)]
    terms = dL[:, j, a, i]
    grads = []
    for k in orders:
        products = complex_product(np.linalg.matrix_power(L, k - 1)[:, i, a], terms)
        diagonals = np.zeros((count, d, T), dtype=complex)
        for layer in layers:
            diagonals[:, j[layer], i[layer]] += products[:, layer]
        grads.append(diagonals.sum(axis=-1))
    return np.array(grads)


def _zeros(T: int, batch: tuple) -> np.ndarray:
    """Zero (T, T) + batch matrices, a view of the C-ordered stack that stacked() returns."""
    return np.zeros(batch[::-1] + (T, T), dtype=complex).T.swapaxes(0, 1)


def km_lax(state: State, x, ds):
    state.require_chart(VOLTERRA_U, "km Lax")
    u = require_positive_real(x, "km Lax builder")
    n = len(u)
    if n < 1:
        raise DimensionError("km Lax needs n >= 1")
    a = np.sqrt(u / 2)
    T = n + 1

    def assemble(av):
        L = _zeros(T, av.shape[1:])
        for i in range(n):
            L[i, i + 1] = L[i + 1, i] = av[i]
        return L

    L = assemble(a)
    B = np.zeros_like(L)
    for i in range(n - 1):
        B[i, i + 2] = a[i] * a[i + 1]
        B[i + 2, i] = -B[i, i + 2]
    dL = assemble(ds / (4 * a[:, None])) if ds is not None else None
    return L, B, +1, dL


def toda_lax(state: State, x, ds):
    split, n = ab_sizes(state, -1, "toda Lax")
    if n < 2:
        raise DimensionError("toda Lax needs n >= 2")
    a, b = x[:split], x[split:]

    def assemble(av, bv):
        L = _zeros(n, bv.shape[1:])
        for i in range(n - 1):
            L[i, i + 1] = L[i + 1, i] = av[i]
        L[range(n), range(n)] = bv
        return L

    L = assemble(a, b)
    B = np.zeros_like(L)
    for i in range(n - 1):
        B[i, i + 1] = a[i]
        B[i + 1, i] = -a[i]
    dL = assemble(ds[: n - 1], ds[n - 1 :]) if ds is not None else None
    return L, B, +1, dL


def ab_lax(state: State, x, ds):
    m = ab_sizes(state, +1, "ab Lax")[1]
    if m < 2:
        raise UnsupportedDimension("the 2m x 2m ab Lax needs m >= 2; both end couplings collide at m = 1")
    a, b = x[: m + 1], x[m + 1 :]
    T = 2 * m

    def assemble_L(av, bv):
        L = _zeros(T, bv.shape[1:])
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
    B = np.zeros_like(L)
    B[0, 1] = -a[0]
    for j in range(2, m + 1):
        B[2 * j - 4, 2 * j - 2] = a[j - 1]
        B[2 * j - 3, 2 * j - 1] = a[j - 1]
    B[T - 2, T - 1] = a[m]
    B -= B.swapaxes(0, 1).copy()
    dL = assemble_L(ds[: m + 1], ds[m + 1 :]) if ds is not None else None
    return L, B, +1, dL


def vd_lax(state: State, x, ds):
    state.require_chart(VOLTERRA_V, "vd Lax")
    v = require_positive_real(x, "vd Lax builder")
    n = len(v)
    if n < 4:
        raise UnsupportedDimension("vd Lax requires n >= 4")
    sq = np.sqrt(v)
    T = 2 * n - 1

    def assemble(s):
        """The L pattern, linear in s = sqrt(v) (or in its derivative)."""
        L = _zeros(T, s.shape[1:])

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

    L = assemble(sq)
    B = np.zeros_like(L)
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
    B -= B.swapaxes(0, 1).copy()
    dL = assemble(ds / (2 * sq[:, None])) if ds is not None else None
    return L, B, -1, dL
