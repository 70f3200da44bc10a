"""Lax pairs for the four concrete systems, trace invariants, and Casimirs.

Each builder stores its numerically certified commutator convention in
``sign``: +1 means dL/dt = [B, L], -1 means dL/dt = [L, B].  The derivative
dL/dt used by the residual is assembled analytically from the closed-form
entries (chain rule through square roots), never by finite differences, in
the same builder call that yields L, B and the sign.

The builders are ``km_lax``, ``toda_lax``, ``ab_lax`` and ``vd_lax``; each
catalog row with a Lax pair carries its builder as ``lax``, and every
function here takes the builder itself.  There is one call shape: a builder
takes a block of states and returns their matrices with the state axis
trailing, and ``lax_pair`` hands them out as C-ordered (N, T, T) stacks.
Every residual and gradient takes its block through it; matrix products
are stacked (each slice is multiplied as one state's matrix would be), and
norms and the traces of the invariant columns are taken slice by slice, so
a state gets the same bits in any block.

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

import numpy as np

from .errors import DimensionError, UnsupportedDimension
from .states import (VOLTERRA_U, VOLTERRA_V, State, ab_sizes, complex_product, coordinate_columns,
                     require_positive_real, stacked)


def lax_pair(builder, state: State, rows, ds=None):
    """(L, B, sign, dL) from one call of ``builder`` (``km_lax`` and the rest,
    a catalog row's ``lax``) at every row of ``rows``, an (N, d) block of
    coordinates in the chart of ``state``.

    L and B are C-ordered (N, T, T) stacks.  ``ds`` is a (d, K, N) array of
    K velocities per row (ds[:, k, r] is the k-th at row r); dL along each
    is then a C-ordered (N, K, T, T) stack, and None without ``ds``.
    """
    x, ds = coordinate_columns(state, rows), None if ds is None else np.asarray(ds, dtype=complex)
    L, B, sign, dL = builder(state, x, ds)
    return stacked(L), stacked(B), sign, None if dL is None else stacked(dL)


def lax_residual(builder, state: State, rows, velocities) -> np.ndarray:
    """Frobenius norm of dL/dt - sign * [B, L] at every row of ``rows``, with
    dL/dt taken along the same row of ``velocities``, (N, d); one per row."""
    ds = np.asarray(velocities, dtype=complex).T[:, None]
    L, B, sign, dL = lax_pair(builder, state, rows, ds)
    return np.array([np.linalg.norm(r) for r in dL[:, 0] - sign * (B @ L - L @ B)])


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


def grad_trace_invariant(builder, state: State, rows, orders) -> np.ndarray:
    """Analytic gradients of tr(L^k)/k at every row of ``rows``, (N, d) in the
    chart of ``state``: component j is tr(L^{k-1} dL/dx_j).

    Returns a (len(orders), N, d) array.  One builder call yields L and every
    dL/dx_j (the d unit directions as the velocities of each row), and no
    matrix is multiplied: each dL/dx_j has at most four nonzero entries, so
    diagonal entry i of P dL/dx_j, P = L^{k-1}, is the sum of
    P[i, a] dL/dx_j[a, i] over the entries a of column i that are nonzero
    in some row of the block.  Those products are gathered for the whole
    block and rounded as scalar products (``complex_product``); each entry
    (j, i) sums its terms from zero in ascending a, and each row of
    diagonals sums as np.trace sums one matrix's.

    The bits are those of np.trace(P @ dL/dx_j) while no diagonal entry
    takes two real or two imaginary terms: each running sum of the dense
    product then takes one product, which rounds alike whether or not the
    BLAS fuses multiply-adds.  (OpenBLAS does on FMA hardware, and two such
    terms in one sum may then differ in the last bit.)  Every catalog
    builder's entries are real or imaginary, and at most one of each meets
    in a diagonal entry (vd_lax: row 1 takes columns 3 and 4).  Zero
    entries are skipped, so a non-finite entry of P reaches only the
    components whose dL/dx_j is nonzero where it meets them, where a dense
    product made all of them NaN.
    """
    d, count = coordinate_columns(state, rows).shape
    units = np.broadcast_to(np.eye(d)[:, :, None], (d, d, count))
    L, _, _, dL = lax_pair(builder, state, rows, units)
    T = L.shape[-1]
    # terms (j, i, a) of dL/dx_j[a, i], grouped by diagonal entry (j, i) and in ascending a
    j, i, a = np.nonzero(np.any(dL, axis=0).swapaxes(1, 2))
    entry = j * T + i
    rank = np.arange(len(entry)) - np.searchsorted(entry, entry)  # place of a term within its entry
    layers = [rank == r for r in range(rank.max(initial=-1) + 1)]  # each entry once per layer
    terms = dL[:, j, a, i]
    grads = []
    for k in orders:
        products = complex_product(np.linalg.matrix_power(L, k - 1)[:, i, a], terms)
        diagonals = np.zeros((count, d, T), dtype=complex)
        for layer in layers:
            diagonals[:, j[layer], i[layer]] += products[:, layer]
        grads.append(diagonals.sum(axis=-1))
    return np.array(grads)


# ---------------------------------------------------------------------------
# Casimirs in the (a, b) and v charts
# ---------------------------------------------------------------------------

def casimir_C_column(state: State, rows) -> list[complex]:
    """Casimir C = a_1 a_2^2 ... a_m^2 a_{m+1} of the linear (a, b) bracket at
    each row of an (N, d) block of coordinates in the chart of ``state``.

    The two outer products are Python complex products, which round as
    numpy's scalar product does; numpy's complex array product may not.
    """
    a = np.asarray(rows)[:, : _casimir_C_sizes(state, "casimir_C_column")[0]]
    inner = np.prod(a[:, 1:-1] ** 2, axis=1)
    return [x * y * z for x, y, z in zip(a[:, 0].tolist(), inner.tolist(), a[:, -1].tolist())]


def grad_casimir_C(state: State, rows) -> np.ndarray:
    """Analytic gradient of C with respect to (a_1..a_{m+1}, b_1..b_m) at
    each row of an (N, d) block ``rows`` in the chart of ``state``, as a
    C-ordered (N, d) array."""
    m = _casimir_C_sizes(state, "grad_casimir_C")[1]
    x = coordinate_columns(state, rows)
    a = x[: m + 1]
    own = np.array([1] + [2] * (m - 1) + [1])[:, None]  # exponent of each a_i in C
    rest = _others(m + 1)
    grad = np.zeros_like(x)
    grad[: m + 1] = own * a ** (own - 1) * np.prod(a.take(rest, axis=0) ** own.take(rest, axis=0), axis=1)
    return np.ascontiguousarray(grad.T)


def _casimir_C_sizes(state: State, what: str) -> tuple[int, int]:
    """(m + 1, m) of an (a, b) state, m >= 1: at m = 0 the one a_1 would be both end factors of C."""
    sizes = ab_sizes(state, +1, what)
    if sizes[1] < 1:
        raise DimensionError(f"{what} needs m >= 1")
    return sizes


def casimir_F_column(state: State, rows) -> list[complex]:
    """Casimir F = (v_n - v_{n-1}) * prod(v_1..v_{n-2}) of the v-chart tau
    bracket at each row of an (N, n) block of v coordinates; the outer
    product is a Python complex product, as in casimir_C_column."""
    _v_coords(state)
    v = np.asarray(rows)
    return [x * y for x, y in zip((v[:, -1] - v[:, -2]).tolist(), np.prod(v[:, :-2], axis=1).tolist())]


def grad_casimir_F(state: State, rows) -> np.ndarray:
    """Analytic gradient of F at each row of ``rows``, as in grad_casimir_C."""
    _v_coords(state)
    v = coordinate_columns(state, rows)
    n = len(v)
    head = np.prod(v[: n - 2], axis=0)
    rest = (v[-1] - v[-2]) * np.prod(v.take(_others(n - 2), axis=0), axis=1)
    return np.ascontiguousarray(np.concatenate([rest, [-head, head]]).T)


def _others(k: int) -> np.ndarray:
    """(k, k-1) indices: row i lists 0..k-1 without i, in order.  A product
    over a row multiplies left to right, as np.prod(np.delete(x, i)) does."""
    j = np.arange(1, k)
    return j - (j <= np.arange(k)[:, None])


def _v_coords(state: State):
    state.require_chart(VOLTERRA_V, "v invariant")
    if state.dim < 4:
        raise UnsupportedDimension("v-chart invariants need n >= 4")


# ---------------------------------------------------------------------------
# builders (state, x, ds) -> (L, B, sign, dL).  ``state`` fixes the chart and
# sizes; x is a (d, N) block of coordinates, coordinates first, and L and B
# are (T, T, N).  ds is None or a (d, K, N) block of K velocities per state,
# so ds[i] is coordinate i's velocities and dL is (T, T, K, N); dL is None
# when ds is.  x[:, None] lines each state's coordinates up with its K
# velocities.  The matrices are stored state by state (see _zeros), so
# lax_pair stacks them without a copy.
# ---------------------------------------------------------------------------

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

