"""Lax pairs for the four concrete systems, trace invariants, and Casimirs.

A Lax pair is a ``LaxTable``: one ``Entry`` row per matrix entry, giving
its slot, the coordinates it reads, its kind, its coefficient and its
mirror.  The builders ``km_lax``, ``toda_lax``, ``ab_lax`` and ``vd_lax``
check a template state's chart and size and return their system's table at
that size with its index arrays (a ``CompiledLax``), built and compiled
once per size; each catalog row with a Lax pair carries its builder as
``lax``, and every function here takes the builder itself.

``lax_pair`` and ``lax_residual`` assemble a block's L and B with one
fancy-indexed write each, as C-ordered (N, T, T) stacks; ``lax_residual``
takes dL along the velocities at L's slots by the chain rule, and
``grad_trace_invariant`` reads each dL/dx_j from the table: neither builds
a dense dL.  Every catalog pair is ``symmetric`` (``CompiledLax``), so on
a real block ``lax_residual`` takes [B, L] from one product, P + P^T with
P = B @ L, and holds three stacks: L, B and P.
Each entry's value takes the operations of its formula in order, so the
matrices keep the bits of writing the entries by hand.  ``sign`` is the
numerically certified commutator convention: +1 means dL/dt = [B, L], -1
means dL/dt = [L, B].  Matrix products are stacked (each slice is
multiplied as one state's matrix would be), so are the residual norms
(``states.row_norms``), and the traces of the invariant columns are taken
slice by slice, so a state gets the same bits in any block.

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

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import DimensionError, UnsupportedDimension
from .states import (VOLTERRA_U, VOLTERRA_V, State, ab_sizes, complex_product, coordinate_columns,
                     require_positive_real, row_norms)


def lax_pair(builder, state: State, rows):
    """(L, B, sign) of ``builder``'s table (``km_lax`` and the rest, a catalog
    row's ``lax``) at every row of ``rows``, an (N, d) block of coordinates in
    the chart of ``state``.  L and B are C-ordered (N, T, T) stacks."""
    lax = builder(state)
    table = lax.table
    x = coordinate_columns(state, rows)
    r = table.roots(x)
    return lax.L.assemble(table.size, x, r), lax.B.assemble(table.size, x, r), table.sign


def lax_residual(builder, state: State, rows, velocities) -> np.ndarray:
    """Frobenius norm of dL/dt - sign * [B, L] at every row of ``rows``, with
    dL/dt taken along the same row of ``velocities``, (N, d); one per row.

    No dense dL is built: the commutator has the bits of the two stacked
    products ``B @ L - L @ B``, scaled by ``sign``, and only L's slots take
    dL/dt - sign * [B, L], dL/dt from the table's values along the
    velocities.  Every other entry holds sign * [B, L], where a dense dL
    would hold 0 - sign * [B, L]: the squares are the same, so the norm has
    the bits of the dense difference's.

    A ``symmetric`` table (L = L^T, B = -B^T, every entry real or
    imaginary; every catalog pair) on a block with no imaginary part takes
    one product, P = B @ L, and [B, L] = P + P^T, written over L: each entry
    of L @ B then sums the products of the transposed entry of P, negated,
    in the same order, and each product has one nonzero term, so
    L @ B = -P^T entry for entry (a zero may differ in sign).  A complex
    block or another table takes both products, which may round apart.

    L, B and the products are one allocation: three (N, T, T) stacks on
    the one-product path, four on the other.  glibc hands the top of its
    heap back to the system when a free leaves more than twice the largest
    mmapped block there; four separate stacks did so at every block, and
    the next block faulted the pages in again (about 2300 minor faults per
    200-state ``verify lax --system vd --n 15`` call in 32-state blocks).
    """
    lax = builder(state)
    table, plan = lax.table, lax.L
    x = coordinate_columns(state, rows)
    r = table.roots(x)
    one_product = lax.symmetric and not x.imag.any()
    stacks = np.empty((3 if one_product else 4, x.shape[1], table.size, table.size), dtype=complex)
    stacks[:2] = 0
    L, B, P = stacks[:3]
    plan.assemble(table.size, x, r, L)
    lax.B.assemble(table.size, x, r, B)
    ds = np.asarray(velocities, dtype=complex).T
    dL = plan.values(ds, None if r is None else ds / (table.slope * r))
    np.matmul(B, L, out=P)
    if one_product:
        residual = np.add(P, P.transpose(0, 2, 1), out=L)
    else:
        residual = np.subtract(P, np.matmul(L, B, out=stacks[3]), out=P)
    residual *= table.sign
    slots = (slice(None), plan.rows, plan.cols)
    residual[slots] = dL.T - residual[slots]
    return row_norms(residual)


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

    Returns a (len(orders), N, d) array.  The table gives L and, for each
    slot (a, i) of L, the coordinate j it reads and its derivative there
    (L's entries at the unit directions); no matrix is multiplied, and
    neither B nor a dense dL is built.  Diagonal entry i of P dL/dx_j,
    P = L^{k-1}, is the sum of P[i, a] dL/dx_j[a, i] over the slots (a, i)
    of column i that read x_j.  The products are gathered for the whole
    block and rounded as scalar products (``complex_product``); each entry
    (j, i) sums its terms from zero in ascending a, and each row of
    diagonals sums as np.trace sums one matrix's.

    The bits are those of np.trace(P @ dL/dx_j) while no diagonal entry
    takes two real or two imaginary terms: each running sum of the dense
    product then takes one product, which rounds alike whether or not the
    BLAS fuses multiply-adds.  (OpenBLAS does on FMA hardware, and two such
    terms in one sum may then differ in the last bit.)  Every catalog
    table's entries are real or imaginary, and at most one of each meets in
    a diagonal entry (vd_lax: row 1 takes columns 3 and 4).  Slots outside
    the table are never read, so a non-finite entry of P reaches only the
    components whose dL/dx_j has a slot where it meets it.
    """
    lax = builder(state)
    table, plan, (j, i, a, slot, layers) = lax.table, lax.L, lax.terms
    x = coordinate_columns(state, rows)
    d, count = x.shape
    r = table.roots(x)
    T = table.size
    L = plan.assemble(T, x, r)
    ones = np.ones_like(x)
    terms = plan.values(ones, None if r is None else ones / (table.slope * r))[slot].T
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
# Lax tables: one row per matrix entry
# ---------------------------------------------------------------------------

X, ROOT, ROOTS, DIFF = "x", "root", "roots", "diff"


class Entry(NamedTuple):
    """One entry of L or B at (row, col), from coordinates p (and q) of x:

    * X      coef * x_p
    * ROOT   coef * r_p, where r is the table's root of x
    * ROOTS  (coef * r_p) * r_q
    * DIFF   coef * (x_p - x_q)

    A coefficient 1 is not multiplied, and a negative one (-1, -0.5) is
    multiplied as its absolute value and then negated, as the formulas read.
    ``mirror`` +1 puts the same value at (col, row); -1 puts 0 - value
    there, as B - B^T rounds it.
    """

    row: int
    col: int
    kind: str
    p: int
    q: int = 0
    coef: complex = 1
    mirror: int = 0


class _Plan(NamedTuple):
    """One table compiled to index arrays: its entries grouped by the
    operations their values take, and their slots, mirrors last."""

    groups: tuple  # (kind, scale, negate, at, p, q)
    count: int
    rows: np.ndarray
    cols: np.ndarray
    same: np.ndarray  # entries whose mirror takes their value
    minus: np.ndarray  # entries whose mirror takes 0 - their value

    @classmethod
    def of(cls, entries) -> "_Plan":
        groups = {}
        for at, e in enumerate(entries):
            coef = complex(e.coef)
            negate = (coef.real, coef.imag) < (0, 0)
            groups.setdefault((e.kind, -e.coef if negate else e.coef, negate), []).append((at, e.p, e.q))
        same = [at for at, e in enumerate(entries) if e.mirror == 1]
        minus = [at for at, e in enumerate(entries) if e.mirror == -1]
        rows = [e.row for e in entries] + [entries[at].col for at in same + minus]
        cols = [e.col for e in entries] + [entries[at].row for at in same + minus]
        return cls(tuple(key + tuple(np.array(column, dtype=int) for column in zip(*group))
                         for key, group in groups.items()),
                   len(entries), *(np.array(index, dtype=int) for index in (rows, cols, same, minus)))

    def values(self, x, r) -> np.ndarray:
        """The value of every slot, (slots,) + batch, from x and its roots r,
        each (d,) + batch; a linear table at (dx, dr) gives its derivative."""
        out = np.empty((self.count,) + x.shape[1:], dtype=complex)
        for kind, scale, negate, at, p, q in self.groups:
            v = (r if kind in (ROOT, ROOTS) else x)[p]
            if kind == ROOTS:
                v = (v if scale == 1 else scale * v) * r[q]
            else:
                if kind == DIFF:
                    v = v - x[q]
                if scale != 1:
                    v = scale * v
            out[at] = -v if negate else v
        return np.concatenate([out, out[self.same], 0 - out[self.minus]])

    def assemble(self, size: int, x, r, out=None) -> np.ndarray:
        """The table's (T, T) matrix, T = ``size``, at each column of a (d, N)
        block x with roots r, as a C-ordered (N, T, T) stack; written into
        ``out``, a zeroed (N, T, T) array, if one is given."""
        values = self.values(x, r)
        if out is None:
            out = np.zeros((x.shape[1], size, size), dtype=complex)
        out[:, self.rows, self.cols] = values.T
        return out


class LaxTable(NamedTuple):
    """A Lax pair at one size: L and B as tables of ``Entry`` rows.

    ``sign`` is the commutator convention (+1: dL/dt = [B, L]).  ``root``
    maps a block of coordinates to the roots its entries take, r = root(x)
    with dr = dx / (slope * r); the coordinates of a table with roots must
    keep a positive real part.  L takes X and ROOT entries only, so L at
    (dx, dr) is dL along dx.
    """

    name: str
    size: int
    sign: int
    L: tuple
    B: tuple
    root: Callable | None = None
    slope: int = 0

    def roots(self, x):
        """The roots of a (d, ...) block of coordinates, or None for a table without them."""
        return None if self.root is None else self.root(require_positive_real(x, f"{self.name} builder"))


class CompiledLax(NamedTuple):
    """A ``LaxTable`` with the plans of its L and B, and the terms of its
    gradient: (j, i, a, slot, layers), every slot (a, i) of L taken by
    coordinate j, ordered by (j, i, a), where ``layers`` picks each (j, i)
    once per layer.  ``symmetric``: L = L^T and B = -B^T, with every entry
    real or imaginary, at real points.  The builders return these."""

    table: LaxTable
    L: _Plan
    B: _Plan
    terms: tuple
    symmetric: bool


def compile_lax(table: LaxTable) -> CompiledLax:
    """The index arrays of ``table``; the builders compile each size once."""
    if any(e.kind not in (X, ROOT) for e in table.L):
        raise ValueError(f"{table.name}: L entries must be linear in x or in its roots")
    plan = _Plan.of(table.L)
    # sorted and counted in Python: numpy's sort and integer loops would be
    # paged in for this alone, about 0.4 MB of a simulate run's peak RSS
    p = [e.p for e in table.L]
    j = p + [p[at] for at in plan.same.tolist() + plan.minus.tolist()]
    terms = sorted(zip(j, plan.cols.tolist(), plan.rows.tolist(), range(len(j))))
    rank = [0] * len(terms)  # place of a term within its entry (j, i)
    for k in range(1, len(terms)):
        if terms[k][:2] == terms[k - 1][:2]:
            rank[k] = rank[k - 1] + 1
    j, i, a, slot = (np.array(column, dtype=int) for column in zip(*terms))
    layers = tuple(np.array([r == k for r in rank]) for k in range(max(rank) + 1))
    plans = plan, _Plan.of(table.B)
    return CompiledLax(table, *plans, (j, i, a, slot, layers), _symmetric(table, plans))


def _symmetric(table: LaxTable, plans) -> bool:
    """Whether the L and B of ``plans`` have L = L^T and B = -B^T with every
    entry real or imaginary, at one positive real point whose coordinates
    2 + sin(j) have no simple relation among them.  Each entry is its
    coefficient times a formula that is real at every such point, so a
    table that passes here passes on every real block."""
    d = 1 + max(max(e.p, e.q) for e in table.L + table.B)
    x = np.array([[2 + math.sin(j)] for j in range(d)], dtype=complex)
    r = table.roots(x)
    L, B = (plan.assemble(table.size, x, r)[0] for plan in plans)
    return (np.array_equal(L, L.T) and np.array_equal(B, -B.T)
            and all(((M.real == 0) | (M.imag == 0)).all() for M in (L, B)))


# Builders: (template State) -> the CompiledLax of its system at its size,
# built and compiled once per size.  Indices are 0-based.

def km_lax(state: State) -> CompiledLax:
    state.require_chart(VOLTERRA_U, "km Lax")
    if state.dim < 1:
        raise DimensionError("km Lax needs n >= 1")
    return _km_lax(state.dim)


@functools.cache
def _km_lax(n: int) -> CompiledLax:
    # a_i = sqrt(u_i / 2) off the diagonal; B[i, i+2] = a_i a_{i+1} = -B[i+2, i]
    return compile_lax(LaxTable(
        "km Lax", n + 1, +1,
        tuple(Entry(i, i + 1, ROOT, i, mirror=1) for i in range(n)),
        tuple(e for i in range(n - 1)
              for e in (Entry(i, i + 2, ROOTS, i, i + 1), Entry(i + 2, i, ROOTS, i, i + 1, -1))),
        lambda u: np.sqrt(u / 2), 4))


def toda_lax(state: State) -> CompiledLax:
    n = ab_sizes(state, -1, "toda Lax")[1]
    if n < 2:
        raise DimensionError("toda Lax needs n >= 2")
    return _toda_lax(n)


@functools.cache
def _toda_lax(n: int) -> CompiledLax:
    # the Jacobi matrix: a_i off the diagonal, b_i on it; B[i, i+1] = a_i = -B[i+1, i]
    return compile_lax(LaxTable(
        "toda Lax", n, +1,
        tuple(Entry(i, i + 1, X, i, mirror=1) for i in range(n - 1))
        + tuple(Entry(i, i, X, n - 1 + i) for i in range(n)),
        tuple(e for i in range(n - 1) for e in (Entry(i, i + 1, X, i), Entry(i + 1, i, X, i, coef=-1)))))


def ab_lax(state: State) -> CompiledLax:
    m = ab_sizes(state, +1, "ab Lax")[1]
    if m < 2:
        raise UnsupportedDimension("the 2m x 2m ab Lax needs m >= 2; both end couplings collide at m = 1")
    return _ab_lax(m)


@functools.cache
def _ab_lax(m: int) -> CompiledLax:
    # diagonal pairs (b_j, -b_j); a_1 at (0, 1), interior a_j at +(2j-4, 2j-2)
    # and -(2j-3, 2j-1), a_{m+1} at (2m-2, 2m-1); B is antisymmetric
    T = 2 * m
    L = [e for j in range(m)
         for e in (Entry(2 * j, 2 * j, X, m + 1 + j), Entry(2 * j + 1, 2 * j + 1, X, m + 1 + j, coef=-1))]
    L.append(Entry(0, 1, X, 0, mirror=1))
    B = [Entry(0, 1, X, 0, coef=-1, mirror=-1)]
    for j in range(2, m + 1):
        L += [Entry(2 * j - 4, 2 * j - 2, X, j - 1, mirror=1), Entry(2 * j - 3, 2 * j - 1, X, j - 1, coef=-1, mirror=1)]
        B += [Entry(2 * j - 4, 2 * j - 2, X, j - 1, mirror=-1), Entry(2 * j - 3, 2 * j - 1, X, j - 1, mirror=-1)]
    L.append(Entry(T - 2, T - 1, X, m, mirror=1))
    B.append(Entry(T - 2, T - 1, X, m, mirror=-1))
    return compile_lax(LaxTable("ab Lax", T, +1, tuple(L), tuple(B)))


def vd_lax(state: State) -> CompiledLax:
    state.require_chart(VOLTERRA_V, "vd Lax")
    if state.dim < 4:
        raise UnsupportedDimension("vd Lax requires n >= 4")
    return _vd_lax(state.dim)


@functools.cache
def _vd_lax(n: int) -> CompiledLax:
    T = 2 * n - 1
    # block (1, 2) mixes v_n and v_{n-1}; the scalar border ties v_1 to the last block
    L = [Entry(1, 3, ROOT, n - 1), Entry(1, 4, ROOT, n - 1, coef=1j),
         Entry(2, 3, ROOT, n - 2, coef=-1), Entry(2, 4, ROOT, n - 2, coef=1j)]
    for j in range(2, n - 1):  # diagonal couplings sqrt(v_k), i sqrt(v_k) for k = n-2 ... 2
        L += [Entry(2 * j - 1, 2 * j + 1, ROOT, n - j - 1), Entry(2 * j, 2 * j + 2, ROOT, n - j - 1, coef=1j)]
    L += [Entry(0, T - 2, ROOT, 0), Entry(0, T - 1, ROOT, 0, coef=1j)]
    # B: half-roots 0.5 sqrt(v_k v_l) from the border, block (1, 3) and down
    # the chain, then the diagonal blocks
    B = [Entry(0, 2 * n - 5, ROOTS, 0, 1, -0.5), Entry(0, 2 * n - 4, ROOTS, 0, 1, -0.5),
         Entry(1, 5, ROOTS, n - 3, n - 1, 0.5), Entry(1, 6, ROOTS, n - 3, n - 1, 0.5),
         Entry(2, 5, ROOTS, n - 3, n - 2, -0.5), Entry(2, 6, ROOTS, n - 3, n - 2, 0.5)]
    for j in range(2, n - 2):
        k = n - j - 2
        B += [Entry(2 * j - 1, 2 * j + 3, ROOTS, k, k + 1, 0.5), Entry(2 * j, 2 * j + 4, ROOTS, k, k + 1, 0.5)]
    B += [Entry(3, 4, DIFF, n - 2, n - 1, 0.5j), Entry(T - 2, T - 1, X, 0, coef=0.5j)]
    return compile_lax(LaxTable("vd Lax", T, -1, tuple(e._replace(mirror=1) for e in L),
                                tuple(e._replace(mirror=-1) for e in B), np.sqrt, 2))
