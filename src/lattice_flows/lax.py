"""Lax pairs for the four concrete systems, trace invariants, and Casimirs.

A Lax pair is a ``LaxTable``: one ``Entry`` row per matrix entry, giving
its slot, the coordinates it reads, its kind, its coefficient and its
mirror.  The builders ``km_lax``, ``toda_lax``, ``ab_lax`` and ``vd_lax``
check a block's chart and size and return their system's table at
that size with its index arrays (a ``CompiledLax``), built and compiled
once per size; each catalog row with a Lax pair carries its builder as
``lax``, and every function here takes the builder itself.

A ``CompiledLax`` assembles a block's L and B with one fancy-indexed write
each, as C-ordered (N, T, T) stacks (``builder(block).L.assemble``, as the
invariant columns take L); ``lax_residual`` takes dL along the velocities
at L's slots by the chain rule, and ``grad_trace_invariant`` reads each
dL/dx_j from the table: neither builds a dense dL.  Every catalog pair but
vd at even n has a ``Gauge``, a diagonal similarity to a real pair, and on
a real block ``lax_residual`` takes [B, L] from one float64 product with
the bits of the complex ones.  The trace powers of both gradings and the
powers of the trace gradients come from one power chain
(``_matrix_powers``), which multiplies in float64 when L has no imaginary
part (km, toda and ab on a real block), again with the bits of the complex
products; an assembled L stays complex, and so do the values
``trace_columns`` and ``grad_trace_invariant`` return.  Each entry's value
takes the operations of its formula in order, so the matrices keep the bits
of writing the entries by hand.  ``sign`` is the numerically certified
commutator convention: +1 means dL/dt = [B, L], -1 means dL/dt = [L, B].
Matrix products are stacked (each slice is multiplied as one state's matrix
would be), so are the residual norms (``states.row_norms``) and the traces
of the invariant columns: a block's diagonals are copied to one C-ordered
(N, T) array and summed along its last axis, each row in the order np.trace
sums one matrix's diagonal, so a state gets the same bits in any block.

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
from .states import (VOLTERRA_U, VOLTERRA_V, State, ab_sizes, complex_product, require_positive_real, row_norms,
                     tangent_columns)


def lax_residual(builder, block: State, velocities) -> np.ndarray:
    """Frobenius norm of dL/dt - sign * [B, L] at each state of ``block``,
    with dL/dt taken along the same column of ``velocities``, (d, N) as a
    field gives them; one value per state.

    No dense dL is built: only L's slots take dL/dt - sign * [B, L], dL/dt
    from the table's values along the velocities.  Every other entry holds
    +-[B, L], where a dense dL would hold 0 - sign * [B, L]: the squares are
    the same, so the norm has the bits of the dense difference's.

    A real block (and velocities) of a table with a ``Gauge`` (every
    catalog pair but vd at even n) takes float64 arithmetic.  With
    D = diag(d), L = D L_R D and B = D B_R D, so B @ L = D P_R D with
    P_R = B_R @ (S L_R), S = D^2 = diag(+-1), one real product, and
    [B, L] = D (P_R + P_R^T) D: L = L^T and B = -B^T, so each entry of
    L @ B sums the products of the transposed entry of B @ L, negated, in
    the same order.  Each entry of B @ L is real or imaginary and each of
    its terms one real product, so it sums the terms of P_R's entry (zero
    terms aside) with their bits where dgemm orders a sum as zgemm does
    (``_gemm_width``); dr = ds * (1 / (slope * r)) has the bits of numpy's
    complex quotient, which multiplies by the reciprocal.  The residual's
    entries with d_a d_b = +-1 go to the real parts of a complex stack, the
    others to its imaginary parts, so ``row_norms`` takes the dots of the
    complex residual's parts.  Any other block or table (a complex block,
    vd at even n, a non-symmetric table) takes ``B @ L - L @ B`` in complex
    arithmetic.  A non-finite entry gives a non-finite norm on either path,
    though not always the same one.

    Each path is one allocation: three float64 (N, T, T) stacks, L_R, B_R
    and P_R, whose first two hold the complex residual, or four complex
    ones, L, B and both products.  glibc hands the top of its heap back to
    the system when a free leaves more than twice the largest mmapped block
    there; four separate stacks did so at every block, and the next block
    faulted the pages in again (about 2300 minor faults per 200-state
    ``verify lax --system vd --n 15`` call in 32-state blocks).
    """
    lax = builder(block)
    x, ds = block.columns, tangent_columns(block, velocities)
    if lax.gauge is not None and not (x.imag.any() or ds.imag.any()):
        return _gauged_residual(lax.table, lax.gauge, x.real, ds.real)
    table, T = lax.table, lax.table.size
    r = table.roots(x)
    stacks = np.empty((4, x.shape[1], T, T), dtype=complex)
    stacks[:2] = 0
    L, B, P, Q = stacks
    lax.L.assemble(T, x, r, L)
    lax.B.assemble(T, x, r, B)
    dL = lax.L.values(ds, None if r is None else ds / (table.slope * r))
    residual = np.subtract(np.matmul(B, L, out=P), np.matmul(L, B, out=Q), out=P)
    residual *= table.sign
    slots = (slice(None), lax.L.rows, lax.L.cols)
    residual[slots] = dL.T - residual[slots]
    return row_norms(residual)


def _gauged_residual(table: LaxTable, gauge: Gauge, x, ds) -> np.ndarray:
    """``lax_residual`` of a real (d, N) block ``x`` with velocities ``ds``
    for a table with a gauge, in float64."""
    T, N, W = table.size, x.shape[1], gauge.width
    r = table.roots(x)
    # numpy's complex quotient multiplies by the reciprocal; a real one would round otherwise
    dL = gauge.L.values(ds, None if r is None else ds * (1.0 / (table.slope * r)))
    buffer = np.empty(N * T * (T + 2 * W))
    buffer[: N * T * (T + W)] = 0
    L, B, P = (buffer[N * T * start : N * T * stop].reshape(N, T, -1)
               for start, stop in ((0, W), (W, W + T), (W + T, W + T + W)))
    gauge.L.assemble(T, x, r, L)
    gauge.B.assemble(T, x, r, B)
    P = np.matmul(B, L, out=P)[:, :, :T]
    residual = buffer[: 2 * N * T * T].view(complex).reshape(N, T, T)  # over L and B
    parts = np.add(P, P.transpose(0, 2, 1), out=residual.real)
    slots = (slice(None), gauge.L.rows, gauge.L.cols)
    parts[slots] = dL.T - table.sign * parts[slots]
    if gauge.odd is None:  # every entry is real
        residual.imag[...] = 0
    else:
        np.multiply(parts, gauge.odd, out=residual.imag)
        parts *= 1.0 - gauge.odd
    return row_norms(residual)


def trace_columns(L, orders, grading: int = 1) -> list[list[complex]]:
    """H_k = tr(L^{grading k}) / k at each matrix of an (N, T, T) stack, one list per order.

    Both gradings take their powers from one power chain (``_matrix_powers``),
    a product two orders share taken once: grading 1 multiplies I @ L @ L ...
    left to right, grading 2 (vd's v-degree grading) takes matrix_power's
    products.  Each power's traces are one sum over its diagonals
    (``_diagonal_sums``), which adds each matrix's diagonal in the order of
    its own P.trace(); each trace is then divided by k as a Python complex,
    since numpy's complex array division multiplies by 1/k.  So a value keeps
    the bits of a single-matrix evaluation.
    """
    orders = list(orders)
    if any(k < 1 for k in orders):
        raise ValueError("orders must be positive integers")
    tree = _chain if grading == 1 else lambda k: _matrix_power_tree(grading * k)
    powers = _matrix_powers(L, [tree(k) for k in orders])
    return [[h / k for h in _diagonal_sums(power).tolist()] for power, k in zip(powers, orders)]


def _diagonal_sums(P) -> np.ndarray:
    """The complex trace of each matrix of a real or complex (N, T, T) stack:
    its diagonals as one C-ordered complex (N, T) array, each row summed
    along the last axis as P[i].astype(complex).trace() sums its diagonal
    (pairwise, on longer diagonals), bit for bit."""
    return np.ascontiguousarray(P.diagonal(0, 1, 2), dtype=complex).sum(axis=-1)


def grad_trace_invariant(builder, block: State, orders) -> np.ndarray:
    """Analytic gradients of tr(L^k)/k at each of the N states of ``block``:
    component j is tr(L^{k-1} dL/dx_j).

    Returns a (len(orders), N, d) array.  The table gives L and, for each
    slot (a, i) of L, the coordinate j it reads and its derivative there
    (L's entries at the unit directions); no matrix is multiplied by dL/dx_j,
    and neither B nor a dense dL is built.  The powers P = L^{k-1} take
    np.linalg.matrix_power's products, each product once per block
    (``_matrix_powers``).  Diagonal entry i of P dL/dx_j is the sum of
    P[i, a] dL/dx_j[a, i] over the slots (a, i) of column i that read x_j.
    The products are gathered for the whole block and rounded as scalar
    products (``complex_product``); each entry (j, i) sums its terms from
    zero in ascending a, and each row of diagonals sums as np.trace sums
    one matrix's.

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
    lax = builder(block)
    table, plan, (j, i, a, slot, layers) = lax.table, lax.L, lax.terms
    x = block.columns
    d, count = x.shape
    r = table.roots(x)
    T = table.size
    ones = np.ones_like(x)
    terms = plan.values(ones, None if r is None else ones / (table.slope * r))[slot].T
    # a power is read at the slots (a, i) only: gathered as the chain forms it,
    # L and the chain's products are freed before the sums
    powers = _matrix_powers(plan.assemble(T, x, r), [_matrix_power_tree(k - 1) for k in orders])
    grads = []
    for entries in [power[:, i, a] for power in powers]:
        products = complex_product(entries, terms)
        diagonals = np.zeros((count, d, T), dtype=complex)
        for layer in layers:
            diagonals[:, j[layer], i[layer]] += products[:, layer]
        grads.append(diagonals.sum(axis=-1))
    return np.array(grads)


def _matrix_powers(L, trees):
    """The power of an (N, T, T) complex stack L that each of ``trees``
    names, in order: a tree is "I", "L" or a (left, right) pair of trees
    multiplied as left @ right, so a power keeps the bits of its products,
    and a product two trees share is taken once.  The products share one
    allocation, whose slots are reused once no later product or power reads
    them, so a power yielded holds only until the next one is asked for.

    A stack with no imaginary part (km, toda and ab on a real block) is
    multiplied in float64: L's real part and every product are padded to
    ``_gemm_width(T)`` columns, so that each entry has the bits of the real
    part of the complex product, and such a power is yielded as a float64
    (N, T, T) view, whose diagonals ``_diagonal_sums`` sums as complex.
    The tree "L" always yields the complex L itself."""
    slots, actions = _power_chain(tuple(trees))
    N, T = L.shape[:2]
    if L.imag.any():
        stack, base = np.empty((slots, N, T, T), dtype=complex), L
    else:
        stack = np.zeros((slots + 1, N, T, _gemm_width(T)))
        base = stack[slots]
        base[:, :, :T] = L.real
    for out, left, right in actions:  # operand -1 is L, s >= 0 slot s
        if left is None:
            yield L if out < 0 else stack[out][:, :, :T]
        elif left == right == -2:
            stack[out][:, :, :T] = np.eye(T)
        else:
            np.matmul((base if left < 0 else stack[left])[:, :, :T], base if right < 0 else stack[right],
                      out=stack[out])


def _matrix_power_tree(n: int):
    """np.linalg.matrix_power's products for L^n, as a tree."""
    if n < 4:  # matrix_power's shortcuts
        return ("I", "L", ("L", "L"), (("L", "L"), "L"))[n]
    z = result = None
    while n > 0:
        z = "L" if z is None else (z, z)
        n, bit = divmod(n, 2)
        if bit:
            result = z if result is None else (result, z)
    return result


def _chain(k: int):
    """I @ L @ ... @ L with k factors L, multiplied left to right, as a tree."""
    tree = "I"
    for _ in range(k):
        tree = (tree, "L")
    return tree


@functools.cache
def _power_chain(trees: tuple) -> tuple:
    """(slots, actions) for ``_matrix_powers``: each action writes a slot
    with the product of two operands, (out, left, right), or with the
    identity, (out, -2, -2), or yields an operand, (operand, None, None).
    An equal subtree is taken once, and a slot is free again after the last
    action that reads it."""
    events, done = [], {"L"}  # (tree, its inputs) in order, inputs None for a power

    def compute(k):
        if k not in done:
            done.add(k)
            events.append((k, () if k == "I" else (compute(k[0]), compute(k[1]))))
        return k

    for tree in trees:
        events.append((compute(tree), None))
    reads = [(k,) if inputs is None else inputs for k, inputs in events]
    last = {read: at for at, keys in enumerate(reads) for read in keys}  # the last event reading each tree
    slot, free, slots, actions = {"L": -1}, [], 0, []
    for at, (k, inputs) in enumerate(events):
        if inputs is None:
            actions.append((slot[k], None, None))
        else:
            if not free:
                free.append(slots)
                slots += 1
            slot[k] = free.pop()
            actions.append((slot[k], -2, -2) if k == "I" else (slot[k], slot[inputs[0]], slot[inputs[1]]))
        free += [slot[read] for read in dict.fromkeys(reads[at]) if read != "L" and last[read] == at]
    return slots, tuple(actions)


# ---------------------------------------------------------------------------
# Casimirs in the (a, b) and v charts
# ---------------------------------------------------------------------------

def casimir_C_column(block: State) -> list[complex]:
    """Casimir C = a_1 a_2^2 ... a_m^2 a_{m+1} of the linear (a, b) bracket at
    each state of ``block``.

    The two outer products are Python complex products, which round as
    numpy's scalar product does; numpy's complex array product may not.
    """
    a = block.rows[:, : _casimir_C_sizes(block, "casimir_C_column")[0]]
    inner = np.prod(a[:, 1:-1] ** 2, axis=1)
    return [x * y * z for x, y, z in zip(a[:, 0].tolist(), inner.tolist(), a[:, -1].tolist())]


def grad_casimir_C(block: State) -> np.ndarray:
    """Analytic gradient of C with respect to (a_1..a_{m+1}, b_1..b_m) at
    each state of ``block``, as a C-ordered (N, d) array."""
    m = _casimir_C_sizes(block, "grad_casimir_C")[1]
    x = block.columns
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


def casimir_F_column(block: State) -> list[complex]:
    """Casimir F = (v_n - v_{n-1}) * prod(v_1..v_{n-2}) of the v-chart tau
    bracket at each state of ``block``; the outer product is a Python
    complex product, as in casimir_C_column."""
    _v_coords(block)
    v = block.rows
    return [x * y for x, y in zip((v[:, -1] - v[:, -2]).tolist(), np.prod(v[:, :-2], axis=1).tolist())]


def grad_casimir_F(block: State) -> np.ndarray:
    """Analytic gradient of F at each state of ``block``, as in grad_casimir_C."""
    _v_coords(block)
    v = block.columns
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
        each (d,) + batch, in x's dtype; a linear table at (dx, dr) gives its
        derivative."""
        out = np.empty((self.count,) + x.shape[1:], dtype=x.dtype)
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
            out = np.zeros((x.shape[1], size, size), dtype=values.dtype)
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
        """The roots of a (d, ...) block of coordinates, in its dtype, or None
        for a table without them."""
        if self.root is None:
            return None
        require_positive_real(x, f"{self.name} builder")
        return self.root(x)


class Gauge(NamedTuple):
    """A diagonal similarity of a table's pair to a real pair: ``d`` in
    {1, i}^T with every entry (a, b) of L and B equal to d_a d_b times a real
    number.  ``L`` plans L_R = L / (d_a d_b) and ``B`` plans B_R S, B_R
    = B / (d_a d_b) with column b scaled by S_b = d_b^2 = +-1, both with real
    coefficients coef * conj(d_a d_b), so that B @ L = D (B_R S L_R) D.
    ``odd`` is 1.0 at the (T, T) entries with d_a d_b = i and 0.0 elsewhere,
    or None if d = 1.  ``width`` is the number of columns L_R's stack takes
    (see ``_gemm_width``)."""

    d: tuple
    L: _Plan
    B: _Plan
    odd: np.ndarray | None
    width: int


class CompiledLax(NamedTuple):
    """A ``LaxTable`` with the plans of its L and B, and the terms of its
    gradient: (j, i, a, slot, layers), every slot (a, i) of L taken by
    coordinate j, ordered by (j, i, a), where ``layers`` picks each (j, i)
    once per layer.  ``gauge``: the table's ``Gauge``, or None if it has
    none (``_gauge``).  The builders return these."""

    table: LaxTable
    L: _Plan
    B: _Plan
    terms: tuple
    gauge: Gauge | None


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
    return CompiledLax(table, *plans, (j, i, a, slot, layers), _gauge(table, *_probe(table, plans)))


def _probe(table: LaxTable, plans) -> tuple:
    """L and B of ``plans`` at one positive real point whose coordinates
    2 + sin(j) have no simple relation among them.  Each entry is its
    coefficient times a formula that is real at every such point, so the
    symmetry and the gauge found here hold on every real block."""
    d = 1 + max(max(e.p, e.q) for e in table.L + table.B)
    x = np.array([[2 + math.sin(j)] for j in range(d)], dtype=complex)
    r = table.roots(x)
    return tuple(plan.assemble(table.size, x, r)[0] for plan in plans)


def _gauge(table: LaxTable, L, B) -> Gauge | None:
    """The gauge of a pair from its L and B at the probe point, or None
    unless L = L^T, B = -B^T and every entry is real or imaginary there:
    each nonzero entry (a, b) asks d_a d_b to be real or imaginary as the
    entry is, and a walk over the entries, from d = 1 at the first index of
    each connected set, meets every demand or finds two that conflict (vd at
    even n)."""
    if not (np.array_equal(L, L.T) and np.array_equal(B, -B.T)
            and all(((M.real == 0) | (M.imag == 0)).all() for M in (L, B))):
        return None
    links = [[] for _ in range(table.size)]
    for M in (L, B):
        for a, row in enumerate(M.tolist()):
            for b, value in enumerate(row):
                if value:
                    links[a].append((b, value.imag != 0))
    odd = [None] * table.size  # d_a = i
    for start in range(table.size):
        if odd[start] is None:
            odd[start], todo = False, [start]
            while todo:
                a = todo.pop()
                for b, imaginary in links[a]:
                    if odd[b] is None:
                        odd[b] = odd[a] != imaginary
                        todo.append(b)
                    elif odd[b] != (odd[a] != imaginary):
                        return None
    S = [-1 if o else 1 for o in odd]

    def real(e, column_sign):
        g = 1j if odd[e.row] != odd[e.col] else S[e.row]  # d_row d_col
        sign = S[e.col] if column_sign else 1  # a mirror (col, row) takes S_row
        return e._replace(coef=(complex(e.coef) * g.conjugate()).real * sign,
                          mirror=e.mirror * (S[e.row] * sign if column_sign else 1))

    return Gauge(tuple(1j if o else 1 for o in odd), _Plan.of([real(e, False) for e in table.L]),
                 _Plan.of([real(e, True) for e in table.B]),
                 np.array([[float(p != q) for q in odd] for p in odd]) if any(odd) else None,
                 _gemm_width(table.size))


def _gemm_width(T: int) -> int:
    """The columns a (T, T) float64 product takes to round as zgemm does.

    OpenBLAS 0.3.31's dgemm (SkylakeX kernels) sums a row-major product
    with 17 or more columns, 1-4 past a multiple of 8, in another order
    than its zgemm sums the real parts (dense random (N, T, T) stacks,
    N = 1, 2, 7, 32, 33: every T = 17-20, 25-28, ... differed, no other
    T = 2-65).
    Zero columns up to 5 past the multiple of 8 make them agree; they give
    zero columns of the product, which are not read."""
    return T if T <= 16 or T % 8 in (0, 5, 6, 7) else T + 5 - T % 8


# Builders: (a State or block) -> the CompiledLax of its system at its size,
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
