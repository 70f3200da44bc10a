"""Poisson tensors in every chart, plus the residual checks that certify them.

Five named structures are provided:

* ``c-bracket`` -- constant bracket on the Cartan variables of the D diagram
* ``pi1-v``     -- tau-ratio bracket on odd v-chains
* ``pi3-v``     -- cubic bracket on v-chains
* ``pi1-ab``    -- linear bracket on (a, b)
* ``pi3-ab``    -- cubic bracket on (a, b)

Each structure stores its upper-triangle entries as signed monomials
(coefficient times a product of integer powers of the coordinates), so both
the tensor and its coordinate derivatives evaluate in closed form; the
lower triangle is mirrored, making antisymmetry exact by construction.
The Jacobi and compatibility residuals use these analytic derivatives.

A table is compiled once per structure and state size, on first use, into
index arrays (``_Sums``) that evaluate pi and d pi at a block of states,
the columns of a (d, N) array.  Reports print residuals to the last bit, so
the plan keeps the scalar operation order: a term is coef * x[v1]**e1 *
x[v2]**e2 * ... multiplied left to right (the x[v]-derivative starts from
(coef*e) * x[v]**(e-1), then the other factors in order); entry (i, j)
starts at zero and adds its terms in table order, and entry (j, i)
subtracts them.  Each step is elementwise over the states, so a real state
gets the same bits in any block.

Every tensor, gradient and residual here has one call shape: a template
``state``, which fixes the chart and size, and ``rows``, an (N, d) block of
coordinates in its chart; one state is a block of one row.  Tensors keep
the state axis last, (n, n, N); gradients are (N, d) and residuals give
one value per row, with matrix-vector products and norms taken per state.
Functions take structure objects (``STRUCTURES`` values, ``Pencil``s) and
Lenard pairs, never their names.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from . import lax
from .catalog import SYSTEMS
from .errors import ChartMismatch, ParityError, UnsupportedDimension
from .states import C_VARS, FLASCHKA_AB, VOLTERRA_V, State, ab_sizes, coordinate_columns, stacked

# One bracket entry is a list of (coefficient, ((variable, exponent), ...))
# monomials; negative exponents encode the tau ratios.
Monomial = tuple[complex, tuple[tuple[int, int], ...]]
EntryTable = dict[tuple[int, int], list[Monomial]]


@dataclass(frozen=True)
class PoissonStructure:
    """A named map from states to antisymmetric matrices."""

    name: str
    chart: str
    table_builder: Callable[[State], EntryTable]
    casimir: tuple[str, Callable] | None = None  # (name, closed-form gradient) of a Casimir

    def __call__(self, state: State, rows) -> np.ndarray:
        """pi at each row of ``rows``, an (N, n) block of coordinates in the
        chart of ``state``, as (n, n, N); antisymmetric by construction."""
        return self._plan(state).pi(coordinate_columns(state, rows))

    def derivatives(self, state: State, rows) -> np.ndarray:
        """d pi / d x_l at each row, as an (n, n, n, N) array indexed [l, i, j, row]."""
        return self._plan(state).dpi(coordinate_columns(state, rows))

    def _plan(self, state: State) -> _Plan:
        """The compiled table at the state's size.  A table and its size and
        parity checks depend only on (dim, split), so the table is built and
        checked once per size."""
        state.require_chart(self.chart, f"structure {self.name}")
        key = (self, state.dim, state.split)
        if key not in _PLANS:
            _PLANS[key] = _compile(self.table_builder(state))
        return _PLANS[key]


class _Sums:
    """pi or d pi of one table, compiled to index arrays (see the module notes).

    ``terms`` lists (slot, coef, factors) in the scalar loop's order; a slot
    indexes an upper-triangle entry (..., i, j).  Terms are sorted longest
    first, so that multiplying in every term's s-th factor is one operation
    on a prefix of the rows, and rank r adds the r-th term of each slot to
    (..., i, j) and subtracts it from (..., j, i).
    """

    def __init__(self, terms, axes: int):
        seen: dict[tuple, int] = {}
        ranked = []
        for slot, coef, factors in terms:
            seen[slot] = seen.get(slot, -1) + 1
            ranked.append((seen[slot], slot, coef, factors))
        ranked.sort(key=lambda term: -len(term[3]))
        powers: dict[tuple[int, int], int] = {}
        steps: list[list[int]] = []
        for _, _, _, factors in ranked:
            for step, factor in enumerate(factors):
                if step == len(steps):
                    steps.append([])
                steps[step].append(powers.setdefault(factor, len(powers)))
        self.axes = axes
        self.var, expo = np.array(list(powers), dtype=np.intp).reshape(-1, 2).T
        self.expo = expo[:, None]
        self.coef = np.array([term[2] for term in ranked], dtype=complex)[:, None]
        self.steps = [np.array(step, dtype=np.intp) for step in steps]
        self.ranks = []
        for rank in range(max(seen.values(), default=-1) + 1):
            rows = [k for k, term in enumerate(ranked) if term[0] == rank]
            slots = np.array([ranked[k][1] for k in rows], dtype=np.intp).reshape(-1, axes).T
            self.ranks.append((slots, np.array(rows, dtype=np.intp)))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The tensor at each column of x, a (d, N) complex array: shape (d, ..., d, N)."""
        d, count = x.shape
        power = x.take(self.var, axis=0) ** self.expo
        value = np.empty((len(self.coef), count), dtype=complex)
        value[...] = self.coef
        for step in self.steps:
            value[: len(step)] *= power.take(step, axis=0)
        shape = (d,) * self.axes
        out = np.zeros((d**self.axes, count), dtype=complex)
        for slots, rows in self.ranks:
            terms = value.take(rows, axis=0)
            out[np.ravel_multi_index(slots, shape)] += terms
            out[np.ravel_multi_index((*slots[:-2], slots[-1], slots[-2]), shape)] -= terms
        return out.reshape(shape + (count,))


class _Plan(NamedTuple):
    pi: _Sums
    dpi: _Sums


def _compile(table: EntryTable) -> _Plan:
    monomials = [((i, j), coef, powers) for (i, j), monos in table.items() for coef, powers in monos]
    return _Plan(_Sums(monomials, 2), _Sums([
        ((var, i, j), coef * expo, ((var, expo - 1),) + tuple(f for f in powers if f[0] != var))
        for (i, j), coef, powers in monomials for var, expo in powers
    ], 3))


_PLANS: dict[tuple[PoissonStructure, int, int | None], _Plan] = {}


def _mono(coef, *factors) -> Monomial:
    """Monomial coef * prod(x[v]**e) from (v, e) pairs; repeated v's merge."""
    merged: dict[int, int] = {}
    for var, expo in factors:
        merged[var] = merged.get(var, 0) + expo
    return (complex(coef), tuple(sorted(merged.items())))


# ---------------------------------------------------------------------------
# entry tables
# ---------------------------------------------------------------------------

def _c_bracket_table(nc: int) -> EntryTable:
    if nc < 4:
        raise UnsupportedDimension("the c bracket lives on at least 4 variables")
    table: EntryTable = {}
    for j in range(nc - 2):
        table[(j, j + 1)] = [_mono(1.0)]
    table[(nc - 3, nc - 1)] = [_mono(1.0)]
    return table


def _tau_mono(coef: complex, i: int, j: int) -> Monomial:
    """tau_ij = v_{2i-1} prod_{k=i}^{j-1} v_{2k+1}/v_{2k}, 1-based i <= j."""
    factors = [(2 * i - 2, 1)]
    for k in range(i, j):
        factors.append((2 * k, 1))
        factors.append((2 * k - 1, -1))
    return _mono(coef, *factors)


def _pi1_v_table(n: int) -> EntryTable:
    if n % 2 == 0:
        raise ParityError("pi1-v requires odd n = 2m+1")
    if n < 5:
        raise UnsupportedDimension("pi1-v requires n >= 5")
    table: EntryTable = {}
    for i in range(1, n - 2):           # 1-based i < j <= n-2
        for j in range(i + 1, n - 1):
            table[(i - 1, j - 1)] = [_tau_mono((-1) ** (i + j - 1), i // 2 + 1, (j + 1) // 2)]
    for i in range(1, n - 1):           # pairs with the fork variables
        mono = _tau_mono(0.5 * (-1) ** (i + n), i // 2 + 1, n // 2)
        table[(i - 1, n - 2)] = [mono]
        table[(i - 1, n - 1)] = [mono]
    table[(n - 2, n - 1)] = [_mono(0.5, (n - 1, 1)), _mono(-0.5, (n - 2, 1))]
    return table


def _pi3_v_table(n: int) -> EntryTable:
    if n < 4:
        raise UnsupportedDimension("pi3-v requires n >= 4")
    v = lambda k: k - 1  # 1-based index helper
    table: EntryTable = {}
    table[(v(1), v(2))] = [_mono(2, (v(1), 2), (v(2), 1)), _mono(1, (v(1), 1), (v(2), 2))]
    for i in range(2, n - 2):
        table[(v(i), v(i + 1))] = [
            _mono(1, (v(i), 2), (v(i + 1), 1)),
            _mono(1, (v(i), 1), (v(i + 1), 2)),
        ]
    table[(v(n - 2), v(n - 1))] = [
        _mono(2, (v(n - 2), 1), (v(n - 1), 2)),
        _mono(1, (v(n - 2), 2), (v(n - 1), 1)),
    ]
    table[(v(n - 1), v(n))] = [
        _mono(2, (v(n - 1), 1), (v(n), 2)),
        _mono(-2, (v(n - 1), 2), (v(n), 1)),
    ]
    for i in range(1, n - 2):
        table[(v(i), v(i + 2))] = [_mono(1, (v(i), 1), (v(i + 1), 1), (v(i + 2), 1))]
    table[(v(n - 2), v(n))] = [
        _mono(1, (v(n - 2), 2), (v(n), 1)),
        _mono(2, (v(n - 2), 1), (v(n), 2)),
    ]
    table[(v(n - 3), v(n))] = [_mono(1, (v(n - 3), 1), (v(n - 2), 1), (v(n), 1))]
    return table


def _pi1_ab_table(m: int) -> EntryTable:
    """{a_1,b_1} = a_1; {a_i,b_i} = a_i/2; {a_{i+1},b_i} = -a_{i+1}/2;
    {a_{m+1},b_m} = -a_{m+1}.

    The subdiagonal entries carry a_{i+1}: with a_i instead the bracket
    would not generate the lattice equations from the quadratic invariant.
    """
    if m < 1:
        raise UnsupportedDimension("pi1-ab requires m >= 1")
    a = lambda i: i - 1
    b = lambda i: m + i
    table: EntryTable = {}
    table[(a(1), b(1))] = [_mono(1, (a(1), 1))]
    for i in range(2, m + 1):
        table[(a(i), b(i))] = [_mono(0.5, (a(i), 1))]
    for i in range(1, m):
        table[(a(i + 1), b(i))] = [_mono(-0.5, (a(i + 1), 1))]
    table[(a(m + 1), b(m))] = [_mono(-1, (a(m + 1), 1))]
    return table


def _pi3_ab_table(m: int) -> EntryTable:
    if m < 2:
        raise UnsupportedDimension("pi3-ab requires m >= 2")
    a = lambda i: i - 1
    b = lambda i: m + i
    table: EntryTable = {}
    for i in range(1, m + 1):           # a-a couplings; factor 2 at both ends
        coef = 2.0 if i in (1, m) else 1.0
        table[(a(i), a(i + 1))] = [_mono(coef, (a(i), 1), (a(i + 1), 1), (b(i), 1))]
    for i in range(1, m):               # b-b couplings
        table[(b(i), b(i + 1))] = [
            _mono(2, (a(i + 1), 2), (b(i), 1)),
            _mono(2, (a(i + 1), 2), (b(i + 1), 1)),
        ]
    table[(a(1), b(1))] = [_mono(2, (a(1), 3)), _mono(2, (a(1), 1), (b(1), 2))]
    for i in range(2, m):
        table[(a(i), b(i))] = [_mono(1, (a(i), 3)), _mono(1, (a(i), 1), (b(i), 2))]
    table[(a(m), b(m))] = [
        _mono(1, (a(m), 3)),
        _mono(1, (a(m), 1), (b(m), 2)),
        _mono(-1, (a(m), 1), (a(m + 1), 2)),
    ]
    table[(a(1), b(2))] = [_mono(2, (a(2), 2), (a(1), 1))]
    for i in range(2, m):
        table[(a(i), b(i + 1))] = [_mono(1, (a(i + 1), 2), (a(i), 1))]
    table[(a(2), b(1))] = [
        _mono(-1, (a(2), 3)),
        _mono(-1, (a(2), 1), (b(1), 2)),
        _mono(1, (a(2), 1), (a(1), 2)),
    ]
    for i in range(2, m):
        table[(a(i + 1), b(i))] = [
            _mono(-1, (a(i + 1), 3)),
            _mono(-1, (a(i + 1), 1), (b(i), 2)),
        ]
    table[(a(m + 1), b(m))] = [
        _mono(-2, (a(m + 1), 3)),
        _mono(-2, (a(m + 1), 1), (b(m), 2)),
    ]
    for i in range(1, m - 1):
        table[(a(i + 2), b(i))] = [_mono(-1, (a(i + 1), 2), (a(i + 2), 1))]
    table[(a(m + 1), b(m - 1))] = [_mono(-2, (a(m), 2), (a(m + 1), 1))]
    return table


# Casimir gradients look ``lax.grad_casimir_*`` up at call time, so a wrapper
# installed on the lax module (e.g. by a profiler) sees every evaluation.
STRUCTURES = {
    "c-bracket": PoissonStructure("c-bracket", C_VARS, lambda s: _c_bracket_table(s.dim)),
    "pi1-v": PoissonStructure("pi1-v", VOLTERRA_V, lambda s: _pi1_v_table(s.dim),
                              ("F", lambda s, rows: lax.grad_casimir_F(s, rows))),
    "pi3-v": PoissonStructure("pi3-v", VOLTERRA_V, lambda s: _pi3_v_table(s.dim)),
    "pi1-ab": PoissonStructure(
        "pi1-ab", FLASCHKA_AB, lambda s: _pi1_ab_table(ab_sizes(s, +1, "pi1-ab")[1]),
        ("C", lambda s, rows: lax.grad_casimir_C(s, rows))),
    "pi3-ab": PoissonStructure(
        "pi3-ab", FLASCHKA_AB, lambda s: _pi3_ab_table(ab_sizes(s, +1, "pi3-ab")[1])),
}


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _jacobi_indices(n: int) -> tuple[np.ndarray, ...]:
    """For every triple i < j < k < n, in lexicographic order: i, j, k and the
    flat positions j*n+k, k*n+i, i*n+j in an n x n matrix."""
    i, j, k = np.array(list(combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3).T
    indices = np.stack([i, j, k, j * n + k, k * n + i, i * n + j])
    indices.setflags(write=False)
    return tuple(indices)


def jacobi_residual(structure, state: State, rows) -> np.ndarray:
    """Max over index triples of the cyclic Jacobi sum at each row; NaN if any sum is NaN.

    Tensor derivatives are analytic (exact monomial differentiation).

    Summation order is part of the contract, because reports print the
    residual's exact bits: for every triple i < j < k the sum runs over
    l = 0, 1, ..., n-1, adding ``pi[i,l]*dpi[l,j,k] + pi[j,l]*dpi[l,k,i] +
    pi[k,l]*dpi[l,i,j]`` (grouped left to right) to a running total that
    starts at zero.  All triples of all states advance together, one vector
    operation per l; a contraction over l (``einsum``, ``np.sum``, matmul)
    would reorder these additions and change the low bits.
    """
    pi, dpi = structure(state, rows), structure.derivatives(state, rows)
    n = state.dim
    i, j, k, jk, ki, ij = _jacobi_indices(n)
    columns = pi.transpose(1, 0, 2).copy()  # columns[l] = pi[:, l], contiguous for take
    planes = dpi.reshape(n, n * n, -1)  # planes[l] = dpi[l] flattened
    total = np.zeros((len(i), pi.shape[-1]), dtype=complex)
    for l in range(n):
        p, d = columns[l], planes[l]
        total += (p.take(i, axis=0) * d.take(jk, axis=0) + p.take(j, axis=0) * d.take(ki, axis=0)
                  + p.take(k, axis=0) * d.take(ij, axis=0))
    return np.max(np.abs(total), axis=0, initial=0.0)


class Pencil:
    """The linear pencil pi_a + lam * pi_b of two structures on one chart."""

    def __init__(self, first: PoissonStructure, second: PoissonStructure, lam: float):
        self.first = first
        self.second = second
        if self.first.chart != self.second.chart:
            raise ChartMismatch("pencil requires structures on the same chart")
        self.lam = lam

    def __call__(self, state: State, rows) -> np.ndarray:
        return self.first(state, rows) + self.lam * self.second(state, rows)

    def derivatives(self, state: State, rows) -> np.ndarray:
        # first + lam * second, computed in place: two d pi tensors live, not four
        out = self.second.derivatives(state, rows)
        np.multiply(self.lam, out, out=out)
        return np.add(self.first.derivatives(state, rows), out, out=out)


def compatibility_residual(structure1, structure2, lam: float, state: State, rows) -> np.ndarray:
    """Jacobi residual of the pencil pi1 + lam * pi3 at each row."""
    return jacobi_residual(Pencil(structure1, structure2, lam), state, rows)


def casimir_residual(structure, casimir_grad, state: State, rows) -> np.ndarray:
    """Norm of pi(s) . grad C(s) at each row; the gradient must be supplied in
    closed form, as ``casimir_grad(state, rows)``, one gradient per row."""
    pis = stacked(structure(state, rows))
    grads = np.asarray(casimir_grad(state, rows), dtype=complex)
    return np.array([np.linalg.norm(pi @ grad) for pi, grad in zip(pis, grads)])


def hamiltonian_flow_check(structure, grad_h, field, state: State, rows) -> np.ndarray:
    """Norm of pi(s) grad H(s) - field(s) at each row s of ``rows``, with
    ``grad_h(state, rows)`` in closed form and ``field(state, row)`` per row."""
    pis, grads = stacked(structure(state, rows)), np.asarray(grad_h(state, rows), dtype=complex)
    return np.array([np.linalg.norm(pi @ gh - field(state, row))
                     for pi, gh, row in zip(pis, grads, coordinate_columns(state, rows).T)])


# ---------------------------------------------------------------------------
# the Lenard ladder
# ---------------------------------------------------------------------------

class LenardPair(NamedTuple):
    """pi3 grad H2 = pi1 grad H4 on one chart, with H = scale * tr(L^order) / order
    and L from a catalog row's Lax builder.

    The ladder itself pins each normalization.  In the (a, b) chart
    H2 = tr(L^2)/2 (the flow Hamiltonian of pi1) and H4 = tr(L^4)/2: with
    tr(L^4)/4 the two sides of the ladder differ by exactly 2 at every
    state.  In the v chart the Lax entries are square roots, tr(L^2)
    vanishes identically, and the invariants are graded by v-degree:
    H_k = tr(L^{2k}) / k, under which the ladder is exact as written.  The
    chart and its admissible sizes are those of the structures: pi1-v, and
    so the v-chart ladder, needs odd n.
    """

    pi1: PoissonStructure
    pi3: PoissonStructure
    lax: Callable  # Lax builder (template State) -> CompiledLax
    h2: tuple[int, int]  # (order, scale)
    h4: tuple[int, int]


#: The Lenard ladders of the vd and ab systems, keyed by the short chart name.
LENARD = {
    "v": LenardPair(STRUCTURES["pi1-v"], STRUCTURES["pi3-v"], SYSTEMS["vd"].lax, (4, 2), (8, 2)),
    "ab": LenardPair(STRUCTURES["pi1-ab"], STRUCTURES["pi3-ab"], SYSTEMS["ab"].lax, (2, 1), (4, 2)),
}


def lenard_residual(pair: LenardPair, state: State, rows) -> np.ndarray:
    """Norm of pi3 grad H2 - pi1 grad H4 of a Lenard pair at each row.

    Gradients of the trace invariants are analytic.  The tensors and the
    gradients of a block of ``rows`` each come from one call.
    """
    pi3, pi1 = stacked(pair.pi3(state, rows)), stacked(pair.pi1(state, rows))
    (o2, s2), (o4, s4) = pair.h2, pair.h4
    g2, g4 = lax.grad_trace_invariant(pair.lax, state, rows, [o2, o4])
    return np.array([np.linalg.norm(p3 @ (s2 * a) - p1 @ (s4 * b)) for p3, p1, a, b in zip(pi3, pi1, g2, g4)])

