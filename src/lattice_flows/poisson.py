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
The Jacobi and compatibility residuals default to these analytic
derivatives; a finite-difference step may be passed to cross-check them.

A table is compiled once per table object, on first use, into index arrays
(``_Sums``) that evaluate pi and d pi at a block of states, the columns of a
(d, N) array.  Reports print residuals to the last bit, so the plan keeps
the scalar operation order: a term is coef * x[v1]**e1 * x[v2]**e2 * ...
multiplied left to right (the x[v]-derivative starts from (coef*e) *
x[v]**(e-1), then the other factors in order); entry (i, j) starts at zero
and adds its terms in table order, and entry (j, i) subtracts them.  Each
step is elementwise over the states, so a real state gets the same bits in
any block.  The residuals take a block as ``rows``, an (N, d) array in the
chart of their ``state`` argument, and return one value per row;
matrix-vector products and norms stay per state.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from . import lax
from .errors import ChartMismatch, ParityError, UnsupportedDimension
from .states import (
    C_VARS, FLASCHKA_AB, VOLTERRA_V, State, ab_split, central_difference, coordinate_columns,
)

#: Central-difference step for scalar gradients.
GRAD_FD_STEP = 1e-6

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
    degree: int
    casimirs: tuple[str, ...] = ()

    def table(self, state: State) -> EntryTable:
        state.require_chart(self.chart, f"structure {self.name}")
        return self.table_builder(state)

    def __call__(self, state: State, x=None) -> np.ndarray:
        """pi at ``state``, (n, n); or at each column of ``x``, a (d, N) block
        of coordinates in the chart of ``state``, as (n, n, N)."""
        return _at(_plan(self.table(state)).pi, state, x)

    def derivatives(self, state: State, x=None) -> np.ndarray:
        """d pi / d x_l stacked as an (n, n, n) array indexed [l, i, j]; with
        ``x``, (n, n, n, N)."""
        return _at(_plan(self.table(state)).dpi, state, x)


def _at(tensor, state: State, x):
    return tensor(coordinate_columns(state))[..., 0] if x is None else tensor(x)


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


# Plans by table identity.  An entry keeps its table alive, so no other
# object can take that id while it is cached; tables are never mutated.
_PLANS: dict[int, tuple[EntryTable, _Plan]] = {}


def _plan(table: EntryTable) -> _Plan:
    if id(table) not in _PLANS:
        if len(_PLANS) >= 64:
            del _PLANS[next(iter(_PLANS))]  # the oldest
        _PLANS[id(table)] = (table, _compile(table))
    return _PLANS[id(table)][1]


def _mono(coef, *factors) -> Monomial:
    """Monomial coef * prod(x[v]**e) from (v, e) pairs; repeated v's merge."""
    merged: dict[int, int] = {}
    for var, expo in factors:
        merged[var] = merged.get(var, 0) + expo
    return (complex(coef), tuple(sorted(merged.items())))


# ---------------------------------------------------------------------------
# entry tables
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
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


STRUCTURES = {
    "c-bracket": PoissonStructure(
        "c-bracket", C_VARS, lambda s: _c_bracket_table(s.dim), degree=0
    ),
    "pi1-v": PoissonStructure(
        "pi1-v", VOLTERRA_V, lambda s: _pi1_v_table(s.dim), degree=1, casimirs=("F",)
    ),
    "pi3-v": PoissonStructure(
        "pi3-v", VOLTERRA_V, lambda s: _pi3_v_table(s.dim), degree=3
    ),
    "pi1-ab": PoissonStructure(
        "pi1-ab", FLASCHKA_AB, lambda s: _pi1_ab_table(len(ab_split(s, +1, "pi1-ab")[1])),
        degree=1, casimirs=("C",),
    ),
    "pi3-ab": PoissonStructure(
        "pi3-ab", FLASCHKA_AB, lambda s: _pi3_ab_table(len(ab_split(s, +1, "pi3-ab")[1])), degree=3
    ),
}


def get_structure(name):
    """Resolve a structure name; structure-like objects pass through."""
    if isinstance(name, (PoissonStructure, Pencil)):
        return name
    try:
        return STRUCTURES[name]
    except KeyError:
        raise ValueError(f"unknown Poisson structure {name!r}") from None


def poisson_matrix(structure, state: State) -> np.ndarray:
    """Evaluate a named structure; output is antisymmetric by construction."""
    return get_structure(structure)(state)


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------

def gradient(f, state: State, fd_step: float = GRAD_FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function of a State."""
    return central_difference(f, state, fd_step)


def bracket_eval(structure, f, g, state: State, fd_step: float = GRAD_FD_STEP,
                 grad_f=None, grad_g=None) -> complex:
    """{f, g}(s) = grad f . pi(s) . grad g; analytic gradients used when given."""
    pi = poisson_matrix(structure, state)
    gf = np.asarray(grad_f(state), dtype=complex) if grad_f else gradient(f, state, fd_step)
    gg = np.asarray(grad_g(state), dtype=complex) if grad_g else gradient(g, state, fd_step)
    return complex(gf @ pi @ gg)


def _per_row(values, rows):
    """A residual's values as returned: the (N,) array for a block, a float for one state."""
    values = np.asarray(values, dtype=float)
    return values if rows is not None else float(values[0])


def _stack(tensor: np.ndarray) -> np.ndarray:
    """(n, n, N) -> C-ordered (N, n, n), each slice laid out (so multiplied) as one state's."""
    return np.ascontiguousarray(np.moveaxis(tensor, -1, 0))


def _structure_derivatives(struct, state: State, x, fd_step) -> tuple[np.ndarray, np.ndarray]:
    if fd_step is None:
        return struct(state, x), struct.derivatives(state, x)
    dpi = [central_difference(struct, state.replace_coords(column), fd_step) for column in x.T]
    return struct(state, x), np.stack(dpi, axis=-1)


@lru_cache(maxsize=None)
def _jacobi_indices(n: int) -> tuple[np.ndarray, ...]:
    """For every triple i < j < k < n, in lexicographic order: i, j, k and the
    flat positions j*n+k, k*n+i, i*n+j in an n x n matrix."""
    i, j, k = np.array(list(combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3).T
    indices = np.stack([i, j, k, j * n + k, k * n + i, i * n + j])
    indices.setflags(write=False)
    return tuple(indices)


def jacobi_residual(structure, state: State, fd_step: float | None = None, rows=None):
    """Max over index triples of the cyclic Jacobi sum; NaN if any sum is NaN.

    Tensor derivatives are analytic (exact monomial differentiation) by
    default; pass ``fd_step`` to use central differences instead.  With
    ``rows`` the residual of each row is returned (see the module notes).

    Summation order is part of the contract, because reports print the
    residual's exact bits: for every triple i < j < k the sum runs over
    l = 0, 1, ..., n-1, adding ``pi[i,l]*dpi[l,j,k] + pi[j,l]*dpi[l,k,i] +
    pi[k,l]*dpi[l,i,j]`` (grouped left to right) to a running total that
    starts at zero.  All triples of all states advance together, one vector
    operation per l; a contraction over l (``einsum``, ``np.sum``, matmul)
    would reorder these additions and change the low bits.
    """
    struct = get_structure(structure)
    x = coordinate_columns(state, rows)
    pi, dpi = _structure_derivatives(struct, state, x, fd_step)
    n = state.dim
    i, j, k, jk, ki, ij = _jacobi_indices(n)
    columns = pi.transpose(1, 0, 2).copy()  # columns[l] = pi[:, l], contiguous for take
    planes = dpi.reshape(n, n * n, -1)  # planes[l] = dpi[l] flattened
    total = np.zeros((len(i), x.shape[1]), dtype=complex)
    for l in range(n):
        p, d = columns[l], planes[l]
        total += (p.take(i, axis=0) * d.take(jk, axis=0) + p.take(j, axis=0) * d.take(ki, axis=0)
                  + p.take(k, axis=0) * d.take(ij, axis=0))
    return _per_row(np.max(np.abs(total), axis=0, initial=0.0), rows)


class Pencil:
    """The linear pencil pi_a + lam * pi_b of two structures on one chart."""

    def __init__(self, structure1, structure2, lam: float):
        self.first = get_structure(structure1)
        self.second = get_structure(structure2)
        if self.first.chart != self.second.chart:
            raise ChartMismatch("pencil requires structures on the same chart")
        self.lam = lam
        self.chart = self.first.chart

    def __call__(self, state: State, x=None) -> np.ndarray:
        return self.first(state, x) + self.lam * self.second(state, x)

    def derivatives(self, state: State, x=None) -> np.ndarray:
        # first + lam * second, computed in place: two d pi tensors live, not four
        out = self.second.derivatives(state, x)
        np.multiply(self.lam, out, out=out)
        return np.add(self.first.derivatives(state, x), out, out=out)


def compatibility_residual(structure1, structure2, lam: float, state: State,
                           fd_step: float | None = None, rows=None):
    """Jacobi residual of the pencil pi1 + lam * pi3."""
    return jacobi_residual(Pencil(structure1, structure2, lam), state, fd_step, rows)


def casimir_residual(structure, casimir_grad, state: State, rows=None):
    """Norm of pi(s) . grad C(s); the gradient must be supplied in closed form.

    ``casimir_grad(state)`` gives one gradient; with ``rows`` it is called as
    ``casimir_grad(state, rows)`` and gives one gradient per row.
    """
    pis = _stack(get_structure(structure)(state, coordinate_columns(state, rows)))
    grads = casimir_grad(state) if rows is None else casimir_grad(state, rows)
    grads = np.asarray(grads, dtype=complex).reshape(len(pis), -1)
    return _per_row([np.linalg.norm(pi @ grad) for pi, grad in zip(pis, grads)], rows)


def hamiltonian_flow_check(structure, hamiltonian, field, state: State,
                           grad_h=None, fd_step: float = GRAD_FD_STEP) -> float:
    """Norm of pi(s) grad H(s) - field(s)."""
    pi = poisson_matrix(structure, state)
    gh = np.asarray(grad_h(state), dtype=complex) if grad_h else gradient(hamiltonian, state, fd_step)
    return float(np.linalg.norm(pi @ gh - np.asarray(field(state), dtype=complex)))


# ---------------------------------------------------------------------------
# the Lenard ladder
# ---------------------------------------------------------------------------

class LenardPair(NamedTuple):
    """pi3 grad H2 = pi1 grad H4 on one chart, with H = scale * tr(L^order) / order.

    The ladder itself pins each normalization.  In the (a, b) chart
    H2 = tr(L^2)/2 (the flow Hamiltonian of pi1) and H4 = tr(L^4)/2: with
    tr(L^4)/4 the two sides of the ladder differ by exactly 2 at every
    state.  In the v chart the Lax entries are square roots, tr(L^2)
    vanishes identically, and the invariants are graded by v-degree:
    H_k = tr(L^{2k}) / k, under which the ladder is exact as written.
    """

    name: str  # short chart name accepted next to ``chart``
    chart: str
    pi1: str
    pi3: str
    lax_key: str
    h2: tuple[int, int]  # (order, scale)
    h4: tuple[int, int]
    odd_n: bool  # the relation needs an odd number of coordinates


LENARD = (
    LenardPair("ab", FLASCHKA_AB, "pi1-ab", "pi3-ab", "ab", (2, 1), (4, 2), odd_n=False),
    LenardPair("v", VOLTERRA_V, "pi1-v", "pi3-v", "vd", (4, 2), (8, 2), odd_n=True),
)


def _lenard_pair(chart: str) -> LenardPair:
    for pair in LENARD:
        if chart in (pair.name, pair.chart):
            return pair
    raise ChartMismatch(f"no Lenard pair on chart {chart!r}")


def lenard_hamiltonians(chart: str):
    """The (H2, H4) callables of the chart's Lenard pair."""
    pair = _lenard_pair(chart)

    def hamiltonian(order, scale):
        return lambda state: scale * lax.trace_invariants(lax.build_lax(pair.lax_key, state), [order])[0]

    return hamiltonian(*pair.h2), hamiltonian(*pair.h4)


def lenard_residual(chart: str, state: State, fd_step: float | None = None, rows=None):
    """Norm of pi3 grad H2 - pi1 grad H4 in the given chart ('v' or 'ab').

    Gradients of the trace invariants are analytic by default; passing
    ``fd_step`` switches to central differences of the traces.  The tensors
    of a block of ``rows`` are evaluated together, the gradients row by row.
    """
    pair = _lenard_pair(chart)
    state.require_chart(pair.chart, "lenard_residual")
    if pair.odd_n and state.dim % 2 == 0:
        raise ParityError(f"the {pair.name}-chart Lenard relation requires odd n")
    x = coordinate_columns(state, rows)
    pi3 = _stack(STRUCTURES[pair.pi3](state, x))
    pi1 = _stack(STRUCTURES[pair.pi1](state, x))
    (o2, s2), (o4, s4) = pair.h2, pair.h4
    norms = []
    for p3, p1, coords in zip(pi3, pi1, x.T):
        at = state.replace_coords(coords)
        if fd_step is None:
            g2, g4 = lax.grad_trace_invariant(pair.lax_key, at, [o2, o4])
            g2, g4 = s2 * g2, s4 * g4
        else:
            g2, g4 = (gradient(h, at, fd_step) for h in lenard_hamiltonians(chart))
        norms.append(np.linalg.norm(p3 @ g2 - p1 @ g4))
    return _per_row(norms, rows)


def vd_quarter_h2(state: State) -> complex:
    """Closed form of one quarter of the v-chart flow Hamiltonian.

    v_{n-2} v_n + 2 v_{n-1} v_n + sum_{i<n-1} v_i v_{i+1} + (1/2) sum_{2<=i<=n-2} v_i^2.
    """
    state.require_chart(VOLTERRA_V, "vd_quarter_h2")
    v = state.array
    n = len(v)
    return complex(
        v[n - 3] * v[n - 1]
        + 2 * v[n - 2] * v[n - 1]
        + np.sum(v[: n - 2] * v[1 : n - 1])
        + 0.5 * np.sum(v[1 : n - 2] ** 2)
    )


def grad_vd_quarter_h2(state: State) -> np.ndarray:
    """Analytic gradient of vd_quarter_h2."""
    v = state.array
    n = len(v)
    g = np.zeros(n, dtype=complex)
    for i in range(n - 2):              # chain products v_i v_{i+1}
        g[i] += v[i + 1]
        g[i + 1] += v[i]
    g[n - 3] += v[n - 1]
    g[n - 1] += v[n - 3]
    g[n - 2] += 2 * v[n - 1]
    g[n - 1] += 2 * v[n - 2]
    g[1 : n - 2] += v[1 : n - 2]
    return g
