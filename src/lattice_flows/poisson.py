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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from . import lax
from .errors import ChartMismatch, ParityError, UnsupportedDimension
from .states import C_VARS, FLASCHKA_AB, VOLTERRA_V, State, ab_split, central_difference

#: Central-difference step for scalar gradients.
GRAD_FD_STEP = 1e-6
#: Central-difference step when the Jacobi identity is checked without
#: analytic derivatives.
JACOBI_FD_STEP = 1e-5

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

    def __call__(self, state: State) -> np.ndarray:
        return _eval_table(self.table(state), state.array)

    def derivatives(self, state: State) -> np.ndarray:
        """d pi / d x_l stacked as an (n, n, n) array indexed [l, i, j]."""
        return _eval_table_derivatives(self.table(state), state.array)


def _eval_table(table: EntryTable, x: np.ndarray) -> np.ndarray:
    n = len(x)
    upper = np.zeros((n, n), dtype=complex)
    for (i, j), monos in table.items():
        total = 0.0 + 0.0j
        for coef, powers in monos:
            term = coef
            for var, expo in powers:
                term = term * x[var] ** expo
            total += term
        upper[i, j] = total
    return upper - upper.T


def _eval_table_derivatives(table: EntryTable, x: np.ndarray) -> np.ndarray:
    n = len(x)
    out = np.zeros((n, n, n), dtype=complex)
    for (i, j), monos in table.items():
        for coef, powers in monos:
            for var, expo in powers:
                term = coef * expo * x[var] ** (expo - 1)
                for var2, expo2 in powers:
                    if var2 != var:
                        term = term * x[var2] ** expo2
                out[var, i, j] += term
                out[var, j, i] -= term
    return out


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


def _structure_derivatives(struct, state: State, fd_step) -> tuple[np.ndarray, np.ndarray]:
    if fd_step is None and hasattr(struct, "derivatives"):
        return struct(state), struct.derivatives(state)
    step = fd_step if fd_step is not None else JACOBI_FD_STEP
    return struct(state), central_difference(struct, state, step)


@lru_cache(maxsize=None)
def _jacobi_indices(n: int) -> tuple[np.ndarray, ...]:
    """For every triple i < j < k < n, in lexicographic order: i, j, k and the
    flat positions j*n+k, k*n+i, i*n+j in an n x n matrix."""
    i, j, k = np.array(list(combinations(range(n), 3)), dtype=np.intp).reshape(-1, 3).T
    indices = np.stack([i, j, k, j * n + k, k * n + i, i * n + j])
    indices.setflags(write=False)
    return tuple(indices)


def jacobi_residual(structure, state: State, fd_step: float | None = None) -> float:
    """Max over index triples of the cyclic Jacobi sum; NaN if any sum is NaN.

    Tensor derivatives are analytic (exact monomial differentiation) by
    default; pass ``fd_step`` to use central differences instead.

    Summation order is part of the contract, because reports print the
    residual's exact bits: for every triple i < j < k the sum runs over
    l = 0, 1, ..., n-1, adding ``pi[i,l]*dpi[l,j,k] + pi[j,l]*dpi[l,k,i] +
    pi[k,l]*dpi[l,i,j]`` (grouped left to right) to a running total that
    starts at zero.  All triples advance together, one vector operation per
    l; a contraction over l (``einsum``, ``np.sum``, matmul) would reorder
    these additions and change the low bits.
    """
    struct = get_structure(structure)
    pi, dpi = _structure_derivatives(struct, state, fd_step)
    n = state.dim
    i, j, k, jk, ki, ij = _jacobi_indices(n)
    columns = pi.T.copy()  # columns[l] = pi[:, l], contiguous for take
    planes = dpi.reshape(n, n * n)  # planes[l] = dpi[l] flattened
    total = np.zeros(len(i), dtype=complex)
    for l in range(n):
        p, d = columns[l], planes[l]
        total += p.take(i) * d.take(jk) + p.take(j) * d.take(ki) + p.take(k) * d.take(ij)
    return float(np.max(np.abs(total), initial=0.0))


class Pencil:
    """The linear pencil pi_a + lam * pi_b of two structures on one chart."""

    def __init__(self, structure1, structure2, lam: float):
        self.first = get_structure(structure1)
        self.second = get_structure(structure2)
        if self.first.chart != self.second.chart:
            raise ChartMismatch("pencil requires structures on the same chart")
        self.lam = lam
        self.chart = self.first.chart

    def __call__(self, state: State) -> np.ndarray:
        return self.first(state) + self.lam * self.second(state)

    def derivatives(self, state: State) -> np.ndarray:
        return self.first.derivatives(state) + self.lam * self.second.derivatives(state)


def compatibility_residual(structure1, structure2, lam: float, state: State,
                           fd_step: float | None = None) -> float:
    """Jacobi residual of the pencil pi1 + lam * pi3."""
    return jacobi_residual(Pencil(structure1, structure2, lam), state, fd_step)


def casimir_residual(structure, casimir_grad, state: State) -> float:
    """Norm of pi(s) . grad C(s); the gradient must be supplied in closed form."""
    pi = poisson_matrix(structure, state)
    grad = np.asarray(casimir_grad(state), dtype=complex)
    return float(np.linalg.norm(pi @ grad))


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


def lenard_residual(chart: str, state: State, fd_step: float | None = None) -> float:
    """Norm of pi3 grad H2 - pi1 grad H4 in the given chart ('v' or 'ab').

    Gradients of the trace invariants are analytic by default; passing
    ``fd_step`` switches to central differences of the traces.
    """
    pair = _lenard_pair(chart)
    state.require_chart(pair.chart, "lenard_residual")
    if pair.odd_n and state.dim % 2 == 0:
        raise ParityError(f"the {pair.name}-chart Lenard relation requires odd n")
    if fd_step is None:
        (o2, s2), (o4, s4) = pair.h2, pair.h4
        g2, g4 = lax.grad_trace_invariant(pair.lax_key, state, [o2, o4])
        g2, g4 = s2 * g2, s4 * g4
    else:
        g2, g4 = (gradient(h, state, fd_step) for h in lenard_hamiltonians(chart))
    return float(np.linalg.norm(STRUCTURES[pair.pi3](state) @ g2 - STRUCTURES[pair.pi1](state) @ g4))


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
