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
gets the same bits in any block.  The plan holds only the entries its terms
reach, both triangles, one row each plus a zero row; pi is scattered from
these rows into a matrix per state, and d pi stays compact.

The Jacobi residual sums over structural nonzeros only.  For each structure
or pencil and size, the (triple, l) groups of the cyclic sums in which some
term pairs a nonzero of pi with a nonzero of d pi are compiled once
(``_Jacobi``); pi3-v at n = 25 has 326 such terms of a dense 172,500.  Each
triple adds its live groups in ascending l, as the sum over every l does:
the groups left out add exact zeros on finite states (see
``jacobi_residual``).

Every tensor, gradient and residual here takes one ``block``, a ``State``
of N rows whose chart and size it checks (a lone state is one row).  pi
comes back as a C-ordered (N, n, n) stack, one matrix per state, the layout
of the Lax matrices; gradients are (N, d) and residuals give one value per state.
Matrix-vector products and norms are stacked, one per state's slice
(``states.matvecs``, ``states.row_norms``), so each state keeps the bits
of its own evaluation.  Functions take structure objects (``STRUCTURES``
values) and Lenard pairs (``catalog.LENARD`` values), never their names.

One residual, ``hamiltonian_flow_check``, certifies pi grad H = X at each
row: a Casimir is X = 0, a Hamiltonian flow takes X from the vector field,
and the Lenard ladder takes X = pi3 grad H2 for the flow of H4 under pi1.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, NamedTuple

import numpy as np

from .errors import ChartMismatch, ParityError, UnsupportedDimension
from .states import C_VARS, FLASCHKA_AB, VOLTERRA_V, State, ab_sizes, matvecs, row_norms, tangent_columns

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

    def __call__(self, block: State) -> np.ndarray:
        """pi at each of the N states of ``block``, as a C-ordered (N, n, n)
        stack; antisymmetric by construction."""
        sums, x = self._plan(block).pi, block.columns
        out = np.zeros((x.shape[1], block.dim ** 2), dtype=complex)
        out[:, sums.at] = sums(x)[:-1].T
        return out.reshape(-1, block.dim, block.dim)

    def _plan(self, state: State) -> _Plan:
        """The compiled table at the state's size.  A table and its size and
        parity checks depend only on (dim, split), so the table is built and
        checked once per size."""
        state.require_chart(self.chart, f"structure {self.name}")
        key = (self, state.dim, state.split)
        if key not in _PLANS:
            _PLANS[key] = _compile(self.table_builder(state), state.dim)
        return _PLANS[key]


class _Sums:
    """pi or d pi of one table, compiled to index arrays (see the module notes).

    ``terms`` lists (slot, coef, factors) in the scalar loop's order; a slot
    indexes an upper-triangle entry (..., i, j) of a (d, ..., d) tensor.
    The tensor is held compactly: ``at`` lists, in ascending order, the flat
    positions of the entries its terms reach, both triangles, and row s of a
    compact array holds entry at[s], with one zero row last for every other
    entry.  Terms are sorted longest first, so that multiplying in every
    term's s-th factor is one operation on a prefix of the rows, and rank r
    adds the r-th term of each slot to (..., i, j) and subtracts it from
    (..., j, i), as a dense accumulation would.
    """

    def __init__(self, terms, d: int):
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
        self.var, expo = np.array(list(powers), dtype=np.intp).reshape(-1, 2).T
        self.expo = expo[:, None]
        self.coef = np.array([term[2] for term in ranked], dtype=complex)[:, None]
        self.steps = [np.array(step, dtype=np.intp) for step in steps]

        def positions(slot):  # flat positions of (..., i, j) and (..., j, i)
            return _flat(slot, d), _flat((*slot[:-2], slot[-1], slot[-2]), d)

        # sorted and looked up in Python: numpy's sort would be paged in for this alone
        at = sorted({p for term in ranked for p in positions(term[1])})
        index = {p: s for s, p in enumerate(at)}
        self.at = np.array(at, dtype=np.intp)
        self.ranks = []
        for rank in range(max(seen.values(), default=-1) + 1):
            rows = [k for k, term in enumerate(ranked) if term[0] == rank]
            plus, minus = ([index[p] for p in ps] for ps in zip(*(positions(ranked[k][1]) for k in rows)))
            self.ranks.append(tuple(np.array(a, dtype=np.intp) for a in (plus, minus, rows)))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The compact tensor at each column of x, a (d, N) complex array: (len(at) + 1, N)."""
        power = x.take(self.var, axis=0) ** self.expo
        value = np.empty((len(self.coef), x.shape[1]), dtype=complex)
        value[...] = self.coef
        for step in self.steps:
            value[: len(step)] *= power.take(step, axis=0)
        out = np.zeros((len(self.at) + 1, x.shape[1]), dtype=complex)
        for plus, minus, rows in self.ranks:
            terms = value.take(rows, axis=0)
            out[plus] += terms
            out[minus] -= terms
        return out


class _Plan(NamedTuple):
    pi: _Sums
    dpi: _Sums


def _compile(table: EntryTable, d: int) -> _Plan:
    monomials = [((i, j), coef, powers) for (i, j), monos in table.items() for coef, powers in monos]
    return _Plan(_Sums(monomials, d), _Sums([
        ((var, i, j), coef * expo, ((var, expo - 1),) + tuple(f for f in powers if f[0] != var))
        for (i, j), coef, powers in monomials for var, expo in powers
    ], d))


# (structure, dim, split) -> its _Plan; a tuple of _Plans -> their _Jacobi groups
_PLANS: dict[tuple, _Plan | _Jacobi] = {}


def _flat(index: tuple[int, ...], d: int) -> int:
    """The flat position of ``index`` in a C-ordered (d, ..., d) array."""
    position = 0
    for i in index:
        position = position * d + i
    return position


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


STRUCTURES = {
    "c-bracket": PoissonStructure("c-bracket", C_VARS, lambda s: _c_bracket_table(s.dim)),
    "pi1-v": PoissonStructure("pi1-v", VOLTERRA_V, lambda s: _pi1_v_table(s.dim)),
    "pi3-v": PoissonStructure("pi3-v", VOLTERRA_V, lambda s: _pi3_v_table(s.dim)),
    "pi1-ab": PoissonStructure(
        "pi1-ab", FLASCHKA_AB, lambda s: _pi1_ab_table(ab_sizes(s, +1, "pi1-ab")[1])),
    "pi3-ab": PoissonStructure(
        "pi3-ab", FLASCHKA_AB, lambda s: _pi3_ab_table(ab_sizes(s, +1, "pi3-ab")[1])),
}


# ---------------------------------------------------------------------------
# residual checks
# ---------------------------------------------------------------------------

class _Jacobi(NamedTuple):
    """The live (triple, l) groups of the Jacobi sums of one structure or
    pencil at one size.

    A group is live if one of its three cyclic terms pairs a structural
    nonzero of pi with one of d pi.  Rows index the union of the parts'
    compact rows, the zero row last; ``pi_at`` and ``dpi_at`` hold the union's
    size and each part's rows within it.  Triples are sorted by their number
    of live groups, most first, and layer r holds each triple's r-th live l
    in ascending l, so it covers a prefix of the triples: a (6, k_r) array of
    the rows of pi[i,l], dpi[l,j,k], pi[j,l], dpi[l,k,i], pi[k,l], dpi[l,i,j].
    """

    pi_at: tuple
    dpi_at: tuple
    layers: tuple


def _jacobi_plan(plans: tuple, d: int) -> _Jacobi:
    """The live groups of the parts' plans, compiled once per tuple of plans."""
    if plans not in _PLANS:
        ats, rows = [], []
        for name, shape in (("pi", (d, d)), ("dpi", (d, d, d))):
            parts = [getattr(plan, name).at.tolist() for plan in plans]
            union = sorted(set().union(*parts))  # in Python, as in _Sums
            index = {p: s for s, p in enumerate(union)}
            ats.append((len(union), *(np.array([index[p] for p in part], dtype=np.intp) for part in parts)))
            row = np.full(d ** len(shape), len(union))  # the zero row where no part has an entry
            row[union] = np.arange(len(union))
            rows.append(row.reshape(shape))
        (pi_row, dpi_row), (pi_at, dpi_at) = rows, ats
        i, j, k = np.array(list(combinations(range(d), 3)), dtype=np.intp).reshape(-1, 3).T
        cyclic = ((i, j, k), (j, k, i), (k, i, j))
        live = np.zeros((len(i), d), dtype=bool)
        for a, b, c in cyclic:
            live |= (pi_row[a] < pi_at[0]) & (dpi_row[:, b, c].T < dpi_at[0])
        key = live.sum(axis=1).tolist()
        order = np.array(sorted(range(len(key)), key=lambda t: -key[t]), dtype=np.intp)  # most live groups first
        counts = live.sum(axis=1)[order]
        triple, l = np.nonzero(live[order])  # by triple, then ascending l
        rank = np.arange(len(triple)) - (np.cumsum(counts) - counts)[triple]  # place of l among its triple's
        layers = []
        for r in range(counts.max(initial=0)):
            t, lr = order[triple[rank == r]], l[rank == r]
            layers.append(np.stack([x for a, b, c in cyclic for x in (pi_row[a[t], lr], dpi_row[lr, b[t], c[t]])]))
        _PLANS[plans] = _Jacobi(pi_at, dpi_at, tuple(layers))
    return _PLANS[plans]


def jacobi_residual(structure, block: State) -> np.ndarray:
    """Max over index triples of the cyclic Jacobi sum at each state; NaN if any sum is NaN.

    Tensor derivatives are analytic (exact monomial differentiation).

    Summation order is part of the contract, because reports print the
    residual's exact bits: for every triple i < j < k the sum runs over the
    live l in ascending order (see ``_Jacobi``), adding ``pi[i,l]*dpi[l,j,k]
    + pi[j,l]*dpi[l,k,i] + pi[k,l]*dpi[l,i,j]`` (grouped left to right, a
    structural zero read from the zero row) to a running total that starts
    at zero.  A skipped group's terms each take a structural zero, so on
    finite states they add exact zeros, and the total is that of the sum
    over every l.  The one difference: a structural zero is not multiplied
    by a non-finite entry, so such an entry makes the residual NaN only
    through the live terms that read it.  Each layer of all states is one
    vector operation; a contraction over l (``einsum``, ``np.sum``, matmul)
    would reorder these additions and change the low bits.
    """
    return _jacobi((structure,), (), block)


def compatibility_residual(structure1, structure2, lam: float, block: State) -> np.ndarray:
    """Jacobi residual of the pencil pi1 + lam * pi3 at each state of
    ``block``, summed as ``jacobi_residual`` sums one structure's."""
    if structure1.chart != structure2.chart:
        raise ChartMismatch("pencil requires structures on the same chart")
    return _jacobi((structure1, structure2), (lam,), block)


# an overflow fails its record by an inf or NaN residual, not by numpy's warnings
@np.errstate(over="ignore", invalid="ignore")
def _jacobi(structures: tuple, lams: tuple, block: State) -> np.ndarray:
    """The Jacobi residual of structures[0] + lams[0] * structures[1] + ...
    at each state (see ``jacobi_residual``).  pi and d pi are the compact rows
    of the union of the structures' entries, each later structure scaled and
    added as the dense sum would take it; the first is used as it is when the
    others add no rows to its own."""
    x = block.columns
    plans = tuple(structure._plan(block) for structure in structures)
    jacobi = _jacobi_plan(plans, block.dim)
    tensors = []
    for name, (size, first, *rest) in (("pi", jacobi.pi_at), ("dpi", jacobi.dpi_at)):
        out = getattr(plans[0], name)(x)  # before the union: its terms and the union need not coexist
        if len(first) < size:  # the others add rows: scatter the first into the union's
            out, part = np.zeros((size + 1, x.shape[1]), dtype=complex), out
            out[first] = part[:-1]
        for plan, at, lam in zip(plans[1:], rest, lams):
            out[at] += lam * getattr(plan, name)(x)[:-1]
        tensors.append(out)
    pi, dpi = tensors
    total = np.zeros((jacobi.layers[0].shape[1] if jacobi.layers else 0, x.shape[1]), dtype=complex)
    for pa, da, pb, db, pc, dc in jacobi.layers:
        terms = pi.take(pa, axis=0)
        terms *= dpi.take(da, axis=0)
        term = pi.take(pb, axis=0)
        term *= dpi.take(db, axis=0)
        terms += term
        term = pi.take(pc, axis=0)
        term *= dpi.take(dc, axis=0)
        terms += term
        total[: len(pa)] += terms
    return np.max(np.abs(total), axis=0, initial=0.0)


def hamiltonian_flow_check(structure, block: State, grads, field=None) -> np.ndarray:
    """Norm of pi(s) grad H(s) - X(s) at each state s of ``block``, with the
    (N, d) rows of grad H in ``grads`` and X in the (d, N) columns ``field``,
    as a vector field returns them on ``block.columns``; X = 0 when ``field``
    is None.  One identity certifies a Casimir (X = 0), a Hamiltonian flow
    (X the vector field) and the Lenard ladder (X = pi3 grad H2, see
    ``lenard_residual``)."""
    flow = matvecs(structure(block), np.asarray(grads, dtype=complex))
    return row_norms(flow if field is None else flow - tangent_columns(block, field).T)


def lenard_residual(pair, block: State) -> np.ndarray:
    """Norm of pi3 grad H2 - pi1 grad (scale H4) of a Lenard pair (a
    ``catalog.LenardPair``) at each state of ``block``: the flow of scale H4
    under pi1 checked against X = pi3 grad H2 (``hamiltonian_flow_check``),
    whose difference is the negation, so has the same norm, bit for bit."""
    pi3 = pair.pi3(block)
    pair.pi1._plan(block)  # pi3, then pi1, check the chart and size before the row's names are read
    grads = pair.row.invariant_gradients(block, ["H2", "H4"])
    return hamiltonian_flow_check(pair.pi1, block, pair.scale * grads["H4"], matvecs(pi3, grads["H2"]).T)
