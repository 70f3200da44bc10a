"""Vector fields and Hamiltonians for every lattice, in their native charts; the
(q, p) chains' potentials, and so their spectra, are ``rootdata.QP_WALLS``.

Formulas are written with 1-based indices in comments/docstrings and 0-based
numpy indexing in code.  Every field takes a State and raw coordinates
``y`` in its chart: one (d,) row, or a (d, N) block whose columns are N
points (``State.columns``).  It returns the velocity in the same shape,
complex when ``y`` is.  Chart, split and size checks read only the State's
``chart``, ``split`` and ``dim``, and checks on values read ``y``, so the
integrator builds no State per stage; the integrals take one block.

A block runs each formula once on rows of N values: allocations take
``y.shape`` and boundary zeros are zero rows, so a (d,) row runs the
operations it always has.  On a real block every column gets the bits of
its own row call.  On a complex block a product of two complex coordinates
may round otherwise, because numpy's array complex product may fuse a
multiply and an add where a scalar product does not.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionError, DivisionByZero, DomainError, UnsupportedDimension
from .rootdata import QP_WALLS, Spectrum
from .states import C_VARS, FLASCHKA_AB, QP, VOLTERRA_U, VOLTERRA_V, State, ab_sizes


# ---------------------------------------------------------------------------
# Volterra chains in u variables
# ---------------------------------------------------------------------------

def km_field(state: State, u) -> np.ndarray:
    """Kac-van Moerbeke chain: du_i/dt = u_i (u_{i+1} - u_{i-1}), u_0 = u_{n+1} = 0."""
    state.require_chart(VOLTERRA_U, "km_field")
    if state.dim < 1:
        raise DimensionError("the km field needs n >= 1")
    zero = np.zeros((1,) + u.shape[1:])
    up = np.concatenate([u[1:], zero])
    um = np.concatenate([zero, u[:-1]])
    return u * (up - um)


_BV_MINIMUM = {"A": 2, "B": 3, "C": 3, "D": 5}


def bv_field(family: str, state: State, u) -> np.ndarray:
    """Bogoyavlensky-Volterra chain of the given classical family (A, B, C, D).

    Implements the per-family equations verbatim; the D family below n = 5
    is rejected because its boundary rules collide there.
    """
    state.require_chart(VOLTERRA_U, "bv_field")
    family = family.upper()
    if family not in _BV_MINIMUM:
        raise ValueError(f"unknown family {family!r}")
    n = state.dim
    if n < _BV_MINIMUM[family]:
        raise UnsupportedDimension(f"family {family} requires at least {_BV_MINIMUM[family]} variables")
    du = np.zeros(u.shape, dtype=complex)
    if family == "A":
        # identical to the KM chain with open ends
        return km_field(state, u)
    if family == "B":
        du[0] = u[0] * (u[0] + 2 * u[1])
        du[1] = u[1] * (2 * u[2] - u[0])
        for i in range(2, n - 1):
            du[i] = 2 * u[i] * (u[i + 1] - u[i - 1])
        du[n - 1] = -2 * u[n - 2] * u[n - 1]
        return du
    if family == "C":
        du[0] = 2 * u[0] * u[1]
        for i in range(1, n - 2):
            du[i] = 2 * u[i] * (u[i + 1] - u[i - 1])
        du[n - 2] = u[n - 2] * (u[n - 1] - 2 * u[n - 3])
        du[n - 1] = -u[n - 1] * (u[n - 1] + 2 * u[n - 2])
        return du
    # D family
    du[0] = u[0] * (2 * u[1] + u[0])
    du[1] = u[1] * (2 * u[2] - u[0])
    for i in range(2, n - 3):
        du[i] = 2 * u[i] * (u[i + 1] - u[i - 1])
    du[n - 3] = u[n - 3] * (u[n - 1] + u[n - 2] - 2 * u[n - 4])
    du[n - 2] = u[n - 2] * (u[n - 1] - u[n - 2] - 2 * u[n - 3])
    du[n - 1] = -u[n - 1] * (u[n - 1] - u[n - 2] + 2 * u[n - 3])
    return du


def vd_field(state: State, v) -> np.ndarray:
    """Volterra D chain in the rescaled v variables, n >= 4."""
    state.require_chart(VOLTERRA_V, "vd_field")
    n = state.dim
    if n < 4:
        raise UnsupportedDimension("the v-variable Volterra D chain requires n >= 4")
    dv = np.zeros(v.shape, dtype=complex)
    dv[0] = v[0] * (v[0] + v[1])
    for k in range(1, n - 3):
        dv[k] = v[k] * (v[k + 1] - v[k - 1])
    dv[n - 3] = v[n - 3] * (v[n - 1] + v[n - 2] - v[n - 4])
    dv[n - 2] = v[n - 2] * (v[n - 1] - v[n - 2] - v[n - 3])
    dv[n - 1] = -v[n - 1] * (v[n - 1] - v[n - 2] + v[n - 3])
    return dv


# ---------------------------------------------------------------------------
# Cartan-variable form of the Volterra chains
# ---------------------------------------------------------------------------

@functools.cache
def c_family_data(family: str, n_c: int) -> tuple[np.ndarray, np.ndarray]:
    """Edge list and k coefficients of the family's diagram on n_c vertices.

    Edges are returned as 0-based (i, j) rows of an (E, 2) array, with i < j;
    the corresponding structure constant is +1 for (i, j) and -1 for (j, i).
    Both arrays are read-only and built once per (family, n_c).
    """
    family = family.upper()
    if family not in ("A", "B", "C", "D"):
        raise ValueError(f"unknown family {family!r}")
    if family == "D":
        if n_c < 4:
            raise UnsupportedDimension("D family requires at least 4 c variables")
        edges = [(i, i + 1) for i in range(n_c - 2)] + [(n_c - 3, n_c - 1)]
        k = np.full(n_c, 2.0)
        k[0] = k[n_c - 2] = k[n_c - 1] = 1.0
    else:
        if n_c < 2:
            raise UnsupportedDimension("chain families require at least 2 c variables")
        edges = [(i, i + 1) for i in range(n_c - 1)]
        k = np.full(n_c, 1.0 if family == "A" else 2.0)
        if family == "B":
            k[0] = 1.0
        elif family == "C":
            k[-1] = 1.0
    edges = np.array(edges, dtype=np.intp)
    edges.flags.writeable = k.flags.writeable = False
    return edges, k


def c_field(family: str, state: State, c) -> np.ndarray:
    """Cartan-variable chain: dc_i/dt = -sum_j k_j c_ij / c_j."""
    state.require_chart(C_VARS, "c_field")
    if (c == 0).any():
        raise DivisionByZero("c_field requires all c_j nonzero")
    edges, k = c_family_data(family, state.dim)
    q = (k if c.ndim == 1 else k[:, None]) / c  # k_j / c_j, once per vertex
    dc = np.zeros(c.shape, dtype=complex)
    for i, j in edges.tolist():
        # c_ij = +1 contributes -k_j/c_j to dc_i; c_ji = -1 contributes +k_i/c_i to dc_j
        dc[i] -= q[j]
        dc[j] += q[i]
    return dc


# ---------------------------------------------------------------------------
# Flaschka-type (a, b) systems
# ---------------------------------------------------------------------------

def ab_field(state: State, y) -> np.ndarray:
    """Boundary-perturbed chain in (a, b): m+1 a's and m b's.

    da_1 = 2 a_1 b_1; da_i = a_i (b_i - b_{i-1}) for 2 <= i <= m;
    da_{m+1} = -2 a_{m+1} b_m; db_i = 2 (a_{i+1}^2 - a_i^2).

    da and db go into one complex array; db is formed in the dtype of ``y``
    before it is cast, as a concatenation would cast it.
    """
    split, m = ab_sizes(state, +1, "ab_field")
    if m < 1:
        raise DimensionError("ab_field needs m >= 1")
    a, b = y[:split], y[split:]
    out = np.empty(y.shape, dtype=complex)
    out[0] = 2 * a[0] * b[0]
    for i in range(1, m):
        out[i] = a[i] * (b[i] - b[i - 1])
    out[m] = -2 * a[m] * b[m - 1]
    asq = a**2
    out[split:] = 2 * (asq[1:] - asq[:-1])
    return out


def toda_ab_field(state: State, y) -> np.ndarray:
    """Open Toda chain in Flaschka variables: n b's and n-1 a's.

    da_i = a_i (b_{i+1} - b_i); db_i = 2 (a_i^2 - a_{i-1}^2) with a_0 = a_n = 0.
    """
    split, n = ab_sizes(state, -1, "toda_ab_field")
    if n < 2:
        raise DimensionError("toda_ab_field needs n >= 2")
    a, b = y[:split], y[split:]
    da = a * (b[1:] - b[:-1])
    zero = np.zeros((1,) + a.shape[1:])
    asq = np.concatenate([zero, a**2, zero])
    db = 2 * (asq[1:] - asq[:-1])
    return np.concatenate([da, db])


def spectrum_field(spectrum: Spectrum, state: State, y) -> np.ndarray:
    """Polynomial system attached to a spectrum: da_k = a_k b_k, db_k = sum_i M_ki a_i."""
    state.require_chart(FLASCHKA_AB, "spectrum_field")
    split = state.split
    if split != state.dim - split or split != spectrum.count:
        raise DimensionError(
            f"spectrum with {spectrum.count} vectors needs {spectrum.count} a's and b's"
        )
    a, b = y[:split], y[split:]
    # one matrix-vector product per column: a matrix product sums in another order
    return np.concatenate([a * b, (spectrum.gram @ a.T[..., None])[..., 0].T])


def integrals_F1_F2_columns(block: State, lam) -> tuple[list[complex], list[complex]]:
    """The two integrals attached to a null combination lambda of the spectrum,
    at each state of ``block``.

    F1 = sum_i lambda_i b_i and F2 = prod_i a_i^{lambda_i}; complex powers use
    the principal branch when a_i is not a positive real.
    """
    block.require_chart(FLASCHKA_AB, "integrals_F1_F2_columns")
    a, b = block.rows[:, : block.split], block.rows[:, block.split :]
    lam = np.asarray(lam, dtype=float)
    if len(lam) != a.shape[1] or a.shape[1] != b.shape[1]:
        raise DimensionError(f"lambda length {len(lam)} incompatible with state")
    if np.any((lam < 0) & (a == 0)):
        raise DomainError("zero coordinate raised to a negative power")
    # one BLAS dot per row: a batched matrix-vector product sums in another order
    f1 = [complex(np.dot(lam, row)) for row in b]
    f2 = np.prod(a**lam, axis=1).tolist()
    return f1, f2


# ---------------------------------------------------------------------------
# Hamiltonians in (q, p)
# ---------------------------------------------------------------------------

def hamiltonian_eval(system: str, state: State) -> complex:
    """Evaluate one of the three (q, p) Hamiltonians: toda | sklyanin | sklyanin_full."""
    return hamiltonian_column(system, state)[0]


def hamiltonian_column(system: str, block: State) -> list[complex]:
    """hamiltonian_eval at each state of a block of (q, p) states: the kinetic
    and chain terms, then each group of ``rootdata.QP_WALLS[system]`` in turn."""
    block.require_chart(QP, "hamiltonian_eval")
    groups = _walls(system, block.split, "Hamiltonian")
    q, p = block.rows[:, : block.split], block.rows[:, block.split :]
    chain = np.sum(np.exp(q[:, :-1] - q[:, 1:]), axis=1) if q.shape[1] > 1 else 0.0
    h = 0.5 * np.sum(p**2, axis=1) + chain
    for group in groups:
        terms = [np.exp(w * q[:, end]) for end, ws in group for w in ws]
        h = h + sum(terms[1:], terms[0])
    return h.tolist()


def _walls(system: str, n: int, what: str):
    """The wall groups of a chain of n q's, which needs one: the walls act on q_1 and q_n,
    and an empty toda chain has no coordinate to move, so its H = 0 certifies nothing."""
    if n == 0:
        raise DimensionError(f"the {system} {what} needs at least one q")
    if system not in QP_WALLS:
        raise ValueError(f"unknown Hamiltonian system {system!r}")
    return QP_WALLS[system]


def qp_field(system: str, state: State, y) -> np.ndarray:
    """Hamilton's equations (dq, dp) = (dH/dp, -dH/dq): the chain's partials, then each end's walls'."""
    state.require_chart(QP, "qp_field")
    n = state.split
    groups = _walls(system, n, "field")
    q, p = y[:n], y[n:]
    expo = np.exp(q[:-1] - q[1:])
    dh_dq = np.zeros(q.shape, dtype=complex)
    dh_dq[:-1] += expo
    dh_dq[1:] -= expo
    for group in groups:
        for end, ws in group:
            for i, w in enumerate(ws):  # summed in a loop: a list and sum() cost more than the exps
                term = w * np.exp(w * q[end])
                total = term if i == 0 else total + term
            dh_dq[end] += total
    return np.concatenate([p, -dh_dq])
