"""Vector fields and Hamiltonians for every lattice, in their native charts.

Formulas are written with 1-based indices in comments/docstrings and 0-based
numpy indexing in code.  All fields are pure functions State -> ndarray.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DivisionByZero, DomainError, UnsupportedDimension
from .rootdata import Spectrum, gram_matrix
from .states import C_VARS, FLASCHKA_AB, QP, VOLTERRA_U, VOLTERRA_V, State, ab_split


# ---------------------------------------------------------------------------
# Volterra chains in u variables
# ---------------------------------------------------------------------------

def km_field(state: State) -> np.ndarray:
    """Kac-van Moerbeke chain: du_i/dt = u_i (u_{i+1} - u_{i-1}), u_0 = u_{n+1} = 0."""
    state.require_chart(VOLTERRA_U, "km_field")
    u = state.array
    up = np.concatenate([u[1:], [0.0]])
    um = np.concatenate([[0.0], u[:-1]])
    return u * (up - um)


_BV_MINIMUM = {"A": 2, "B": 3, "C": 3, "D": 5}


def bv_field(family: str, state: State) -> np.ndarray:
    """Bogoyavlensky-Volterra chain of the given classical family (A, B, C, D).

    Implements the per-family equations verbatim; the D family below n = 5
    is rejected because its boundary rules collide there.
    """
    state.require_chart(VOLTERRA_U, "bv_field")
    family = family.upper()
    if family not in _BV_MINIMUM:
        raise ValueError(f"unknown family {family!r}")
    u = state.array
    n = len(u)
    if n < _BV_MINIMUM[family]:
        raise UnsupportedDimension(f"family {family} requires at least {_BV_MINIMUM[family]} variables")
    du = np.zeros(n, dtype=complex)
    if family == "A":
        # identical to the KM chain with open ends
        return km_field(state)
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


def vd_field(state: State) -> np.ndarray:
    """Volterra D chain in the rescaled v variables, n >= 4."""
    state.require_chart(VOLTERRA_V, "vd_field")
    v = state.array
    n = len(v)
    if n < 4:
        raise UnsupportedDimension("the v-variable Volterra D chain requires n >= 4")
    dv = np.zeros(n, dtype=complex)
    dv[0] = v[0] * (v[0] + v[1])
    for k in range(1, n - 3):
        dv[k] = v[k] * (v[k + 1] - v[k - 1])
    dv[n - 3] = v[n - 3] * (v[n - 1] + v[n - 2] - v[n - 4])
    dv[n - 2] = v[n - 2] * (v[n - 1] - v[n - 2] - v[n - 3])
    dv[n - 1] = -v[n - 1] * (v[n - 1] - v[n - 2] + v[n - 3])
    return dv


def u_to_v(state: State) -> State:
    """Linear rescaling taking the D-family u variables to the v variables.

    v_1 = u_1, v_k = 2 u_k for 2 <= k <= n-2, v_{n-1} = u_{n-1}, v_n = u_n.
    """
    state.require_chart(VOLTERRA_U, "u_to_v")
    u = state.array
    n = len(u)
    if n < 4:
        raise UnsupportedDimension("u_to_v requires n >= 4")
    v = u.copy()
    v[1 : n - 2] *= 2
    return State(VOLTERRA_V, tuple(v))


# ---------------------------------------------------------------------------
# Cartan-variable form of the Volterra chains
# ---------------------------------------------------------------------------

def c_family_data(family: str, n_c: int):
    """Edge list and k coefficients of the family's diagram on n_c vertices.

    Edges are returned as 0-based (i, j) pairs with i < j; the corresponding
    structure constant is +1 for (i, j) and -1 for (j, i).
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
        return edges, k
    if n_c < 2:
        raise UnsupportedDimension("chain families require at least 2 c variables")
    edges = [(i, i + 1) for i in range(n_c - 1)]
    if family == "A":
        k = np.ones(n_c)
    elif family == "B":
        k = np.full(n_c, 2.0)
        k[0] = 1.0
    else:  # C
        k = np.full(n_c, 2.0)
        k[-1] = 1.0
    return edges, k


def c_field(family: str, state: State) -> np.ndarray:
    """Cartan-variable chain: dc_i/dt = -sum_j k_j c_ij / c_j."""
    state.require_chart(C_VARS, "c_field")
    c = state.array
    if np.any(c == 0):
        raise DivisionByZero("c_field requires all c_j nonzero")
    edges, k = c_family_data(family, len(c))
    dc = np.zeros(len(c), dtype=complex)
    for i, j in edges:
        # c_ij = +1 contributes -k_j/c_j to dc_i; c_ji = -1 contributes +k_i/c_i to dc_j
        dc[i] -= k[j] / c[j]
        dc[j] += k[i] / c[i]
    return dc


# ---------------------------------------------------------------------------
# Flaschka-type (a, b) systems
# ---------------------------------------------------------------------------

def ab_field(state: State) -> np.ndarray:
    """Boundary-perturbed chain in (a, b): m+1 a's and m b's.

    da_1 = 2 a_1 b_1; da_i = a_i (b_i - b_{i-1}) for 2 <= i <= m;
    da_{m+1} = -2 a_{m+1} b_m; db_i = 2 (a_{i+1}^2 - a_i^2).
    """
    a, b = ab_split(state, +1, "ab_field")
    m = len(b)
    if m < 1:
        raise DimensionError("ab_field needs m >= 1")
    da = np.zeros(m + 1, dtype=complex)
    da[0] = 2 * a[0] * b[0]
    for i in range(1, m):
        da[i] = a[i] * (b[i] - b[i - 1])
    da[m] = -2 * a[m] * b[m - 1]
    db = 2 * (a[1:] ** 2 - a[:-1] ** 2)
    return np.concatenate([da, db])


def toda_ab_field(state: State) -> np.ndarray:
    """Open Toda chain in Flaschka variables: n b's and n-1 a's.

    da_i = a_i (b_{i+1} - b_i); db_i = 2 (a_i^2 - a_{i-1}^2) with a_0 = a_n = 0.
    """
    a, b = ab_split(state, -1, "toda_ab_field")
    if len(b) < 2:
        raise DimensionError("toda_ab_field needs n >= 2")
    da = a * (b[1:] - b[:-1])
    asq = np.concatenate([[0.0], a**2, [0.0]])
    db = 2 * (asq[1:] - asq[:-1])
    return np.concatenate([da, db])


def spectrum_field(spectrum: Spectrum, state: State) -> np.ndarray:
    """Polynomial system attached to a spectrum: da_k = a_k b_k, db_k = sum_i M_ki a_i."""
    state.require_chart(FLASCHKA_AB, "spectrum_field")
    a = state.first()
    b = state.second()
    if len(a) != len(b) or len(a) != spectrum.count:
        raise DimensionError(
            f"spectrum with {spectrum.count} vectors needs {spectrum.count} a's and b's"
        )
    m = gram_matrix(spectrum)
    return np.concatenate([a * b, m @ a])


def integrals_F1_F2(state: State, lam) -> tuple[complex, complex]:
    """The two integrals attached to a null combination lambda of the spectrum.

    F1 = sum_i lambda_i b_i and F2 = prod_i a_i^{lambda_i}; complex powers use
    the principal branch when a_i is not a positive real.
    """
    f1, f2 = integrals_F1_F2_columns(state, lam, state.array[None])
    return f1[0], f2[0]


def integrals_F1_F2_columns(state: State, lam, rows) -> tuple[list[complex], list[complex]]:
    """F1 and F2 at each row of an (N, d) block of coordinates in the chart of ``state``."""
    state.require_chart(FLASCHKA_AB, "integrals_F1_F2")
    rows = np.asarray(rows)
    a, b = rows[:, : state.split], rows[:, state.split :]
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

def hamiltonian_eval(system: str, state: State, params=None) -> complex:
    """Evaluate one of the three (q, p) Hamiltonians: toda | sklyanin | sklyanin_full."""
    return hamiltonian_column(system, state, state.array[None], params)[0]


def hamiltonian_column(system: str, state: State, rows, params=None) -> list[complex]:
    """hamiltonian_eval at each row of an (N, 2n) block of (q, p) coordinates."""
    state.require_chart(QP, "hamiltonian_eval")
    rows = np.asarray(rows)
    q, p = rows[:, : state.split], rows[:, state.split :]
    n = q.shape[1]
    kin = 0.5 * np.sum(p**2, axis=1)
    chain = np.sum(np.exp(q[:, :-1] - q[:, 1:]), axis=1) if n > 1 else 0.0
    if system == "toda":
        return (kin + chain).tolist()
    if system == "sklyanin":
        return (kin + chain + np.exp(-2 * q[:, 0]) + np.exp(2 * q[:, -1])).tolist()
    if system == "sklyanin_full":
        a1, b1, an, bn = _sklyanin_full_params(params)
        ends = (
            a1 * np.exp(q[:, 0])
            + b1 * np.exp(2 * q[:, 0])
            + an * np.exp(-q[:, -1])
            + bn * np.exp(-2 * q[:, -1])
        )
        return (kin + chain + ends).tolist()
    raise ValueError(f"unknown Hamiltonian system {system!r}")


def _sklyanin_full_params(params):
    defaults = {"alpha1": 1.0, "beta1": 1.0, "alphan": 1.0, "betan": 1.0}
    if params:
        defaults.update(params)
    return defaults["alpha1"], defaults["beta1"], defaults["alphan"], defaults["betan"]


def qp_field(system: str, state: State, params=None) -> np.ndarray:
    """Hamilton's equations (dq, dp) = (dH/dp, -dH/dq) with analytic partials."""
    state.require_chart(QP, "qp_field")
    q = state.first()
    p = state.second()
    n = len(q)
    # dH/dq from the nearest-neighbour chain, shared by all three systems
    expo = np.exp(q[:-1] - q[1:]) if n > 1 else np.zeros(0)
    dh_dq = np.zeros(n, dtype=complex)
    dh_dq[:-1] += expo
    dh_dq[1:] -= expo
    if system == "toda":
        pass
    elif system == "sklyanin":
        dh_dq[0] += -2 * np.exp(-2 * q[0])
        dh_dq[-1] += 2 * np.exp(2 * q[-1])
    elif system == "sklyanin_full":
        a1, b1, an, bn = _sklyanin_full_params(params)
        dh_dq[0] += a1 * np.exp(q[0]) + 2 * b1 * np.exp(2 * q[0])
        dh_dq[-1] += -an * np.exp(-q[-1]) - 2 * bn * np.exp(-2 * q[-1])
    else:
        raise ValueError(f"unknown Hamiltonian system {system!r}")
    return np.concatenate([p, -dh_dq])
