"""Coordinate maps between charts, and a generic pushforward-conjugacy check.

Every map is a pure function State -> State.  ``pushforward_residual``
verifies that a map intertwines two flows by comparing the Jacobian-pushed
source field with the target field at the image point; Jacobians are
computed by complex-aware central finite differences.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DivisionByZero, DomainError, ParityError
from .states import (
    QP,
    VOLTERRA_U,
    VOLTERRA_V,
    C_VARS,
    State,
    ab_split,
    ab_state,
    central_difference,
    v_state,
)
from .rootdata import Spectrum

#: Default central-difference step for Jacobians of O(1) states.
FD_STEP = 1e-6


def henon_map(state: State) -> State:
    """Quadratic map from the KM chain to open-Toda variables (A, B).

    A_i = -1/2 sqrt(u_{2i} u_{2i-1}), B_i = 1/2 (u_{2i-1} + u_{2i-2}) with
    u_0 = 0 and u_k = 0 past the chain end.
    """
    state.require_chart(VOLTERRA_U, "henon_map")
    u = state.array
    if np.any(u.real < 0):
        raise DomainError("henon_map requires u_i >= 0")
    n = len(u)
    nb = n // 2 + 1
    ext = np.concatenate([[0.0], u, [0.0, 0.0]])  # ext[k] = u_k, 1-based, zero padded
    A = np.array([-0.5 * np.sqrt(ext[2 * i] * ext[2 * i - 1]) for i in range(1, nb)])
    B = np.array([0.5 * (ext[2 * i - 1] + ext[2 * i - 2]) for i in range(1, nb + 1)])
    return ab_state(A, B)


def toda_jacobi(state: State) -> np.ndarray:
    """Jacobi matrix of an open-Toda (a, b) state: diag B, off-diagonal -A.

    The sign flip on the off-diagonal matches the positive entries produced
    by squaring the KM Lax matrix, since the Hénon A_i carry a minus sign.
    """
    a, b = ab_split(state, -1, "toda_jacobi")
    j = np.diag(b.astype(complex))
    for i in range(len(a)):
        j[i, i + 1] = j[i + 1, i] = -a[i]
    return j


def moser_reduce(L) -> np.ndarray:
    """Square L and keep the odd-indexed (1-based) rows and columns."""
    L = np.asarray(L, dtype=complex)
    L2 = L @ L
    return L2[::2, ::2]


def d_transform(state: State) -> State:
    """Analogue of the Hénon map for the Volterra D chain, odd n = 2m+1.

    a_1 = (i/2)(u_n - u_{n-1}); a_j = (1/2) sqrt(u_{n-2j+2} u_{n-2j+1});
    a_{m+1} = (i/2) u_1; b_1 = -(1/2)(u_n + u_{n-1} + u_{n-2});
    b_j = -(1/2)(u_{n-2j+1} + u_{n-2j}).
    """
    if state.chart not in (VOLTERRA_U, VOLTERRA_V):
        state.require_chart(VOLTERRA_V, "d_transform")
    u = state.array
    n = len(u)
    if n % 2 == 0:
        raise ParityError("d_transform requires odd dimension n = 2m+1")
    if n < 5:
        raise DimensionError("d_transform requires n >= 5")
    m = (n - 1) // 2
    prods = u[1 : n - 2] * u[: n - 3]  # u_{k+1} u_k pairs feeding the square roots
    if np.any(prods.real < 0):
        raise DomainError("d_transform requires nonnegative interior products")
    a = np.zeros(m + 1, dtype=complex)
    b = np.zeros(m, dtype=complex)
    a[0] = 0.5j * (u[n - 1] - u[n - 2])
    for j in range(2, m + 1):
        a[j - 1] = 0.5 * np.sqrt(u[n - 2 * j + 1] * u[n - 2 * j])
    a[m] = 0.5j * u[0]
    b[0] = -0.5 * (u[n - 1] + u[n - 2] + u[n - 3])
    for j in range(2, m + 1):
        b[j - 1] = -0.5 * (u[n - 2 * j] + u[n - 2 * j - 1])
    return ab_state(a, b)


def sklyanin_flaschka(state: State) -> State:
    """Flaschka-type map for the doubly boundary-perturbed chain, m degrees.

    a_1 = e^{-q_1}/sqrt(2); a_{m+1} = e^{q_m}/sqrt(2);
    a_i = (1/2) e^{(q_{i-1}-q_i)/2}; b_i = -p_i/2.
    """
    state.require_chart(QP, "sklyanin_flaschka")
    q = state.first()
    p = state.second()
    m = len(q)
    a = np.zeros(m + 1, dtype=complex)
    a[0] = np.exp(-q[0]) / np.sqrt(2)
    a[1:m] = 0.5 * np.exp(0.5 * (q[:-1] - q[1:]))
    a[m] = np.exp(q[-1]) / np.sqrt(2)
    return ab_state(a, -0.5 * p)


def toda_flaschka(state: State, spectrum: Spectrum) -> State:
    """Traditional Flaschka map: a_i = (1/2) e^{(v_i, q)/2}, b_i = -p_i/2."""
    state.require_chart(QP, "toda_flaschka")
    q = state.first()
    p = state.second()
    if spectrum.dimension != len(q):
        raise DimensionError("spectrum dimension must match the number of q's")
    a = 0.5 * np.exp(0.5 * (spectrum.matrix @ q))
    return ab_state(a, -0.5 * p)


def generalized_flaschka(state: State, spectrum: Spectrum) -> State:
    """Exponential map a_i = -e^{(v_i, q)}, b_i = (v_i, p)."""
    state.require_chart(QP, "generalized_flaschka")
    q = state.first()
    p = state.second()
    if spectrum.dimension != len(q):
        raise DimensionError("spectrum dimension must match the number of q's")
    vecs = spectrum.matrix
    return ab_state(-np.exp(vecs @ q), vecs @ p)


def c_to_v(state: State) -> State:
    """Reciprocal-product map from n+1 Cartan variables to n chain variables.

    v_1 = 1/(c_1 c_2); v_k = 2/(c_k c_{k+1}) for 2 <= k <= n-2;
    v_{n-1} = 1/(c_{n-1} c_n); v_n = 1/(c_{n-1} c_{n+1}).
    """
    state.require_chart(C_VARS, "c_to_v")
    c = state.array
    if np.any(c == 0):
        raise DivisionByZero("c_to_v requires nonzero c_j")
    n = len(c) - 1
    if n < 3:
        raise DimensionError("c_to_v requires at least 4 c variables")
    v = np.zeros(n, dtype=complex)
    v[0] = 1 / (c[0] * c[1])
    for k in range(2, n - 1):
        v[k - 1] = 2 / (c[k - 1] * c[k])
    v[n - 2] = 1 / (c[n - 2] * c[n - 1])
    v[n - 1] = 1 / (c[n - 2] * c[n])
    return v_state(v)


def c_to_v_jacobian(state: State) -> np.ndarray:
    """Closed-form Jacobian of c_to_v: d v_k / d c_i = -v_k / c_i on its factors.

    The reciprocal products amplify finite-difference error beyond the
    pushforward tolerance when several c_i sit near the sampling floor, so
    the conjugacy suite differentiates this map analytically.
    """
    c = state.array
    v = c_to_v(state).array
    n = len(c) - 1
    pairs = [(0, 1)] + [(k - 1, k) for k in range(2, n - 1)] + [(n - 2, n - 1), (n - 2, n)]
    jac = np.zeros((n, n + 1), dtype=complex)
    for k, (i, j) in enumerate(pairs):
        jac[k, i] = -v[k] / c[i]
        jac[k, j] = -v[k] / c[j]
    return jac


# ---------------------------------------------------------------------------
# pushforward conjugacy
# ---------------------------------------------------------------------------

def map_jacobian(map_fn, state: State, fd_step: float = FD_STEP) -> np.ndarray:
    """Jacobian of a State -> State map by central differences, complex-aware."""
    jac = central_difference(lambda s: map_fn(s).array, state, fd_step).T
    # C order: matmul sums a transposed view in another order, changing residual bits
    return np.ascontiguousarray(jac)


def pushforward_residual(map_fn, source_field, target_field, state: State,
                         fd_step: float = FD_STEP, jacobian=None) -> float:
    """Norm of J_map(s) . source_field(s) - target_field(map(s)).

    The Jacobian comes from central differences with step ``fd_step`` unless
    a closed-form ``jacobian`` callable is supplied.
    """
    jac = jacobian(state) if jacobian else map_jacobian(map_fn, state, fd_step)
    pushed = jac @ np.asarray(source_field(state), dtype=complex)
    direct = np.asarray(target_field(map_fn(state)), dtype=complex)
    return float(np.linalg.norm(pushed - direct))
