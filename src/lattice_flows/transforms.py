"""Coordinate maps between charts, and a generic pushforward-conjugacy check.

Every map is one kernel over a block of states, ``henon_block(state, rows)``
and the rest: it maps each row of ``rows``, an (N, d) block of coordinates
in the chart of ``state`` (``states.coordinate_columns``), checks chart,
size and domain once per block, and returns a zero State of the image chart
and split with the (N, d') image rows.  One state is a block of one row.
``pushforward_residual`` verifies that a map intertwines two flows by
comparing the Jacobian-pushed source field with the target field at the
image point; Jacobians are complex-aware central differences at step
``FD_STEP`` from one kernel call on a block of bumps, unless a closed form
is supplied.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DivisionByZero, DomainError, ParityError
from .states import (QP, VOLTERRA_U, VOLTERRA_V, C_VARS, State, ab_state, complex_product, coordinate_columns, matvecs,
                     row_norms, v_state)
from .rootdata import Spectrum
from .systems import c_family_data

#: Central-difference step for Jacobians of O(1) states.
FD_STEP = 1e-6


def _ab_image(a, b) -> tuple[State, np.ndarray]:
    """A kernel's result for (a, b) images given as (len(a), N) and (len(b), N) columns."""
    return ab_state(np.zeros(len(a)), np.zeros(len(b))), np.concatenate([a, b]).T


def henon_block(state: State, rows) -> tuple[State, np.ndarray]:
    """Quadratic map from the KM chain to open-Toda variables (A, B).

    A_i = -1/2 sqrt(u_{2i} u_{2i-1}), B_i = 1/2 (u_{2i-1} + u_{2i-2}) with
    u_0 = 0 and u_k = 0 past the chain end.  Moser's reduction: the odd
    (1-based) rows and columns of the squared km L are toda_lax's L at (-A, B).
    """
    state.require_chart(VOLTERRA_U, "henon_map")
    u = coordinate_columns(state, rows)
    if np.any(u.real < 0):
        raise DomainError("henon_map requires u_i >= 0")
    n, count = u.shape
    nb = n // 2 + 1
    ext = np.concatenate([np.zeros((1, count)), u, np.zeros((2, count))])  # ext[k] = u_k, 1-based, zero padded
    A = -0.5 * np.sqrt(complex_product(ext[2 : 2 * nb - 1 : 2], ext[1 : 2 * nb - 2 : 2]))
    B = 0.5 * (ext[1 : 2 * nb : 2] + ext[0 : 2 * nb - 1 : 2])
    return _ab_image(A, B)


def d_transform_block(state: State, rows) -> tuple[State, np.ndarray]:
    """Analogue of the Hénon map for the Volterra D chain, odd n = 2m+1.

    a_1 = (i/2)(u_n - u_{n-1}); a_j = (1/2) sqrt(u_{n-2j+2} u_{n-2j+1});
    a_{m+1} = (i/2) u_1; b_1 = -(1/2)(u_n + u_{n-1} + u_{n-2});
    b_j = -(1/2)(u_{n-2j+1} + u_{n-2j}).
    """
    if state.chart not in (VOLTERRA_U, VOLTERRA_V):
        state.require_chart(VOLTERRA_V, "d_transform")
    u = coordinate_columns(state, rows)
    n = len(u)
    if n % 2 == 0:
        raise ParityError("d_transform requires odd dimension n = 2m+1")
    if n < 5:
        raise DimensionError("d_transform requires n >= 5")
    prods = complex_product(u[1 : n - 2], u[: n - 3])  # u_{k+1} u_k pairs feeding the square roots
    if np.any(prods.real < 0):
        raise DomainError("d_transform requires nonnegative interior products")
    # rows j = 2..m take the pairs and sums from u_{n-2} down to u_1
    a = np.concatenate([0.5j * (u[-1:] - u[-2:-1]), 0.5 * np.sqrt(prods[n - 4 : 0 : -2]), 0.5j * u[:1]])
    b = -0.5 * np.concatenate([u[-1:] + u[-2:-1] + u[-3:-2], u[n - 4 : 0 : -2] + u[n - 5 :: -2]])
    return _ab_image(a, b)


def sklyanin_flaschka_block(state: State, rows) -> tuple[State, np.ndarray]:
    """Flaschka-type map for the doubly boundary-perturbed chain, m degrees.

    a_1 = e^{-q_1}/sqrt(2); a_{m+1} = e^{q_m}/sqrt(2);
    a_i = (1/2) e^{(q_{i-1}-q_i)/2}; b_i = -p_i/2.
    """
    state.require_chart(QP, "sklyanin_flaschka")
    if state.split == 0:
        raise DimensionError("sklyanin_flaschka needs at least one q")
    x = coordinate_columns(state, rows)
    q, p = x[: state.split], x[state.split :]
    inner = 0.5 * np.exp(0.5 * (q[:-1] - q[1:]))
    a = np.concatenate([np.exp(-q[:1]) / np.sqrt(2), inner, np.exp(q[-1:]) / np.sqrt(2)])
    return _ab_image(a, -0.5 * p)


def _qp_with_spectrum(spectrum: Spectrum, state: State, rows, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The q and p columns of a block whose q's must match the spectrum's dimension."""
    state.require_chart(QP, what)
    if spectrum.dimension != state.split:
        raise DimensionError("spectrum dimension must match the number of q's")
    x = coordinate_columns(state, rows)
    return x[: state.split], x[state.split :]


def _pairings(vecs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """(v_i, x) for each row v_i of a real spectrum matrix and each column
    of x, complex, from two real products.  A real-by-complex product would
    run a complex BLAS kernel, after which glibc's complex exp can run ten
    or more times slower on x86-64 until other AVX code runs.  The verify
    suites' spectra (the open chain's and Sklyanin's) have at most two
    nonzero entries per vector, so any order of summation gives their bits."""
    out = np.empty((len(vecs), x.shape[1]), dtype=complex)
    out.real = vecs @ x.real
    out.imag = vecs @ x.imag
    return out


def toda_flaschka_block(spectrum: Spectrum, state: State, rows) -> tuple[State, np.ndarray]:
    """Traditional Flaschka map: a_i = (1/2) e^{(v_i, q)/2}, b_i = -p_i/2."""
    q, p = _qp_with_spectrum(spectrum, state, rows, "toda_flaschka")
    return _ab_image(0.5 * np.exp(0.5 * _pairings(spectrum.matrix, q)), -0.5 * p)


def generalized_flaschka_block(spectrum: Spectrum, state: State, rows) -> tuple[State, np.ndarray]:
    """Exponential map a_i = -e^{(v_i, q)}, b_i = (v_i, p)."""
    q, p = _qp_with_spectrum(spectrum, state, rows, "generalized_flaschka")
    vecs = spectrum.matrix
    return _ab_image(-np.exp(_pairings(vecs, q)), _pairings(vecs, p))


def c_to_v_block(state: State, rows) -> tuple[State, np.ndarray]:
    """Reciprocal-product map from n+1 Cartan variables to n chain variables.

    v_1 = 1/(c_1 c_2); v_k = 2/(c_k c_{k+1}) for 2 <= k <= n-2;
    v_{n-1} = 1/(c_{n-1} c_n); v_n = 1/(c_{n-1} c_{n+1}): v_k's factors are
    the k-th edge of the D diagram on n+1 vertices (``c_family_data``).
    """
    state.require_chart(C_VARS, "c_to_v")
    c = coordinate_columns(state, rows)
    if np.any(c == 0):
        raise DivisionByZero("c_to_v requires nonzero c_j")
    n = len(c) - 1
    if n < 3:
        raise DimensionError("c_to_v requires at least 4 c variables")
    i, j = c_family_data("D", n + 1)[0].T
    v = np.array([1.0] + [2.0] * (n - 3) + [1.0, 1.0])[:, None] / complex_product(c[i], c[j])
    return v_state(np.zeros(n)), v.T


def c_to_v_jacobian(state: State, rows, image) -> np.ndarray:
    """Closed-form Jacobians of c_to_v, d v_k / d c_i = -v_k / c_i on its
    factors, at every row of ``rows`` whose image rows are ``image``
    (``c_to_v_block``'s); a C-ordered (N, n, n+1) stack.

    The reciprocal products amplify finite-difference error beyond the
    pushforward tolerance when several c_i sit near the sampling floor, so
    the conjugacy suite differentiates this map analytically.
    """
    c = coordinate_columns(state, rows)
    v = image.T
    n = len(v)
    (i, j), k = c_family_data("D", n + 1)[0].T, np.arange(n)
    jac = np.zeros((c.shape[1], n, n + 1), dtype=complex)
    jac[:, k, i] = (-v / c[i]).T
    jac[:, k, j] = (-v / c[j]).T
    return jac


# ---------------------------------------------------------------------------
# pushforward conjugacy
# ---------------------------------------------------------------------------

def map_jacobian(map_fn, state: State, rows) -> np.ndarray:
    """Jacobians of a map kernel at every row of ``rows``, (N, d) in the chart
    of ``state``, by complex-aware central differences: a C-ordered (N, d', d)
    stack, since matmul sums a transposed view in another order.

    One kernel call maps all 2·d·N bumped rows x ± FD_STEP e_k (each row plus
    a whole bump vector, as for one state), so a state's bits do not depend on its block.
    """
    x = coordinate_columns(state, rows).T
    count, d = x.shape
    bumps = FD_STEP * np.eye(d)[:, None]  # [k, 0, j] = h e_k
    _, image = map_fn(state, np.stack([x + bumps, x - bumps]).reshape(2 * d * count, d))
    image = image.reshape(2, d, count, image.shape[1])
    return np.ascontiguousarray(((image[0] - image[1]) / (2 * FD_STEP)).transpose(1, 2, 0))


def pushforward_residual(map_fn, source_field, target_field, state: State, rows, jacobian=None) -> np.ndarray:
    """Norm of J_map(s) . source_field(s) - target_field(map(s)) at every row
    s of ``rows``, (N, d) in the chart of ``state``; one value per row.

    ``map_fn`` is a map kernel (``henon_block`` and the rest), called on the
    block once.  The Jacobians are ``map_jacobian``'s central differences
    unless a closed form ``jacobian(state, rows, image rows)`` is supplied.
    Each field is called once, on the block's columns (``state``'s, or the
    image's with the map's zero State as template); the matrix-vector
    products and the norms are stacked, one per row.
    """
    zero, image = map_fn(state, rows)
    jacs = jacobian(state, rows, image) if jacobian else map_jacobian(map_fn, state, rows)
    pushed = matvecs(jacs, source_field(state, coordinate_columns(state, rows)).T)
    return row_norms(pushed - target_field(zero, image.T).T)
