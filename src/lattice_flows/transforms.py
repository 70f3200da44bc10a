"""Coordinate maps between charts, and a generic pushforward-conjugacy check.

Every map is one kernel over a block of states, ``henon_block(block)`` and
the rest: it checks chart, size and domain once per block and returns the
image block, a State of the image chart; a lone state is a block of one row.
Given (d, N) ``tangents``, one column per state as a field gives them, it
returns (image, J dx), the (d', N) columns of their exact pushforwards (its
JVP) built from the values its formula holds.  ``pushforward_residual``
checks that a map intertwines two flows.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, DivisionByZero, DomainError, ParityError
from .states import (FLASCHKA_AB, QP, VOLTERRA_U, VOLTERRA_V, C_VARS, State, complex_product, row_norms,
                     tangent_columns)
from .rootdata import Spectrum
from .systems import c_family_data


def _ab_image(a, b, jvp=None):
    """A kernel's result for (a, b) images given as (len(a), N) and (len(b), N)
    columns: the image block, and the JVP of the (da, db) columns ``jvp`` if given."""
    image = State(FLASCHKA_AB, np.concatenate([a, b]).T, len(a))
    return image if jvp is None else (image, np.concatenate(jvp))


def henon_block(block: State, tangents=None):
    """Quadratic map from the KM chain to open-Toda variables (A, B).

    A_i = -1/2 sqrt(u_{2i} u_{2i-1}), B_i = 1/2 (u_{2i-1} + u_{2i-2}) with
    u_0 = 0 and u_k = 0 past the chain end.  Moser's reduction: the odd
    (1-based) rows and columns of the squared km L are toda_lax's L at (-A, B).
    """
    block.require_chart(VOLTERRA_U, "henon_map")
    u = block.columns
    if np.any(u.real < 0):
        raise DomainError("henon_map requires u_i >= 0")
    n, count = u.shape
    nb = n // 2 + 1

    def parts(x):  # the factors x_{2i} and x_{2i-1} of A_i, and B, at x = u or du
        ext = np.concatenate([np.zeros((1, count)), x, np.zeros((2, count))])  # ext[k] = x_k, 1-based, zero padded
        return ext[2 : 2 * nb - 1 : 2], ext[1 : 2 * nb - 2 : 2], 0.5 * (ext[1 : 2 * nb : 2] + ext[0 : 2 * nb - 1 : 2])
    even, odd, B = parts(u)
    A = -0.5 * np.sqrt(complex_product(even, odd))
    if tangents is None:
        return _ab_image(A, B)
    d_even, d_odd, dB = parts(tangent_columns(block, tangents))
    return _ab_image(A, B, (complex_product(0.5 * A, d_even / even + d_odd / odd), dB))  # (A/2)(du/u + du'/u')


def d_transform_block(block: State, tangents=None):
    """Analogue of the Hénon map for the Volterra D chain, odd n = 2m+1, on
    vd's v states; u_k below is the coordinate v_k.

    a_1 = (i/2)(u_n - u_{n-1}); a_j = (1/2) sqrt(u_{n-2j+2} u_{n-2j+1});
    a_{m+1} = (i/2) u_1; b_1 = -(1/2)(u_n + u_{n-1} + u_{n-2});
    b_j = -(1/2)(u_{n-2j+1} + u_{n-2j}).
    """
    block.require_chart(VOLTERRA_V, "d_transform")
    u = block.columns
    n = len(u)
    if n % 2 == 0:
        raise ParityError("d_transform requires odd dimension n = 2m+1")
    if n < 5:
        raise DimensionError("d_transform requires n >= 5")
    prods = complex_product(u[1 : n - 2], u[: n - 3])  # u_{k+1} u_k pairs feeding the square roots
    if np.any(prods.real < 0):
        raise DomainError("d_transform requires nonnegative interior products")

    def linear(x):  # a_1, a_{m+1} and b at x = u or du
        b = -0.5 * np.concatenate([x[-1:] + x[-2:-1] + x[-3:-2], x[n - 4 : 0 : -2] + x[n - 5 :: -2]])
        return 0.5j * (x[-1:] - x[-2:-1]), 0.5j * x[:1], b
    # rows j = 2..m take the pairs and sums from u_{n-2} down to u_1
    first, last, b = linear(u)
    roots = 0.5 * np.sqrt(prods[n - 4 : 0 : -2])
    a = np.concatenate([first, roots, last])
    if tangents is None:
        return _ab_image(a, b)
    du = tangent_columns(block, tangents)
    d_first, d_last, db = linear(du)
    hi, lo = slice(n - 3, 1, -2), slice(n - 4, 0, -2)  # the factors of the roots, as prods[n - 4 : 0 : -2] takes them
    d_roots = complex_product(0.5 * roots, du[hi] / u[hi] + du[lo] / u[lo])
    return _ab_image(a, b, (np.concatenate([d_first, d_roots, d_last]), db))


def _qp(block: State, x) -> tuple:  # the q and p parts of (d, N) columns in the chart of ``block``
    return x[: block.split], x[block.split :]


def sklyanin_flaschka_block(block: State, tangents=None):
    """Flaschka-type map for the doubly boundary-perturbed chain, m degrees.

    a_1 = e^{-q_1}/sqrt(2); a_{m+1} = e^{q_m}/sqrt(2);
    a_i = (1/2) e^{(q_{i-1}-q_i)/2}; b_i = -p_i/2.
    """
    block.require_chart(QP, "sklyanin_flaschka")
    if block.split == 0:
        raise DimensionError("sklyanin_flaschka needs at least one q")
    q, p = _qp(block, block.columns)

    def exponents(x):  # of the a_i, at x = q or dq
        return np.concatenate([-x[:1], 0.5 * (x[:-1] - x[1:]), x[-1:]])
    e = exponents(q)
    a = np.concatenate([np.exp(e[:1]) / np.sqrt(2), 0.5 * np.exp(e[1:-1]), np.exp(e[-1:]) / np.sqrt(2)])
    if tangents is None:
        return _ab_image(a, -0.5 * p)
    dq, dp = _qp(block, tangent_columns(block, tangents))
    return _ab_image(a, -0.5 * p, (complex_product(a, exponents(dq)), -0.5 * dp))


def _qp_with_spectrum(spectrum: Spectrum, block: State, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The q and p columns of a block whose q's must match the spectrum's dimension."""
    block.require_chart(QP, what)
    if spectrum.dimension != block.split:
        raise DimensionError("spectrum dimension must match the number of q's")
    return _qp(block, block.columns)


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


def toda_flaschka_block(spectrum: Spectrum, block: State, tangents=None):
    """Traditional Flaschka map: a_i = (1/2) e^{(v_i, q)/2}, b_i = -p_i/2."""
    q, p = _qp_with_spectrum(spectrum, block, "toda_flaschka")
    a = 0.5 * np.exp(0.5 * _pairings(spectrum.matrix, q))
    if tangents is None:
        return _ab_image(a, -0.5 * p)
    dq, dp = _qp(block, tangent_columns(block, tangents))
    return _ab_image(a, -0.5 * p, (complex_product(a, 0.5 * _pairings(spectrum.matrix, dq)), -0.5 * dp))


def generalized_flaschka_block(spectrum: Spectrum, block: State, tangents=None):
    """Exponential map a_i = -e^{(v_i, q)}, b_i = (v_i, p)."""
    q, p = _qp_with_spectrum(spectrum, block, "generalized_flaschka")
    vecs = spectrum.matrix
    a = -np.exp(_pairings(vecs, q))
    if tangents is None:
        return _ab_image(a, _pairings(vecs, p))
    dq, dp = _qp(block, tangent_columns(block, tangents))
    return _ab_image(a, _pairings(vecs, p), (complex_product(a, _pairings(vecs, dq)), _pairings(vecs, dp)))


def c_to_v_block(block: State, tangents=None):
    """Reciprocal-product map from n+1 Cartan variables to n chain variables.

    v_1 = 1/(c_1 c_2); v_k = 2/(c_k c_{k+1}) for 2 <= k <= n-2;
    v_{n-1} = 1/(c_{n-1} c_n); v_n = 1/(c_{n-1} c_{n+1}): v_k's factors are
    the k-th edge of the D diagram on n+1 vertices (``c_family_data``).
    """
    block.require_chart(C_VARS, "c_to_v")
    c = block.columns
    if np.any(c == 0):
        raise DivisionByZero("c_to_v requires nonzero c_j")
    n = len(c) - 1
    if n < 3:
        raise DimensionError("c_to_v requires at least 4 c variables")
    i, j = c_family_data("D", n + 1)[0].T
    v = np.array([1.0] + [2.0] * (n - 3) + [1.0, 1.0])[:, None] / complex_product(c[i], c[j])
    if tangents is None:
        return State(VOLTERRA_V, v.T)
    dc = tangent_columns(block, tangents)
    return State(VOLTERRA_V, v.T), -complex_product(v, dc[i] / c[i] + dc[j] / c[j])


def pushforward_residual(map_fn, source_field, target_field, block: State) -> np.ndarray:
    """Norm of J_map(s) . source_field(s) - target_field(map(s)) at each
    state s of ``block``; one value per state.

    ``map_fn`` is a map kernel (``henon_block`` and the rest), called on the
    block once with the source field's columns as its tangents: its JVP
    columns are the pushed field.  Each field is called once, on the
    columns of the block or of its image.
    """
    try:
        field = source_field(block, block.columns)
    except Exception:
        map_fn(block)  # the map's checks come first: a block that both reject gets the map's error
        raise
    image, pushed = map_fn(block, field)
    return row_norms((pushed - target_field(image, image.columns)).T)
