"""Vector fields as they were written before their one-pass forms: the bit
reference that ``lattice_flows.systems`` must reproduce."""

import numpy as np

from lattice_flows.errors import DimensionError
from lattice_flows.states import State, ab_sizes
from lattice_flows.systems import c_family_data


def ab_field(state: State, y) -> np.ndarray:
    """The (a, b) field with a zeroed da, two squares of ``a`` and a
    concatenation: ``systems.ab_field`` takes the same operations for
    every entry."""
    split, m = ab_sizes(state, +1, "ab_field")
    if m < 1:
        raise DimensionError("ab_field needs m >= 1")
    a, b = y[:split], y[split:]
    da = np.zeros(a.shape, dtype=complex)
    da[0] = 2 * a[0] * b[0]
    for i in range(1, m):
        da[i] = a[i] * (b[i] - b[i - 1])
    da[m] = -2 * a[m] * b[m - 1]
    db = 2 * (a[1:] ** 2 - a[:-1] ** 2)
    return np.concatenate([da, db])


def c_field(family: str, state: State, c) -> np.ndarray:
    """The Cartan-variable field with two divisions per edge: ``systems.c_field``
    divides once per vertex and must keep these bits."""
    edges, k = c_family_data(family, state.dim)
    dc = np.zeros(c.shape, dtype=complex)
    for i, j in edges.tolist():
        dc[i] -= k[j] / c[j]
        dc[j] += k[i] / c[i]
    return dc


def qp_field(system: str, state: State, y) -> np.ndarray:
    """Hamilton's equations for the (q, p) chains with each row's walls
    written out, their coefficients 1.0 included: ``systems.qp_field``
    reads the walls from ``rootdata.QP_WALLS`` and must keep these bits."""
    n = state.split
    if n == 0:
        raise DimensionError(f"the {system} field needs at least one q")
    q, p = y[:n], y[n:]
    expo = np.exp(q[:-1] - q[1:])
    dh_dq = np.zeros(q.shape, dtype=complex)
    dh_dq[:-1] += expo
    dh_dq[1:] -= expo
    if system == "toda":
        pass
    elif system == "sklyanin":
        dh_dq[0] += -2 * np.exp(-2 * q[0])
        dh_dq[-1] += 2 * np.exp(2 * q[-1])
    elif system == "sklyanin_full":
        a1, b1, an, bn = 1.0, 1.0, 1.0, 1.0
        dh_dq[0] += -a1 * np.exp(-q[0]) - 2 * b1 * np.exp(-2 * q[0])
        dh_dq[-1] += an * np.exp(q[-1]) + 2 * bn * np.exp(2 * q[-1])
    else:
        raise ValueError(f"unknown Hamiltonian system {system!r}")
    return np.concatenate([p, -dh_dq])
