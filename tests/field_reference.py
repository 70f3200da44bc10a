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
