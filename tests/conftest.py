import numpy as np
import pytest

from lattice_flows import ab_state, c_state, qp_state, u_state, v_state


@pytest.fixture
def rng():
    return np.random.default_rng(20240911)


def random_u(rng, n):
    return u_state(rng.uniform(0.1, 2.0, n))


def random_v(rng, n):
    return v_state(rng.uniform(0.1, 2.0, n))


def random_c(rng, nc):
    return c_state(rng.uniform(0.1, 2.0, nc))


def random_ab(rng, m, positive=False):
    lo = 0.1 if positive else -1.0
    return ab_state(rng.uniform(lo, 2.0 if positive else 1.0, m + 1),
                    rng.uniform(-1.0, 1.0, m))


def random_toda_ab(rng, n):
    return ab_state(rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-1.0, 1.0, n))


def random_qp(rng, n):
    return qp_state(rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n))


def central_difference(f, state, step):
    """Derivatives of f along each coordinate, stacked on a leading axis: the
    per-state reference that the batched derivatives must match.

    Entry k is (f(x + h e_k) - f(x - h e_k)) / (2h) with h = ``step``; f maps
    a State to a scalar or an array, and may be complex.
    """
    base = state.array
    out = []
    for k in range(state.dim):
        bump = np.zeros(state.dim, dtype=complex)
        bump[k] = step
        plus, minus = f(state.replace_coords(base + bump)), f(state.replace_coords(base - bump))
        out.append((plus - minus) / (2 * step))
    return np.array(out, dtype=complex)
