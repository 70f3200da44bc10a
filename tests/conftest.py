from fractions import Fraction

import numpy as np
import pytest

from lax_reference import assembled_pair

from lattice_flows import State, ab_state, c_state, qp_state, sklyanin_spectrum, u_state, v_state
from lattice_flows import transforms
from lattice_flows.catalog import SYSTEMS, get_system
from lattice_flows.integrate import integrate
from lattice_flows.states import C_VARS, FLASCHKA_AB, QP, VOLTERRA_U, VOLTERRA_V


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


def run(system, s0, t_end, policy):
    """``integrate``'s blocks collected: the (T,) sample times and the (T, d) rows."""
    blocks = []
    integrate(system, s0, t_end, policy, lambda times, coords: blocks.append((times, coords)))
    return np.concatenate([times for times, _ in blocks]), np.concatenate([coords for _, coords in blocks])


def stack(states):
    """The block of a list of states of one chart and split, one row per state."""
    return State(states[0].chart, [s.array for s in states], states[0].split)


def henon_jacobi(state):
    """The Toda Jacobi matrix of a km state's Hénon image: toda_lax's L at
    (-A, B), since the Hénon A_i carry a minus sign."""
    image = transforms.henon_block(state)
    flip = [-1] * image.split + [1] * (image.dim - image.split)
    return assembled_pair(SYSTEMS["toda"].lax, image.replace_coords(image.rows * flip))[0][0]


def at(state):
    """A field's (template, row) arguments at the state's own coordinates."""
    return state, state.array


#: (split, dim) of the sampled states, past every field's minimum size: by
#: chart, and by system on the (a, b) chart.
_SHAPES = {QP: (3, 6), VOLTERRA_U: (None, 5), VOLTERRA_V: (None, 5), C_VARS: (None, 5)}
_AB_SHAPES = {"ab": (4, 7), "toda": (3, 7), "spectrum": (4, 8)}


def catalog_cases(rng):
    """(system, state) for every catalog system on each chart it accepts: a
    real state, a complex one, and unless the chart is c_vars (c_field
    rejects zeros) one with mixed +0.0 and -0.0 entries and one of -0.0 only."""
    cases = []
    for key in SYSTEMS:
        system = get_system(key, sklyanin_spectrum(3)) if key == "spectrum" else SYSTEMS[key]
        for chart in system.charts:
            split, dim = _AB_SHAPES[key] if chart == FLASCHKA_AB else _SHAPES[chart]
            real = rng.uniform(0.2, 1.5, dim).astype(complex)
            rows = [real, real + 1j * rng.uniform(-0.3, 0.3, dim)]
            if chart != C_VARS:
                mixed = rows[1].copy()
                mixed[::2] = complex(-0.0, -0.0)
                mixed[1::3] = 0.0
                rows += [mixed, np.full(dim, complex(-0.0, -0.0))]
            cases += [(system, State(chart, row, split)) for row in rows]
    return cases


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


def state_per_stage(system, s0):
    """The integrator's field as it was before it stepped raw rows, kept as the
    reference: each stage builds a State from its row and evaluates the field
    at that State's own coordinates."""
    def f(y):
        s = s0.replace_coords(y)
        return np.asarray(system.field(s, s.array), dtype=complex)

    return f


#: Fehlberg's 4(5) tableau in exact rationals: the nodes c_i, the stage
#: inputs a_ij, the 4th-order weights b4 and the error row b5 - b4.
FEHLBERG_C = (0, Fraction(1, 4), Fraction(3, 8), Fraction(12, 13), 1, Fraction(1, 2))
FEHLBERG_A = (
    (),
    (Fraction(1, 4),),
    (Fraction(3, 32), Fraction(9, 32)),
    (Fraction(1932, 2197), Fraction(-7200, 2197), Fraction(7296, 2197)),
    (Fraction(439, 216), -8, Fraction(3680, 513), Fraction(-845, 4104)),
    (Fraction(-8, 27), 2, Fraction(-3544, 2565), Fraction(1859, 4104), Fraction(-11, 40)),
)
FEHLBERG_B4 = (Fraction(25, 216), 0, Fraction(1408, 2565), Fraction(2197, 4104), Fraction(-1, 5), 0)
FEHLBERG_ERR = (Fraction(1, 360), 0, Fraction(-128, 4275), Fraction(-2197, 75240), Fraction(1, 50), Fraction(2, 55))


def fehlberg_step_reference(f, y, dt):
    """One Fehlberg 4(5) step from the tableau by generator sums: zero entries
    are skipped and the other terms add left to right, starting from the
    integer 0 of ``sum``.  Each entry is rounded once, by ``float``, as the
    integrator's ``a / b`` literals are.  The per-state reference of the
    integrator's step."""
    ks = []
    for row in FEHLBERG_A:
        yi = y if not row else y + dt * sum(float(c) * k for c, k in zip(row, ks) if c)
        ks.append(f(yi))
    y_new = y + dt * sum(float(b) * k for b, k in zip(FEHLBERG_B4, ks) if b)
    err = dt * sum(float(c) * k for c, k in zip(FEHLBERG_ERR, ks) if c)
    return y_new, np.asarray(err)
