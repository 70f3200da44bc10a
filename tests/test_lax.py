import numpy as np
import pytest

from conftest import random_ab, random_toda_ab, random_u, random_v

from lattice_flows import DomainError, UnsupportedDimension, ab_state, u_state, v_state
from lattice_flows.catalog import get_system
from lattice_flows.integrate import FixedStep, drift_report, integrate
from lattice_flows.lax import (
    build_lax,
    casimir_C_column,
    casimir_F_column,
    grad_trace_invariant,
    h2_ab,
    lax_dL,
    lax_residual,
    trace_invariants,
)
from lattice_flows.systems import ab_field, km_field, toda_ab_field, vd_field

RESIDUAL_TOL = 1e-10


def test_km_lax_matrix_smallest():
    pair = build_lax("km", u_state([2, 2]))
    expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    assert np.array_equal(pair.L, expected)
    assert pair.sign == +1


def test_km_trace_invariants():
    pair = build_lax("km", u_state([2, 2]))
    h1, h2, h3 = trace_invariants(pair, [1, 2, 3])
    assert h1 == 0 and h3 == 0
    assert h2 == pytest.approx(2.0)


def test_km_odd_traces_vanish(rng):
    pair = build_lax("km", random_u(rng, 6))
    h1, h3, h5 = trace_invariants(pair, [1, 3, 5])
    assert max(abs(h1), abs(h3), abs(h5)) < 1e-14


def test_km_rejects_nonpositive():
    with pytest.raises(DomainError):
        build_lax("km", u_state([1.0, -0.5]))


def test_residual_suite(rng):
    cases = []
    for n in (2, 4, 8):
        cases += [("km", random_u(rng, n), km_field) for _ in range(100)]
    for n in (2, 5, 8):
        cases += [("toda", random_toda_ab(rng, n), toda_ab_field) for _ in range(100)]
    for n in (5, 7, 9):
        cases += [("vd", random_v(rng, n), vd_field) for _ in range(100)]
    for m in (2, 3, 4):
        cases += [("ab", random_ab(rng, m), ab_field) for _ in range(100)]
    worst = 0.0
    for system, state, field in cases:
        worst = max(worst, lax_residual(system, state, field(state)))
    assert worst < RESIDUAL_TOL


def test_residual_on_complex_ab_state():
    state = ab_state([0.3j, 0.5, 0.4, 0.2j], [-1.0, -0.8, -0.9])
    assert lax_residual("ab", state, ab_field(state)) < 1e-13


def test_vd_lax_dimension_and_entries(rng):
    state = random_v(rng, 7)
    pair = build_lax("vd", state)
    # scalar border plus one 2x2 block per chain site
    assert pair.dimension == 13
    sq = np.sqrt(state.array.real)
    assert pair.L[0, 11] == pytest.approx(sq[0])
    assert pair.L[0, 12] == pytest.approx(1j * sq[0])
    assert pair.L[1, 3] == pytest.approx(sq[6])
    assert pair.L[2, 3] == pytest.approx(-sq[5])
    assert np.array_equal(pair.L, pair.L.T)
    assert pair.sign == -1


def test_ab_lax_is_complex_symmetric(rng):
    state = random_ab(rng, 3)
    pair = build_lax("ab", state)
    assert pair.dimension == 6
    assert np.array_equal(pair.L, pair.L.T)
    assert np.array_equal(pair.B, -pair.B.T)


def test_ab_lax_m1_unsupported():
    with pytest.raises(UnsupportedDimension):
        build_lax("ab", ab_state([1, 1], [0]))


def test_h2_examples():
    assert h2_ab(ab_state([1, 1, 1], [1, 1])) == 6
    assert h2_ab(ab_state([0, 0, 0], [0, 0])) == 0


def test_h2_equals_trace_invariant(rng):
    for _ in range(20):
        m = int(rng.integers(2, 5))
        state = random_ab(rng, m)
        pair = build_lax("ab", state)
        assert abs(h2_ab(state) - trace_invariants(pair, [2])[0]) < 1e-13


def test_even_traces_real_on_real_states(rng):
    for _ in range(20):
        state = random_ab(rng, 3)
        pair = build_lax("ab", state)
        for h in trace_invariants(pair, [2, 4, 6]):
            assert abs(h.imag) < 1e-12


def test_casimir_C_examples():
    template = ab_state([1, 1, 1], [0, 0])
    assert casimir_C_column(template, [[1, 1, 1, 0, 0], [2, 3, 4, 0, 0]]) == [1, 72]


def test_casimir_F_examples():
    assert casimir_F_column(v_state([1, 1, 1, 1]), [[1, 1, 2, 2], [1, 1, 1, 2]]) == [0, 1]


LAX_SAMPLES = (
    ("km", lambda rng: random_u(rng, 6)),
    ("toda", lambda rng: random_toda_ab(rng, 5)),
    ("ab", lambda rng: random_ab(rng, 3)),
    ("vd", lambda rng: random_v(rng, 7)),
)
_LAX_IDS = [system for system, _ in LAX_SAMPLES]


def test_grad_trace_invariant_matches_fd(rng):
    h = 1e-6
    for system, sample in LAX_SAMPLES:
        state = sample(rng)
        base = state.array.real
        for order in (3, 4):
            grad = grad_trace_invariant(system, state, order)

            def f(x):
                return trace_invariants(build_lax(system, state.replace_coords(x)), [order])[0]

            for j in range(state.dim):
                bump = np.zeros(state.dim)
                bump[j] = h
                fd = (f(base + bump) - f(base - bump)) / (2 * h)
                assert abs(grad[j] - fd) < 1e-6, (system, order, j)


@pytest.mark.parametrize("system, sample", LAX_SAMPLES, ids=_LAX_IDS)
def test_grad_trace_invariant_is_exactly_the_per_coordinate_trace(rng, system, sample):
    # the batched gradient must keep every bit of the one-direction-at-a-time form
    state = sample(rng)
    L = build_lax(system, state).L
    units = np.eye(state.dim)
    for order in (1, 2, 3, 4, 6):
        power = np.linalg.matrix_power(L, order - 1)
        expected = np.array([np.trace(power @ lax_dL(system, state, e)) for e in units])
        assert np.array_equal(grad_trace_invariant(system, state, order), expected)


@pytest.mark.parametrize("system, sample", LAX_SAMPLES, ids=_LAX_IDS)
def test_lax_dL_batch_is_the_stack_of_single_directions(rng, system, sample):
    state = sample(rng)
    d = state.dim
    T = build_lax(system, state).dimension
    singles = [lax_dL(system, state, e) for e in np.eye(d)]
    batch = lax_dL(system, state, np.eye(d))
    assert batch.shape == (T, T, d)
    assert np.array_equal(np.moveaxis(batch, -1, 0), np.stack(singles))
    # a 1-D velocity still gives one (T, T) matrix: the batch's single column
    ds = rng.uniform(-1.0, 1.0, d)
    one = lax_dL(system, state, ds)
    assert one.shape == (T, T)
    assert np.array_equal(one, lax_dL(system, state, ds[:, None])[..., 0])
    assert not np.shares_memory(one, build_lax(system, state).L)


def _drift(system, traj, names):
    return {r.name: r for r in drift_report(system.invariant_columns(traj.initial, names, traj.coords))}


def test_drift_along_ab_flow(rng):
    system = get_system("ab")
    s0 = ab_state([1.0, 0.9, 1.1, 0.8], [0.1, -0.2, 0.3])
    traj = integrate(system, s0, 10.0, FixedStep(1e-3))
    report = _drift(system, traj, system.invariants(s0))
    for name in ("H2", "H4", "H6"):
        assert report[name].max_rel_drift < 1e-6, name
    assert report["C"].max_rel_drift < 1e-10


def test_drift_along_vd_flow(rng):
    system = get_system("vd")
    s0 = v_state([0.04, 0.05, 0.06, 0.05, 0.045, 0.06, 0.03])
    traj = integrate(system, s0, 10.0, FixedStep(1e-3))
    report = _drift(system, traj, system.invariants(s0))
    for name in ("H2", "H4"):
        assert report[name].max_rel_drift < 1e-6, name
    assert report["F"].max_rel_drift < 1e-8


def test_drift_along_km_flow():
    system = get_system("km")
    s0 = u_state([1.0, 1.0, 1.0])
    traj = integrate(system, s0, 10.0, FixedStep(1e-3))
    assert _drift(system, traj, ["H2"])["H2"].max_rel_drift < 1e-8


def test_residual_vanishing_field_zero_a():
    # with every a zero both dL/dt and the commutator vanish identically
    state = ab_state([0, 0, 0], [0.3, -0.7])
    assert lax_residual("ab", state, ab_field(state)) == 0.0
