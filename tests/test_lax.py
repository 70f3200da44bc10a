import numpy as np
import pytest

from conftest import random_ab, random_toda_ab, random_u, random_v

from lattice_flows import DimensionError, DomainError, UnsupportedDimension, ab_state, u_state, v_state
from lattice_flows.catalog import SYSTEMS, get_system
from lattice_flows.integrate import FixedStep, drift_report, integrate
from lattice_flows.lax import (
    ab_lax,
    casimir_C_column,
    casimir_F_column,
    grad_trace_invariant,
    h2_ab,
    lax_pair,
    lax_residual,
    trace_columns,
)
from lattice_flows.systems import ab_field, km_field, toda_ab_field, vd_field

RESIDUAL_TOL = 1e-10


def _pair(system, state):
    """L, B and the sign at one state of a catalog system: the one row of a one-row block."""
    L, B, sign, _ = lax_pair(SYSTEMS[system].lax, state, [state.array])
    return L[0], B[0], sign


def _traces(system, state, orders):
    return [column[0] for column in trace_columns(_pair(system, state)[0][None], orders)]


def test_km_lax_matrix_smallest():
    L, _, sign = _pair("km", u_state([2, 2]))
    expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex)
    assert np.array_equal(L, expected)
    assert sign == +1


def test_km_trace_invariants():
    h1, h2, h3 = _traces("km", u_state([2, 2]), [1, 2, 3])
    assert h1 == 0 and h3 == 0
    assert h2 == pytest.approx(2.0)


def test_km_odd_traces_vanish(rng):
    h1, h3, h5 = _traces("km", random_u(rng, 6), [1, 3, 5])
    assert max(abs(h1), abs(h3), abs(h5)) < 1e-14


def test_km_rejects_nonpositive():
    with pytest.raises(DomainError):
        _pair("km", u_state([1.0, -0.5]))


def test_km_rejects_the_empty_chain():
    # an empty chain has a 1 x 1 zero L, whose residual 0 would certify nothing
    with pytest.raises(DimensionError, match="n >= 1"):
        _pair("km", u_state([]))


def test_residual_suite(rng):
    # one block of 100 states per system and size
    cases = []
    for n in (2, 4, 8):
        cases.append(("km", [random_u(rng, n) for _ in range(100)], km_field))
    for n in (2, 5, 8):
        cases.append(("toda", [random_toda_ab(rng, n) for _ in range(100)], toda_ab_field))
    for n in (5, 7, 9):
        cases.append(("vd", [random_v(rng, n) for _ in range(100)], vd_field))
    for m in (2, 3, 4):
        cases.append(("ab", [random_ab(rng, m) for _ in range(100)], ab_field))
    worst = 0.0
    for system, states, field in cases:
        residuals = lax_residual(SYSTEMS[system].lax, states[0], [s.array for s in states], [field(s) for s in states])
        assert residuals.shape == (100,)
        worst = max(worst, np.max(residuals))
    assert worst < RESIDUAL_TOL


def test_residual_on_complex_ab_state():
    state = ab_state([0.3j, 0.5, 0.4, 0.2j], [-1.0, -0.8, -0.9])
    assert lax_residual(ab_lax, state, [state.array], [ab_field(state)])[0] < 1e-13


def test_vd_lax_dimension_and_entries(rng):
    state = random_v(rng, 7)
    L, _, sign = _pair("vd", state)
    # scalar border plus one 2x2 block per chain site
    assert L.shape == (13, 13)
    sq = np.sqrt(state.array.real)
    assert L[0, 11] == pytest.approx(sq[0])
    assert L[0, 12] == pytest.approx(1j * sq[0])
    assert L[1, 3] == pytest.approx(sq[6])
    assert L[2, 3] == pytest.approx(-sq[5])
    assert np.array_equal(L, L.T)
    assert sign == -1


def test_ab_lax_is_complex_symmetric(rng):
    state = random_ab(rng, 3)
    L, B, _ = _pair("ab", state)
    assert L.shape == (6, 6)
    assert np.array_equal(L, L.T)
    assert np.array_equal(B, -B.T)


def test_ab_lax_m1_unsupported():
    with pytest.raises(UnsupportedDimension):
        _pair("ab", ab_state([1, 1], [0]))


def test_h2_examples():
    assert h2_ab(ab_state([1, 1, 1], [1, 1])) == 6
    assert h2_ab(ab_state([0, 0, 0], [0, 0])) == 0


def test_h2_equals_trace_invariant(rng):
    for _ in range(20):
        m = int(rng.integers(2, 5))
        state = random_ab(rng, m)
        assert abs(h2_ab(state) - _traces("ab", state, [2])[0]) < 1e-13


def test_even_traces_real_on_real_states(rng):
    for _ in range(20):
        state = random_ab(rng, 3)
        for h in _traces("ab", state, [2, 4, 6]):
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
_LARGER_SAMPLES = {  # T = 13, 10, 14 and 29
    "km": lambda rng: random_u(rng, 12),
    "toda": lambda rng: random_toda_ab(rng, 10),
    "ab": lambda rng: random_ab(rng, 7),
    "vd": lambda rng: random_v(rng, 15),
}


def test_grad_trace_invariant_matches_fd(rng):
    h = 1e-6
    for system, sample in LAX_SAMPLES:
        state = sample(rng)
        base = state.array.real
        for order in (3, 4):
            [[grad]] = grad_trace_invariant(SYSTEMS[system].lax, state, [state.array], [order])

            def f(x):
                return _traces(system, state.replace_coords(x), [order])[0]

            for j in range(state.dim):
                bump = np.zeros(state.dim)
                bump[j] = h
                fd = (f(base + bump) - f(base - bump)) / (2 * h)
                assert abs(grad[j] - fd) < 1e-6, (system, order, j)


def _single_direction_grads(system, state, rows, orders):
    """The gradients from one builder call per row and unit direction: the bit-exact reference."""
    d = state.dim
    grads = np.zeros((len(orders), len(rows), d), dtype=complex)
    for r, row in enumerate(rows):
        for j, e in enumerate(np.eye(d)):
            L, _, _, dL = lax_pair(SYSTEMS[system].lax, state, [row], e[:, None, None])
            for i, k in enumerate(orders):
                grads[i, r, j] = np.trace(np.linalg.matrix_power(L[0], k - 1) @ dL[0, 0])
    return grads


@pytest.mark.parametrize("system, sample", LAX_SAMPLES, ids=_LAX_IDS)
def test_grad_trace_invariant_is_exactly_the_per_coordinate_trace(rng, system, sample):
    # the batched gradient must keep every bit of the one-direction-at-a-time
    # form, also where L has more than 8 rows and a trace sums pairwise
    orders = (1, 2, 3, 4, 6)
    for draw in (sample, _LARGER_SAMPLES[system]):
        states = [draw(rng) for _ in range(5)]
        rows = np.array([s.array for s in states])
        grads = grad_trace_invariant(SYSTEMS[system].lax, states[0], rows, orders)
        assert grads.shape == (len(orders), 5, states[0].dim)
        assert np.array_equal(grads, _single_direction_grads(system, states[0], rows, orders))


@pytest.mark.parametrize("system, sample", LAX_SAMPLES, ids=_LAX_IDS)
def test_lax_dL_batch_is_the_stack_of_single_directions(rng, system, sample):
    states = [sample(rng) for _ in range(3)]
    rows = np.array([s.array for s in states])
    d, T = rows.shape[1], _pair(system, states[0])[0].shape[0]
    ds = rng.uniform(-1.0, 1.0, (d, 4, 3))
    builder = SYSTEMS[system].lax
    L, B, sign, dL = lax_pair(builder, states[0], rows, ds)
    assert L.shape == B.shape == (3, T, T) and dL.shape == (3, 4, T, T)
    assert all(a.flags.c_contiguous for a in (L, B, dL))
    for r, state in enumerate(states):
        one_L, one_B, one_sign = _pair(system, state)
        assert np.array_equal(L[r], one_L) and np.array_equal(B[r], one_B) and sign == one_sign
        for k in range(4):
            assert np.array_equal(dL[r, k], lax_pair(builder, state, [state.array], ds[:, k, r, None, None])[3][0, 0])
    assert lax_pair(builder, states[0], rows)[3] is None


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
    assert lax_residual(ab_lax, state, [state.array], [ab_field(state)])[0] == 0.0


# ---------------------------------------------------------------------------
# mutation coverage: every single-entry defect of a Lax pair trips the gate
# ---------------------------------------------------------------------------

_MUTATION_CASES = (
    ("km", random_u, 7, km_field),
    ("toda", random_toda_ab, 7, toda_ab_field),
    ("vd", random_v, 7, vd_field),
    ("ab", random_ab, 3, ab_field),
)


def _lax_mutants(system, state):
    """(label, mutate) pairs: each nonzero entry of L (with its dL) scaled by
    1.5, each upper entry of B scaled by 1.5 with its mirror, and the sign flipped."""
    L, B, _ = _pair(system, state)

    def scale_L(i, j):
        def mutate(L, B, sign, dL):
            L[i, j] *= 1.5
            dL[i, j] *= 1.5
            return L, B, sign, dL
        return mutate

    def scale_B(i, j):
        def mutate(L, B, sign, dL):
            B[i, j] *= 1.5
            B[j, i] *= 1.5
            return L, B, sign, dL
        return mutate

    for i, j in zip(*np.nonzero(L)):
        yield f"L[{i},{j}]", scale_L(i, j)
    for i, j in zip(*np.nonzero(np.triu(B))):
        yield f"B[{i},{j}]", scale_B(i, j)
    yield "sign", lambda L, B, sign, dL: (L, B, -sign, dL)


def test_every_lax_entry_mutant_fails_the_gate(rng):
    counts = {}
    for system, sample, size, field in _MUTATION_CASES:
        states = [sample(rng, size) for _ in range(3)]
        rows, velocities = [s.array for s in states], [field(s) for s in states]
        builder = SYSTEMS[system].lax
        mutants = list(_lax_mutants(system, states[0]))
        counts[system] = len(mutants)
        for label, mutate in mutants:
            def mutant(state, x, ds, mutate=mutate):
                return mutate(*builder(state, x, ds))  # fresh arrays each call

            assert np.max(lax_residual(mutant, states[0], rows, velocities)) > RESIDUAL_TOL, (system, label)
        assert np.max(lax_residual(builder, states[0], rows, velocities)) < RESIDUAL_TOL
    # 111 entry mutants and one sign flip per builder
    assert counts == {"km": 14 + 6 + 1, "toda": 19 + 6 + 1, "vd": 28 + 14 + 1, "ab": 18 + 6 + 1}
