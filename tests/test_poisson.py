import numpy as np
import pytest

from conftest import random_ab, random_c, random_qp, random_v

from lattice_flows import ParityError, ab_state, c_state, v_state
from lattice_flows.lax import grad_casimir_C, grad_casimir_F, grad_trace_invariant
from lattice_flows.poisson import (
    Pencil,
    PoissonStructure,
    _pi3_v_table,
    _structure_derivatives,
    bracket_eval,
    casimir_residual,
    compatibility_residual,
    grad_vd_quarter_h2,
    hamiltonian_flow_check,
    jacobi_residual,
    lenard_residual,
    poisson_matrix,
    vd_quarter_h2,
    get_structure,
    STRUCTURES,
)
from lattice_flows.states import VOLTERRA_V
from lattice_flows.systems import ab_field, vd_field
from lattice_flows.transforms import c_to_v, d_transform, map_jacobian

JACOBI_TOL = 1e-6
CASIMIR_TOL = 1e-10
LENARD_TOL = 1e-7

#: Frozen pushforward scales: the c-bracket maps onto half of pi3-v, and the
#: chain-to-(a,b) map carries pi1-v onto half of pi1-ab and pi3-v onto pi3-ab.
C_TO_V_PI3_SCALE = 2.0
D_MAP_PI1_SCALE = 2.0
D_MAP_PI3_SCALE = 1.0


def golden_pi1_matrix(v):
    t11 = v[0]
    t12 = v[0] * v[2] / v[1]
    t13 = v[0] * v[2] * v[4] / (v[1] * v[3])
    t22 = v[2]
    t23 = v[2] * v[4] / v[3]
    t33 = v[4]
    half = 0.5 * (v[6] - v[5])
    return np.array(
        [
            [0, t11, -t12, t12, -t13, t13 / 2, t13 / 2],
            [-t11, 0, t22, -t22, t23, -t23 / 2, -t23 / 2],
            [t12, -t22, 0, t22, -t23, t23 / 2, t23 / 2],
            [-t12, t22, -t22, 0, t33, -t33 / 2, -t33 / 2],
            [t13, -t23, t23, -t33, 0, t33 / 2, t33 / 2],
            [-t13 / 2, t23 / 2, -t23 / 2, t33 / 2, -t33 / 2, 0, half],
            [-t13 / 2, t23 / 2, -t23 / 2, t33 / 2, -t33 / 2, -half, 0],
        ]
    )


def test_pi1_v_golden_n7(rng):
    for _ in range(20):
        v = rng.uniform(0.1, 2.0, 7)
        got = poisson_matrix("pi1-v", v_state(v))
        assert np.max(np.abs(got - golden_pi1_matrix(v))) < 1e-12


def test_pi1_v_needs_odd_dimension(rng):
    with pytest.raises(ParityError):
        poisson_matrix("pi1-v", random_v(rng, 6))


def test_c_bracket_constant_matrix():
    got = poisson_matrix("c-bracket", c_state([1, 2, 3, 4, 5]))
    expected = np.zeros((5, 5))
    for j in range(3):
        expected[j, j + 1] = 1
    expected[2, 4] = 1
    expected -= expected.T
    assert np.array_equal(got, expected)


def test_pi1_ab_entries_m2():
    got = poisson_matrix("pi1-ab", ab_state([1, 1, 1], [5, 7]))
    # nonzero pattern: {a1,b1}=1, {a2,b2}=1/2, {a2,b1}=-1/2, {a3,b2}=-1
    expected = np.zeros((5, 5))
    expected[0, 3] = 1.0
    expected[1, 4] = 0.5
    expected[1, 3] = -0.5
    expected[2, 4] = -1.0
    expected -= expected.T
    assert np.array_equal(got, expected)


def test_antisymmetry_everywhere(rng):
    states = {
        "c-bracket": random_c(rng, 8),
        "pi1-v": random_v(rng, 7),
        "pi3-v": random_v(rng, 8),
        "pi1-ab": random_ab(rng, 3),
        "pi3-ab": random_ab(rng, 4),
    }
    for name, state in states.items():
        pi = poisson_matrix(name, state)
        assert np.array_equal(pi, -pi.T), name


def test_jacobi_residuals(rng):
    assert jacobi_residual("c-bracket", random_c(rng, 8)) == 0.0
    for n in (5, 7, 9):
        for _ in range(50):
            state = random_v(rng, n)
            assert jacobi_residual("pi1-v", state) < JACOBI_TOL
            assert jacobi_residual("pi3-v", state) < JACOBI_TOL
    for m in (2, 3):
        for _ in range(25):
            state = random_ab(rng, m)
            assert jacobi_residual("pi1-ab", state) < JACOBI_TOL
            assert jacobi_residual("pi3-ab", state) < JACOBI_TOL


def test_jacobi_analytic_matches_fd(rng):
    for name, state in (("pi1-v", random_v(rng, 7)), ("pi3-ab", random_ab(rng, 3))):
        analytic = jacobi_residual(name, state)
        fd = jacobi_residual(name, state, fd_step=1e-5)
        assert abs(analytic - fd) < 1e-8


def test_jacobi_residual_propagates_nan():
    # a NaN cyclic sum must not be dropped by the max over index triples
    state = v_state([np.nan, 1.0, 1.5, 0.5, 1.2])
    assert np.isnan(jacobi_residual("pi3-v", state))


def _jacobi_loop(structure, state, fd_step=None):
    """The scalar quadruple loop jacobi_residual replaced: the bit-exact reference."""
    pi, dpi = _structure_derivatives(get_structure(structure), state, fd_step)
    n = state.dim
    sums = []
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                total = 0.0
                for l in range(n):
                    total += (
                        pi[i, l] * dpi[l, j, k]
                        + pi[j, l] * dpi[l, k, i]
                        + pi[k, l] * dpi[l, i, j]
                    )
                sums.append(abs(total))
    return float(np.max(sums, initial=0.0))


_V_STRUCTURES = ("pi1-v", "pi3-v", ("pi1-v", "pi3-v", 1.0), ("pi1-v", "pi3-v", 2.5))
_AB_STRUCTURES = ("pi1-ab", "pi3-ab", ("pi1-ab", "pi3-ab", 1.0), ("pi1-ab", "pi3-ab", 2.5))
_JACOBI_CASES = (
    [("c-bracket", random_c, n, None) for n in (7, 15, 25)]
    + [(s, random_v, n, None) for s in _V_STRUCTURES for n in (7, 15, 25)]
    + [(s, random_ab, m, None) for s in _AB_STRUCTURES for m in (3, 7)]
    + [("pi1-v", random_v, 7, 1e-5), (("pi1-v", "pi3-v", 2.5), random_v, 15, 1e-5),
       ("pi3-ab", random_ab, 3, 1e-5), (("pi1-ab", "pi3-ab", 1.0), random_ab, 7, 1e-5)]
)


@pytest.mark.parametrize(
    "structure, sample, size, fd_step", _JACOBI_CASES,
    ids=lambda x: "+".join(map(str, x)) if isinstance(x, tuple) else getattr(x, "__name__", str(x)),
)
def test_jacobi_residual_matches_scalar_loop_bitwise(rng, structure, sample, size, fd_step):
    # reports print the residual's exact bits, so the vectorised kernel must
    # keep the loop's summation order; == rather than approx is the point
    struct = Pencil(*structure) if isinstance(structure, tuple) else structure
    for _ in range(2):
        state = sample(rng, size)
        assert jacobi_residual(struct, state, fd_step) == _jacobi_loop(struct, state, fd_step)


def test_jacobi_residual_detects_a_corrupted_coefficient(rng):
    # negative control: scaling one monomial of an interior pi3-v entry breaks
    # the Jacobi identity, and both kernels must see it
    table = dict(_pi3_v_table(9))
    (coef, powers), *rest = table[(2, 3)]
    table[(2, 3)] = [(1.5 * coef, powers), *rest]
    corrupted = PoissonStructure("pi3-v-corrupted", VOLTERRA_V, lambda s: table, degree=3)
    for _ in range(5):
        state = random_v(rng, 9)
        residual = jacobi_residual(corrupted, state)
        assert residual > 1e-3
        assert residual == _jacobi_loop(corrupted, state)
        assert jacobi_residual("pi3-v", state) < JACOBI_TOL


def test_compatibility(rng):
    for lam in (1.0, 2.5):
        for n in (5, 7, 9):
            for _ in range(25):
                assert compatibility_residual("pi1-v", "pi3-v", lam, random_v(rng, n)) < JACOBI_TOL
        for _ in range(25):
            assert compatibility_residual("pi1-ab", "pi3-ab", lam, random_ab(rng, 3)) < JACOBI_TOL


def test_pencil_at_lambda_zero_is_first_structure(rng):
    state = random_v(rng, 7)
    assert compatibility_residual("pi1-v", "pi3-v", 0.0, state) == jacobi_residual("pi1-v", state)


def test_casimir_residuals(rng):
    for n in (5, 7, 9):
        for _ in range(50):
            assert casimir_residual("pi1-v", grad_casimir_F, random_v(rng, n)) < CASIMIR_TOL
    for m in (2, 3):
        for _ in range(50):
            assert casimir_residual("pi1-ab", grad_casimir_C, random_ab(rng, m)) < CASIMIR_TOL


def test_casimir_residual_constant_function(rng):
    state = random_v(rng, 7)
    assert casimir_residual("pi3-v", lambda s: np.zeros(s.dim), state) == 0.0


def test_hamiltonian_flow_vd(rng):
    for n in (5, 7):
        for _ in range(50):
            state = random_v(rng, n)
            r = hamiltonian_flow_check("pi1-v", vd_quarter_h2, vd_field, state, grad_h=grad_vd_quarter_h2)
            assert r < 1e-8


def test_hamiltonian_flow_ab(rng):
    for m in (2, 3):
        for _ in range(50):
            state = random_ab(rng, m)
            r = hamiltonian_flow_check(
                "pi1-ab",
                None,
                ab_field,
                state,
                grad_h=lambda s: grad_trace_invariant("ab", s, 2),
            )
            assert r < 1e-8


def test_hamiltonian_flow_zero_state():
    state = ab_state([0, 0, 0], [0, 0])
    r = hamiltonian_flow_check(
        "pi1-ab", None, ab_field, state, grad_h=lambda s: grad_trace_invariant("ab", s, 2)
    )
    assert r == 0.0


def test_lenard_both_charts(rng):
    for n in (5, 7, 9):
        for _ in range(50):
            assert lenard_residual("v", random_v(rng, n)) < LENARD_TOL
    for m in (2, 3):
        for _ in range(50):
            assert lenard_residual("ab", random_ab(rng, m)) < LENARD_TOL


def test_lenard_fd_cross_check(rng):
    state = v_state(rng.uniform(0.8, 1.2, 7))
    assert lenard_residual("v", state, fd_step=1e-6) < 1e-6
    state = random_ab(rng, 3)
    assert lenard_residual("ab", state, fd_step=1e-6) < 1e-7


def test_lenard_parity_error(rng):
    with pytest.raises(ParityError):
        lenard_residual("v", random_v(rng, 6))


def test_bracket_eval_antisymmetry(rng):
    state = random_v(rng, 7)

    def f(s):
        return complex(np.sum(s.array**2))

    assert abs(bracket_eval("pi3-v", f, f, state)) < 1e-9


def test_bracket_eval_constant_bracket(rng):
    state = random_c(rng, 6)
    val = bracket_eval("c-bracket", lambda s: s.array[0], lambda s: s.array[1], state)
    assert abs(val - 1.0) < 1e-9


def test_involution_of_invariants(rng):
    for m in (3, 4):
        for _ in range(50):
            state = random_ab(rng, m)
            pi = poisson_matrix("pi1-ab", state)
            g2 = grad_trace_invariant("ab", state, 2)
            for order in (4, 6):
                gk = grad_trace_invariant("ab", state, order)
                assert abs(complex(g2 @ pi @ gk)) < 1e-9


def push_tensor(structure, map_fn, state, jacobian=None):
    jac = jacobian(state) if jacobian else map_jacobian(map_fn, state)
    return jac @ poisson_matrix(structure, state) @ jac.T


def test_c_bracket_pushes_to_half_pi3_v(rng):
    from lattice_flows.transforms import c_to_v_jacobian

    for n in (5, 7):
        for _ in range(20):
            state = random_c(rng, n + 1)
            pushed = push_tensor("c-bracket", c_to_v, state, jacobian=c_to_v_jacobian)
            target = poisson_matrix("pi3-v", c_to_v(state))
            assert np.max(np.abs(C_TO_V_PI3_SCALE * pushed - target)) < 1e-8


def test_d_map_pushes_pi1_to_half_pi1_ab(rng):
    for n in (5, 7):
        for _ in range(20):
            state = random_v(rng, n)
            pushed = push_tensor("pi1-v", d_transform, state)
            target = poisson_matrix("pi1-ab", d_transform(state))
            assert np.max(np.abs(D_MAP_PI1_SCALE * pushed - target)) < 1e-8


def test_d_map_pushes_pi3_onto_pi3_ab(rng):
    for n in (5, 7):
        for _ in range(20):
            state = random_v(rng, n)
            pushed = push_tensor("pi3-v", d_transform, state)
            target = poisson_matrix("pi3-ab", d_transform(state))
            assert np.max(np.abs(D_MAP_PI3_SCALE * pushed - target)) < 1e-8


def test_structures_registry_contents():
    assert set(STRUCTURES) == {"c-bracket", "pi1-v", "pi3-v", "pi1-ab", "pi3-ab"}
    assert STRUCTURES["pi1-v"].casimirs == ("F",)
    assert STRUCTURES["pi1-ab"].casimirs == ("C",)


def test_lenard_zero_at_origin():
    state = ab_state([0, 0, 0], [0, 0])
    assert lenard_residual("ab", state) == 0.0
