import numpy as np
import pytest

from conftest import random_ab, random_c, random_qp, random_v

from lattice_flows import DimensionError, ParityError, ab_state, c_state, v_state
from lattice_flows.cli import BLOCK
from lattice_flows.lax import grad_casimir_C, grad_casimir_F, grad_trace_invariant
from lattice_flows.poisson import (
    Pencil,
    PoissonStructure,
    _pi3_v_table,
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
from lattice_flows.states import VOLTERRA_V, central_difference, coordinate_columns
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


def _eval_table(table, x):
    """pi by the scalar per-monomial definition: the bitwise reference for the compiled plans."""
    n = len(x)
    upper = np.zeros((n, n), dtype=complex)
    for (i, j), monos in table.items():
        total = 0.0 + 0.0j
        for coef, powers in monos:
            term = coef
            for var, expo in powers:
                term = term * x[var] ** expo
            total += term
        upper[i, j] = total
    return upper - upper.T


def _eval_table_derivatives(table, x):
    """d pi by the scalar per-monomial definition: the bitwise reference for the compiled plans."""
    n = len(x)
    out = np.zeros((n, n, n), dtype=complex)
    for (i, j), monos in table.items():
        for coef, powers in monos:
            for var, expo in powers:
                term = coef * expo * x[var] ** (expo - 1)
                for var2, expo2 in powers:
                    if var2 != var:
                        term = term * x[var2] ** expo2
                out[var, i, j] += term
                out[var, j, i] -= term
    return out


def _reference_pi(struct, state):
    if isinstance(struct, Pencil):
        return _reference_pi(struct.first, state) + struct.lam * _reference_pi(struct.second, state)
    return _eval_table(struct.table(state), state.array)


def _reference_dpi(struct, state, fd_step=None):
    if fd_step is not None:
        return central_difference(lambda s: _reference_pi(struct, s), state, fd_step)
    if isinstance(struct, Pencil):
        return _reference_dpi(struct.first, state) + struct.lam * _reference_dpi(struct.second, state)
    return _eval_table_derivatives(struct.table(state), state.array)


def _jacobi_loop(structure, state, fd_step=None):
    """The scalar quadruple loop over the reference tensors: the bit-exact reference."""
    struct = get_structure(structure)
    pi, dpi = _reference_pi(struct, state), _reference_dpi(struct, state, fd_step)
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
    states = [sample(rng, size) for _ in range(3)]
    rows = np.array([s.array for s in states])
    got = jacobi_residual(struct, states[0], fd_step, rows=rows)
    assert got.tolist() == [_jacobi_loop(struct, s, fd_step) for s in states]


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


# ---------------------------------------------------------------------------
# compiled plans against the per-monomial loops
# ---------------------------------------------------------------------------

def _v_rows(rng, n, count, imag=0.0):
    return rng.uniform(0.1, 2.0, (count, n)) + 1j * imag * rng.uniform(-1.0, 1.0, (count, n))


def _ab_rows(rng, m, count, imag=0.0):
    return rng.uniform(-1.0, 1.0, (count, 2 * m + 1)) + 1j * imag * rng.uniform(-1.0, 1.0, (count, 2 * m + 1))


_FAMILIES = {  # chart family -> (structures and pencils, (rng, size, count, imag) -> rows, template)
    "c": (("c-bracket",), _v_rows, lambda size: c_state(np.ones(size))),
    "v": (("pi1-v", "pi3-v", ("pi1-v", "pi3-v", 2.5)), _v_rows, lambda size: v_state(np.ones(size))),
    "ab": (("pi1-ab", "pi3-ab", ("pi1-ab", "pi3-ab", 2.5)), _ab_rows,
           lambda size: ab_state(np.ones(size + 1), np.ones(size))),
}
_TENSOR_CASES = [("c", n) for n in (4, 8, 20)] + [("v", n) for n in (5, 7, 15, 25)] + [("ab", m) for m in (2, 3, 7)]


@pytest.mark.parametrize("family, size", _TENSOR_CASES, ids=lambda x: str(x))
def test_compiled_tensors_match_reference_loops(rng, family, size):
    # reports print residuals to the last bit, so on real states the plan must
    # reproduce the scalar loops exactly, in a block of any size; numpy's
    # complex array product rounds differently from its scalar product, so
    # complex states get a relative tolerance
    structures, draw, template = _FAMILIES[family]
    template = template(size)
    for count, imag in ((1, 0.0), (3, 0.0), (BLOCK + 1, 0.0), (3, 0.5)):
        rows = draw(rng, size, count, imag)
        states = [template.replace_coords(row) for row in rows]
        x = coordinate_columns(template, rows)
        for structure in structures:
            struct = Pencil(*structure) if isinstance(structure, tuple) else get_structure(structure)
            got_pi, got_dpi = struct(template, x), struct.derivatives(template, x)
            ref_pi = np.stack([_reference_pi(struct, s) for s in states], axis=-1)
            ref_dpi = np.stack([_reference_dpi(struct, s) for s in states], axis=-1)
            if imag:
                for got, ref in ((got_pi, ref_pi), (got_dpi, ref_dpi)):
                    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), structure
            else:
                assert np.array_equal(got_pi, ref_pi), structure
                assert np.array_equal(got_dpi, ref_dpi), structure
                assert np.array_equal(struct(states[0]), ref_pi[..., 0]), structure
                assert np.array_equal(struct.derivatives(states[0]), ref_dpi[..., 0]), structure


def _grad_casimir_F_loop(v):
    n = len(v)
    head = np.prod(v[: n - 2])
    grad = np.zeros(n, dtype=complex)
    for i in range(n - 2):
        grad[i] = (v[-1] - v[-2]) * np.prod(np.delete(v[: n - 2], i))
    grad[n - 2] = -head
    grad[n - 1] = head
    return grad


def _grad_casimir_C_loop(x, m):
    a = x[: m + 1]
    grad = np.zeros(2 * m + 1, dtype=complex)
    for i in range(m + 1):
        rest = np.delete(np.arange(m + 1), i)
        expo = np.array([1 if j in (0, m) else 2 for j in rest])
        own = 1 if i in (0, m) else 2
        grad[i] = own * a[i] ** (own - 1) * np.prod(a[rest] ** expo)
    return grad


@pytest.mark.parametrize("size", [5, 7, 15, 25])
def test_batched_grad_casimir_F_matches_per_state_formula(rng, size):
    template = v_state(np.ones(size))
    for count in (1, 3, BLOCK + 1):
        rows = _v_rows(rng, size, count)
        got = grad_casimir_F(template, rows)
        assert got.flags.c_contiguous
        assert np.array_equal(got, [_grad_casimir_F_loop(row) for row in rows])
        assert np.array_equal(grad_casimir_F(template.replace_coords(rows[0])), got[0])


@pytest.mark.parametrize("m", [1, 2, 3, 7])
def test_batched_grad_casimir_C_matches_per_state_formula(rng, m):
    template = ab_state(np.ones(m + 1), np.ones(m))
    for count in (1, 3, BLOCK + 1):
        rows = _ab_rows(rng, m, count)
        got = grad_casimir_C(template, rows)
        assert got.flags.c_contiguous
        assert np.array_equal(got, [_grad_casimir_C_loop(row, m) for row in rows])
        assert np.array_equal(grad_casimir_C(template.replace_coords(rows[0])), got[0])


def test_block_residuals_equal_one_state_residuals(rng):
    v, ab = v_state(np.ones(9)), ab_state(np.ones(4), np.ones(3))
    v_rows, ab_rows = _v_rows(rng, 9, 5), _ab_rows(rng, 3, 5)
    cases = (
        (lambda s, rows=None: casimir_residual("pi1-v", grad_casimir_F, s, rows), v, v_rows),
        (lambda s, rows=None: casimir_residual("pi1-ab", grad_casimir_C, s, rows), ab, ab_rows),
        (lambda s, rows=None: lenard_residual("v", s, rows=rows), v, v_rows),
        (lambda s, rows=None: lenard_residual("ab", s, rows=rows), ab, ab_rows),
        (lambda s, rows=None: lenard_residual("ab", s, 1e-6, rows), ab, ab_rows),
        (lambda s, rows=None: compatibility_residual("pi1-v", "pi3-v", 2.5, s, rows=rows), v, v_rows),
    )
    for residual, template, rows in cases:
        one = [residual(template.replace_coords(row)) for row in rows]
        assert all(isinstance(r, float) for r in one)
        assert residual(template, rows).tolist() == one


def test_block_of_the_wrong_width_is_rejected(rng):
    with pytest.raises(DimensionError):
        jacobi_residual("pi3-v", v_state(np.ones(7)), rows=_v_rows(rng, 8, 2))


# ---------------------------------------------------------------------------
# mutation coverage: every single-monomial defect trips some gate
# ---------------------------------------------------------------------------

_GATES = {"jacobi": JACOBI_TOL, "compat": JACOBI_TOL, "lenard": LENARD_TOL, "casimir": CASIMIR_TOL}
_CASIMIR_GRADS = {"pi1-v": grad_casimir_F, "pi1-ab": grad_casimir_C}


def _mutants():
    """(structure name, entry, monomial index, mutant structure): one monomial scaled by 1.5."""
    for name, size in (("pi1-v", 7), ("pi3-v", 7), ("pi1-ab", 3), ("pi3-ab", 3)):
        struct = STRUCTURES[name]
        template = v_state(np.ones(size)) if struct.chart == VOLTERRA_V else ab_state(np.ones(size + 1), np.ones(size))
        for entry, monos in struct.table(template).items():
            for k, (coef, powers) in enumerate(monos):
                table = dict(struct.table(template))
                table[entry] = monos[:k] + [(1.5 * coef, powers)] + monos[k + 1:]
                yield name, entry, k, PoissonStructure(name, struct.chart, lambda s, t=table: t, struct.degree)


def _excesses(monkeypatch, name, mutant, rng):
    """The checks whose worst residual over 3 states exceeds the gate, with the mutant in place."""
    monkeypatch.setitem(STRUCTURES, name, mutant)
    chart = "v" if mutant.chart == VOLTERRA_V else "ab"
    rows = _v_rows(rng, 7, 3) if chart == "v" else _ab_rows(rng, 3, 3)
    template = v_state(rows[0]) if chart == "v" else ab_state(rows[0][:4], rows[0][4:])
    worst = {
        "jacobi": jacobi_residual(name, template, rows=rows),
        "compat": np.concatenate([compatibility_residual(f"pi1-{chart}", f"pi3-{chart}", lam, template, rows=rows)
                                  for lam in (1.0, 2.5)]),
        "lenard": lenard_residual(chart, template, rows=rows),
    }
    if name in _CASIMIR_GRADS:
        worst["casimir"] = casimir_residual(name, _CASIMIR_GRADS[name], template, rows)
    return {check for check, values in worst.items() if np.max(values) > _GATES[check]}


def test_every_single_monomial_mutant_fails_a_gate(monkeypatch, rng):
    mutants = list(_mutants())
    assert len(mutants) == 72
    for name, entry, k, mutant in mutants:
        with monkeypatch.context() as patch:
            assert _excesses(patch, name, mutant, rng), (name, entry, k)
    # with every mutant gone, the registry structures pass again
    rows = _v_rows(rng, 7, 3)
    assert np.max(jacobi_residual("pi3-v", v_state(rows[0]), rows=rows)) < JACOBI_TOL


def test_pi3_v_leading_mutant_is_caught_only_by_lenard(monkeypatch, rng):
    # 2 v1^2 v2 -> 3 v1^2 v2 in {v1, v2} keeps the Jacobi identity and both
    # pencils; only the Lenard ladder sees it
    (name, entry, k, mutant), = [m for m in _mutants() if m[0] == "pi3-v" and m[1:3] == ((0, 1), 0)]
    assert _excesses(monkeypatch, name, mutant, rng) == {"lenard"}
