import numpy as np
import pytest

from conftest import central_difference, random_ab, random_c, random_qp, random_v, stack
from jacobi_reference import dense_jacobi_residual, dense_tensors
from lax_reference import assembled_pair

from lattice_flows import ChartMismatch, DimensionError, ParityError, State, ab_state, c_state, u_state, v_state
from lattice_flows import poisson
from lattice_flows.catalog import LENARD, SYSTEMS
from lattice_flows.cli import _AB, _C, _V, BLOCK, SUITES, _involution
from lattice_flows.lax import (ab_lax, grad_casimir_C, grad_casimir_F, grad_trace_invariant, lax_residual,
                               trace_columns)
from lattice_flows.poisson import (
    PoissonStructure,
    _pi3_v_table,
    compatibility_residual,
    hamiltonian_flow_check,
    jacobi_residual,
    lenard_residual,
    STRUCTURES,
)
from lattice_flows.states import C_VARS, FLASCHKA_AB, VOLTERRA_V, matvecs, row_norms
from lattice_flows.systems import ab_field, km_field, toda_ab_field, vd_field
from lattice_flows.transforms import c_to_v_block, d_transform_block

JACOBI_TOL = 1e-6
CASIMIR_TOL = 1e-10
LENARD_TOL = 1e-7

#: Frozen pushforward scales: the c-bracket maps onto half of pi3-v, and the
#: chain-to-(a,b) map carries pi1-v onto half of pi1-ab and pi3-v onto pi3-ab.
C_TO_V_PI3_SCALE = 2.0
D_MAP_PI1_SCALE = 2.0
D_MAP_PI3_SCALE = 1.0
S = STRUCTURES


def _tensor(structure, block):
    """pi at each state, (N, n, n), of a structure or of the pencil first + lam * second of a triple."""
    if isinstance(structure, tuple):
        first, second, lam = structure
        return first(block) + lam * second(block)
    return structure(block)


def _structure(spec):
    """A registry structure by name, or the (first, second, lambda) pencil of a (name, name, lambda) triple."""
    if isinstance(spec, tuple):
        first, second, lam = spec
        return S[first], S[second], lam
    return S[spec]


def _jacobi(struct, block):
    """The Jacobi residual of a structure, or the compatibility residual of a pencil triple."""
    if isinstance(struct, tuple):
        return compatibility_residual(*struct, block)
    return jacobi_residual(struct, block)


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
        got = S["pi1-v"](v_state(v))[0]
        assert np.max(np.abs(got - golden_pi1_matrix(v))) < 1e-12


def test_pi1_v_needs_odd_dimension(rng):
    with pytest.raises(ParityError):
        S["pi1-v"](random_v(rng, 6))[0]


def test_c_bracket_constant_matrix():
    got = S["c-bracket"](c_state([1, 2, 3, 4, 5]))[0]
    expected = np.zeros((5, 5))
    for j in range(3):
        expected[j, j + 1] = 1
    expected[2, 4] = 1
    expected -= expected.T
    assert np.array_equal(got, expected)


def test_pi1_ab_entries_m2():
    got = S["pi1-ab"](ab_state([1, 1, 1], [5, 7]))[0]
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
        pi = S[name](state)[0]
        assert np.array_equal(pi, -pi.T), name


def test_jacobi_residuals(rng):
    assert jacobi_residual(S["c-bracket"], random_c(rng, 8))[0] == 0.0
    for n in (5, 7, 9):
        for _ in range(50):
            state = random_v(rng, n)
            assert jacobi_residual(S["pi1-v"], state)[0] < JACOBI_TOL
            assert jacobi_residual(S["pi3-v"], state)[0] < JACOBI_TOL
    for m in (2, 3):
        for _ in range(25):
            state = random_ab(rng, m)
            assert jacobi_residual(S["pi1-ab"], state)[0] < JACOBI_TOL
            assert jacobi_residual(S["pi3-ab"], state)[0] < JACOBI_TOL


def test_jacobi_analytic_matches_fd(rng):
    # the analytic d pi against the test's own central differences of pi
    for name, state in (("pi1-v", random_v(rng, 7)), ("pi3-ab", random_ab(rng, 3))):
        struct = S[name]
        fd = _reference_dpi(struct, state, 1e-5)
        assert np.max(np.abs(dense_tensors(struct, state)[1][..., 0] - fd)) <= 1e-7 * np.max(np.abs(fd))
        assert _matches_loop(jacobi_residual(struct, state)[0], struct, state, 1e-5)


def test_jacobi_residual_propagates_nan():
    # a NaN cyclic sum must not be dropped by the max over index triples
    state = v_state([np.nan, 1.0, 1.5, 0.5, 1.2])
    assert np.isnan(jacobi_residual(S["pi3-v"], state)[0])


_LAMBDAS = (1.0, 2.5, -0.75)
_REFERENCE_BLOCKS = (  # (sampler, structures and pencils, sizes): n for c and v, m for ab
    (_C, ("c-bracket",), (5, 6, 7, 9, 15, 25)),
    (_V, ("pi3-v",), (5, 6, 7, 8, 9, 12, 15, 20, 25)),
    (_V, ("pi1-v",) + tuple(("pi1-v", "pi3-v", lam) for lam in _LAMBDAS), (5, 7, 9, 11, 15, 25)),
    (_AB, ("pi1-ab", "pi3-ab") + tuple(("pi1-ab", "pi3-ab", lam) for lam in _LAMBDAS), (2, 3, 4, 7, 12)),
)
_REFERENCE_CASES = [(sample, structure, size) for sample, structures, sizes in _REFERENCE_BLOCKS
                    for structure in structures for size in sizes]


@pytest.mark.parametrize("sample, structure, size", _REFERENCE_CASES,
                         ids=[f"{structure}-{size}" for _, structure, size in _REFERENCE_CASES])
def test_jacobi_residual_keeps_every_bit_of_the_dense_sum(structure, sample, size):
    # the live groups of a block of verify's states, summed in ascending l,
    # against the sum over every l of the dense tensors: the skipped groups
    # add exact zeros on finite states, so every bit is kept
    struct = _structure(structure)
    for seed, count in ((0, 1), (1, 7), (2, BLOCK)):
        block = sample(np.random.default_rng(seed), count, size, size)
        got = _jacobi(struct, block)
        assert got.tobytes() == dense_jacobi_residual(struct, block).tobytes()


def _dense_table(state):
    """A table whose every entry reads every coordinate: not a Poisson
    bracket, but each (triple, l) group of its cyclic sums has three live terms."""
    n = state.dim
    return {(i, j): [(complex(1 + i - 0.7 * j), tuple((v, 1 + (i * v + j) % 3) for v in range(n)))]
            for i in range(n) for j in range(i + 1, n)}


def test_jacobi_residual_keeps_the_grouping_of_three_live_terms():
    # no catalog structure or pencil has a group with three live terms, where
    # (A + B) + C and A + (B + C) round apart; this table has nothing else
    dense = PoissonStructure("dense", VOLTERRA_V, _dense_table)
    for n in (4, 7, 9):
        block = _V(np.random.default_rng(n), BLOCK, n, None)
        for struct in (dense, (dense, S["pi3-v"], -0.75)):
            got = _jacobi(struct, block)
            assert got.tobytes() == dense_jacobi_residual(struct, block).tobytes()


_NAN_CASES = (
    [(v_state(np.ones(7)), s) for s in ("pi1-v", "pi3-v") + tuple(("pi1-v", "pi3-v", lam) for lam in _LAMBDAS)]
    + [(ab_state(np.ones(4), np.ones(3)), s) for s in ("pi3-ab",) + tuple(("pi1-ab", "pi3-ab", lam)
                                                                          for lam in _LAMBDAS)]
)


@pytest.mark.parametrize("state, structure", _NAN_CASES, ids=[str(s) for _, s in _NAN_CASES])
def test_a_nan_at_any_coordinate_makes_the_residual_nan(state, structure):
    # row c of the block holds a NaN at coordinate c: each of these tensors
    # reads every coordinate in a live term, so every row's residual is NaN
    rows = np.random.default_rng(3).uniform(0.5, 1.5, (7, 7)).astype(complex)
    np.fill_diagonal(rows, np.nan)
    with np.errstate(invalid="ignore"):
        assert np.isnan(_jacobi(_structure(structure), state.replace_coords(rows))).all()


def test_a_structural_zero_is_not_multiplied_by_a_nan():
    # the one change from the dense sum: pi1-ab reads a_1 and a_4 only in
    # pi[a_1, b_1] and pi[a_4, b_3], which meet no live d pi entry, so a NaN
    # there no longer reaches the residual through the zeros of d pi; the
    # b's are read by no entry of pi1-ab at all
    state = ab_state(np.ones(4), np.ones(3))
    rows = np.random.default_rng(4).uniform(0.5, 1.5, (7, 7)).astype(complex)
    clean = jacobi_residual(S["pi1-ab"], state.replace_coords(rows))
    np.fill_diagonal(rows, np.nan)
    with np.errstate(invalid="ignore"):
        got = jacobi_residual(S["pi1-ab"], state.replace_coords(rows))
        dense = dense_jacobi_residual(S["pi1-ab"], state.replace_coords(rows))
    assert np.flatnonzero(np.isnan(dense)).tolist() == [0, 1, 2, 3]
    assert np.flatnonzero(np.isnan(got)).tolist() == [1, 2]
    assert got[[0, 3, 4, 5, 6]].tobytes() == clean[[0, 3, 4, 5, 6]].tobytes()


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
    if isinstance(struct, tuple):
        first, second, lam = struct
        return _reference_pi(first, state) + lam * _reference_pi(second, state)
    return _eval_table(struct.table_builder(state), state.array)


def _reference_dpi(struct, state, fd_step=None):
    if fd_step is not None:
        return central_difference(lambda s: _reference_pi(struct, s), state, fd_step)
    if isinstance(struct, tuple):
        first, second, lam = struct
        return _reference_dpi(first, state) + lam * _reference_dpi(second, state)
    return _eval_table_derivatives(struct.table_builder(state), state.array)


def _jacobi_loop(struct, state, fd_step=None):
    """The scalar quadruple loop over the reference tensors: the bit-exact reference."""
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


def _matches_loop(got, struct, state, fd_step=None):
    """got is the scalar loop's residual bit for bit; with an fd_step the loop
    runs on central differences of pi, and got must be within 1e-8 of the
    scale of its terms, max |pi| * max |d pi|."""
    ref = _jacobi_loop(struct, state, fd_step)
    if fd_step is None:
        return got == ref
    scale = np.max(np.abs(_reference_pi(struct, state))) * np.max(np.abs(_reference_dpi(struct, state, fd_step)))
    return abs(got - ref) <= 1e-8 * scale


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
    # keep the loop's summation order; == rather than approx is the point.
    # With an fd_step the loop runs on the test's central differences of pi
    # instead: a cross-check of the analytic derivatives (see _matches_loop)
    struct = _structure(structure)
    for _ in range(2):
        state = sample(rng, size)
        assert _matches_loop(_jacobi(struct, state)[0], struct, state, fd_step)
    states = [sample(rng, size) for _ in range(3)]
    got = _jacobi(struct, stack(states))
    assert all(_matches_loop(r, struct, s, fd_step) for r, s in zip(got.tolist(), states))


def test_jacobi_residual_detects_a_corrupted_coefficient(rng):
    # negative control: scaling one monomial of an interior pi3-v entry breaks
    # the Jacobi identity, and both kernels must see it
    table = dict(_pi3_v_table(9))
    (coef, powers), *rest = table[(2, 3)]
    table[(2, 3)] = [(1.5 * coef, powers), *rest]
    corrupted = PoissonStructure("pi3-v-corrupted", VOLTERRA_V, lambda s: table)
    for _ in range(5):
        state = random_v(rng, 9)
        residual = jacobi_residual(corrupted, state)[0]
        assert residual > 1e-3
        assert residual == _jacobi_loop(corrupted, state)
        assert jacobi_residual(S["pi3-v"], state)[0] < JACOBI_TOL


def test_compatibility(rng):
    for lam in (1.0, 2.5):
        for n in (5, 7, 9):
            for _ in range(25):
                assert compatibility_residual(S["pi1-v"], S["pi3-v"], lam, random_v(rng, n))[0] < JACOBI_TOL
        for _ in range(25):
            assert compatibility_residual(S["pi1-ab"], S["pi3-ab"], lam, random_ab(rng, 3))[0] < JACOBI_TOL


def test_pencil_at_lambda_zero_is_first_structure(rng):
    state = random_v(rng, 7)
    assert compatibility_residual(S["pi1-v"], S["pi3-v"], 0.0, state)[0] == jacobi_residual(S["pi1-v"], state)[0]


def test_a_pencil_needs_structures_on_one_chart(rng):
    # checked before either structure reads the state, whichever chart it is on
    for state in (random_v(rng, 7), random_ab(rng, 3)):
        with pytest.raises(ChartMismatch, match="pencil requires structures on the same chart"):
            compatibility_residual(S["pi1-v"], S["pi1-ab"], 1.0, state)[0]


def _casimir(structure, grad_c):
    """The Casimir residual |pi grad C| at each state: a flow check with X = 0."""
    return lambda block: hamiltonian_flow_check(structure, block, grad_c(block))


def _flow(structure, grad_h, field):
    """|pi grad H - X| at each state, X the field evaluated once on the block's columns."""
    return lambda block: hamiltonian_flow_check(structure, block, grad_h(block), field(block, block.columns))


def test_casimir_residuals(rng):
    for n in (5, 7, 9):
        for _ in range(50):
            assert _casimir(S["pi1-v"], grad_casimir_F)(random_v(rng, n))[0] < CASIMIR_TOL
    for m in (2, 3):
        for _ in range(50):
            assert _casimir(S["pi1-ab"], grad_casimir_C)(random_ab(rng, m))[0] < CASIMIR_TOL


def test_casimir_residual_constant_function(rng):
    state = random_v(rng, 7)
    assert _casimir(S["pi3-v"], lambda block: np.zeros(block.rows.shape))(state)[0] == 0.0


def _grad_h_vd(block):
    """Gradient of the vd flow Hamiltonian tr(L^4)/8, half that of tr(L^4)/4."""
    return 0.5 * grad_trace_invariant(SYSTEMS["vd"].lax, block, [4])[0]


def test_hamiltonian_flow_vd(rng):
    for n in (5, 7):
        for _ in range(50):
            state = random_v(rng, n)
            r = _flow(S["pi1-v"], _grad_h_vd, vd_field)(state)[0]
            assert r < 1e-10


def _grad_h2_ab(block):
    return grad_trace_invariant(ab_lax, block, [2])[0]


def test_hamiltonian_flow_ab(rng):
    for m in (2, 3):
        for _ in range(50):
            state = random_ab(rng, m)
            r = _flow(S["pi1-ab"], _grad_h2_ab, ab_field)(state)[0]
            assert r < 1e-10


def test_hamiltonian_flow_zero_state():
    state = ab_state([0, 0, 0], [0, 0])
    r = _flow(S["pi1-ab"], _grad_h2_ab, ab_field)(state)[0]
    assert r == 0.0


def test_lenard_residual_keeps_the_bits_of_pi3_grad_h2_minus_pi1_grad_h4(rng):
    # the ladder is a flow check of H4 under pi1 against X = pi3 grad H2:
    # its difference is the negation of pi3 grad H2 - pi1 grad H4, so its norm has the same bits
    # H = scale * tr(L^order) / order as (order, scale): the v row's H2, H4 are
    # tr(L^4)/2, tr(L^8)/4 and the ladder takes the ab row's tr(L^4)/4 twice
    for chart, rows, (o2, s2), (o4, s4) in (("v", _v_rows(rng, 9, 5), (4, 2), (8, 2)),
                                            ("ab", _ab_rows(rng, 3, 5), (2, 1), (4, 2))):
        pair = LENARD[chart]
        block = v_state(rows) if chart == "v" else State(FLASCHKA_AB, rows, 4)
        g2, g4 = grad_trace_invariant(pair.row.lax, block, [o2, o4])
        want = row_norms(matvecs(pair.pi3(block), s2 * g2) - matvecs(pair.pi1(block), s4 * g4))
        assert np.array_equal(lenard_residual(pair, block), want)


def test_lenard_both_charts(rng):
    for n in (5, 7, 9):
        for _ in range(50):
            assert lenard_residual(LENARD["v"], random_v(rng, n))[0] < LENARD_TOL
    for m in (2, 3):
        for _ in range(50):
            assert lenard_residual(LENARD["ab"], random_ab(rng, m))[0] < LENARD_TOL


def _fd_lenard_residual(chart, system, h2, h4, state, fd_step=1e-6):
    """pi3 grad H2 - pi1 grad H4 with central differences of H = scale * tr(L^order) / order."""
    def grad(order, scale):
        def h(s):
            return scale * trace_columns(assembled_pair(SYSTEMS[system].lax, s)[0], [order])[0][0]

        return central_difference(h, state, fd_step)

    return np.linalg.norm(S[f"pi3-{chart}"](state)[0] @ grad(*h2) - S[f"pi1-{chart}"](state)[0] @ grad(*h4))


def test_lenard_fd_cross_check(rng):
    # the ladder with the test's own central-difference gradients, at the
    # orders and scales of catalog.LENARD: ab (2, 1), (4, 2); v (4, 2), (8, 2)
    state = v_state(rng.uniform(0.8, 1.2, 7))
    assert _fd_lenard_residual("v", "vd", (4, 2), (8, 2), state) < 1e-6
    state = random_ab(rng, 3)
    assert _fd_lenard_residual("ab", "ab", (2, 1), (4, 2), state) < 1e-7


def test_lenard_parity_error(rng):
    # at n = 4 vd offers no H4: pi1 must name the parity before the row's names are read
    for n in (4, 6):
        with pytest.raises(ParityError, match="pi1-v requires odd n"):
            lenard_residual(LENARD["v"], random_v(rng, n))[0]


def test_lenard_rejects_a_state_off_its_chart(rng):
    with pytest.raises(ChartMismatch):
        lenard_residual(LENARD["v"], random_ab(rng, 3))[0]


def _bracket(structure, f, g, state, fd_step=1e-6):
    """{f, g}(s) = grad f . pi(s) . grad g, with central-difference gradients."""
    pi = S[structure](state)[0]
    return complex(central_difference(f, state, fd_step) @ pi @ central_difference(g, state, fd_step))


def test_bracket_eval_antisymmetry(rng):
    state = random_v(rng, 7)

    def f(s):
        return complex(np.sum(s.array**2))

    assert abs(_bracket("pi3-v", f, f, state)) < 1e-9


def test_bracket_eval_constant_bracket(rng):
    state = random_c(rng, 6)
    val = _bracket("c-bracket", lambda s: s.array[0], lambda s: s.array[1], state)
    assert abs(val - 1.0) < 1e-9


def test_involution_of_invariants(rng):
    for m in (3, 4):
        for _ in range(50):
            state = random_ab(rng, m)
            pi = S["pi1-ab"](state)[0]
            [g2], [g4], [g6] = grad_trace_invariant(ab_lax, state, [2, 4, 6])
            for gk in (g4, g6):
                assert abs(complex(g2 @ pi @ gk)) < 1e-9


def push_tensor(structure, kernel, state):
    """J pi J^T, with J's columns the kernel's JVPs of the unit directions at d copies of the state."""
    d = state.dim
    jac = kernel(stack([state] * d), np.eye(d))[1]
    return jac @ structure(state)[0] @ jac.T


def _relative_gap(pushed, target):
    """max |pushed - target| over max |target|: pi3-v's cubic entries pass
    1e5 at n near 25, where the absolute gap reads up to 5e-10, a few ulps."""
    return np.max(np.abs(pushed - target)) / np.max(np.abs(target))


def test_c_bracket_pushes_to_half_pi3_v(rng):
    for n in (5, 7):
        for _ in range(20):
            state = random_c(rng, n + 1)
            pushed = push_tensor(S["c-bracket"], c_to_v_block, state)
            target = S["pi3-v"](c_to_v_block(state))[0]
            assert _relative_gap(C_TO_V_PI3_SCALE * pushed, target) < 1e-12


def test_every_c_bracket_entry_mutant_fails_the_push_check(rng):
    # d pi = 0, so the c-bracket's Jacobi residual is identically 0 whatever
    # its table holds; the push onto pi3-v is the check that sees a wrong entry
    for nc in (6, 8):
        state = random_c(rng, nc)
        target = S["pi3-v"](c_to_v_block(state))[0]
        table = S["c-bracket"].table_builder(state)
        for entry, monos in table.items():
            mutated = {**table, entry: [(1.5 * coef, powers) for coef, powers in monos]}
            mutant = PoissonStructure("c-bracket", C_VARS, lambda s, t=mutated: t)
            assert jacobi_residual(mutant, state)[0] == 0.0
            pushed = push_tensor(mutant, c_to_v_block, state)
            assert _relative_gap(C_TO_V_PI3_SCALE * pushed, target) > 1e-12, (nc, entry)


def test_d_map_pushes_pi1_to_half_pi1_ab(rng):
    for n in (5, 7):
        for _ in range(20):
            state = random_v(rng, n)
            pushed = push_tensor(S["pi1-v"], d_transform_block, state)
            target = S["pi1-ab"](d_transform_block(state))[0]
            assert np.max(np.abs(D_MAP_PI1_SCALE * pushed - target)) < 1e-12


def test_d_map_pushes_pi3_onto_pi3_ab(rng):
    for n in (5, 7):
        for _ in range(20):
            state = random_v(rng, n)
            pushed = push_tensor(S["pi3-v"], d_transform_block, state)
            target = S["pi3-ab"](d_transform_block(state))[0]
            assert np.max(np.abs(D_MAP_PI3_SCALE * pushed - target)) < 1e-12


def test_plans_are_compiled_once_per_structure_and_size(monkeypatch, rng):
    builds = []

    def counted(state):
        builds.append(state.dim)
        return _pi3_v_table(state.dim)

    monkeypatch.setattr(poisson, "_PLANS", {})
    counting = PoissonStructure("pi3-v-counted", VOLTERRA_V, counted)
    first, second = random_v(rng, 9), random_v(rng, 9)
    assert np.array_equal(counting(first)[0], STRUCTURES["pi3-v"](first)[0])
    counting(second)[0]
    assert builds == [9] and list(poisson._PLANS) == [(counting, 9, None), (STRUCTURES["pi3-v"], 9, None)]
    counting(random_v(rng, 11))[0]
    assert builds == [9, 11]
    # the chart is checked on every call, hit or miss
    with pytest.raises(ChartMismatch):
        counting(random_ab(rng, 4))[0]
    # a mutant of the same name and chart is another structure, with its own plan
    table = dict(_pi3_v_table(9))
    (coef, powers), *rest = table[(2, 3)]
    table[(2, 3)] = [(1.5 * coef, powers), *rest]
    mutant = PoissonStructure("pi3-v", VOLTERRA_V, lambda s: table)
    assert not np.array_equal(mutant(first)[0], STRUCTURES["pi3-v"](first)[0])
    assert (mutant, 9, None) in poisson._PLANS and len(poisson._PLANS) == 4


def test_structures_registry_contents():
    assert set(STRUCTURES) == {"c-bracket", "pi1-v", "pi3-v", "pi1-ab", "pi3-ab"}
    # the casimir suite pairs pi1-v with vd's F and pi1-ab with ab's C, both catalog gradients
    assert {name: check.check for name, check in SUITES["casimir"].checks.items()} == {
        "pi1-v": "casimir-F", "pi1-ab": "casimir-C"}
    state = random_v(np.random.default_rng(0), 7)
    assert np.array_equal(SYSTEMS["vd"].invariant_gradients(state, ["F"])["F"], grad_casimir_F(state))
    state = random_ab(np.random.default_rng(0), 3)
    assert np.array_equal(SYSTEMS["ab"].invariant_gradients(state, ["C"])["C"], grad_casimir_C(state))


def test_lenard_zero_at_origin():
    state = ab_state([0, 0, 0], [0, 0])
    assert lenard_residual(LENARD["ab"], state)[0] == 0.0


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
        block = template.replace_coords(draw(rng, size, count, imag))
        states = [template.replace_coords(row) for row in block.rows]
        for structure in structures:
            struct = _structure(structure)
            # pi is a C-ordered (N, n, n) stack: states.matvecs takes its bits from each slice's layout
            got_pi = _tensor(struct, block)
            assert got_pi.flags.c_contiguous and got_pi.shape == (count, template.dim, template.dim), structure
            got_dpi = dense_tensors(struct, block)[1]  # scattered from the compact rows
            ref_pi = np.stack([_reference_pi(struct, s) for s in states])
            ref_dpi = np.stack([_reference_dpi(struct, s) for s in states], axis=-1)
            if imag:
                for got, ref in ((got_pi, ref_pi), (got_dpi, ref_dpi)):
                    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), structure
            else:
                assert np.array_equal(got_pi, ref_pi), structure
                assert np.array_equal(got_dpi, ref_dpi), structure
                assert np.array_equal(_tensor(struct, states[0])[0], ref_pi[0]), structure
                assert np.array_equal(dense_tensors(struct, states[0])[1], ref_dpi[..., :1]), structure


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
        got = grad_casimir_F(template.replace_coords(rows))
        assert got.flags.c_contiguous
        assert np.array_equal(got, [_grad_casimir_F_loop(row) for row in rows])
        assert np.array_equal(grad_casimir_F(template.replace_coords(rows[0])), got[:1])


@pytest.mark.parametrize("m", [1, 2, 3, 7])
def test_batched_grad_casimir_C_matches_per_state_formula(rng, m):
    template = ab_state(np.ones(m + 1), np.ones(m))
    for count in (1, 3, BLOCK + 1):
        rows = _ab_rows(rng, m, count)
        got = grad_casimir_C(template.replace_coords(rows))
        assert got.flags.c_contiguous
        assert np.array_equal(got, [_grad_casimir_C_loop(row, m) for row in rows])
        assert np.array_equal(grad_casimir_C(template.replace_coords(rows[0])), got[:1])


def _lax_along(key, field):
    """The Lax residual along velocities from one field call per state."""
    return lambda block: lax_residual(SYSTEMS[key].lax, block, np.array([field(block, r) for r in block.rows]).T)


def test_block_residuals_equal_one_state_residuals(rng):
    v, ab = v_state(np.ones(9)), ab_state(np.ones(4), np.ones(3))
    v_rows, ab_rows = _v_rows(rng, 9, 5), _ab_rows(rng, 3, 5)
    u, toda = u_state(np.ones(7)), ab_state(np.ones(6), np.ones(7))
    u_rows, toda_rows = _v_rows(rng, 7, 5), rng.uniform(-1.0, 1.0, (5, 13))
    cases = (
        (_casimir(S["pi1-v"], grad_casimir_F), v, v_rows),
        (_casimir(S["pi1-ab"], grad_casimir_C), ab, ab_rows),
        (_flow(S["pi1-v"], _grad_h_vd, vd_field), v, v_rows),
        (lambda block: lenard_residual(LENARD["v"], block), v, v_rows),
        (lambda block: lenard_residual(LENARD["ab"], block), ab, ab_rows),
        (lambda block: compatibility_residual(S["pi1-v"], S["pi3-v"], 2.5, block), v, v_rows),
        (_lax_along("km", km_field), u, u_rows),
        (_lax_along("toda", toda_ab_field), toda, toda_rows),
        (_lax_along("vd", vd_field), v, v_rows),
        (_lax_along("ab", ab_field), ab, ab_rows),
        (lambda block: _involution(block, "H2", "H6"), ab, ab_rows),
    )
    for residual, template, rows in cases:
        one = [residual(template.replace_coords(row))[0] for row in rows]
        assert np.array(residual(template.replace_coords(rows))).tolist() == np.array(one).tolist()


def test_velocities_of_another_shape_are_rejected(rng):
    # a block's rows always fit its chart and size; the velocities must be its (d, N) columns
    block = v_state(_v_rows(rng, 7, 3))
    velocities = vd_field(block, block.columns)
    assert np.max(lax_residual(SYSTEMS["vd"].lax, block, velocities)) < 1e-10
    for wrong in (velocities.T, velocities[:, :2], velocities[:-1], velocities[:, 0]):
        with pytest.raises(DimensionError, match="tangent columns"):
            lax_residual(SYSTEMS["vd"].lax, block, wrong)


def test_a_flow_of_another_shape_is_rejected(rng):
    # X is the field's (d, N) columns, as lax_residual's velocities are, not (N, d) rows
    block = v_state(_v_rows(rng, 7, 3))
    field = vd_field(block, block.columns)
    assert np.max(_flow(S["pi1-v"], _grad_h_vd, vd_field)(block)) < 1e-10
    for wrong in (field.T, field[:, :2], field[:-1], field[:, 0]):
        with pytest.raises(DimensionError, match="tangent columns"):
            hamiltonian_flow_check(S["pi1-v"], block, _grad_h_vd(block), wrong)


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
        for entry, monos in struct.table_builder(template).items():
            for k, (coef, powers) in enumerate(monos):
                table = dict(struct.table_builder(template))
                table[entry] = monos[:k] + [(1.5 * coef, powers)] + monos[k + 1:]
                yield name, entry, k, PoissonStructure(name, struct.chart, lambda s, t=table: t)


def _excesses(name, mutant, rng):
    """The checks whose worst residual over 3 states exceeds the gate, with the
    mutant in place of its registry structure in its chart's Lenard pair."""
    chart = "v" if mutant.chart == VOLTERRA_V else "ab"
    pair = LENARD[chart]._replace(**{name.split("-")[0]: mutant})
    block = v_state(_v_rows(rng, 7, 3)) if chart == "v" else State(FLASCHKA_AB, _ab_rows(rng, 3, 3), 4)
    worst = {
        "jacobi": jacobi_residual(mutant, block),
        "compat": np.concatenate([compatibility_residual(pair.pi1, pair.pi3, lam, block) for lam in (1.0, 2.5)]),
        "lenard": lenard_residual(pair, block),
    }
    if name in _CASIMIR_GRADS:
        worst["casimir"] = _casimir(mutant, _CASIMIR_GRADS[name])(block)
    return {check for check, values in worst.items() if np.max(values) > _GATES[check]}


def test_every_single_monomial_mutant_fails_a_gate(rng):
    mutants = list(_mutants())
    assert len(mutants) == 72
    for name, entry, k, mutant in mutants:
        assert _excesses(name, mutant, rng), (name, entry, k)
    # the registry structures themselves pass
    assert np.max(jacobi_residual(S["pi3-v"], v_state(_v_rows(rng, 7, 3)))) < JACOBI_TOL


def test_pi3_v_leading_mutant_is_caught_only_by_lenard(rng):
    # 2 v1^2 v2 -> 3 v1^2 v2 in {v1, v2} keeps the Jacobi identity and both
    # pencils; only the Lenard ladder sees it
    (name, entry, k, mutant), = [m for m in _mutants() if m[0] == "pi3-v" and m[1:3] == ((0, 1), 0)]
    assert _excesses(name, mutant, rng) == {"lenard"}
