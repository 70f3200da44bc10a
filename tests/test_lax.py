import tracemalloc

import numpy as np
import pytest

import lax_reference
from lax_reference import assembled_pair
from conftest import random_ab, random_toda_ab, random_u, random_v, run, stack

from lattice_flows import DimensionError, DomainError, State, UnsupportedDimension, ab_state, u_state, v_state
from lattice_flows.catalog import SYSTEMS, get_system
from lattice_flows.cli import BLOCK, SUITES
from lattice_flows.integrate import FixedStep, drift_report
from lattice_flows.lax import (
    X,
    Entry,
    _chain,
    _diagonal_sums,
    _matrix_power_tree,
    _matrix_powers,
    _power_chain,
    _probe,
    ab_lax,
    compile_lax,
    casimir_C_column,
    casimir_F_column,
    grad_casimir_C,
    grad_trace_invariant,
    lax_residual,
    trace_columns,
    vd_lax,
)
from lattice_flows.states import FLASCHKA_AB, row_norms
from lattice_flows.systems import ab_field, km_field, toda_ab_field, vd_field
from lattice_flows.transforms import d_transform_block

RESIDUAL_TOL = 1e-10


def _pair(system, state):
    """L, B and the sign at one state of a catalog system."""
    L, B, sign = assembled_pair(SYSTEMS[system].lax, state)
    return L[0], B[0], sign


def _dL(builder, block, ds):
    """dL along K velocities per state, a (d, K, N) array ``ds``, as a C-ordered
    (N, K, T, T) stack: the compiled plan's values by the chain rule,
    dr = ds / (slope * r), the values ``lax_residual`` takes, written at L's slots."""
    lax = builder(block)
    table, plan = lax.table, lax.L
    r = table.roots(block.columns)
    ds = np.asarray(ds, dtype=complex)
    values = plan.values(ds, None if r is None else ds / (table.slope * r[:, None]))
    out = np.zeros(values.shape[:0:-1] + (table.size, table.size), dtype=complex)
    out[..., plan.rows, plan.cols] = values.T
    return out


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
        velocities = np.array([field(s, s.array) for s in states]).T
        residuals = lax_residual(SYSTEMS[system].lax, stack(states), velocities)
        assert residuals.shape == (100,)
        worst = max(worst, np.max(residuals))
    assert worst < RESIDUAL_TOL


def test_residual_on_complex_ab_state():
    state = ab_state([0.3j, 0.5, 0.4, 0.2j], [-1.0, -0.8, -0.9])
    assert lax_residual(ab_lax, state, ab_field(state, state.columns))[0] < 1e-13


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
    block = State(FLASCHKA_AB, [[1, 1, 1, 1, 1], [0, 0, 0, 0, 0]], 3)
    assert SYSTEMS["ab"].invariant_columns(block, ["H2"])["H2"] == [6, 0]


def test_h2_equals_trace_invariant(rng):
    for _ in range(20):
        m = int(rng.integers(2, 5))
        state = random_ab(rng, m)
        a, b = state.array[: state.split], state.array[state.split :]
        closed_form = np.sum(b**2) + a[0] ** 2 + 2 * np.sum(a[1:-1] ** 2) + a[-1] ** 2
        assert abs(closed_form - _traces("ab", state, [2])[0]) < 1e-13


def test_vd_h2_is_four_times_the_closed_form(rng):
    # the paper's flow Hamiltonian v_{n-2} v_n + 2 v_{n-1} v_n + sum v_i v_{i+1}
    # + (1/2) sum v_i^2 (interior i) is tr(L^4)/8, a quarter of the H2 column
    for n in (5, 7, 9, 15):
        rows = rng.uniform(0.1, 2.0, (10, n))
        column = SYSTEMS["vd"].invariant_columns(v_state(rows), ["H2"])["H2"]
        for v, h2 in zip(rows, column):
            closed_form = (v[n - 3] * v[n - 1] + 2 * v[n - 2] * v[n - 1] + np.sum(v[: n - 2] * v[1 : n - 1])
                           + 0.5 * np.sum(v[1 : n - 2] ** 2))
            assert abs(h2 - 4 * closed_form) < 1e-12 * abs(h2)


def test_even_traces_real_on_real_states(rng):
    for _ in range(20):
        state = random_ab(rng, 3)
        for h in _traces("ab", state, [2, 4, 6]):
            assert abs(h.imag) < 1e-12


def test_casimir_C_examples():
    assert casimir_C_column(State(FLASCHKA_AB, [[1, 1, 1, 0, 0], [2, 3, 4, 0, 0]], 3)) == [1, 72]


def test_casimir_C_needs_m_at_least_1():
    state = ab_state([2], [])
    with pytest.raises(DimensionError, match="casimir_C_column needs m >= 1"):
        casimir_C_column(state)
    with pytest.raises(DimensionError, match="grad_casimir_C needs m >= 1"):
        grad_casimir_C(state)


def test_casimir_F_examples():
    assert casimir_F_column(v_state([[1, 1, 2, 2], [1, 1, 1, 2]])) == [0, 1]


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


FD_GRAD_TOL = 1e-6


def _fd_grad(system, state, order, h=1e-6):
    """Central differences of tr(L^order)/order in each coordinate of a real state."""
    base = state.array.real

    def f(x):
        return _traces(system, state.replace_coords(x), [order])[0]

    return np.array([(f(base + h * e) - f(base - h * e)) / (2 * h) for e in np.eye(state.dim)])


def test_grad_trace_invariant_matches_fd(rng):
    for system, sample in LAX_SAMPLES:
        state = sample(rng)
        for order in (3, 4):
            [[grad]] = grad_trace_invariant(SYSTEMS[system].lax, state, [order])
            fd = _fd_grad(system, state, order)
            for j in range(state.dim):
                assert abs(grad[j] - fd[j]) < FD_GRAD_TOL, (system, order, j)


def _single_direction_grads(system, block, orders, builder=None):
    """The gradients from one builder call per state and unit direction: the bit-exact reference.
    ``builder`` stands in for the system's own."""
    d, builder = block.dim, builder or SYSTEMS[system].lax
    grads = np.zeros((len(orders), len(block.rows), d), dtype=complex)
    for r, row in enumerate(block.rows):
        state = block.replace_coords(row)
        for j, e in enumerate(np.eye(d)):
            L, dL = assembled_pair(builder, state)[0], _dL(builder, state, e[:, None, None])
            for i, k in enumerate(orders):
                grads[i, r, j] = np.trace(np.linalg.matrix_power(L[0], k - 1) @ dL[0, 0])
    return grads


@pytest.mark.parametrize("system, sample", LAX_SAMPLES, ids=_LAX_IDS)
def test_grad_trace_invariant_is_exactly_the_per_coordinate_trace(rng, system, sample):
    # the batched gradient must keep every bit of the one-direction-at-a-time
    # form, also where L has more than 8 rows and a trace sums pairwise
    orders = (1, 2, 3, 4, 6)
    for draw in (sample, _LARGER_SAMPLES[system]):
        block = stack([draw(rng) for _ in range(5)])
        grads = grad_trace_invariant(SYSTEMS[system].lax, block, orders)
        assert grads.shape == (len(orders), 5, block.dim)
        assert np.array_equal(grads, _single_direction_grads(system, block, orders))


def _compiled(system, size):
    """The system's compiled Lax table at chain size ``size`` (m for ab)."""
    ones = np.ones(size)
    template = {"km": lambda: u_state(ones), "vd": lambda: v_state(ones),
                "toda": lambda: ab_state(ones[1:], ones), "ab": lambda: ab_state(np.ones(size + 1), ones)}[system]()
    return SYSTEMS[system].lax(template)


def _table(system, size):
    """The system's Lax table at chain size ``size`` (m for ab), uncompiled."""
    return _compiled(system, size).table


def _slots(entries):
    """(row, col, entry) of every slot that a table's entries fill, mirrors included."""
    for e in entries:
        yield e.row, e.col, e
        if e.mirror:
            yield e.col, e.row, e


@pytest.mark.parametrize("system", _LAX_IDS)
def test_tables_fill_each_slot_once_and_meet_once_per_kind_in_a_diagonal_entry(system):
    # grad_trace_invariant keeps the bits of the dense product while each diagonal
    # entry (j, i) of L^{k-1} dL/dx_j takes at most one real and one imaginary term
    # from column i of dL/dx_j; only vd has entries with two terms, where one
    # sqrt(v_k) and one i*sqrt(v_k) coupling meet
    for size in range(2 if system == "ab" else 4, 26):
        table = _table(system, size)
        for entries in (table.L, table.B):
            slots = [(row, col) for row, col, _ in _slots(entries)]
            assert len(set(slots)) == len(slots), (system, size)
            assert all(0 <= row < table.size and 0 <= col < table.size for row, col in slots)
            assert all(complex(e.coef).real == 0 or complex(e.coef).imag == 0 for e in entries)
        terms = {}
        for a, i, e in _slots(table.L):
            terms.setdefault((e.p, i), []).append((a, complex(e.coef).imag != 0))
        for key, column in terms.items():
            imaginary = [kind for _, kind in column]
            assert imaginary.count(True) <= 1 and imaginary.count(False) <= 1, (system, size, key)
        shared = {key: tuple(sorted(a for a, _ in column)) for key, column in terms.items() if len(column) > 1}
        if system == "vd":
            # L[1, 3] = sqrt(v_n) and L[1, 4] = i sqrt(v_n), their v_{n-1} twins in row 2, and the border row 0
            n = size
            assert shared == {(0, 0): (2 * n - 3, 2 * n - 2), (n - 2, 2): (3, 4), (n - 1, 1): (3, 4)}
        else:
            assert shared == {}


# (system, size): every verify-mix size (lax, lenard and involution at vd
# n = 15 and ab m = 7), simulate-mix's ab m = 3, the verify lax defaults of
# km and toda, each builder's smallest size and larger ones
_REFERENCE_SIZES = [("km", 1), ("km", 7), ("km", 12), ("toda", 2), ("toda", 7), ("toda", 10),
                    ("ab", 2), ("ab", 3), ("ab", 7), ("vd", 4), ("vd", 15), ("vd", 25)]


def _block(rng, system, size, count, imaginary):
    """A block of real or complex states."""
    sample = {"km": random_u, "toda": random_toda_ab, "ab": random_ab, "vd": random_v}[system]
    block = stack([sample(rng, size) for _ in range(count)])
    if imaginary:
        block = block.replace_coords(block.rows + 1j * rng.uniform(-0.3, 0.3, block.rows.shape))
    return block


@pytest.mark.parametrize("system, size", _REFERENCE_SIZES, ids=[f"{s}-{n}" for s, n in _REFERENCE_SIZES])
def test_tables_keep_every_bit_of_the_hand_written_builders(rng, system, size):
    reference = getattr(lax_reference, f"{system}_lax")
    for imaginary in (False, True):
        block = _block(rng, system, size, 8, imaginary)
        d = block.dim
        for ds in (None, rng.uniform(-1.0, 1.0, (d, 1, 8)), np.broadcast_to(np.eye(d)[:, :, None], (d, d, 8))):
            L, B, sign = assembled_pair(SYSTEMS[system].lax, block)
            dL = None if ds is None else _dL(SYSTEMS[system].lax, block, ds)
            want = lax_reference.reference_pair(reference, block, ds)
            assert sign == want[2] and (dL is None) == (want[3] is None) == (ds is None)
            for got, bits in zip((L, B, dL), (want[0], want[1], want[3])):
                if bits is not None:
                    assert got.flags.c_contiguous and got.shape == bits.shape and got.tobytes() == bits.tobytes()
        orders = (1, 2, 3, 4, 6, 8)
        grads = grad_trace_invariant(SYSTEMS[system].lax, block, orders)
        assert grads.tobytes() == lax_reference.reference_grads(reference, block, orders).tobytes()


@pytest.mark.parametrize("system, size", _REFERENCE_SIZES, ids=[f"{s}-{n}" for s, n in _REFERENCE_SIZES])
def test_lax_residual_keeps_the_bits_of_the_dense_difference(rng, system, size):
    # without a dense dL, off L's slots the residual holds sign * [B, L] where
    # the dense difference holds 0 - sign * [B, L]; the norms keep every bit,
    # along the field (near cancellation) and along other velocities
    reference, builder = getattr(lax_reference, f"{system}_lax"), SYSTEMS[system].lax
    for imaginary in (False, True):
        block = _block(rng, system, size, BLOCK, imaginary)
        field = SYSTEMS[system].field(block, block.columns)
        for velocities in (field, field + rng.uniform(-1.0, 1.0, block.rows.shape).T):
            L, B, sign, dL = lax_reference.reference_pair(reference, block, velocities[:, None])
            want = row_norms(dL[:, 0] - sign * (B @ L - L @ B))
            assert lax_residual(builder, block, velocities).tobytes() == want.tobytes()


# the sizes of each builder whose tables are checked for a gauge: km n = 1-25,
# toda n = 2-25, ab m = 2-12, vd n = 4-25
_GAUGE_SIZES = {"km": range(1, 26), "toda": range(2, 26), "ab": range(2, 13), "vd": range(4, 26)}


def _symmetric(compiled):
    """L = L^T and B = -B^T, with every entry real or imaginary, at the probe point."""
    L, B = _probe(compiled.table, (compiled.L, compiled.B))
    return (np.array_equal(L, L.T) and np.array_equal(B, -B.T)
            and all(((M.real == 0) | (M.imag == 0)).all() for M in (L, B)))


@pytest.mark.parametrize("system", _LAX_IDS)
def test_every_catalog_table_but_vd_at_even_n_has_a_gauge(system):
    # lax_residual takes one real product, P_R = B_R @ (S L_R), and [B, L] =
    # D (P_R + P_R^T) D on real blocks of a table with a gauge; vd at even n is
    # symmetric too, but the parities its entries ask of d conflict
    for size in _GAUGE_SIZES[system]:
        compiled = _compiled(system, size)
        assert _symmetric(compiled), (system, size)
        assert (compiled.gauge is None) == (system == "vd" and size % 2 == 0), (system, size)


@pytest.mark.parametrize("system", _LAX_IDS)
def test_no_off_diagonal_slot_mutant_has_a_gauge(system):
    # a mutant that scales one of two mirrored slots breaks L = L^T, so it takes
    # both products; one that scales a diagonal entry (toda's b's, ab's +-b's)
    # leaves L symmetric and keeps the gauge, and P + P^T is still its commutator
    sizes = _GAUGE_SIZES[system]
    for size in (sizes[0], sizes[len(sizes) // 2], sizes[-1]):
        gauged = _compiled(system, size).gauge is not None
        for label, table in _slot_mutants(_table(system, size)):
            row, col = map(int, label[2:-1].split(","))
            compiled = compile_lax(table)
            assert _symmetric(compiled) == (row == col), (system, size, label)
            assert (compiled.gauge is not None) == (row == col and gauged), (system, size, label)


def test_complex_or_non_antisymmetric_entries_have_no_gauge():
    # a complex coefficient, or a B entry whose mirror takes the same value,
    # breaks the one-product identity
    table = _table("ab", 3)
    complex_entry = table._replace(L=table.L[:-1] + (table.L[-1]._replace(coef=0.5 + 0.5j),))
    symmetric_B = table._replace(B=tuple(e._replace(mirror=1) for e in table.B))
    assert compile_lax(table).gauge is not None
    assert compile_lax(complex_entry).gauge is None and compile_lax(symmetric_B).gauge is None


@pytest.mark.parametrize("system, size", _REFERENCE_SIZES, ids=[f"{s}-{n}" for s, n in _REFERENCE_SIZES])
def test_L_B_is_minus_the_transpose_of_B_L_on_verify_blocks(system, size):
    # the identity the one-product commutator rests on, entry for entry, on blocks
    # drawn by the verify lax sampler (every verify-mix size is a reference size;
    # its lax ops draw 200 and 250 states there)
    sample = SUITES["lax"].checks[system].sample
    rng = np.random.default_rng(size)
    for _ in range(8 if (system, size) in (("vd", 15), ("ab", 7)) else 2):
        block = sample(rng, BLOCK, size, size)
        L, B, _ = assembled_pair(SYSTEMS[system].lax, block)
        assert not block.array.imag.any() and _symmetric(SYSTEMS[system].lax(block))
        # equal as numbers: a zero may differ in sign, which no square sees
        assert np.array_equal(L @ B, -(B @ L).transpose(0, 2, 1))


def _complex_path(compiled):
    """A builder returning ``compiled`` without its gauge, so that ``lax_residual``
    takes B @ L - L @ B in complex arithmetic on every block."""
    stripped = compiled._replace(gauge=None)
    return lambda state: stripped


@pytest.mark.parametrize("system", _LAX_IDS)
def test_the_real_path_keeps_the_bits_of_the_complex_products(system):
    # every size of _GAUGE_SIZES, in blocks of 1, 7 and BLOCK states drawn by
    # the verify lax sampler, along the field (near cancellation, where one ulp
    # of [B, L] moves the norm) and along other velocities: the float64 path's
    # norms are those of B @ L - L @ B in complex arithmetic and of the
    # hand-written dense difference; complex velocities take the complex path
    sample, builder = SUITES["lax"].checks[system].sample, SYSTEMS[system].lax
    reference = getattr(lax_reference, f"{system}_lax")
    for size in _GAUGE_SIZES[system]:
        rng = np.random.default_rng(size)
        for count in (1, 7, BLOCK):
            block = sample(rng, count, size, size)
            compiled = builder(block)
            assert not block.array.imag.any() and (compiled.gauge is None) == (system == "vd" and size % 2 == 0)
            field = SYSTEMS[system].field(block, block.columns)
            for velocities in (field, field + rng.uniform(-1.0, 1.0, block.rows.shape).T, field + 1e-3j):
                got = lax_residual(builder, block, velocities)
                complex_bits = lax_residual(_complex_path(compiled), block, velocities)
                assert got.tobytes() == complex_bits.tobytes(), (
                    f"{system} n={size}, {count} states: the float64 residual rounds unlike the complex one "
                    "(see test_the_floating_point_facts_of_the_real_path)")
                L, B, sign, dL = lax_reference.reference_pair(reference, block, velocities[:, None])
                assert got.tobytes() == row_norms(dL[:, 0] - sign * (B @ L - L @ B)).tobytes(), (system, size, count)


@pytest.mark.parametrize("system", _LAX_IDS)
def test_the_gauge_makes_every_entry_real_and_is_none_exactly_at_vd_even_n(system):
    # with g = d d^T, L / g and B / g are real on real blocks; the real plans write
    # L_R and B_R S, S = d^2 on B's columns, mirrors included; vd at even n has
    # no gauge (its entries' parities conflict) and keeps the complex path
    for size in _GAUGE_SIZES[system]:
        compiled = _compiled(system, size)
        assert _symmetric(compiled)
        if system == "vd" and size % 2 == 0:
            assert compiled.gauge is None, size
            continue
        gauge, T = compiled.gauge, compiled.table.size
        d = np.array(gauge.d)
        assert set(gauge.d) <= {1, 1j} and gauge.d[0] == 1
        g = np.outer(d, d)
        assert (gauge.odd is None) == (not (g.imag != 0).any())
        if gauge.odd is not None:
            assert np.array_equal(gauge.odd, (g.imag != 0).astype(float))
        block = SUITES["lax"].checks[system].sample(np.random.default_rng(size), 3, size, size)
        L, B, _ = assembled_pair(SYSTEMS[system].lax, block)
        x = block.columns.real
        r = compiled.table.roots(x)
        L_R, B_S = gauge.L.assemble(T, x, r), gauge.B.assemble(T, x, r)
        assert L_R.dtype == B_S.dtype == np.float64
        assert np.array_equal(L_R * g, L) and np.array_equal(B_S * (d * d).real * g, B), (system, size)


_FACT_SIZES = [("vd", 15), ("ab", 7), ("km", 7), ("toda", 7), ("toda", 19), ("ab", 10)]


@pytest.mark.parametrize("system, size", _FACT_SIZES, ids=[f"{s}-{n}" for s, n in _FACT_SIZES])
def test_the_floating_point_facts_of_the_real_path(system, size):
    # what the float64 path rests on, on blocks the verify lax sampler draws
    # (the verify-mix lax sizes, km and toda at the defaults, and two sizes whose
    # product is widened): a BLAS or libm that breaks one fails here by name
    sample, builder = SUITES["lax"].checks[system].sample, SYSTEMS[system].lax
    rng = np.random.default_rng(size)
    for _ in range(8):
        block = sample(rng, BLOCK, size, size)
        compiled = builder(block)
        table, gauge, T = compiled.table, compiled.gauge, compiled.table.size
        x = block.columns
        r, r_real = table.roots(x), table.roots(x.real)
        if r is not None:
            assert r_real.tobytes() == np.ascontiguousarray(r.real).tobytes(), (
                "the roots of a real array round unlike the real part of the complex roots")
            ds = SYSTEMS[system].field(block, x)
            quotient = ds / (table.slope * r)
            assert not quotient.imag.any()
            reciprocal = ds.real * (1.0 / (table.slope * r_real))
            assert reciprocal.tobytes() == np.ascontiguousarray(quotient.real).tobytes(), (
                "numpy's complex quotient no longer multiplies by the reciprocal: dr = ds * (1 / (slope * r)) "
                "rounds unlike ds / (slope * r)")
        L, B, _ = assembled_pair(builder, block)
        d = np.array(gauge.d)
        wide = np.zeros((BLOCK, T, gauge.width))
        wide[:, :, :T] = gauge.L.assemble(T, x.real, r_real)
        product = (gauge.B.assemble(T, x.real, r_real) @ wide)[:, :, :T]
        # equal as numbers: a zero may differ in sign, which no square sees
        assert np.array_equal(product * np.outer(d, d), B @ L), (
            f"dgemm and zgemm round these stacks apart (width {gauge.width} of {T}): "
            "the float64 path would not keep the bits of the complex product")


# the powers grad_trace_invariant takes: L^{k-1} for lenard v (H4, H8), lenard ab
# (H2, H4) and involution (H2 with each of H4 ... H14)
_POWER_ORDERS = [("vd", 15, (4, 8)), ("ab", 7, (2, 4))] + [("ab", 7, (2, k)) for k in range(4, 15, 2)]


@pytest.mark.parametrize("system, size, orders", _POWER_ORDERS, ids=[f"{s}-{n}-{o}" for s, n, o in _POWER_ORDERS])
def test_the_power_chain_keeps_the_bits_of_matrix_power(rng, system, size, orders):
    block = _block(rng, system, size, BLOCK, False)
    L = assembled_pair(SYSTEMS[system].lax, block)[0]
    exponents = [k - 1 for k in orders]
    for power, k in zip(_matrix_powers(L, [_matrix_power_tree(k) for k in exponents]), exponents):
        want = np.linalg.matrix_power(L, k)
        if power.dtype == complex:  # vd, and L itself
            assert power.tobytes() == want.tobytes(), (system, size, k)
        else:  # the float64 chain of a real L: its zeros may differ in sign, which no gradient sees
            assert not want.imag.any() and np.array_equal(power, want.real), (system, size, k)
    reference = getattr(lax_reference, f"{system}_lax")
    grads = grad_trace_invariant(SYSTEMS[system].lax, block, orders)
    assert grads.tobytes() == lax_reference.reference_grads(reference, block, orders).tobytes()


def _signed_zero_block(rng, system, size, count):
    """A real block whose imaginary parts are -0.0 and, but for km (u > 0),
    about a third of whose b's are +0.0 or -0.0."""
    block = _block(rng, system, size, count, False)
    rows = np.array(block.rows)
    if system != "km":
        b, zero = rows[:, block.split:], rng.random((count, block.dim - block.split)) < 0.35
        b[zero] = rng.choice([0.0, -0.0], zero.sum())
    rows.imag = -0.0
    return block.replace_coords(rows)


@pytest.mark.parametrize("system", ["km", "toda", "ab"])
def test_the_float64_chain_keeps_the_bits_of_the_complex_chain(rng, system):
    # every T from 2 to 33 (ab: even T from 4), both tree families: unpadded,
    # dgemm sums the products at T = 17-20, 25-28 and 33 otherwise than zgemm
    # sums their real parts (dense (N, T, T) stacks, OpenBLAS 0.3.31
    # SkylakeX), so this fails if the stacks lose their _gemm_width padding
    chains = [_chain(k) for k in range(1, 9)]
    matrix_powers = [_matrix_power_tree(k) for k in range(10)]
    for T in range(2, 34):
        if system == "ab" and (T % 2 or T < 4):
            continue
        size = {"km": T - 1, "toda": T, "ab": T // 2}[system]
        for sample in (_block(rng, system, size, 9, False), _signed_zero_block(rng, system, size, 9)):
            L = assembled_pair(SYSTEMS[system].lax, sample)[0]
            assert not L.imag.any()
            for trees in (chains, matrix_powers):
                for power, tree in zip(_matrix_powers(L, trees), trees):
                    want = lax_reference.reference_power(L, tree)
                    if tree == "L":
                        assert power is L
                        continue
                    # entries equal as numbers (a zero may differ in sign), traces bit for bit
                    assert power.dtype == float and not want.imag.any(), (T, tree)
                    assert np.array_equal(power, want.real), (system, T, tree)
                    assert _diagonal_sums(power).tobytes() == _diagonal_sums(want).tobytes(), (system, T, tree)
            reference = getattr(lax_reference, f"{system}_lax")
            orders = (2, 3, 4, 6)
            grads = grad_trace_invariant(SYSTEMS[system].lax, sample, orders)
            assert grads.tobytes() == lax_reference.reference_grads(reference, sample, orders).tobytes(), (system, T)


# every _REFERENCE_SIZES entry and vd at n = 9 (simulate's H2 ... H8) and 16
_TRACE_SIZES = sorted(_REFERENCE_SIZES + [("vd", 9), ("vd", 16)])


@pytest.mark.parametrize("system, size", _TRACE_SIZES, ids=[f"{s}-{n}" for s, n in _TRACE_SIZES])
def test_trace_columns_keep_the_bits_of_each_power_formed_alone(rng, system, size):
    # every order the catalog offers, from trace_columns and from the catalog's
    # own columns (so in its grading: 2 for vd, 1 for the others), equals each
    # power formed on its own, on real and complex blocks
    catalog, grading = SYSTEMS[system], 2 if system == "vd" else 1
    for imaginary in (False, True):
        block = _block(rng, system, size, 40, imaginary)
        orders = {name: column.key for name, column in catalog.named_invariants(catalog, block).items()
                  if name.startswith("H")}
        L = assembled_pair(catalog.lax, block)[0]
        want = np.array(lax_reference.reference_traces(L, orders.values(), grading)).tobytes()
        assert np.array(trace_columns(L, orders.values(), grading)).tobytes() == want, (system, size, imaginary)
        columns = catalog.invariant_columns(block, list(orders))
        assert np.array(list(columns.values())).tobytes() == want, (system, size, imaginary)


@pytest.mark.parametrize("dtype", [float, complex])
def test_a_stacked_trace_is_each_matrix_trace_bit_for_bit(rng, dtype):
    # one sum over a block's diagonals adds each diagonal as that matrix's own
    # complex trace does, pairwise ones included, with signed zeros, inf and
    # NaN on it; a float64 power of the real chain is summed as complex too
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    for T in range(1, 50):
        P = rng.normal(size=(12, T, T)) * 10.0 ** rng.integers(-8, 9, (12, T, T))
        if dtype is complex:
            P = P + 1j * rng.normal(size=(12, T, T))
        diagonals = P.diagonal(0, 1, 2).copy()
        diagonals[2:6] = rng.choice(specials[:2], (4, T))  # signed zeros only
        special = rng.random((12, T)) < 0.2
        diagonals[6:][special[6:]] = rng.choice(specials, special[6:].sum())
        if dtype is complex:
            diagonals[2:4].imag = rng.choice(specials[:2], (2, T))
        P[:, range(T), range(T)] = diagonals
        with np.errstate(invalid="ignore"):  # inf - inf
            want = np.array([p.astype(complex).trace() for p in P])
            assert _diagonal_sums(P).tobytes() == want.tobytes(), T


def _power_trees(*exponents):
    return tuple(_matrix_power_tree(n) for n in exponents)


def _products(trees):
    """The products ``_power_chain`` takes for ``trees``, identities aside."""
    return [action for action in _power_chain(trees)[1] if action[1] is not None and action[1] >= -1]


def test_the_power_chain_shares_L_squared_and_reuses_its_slots():
    # lenard v: L^3 = (L @ L) @ L and L^7 = (L @ L^2) @ L^4 share L @ L, so 5
    # products, not 6, in 3 slots: L^3's slot takes L @ L^2 once L^3 is
    # yielded, and L^7 takes L @ L's once L^4 is formed (operand -1 is L)
    assert _power_chain(_power_trees(3, 7)) == (3, ((0, -1, -1), (1, 0, -1), (1, None, None),
                                                    (1, -1, 0), (2, 0, 0), (0, 1, 2), (0, None, None)))
    # lenard ab and involution yield L itself, and the identity takes a slot
    assert _power_chain(_power_trees(1, 3)) == (2, ((-1, None, None), (0, -1, -1), (1, 0, -1), (1, None, None)))
    assert _power_chain(_power_trees(0, 1)) == (1, ((0, -2, -2), (0, None, None), (-1, None, None)))


def test_vd_trace_trees_share_their_products_and_chain_trees_their_prefix():
    # vd's H2 ... H8 (n = 9) read L^4, L^8, L^12 = L^4 @ L^8 and L^16 = L^8 @ L^8:
    # 5 products in 3 slots, where one matrix_power call per order takes 13
    vd = _power_trees(4, 8, 12, 16)
    assert _power_chain(vd)[0] == 3 and len(_products(vd)) == 5
    assert sum(len(_products((tree,))) for tree in vd) == 13
    # H2 ... H14 (n = 15): 8 products, not 29
    vd = _power_trees(*range(4, 29, 4))
    assert len(_products(vd)) == 8 and sum(len(_products((tree,))) for tree in vd) == 29
    # ab's H2, H4 and H6 (simulate-mix's columns) share their prefix: the
    # identity, then 6 products, left to right, in 2 slots
    chains = tuple(_chain(k) for k in (2, 4, 6))
    assert chains[1][0][0] == chains[0] and chains[2][0][0] == chains[1]
    step, power = ((1, 0, -1), (0, 1, -1)), (0, None, None)
    assert _power_chain(chains) == (2, ((0, -2, -2),) + (step + (power,)) * 3)


def _trace_identity_gap(n, rng, factor):
    """max over 20 states and k = 1..n-1 of |tr(L_vd^{2k}) - factor(k) tr(L_ab^k)|
    / tr(|L_vd|^{2k}), with L_ab at the d-map image of each vd state."""
    block = v_state(rng.uniform(0.1, 2.0, (20, n)))
    L_vd = assembled_pair(vd_lax, block)[0]
    L_ab = assembled_pair(ab_lax, d_transform_block(block))[0]
    gap = 0.0
    for k in range(1, n):
        vd = np.trace(np.linalg.matrix_power(L_vd, 2 * k), axis1=1, axis2=2)
        ab = np.trace(np.linalg.matrix_power(L_ab, k), axis1=1, axis2=2)
        scale = np.trace(np.linalg.matrix_power(np.abs(L_vd), 2 * k), axis1=1, axis2=2)
        gap = max(gap, np.max(np.abs(vd - factor(k) * ab) / scale))
    return gap


@pytest.mark.parametrize("n", [5, 7, 9, 15, 25])
def test_vd_traces_are_the_ab_traces_at_the_d_map_image(n):
    # the paper's vd Lax pair: at odd n, tr(L_vd^{2k}) = 2^{k+1} tr(L_ab^k) at
    # the d-map image; gated on tr(|L_vd|^{2k}), the size of the rounding,
    # since tr(L_vd^{2k}) itself cancels at large n
    assert _trace_identity_gap(n, np.random.default_rng(n), lambda k: 2.0 ** (k + 1)) < 1e-12
    # the negative control: 2^k in place of 2^{k+1} must fail the gate
    assert _trace_identity_gap(n, np.random.default_rng(n), lambda k: 2.0**k) > 1e-12


def test_grad_trace_invariant_peak_memory_at_vd_n25():
    # the dense (8, 25, 49, 49) dL of the unit directions alone took 7.7 MB; the
    # table's L, its powers and the gathered terms peak near 1.4 MB
    block = _block(np.random.default_rng(5), "vd", 25, 8, False)
    grad_trace_invariant(vd_lax, block, [4, 8])  # tables and plans built outside the trace
    tracemalloc.start()
    try:
        grad_trace_invariant(vd_lax, block, [4, 8])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3e6


@pytest.mark.parametrize("system, size, orders", [
    ("vd", 15, (4, 8)),  # lenard v --n 15
    ("ab", 7, (2, 4, 6)),  # lenard ab --m 7 (2, 4), involution --m 7 (pairs H2:H4, H2:H6)
])
def test_grad_trace_invariant_keeps_the_dense_bits_at_verify_mix_sizes(rng, system, size, orders):
    sample = {"vd": random_v, "ab": random_ab}[system]
    block = stack([sample(rng, size) for _ in range(8)])
    grads = grad_trace_invariant(SYSTEMS[system].lax, block, orders)
    assert grads.tobytes() == _single_direction_grads(system, block, orders).tobytes()


def _term_by_term_grads(builder, block, orders):
    """Each diagonal entry i of L^{k-1} dL/dx_j summed from zero over the nonzero
    entries of column i in ascending row, with products rounded from real and
    imaginary parts, and traced by np.trace: one state, one entry and one term
    at a time."""
    d = block.dim
    grads = np.zeros((len(orders), len(block.rows), d), dtype=complex)
    for r, row in enumerate(block.rows):
        state = block.replace_coords(row)
        for j, e in enumerate(np.eye(d)):
            L, dL = assembled_pair(builder, state)[0], _dL(builder, state, e[:, None, None])
            for o, k in enumerate(orders):
                P = np.linalg.matrix_power(L[0], k - 1)
                diagonal = np.zeros(len(P), dtype=complex)
                for i in range(len(P)):
                    for a in np.flatnonzero(dL[0, 0, :, i]):
                        p, t = P[i, a], dL[0, 0, a, i]
                        diagonal[i] += complex(p.real * t.real - p.imag * t.imag, p.real * t.imag + p.imag * t.real)
                grads[o, r, j] = np.trace(np.diag(diagonal))
    return grads


@pytest.mark.parametrize("system, size, orders", [("vd", 15, (4, 8)), ("ab", 7, (2, 4, 6))])
def test_grad_trace_invariant_sums_any_number_of_terms_in_an_entry(rng, system, size, orders):
    # a table whose x_1 gains five real, imaginary and complex terms in column 5
    # of L: the gradient sums each entry term by term, in ascending row.  The
    # dense product rounds the same sum otherwise when two real (or two
    # imaginary) terms meet: a BLAS on FMA hardware fuses each multiply-add
    # into its running sum, so there it is within a few ulps, not bitwise
    base = _table(system, size)
    extra = tuple(Entry(row, 5, X, 0, coef=value)
                  for row, value in ((0, 0.3), (2, -0.7j), (6, 1.1), (8, 0.45 + 0.2j), (9, -1.3)))
    assert not {(e.row, e.col) for e in extra} & {(row, col) for row, col, _ in _slots(base.L)}
    compiled = compile_lax(base._replace(L=base.L + extra))

    def builder(state):
        return compiled

    sample = {"vd": random_v, "ab": random_ab}[system]
    block = stack([sample(rng, size) for _ in range(4)])
    grads = grad_trace_invariant(builder, block, orders)
    assert grads.tobytes() == _term_by_term_grads(builder, block, orders).tobytes()
    dense = _single_direction_grads(system, block, orders, builder)
    assert np.max(np.abs(grads - dense)) <= 1e-14 * np.max(np.abs(dense))


def test_a_non_finite_power_reaches_only_the_components_it_meets():
    # at order 2, P = L: an infinite a_2 fills L[0, 2] and L[1, 3], which meet only
    # dL/da_2; a dense product's inf * 0 terms made every component NaN
    state = ab_state([1.0, np.inf, 1.1, 0.8], [0.1, -0.2, 0.3])
    with np.errstate(invalid="ignore"):  # inf * 0 in the imaginary part of inf * 1
        [[grad]] = grad_trace_invariant(ab_lax, state, [2])
    assert np.flatnonzero(~np.isfinite(grad)).tolist() == [1]


def _slot_mutants(table):
    """(label, table) pairs: each slot of L, with its dL/dx_j entry, scaled by 1.5 alone."""
    for at, e in enumerate(table.L):
        assert e.mirror in (0, 1)
        for row, col in [(e.row, e.col)] + [(e.col, e.row)] * e.mirror:
            split = (e._replace(row=row, col=col, coef=1.5 * e.coef, mirror=0),) + (
                (e._replace(row=col, col=row, mirror=0),) if e.mirror else ())
            yield f"L[{row},{col}]", table._replace(L=table.L[:at] + split + table.L[at + 1 :])


@pytest.mark.parametrize("system, sample", LAX_SAMPLES, ids=_LAX_IDS)
def test_every_dL_entry_mutant_moves_the_gradient_off_fd(rng, system, sample):
    # each slot of L scaled by 1.5 alone, and with it its entry of dL/dx_j, must
    # move the gradient past the tolerance that the true one meets
    state = sample(rng)
    fd = {order: _fd_grad(system, state, order) for order in (3, 4)}
    base = SYSTEMS[system].lax
    clean = grad_trace_invariant(base, state, list(fd))
    assert max(np.max(np.abs(g[0] - fd[order])) for g, order in zip(clean, fd)) < FD_GRAD_TOL
    mutants = 0
    for label, table in _slot_mutants(base(state).table):
        grads = grad_trace_invariant(lambda s, compiled=compile_lax(table): compiled, state, list(fd))
        assert max(np.max(np.abs(g[0] - fd[order])) for g, order in zip(grads, fd)) > FD_GRAD_TOL, (system, label)
        mutants += 1
    assert mutants == {"km": 12, "toda": 13, "ab": 18, "vd": 28}[system]


@pytest.mark.parametrize("system, sample", LAX_SAMPLES, ids=_LAX_IDS)
def test_lax_dL_batch_is_the_stack_of_single_directions(rng, system, sample):
    states = [sample(rng) for _ in range(3)]
    block = stack(states)
    d, T = block.dim, _pair(system, states[0])[0].shape[0]
    ds = rng.uniform(-1.0, 1.0, (d, 4, 3))
    builder = SYSTEMS[system].lax
    L, B, sign = assembled_pair(builder, block)
    dL = _dL(builder, block, ds)
    assert L.shape == B.shape == (3, T, T) and dL.shape == (3, 4, T, T)
    assert all(a.flags.c_contiguous for a in (L, B, dL))
    for r, state in enumerate(states):
        one_L, one_B, one_sign = _pair(system, state)
        assert np.array_equal(L[r], one_L) and np.array_equal(B[r], one_B) and sign == one_sign
        for k in range(4):
            assert np.array_equal(dL[r, k], _dL(builder, state, ds[:, k, r, None, None])[0, 0])


def _drift(system, s0, names):
    _, coords = run(system, s0, 10.0, FixedStep(1e-3))
    return {r.name: r for r in drift_report(system.invariant_columns(s0.replace_coords(coords), names))}


def test_drift_along_ab_flow(rng):
    system = get_system("ab")
    s0 = ab_state([1.0, 0.9, 1.1, 0.8], [0.1, -0.2, 0.3])
    report = _drift(system, s0, system.invariants(s0))
    for name in ("H2", "H4", "H6"):
        assert report[name].max_rel_drift < 1e-6, name
    assert report["C"].max_rel_drift < 1e-10


def test_drift_along_vd_flow(rng):
    system = get_system("vd")
    s0 = v_state([0.04, 0.05, 0.06, 0.05, 0.045, 0.06, 0.03])
    report = _drift(system, s0, system.invariants(s0))
    for name in ("H2", "H4"):
        assert report[name].max_rel_drift < 1e-6, name
    assert report["F"].max_rel_drift < 1e-8


def test_drift_along_km_flow():
    system = get_system("km")
    s0 = u_state([1.0, 1.0, 1.0])
    assert _drift(system, s0, ["H2"])["H2"].max_rel_drift < 1e-8


def test_residual_vanishing_field_zero_a():
    # with every a zero both dL/dt and the commutator vanish identically
    state = ab_state([0, 0, 0], [0.3, -0.7])
    assert lax_residual(ab_lax, state, ab_field(state, state.columns))[0] == 0.0


# ---------------------------------------------------------------------------
# mutation coverage: every single-entry defect of a Lax pair trips the gate
# ---------------------------------------------------------------------------

_MUTATION_CASES = (
    ("km", random_u, 7, km_field),
    ("toda", random_toda_ab, 7, toda_ab_field),
    ("vd", random_v, 7, vd_field),
    ("ab", random_ab, 3, ab_field),
)


def _lax_mutants(table):
    """(label, table) pairs: each slot of L (with its dL) scaled by 1.5, each
    upper entry of B scaled by 1.5 with its mirror, and the sign flipped."""
    yield from _slot_mutants(table)
    for e in table.B:
        if e.row < e.col:
            pair = {(e.row, e.col), (e.col, e.row)}
            yield f"B[{e.row},{e.col}]", table._replace(
                B=tuple(f._replace(coef=1.5 * f.coef) if (f.row, f.col) in pair else f for f in table.B))
    yield "sign", table._replace(sign=-table.sign)


def test_every_lax_entry_mutant_fails_the_gate(rng):
    counts = {}
    for system, sample, size, field in _MUTATION_CASES:
        states = [sample(rng, size) for _ in range(3)]
        block, velocities = stack(states), np.array([field(s, s.array) for s in states]).T
        builder = SYSTEMS[system].lax
        mutants = list(_lax_mutants(builder(block).table))
        counts[system] = len(mutants)
        for label, table in mutants:
            mutant = lambda state, compiled=compile_lax(table): compiled
            assert np.max(lax_residual(mutant, block, velocities)) > RESIDUAL_TOL, (system, label)
        assert np.max(lax_residual(builder, block, velocities)) < RESIDUAL_TOL
    # 111 entry mutants and one sign flip per builder
    assert counts == {"km": 14 + 6 + 1, "toda": 19 + 6 + 1, "vd": 28 + 14 + 1, "ab": 18 + 6 + 1}


@pytest.mark.parametrize("system, sample, size, field", _MUTATION_CASES, ids=[c[0] for c in _MUTATION_CASES])
def test_a_non_symmetric_table_keeps_the_bits_of_both_products(rng, system, sample, size, field):
    # P + P^T is no commutator of a table with L != L^T: the off-diagonal slot
    # mutants have no gauge and must take B @ L - L @ B, on real blocks too; the
    # diagonal ones keep L = L^T and a gauge, and their float64 path must keep
    # the same bits
    states = [sample(rng, size) for _ in range(4)]
    block, velocities = stack(states), np.array([field(s, s.array) for s in states]).T
    for label, table in _slot_mutants(SYSTEMS[system].lax(block).table):
        compiled = compile_lax(table)
        assert (compiled.gauge is None) == (not _symmetric(compiled)), (system, label)
        builder = lambda s: compiled
        L, B, sign = assembled_pair(builder, block)
        dL = _dL(builder, block, velocities[:, None])[:, 0]
        want = row_norms(dL - sign * (B @ L - L @ B))
        assert lax_residual(builder, block, velocities).tobytes() == want.tobytes(), (system, label)
