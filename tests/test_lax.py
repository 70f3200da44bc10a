import tracemalloc

import numpy as np
import pytest

import lax_reference
from conftest import random_ab, random_toda_ab, random_u, random_v

from lattice_flows import DimensionError, DomainError, UnsupportedDimension, ab_state, u_state, v_state
from lattice_flows.catalog import SYSTEMS, get_system
from lattice_flows.cli import BLOCK, SUITES
from lattice_flows.integrate import FixedStep, drift_report, integrate
from lattice_flows.lax import (
    X,
    Entry,
    ab_lax,
    compile_lax,
    casimir_C_column,
    casimir_F_column,
    grad_casimir_C,
    grad_trace_invariant,
    lax_pair,
    lax_residual,
    trace_columns,
    vd_lax,
)
from lattice_flows.states import coordinate_columns, row_norms
from lattice_flows.systems import ab_field, km_field, toda_ab_field, vd_field
from lattice_flows.transforms import d_transform_block

RESIDUAL_TOL = 1e-10


def _pair(system, state):
    """L, B and the sign at one state of a catalog system: the one row of a one-row block."""
    L, B, sign = lax_pair(SYSTEMS[system].lax, state, [state.array])
    return L[0], B[0], sign


def _dL(builder, state, rows, ds):
    """dL along K velocities per row, a (d, K, N) block ``ds``, as a C-ordered
    (N, K, T, T) stack: the compiled plan's values by the chain rule,
    dr = ds / (slope * r), the values ``lax_residual`` takes, written at L's slots."""
    lax = builder(state)
    table, plan = lax.table, lax.L
    r = table.roots(coordinate_columns(state, rows))
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
        rows, velocities = [s.array for s in states], [field(s, s.array) for s in states]
        residuals = lax_residual(SYSTEMS[system].lax, states[0], rows, velocities)
        assert residuals.shape == (100,)
        worst = max(worst, np.max(residuals))
    assert worst < RESIDUAL_TOL


def test_residual_on_complex_ab_state():
    state = ab_state([0.3j, 0.5, 0.4, 0.2j], [-1.0, -0.8, -0.9])
    assert lax_residual(ab_lax, state, [state.array], [ab_field(state, state.array)])[0] < 1e-13


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
    template = ab_state([1, 1, 1], [1, 1])
    assert SYSTEMS["ab"].invariant_columns(template, ["H2"], [[1, 1, 1, 1, 1], [0, 0, 0, 0, 0]])["H2"] == [6, 0]


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
        template = v_state(np.ones(n))
        rows = rng.uniform(0.1, 2.0, (10, n))
        column = SYSTEMS["vd"].invariant_columns(template, ["H2"], rows)["H2"]
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
    template = ab_state([1, 1, 1], [0, 0])
    assert casimir_C_column(template, [[1, 1, 1, 0, 0], [2, 3, 4, 0, 0]]) == [1, 72]


def test_casimir_C_needs_m_at_least_1():
    template = ab_state([2], [])
    with pytest.raises(DimensionError, match="casimir_C_column needs m >= 1"):
        casimir_C_column(template, [[2]])
    with pytest.raises(DimensionError, match="grad_casimir_C needs m >= 1"):
        grad_casimir_C(template, [[2]])


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
            [[grad]] = grad_trace_invariant(SYSTEMS[system].lax, state, [state.array], [order])
            fd = _fd_grad(system, state, order)
            for j in range(state.dim):
                assert abs(grad[j] - fd[j]) < FD_GRAD_TOL, (system, order, j)


def _single_direction_grads(system, state, rows, orders, builder=None):
    """The gradients from one builder call per row and unit direction: the bit-exact reference.
    ``builder`` stands in for the system's own."""
    d, builder = state.dim, builder or SYSTEMS[system].lax
    grads = np.zeros((len(orders), len(rows), d), dtype=complex)
    for r, row in enumerate(rows):
        for j, e in enumerate(np.eye(d)):
            L, dL = lax_pair(builder, state, [row])[0], _dL(builder, state, [row], e[:, None, None])
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
    """A template state and an (N, d) block of real or complex rows."""
    sample = {"km": random_u, "toda": random_toda_ab, "ab": random_ab, "vd": random_v}[system]
    states = [sample(rng, size) for _ in range(count)]
    rows = np.array([s.array for s in states])
    if imaginary:
        rows = rows + 1j * rng.uniform(-0.3, 0.3, rows.shape)
    return states[0].replace_coords(rows[0]), rows


@pytest.mark.parametrize("system, size", _REFERENCE_SIZES, ids=[f"{s}-{n}" for s, n in _REFERENCE_SIZES])
def test_tables_keep_every_bit_of_the_hand_written_builders(rng, system, size):
    reference = getattr(lax_reference, f"{system}_lax")
    for imaginary in (False, True):
        state, rows = _block(rng, system, size, 8, imaginary)
        d = rows.shape[1]
        for ds in (None, rng.uniform(-1.0, 1.0, (d, 1, 8)), np.broadcast_to(np.eye(d)[:, :, None], (d, d, 8))):
            L, B, sign = lax_pair(SYSTEMS[system].lax, state, rows)
            dL = None if ds is None else _dL(SYSTEMS[system].lax, state, rows, ds)
            want = lax_reference.reference_pair(reference, state, rows, ds)
            assert sign == want[2] and (dL is None) == (want[3] is None) == (ds is None)
            for got, bits in zip((L, B, dL), (want[0], want[1], want[3])):
                if bits is not None:
                    assert got.flags.c_contiguous and got.shape == bits.shape and got.tobytes() == bits.tobytes()
        orders = (1, 2, 3, 4, 6, 8)
        grads = grad_trace_invariant(SYSTEMS[system].lax, state, rows, orders)
        assert grads.tobytes() == lax_reference.reference_grads(reference, state, rows, orders).tobytes()


@pytest.mark.parametrize("system, size", _REFERENCE_SIZES, ids=[f"{s}-{n}" for s, n in _REFERENCE_SIZES])
def test_lax_residual_keeps_the_bits_of_the_dense_difference(rng, system, size):
    # without a dense dL, off L's slots the residual holds sign * [B, L] where
    # the dense difference holds 0 - sign * [B, L]; the norms keep every bit,
    # along the field (near cancellation) and along other velocities
    reference, builder = getattr(lax_reference, f"{system}_lax"), SYSTEMS[system].lax
    for imaginary in (False, True):
        state, rows = _block(rng, system, size, BLOCK, imaginary)
        field = SYSTEMS[system].field(state, coordinate_columns(state, rows)).T
        for velocities in (field, field + rng.uniform(-1.0, 1.0, rows.shape)):
            L, B, sign, dL = lax_reference.reference_pair(reference, state, rows, velocities.T[:, None])
            want = row_norms(dL[:, 0] - sign * (B @ L - L @ B))
            assert lax_residual(builder, state, rows, velocities).tobytes() == want.tobytes()


# the sizes of each builder whose tables must compile as symmetric: km n = 1-25,
# toda n = 2-25, ab m = 2-12, vd n = 4-25
_SYMMETRIC_SIZES = {"km": range(1, 26), "toda": range(2, 26), "ab": range(2, 13), "vd": range(4, 26)}


@pytest.mark.parametrize("system", _LAX_IDS)
def test_every_catalog_table_compiles_as_symmetric(system):
    # lax_residual takes one product, P = B @ L, and [B, L] = P + P^T on real
    # blocks of a symmetric table: L = L^T, B = -B^T, entries real or imaginary
    for size in _SYMMETRIC_SIZES[system]:
        assert _compiled(system, size).symmetric, (system, size)


@pytest.mark.parametrize("system", _LAX_IDS)
def test_no_off_diagonal_slot_mutant_compiles_as_symmetric(system):
    # a mutant that scales one of two mirrored slots breaks L = L^T, so it takes
    # both products; one that scales a diagonal entry (toda's b's, ab's +-b's)
    # leaves L symmetric, and P + P^T is still its commutator
    sizes = _SYMMETRIC_SIZES[system]
    for size in (sizes[0], sizes[len(sizes) // 2], sizes[-1]):
        for label, table in _slot_mutants(_table(system, size)):
            row, col = map(int, label[2:-1].split(","))
            assert compile_lax(table).symmetric == (row == col), (system, size, label)


def test_complex_or_non_antisymmetric_entries_do_not_compile_as_symmetric():
    # a complex coefficient, or a B entry whose mirror takes the same value,
    # breaks the one-product identity
    table = _table("ab", 3)
    complex_entry = table._replace(L=table.L[:-1] + (table.L[-1]._replace(coef=0.5 + 0.5j),))
    symmetric_B = table._replace(B=tuple(e._replace(mirror=1) for e in table.B))
    assert compile_lax(table).symmetric
    assert not compile_lax(complex_entry).symmetric and not compile_lax(symmetric_B).symmetric


@pytest.mark.parametrize("system, size", _REFERENCE_SIZES, ids=[f"{s}-{n}" for s, n in _REFERENCE_SIZES])
def test_L_B_is_minus_the_transpose_of_B_L_on_verify_blocks(system, size):
    # the identity the one-product commutator rests on, entry for entry, on blocks
    # drawn by the verify lax sampler (every verify-mix size is a reference size;
    # its lax ops draw 200 and 250 states there)
    sample = SUITES["lax"].checks[system].sample
    rng = np.random.default_rng(size)
    for _ in range(8 if (system, size) in (("vd", 15), ("ab", 7)) else 2):
        state, rows = sample(rng, BLOCK, size, size)
        L, B, _ = lax_pair(SYSTEMS[system].lax, state, rows)
        assert not rows.imag.any() and SYSTEMS[system].lax(state).symmetric
        # equal as numbers: a zero may differ in sign, which no square sees
        assert np.array_equal(L @ B, -(B @ L).transpose(0, 2, 1))


def _trace_identity_gap(n, rng, factor):
    """max over 20 states and k = 1..n-1 of |tr(L_vd^{2k}) - factor(k) tr(L_ab^k)|
    / tr(|L_vd|^{2k}), with L_ab at the d-map image of each vd state."""
    rows = rng.uniform(0.1, 2.0, (20, n)).astype(complex)
    state = v_state(rows[0])
    L_vd = lax_pair(vd_lax, state, rows)[0]
    L_ab = lax_pair(ab_lax, *d_transform_block(state, rows))[0]
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
    state, rows = _block(np.random.default_rng(5), "vd", 25, 8, False)
    grad_trace_invariant(vd_lax, state, rows, [4, 8])  # tables and plans built outside the trace
    tracemalloc.start()
    try:
        grad_trace_invariant(vd_lax, state, rows, [4, 8])
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
    states = [sample(rng, size) for _ in range(8)]
    rows = np.array([s.array for s in states])
    grads = grad_trace_invariant(SYSTEMS[system].lax, states[0], rows, orders)
    assert grads.tobytes() == _single_direction_grads(system, states[0], rows, orders).tobytes()


def _term_by_term_grads(builder, state, rows, orders):
    """Each diagonal entry i of L^{k-1} dL/dx_j summed from zero over the nonzero
    entries of column i in ascending row, with products rounded from real and
    imaginary parts, and traced by np.trace: one state, one entry and one term
    at a time."""
    d = state.dim
    grads = np.zeros((len(orders), len(rows), d), dtype=complex)
    for r, row in enumerate(rows):
        for j, e in enumerate(np.eye(d)):
            L, dL = lax_pair(builder, state, [row])[0], _dL(builder, state, [row], e[:, None, None])
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
    states = [sample(rng, size) for _ in range(4)]
    rows = np.array([s.array for s in states])
    grads = grad_trace_invariant(builder, states[0], rows, orders)
    assert grads.tobytes() == _term_by_term_grads(builder, states[0], rows, orders).tobytes()
    dense = _single_direction_grads(system, states[0], rows, orders, builder)
    assert np.max(np.abs(grads - dense)) <= 1e-14 * np.max(np.abs(dense))


def test_a_non_finite_power_reaches_only_the_components_it_meets():
    # at order 2, P = L: an infinite a_2 fills L[0, 2] and L[1, 3], which meet only
    # dL/da_2; a dense product's inf * 0 terms made every component NaN
    state = ab_state([1.0, np.inf, 1.1, 0.8], [0.1, -0.2, 0.3])
    with np.errstate(invalid="ignore"):  # inf * 0 in the imaginary part of inf * 1
        [[grad]] = grad_trace_invariant(ab_lax, state, [state.array], [2])
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
    clean = grad_trace_invariant(base, state, [state.array], list(fd))
    assert max(np.max(np.abs(g[0] - fd[order])) for g, order in zip(clean, fd)) < FD_GRAD_TOL
    mutants = 0
    for label, table in _slot_mutants(base(state).table):
        grads = grad_trace_invariant(lambda s, compiled=compile_lax(table): compiled, state, [state.array], list(fd))
        assert max(np.max(np.abs(g[0] - fd[order])) for g, order in zip(grads, fd)) > FD_GRAD_TOL, (system, label)
        mutants += 1
    assert mutants == {"km": 12, "toda": 13, "ab": 18, "vd": 28}[system]


@pytest.mark.parametrize("system, sample", LAX_SAMPLES, ids=_LAX_IDS)
def test_lax_dL_batch_is_the_stack_of_single_directions(rng, system, sample):
    states = [sample(rng) for _ in range(3)]
    rows = np.array([s.array for s in states])
    d, T = rows.shape[1], _pair(system, states[0])[0].shape[0]
    ds = rng.uniform(-1.0, 1.0, (d, 4, 3))
    builder = SYSTEMS[system].lax
    L, B, sign = lax_pair(builder, states[0], rows)
    dL = _dL(builder, states[0], rows, ds)
    assert L.shape == B.shape == (3, T, T) and dL.shape == (3, 4, T, T)
    assert all(a.flags.c_contiguous for a in (L, B, dL))
    for r, state in enumerate(states):
        one_L, one_B, one_sign = _pair(system, state)
        assert np.array_equal(L[r], one_L) and np.array_equal(B[r], one_B) and sign == one_sign
        for k in range(4):
            assert np.array_equal(dL[r, k], _dL(builder, state, [state.array], ds[:, k, r, None, None])[0, 0])


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
    assert lax_residual(ab_lax, state, [state.array], [ab_field(state, state.array)])[0] == 0.0


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
        rows, velocities = [s.array for s in states], [field(s, s.array) for s in states]
        builder = SYSTEMS[system].lax
        mutants = list(_lax_mutants(builder(states[0]).table))
        counts[system] = len(mutants)
        for label, table in mutants:
            mutant = lambda state, compiled=compile_lax(table): compiled
            assert np.max(lax_residual(mutant, states[0], rows, velocities)) > RESIDUAL_TOL, (system, label)
        assert np.max(lax_residual(builder, states[0], rows, velocities)) < RESIDUAL_TOL
    # 111 entry mutants and one sign flip per builder
    assert counts == {"km": 14 + 6 + 1, "toda": 19 + 6 + 1, "vd": 28 + 14 + 1, "ab": 18 + 6 + 1}


@pytest.mark.parametrize("system, sample, size, field", _MUTATION_CASES, ids=[c[0] for c in _MUTATION_CASES])
def test_a_non_symmetric_table_keeps_the_bits_of_both_products(rng, system, sample, size, field):
    # P + P^T is no commutator of a table with L != L^T: the off-diagonal slot
    # mutants must take B @ L - L @ B, on real blocks too
    states = [sample(rng, size) for _ in range(4)]
    rows, velocities = np.array([s.array for s in states]), np.array([field(s, s.array) for s in states])
    for label, table in _slot_mutants(SYSTEMS[system].lax(states[0]).table):
        compiled = compile_lax(table)
        if compiled.symmetric:
            continue
        builder = lambda s: compiled
        L, B, sign = lax_pair(builder, states[0], rows)
        dL = _dL(builder, states[0], rows, velocities.T[:, None])[:, 0]
        want = row_norms(dL - sign * (B @ L - L @ B))
        assert lax_residual(builder, states[0], rows, velocities).tobytes() == want.tobytes(), (system, label)
