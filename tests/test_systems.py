from functools import partial

import numpy as np
import pytest

import field_reference
from conftest import at, catalog_cases, random_qp, random_u, random_v, run

from lattice_flows import (
    ChartMismatch,
    DivisionByZero,
    Spectrum,
    UnsupportedDimension,
    ab_state,
    c_state,
    null_combination,
    qp_state,
    sklyanin_spectrum,
    u_state,
    v_state,
)
from lattice_flows import rootdata
from lattice_flows.catalog import SYSTEMS, get_system
from lattice_flows.rootdata import gram_matrix, kozlov_treshchev_check, open_chain_spectrum
from lattice_flows.states import C_VARS, FLASCHKA_AB, POSITIVE_CHARTS, QP, VOLTERRA_U, VOLTERRA_V, State
from lattice_flows.systems import (
    ab_field,
    bv_field,
    c_family_data,
    c_field,
    hamiltonian_column,
    hamiltonian_eval,
    integrals_F1_F2_columns,
    km_field,
    qp_field,
    spectrum_field,
    toda_ab_field,
    vd_field,
)

A2 = Spectrum(3, ((1, -1, 0), (0, 1, -1)))


def test_km_examples():
    assert np.allclose(km_field(*at(u_state([1, 1, 1]))), [1, 0, -1])
    assert np.all(km_field(*at(u_state([0, 0, 0]))) == 0)
    assert np.allclose(km_field(*at(u_state([1, 2, 3]))), [2, 4, -6])


def test_km_chart_mismatch():
    with pytest.raises(ChartMismatch):
        km_field(*at(v_state([1, 1, 1])))


def test_bv_examples():
    assert np.allclose(bv_field("B", *at(u_state([1, 1, 1]))), [3, 1, -2])
    assert np.allclose(bv_field("D", *at(u_state([1] * 6))), [3, 1, 0, 0, -2, -2])
    assert np.allclose(bv_field("C", *at(u_state([0, 0, 0]))), 0)
    assert np.allclose(bv_field("A", *at(u_state([1, 1, 1]))), km_field(*at(u_state([1, 1, 1]))))


def test_bv_minimum_sizes():
    with pytest.raises(UnsupportedDimension):
        bv_field("D", *at(u_state([1, 1, 1, 1])))
    with pytest.raises(UnsupportedDimension):
        bv_field("B", *at(u_state([1, 1])))


def test_c_field_examples():
    assert np.allclose(c_field("A", *at(c_state([1, 1]))), [-1, 1])
    assert np.allclose(c_field("A", *at(c_state([1, 1, 1]))), [-1, 0, 1])


def test_c_field_d4_against_bruteforce():
    # independent oracle: assemble the signed structure constants explicitly
    c = np.array([1.0, 1.0, 1.0, 1.0])
    edges, k = c_family_data("D", 4)
    cij = np.zeros((4, 4))
    for i, j in edges:
        cij[i, j] = 1.0
        cij[j, i] = -1.0
    expected = np.array([-sum(k[j] * cij[i, j] / c[j] for j in range(4)) for i in range(4)])
    assert np.allclose(expected, [-2, -1, 2, 2])
    assert np.allclose(c_field("D", *at(c_state(c))), expected)


def test_c_field_zero_rejected():
    with pytest.raises(DivisionByZero):
        c_field("A", *at(c_state([1, 0])))
    with pytest.raises(DivisionByZero):  # the row's zero, not the template's coordinates
        c_field("A", c_state([1, 1]), np.array([1, 0j]))


def test_catalog_fields_read_the_row_not_the_template(rng):
    # only the template's chart, split and dim may matter; a strided row (as a
    # map kernel's image rows are) gives the same bits as a contiguous one
    for system, state in catalog_cases(rng):
        template = state.replace_coords(np.zeros(state.dim))
        want = system.field(state, state.array)
        for row in (state.array.copy(), np.array([state.array, -state.array]).T[:, 0]):
            got = system.field(template, row)
            assert got.dtype == np.complex128, (system.key, state)
            assert got.tobytes() == want.tobytes(), (system.key, state)


def _catalog_blocks(rng, complex_part):
    """(system, block of N states) for every catalog field, at n = 5 and 9
    and at the verify-mix sizes (n = 15 on the v and c charts, m = 7, n = 7
    for (q, p)), with N = 1, 3 and 8 rows.  Real rows carry some -0.0 entries
    off the c chart; ``complex_part`` adds imaginary parts instead."""
    shapes = {QP: lambda n: (n, 2 * n), C_VARS: lambda n: (None, n + 1), VOLTERRA_U: lambda n: (None, n),
              VOLTERRA_V: lambda n: (None, n), "ab": lambda n: (n + 1, 2 * n + 1),
              "toda": lambda n: (n - 1, 2 * n - 1), "spectrum": lambda n: (n + 1, 2 * n + 2)}
    for key in SYSTEMS:
        for n in (5, 7, 9, 15):
            system = get_system(key, sklyanin_spectrum(n)) if key == "spectrum" else SYSTEMS[key]
            for chart in system.charts:
                split, dim = shapes[key if chart == FLASCHKA_AB else chart](n)
                lo = 0.1 if chart in POSITIVE_CHARTS else -1.0
                for count in (1, 3, 8):
                    rows = rng.uniform(lo, 2.0 if lo > 0 else 1.0, (count, dim)).astype(complex)
                    if complex_part:
                        rows += 1j * rng.uniform(-0.5, 0.5, rows.shape)
                    elif chart != C_VARS:
                        rows[rng.uniform(size=rows.shape) < 0.2] = -0.0
                    yield system, State(chart, rows, split)


def test_catalog_fields_on_a_real_block_equal_their_row_calls(rng):
    # verify evaluates each field once on a block's (d, N) columns; on real
    # coordinates every column keeps the bits of its own row call
    for system, block in _catalog_blocks(rng, complex_part=False):
        got = system.field(block, block.columns)
        want = np.stack([system.field(block, row) for row in block.rows], axis=1)
        assert got.shape == want.shape and got.dtype == np.complex128, (system.key, block.rows.shape)
        assert got.tobytes() == want.tobytes(), (system.key, block.rows.shape)


def test_catalog_fields_on_a_complex_block_round_like_their_row_calls(rng):
    # numpy's array complex product may fuse a multiply and an add, so a
    # product of two complex coordinates may round otherwise in a block
    for system, block in _catalog_blocks(rng, complex_part=True):
        got = system.field(block, block.columns)
        want = np.stack([system.field(block, row) for row in block.rows], axis=1)
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), (system.key, block.rows.shape)


def test_c_family_data_is_built_once_and_read_only():
    edges, k = c_family_data("D", 6)
    assert c_family_data("D", 6)[0] is edges
    assert edges.tolist() == [[0, 1], [1, 2], [2, 3], [3, 4], [3, 5]] and k.tolist() == [1, 2, 2, 2, 1, 1]
    for array in (edges, k):
        with pytest.raises(ValueError):
            array[0] = 0


def test_vd_examples():
    assert np.allclose(vd_field(*at(v_state([1, 1, 1, 1]))), [2, 1, -1, -1])
    assert np.all(vd_field(*at(v_state([0, 0, 0, 0]))) == 0)
    assert np.allclose(vd_field(*at(v_state([1, 2, 1, 1, 2]))), [3, 0, 1, 0, -4])


def test_fields_quadratic_homogeneity(rng):
    for _ in range(10):
        n = int(rng.integers(5, 9))
        u = random_u(rng, n)
        two_u = u_state(2 * u.array)
        for field in (km_field, *(partial(bv_field, family) for family in "BCD")):
            ratio = field(*at(two_u)) - 4 * field(*at(u))
            assert np.max(np.abs(ratio)) < 1e-12 * max(1.0, np.max(np.abs(field(*at(u)))))
        v = random_v(rng, n)
        assert np.max(np.abs(vd_field(*at(v_state(2 * v.array))) - 4 * vd_field(*at(v)))) < 1e-11


def test_vd_equals_rescaled_bv_d(rng):
    # v_1 = u_1, v_k = 2 u_k for 2 <= k <= n-2, v_{n-1} = u_{n-1}, v_n = u_n
    for n in (5, 6, 7, 9):
        scale = np.ones(n)
        scale[1 : n - 2] = 2.0
        for _ in range(5):
            u = random_u(rng, n)
            pushed = vd_field(*at(v_state(scale * u.array)))
            # chain rule through the diagonal rescaling
            assert np.max(np.abs(pushed - scale * bv_field("D", *at(u)))) < 1e-12


def test_ab_examples():
    assert np.allclose(ab_field(*at(ab_state([1, 1, 1], [1, 1]))), [2, 0, -2, 0, 0])
    assert np.all(ab_field(*at(ab_state([0, 0], [0]))) == 0)
    assert np.allclose(ab_field(*at(ab_state([1, 2], [3]))), [6, -12, 6])


@pytest.mark.parametrize("m", range(1, 13))
def test_ab_field_keeps_the_bits_of_the_reference(rng, m):
    # one complex output, one square of a: every entry has the reference's
    # bits on rows and on (d, N) blocks, real or complex, with signed zeros
    # and non-finite coordinates
    d = 2 * m + 1
    real = rng.normal(size=(d, 6))
    complex_part = rng.normal(size=(d, 6))
    signed_zeros = rng.choice([0.0, -0.0], (d, 6))
    specials = real.copy()
    specials[rng.random((d, 6)) < 0.3] = rng.choice([np.inf, -np.inf, np.nan, 0.0, -0.0])
    blocks = [real, real + 1j * complex_part, signed_zeros, signed_zeros + 1j * rng.choice([0.0, -0.0], (d, 6)),
              real + 1j * signed_zeros, specials, specials + 1j * complex_part]
    template = ab_state(np.ones(m + 1), np.zeros(m))
    with np.errstate(invalid="ignore", over="ignore"):
        for y in blocks:
            for got, want in ((ab_field(template, y), field_reference.ab_field(template, y)),
                              (ab_field(template, y[:, 0]), field_reference.ab_field(template, y[:, 0]))):
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (m, y)


@pytest.mark.parametrize("family", "ABCD")
@pytest.mark.parametrize("n_c", [4, 5, 9])
def test_c_field_keeps_the_bits_of_the_reference(rng, family, n_c):
    # one division per vertex: every entry has the two-divisions-per-edge
    # reference's bits on rows and on (d, N) blocks, real or complex, with
    # signed-zero real or imaginary parts (c itself must be nonzero)
    real = rng.uniform(0.1, 2.0, (n_c, 6)) * rng.choice([1.0, -1.0], (n_c, 6))
    imag = rng.normal(size=(n_c, 6))
    signed = rng.choice([0.0, -0.0], (n_c, 6))
    blocks = [real.astype(complex), real + 1j * imag, real + 1j * signed, signed + 1j * real,
              real * 10.0 ** rng.integers(-200, 200, (n_c, 6)) + 1j * imag]
    template = c_state(np.ones(n_c))
    for y in blocks:
        for got, want in ((c_field(family, template, y), field_reference.c_field(family, template, y)),
                          (c_field(family, template, y[:, 0]), field_reference.c_field(family, template, y[:, 0]))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (family, y)


def test_toda_ab_field_boundary():
    out = toda_ab_field(*at(ab_state([1, 1], [1, 2, 3])))
    assert np.allclose(out, [1, 1, 2, 0, -2])


def test_spectrum_field_examples():
    single = Spectrum(2, ((1, -1),))
    out = spectrum_field(single, *at(ab_state([1], [1])))
    assert np.allclose(out, [1, 2])
    out = spectrum_field(A2, *at(ab_state([1, 1], [0, 0])))
    assert np.allclose(out, [0, 0, 1, 1])
    assert np.all(spectrum_field(A2, *at(ab_state([0, 0], [0, 0]))) == 0)


def test_gram_matrix_computed_once_per_spectrum(monkeypatch):
    # every field evaluation of the 'spectrum' system used to recompute it
    calls = []
    monkeypatch.setattr(rootdata, "gram_matrix", lambda spec: calls.append(spec) or gram_matrix(spec))
    spec = Spectrum(3, sklyanin_spectrum(3).vectors)  # a fresh one: sklyanin_spectrum shares one per n
    system = get_system("spectrum", spec)
    for b in ([0.1, 0.0, 0.2, -0.3], [0.4, 0.1, -0.2, 0.0]):
        system.field(*at(ab_state([-1.0, -0.5, -1.0, -0.8], b)))
    assert len(calls) == 1 and np.array_equal(spec.gram, gram_matrix(spec))
    assert not spec.gram.flags.writeable


def test_spectrum_row_offers_f1_f2_only_with_a_null_combination():
    dependent = get_system("spectrum", Spectrum(2, ((1, 0), (0, 1), (1, 1))))
    assert list(dependent.invariants(ab_state([1.0] * 3, [0.0] * 3))) == ["F1", "F2"]
    independent = get_system("spectrum", open_chain_spectrum(3))  # e_1 - e_2 and e_2 - e_3
    assert independent.invariants(ab_state([1.0, 1.0], [0.0, 0.0])) == {}


def test_get_system_rejects_an_unknown_key_and_a_spectrum_row_without_one():
    with pytest.raises(ValueError, match="unknown system 'vd-x'"):
        get_system("vd-x")
    with pytest.raises(ValueError, match="system 'spectrum' requires a spectrum"):
        get_system("spectrum")


def test_integrals_examples():
    state = ab_state([1, 1], [2, 3])
    assert integrals_F1_F2_columns(state, [1, 1]) == ([5], [1])
    assert integrals_F1_F2_columns(state, [0, 0]) == ([0], [1])
    _, f2 = integrals_F1_F2_columns(ab_state([2, 3, 4], [0, 0, 0]), [1, 2, 1])
    assert f2 == [72]


def test_integrals_conserved_along_flow(rng):
    # spectra with more vectors than the dimension admit null combinations;
    # their two integrals must ride along the polynomial flow unchanged
    from lattice_flows.catalog import SYSTEMS, get_system
    from lattice_flows.integrate import FixedStep, drift_report

    from lattice_flows.transforms import generalized_flaschka_block

    spec = sklyanin_spectrum(3)
    lam = null_combination(spec)[0]
    system = get_system("spectrum", spectrum=spec)
    # start on the image of the exponential map: there F1 vanishes, which is
    # exactly where the product integral rides along unchanged
    start = random_qp(rng, 3)
    image = generalized_flaschka_block(spec, start)  # a block of one row; a run starts from its state
    s0 = image.replace_coords(image.rows[0])
    _, coords = run(system, s0, 5.0, FixedStep(1e-3))
    f1, f2 = integrals_F1_F2_columns(s0.replace_coords(coords), lam)
    report = drift_report({"F1": f1, "F2": f2})
    for rec in report:
        # F1 vanishes identically on the image, so judge it by absolute drift
        assert rec.max_rel_drift < 1e-8 or rec.max_abs_drift < 1e-10, rec


def test_hamiltonian_examples():
    assert hamiltonian_eval("sklyanin", qp_state([0, 0], [0, 0])) == 3
    assert hamiltonian_eval("toda", qp_state([0, 0], [0, 0])) == 1
    assert hamiltonian_eval("sklyanin_full", qp_state([0, 0], [0, 0])) == 5


def _sklyanin_full_spectrum(n, wall=1.0):
    """The exponents of sklyanin_full's potential: e_i - e_{i+1}, then the
    walls -e_1, -2 e_1, e_n and 2 e_n (each times ``wall``)."""
    def unit(i, scale):
        return tuple(scale * wall if j == i else 0.0 for j in range(n))

    return Spectrum(n, open_chain_spectrum(n).vectors + (unit(0, -1), unit(0, -2), unit(n - 1, 1), unit(n - 1, 2)))


def test_sklyanin_full_potential_is_its_spectrum_sum(rng):
    for n in (2, 3, 6):
        rows = rng.uniform(-1.0, 1.0, (5, 2 * n))
        q, p = rows[:, :n], rows[:, n:]
        want = 0.5 * np.sum(p**2, axis=1) + np.exp(q @ _sklyanin_full_spectrum(n).matrix.T).sum(axis=1)
        got = hamiltonian_column("sklyanin_full", State(QP, rows, n))
        np.testing.assert_allclose(got, want, rtol=1e-14)


def test_sklyanin_full_spectrum_passes_kozlov_treshchev():
    # -e_1 and -2 e_1 share a direction, so only -2 e_1 is maximal, and the
    # pair is skipped as collinear; so are e_n and 2 e_n
    for n in range(2, 9):
        assert kozlov_treshchev_check(_sklyanin_full_spectrum(n)).passed, n
    # walls on the other side (e_1, 2 e_1, -e_n, -2 e_n) break the condition
    assert len(kozlov_treshchev_check(_sklyanin_full_spectrum(3, wall=-1.0)).violations) == 6


def test_sklyanin_full_minus_sklyanin_is_the_first_order_walls(rng):
    for n in (1, 2, 5):
        rows = rng.uniform(-1.0, 1.0, (7, 2 * n))
        block = State(QP, rows, n)
        difference = np.subtract(hamiltonian_column("sklyanin_full", block), hamiltonian_column("sklyanin", block))
        np.testing.assert_allclose(difference, np.exp(-rows[:, 0]) + np.exp(rows[:, n - 1]), rtol=1e-13)


def test_qp_field_examples():
    out = qp_field("sklyanin", *at(qp_state([0, 0], [0, 0])))
    assert np.allclose(out, [0, 0, 1, -1])
    out = qp_field("toda", *at(qp_state([0.3, -0.2], [0, 0])))
    assert np.allclose(out[:2], 0)


def test_qp_field_matches_finite_differences(rng):
    h = 1e-6
    for system in ("toda", "sklyanin", "sklyanin_full"):
        for _ in range(50):
            n = int(rng.integers(2, 5))
            state = random_qp(rng, n)
            q = state.array[:n].real
            p = state.array[n:].real
            field = qp_field(system, *at(state))
            for i in range(n):
                dq = np.zeros(n)
                dq[i] = h
                dh_dq = (
                    hamiltonian_eval(system, qp_state(q + dq, p))
                    - hamiltonian_eval(system, qp_state(q - dq, p))
                ) / (2 * h)
                dh_dp = (
                    hamiltonian_eval(system, qp_state(q, p + dq))
                    - hamiltonian_eval(system, qp_state(q, p - dq))
                ) / (2 * h)
                assert abs(field[i] - dh_dp) < 1e-7
                assert abs(field[n + i] + dh_dq) < 1e-7


def test_integrals_zero_to_negative_power_rejected():
    from lattice_flows import DomainError

    with pytest.raises(DomainError):
        integrals_F1_F2_columns(ab_state([0.0, 1.0], [0.0, 0.0]), [-1.0, 1.0])
