import numpy as np
import pytest

from conftest import random_c, random_qp, random_u, random_v

from lattice_flows import (
    DomainError,
    ParityError,
    Spectrum,
    qp_state,
    sklyanin_spectrum,
    u_state,
    v_state,
)
from lattice_flows.catalog import get_system
from lattice_flows.integrate import FixedStep, drift_report, integrate
from lattice_flows.lax import casimir_C_column, h2_ab, lax_pair
from lattice_flows.systems import (
    ab_field,
    c_field,
    hamiltonian_eval,
    km_field,
    qp_field,
    spectrum_field,
    toda_ab_field,
    vd_field,
)
from lattice_flows.transforms import (
    c_to_v,
    c_to_v_jacobian,
    d_transform,
    generalized_flaschka,
    henon_map,
    map_jacobian,
    moser_reduce,
    pushforward_residual,
    sklyanin_flaschka,
    toda_flaschka,
    toda_jacobi,
)

PUSH_TOL = 1e-8


def a_chain_spectrum(n):
    rows = tuple(tuple(float(j == i) - float(j == i + 1) for j in range(n)) for i in range(n - 1))
    return Spectrum(n, rows)


def test_henon_examples():
    img = henon_map(u_state([2, 2, 2, 2]))
    assert np.allclose(img.first(), [-1, -1])
    assert np.allclose(img.second(), [1, 2, 1])
    img = henon_map(u_state([0, 0, 0, 0]))
    assert np.all(img.array == 0)
    with pytest.raises(DomainError):
        henon_map(u_state([1, -1, 1, 1]))


def test_moser_reduce_examples(rng):
    assert np.array_equal(moser_reduce(np.eye(2)), [[1.0]])
    u = rng.uniform(0.1, 2.0, 4)
    a = np.sqrt(u / 2)
    L = lax_pair("km", u_state(u), [u])[0][0]
    L2 = L @ L
    displayed_L2 = np.array(
        [
            [a[0] ** 2, 0, a[0] * a[1], 0, 0],
            [0, a[0] ** 2 + a[1] ** 2, 0, a[1] * a[2], 0],
            [a[0] * a[1], 0, a[1] ** 2 + a[2] ** 2, 0, a[2] * a[3]],
            [0, a[1] * a[2], 0, a[2] ** 2 + a[3] ** 2, 0],
            [0, 0, a[2] * a[3], 0, a[3] ** 2],
        ]
    )
    assert np.max(np.abs(L2 - displayed_L2)) < 1e-12
    reduced = moser_reduce(L)
    displayed_odd = np.array(
        [
            [a[0] ** 2, a[0] * a[1], 0],
            [a[0] * a[1], a[1] ** 2 + a[2] ** 2, a[2] * a[3]],
            [0, a[2] * a[3], a[3] ** 2],
        ]
    )
    assert np.max(np.abs(reduced - displayed_odd)) < 1e-12
    sym = moser_reduce(L)
    assert np.array_equal(sym, sym.T)


def test_moser_matches_henon_jacobi(rng):
    for n in (4, 5, 6, 7):
        for _ in range(20):
            state = random_u(rng, n)
            reduced = moser_reduce(lax_pair("km", state, [state.array])[0][0])
            jac = toda_jacobi(henon_map(state))
            assert np.max(np.abs(reduced - jac)) < 1e-12


def test_d_transform_example():
    img = d_transform(v_state([2, 1, 4, 1, 3]))
    assert np.allclose(img.first(), [1j, 1.0, 1j])
    assert np.allclose(img.second(), [-4.0, -1.5])


def test_d_transform_equal_tail_kills_a1():
    img = d_transform(v_state([1, 1, 1, 2, 2]))
    assert img.first()[0] == 0


def test_d_transform_parity():
    with pytest.raises(ParityError):
        d_transform(v_state([1, 1, 1, 1]))


def test_sklyanin_flaschka_example():
    img = sklyanin_flaschka(qp_state([0, 0], [0, 0]))
    assert np.allclose(img.first(), [2**-0.5, 0.5, 2**-0.5])
    assert np.all(img.second() == 0)


def test_casimir_constant_on_image(rng):
    for m in (2, 3, 4):
        for _ in range(100):
            img = sklyanin_flaschka(random_qp(rng, m))
            c = casimir_C_column(img, [img.array])[0]
            target = 2.0 ** -(2 * m - 1)
            assert abs(c - target) < 1e-13 * target


def test_h2_is_half_the_hamiltonian(rng):
    for _ in range(50):
        m = int(rng.integers(2, 5))
        state = random_qp(rng, m)
        img = sklyanin_flaschka(state)
        assert abs(h2_ab(img) - 0.5 * hamiltonian_eval("sklyanin", state)) < 1e-12


def test_toda_flaschka_example():
    spec = a_chain_spectrum(3)
    img = toda_flaschka(qp_state([0, 0, 0], [0, 0, 0]), spec)
    assert np.allclose(img.first(), 0.5)
    assert np.all(img.second() == 0)
    img = toda_flaschka(qp_state([1, 0, -1], [0, 0, 0]), spec)
    assert np.allclose(img.first(), [0.5 * np.e**0.5, 0.5 * np.e**0.5])


def test_generalized_flaschka_example():
    spec = Spectrum(2, ((1, -1),))
    img = generalized_flaschka(qp_state([np.log(2), 0], [3, 1]), spec)
    assert np.allclose(img.first(), [-2.0])
    assert np.allclose(img.second(), [2.0])
    img = generalized_flaschka(qp_state([0, 0], [0, 0]), a_chain_spectrum(2))
    assert np.allclose(img.first(), -1.0)


def test_c_to_v_examples():
    from lattice_flows import c_state

    assert np.allclose(c_to_v(c_state([1, 1, 1, 1, 1])).array, [1, 2, 1, 1])
    assert np.allclose(c_to_v(c_state([2, 2, 2, 2, 2])).array, [0.25, 0.5, 0.25, 0.25])


def test_pushforward_identity_is_zero(rng):
    state = random_u(rng, 5)
    assert pushforward_residual(lambda s: s, km_field, km_field, state) < 1e-9


def test_pushforward_henon(rng):
    state = u_state([2.0, 2.0, 2.0, 2.0])
    assert pushforward_residual(henon_map, km_field, toda_ab_field, state) < 1e-9
    for n in (4, 5, 6, 7):
        for _ in range(25):
            r = pushforward_residual(henon_map, km_field, toda_ab_field, random_u(rng, n))
            assert r < PUSH_TOL


def test_pushforward_d_transform(rng):
    for n in (5, 7, 9):
        for _ in range(25):
            r = pushforward_residual(d_transform, vd_field, ab_field, random_v(rng, n))
            assert r < PUSH_TOL


def test_pushforward_sklyanin_flaschka(rng):
    for m in (2, 3, 4):
        for _ in range(25):
            r = pushforward_residual(
                sklyanin_flaschka,
                lambda s: qp_field("sklyanin", s),
                ab_field,
                random_qp(rng, m),
            )
            assert r < PUSH_TOL


def test_pushforward_toda_flaschka(rng):
    for n in (3, 5):
        spec = a_chain_spectrum(n)
        for _ in range(25):
            r = pushforward_residual(
                lambda s: toda_flaschka(s, spec),
                lambda s: qp_field("toda", s),
                toda_ab_field,
                random_qp(rng, n),
            )
            assert r < PUSH_TOL


def test_pushforward_generalized_flaschka(rng):
    for n in (3, 4):
        spec = sklyanin_spectrum(n)
        for _ in range(25):
            r = pushforward_residual(
                lambda s: generalized_flaschka(s, spec),
                lambda s: qp_field("sklyanin", s),
                lambda s: spectrum_field(spec, s),
                random_qp(rng, n),
            )
            assert r < PUSH_TOL


def test_pushforward_c_to_v(rng):
    for n in (4, 5, 7):
        for _ in range(25):
            r = pushforward_residual(
                c_to_v,
                lambda s: c_field("D", s),
                vd_field,
                random_c(rng, n + 1),
                jacobian=c_to_v_jacobian,
            )
            assert r < PUSH_TOL


def test_c_to_v_jacobian_matches_fd(rng):
    state = random_c(rng, 8).replace_coords(np.full(8, 1.3))
    assert np.max(np.abs(c_to_v_jacobian(state) - map_jacobian(c_to_v, state))) < 1e-8


def test_pulled_back_h2_constant_along_vd_flow():
    system = get_system("vd")
    s0 = v_state([0.05, 0.06, 0.04, 0.05, 0.06, 0.045, 0.05])
    traj = integrate(system, s0, 10.0, FixedStep(1e-3))
    report = drift_report({"h2_pullback": [h2_ab(d_transform(s0.replace_coords(y))) for y in traj.coords]})
    assert report[0].max_rel_drift < 1e-7
