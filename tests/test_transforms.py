import json
from functools import partial

import numpy as np
import pytest

from conftest import central_difference, henon_jacobi, random_c, random_qp, random_u, random_v

from lattice_flows import (
    DomainError,
    ParityError,
    Spectrum,
    c_state,
    qp_state,
    sklyanin_spectrum,
    u_state,
    v_state,
)
from lattice_flows import cli, transforms
from lattice_flows.catalog import SYSTEMS, get_system
from lattice_flows.cli import main
from lattice_flows.integrate import FixedStep, drift_report, integrate
from lattice_flows.lax import casimir_C_column, km_lax, lax_pair
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
from lattice_flows.states import coordinate_columns
from lattice_flows.transforms import (
    FD_STEP,
    c_to_v_block,
    c_to_v_jacobian,
    d_transform_block,
    generalized_flaschka_block,
    henon_block,
    map_jacobian,
    pushforward_residual,
    sklyanin_flaschka_block,
    toda_flaschka_block,
)

PUSH_TOL = 1e-8


def a_chain_spectrum(n):
    rows = tuple(tuple(float(j == i) - float(j == i + 1) for j in range(n)) for i in range(n - 1))
    return Spectrum(n, rows)


def image(kernel, state):
    """The image State of one state under a map kernel: the kernel on a one-row block."""
    zero, rows = kernel(state, [state.array])
    return zero.replace_coords(rows[0])


def test_henon_examples():
    img = image(henon_block, u_state([2, 2, 2, 2]))
    assert np.allclose(img.array[: img.split], [-1, -1])
    assert np.allclose(img.array[img.split :], [1, 2, 1])
    img = image(henon_block, u_state([0, 0, 0, 0]))
    assert np.all(img.array == 0)
    with pytest.raises(DomainError):
        image(henon_block, u_state([1, -1, 1, 1]))


def test_moser_reduce_examples(rng):
    u = rng.uniform(0.1, 2.0, 4)
    a = np.sqrt(u / 2)
    L = lax_pair(km_lax, u_state(u), [u])[0][0]
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
    reduced = L2[::2, ::2]
    displayed_odd = np.array(
        [
            [a[0] ** 2, a[0] * a[1], 0],
            [a[0] * a[1], a[1] ** 2 + a[2] ** 2, a[2] * a[3]],
            [0, a[2] * a[3], a[3] ** 2],
        ]
    )
    assert np.max(np.abs(reduced - displayed_odd)) < 1e-12
    assert np.array_equal(reduced, reduced.T)


def test_moser_matches_henon_jacobi(rng):
    for n in (4, 5, 6, 7):
        for _ in range(20):
            state = random_u(rng, n)
            L = lax_pair(km_lax, state, [state.array])[0][0]
            assert np.max(np.abs((L @ L)[::2, ::2] - henon_jacobi(state))) < 1e-12


def test_d_transform_example():
    img = image(d_transform_block, v_state([2, 1, 4, 1, 3]))
    assert np.allclose(img.array[: img.split], [1j, 1.0, 1j])
    assert np.allclose(img.array[img.split :], [-4.0, -1.5])


def test_d_transform_equal_tail_kills_a1():
    img = image(d_transform_block, v_state([1, 1, 1, 2, 2]))
    assert img.array[0] == 0


def test_d_transform_parity():
    with pytest.raises(ParityError):
        image(d_transform_block, v_state([1, 1, 1, 1]))


def test_sklyanin_flaschka_example():
    img = image(sklyanin_flaschka_block, qp_state([0, 0], [0, 0]))
    assert np.allclose(img.array[: img.split], [2**-0.5, 0.5, 2**-0.5])
    assert np.all(img.array[img.split :] == 0)


def test_casimir_constant_on_image(rng):
    for m in (2, 3, 4):
        for _ in range(100):
            img = image(sklyanin_flaschka_block, random_qp(rng, m))
            c = casimir_C_column(img, [img.array])[0]
            target = 2.0 ** -(2 * m - 1)
            assert abs(c - target) < 1e-13 * target


def test_h2_is_half_the_hamiltonian(rng):
    for _ in range(50):
        m = int(rng.integers(2, 5))
        state = random_qp(rng, m)
        img = image(sklyanin_flaschka_block, state)
        h2 = SYSTEMS["ab"].invariant_columns(img, ["H2"], [img.array])["H2"][0]
        assert abs(h2 - 0.5 * hamiltonian_eval("sklyanin", state)) < 1e-12


def test_toda_flaschka_example():
    spec = a_chain_spectrum(3)
    img = image(partial(toda_flaschka_block, spec), qp_state([0, 0, 0], [0, 0, 0]))
    assert np.allclose(img.array[: img.split], 0.5)
    assert np.all(img.array[img.split :] == 0)
    img = image(partial(toda_flaschka_block, spec), qp_state([1, 0, -1], [0, 0, 0]))
    assert np.allclose(img.array[: img.split], [0.5 * np.e**0.5, 0.5 * np.e**0.5])


def test_generalized_flaschka_example():
    spec = Spectrum(2, ((1, -1),))
    img = image(partial(generalized_flaschka_block, spec), qp_state([np.log(2), 0], [3, 1]))
    assert np.allclose(img.array[: img.split], [-2.0])
    assert np.allclose(img.array[img.split :], [2.0])
    img = image(partial(generalized_flaschka_block, a_chain_spectrum(2)), qp_state([0, 0], [0, 0]))
    assert np.allclose(img.array[: img.split], -1.0)


def test_c_to_v_examples():
    assert np.allclose(image(c_to_v_block, c_state([1, 1, 1, 1, 1])).array, [1, 2, 1, 1])
    assert np.allclose(image(c_to_v_block, c_state([2, 2, 2, 2, 2])).array, [0.25, 0.5, 0.25, 0.25])


def _block(sample, count):
    """A template state and an (N, d) block of ``count`` sampled states."""
    states = [sample() for _ in range(count)]
    return states[0], np.array([s.array for s in states])


def test_pushforward_identity_is_zero(rng):
    state, rows = _block(lambda: random_u(rng, 5), 3)
    identity = lambda s, rows: (s, coordinate_columns(s, rows).T)
    assert max(pushforward_residual(identity, km_field, km_field, state, rows)) < 1e-9


def test_pushforward_henon(rng):
    state = u_state([2.0, 2.0, 2.0, 2.0])
    assert pushforward_residual(henon_block, km_field, toda_ab_field, state, [state.array])[0] < 1e-9
    for n in (4, 5, 6, 7):
        r = pushforward_residual(henon_block, km_field, toda_ab_field, *_block(lambda: random_u(rng, n), 25))
        assert len(r) == 25 and max(r) < PUSH_TOL


def test_pushforward_d_transform(rng):
    for n in (5, 7, 9):
        r = pushforward_residual(d_transform_block, vd_field, ab_field, *_block(lambda: random_v(rng, n), 25))
        assert max(r) < PUSH_TOL


def test_pushforward_sklyanin_flaschka(rng):
    for m in (2, 3, 4):
        r = pushforward_residual(sklyanin_flaschka_block, partial(qp_field, "sklyanin"), ab_field,
                                 *_block(lambda: random_qp(rng, m), 25))
        assert max(r) < PUSH_TOL


def test_pushforward_toda_flaschka(rng):
    for n in (3, 5):
        r = pushforward_residual(partial(toda_flaschka_block, a_chain_spectrum(n)), partial(qp_field, "toda"),
                                 toda_ab_field, *_block(lambda: random_qp(rng, n), 25))
        assert max(r) < PUSH_TOL


def test_pushforward_generalized_flaschka(rng):
    for n in (3, 4):
        spec = sklyanin_spectrum(n)
        r = pushforward_residual(partial(generalized_flaschka_block, spec), partial(qp_field, "sklyanin"),
                                 partial(spectrum_field, spec), *_block(lambda: random_qp(rng, n), 25))
        assert max(r) < PUSH_TOL


def test_pushforward_c_to_v(rng):
    for n in (4, 5, 7):
        r = pushforward_residual(c_to_v_block, partial(c_field, "D"), vd_field,
                                 *_block(lambda: random_c(rng, n + 1), 25), jacobian=c_to_v_jacobian)
        assert max(r) < PUSH_TOL


def test_c_to_v_jacobian_matches_fd(rng):
    state = random_c(rng, 8).replace_coords(np.full(8, 1.3))
    rows = [state.array]
    closed = c_to_v_jacobian(state, rows, c_to_v_block(state, rows)[1])
    assert np.max(np.abs(closed - map_jacobian(c_to_v_block, state, rows))) < 1e-8


def _complex(rng, lo, hi, k, imag):
    return rng.uniform(lo, hi, k) + 1j * rng.uniform(-imag, imag, k)


# (kernel, sampler(rng, imaginary half-width)) of each map, at the sizes of
# its verify-mix or golden run; every domain admits complex states
MAPS = {
    "henon": (henon_block, lambda rng, im: u_state(_complex(rng, 0.1, 2.0, 7, im))),
    "d-map": (d_transform_block, lambda rng, im: v_state(_complex(rng, 0.5, 2.0, 15, im / 3))),
    "flaschka-sklyanin": (sklyanin_flaschka_block,
                          lambda rng, im: qp_state(_complex(rng, -1, 1, 3, im), _complex(rng, -1, 1, 3, im))),
    "flaschka-toda": (partial(toda_flaschka_block, a_chain_spectrum(7)),
                      lambda rng, im: qp_state(_complex(rng, -1, 1, 7, im), _complex(rng, -1, 1, 7, im))),
    "flaschka-general": (partial(generalized_flaschka_block, sklyanin_spectrum(7)),
                         lambda rng, im: qp_state(_complex(rng, -1, 1, 7, im), _complex(rng, -1, 1, 7, im))),
    "c-to-v": (c_to_v_block, lambda rng, im: c_state(_complex(rng, 0.1, 2.0, 16, im))),
}


@pytest.mark.parametrize("imag", [0.0, 0.3], ids=["real", "complex"])
@pytest.mark.parametrize("count", [1, 3, 8, 11])
@pytest.mark.parametrize("name", MAPS)
def test_map_jacobian_is_bitwise_the_per_state_central_difference(rng, name, count, imag):
    # one kernel call on the block of bumps must keep every bit of the
    # state-by-state differences, laid out as one state's own C-ordered matrix
    kernel, sample = MAPS[name]
    states = [sample(rng, imag) for _ in range(count)]
    rows = np.array([s.array for s in states])
    jac = map_jacobian(kernel, states[0], rows)
    zero, images = kernel(states[0], rows)
    assert jac.shape == (count, zero.dim, states[0].dim) and jac.flags.c_contiguous
    for k, state in enumerate(states):
        reference = central_difference(lambda s: image(kernel, s).array, state, FD_STEP).T
        assert jac[k].tobytes() == np.ascontiguousarray(reference).tobytes(), k
        one = image(kernel, state)
        assert one.array.tobytes() == images[k].tobytes() and one.split == zero.split


def _per_state_c_to_v_jacobian(state):
    """The closed form one state at a time, the reference of the block form."""
    c = state.array
    v = image(c_to_v_block, state).array
    n = len(c) - 1
    pairs = [(0, 1)] + [(k - 1, k) for k in range(2, n - 1)] + [(n - 2, n - 1), (n - 2, n)]
    jac = np.zeros((n, n + 1), dtype=complex)
    for k, (i, j) in enumerate(pairs):
        jac[k, i] = -v[k] / c[i]
        jac[k, j] = -v[k] / c[j]
    return jac


@pytest.mark.parametrize("imag", [0.0, 0.3], ids=["real", "complex"])
@pytest.mark.parametrize("count", [1, 3, 8, 11])
def test_c_to_v_jacobian_is_bitwise_the_per_state_closed_form(rng, count, imag):
    for nc in (4, 16):
        states = [c_state(_complex(rng, 0.1, 2.0, nc, imag)) for _ in range(count)]
        rows = np.array([s.array for s in states])
        jac = c_to_v_jacobian(states[0], rows, c_to_v_block(states[0], rows)[1])
        assert jac.shape == (count, nc - 1, nc) and jac.flags.c_contiguous
        for k, state in enumerate(states):
            assert jac[k].tobytes() == _per_state_c_to_v_jacobian(state).tobytes()


# (map, size flags, kernel name): the verify-mix sizes of d-map, c-to-v and
# flaschka-general, and the golden sizes of the other three
MUTATED = [("henon", ("--n", "7"), "henon_block"), ("d-map", ("--n", "15"), "d_transform_block"),
           ("flaschka-sklyanin", ("--m", "3"), "sklyanin_flaschka_block"),
           ("flaschka-toda", ("--n", "7"), "toda_flaschka_block"),
           ("flaschka-general", ("--n", "7"), "generalized_flaschka_block"), ("c-to-v", ("--n", "15"), "c_to_v_block")]


@pytest.mark.parametrize("name, size, kernel", MUTATED, ids=[m[0] for m in MUTATED])
def test_scaled_image_coordinate_fails_pushforward(monkeypatch, capsys, rng, name, size, kernel):
    # each image coordinate times 1.5 gives a map that is no conjugacy; its
    # Jacobian (finite differences, or c-to-v's closed form from the image)
    # follows the mutant, so only the fields can tell.  No mutant survives.
    argv = ["verify", "transform", "--map", name, *size, "--states", "8", "--seed", "11"]
    assert main(argv) == 0
    capsys.readouterr()
    original, checks = getattr(transforms, kernel), cli.SUITES["transform"].checks
    assert cli.TRANSFORMS[name].kernel is original
    mapping, sample = MAPS[name]
    for j in range(image(mapping, sample(rng, 0.0)).dim):
        def mutant(*args, j=j):
            zero, image = original(*args)
            image = image.copy()
            image[:, j] *= 1.5
            return zero, image

        row = cli.TRANSFORMS[name]._replace(kernel=mutant)  # the suite's row with the mutant kernel
        monkeypatch.setitem(checks, name, checks[name]._replace(residual=row.residual))
        code = main(argv)
        [record] = json.loads(capsys.readouterr().out)["records"]
        assert code == 1 and not record["pass"] and record["max_residual"] > record["tolerance"], j


def test_pulled_back_h2_constant_along_vd_flow():
    system = get_system("vd")
    s0 = v_state([0.05, 0.06, 0.04, 0.05, 0.06, 0.045, 0.05])
    traj = integrate(system, s0, 10.0, FixedStep(1e-3))
    zero, images = d_transform_block(s0, traj.coords)
    report = drift_report(SYSTEMS["ab"].invariant_columns(zero, ["H2"], images))
    assert report[0].max_rel_drift < 1e-7
