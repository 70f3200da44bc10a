import json
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from conftest import central_difference, henon_jacobi, random_c, random_qp, random_u, random_v, run, stack
from lax_reference import assembled_pair

from lattice_flows import (
    ChartMismatch,
    DimensionError,
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
from lattice_flows.integrate import FixedStep, drift_report
from lattice_flows.lax import casimir_C_column, km_lax
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
    c_to_v_block,
    d_transform_block,
    generalized_flaschka_block,
    henon_block,
    pushforward_residual,
    sklyanin_flaschka_block,
    toda_flaschka_block,
)

PUSH_TOL = 1e-10


def a_chain_spectrum(n):
    rows = tuple(tuple(float(j == i) - float(j == i + 1) for j in range(n)) for i in range(n - 1))
    return Spectrum(n, rows)


def test_henon_examples():
    img = henon_block(u_state([2, 2, 2, 2]))  # a lone state maps to a block of one row
    assert img.array.shape == (1, 5)
    assert np.allclose(img.rows[0, : img.split], [-1, -1])
    assert np.allclose(img.rows[0, img.split :], [1, 2, 1])
    img = henon_block(u_state([0, 0, 0, 0]))
    assert np.all(img.array == 0)
    with pytest.raises(DomainError):
        henon_block(u_state([1, -1, 1, 1]))


def test_moser_reduce_examples(rng):
    u = rng.uniform(0.1, 2.0, 4)
    a = np.sqrt(u / 2)
    L = assembled_pair(km_lax, u_state(u))[0][0]
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
            L = assembled_pair(km_lax, state)[0][0]
            assert np.max(np.abs((L @ L)[::2, ::2] - henon_jacobi(state))) < 1e-12


def test_d_transform_example():
    img = d_transform_block(v_state([2, 1, 4, 1, 3]))
    assert np.allclose(img.rows[0, : img.split], [1j, 1.0, 1j])
    assert np.allclose(img.rows[0, img.split :], [-4.0, -1.5])


def test_d_transform_equal_tail_kills_a1():
    img = d_transform_block(v_state([1, 1, 1, 2, 2]))
    assert img.rows[0, 0] == 0


def test_d_transform_parity():
    with pytest.raises(ParityError):
        d_transform_block(v_state([1, 1, 1, 1]))


def test_d_transform_rejects_u_states():
    # the formula is the v chain's; on a u state it would map the wrong coordinates
    with pytest.raises(ChartMismatch, match="d_transform expects chart 'volterra_v', got 'volterra_u'"):
        d_transform_block(u_state([2, 1, 4, 1, 3]))


def test_sklyanin_flaschka_example():
    img = sklyanin_flaschka_block(qp_state([0, 0], [0, 0]))
    assert np.allclose(img.rows[0, : img.split], [2**-0.5, 0.5, 2**-0.5])
    assert np.all(img.rows[0, img.split :] == 0)


def test_casimir_constant_on_image(rng):
    for m in (2, 3, 4):
        for _ in range(100):
            c = casimir_C_column(sklyanin_flaschka_block(random_qp(rng, m)))[0]
            target = 2.0 ** -(2 * m - 1)
            assert abs(c - target) < 1e-13 * target


def test_h2_is_half_the_hamiltonian(rng):
    for _ in range(50):
        m = int(rng.integers(2, 5))
        state = random_qp(rng, m)
        h2 = SYSTEMS["ab"].invariant_columns(sklyanin_flaschka_block(state), ["H2"])["H2"][0]
        assert abs(h2 - 0.5 * hamiltonian_eval("sklyanin", state)) < 1e-12


def test_toda_flaschka_example():
    spec = a_chain_spectrum(3)
    img = toda_flaschka_block(spec, qp_state([0, 0, 0], [0, 0, 0]))
    assert np.allclose(img.rows[0, : img.split], 0.5)
    assert np.all(img.rows[0, img.split :] == 0)
    img = toda_flaschka_block(spec, qp_state([1, 0, -1], [0, 0, 0]))
    assert np.allclose(img.rows[0, : img.split], [0.5 * np.e**0.5, 0.5 * np.e**0.5])


def test_generalized_flaschka_example():
    spec = Spectrum(2, ((1, -1),))
    img = generalized_flaschka_block(spec, qp_state([np.log(2), 0], [3, 1]))
    assert np.allclose(img.rows[0, : img.split], [-2.0])
    assert np.allclose(img.rows[0, img.split :], [2.0])
    img = generalized_flaschka_block(a_chain_spectrum(2), qp_state([0, 0], [0, 0]))
    assert np.allclose(img.rows[0, : img.split], -1.0)


def test_c_to_v_examples():
    assert np.allclose(c_to_v_block(c_state([1, 1, 1, 1, 1])).array, [[1, 2, 1, 1]])
    assert np.allclose(c_to_v_block(c_state([2, 2, 2, 2, 2])).array, [[0.25, 0.5, 0.25, 0.25]])


def _block(sample, count):
    """A block of ``count`` sampled states."""
    return stack([sample() for _ in range(count)])


def test_pushforward_identity_is_zero(rng):
    identity = lambda block, tangents=None: block if tangents is None else (block, tangents)
    assert max(pushforward_residual(identity, km_field, km_field, _block(lambda: random_u(rng, 5), 3))) < 1e-9


def test_pushforward_henon(rng):
    state = u_state([2.0, 2.0, 2.0, 2.0])
    assert pushforward_residual(henon_block, km_field, toda_ab_field, state)[0] < 1e-9
    for n in (4, 5, 6, 7):
        r = pushforward_residual(henon_block, km_field, toda_ab_field, _block(lambda: random_u(rng, n), 25))
        assert len(r) == 25 and max(r) < PUSH_TOL


def test_pushforward_d_transform(rng):
    for n in (5, 7, 9):
        r = pushforward_residual(d_transform_block, vd_field, ab_field, _block(lambda: random_v(rng, n), 25))
        assert max(r) < PUSH_TOL


def test_pushforward_sklyanin_flaschka(rng):
    for m in (2, 3, 4):
        r = pushforward_residual(sklyanin_flaschka_block, partial(qp_field, "sklyanin"), ab_field,
                                 _block(lambda: random_qp(rng, m), 25))
        assert max(r) < PUSH_TOL


def test_pushforward_toda_flaschka(rng):
    for n in (3, 5):
        r = pushforward_residual(partial(toda_flaschka_block, a_chain_spectrum(n)), partial(qp_field, "toda"),
                                 toda_ab_field, _block(lambda: random_qp(rng, n), 25))
        assert max(r) < PUSH_TOL


def test_pushforward_generalized_flaschka(rng):
    for n in (3, 4):
        spec = sklyanin_spectrum(n)
        r = pushforward_residual(partial(generalized_flaschka_block, spec), partial(qp_field, "sklyanin"),
                                 partial(spectrum_field, spec), _block(lambda: random_qp(rng, n), 25))
        assert max(r) < PUSH_TOL


def test_pushforward_c_to_v(rng):
    for n in (4, 5, 7):
        r = pushforward_residual(c_to_v_block, partial(c_field, "D"), vd_field,
                                 _block(lambda: random_c(rng, n + 1), 25))
        assert max(r) < PUSH_TOL


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


def _tangents(rng, states, imag):
    """(d, N) tangent columns, one random direction per state."""
    return np.array([_complex(rng, -1, 1, s.dim, imag) for s in states]).T


@pytest.mark.parametrize("imag", [0.0, 0.3], ids=["real", "complex"])
@pytest.mark.parametrize("name", MAPS)
def test_jvp_is_the_per_state_central_difference(rng, name, imag):
    # J dx from the central differences of one state at a time; at d copies
    # of a state with tangents I the JVP columns are the whole Jacobian
    kernel, sample = MAPS[name]
    states = [sample(rng, imag) for _ in range(4)]
    tangents = _tangents(rng, states, imag)
    _, jvp = kernel(stack(states), tangents)
    for k, state in enumerate(states):
        reference = central_difference(lambda s: kernel(s).rows[0], state, 1e-6)  # (d, d')
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(jvp[:, k] - tangents[:, k] @ reference)) < 1e-7 * scale, k
        d = state.dim
        full = kernel(stack([state] * d), np.eye(d))[1]
        assert np.max(np.abs(full.T - reference)) < 1e-7 * scale, k


@pytest.mark.parametrize("imag", [0.0, 0.3], ids=["real", "complex"])
@pytest.mark.parametrize("count", [1, 3, 8, 11])
@pytest.mark.parametrize("name", MAPS)
def test_jvp_rows_keep_their_bits_in_any_block(rng, name, count, imag):
    # a state's image and JVP column have the bits of its own call, and the
    # image is the one the kernel gives without tangents
    kernel, sample = MAPS[name]
    states = [sample(rng, imag) for _ in range(count)]
    block, tangents = stack(states), _tangents(rng, states, imag)
    images, jvps = kernel(block, tangents)
    assert jvps.shape == images.columns.shape == (images.dim, count)
    assert images == kernel(block) and images.array.tobytes() == kernel(block).array.tobytes()
    for k, state in enumerate(states):
        one, jvp = kernel(state, tangents[:, k : k + 1])
        assert one.split == images.split and one.rows[0].tobytes() == images.rows[k].tobytes(), k
        assert jvp[:, 0].tobytes() == jvps[:, k].tobytes(), k


@pytest.mark.parametrize("name", MAPS)
def test_tangents_of_another_shape_are_rejected(rng, name):
    # the tangents must be the block's columns: (d, N), one per state
    kernel, sample = MAPS[name]
    block = stack([sample(rng, 0.0) for _ in range(3)])
    kernel(block, block.columns)
    for shape in [block.rows.shape, (block.dim, 2), (block.dim - 1, 3), (block.dim,)]:
        with pytest.raises(DimensionError, match="tangent columns"):
            kernel(block, np.ones(shape))


# (map, size flags, kernel name): the verify-mix sizes of d-map, c-to-v and
# flaschka-general, and the golden sizes of the other three
MUTATED = [("henon", ("--n", "7"), "henon_block"), ("d-map", ("--n", "15"), "d_transform_block"),
           ("flaschka-sklyanin", ("--m", "3"), "sklyanin_flaschka_block"),
           ("flaschka-toda", ("--n", "7"), "toda_flaschka_block"),
           ("flaschka-general", ("--n", "7"), "generalized_flaschka_block"), ("c-to-v", ("--n", "15"), "c_to_v_block")]


@pytest.mark.parametrize("name, size, kernel", MUTATED, ids=[m[0] for m in MUTATED])
def test_scaled_image_coordinate_fails_pushforward(monkeypatch, capsys, rng, name, size, kernel):
    # each image coordinate times 1.5, with its JVP row scaled alike, is a
    # map with its exact JVP that is no conjugacy, so only the fields can
    # tell.  No mutant survives.
    argv = ["verify", "transform", "--map", name, *size, "--states", "8", "--seed", "11"]
    assert main(argv) == 0
    capsys.readouterr()
    original, checks = getattr(transforms, kernel), cli.SUITES["transform"].checks
    assert cli.TRANSFORMS[name].kernel is original
    mapping, sample = MAPS[name]
    for j in range(mapping(sample(rng, 0.0)).dim):
        def mutant(*args, j=j):
            result = original(*args)  # the image, or (image, JVP columns) given tangents
            image, jvp = result if isinstance(result, tuple) else (result, None)
            scaled = np.array(image.array)
            scaled[:, j] *= 1.5
            if jvp is None:
                return image.replace_coords(scaled)
            jvp = np.array(jvp)
            jvp[j] *= 1.5
            return image.replace_coords(scaled), jvp

        row = cli.TRANSFORMS[name]._replace(kernel=mutant)  # the suite's row with the mutant kernel
        monkeypatch.setitem(checks, name, checks[name]._replace(residual=row.residual))
        code = main(argv)
        [record] = json.loads(capsys.readouterr().out)["records"]
        assert code == 1 and not record["pass"] and record["max_residual"] > record["tolerance"], j


def _scaled_component(field, j, factor):
    """A chart field whose component j is scaled by ``factor``."""
    def scaled(state, y, spectrum):
        out = np.array(field(state, y, spectrum), dtype=complex)
        out[j] *= factor
        return out

    return scaled


@pytest.mark.parametrize("name, size, kernel", MUTATED, ids=[m[0] for m in MUTATED])
def test_target_field_off_by_1e_9_fails_pushforward(monkeypatch, capsys, rng, name, size, kernel):
    # one component of the target field times 1 + 1e-9: a relative error that
    # central differences could not see under their 1e-8 gate fails every map
    argv = ["verify", "transform", "--map", name, *size, "--states", "40", "--seed", "11"]
    assert main(argv) == 0
    capsys.readouterr()
    checks, row = cli.SUITES["transform"].checks, cli.TRANSFORMS[name]
    assert checks[name].tolerance == 1e-10
    mapping, sample = MAPS[name]
    for j in range(mapping(sample(rng, 0.0)).dim):
        fields = {chart: _scaled_component(f, j, 1 + 1e-9) for chart, f in row.target.fields.items()}
        mutant = row._replace(target=replace(row.target, fields=fields))
        monkeypatch.setitem(checks, name, checks[name]._replace(residual=mutant.residual))
        code = main(argv)
        [record] = json.loads(capsys.readouterr().out)["records"]
        assert code == 1 and not record["pass"], (j, record["max_residual"])


def test_pulled_back_h2_constant_along_vd_flow():
    system = get_system("vd")
    s0 = v_state([0.05, 0.06, 0.04, 0.05, 0.06, 0.045, 0.05])
    _, coords = run(system, s0, 10.0, FixedStep(1e-3))
    report = drift_report(SYSTEMS["ab"].invariant_columns(d_transform_block(s0.replace_coords(coords)), ["H2"]))
    assert report[0].max_rel_drift < 1e-7
