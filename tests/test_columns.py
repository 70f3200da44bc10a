"""Invariant columns against the per-state formulas they replace, bit for bit.

``LatticeSystem.invariant_columns`` evaluates every named invariant over a
block of states: the trace powers from one stacked power chain,
the closed forms (C, F, H, F1/F2) as array expressions.  The references
below are the per-state formulas the catalog evaluated one row at a time
before; each column value must equal its reference exactly, real and
imaginary parts, on real and complex states of every chart, at Lax sizes
up to T = 17 and with more rows than one block of ``simulate`` holds.  The gradients of
``LatticeSystem.invariant_gradients`` are checked against central
differences of the same columns.
"""

import numpy as np
import pytest

from conftest import central_difference
from lax_reference import assembled_pair

from lattice_flows import lax, systems
from lattice_flows.catalog import SYSTEMS, get_system
from lattice_flows.integrate import BLOCK_ROWS
from lattice_flows.rootdata import null_combination, sklyanin_spectrum
from lattice_flows.states import FLASCHKA_AB, QP, VOLTERRA_U, VOLTERRA_V, State

ROWS = BLOCK_ROWS + 72  # more rows than simulate hands in at once


def _trace_ref(L, k):
    power = np.eye(len(L), dtype=complex)
    for _ in range(k):
        power = power @ L
    return complex(np.trace(power)) / k


def _hamiltonian_ref(name, s):
    q, p = s.array[: s.split], s.array[s.split :]
    kin = 0.5 * np.sum(p**2)
    chain = np.sum(np.exp(q[:-1] - q[1:])) if len(q) > 1 else 0.0
    if name == "toda":
        return complex(kin + chain)
    if name == "sklyanin":
        return complex(kin + chain + np.exp(-2 * q[0]) + np.exp(2 * q[-1]))
    ends = np.exp(-q[0]) + np.exp(-2 * q[0]) + np.exp(q[-1]) + np.exp(2 * q[-1])
    return complex(kin + chain + ends)


def _lax_matrix(key, s):
    """L at one state."""
    return assembled_pair(SYSTEMS[key].lax, s)[0][0]


def _reference(key, name, s, spectrum):
    """The value the catalog's per-state callable gave for this invariant."""
    if key == "vd" and name.startswith("H"):
        k = int(name[1:])
        return complex(np.trace(np.linalg.matrix_power(_lax_matrix("vd", s), 2 * k))) / k
    if name.startswith("H") and name != "H":
        return _trace_ref(_lax_matrix(key, s), int(name[1:]))
    if name == "H":
        return _hamiltonian_ref(key.replace("-", "_"), s)
    if name == "C":
        a = s.array[: s.split]
        return complex(a[0] * np.prod(a[1:-1] ** 2) * a[-1])
    if name == "F":
        v = s.array
        return complex((v[-1] - v[-2]) * np.prod(v[:-2]))
    lam = null_combination(spectrum)[0]
    a, b = s.array[: s.split], s.array[s.split :]
    if name == "F1":
        return complex(np.dot(lam, b))
    return complex(np.prod([z**e for z, e in zip(a, lam)]))


def _rows(rng, chart, d, complex_part):
    """Random coordinate rows; positive real parts on the Volterra charts."""
    lo = 0.1 if chart in (VOLTERRA_U, VOLTERRA_V) else -1.0
    rows = rng.uniform(lo, 2.0 if lo > 0 else 1.0, (ROWS, d)).astype(complex)
    if complex_part:
        rows += 1j * rng.uniform(-0.3, 0.3, (ROWS, d))
    return rows


# (system, chart, d, split): km n = 3, 8; vd n = 4, 9 (T = 7, 17); ab m = 2, 7
# (T = 4, 14); toda n = 2, 9 in (a, b) and 1, 9 in (q, p); sklyanin n = 2, 9.
CASES = [
    ("km", VOLTERRA_U, 3, None), ("km", VOLTERRA_U, 8, None),
    ("vd", VOLTERRA_V, 4, None), ("vd", VOLTERRA_V, 9, None),
    ("ab", FLASCHKA_AB, 5, 3), ("ab", FLASCHKA_AB, 15, 8),
    ("toda", FLASCHKA_AB, 3, 1), ("toda", FLASCHKA_AB, 17, 8),
    ("toda", QP, 2, 1), ("toda", QP, 18, 9),
    ("sklyanin", QP, 4, 2), ("sklyanin", QP, 18, 9),
    ("sklyanin-full", QP, 6, 3), ("sklyanin-full", QP, 18, 9),
    ("spectrum", FLASCHKA_AB, 6, 3), ("spectrum", FLASCHKA_AB, 18, 9),
]


def test_cases_cover_every_system_with_invariants():
    covered = {key for key, *_ in CASES}
    for key, system in SYSTEMS.items():
        if key not in covered:
            for chart in system.charts:
                assert system.invariants(State(chart, [1.0] * 5)) == {}, key
    assert covered <= set(SYSTEMS)


def _mismatches(rng, key, chart, d, split, complex_part):
    """Column cells, and the values of each state alone, that differ from the reference."""
    spectrum = sklyanin_spectrum(split - 1) if key == "spectrum" else None
    system = get_system(key, spectrum)
    block = State(chart, _rows(rng, chart, d, complex_part), split)
    names = list(system.invariants(block))
    assert names
    columns = system.invariant_columns(block, names)
    bad = []
    for i, row in enumerate(block.rows):
        s = block.replace_coords(row)
        alone = system.invariant_columns(s, names)
        for name in names:
            ref = _reference(key, name, s, spectrum)
            for got in (columns[name][i], alone[name][0]):
                if not (got.real == ref.real and got.imag == ref.imag):
                    bad.append((name, i, got, ref))
    return bad


@pytest.mark.parametrize("complex_part", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("key, chart, d, split", CASES, ids=lambda c: str(c))
def test_invariant_column_is_bitwise_the_per_state_value(rng, key, chart, d, split, complex_part):
    assert _mismatches(rng, key, chart, d, split, complex_part) == []


def test_columns_are_plain_complex_lists(rng):
    columns = get_system("ab").invariant_columns(State(FLASCHKA_AB, _rows(rng, FLASCHKA_AB, 7, True), 4), ["H2", "C"])
    for values in columns.values():
        assert len(values) == ROWS and all(type(v) is complex for v in values)


def test_array_division_mutant_is_caught(rng, monkeypatch):
    """Dividing the traces with numpy's complex array / k (a multiply by 1/k) moves bits."""

    def mutant(L, orders, grading=1):
        out, power = {}, np.eye(L.shape[-1], dtype=complex)
        for k in range(1, max(orders) + 1):
            power = power @ L
            out[k] = (np.array([np.trace(p) for p in power]) / k).tolist()
        return [out[k] for k in orders]

    monkeypatch.setattr(lax, "trace_columns", mutant)
    bad = _mismatches(rng, "ab", FLASCHKA_AB, 15, 8, False)
    assert bad and {name for name, *_ in bad} <= {"H6", "H10", "H12", "H14"}


def test_trace_invariants_match_the_single_matrix_chain(rng):
    for key, state in (("ab", State(FLASCHKA_AB, rng.uniform(-1, 1, 15), 8)),
                       ("km", State(VOLTERRA_U, rng.uniform(0.1, 2, 8)))):
        L = _lax_matrix(key, state)
        got = [column[0] for column in lax.trace_columns(L[None], range(1, 10))]
        assert got == [_trace_ref(L, k) for k in range(1, 10)]


def test_lax_stack_is_the_stack_of_single_matrices(rng):
    for key, chart, d, split in (("km", VOLTERRA_U, 8, None), ("vd", VOLTERRA_V, 9, None),
                                 ("ab", FLASCHKA_AB, 15, 8), ("toda", FLASCHKA_AB, 17, 8)):
        block = State(chart, _rows(rng, chart, d, True)[:20], split)
        builder = SYSTEMS[key].lax
        L, B, _ = assembled_pair(builder, block)
        assert L.flags.c_contiguous and B.flags.c_contiguous
        singles = [assembled_pair(builder, block.replace_coords(r)) for r in block.rows]
        assert np.array_equal(L, np.concatenate([one[0] for one in singles]))
        assert np.array_equal(B, np.concatenate([one[1] for one in singles]))


def test_grad_trace_invariant_takes_several_orders(rng):
    block = State(FLASCHKA_AB, rng.uniform(-1, 1, (3, 15)), 8)
    both = lax.grad_trace_invariant(lax.ab_lax, block, [2, 4])
    assert both.shape == (2, 3, 15)
    for grads, k in zip(both, (2, 4)):
        assert np.array_equal(grads, lax.grad_trace_invariant(lax.ab_lax, block, [k])[0])


def test_closed_forms_keep_their_state_signatures():
    state = State(QP, [0.1, -0.2, 0.3, 0.0], 2)
    assert type(systems.hamiltonian_eval("sklyanin", state)) is complex
    assert systems.hamiltonian_column("sklyanin", state.replace_coords([state.array] * 3)) == [
        systems.hamiltonian_eval("sklyanin", state)] * 3


def test_numpy_array_product_mutant_is_caught(rng, monkeypatch):
    """casimir_C's outer products as numpy complex array products move bits on complex states."""

    def mutant(block):
        a = block.rows[:, : block.split]
        return (a[:, 0] * np.prod(a[:, 1:-1] ** 2, axis=1) * a[:, -1]).tolist()

    monkeypatch.setattr(lax, "casimir_C_column", mutant)
    assert _mismatches(rng, "ab", FLASCHKA_AB, 5, 3, False) == []
    bad = _mismatches(rng, "ab", FLASCHKA_AB, 5, 3, True)
    assert bad and {name for name, *_ in bad} == {"C"}


# ---------------------------------------------------------------------------
# gradients of the named invariants
# ---------------------------------------------------------------------------

# (system, chart, d, split): km n = 5, toda n = 4 in (a, b), vd n = 7, ab m = 3
GRADIENT_CASES = [("km", VOLTERRA_U, 5, None), ("toda", FLASCHKA_AB, 7, 3),
                  ("vd", VOLTERRA_V, 7, None), ("ab", FLASCHKA_AB, 7, 4)]


@pytest.mark.parametrize("complex_part", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("key, chart, d, split", GRADIENT_CASES, ids=lambda c: str(c))
def test_invariant_gradient_is_the_derivative_of_its_column(rng, key, chart, d, split, complex_part):
    # the invariants are holomorphic, so a real step gives the complex derivative
    system = SYSTEMS[key]
    block = State(chart, _rows(rng, chart, d, complex_part)[:3], split)
    names = list(system.invariants(block))
    grads = system.invariant_gradients(block, names)
    assert list(grads) == names and all(grad.shape == (3, d) for grad in grads.values())
    for i, row in enumerate(block.rows):
        s = block.replace_coords(row)
        for name in names:
            want = central_difference(lambda t: system.invariant_columns(t, [name])[name][0], s, 1e-6)
            assert np.max(np.abs(grads[name][i] - want)) < 1e-7 * max(1.0, np.max(np.abs(want))), (name, i)


def test_trace_gradients_of_one_lax_matrix_take_one_call(rng, monkeypatch):
    calls = []
    real = lax.grad_trace_invariant
    monkeypatch.setattr(lax, "grad_trace_invariant", lambda *args: calls.append(args[2]) or real(*args))
    block = State(VOLTERRA_V, _rows(rng, VOLTERRA_V, 9, True)[:4])
    grads = SYSTEMS["vd"].invariant_gradients(block, ["H4", "F", "H2", "H4"])
    assert list(grads) == ["H4", "H2", "F"] and calls == [[8, 4]]  # vd's grading 2: tr(L^{2k})


@pytest.mark.parametrize("key, state, name", [
    ("toda", State(QP, [0.1, -0.2, 0.3, 0.0], 2), "H"),
    ("spectrum", State(FLASCHKA_AB, [-1, -0.5, -0.8, 0.1, 0, -0.2], 3), "F1"),
    ("spectrum", State(FLASCHKA_AB, [-1, -0.5, -0.8, 0.1, 0, -0.2], 3), "F2"),
], ids=["toda-H", "spectrum-F1", "spectrum-F2"])
def test_an_invariant_without_a_gradient_is_named(key, state, name):
    system = get_system(key, sklyanin_spectrum(2) if key == "spectrum" else None)
    assert name in system.invariants(state)
    with pytest.raises(ValueError, match=f"invariant '{name}' of system '{key}' has no gradient"):
        system.invariant_gradients(state, [name])
