"""The State contract: read-only ndarray coordinates with tuple-style equality."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from lattice_flows import integrate
from lattice_flows.catalog import LatticeSystem, get_system
from lattice_flows.errors import DimensionError
from lattice_flows.states import (CHARTS, FLASCHKA_AB, VOLTERRA_U, State, ab_state, coordinate_names, matvecs,
                                  row_norms, state_from_dict, u_state)


def test_array_is_the_stored_read_only_array():
    s = ab_state([1, 2, 3], [4, 5])
    assert s.array is s.coords and s.array is s.array
    assert s.array.dtype == complex and s.array.shape == (5,)
    with pytest.raises(ValueError):
        s.array[0] = 7


def test_coordinates_are_copied_from_the_input():
    values = np.array([1.0, 2.0, 3.0])
    s = u_state(values)
    values[0] = 9.0
    assert s.array[0] == 1.0
    r = s.replace_coords(values)
    values[1] = 9.0
    assert r.array.tolist() == [9, 2, 3]


def test_sequences_of_numbers_are_accepted():
    assert u_state((1, 2.5, 3j)).array.tolist() == [1, 2.5, 3j]
    assert State(VOLTERRA_U, (np.float32(0.5), 2)).array.tolist() == [0.5, 2]
    with pytest.raises(DimensionError):
        State(VOLTERRA_U, [[1, 2], [3, 4]])


def test_equality_and_hash_follow_the_coordinate_tuple():
    a = u_state([0.0, 1.0])
    b = u_state([-0.0, 1.0])
    assert a == b and hash(a) == hash(b)
    assert hash(a) == hash((VOLTERRA_U, (0j, 1 + 0j), None))
    assert a != u_state([0.0, 2.0]) and a != State(VOLTERRA_U, [0.0, 1.0, 0.0])
    assert ab_state([1], [2]) != State(FLASCHKA_AB, [1, 2], 0)
    assert a != (0j, 1 + 0j)
    nan = u_state([math.nan, 1.0])
    assert nan == nan and nan != u_state([math.nan, 1.0])
    assert hash(nan) == hash(nan)
    assert len({a, b, u_state([0.0, 1.0])}) == 1


@pytest.mark.parametrize("chart", CHARTS)
def test_chart_table_names_documents_and_columns(chart):
    groups = CHARTS[chart]
    state = state_from_dict({name: [k + 1.0, k + 2.0] for k, name in enumerate(groups)})
    assert state.chart == chart
    assert state.array.tolist() == [k + j for k in range(len(groups)) for j in (1.0, 2.0)]
    assert coordinate_names(state) == [f"{name}{i}" for name in groups for i in (1, 2)]


def test_bench_spans_find_the_wrapped_names():
    path = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    originals = (State.replace_coords, LatticeSystem.invariants,
                 *(getattr(integrate, name) for name in spans.STEP_FUNCTIONS))
    assert spans.STEP_FUNCTIONS == ("_rk4_step", "_fehlberg_step")
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        tracer.op_id = 0
        system = get_system("ab")
        s0 = ab_state([1.0, 0.8, 1.2], [0.3, -0.1])
        # integrate builds no State per stage; a trajectory's final state is one
        assert integrate.integrate(system, s0, 0.002, integrate.FixedStep(1e-3)).final.dim == s0.dim
        integrate.integrate(system, s0, 0.002, integrate.AdaptiveStep())
        assert "H2" in system.invariants(s0)
    finally:
        tracer.op_id = -1
        restore()
    # the field span keeps systems.field_calls and integrate.field_evals_per_step counting
    assert {"states.replace_coords", "systems.ab_field", "integrate._rk4_step", "integrate._fehlberg_step",
            "catalog.invariants"} <= {tracer.names[i] for i in tracer.name_id}
    assert originals == (State.replace_coords, LatticeSystem.invariants,
                         *(getattr(integrate, name) for name in spans.STEP_FUNCTIONS))


@pytest.mark.parametrize("size", [7, 8, 15, 49, 169, 841])
def test_row_norms_equal_numpy_norm_on_each_slice(size):
    # 841 = 29 x 29, a vd L at n = 15 flattened; one ddot per slice keeps the bits
    rng = np.random.default_rng(size)
    x = (rng.normal(size=(9, size)) + 1j * rng.normal(size=(9, size))) * 10.0 ** rng.uniform(-8, 8, (9, 1))
    want = np.array([np.linalg.norm(row) for row in x])
    assert row_norms(x).tobytes() == want.tobytes()
    side = math.isqrt(size)
    if side * side == size:  # a stack of matrices takes each one's Frobenius norm
        stack = x.reshape(9, side, side)
        assert row_norms(stack).tobytes() == np.array([np.linalg.norm(m) for m in stack]).tobytes()


def test_row_norms_keep_a_non_finite_slice_to_itself():
    x = np.random.default_rng(3).normal(size=(5, 12)) + 0j
    x[1, 4] = np.nan
    x[3, 0] = complex(0.0, np.inf)
    norms = row_norms(x)
    assert np.isnan(norms[1]) and norms[3] == np.inf
    finite = [0, 2, 4]
    assert norms[finite].tobytes() == np.array([np.linalg.norm(x[r]) for r in finite]).tobytes()


def test_matvecs_equal_one_product_per_slice():
    rng = np.random.default_rng(5)
    matrices = rng.normal(size=(8, 11, 13)) + 1j * rng.normal(size=(8, 11, 13))
    vectors = rng.normal(size=(13, 8)) + 1j * rng.normal(size=(13, 8))  # columns, as fields return them
    want = np.array([m @ v for m, v in zip(matrices, np.ascontiguousarray(vectors.T))])
    assert matvecs(matrices, vectors.T).tobytes() == want.tobytes()
