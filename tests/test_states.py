"""The State contract: read-only ndarray coordinates with tuple-style equality."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from lattice_flows import integrate
from lattice_flows.catalog import LatticeSystem, get_system
from lattice_flows.errors import DimensionError
from lattice_flows.states import (CHARTS, FLASCHKA_AB, VOLTERRA_U, State, ab_state, coordinate_names, state_from_dict,
                                  u_state)


def test_array_is_the_stored_read_only_array():
    s = ab_state([1, 2, 3], [4, 5])
    assert s.array is s.coords and s.array is s.array
    assert s.array.dtype == complex and s.array.shape == (5,)
    with pytest.raises(ValueError):
        s.array[0] = 7
    with pytest.raises(ValueError):
        s.first()[0] = 7
    assert s.first().tolist() == [1, 2, 3] and s.second().tolist() == [4, 5]


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
        integrate.integrate(system, s0, 0.002, integrate.FixedStep(1e-3))
        integrate.integrate(system, s0, 0.002, integrate.AdaptiveStep())
        system.invariants(s0)["H2"](s0)
    finally:
        tracer.op_id = -1
        restore()
    assert {"states.replace_coords", "integrate._rk4_step", "integrate._fehlberg_step",
            "catalog.invariants", "catalog.invariant"} <= {tracer.names[i] for i in tracer.name_id}
    assert originals == (State.replace_coords, LatticeSystem.invariants,
                         *(getattr(integrate, name) for name in spans.STEP_FUNCTIONS))
