import math
from fractions import Fraction

import numpy as np
import pytest

from lattice_flows import DomainExit, StepFailure, ab_state, c_state, u_state, v_state
from lattice_flows.catalog import LatticeSystem, get_system
from lattice_flows.cli import main
from lattice_flows.integrate import (
    AdaptiveStep,
    FixedStep,
    drift_report,
    integrate,
    trajectory_csv,
)
from lattice_flows.states import FLASCHKA_AB, VOLTERRA_U, coordinate_names
from lattice_flows.systems import ab_field


def test_zero_time_single_sample():
    system = get_system("ab")
    s0 = ab_state([1, 1, 1], [0, 0])
    traj = integrate(system, s0, 0.0, FixedStep(1e-3))
    assert len(traj.times) == 1 and traj.final == s0


def test_fixed_step_hits_t_end():
    system = get_system("ab")
    traj = integrate(system, ab_state([1, 1, 1], [0, 0]), 0.0105, FixedStep(1e-3))
    assert traj.times[-1] == pytest.approx(0.0105, abs=1e-12)


def test_rk4_order_against_reference():
    system = get_system("ab")
    s0 = ab_state([1.0, 0.8, 1.2], [0.3, -0.1])
    ref = integrate(system, s0, 1.0, AdaptiveStep(rtol=1e-12, atol=1e-13)).final.array

    def endpoint_error(dt):
        end = integrate(system, s0, 1.0, FixedStep(dt)).final.array
        return np.linalg.norm(end - ref)

    ratio = endpoint_error(2e-3) / endpoint_error(1e-3)
    assert 12.0 <= ratio <= 20.0


def test_time_symmetry():
    system = get_system("ab")
    s0 = ab_state([1.0, 0.8, 1.2], [0.3, -0.1])
    fwd = integrate(system, s0, 1.0, FixedStep(1e-3))
    reverse = LatticeSystem("ab-reversed", {FLASCHKA_AB: lambda s, _: -ab_field(s)})
    back = integrate(reverse, fwd.final, 1.0, FixedStep(1e-3))
    assert np.linalg.norm(back.final.array - s0.array) < 1e-7


def test_adaptive_matches_fixed():
    system = get_system("km")
    s0 = u_state([1.0, 0.5, 0.8])
    end_fixed = integrate(system, s0, 1.0, FixedStep(2e-4)).final.array
    end_adapt = integrate(system, s0, 1.0, AdaptiveStep(rtol=1e-11, atol=1e-13)).final.array
    assert np.linalg.norm(end_fixed - end_adapt) < 1e-8


def test_domain_exit_reports_partial_trajectory():
    sinking = LatticeSystem("sink", {VOLTERRA_U: lambda s, _: -np.ones(s.dim)})
    with pytest.raises(DomainExit) as err:
        integrate(sinking, u_state([0.5, 1.0]), 3.0, FixedStep(1e-3))
    partial = err.value.trajectory
    assert partial is not None and len(partial.times) > 10
    assert partial.times[-1] < 3.0
    # positivity watch never fires for the positivity-preserving chains
    traj = integrate(get_system("c-a"), c_state([1.0, 1.0]), 3.0, FixedStep(1e-3))
    assert traj.times[-1] == pytest.approx(3.0)


def test_step_failure_near_blowup():
    # the leading v equation grows superlinearly; a large state blows up fast
    system = get_system("vd")
    with pytest.raises((StepFailure, DomainExit)):
        integrate(system, v_state([2.0, 2.0, 2.0, 2.0]), 5.0, AdaptiveStep())


def test_drift_report_constant_function():
    system = get_system("ab")
    traj = integrate(system, ab_state([1, 1, 1], [0.1, 0.2]), 0.5, FixedStep(1e-3))
    rec = drift_report({"one": [1.0] * len(traj.times)})[0]
    assert rec.max_abs_drift == 0.0 and rec.max_rel_drift == 0.0


def test_coordinate_names():
    assert coordinate_names(ab_state([1, 1], [1])) == ["a1", "a2", "b1"]
    assert coordinate_names(u_state([1, 2])) == ["u1", "u2"]
    from lattice_flows import qp_state

    assert coordinate_names(qp_state([1], [2])) == ["q1", "p1"]


def test_csv_shape_and_precision():
    system = get_system("ab")
    s0 = ab_state([1, 1, 1], [0, 0])
    traj = integrate(system, s0, 0.002, FixedStep(1e-3))
    text = trajectory_csv(traj, system.invariant_columns(s0, ["H2"], traj.coords))
    lines = text.strip().split("\n")
    assert lines[0] == "t,a1,a2,a3,b1,b2,H2"
    assert len(lines) == 4
    third = float(lines[1].split(",")[1])
    assert third == 1.0
    # 17 significant digits survive the round trip
    value = 1 / 3
    traj2 = integrate(system, ab_state([value, 1, 1], [0, 0]), 0.0, FixedStep(1e-3))
    cell = trajectory_csv(traj2).strip().split("\n")[1].split(",")[1]
    assert float(cell) == value


def test_csv_complex_cell():
    traj = integrate(
        LatticeSystem("still", {FLASCHKA_AB: lambda s, _: np.zeros(s.dim)}),
        ab_state([1j, 1, 1], [0, 0]),
        0.0,
        FixedStep(1.0),
    )
    cell = trajectory_csv(traj).strip().split("\n")[1].split(",")[1]
    assert cell == "0+1j"


@pytest.mark.parametrize(
    "t_end, policy",
    [
        (float("nan"), FixedStep(1e-3)),
        (float("inf"), FixedStep(1e-3)),
        (float("inf"), AdaptiveStep()),
        (1.0, FixedStep(float("nan"))),
        (1.0, FixedStep(float("inf"))),
        (1.0, FixedStep(-1e-3)),
        (1.0, AdaptiveStep(rtol=-1.0)),
        (1.0, AdaptiveStep(atol=-1e-12)),
        (1.0, AdaptiveStep(rtol=float("nan"))),
        (1.0, AdaptiveStep(atol=float("inf"))),
        (1.0, AdaptiveStep(rtol=0.0, atol=0.0)),
        (0.0, FixedStep(float("nan"))),
    ],
    ids=repr,
)
def test_integrate_rejects_bad_step_parameters(t_end, policy):
    with pytest.raises(ValueError):
        integrate(get_system("km"), u_state([1.0, 0.5, 0.8]), t_end, policy)


def test_integrate_accepts_one_zero_tolerance():
    system = get_system("km")
    s0 = u_state([1.0, 0.5, 0.8])
    for policy in (AdaptiveStep(rtol=0.0, atol=1e-10), AdaptiveStep(rtol=1e-9, atol=0.0)):
        assert integrate(system, s0, 0.1, policy).times[-1] == pytest.approx(0.1)


STILL = LatticeSystem("still", {FLASCHKA_AB: lambda s, _: np.zeros(s.dim)})


@pytest.mark.parametrize("t_end, dt", [(10.0, 0.01), (7.0, 0.01), (3.0, 0.001), (100.0, 0.1), (50.0, 0.01)])
def test_fixed_step_takes_no_sliver_step(t_end, dt):
    # the running sum of N dt's falls short of t_end = N dt by ~1e-11 dt;
    # that remainder is rounding and must not become a step of its own
    traj = integrate(STILL, ab_state([1, 1, 1], [0, 0]), t_end, FixedStep(dt))
    assert len(traj.times) == math.ceil(Fraction(repr(t_end)) / Fraction(repr(dt))) + 1
    assert abs(traj.times[-1] - t_end) <= 1e-12 * max(1.0, t_end)
    assert np.min(np.diff(traj.times)) > 0.5 * dt


def test_fixed_step_shorter_than_dt_still_steps():
    for t_end in (1e-12, 0.0105):
        traj = integrate(STILL, ab_state([1, 1, 1], [0, 0]), t_end, FixedStep(1e-3))
        assert traj.times[-1] == pytest.approx(t_end, rel=1e-12, abs=0.0)


def test_simulate_t10_dt001_writes_1001_rows(capsys):
    argv = ["simulate", "--system", "km", "--state", '{"u": [1, 0.5]}', "--t", "10", "--dt", "0.01"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(rows) == 1001
    assert abs(float(rows[-1].split(",")[0]) - 10.0) <= 1e-11
