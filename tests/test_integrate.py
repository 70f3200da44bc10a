import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import catalog_cases, fehlberg_step_reference, state_per_stage
from lattice_flows import DomainExit, StepFailure, ab_state, c_state, qp_state, u_state, v_state
from lattice_flows import integrate as integrate_module
from lattice_flows.catalog import LatticeSystem, get_system
from lattice_flows.cli import main
from lattice_flows.integrate import (
    AdaptiveStep,
    FixedStep,
    _fehlberg_step,
    _rk4_step,
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


def test_rk4_order_by_richardson():
    # with error C dt^4, the differences of the endpoints at dt, dt/2 and dt/4
    # shrink by 2^4 = 16; no reference solution is needed
    system = get_system("ab")
    s0 = ab_state([1.0, 0.8, 1.2], [0.3, -0.1])
    coarse, mid, fine = (integrate(system, s0, 1.0, FixedStep(dt)).final.array for dt in (2e-3, 1e-3, 5e-4))
    ratio = np.linalg.norm(coarse - mid) / np.linalg.norm(mid - fine)
    assert 12.0 <= ratio <= 20.0


def test_time_symmetry():
    system = get_system("ab")
    s0 = ab_state([1.0, 0.8, 1.2], [0.3, -0.1])
    fwd = integrate(system, s0, 1.0, FixedStep(1e-3))
    reverse = LatticeSystem("ab-reversed", {FLASCHKA_AB: lambda s, y, _: -ab_field(s, y)})
    back = integrate(reverse, fwd.final, 1.0, FixedStep(1e-3))
    assert np.linalg.norm(back.final.array - s0.array) < 1e-7


def test_adaptive_matches_fixed():
    system = get_system("km")
    s0 = u_state([1.0, 0.5, 0.8])
    end_fixed = integrate(system, s0, 1.0, FixedStep(2e-4)).final.array
    end_adapt = integrate(system, s0, 1.0, AdaptiveStep(rtol=1e-11, atol=1e-13)).final.array
    assert np.linalg.norm(end_fixed - end_adapt) < 1e-8


def test_domain_exit_reports_partial_trajectory():
    sinking = LatticeSystem("sink", {VOLTERRA_U: lambda s, y, _: -np.ones(s.dim)})
    with pytest.raises(DomainExit) as err:
        integrate(sinking, u_state([0.5, 1.0]), 3.0, FixedStep(1e-3))
    partial = err.value.trajectory
    assert partial is not None and len(partial.times) > 10
    assert partial.times[-1] < 3.0
    # positivity watch never fires for the positivity-preserving chains
    traj = integrate(get_system("c-a"), c_state([1.0, 1.0]), 3.0, FixedStep(1e-3))
    assert traj.times[-1] == pytest.approx(3.0)


def test_domain_exit_names_the_coordinate_its_value_t_and_dt():
    sinking = LatticeSystem("sink", {VOLTERRA_U: lambda s, y, _: -np.ones(s.dim)})
    with pytest.raises(DomainExit, match=r"^positivity-constrained coordinate u2 crossed zero to "
                                         r"-0\.000[0-9]+ at t = 0\.751 \(dt = 0\.001\)$"):
        integrate(sinking, u_state([1.0, 0.7505, 2.0]), 3.0, FixedStep(1e-3))


def test_step_failure_names_the_first_non_finite_coordinate_t_and_dt():
    # a2 and b1 overflow in the first step; a2 comes first in the CSV
    system = LatticeSystem("overflow", {FLASCHKA_AB: lambda s, y, _: np.where(np.arange(s.dim) >= 1, np.inf, 0.0)})
    with pytest.raises(StepFailure, match=r"^coordinate a2 overflowed to a non-finite value \(inf\) "
                                          r"at t = 0\.02 \(dt = 0\.02\)$"):
        integrate(system, ab_state([1.0, 2.0], [3.0]), 1.0, FixedStep(0.02))


def test_adaptive_overflow_is_named_as_the_fixed_step_names_it(capsys):
    # exp(600) overflows at the initial state: every trial is non-finite and its
    # NaN error estimate rejects it, until dt falls below DT_MIN
    s0 = qp_state([-300.0, 0.0], [0.0, 0.0])
    with pytest.raises(StepFailure, match=r"^coordinate q1 overflowed to a non-finite value \(nan\+nanj\) "
                                          r"at t = 1\.6384e-12 \(dt = 1\.64e-12\)$"):
        integrate(get_system("sklyanin"), s0, 0.1, AdaptiveStep())
    argv = ["simulate", "--system", "sklyanin", "--state", '{"q":[-300,0],"p":[0,0]}', "--t", "0.1", "--adaptive"]
    assert main(argv) == 1
    assert capsys.readouterr().err == ("error: coordinate q1 overflowed to a non-finite value (nan+nanj) "
                                       "at t = 1.6384e-12 (dt = 1.64e-12)\n")


def test_simulate_names_the_coordinate_that_leaves_the_domain(capsys):
    argv = ["simulate", "--system", "bv-b", "--state", '{"u": [5, 5, 5, 5]}', "--t", "1", "--dt", "0.01"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(
        "error: positivity-constrained coordinate u4 crossed zero to -4.62")


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
        LatticeSystem("still", {FLASCHKA_AB: lambda s, y, _: np.zeros(s.dim)}),
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


STILL = LatticeSystem("still", {FLASCHKA_AB: lambda s, y, _: np.zeros(s.dim)})


@pytest.mark.parametrize("t_end, dt", [(10.0, 0.01), (7.0, 0.01), (3.0, 0.001), (100.0, 0.1), (50.0, 0.01)])
def test_fixed_step_takes_no_sliver_step(t_end, dt):
    # the running sum of N dt's falls short of t_end = N dt by ~1e-11 dt;
    # that remainder is rounding and must not become a step of its own
    traj = integrate(STILL, ab_state([1, 1, 1], [0, 0]), t_end, FixedStep(dt))
    assert len(traj.times) == math.ceil(Fraction(repr(t_end)) / Fraction(repr(dt))) + 1
    assert abs(traj.times[-1] - t_end) <= 1e-12 * max(1.0, t_end)
    assert np.min(np.diff(traj.times)) > 0.5 * dt


def test_fixed_step_limit_counts_t_over_dt_rounded_up(monkeypatch):
    monkeypatch.setattr(integrate_module, "MAX_FIXED_STEPS", 10)
    s0 = ab_state([1, 1, 1], [0, 0])
    assert len(integrate(STILL, s0, 0.01, FixedStep(1e-3)).times) == 11  # t / dt = 10 steps
    for t_end in (0.0101, 1e300):  # 11 steps; an overflowing t / dt
        with pytest.raises(ValueError, match="more than the 10 fixed steps"):
            integrate(STILL, s0, t_end, FixedStep(1e-3))
    with pytest.raises(ValueError, match="more than the 10 fixed steps"):
        integrate(STILL, s0, 0.01, FixedStep(1e-320))


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


def test_steps_match_the_state_per_stage_reference_bit_for_bit(rng):
    # the integrator's raw-row field and unrolled Fehlberg sums change no bit,
    # signed zeros included, against a State per stage and generator sums
    for system, s0 in catalog_cases(rng):
        def field(y):
            return system.field(s0, y)

        reference = state_per_stage(system, s0)
        for dt in (1e-3, 0.05):
            assert _rk4_step(field, s0.array, dt).tobytes() == _rk4_step(reference, s0.array, dt).tobytes()
            got, want = _fehlberg_step(field, s0.array, dt), fehlberg_step_reference(reference, s0.array, dt)
            assert [x.tobytes() for x in got] == [x.tobytes() for x in want], (system.key, s0)


def _bits(x):
    """The bytes of a complex array with every NaN made the same NaN."""
    parts = np.asarray(x, dtype=complex).view(float)
    return np.where(np.isnan(parts), np.nan, parts).tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 10])
def test_the_stage_stack_keeps_the_bits_of_the_generator_sums(rng, d):
    # the stage sums add in order at every state dimension: at d = 1 the
    # stack's stage axis is contiguous, and np.add.reduce would sum it pairwise
    W = rng.normal(size=(d, d))
    for field in (lambda y: W @ np.sin(y), np.sinh):
        for _ in range(40):
            real = rng.normal(size=d) * 10.0 ** rng.integers(-3, 3, d)
            complex_row = real + 1j * rng.normal(size=d)
            signed_zeros = rng.choice([0.0, -0.0], d) + 1j * rng.choice([0.0, -0.0], d)
            with_inf = complex_row.copy()
            with_inf[rng.integers(d)] = rng.choice([np.inf, -np.inf, complex(0.5, np.inf)])
            for y in (real.astype(complex), complex_row, signed_zeros, with_inf):
                dt = rng.choice([1e-3, 0.05, 0.7])
                with np.errstate(invalid="ignore", over="ignore"):
                    got, want = _fehlberg_step(field, y, dt), fehlberg_step_reference(field, y, dt)
                assert [_bits(x) for x in got] == [_bits(x) for x in want], (d, y, dt)
