import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import field_reference
from conftest import (
    FEHLBERG_A,
    FEHLBERG_B4,
    FEHLBERG_C,
    FEHLBERG_ERR,
    catalog_cases,
    fehlberg_step_reference,
    run,
    state_per_stage,
)
from lattice_flows import DomainExit, State, StepFailure, ab_state, c_state, qp_state, u_state, v_state
from lattice_flows import integrate as integrate_module
from lattice_flows.catalog import SYSTEMS, LatticeSystem, get_system
from lattice_flows.cli import main
from lattice_flows.integrate import (
    BLOCK_ROWS,
    FEHLBERG_ROWS,
    LIST_STEP_MAX_DIM,
    AdaptiveStep,
    FixedStep,
    _fehlberg_step,
    _rk4_step,
    drift_report,
    integrate,
    trajectory_csv,
)
from lattice_flows.states import FLASCHKA_AB, VOLTERRA_U, VOLTERRA_V, coordinate_names
from lattice_flows.systems import ab_field


def final(system, s0, t_end, policy):
    """The last row a run hands its sink."""
    return run(system, s0, t_end, policy)[1][-1]


def test_zero_time_single_sample():
    system = get_system("ab")
    s0 = ab_state([1, 1, 1], [0, 0])
    times, coords = run(system, s0, 0.0, FixedStep(1e-3))
    assert times.tolist() == [0.0] and coords.tobytes() == s0.array[None].tobytes()


def test_fixed_step_hits_t_end():
    system = get_system("ab")
    times, _ = run(system, ab_state([1, 1, 1], [0, 0]), 0.0105, FixedStep(1e-3))
    assert times[-1] == pytest.approx(0.0105, abs=1e-12)


def test_rk4_order_by_richardson():
    # with error C dt^4, the differences of the endpoints at dt, dt/2 and dt/4
    # shrink by 2^4 = 16; no reference solution is needed
    system = get_system("ab")
    s0 = ab_state([1.0, 0.8, 1.2], [0.3, -0.1])
    coarse, mid, fine = (final(system, s0, 1.0, FixedStep(dt)) for dt in (2e-3, 1e-3, 5e-4))
    ratio = np.linalg.norm(coarse - mid) / np.linalg.norm(mid - fine)
    assert 12.0 <= ratio <= 20.0


def test_the_float_tableau_is_the_exact_one_rounded():
    exact = FEHLBERG_A[1:] + (FEHLBERG_B4, FEHLBERG_ERR)
    assert [list(row) for row in FEHLBERG_ROWS] == [[float(x) for x in row] for row in exact]


def test_each_stage_row_sums_to_its_node():
    # a63 misread as -3554/2565 would make stage 6 sum to 509/1026, not c6 = 1/2
    assert [sum(row, Fraction(0)) for row in FEHLBERG_A] == list(FEHLBERG_C)


def _grow(tree):
    """Every rooted tree made by adding one leaf to ``tree``: a tree is the
    sorted tuple of the subtrees at its root."""
    yield tuple(sorted(tree + ((),)))
    for i, child in enumerate(tree):
        for grown in _grow(child):
            yield tuple(sorted(tree[:i] + (grown,) + tree[i + 1:]))


def _rooted_trees(order):
    trees = {()}
    for _ in range(order - 1):
        trees = {grown for tree in trees for grown in _grow(tree)}
    return trees


def _size(tree):
    return 1 + sum(map(_size, tree))


def _density(tree):
    """gamma(t): the tree's size times the densities of its subtrees."""
    return _size(tree) * math.prod(map(_density, tree))


def _elementary_weights(tree, a):
    """Phi_i(t) at each stage i: the product over the root's subtrees u of
    sum_j a_ij Phi_j(u)."""
    out = [Fraction(1)] * len(a)
    for sub in tree:
        phi = _elementary_weights(sub, a)
        out = [w * sum((x * p for x, p in zip(row, phi)), Fraction(0)) for w, row in zip(out, a)]
    return out


@pytest.mark.parametrize("name, order", [("b4", 4), ("b5", 5)])
def test_the_weights_meet_the_order_conditions(name, order):
    # b . Phi(t) = 1 / gamma(t) for every rooted tree t of up to ``order``
    # nodes (8 trees to order 4, 17 to order 5); b5 = b4 + the error row
    b = FEHLBERG_B4 if name == "b4" else [x + e for x, e in zip(FEHLBERG_B4, FEHLBERG_ERR)]
    trees = [tree for size in range(1, order + 1) for tree in _rooted_trees(size)]
    assert len(trees) == {4: 8, 5: 17}[order]
    for tree in trees:
        phi = _elementary_weights(tree, FEHLBERG_A)
        assert sum(x * p for x, p in zip(b, phi)) == Fraction(1, _density(tree)), tree


#: The adaptive ``ab`` run of the README: m = 2 over t = 1.
AB_S0 = ab_state([1.0, 0.8, 1.2], [0.3, -0.1])


def test_the_error_estimate_is_fifth_order():
    # err ~ C dt^5, so halving dt divides it by 2^5 = 32 (31.9 here); a stage
    # row that misses its node leaves err ~ dt^2, a ratio of 4.0
    system = get_system("ab")

    def field(y):
        return system.field(AB_S0, y)

    coarse, fine = (np.linalg.norm(_fehlberg_step(field, AB_S0.array, dt)[1]) for dt in (0.02, 0.01))
    assert 28.0 <= coarse / fine <= 36.0


@pytest.mark.parametrize("rtol, most", [(1e-6, 30), (1e-9, 100), (1e-12, 250)])
def test_adaptive_steps_on_ab(rtol, most):
    # 22, 86 and 211 steps; an error estimate of order 2 takes 72, 2,266 and 25,931
    times, _ = run(get_system("ab"), AB_S0, 1.0, AdaptiveStep(rtol=rtol))
    assert len(times) - 1 <= most


def test_rtol_bounds_each_step_estimate_not_the_global_error():
    # against RK4 at dt = 1e-3 (2e-12 from dt = 1e-4), the end state is off
    # by 2.3e-6, 1.2e-8 and 1.8e-10 relative at rtol 1e-6, 1e-9 and 1e-12
    system = get_system("ab")
    reference = final(system, AB_S0, 1.0, FixedStep(1e-3))
    errors = [np.linalg.norm(final(system, AB_S0, 1.0, AdaptiveStep(rtol=rtol)) - reference)
              / np.linalg.norm(reference) for rtol in (1e-6, 1e-9, 1e-12)]
    assert errors[0] > errors[1] > errors[2]
    assert errors[1] < 100 * 1e-9


def test_time_symmetry():
    system = get_system("ab")
    s0 = ab_state([1.0, 0.8, 1.2], [0.3, -0.1])
    fwd = final(system, s0, 1.0, FixedStep(1e-3))
    reverse = LatticeSystem("ab-reversed", {FLASCHKA_AB: lambda s, y, _: -ab_field(s, y)})
    back = final(reverse, s0.replace_coords(fwd), 1.0, FixedStep(1e-3))
    assert np.linalg.norm(back - s0.array) < 1e-7


def test_adaptive_matches_fixed():
    system = get_system("km")
    s0 = u_state([1.0, 0.5, 0.8])
    end_fixed = final(system, s0, 1.0, FixedStep(2e-4))
    end_adapt = final(system, s0, 1.0, AdaptiveStep(rtol=1e-11, atol=1e-13))
    assert np.linalg.norm(end_fixed - end_adapt) < 1e-8


def test_domain_exit_reports_partial_trajectory():
    sinking = LatticeSystem("sink", {VOLTERRA_U: lambda s, y, _: -np.ones(s.dim)})
    blocks = []
    with pytest.raises(DomainExit):
        integrate(sinking, u_state([0.5, 1.0]), 3.0, FixedStep(1e-3), lambda *block: blocks.append(block))
    # every row accepted before the exit is handed over, the last partial block included
    times = np.concatenate([t for t, _ in blocks])
    assert len(times) > 10 and len(blocks[-1][0]) < BLOCK_ROWS
    assert times[-1] < 0.5 and np.all(np.diff(times) > 0)
    # positivity watch never fires for the positivity-preserving chains
    times, _ = run(get_system("c-a"), c_state([1.0, 1.0]), 3.0, FixedStep(1e-3))
    assert times[-1] == pytest.approx(3.0)


def test_domain_exit_names_the_coordinate_its_value_t_and_dt():
    sinking = LatticeSystem("sink", {VOLTERRA_U: lambda s, y, _: -np.ones(s.dim)})
    with pytest.raises(DomainExit, match=r"^positivity-constrained coordinate u2 crossed zero to "
                                         r"-0\.000[0-9]+ at t = 0\.751 \(dt = 0\.001\)$"):
        run(sinking, u_state([1.0, 0.7505, 2.0]), 3.0, FixedStep(1e-3))


def test_step_failure_names_the_first_non_finite_coordinate_t_and_dt():
    # a2 and b1 overflow in the first step; a2 comes first in the CSV
    system = LatticeSystem("overflow", {FLASCHKA_AB: lambda s, y, _: np.where(np.arange(s.dim) >= 1, np.inf, 0.0)})
    with pytest.raises(StepFailure, match=r"^coordinate a2 overflowed to a non-finite value \(inf\) "
                                          r"at t = 0\.02 \(dt = 0\.02\)$"):
        run(system, ab_state([1.0, 2.0], [3.0]), 1.0, FixedStep(0.02))


def test_adaptive_overflow_is_named_as_the_fixed_step_names_it(capsys):
    # exp(600) overflows at the initial state: every trial is non-finite and its
    # NaN error estimate rejects it, until dt falls below DT_MIN
    s0 = qp_state([-300.0, 0.0], [0.0, 0.0])
    with pytest.raises(StepFailure, match=r"^coordinate q1 overflowed to a non-finite value \(nan\+nanj\) "
                                          r"at t = 1\.6384e-12 \(dt = 1\.64e-12\)$"):
        run(get_system("sklyanin"), s0, 0.1, AdaptiveStep())
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
        run(system, v_state([2.0, 2.0, 2.0, 2.0]), 5.0, AdaptiveStep())


def test_drift_report_constant_function():
    system = get_system("ab")
    times, _ = run(system, ab_state([1, 1, 1], [0.1, 0.2]), 0.5, FixedStep(1e-3))
    rec = drift_report({"one": [1.0] * len(times)})[0]
    assert rec.max_abs_drift == 0.0 and rec.max_rel_drift == 0.0


def test_coordinate_names():
    assert coordinate_names(ab_state([1, 1], [1])) == ["a1", "a2", "b1"]
    assert coordinate_names(u_state([1, 2])) == ["u1", "u2"]
    from lattice_flows import qp_state

    assert coordinate_names(qp_state([1], [2])) == ["q1", "p1"]


def test_csv_shape_and_precision(capsys):
    argv = ["simulate", "--system", "ab", "--state", '{"a":[1,1,1],"b":[0,0]}', "--t", "0.002", "--dt", "1e-3",
            "--invariants", "H2"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,a1,a2,a3,b1,b2,H2"
    assert len(lines) == 4
    third = float(lines[1].split(",")[1])
    assert third == 1.0
    # a block's lines carry no header; 17 significant digits survive the round trip
    value = 1 / 3
    times, coords = run(get_system("ab"), ab_state([value, 1, 1], [0, 0]), 0.0, FixedStep(1e-3))
    text = trajectory_csv(times, coords)
    assert text.count("\n") == 1
    assert float(text.split(",")[1]) == value


def test_csv_complex_cell():
    times, coords = run(STILL, ab_state([1j, 1, 1], [0, 0]), 0.0, FixedStep(1.0))
    cell = trajectory_csv(times, coords).split(",")[1]
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
        integrate(get_system("km"), u_state([1.0, 0.5, 0.8]), t_end, policy, None)


def test_integrate_accepts_one_zero_tolerance():
    system = get_system("km")
    s0 = u_state([1.0, 0.5, 0.8])
    for policy in (AdaptiveStep(rtol=0.0, atol=1e-10), AdaptiveStep(rtol=1e-9, atol=0.0)):
        assert run(system, s0, 0.1, policy)[0][-1] == pytest.approx(0.1)


STILL = LatticeSystem("still", {FLASCHKA_AB: lambda s, y, _: np.zeros(s.dim)})


@pytest.mark.parametrize("t_end, dt", [(10.0, 0.01), (7.0, 0.01), (3.0, 0.001), (100.0, 0.1), (50.0, 0.01)])
def test_fixed_step_takes_no_sliver_step(t_end, dt):
    # the running sum of N dt's falls short of t_end = N dt by ~1e-11 dt;
    # that remainder is rounding and must not become a step of its own
    times, _ = run(STILL, ab_state([1, 1, 1], [0, 0]), t_end, FixedStep(dt))
    assert len(times) == math.ceil(Fraction(repr(t_end)) / Fraction(repr(dt))) + 1
    assert abs(times[-1] - t_end) <= 1e-12 * max(1.0, t_end)
    assert np.min(np.diff(times)) > 0.5 * dt


def test_fixed_step_limit_counts_t_over_dt_rounded_up(monkeypatch):
    monkeypatch.setattr(integrate_module, "MAX_STEPS", 10)
    s0 = ab_state([1, 1, 1], [0, 0])
    assert len(run(STILL, s0, 0.01, FixedStep(1e-3))[0]) == 11  # t / dt = 10 steps
    for t_end in (0.0101, 1e300):  # 11 steps; an overflowing t / dt
        with pytest.raises(ValueError, match="more than the 10 fixed steps"):
            integrate(STILL, s0, t_end, FixedStep(1e-3), None)
    with pytest.raises(ValueError, match="more than the 10 fixed steps"):
        integrate(STILL, s0, 0.01, FixedStep(1e-320), None)


def test_adaptive_run_stops_at_the_step_limit(monkeypatch):
    # a run that ends at its last allowed step passes; one step fewer is the
    # limit, and the rows accepted up to it are handed over before it is raised
    system = get_system("ab")
    steps = len(run(system, AB_S0, 1.0, AdaptiveStep())[0]) - 1
    monkeypatch.setattr(integrate_module, "MAX_STEPS", steps)
    assert len(run(system, AB_S0, 1.0, AdaptiveStep())[0]) == steps + 1
    monkeypatch.setattr(integrate_module, "MAX_STEPS", steps - 1)
    blocks = []
    with pytest.raises(StepFailure, match=rf"^adaptive run reached the {steps - 1}-step limit "
                                          r"at t = 0\.\d+ \(dt = \S+\)$"):
        integrate(system, AB_S0, 1.0, AdaptiveStep(), lambda *block: blocks.append(block))
    assert sum(len(times) for times, _ in blocks) == steps


@pytest.mark.parametrize("rows", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS, 2 * BLOCK_ROWS + 1])
def test_the_sink_gets_blocks_of_block_rows_counted_from_t0(rows):
    s0 = ab_state([1, 1, 1], [0, 0])
    blocks = []
    integrate(STILL, s0, (rows - 1) * 0.5, FixedStep(0.5), lambda *block: blocks.append(block))
    full, rest = divmod(rows, BLOCK_ROWS)
    assert [len(times) for times, _ in blocks] == [BLOCK_ROWS] * full + [rest] * (rest > 0)
    assert all(coords.shape == (len(times), s0.dim) and coords.dtype == complex for times, coords in blocks)
    assert np.concatenate([times for times, _ in blocks]).tolist() == [0.5 * k for k in range(rows)]


def test_fixed_step_shorter_than_dt_still_steps():
    for t_end in (1e-12, 0.0105):
        times, _ = run(STILL, ab_state([1, 1, 1], [0, 0]), t_end, FixedStep(1e-3))
        assert times[-1] == pytest.approx(t_end, rel=1e-12, abs=0.0)


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


#: The rows whose field takes a Python list, each with the (split, dim) of
#: the states it is stepped from: a small size, and the largest that a run
#: steps on a list.
LIST_ROWS = {
    **{key: (VOLTERRA_U, [(None, 5), (None, LIST_STEP_MAX_DIM)]) for key in ("km", "bv-a", "bv-b", "bv-c", "bv-d")},
    "vd": (VOLTERRA_V, [(None, 5), (None, LIST_STEP_MAX_DIM)]),
    "ab": (FLASCHKA_AB, [(3, 5), (8, 15)]),
    "toda": (FLASCHKA_AB, [(2, 5), (7, 15)]),
}


def _list_states(rng, d):
    """Real-valued rows of d coordinates: ordinary, mixed signed zeros (in the
    imaginary parts too), runs of equal neighbours, and one coordinate whose
    products overflow."""
    for _ in range(8):
        equal = rng.uniform(0.2, 1.0, d)
        equal[1::2] = equal[: d // 2]
        overflowing = rng.uniform(-1.0, 1.0, d)
        overflowing[rng.integers(d)] = rng.choice([1e155, -3e200])
        yield from (rng.uniform(-1.5, 1.5, d) + 0j, equal + 0j, overflowing + 0j,
                    rng.choice([0.0, -0.0, 0.5, -0.5], d) + 1j * rng.choice([0.0, -0.0], d))


def _stepped(step, field, y):
    """The bits of each of 30 steps of dt = 0.01 from ``y``."""
    out = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(30):
            y = step(field, y, 0.01)
            out.append(_bits(y))
    return out


def test_the_catalog_marks_the_polynomial_chains_alone():
    # c-*: numpy's complex division rounds twice; spectrum: its product sums through BLAS;
    # the (q, p) fields: cmath.exp raises where np.exp gives the inf a wall overflow needs
    assert {key: system.list_charts for key, system in SYSTEMS.items() if system.list_charts} == {
        key: (chart,) for key, (chart, _) in LIST_ROWS.items()}


@pytest.mark.parametrize("key", LIST_ROWS)
def test_a_python_row_steps_with_the_bits_of_the_numpy_row(rng, key):
    # signed zeros included; a NaN's sign and payload reach no output
    system = SYSTEMS[key]
    chart, shapes = LIST_ROWS[key]
    reference = field_reference.ab_field if key == "ab" else system.field
    for split, d in shapes:
        for row in _list_states(rng, d):
            s0 = State(chart, row, split)
            want = _stepped(_rk4_step, lambda y: reference(s0, y), s0.array)
            assert _stepped(_rk4_step, lambda y: system.field(s0, y), s0.array.tolist()) == want, (key, row)


def _real_factor_step(f, y, dt):
    """The list step with real factors: on Python floats it steps floats."""
    k1 = f(y)
    k2 = f([x + 0.5 * dt * k for x, k in zip(y, k1)])
    k3 = f([x + 0.5 * dt * k for x, k in zip(y, k2)])
    k4 = f([x + dt * k for x, k in zip(y, k3)])
    return [x + dt / 6.0 * (a + 2 * b + 2 * c + d) for x, a, b, c, d in zip(y, k1, k2, k3, k4)]


def test_the_bit_test_tells_a_float_step_apart(rng):
    # vd's field has no constant, so a float row stays float: a float product
    # keeps a -0.0 that the complex product's -0·imag term makes +0.0
    system, differ = SYSTEMS["vd"], 0
    for _ in range(300):
        s0 = v_state(rng.choice([0.0, -0.0, 0.5, -0.5], 5) + 1j * rng.choice([0.0, -0.0], 5))
        want = _stepped(_rk4_step, lambda y: system.field(s0, y), s0.array)
        assert _stepped(_rk4_step, lambda y: system.field(s0, y), s0.array.tolist()) == want
        differ += _stepped(_real_factor_step, lambda y: system.field(s0, y), s0.array.real.tolist()) != want
    assert differ > 0


def _spied(system, chart):
    """``system`` with its field on ``chart`` recording the type of each row it is given."""
    seen, field = set(), system.fields[chart]
    return replace(system, fields={chart: lambda s, y, spectrum: seen.add(type(y)) or field(s, y, spectrum)}), seen


def _outcome(system, s0, t_end, policy):
    """The rows a run hands its sink, as bits, and the message of what it raised."""
    blocks, message = [], None
    try:
        integrate(system, s0, t_end, policy, lambda *block: blocks.append(block))
    except (DomainExit, StepFailure) as exc:
        message = str(exc)
    return [(t.tobytes(), c.tobytes()) for t, c in blocks], message


@pytest.mark.parametrize("key", ["km", "vd", "bv-d"])
@pytest.mark.parametrize("extra", [0, 1])
def test_a_fixed_step_run_steps_python_numbers_up_to_the_cutoff(monkeypatch, key, extra):
    # the rows and the failure message are the numpy row's: bv-d leaves its
    # domain before t = 1, and a coordinate of 1e200 overflows
    system = SYSTEMS[key]
    chart = system.list_charts[0]
    spy, seen = _spied(system, chart)
    row = [0.5 + 0.4 * abs(math.sin(1.7 * i)) for i in range(LIST_STEP_MAX_DIM + extra)]
    for coords, t_end in ((row, 1.0), ([*row[:-1], 1e200], 0.01)):
        s0 = State(chart, coords)
        seen.clear()
        got = _outcome(spy, s0, t_end, FixedStep(1e-3))
        assert seen == {np.ndarray if extra else list}
        with monkeypatch.context() as patch:
            patch.setattr(integrate_module, "LIST_STEP_MAX_DIM", 0)
            assert got == _outcome(system, s0, t_end, FixedStep(1e-3))
        assert (got[1] is not None) == (t_end < 1.0 or key == "bv-d"), got[1]


@pytest.mark.parametrize("key, s0, policy", [
    ("ab", ab_state([1.0, 0.8, 1.2], [0.3, -0.1]), AdaptiveStep()),
    ("ab", ab_state([1.0, 0.8, 1.2], [0.3, 0.1j]), FixedStep(1e-3)),
    ("c-a", c_state([1.0, 0.5, 0.8]), FixedStep(1e-3)),
    ("toda", qp_state([0.1, -0.2], [0.3, 0.0]), FixedStep(1e-3)),
])
def test_other_runs_step_numpy_rows(key, s0, policy):
    spy, seen = _spied(SYSTEMS[key], s0.chart)
    integrate(spy, s0, 0.01, policy, lambda *block: None)
    assert seen == {np.ndarray}
