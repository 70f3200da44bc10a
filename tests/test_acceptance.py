"""End-to-end acceptance suite.

Each test enforces one numbered criterion at its stated tolerance and prints
a single pass/fail line; run with ``pytest tests/test_acceptance.py -v -s``
to see the lines as they certify.
"""

import numpy as np

from conftest import henon_jacobi, run, stack
from lax_reference import assembled_pair

from lattice_flows import Spectrum, ab_state, qp_state, sklyanin_spectrum, u_state, v_state
from lattice_flows import cli
from lattice_flows.catalog import LENARD, SYSTEMS, get_system
from lattice_flows.integrate import FixedStep, drift_report
from lattice_flows.lax import (
    ab_lax,
    casimir_C_column,
    grad_casimir_F,
    grad_trace_invariant,
    km_lax,
    lax_residual,
)
from lattice_flows.poisson import (
    STRUCTURES,
    compatibility_residual,
    hamiltonian_flow_check,
    jacobi_residual,
    lenard_residual,
)
from lattice_flows.rootdata import kozlov_treshchev_check
from lattice_flows.systems import ab_field, hamiltonian_eval, km_field, toda_ab_field, vd_field
from lattice_flows.transforms import sklyanin_flaschka_block

SEED = 20240911


def report(number, name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number:02d} ({name}): {verdict}  {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def fresh_rng():
    return np.random.default_rng(SEED)


def test_criterion_01_lax_certification():
    tol = 1e-10
    rng = fresh_rng()
    worst = 0.0

    def block(key, field, states):
        # 100 states of one size, certified as one block
        velocities = np.array([field(s, s.array) for s in states]).T
        return np.max(lax_residual(SYSTEMS[key].lax, stack(states), velocities))

    for n in (2, 3, 5, 8):
        states = [u_state(rng.uniform(0.1, 2.0, n)) for _ in range(100)]
        worst = max(worst, block("km", km_field, states))
    for n in (2, 5, 8):
        states = [ab_state(rng.uniform(-1, 1, n - 1), rng.uniform(-1, 1, n)) for _ in range(100)]
        worst = max(worst, block("toda", toda_ab_field, states))
    for n in (5, 7, 9):
        states = [v_state(rng.uniform(0.1, 2.0, n)) for _ in range(100)]
        worst = max(worst, block("vd", vd_field, states))
    for m in (2, 3, 4):
        states = [ab_state(rng.uniform(-1, 1, m + 1), rng.uniform(-1, 1, m)) for _ in range(100)]
        worst = max(worst, block("ab", ab_field, states))
    report(1, "Lax certification", worst < tol, f"max residual {worst:.2e} < {tol:g}")


def test_criterion_02_moser_golden():
    tol = 1e-12
    rng = fresh_rng()
    worst = 0.0
    for _ in range(20):
        u = rng.uniform(0.1, 2.0, 4)
        a = np.sqrt(u / 2)
        L = assembled_pair(km_lax, u_state(u))[0][0]
        displayed_square = np.array(
            [
                [a[0] ** 2, 0, a[0] * a[1], 0, 0],
                [0, a[0] ** 2 + a[1] ** 2, 0, a[1] * a[2], 0],
                [a[0] * a[1], 0, a[1] ** 2 + a[2] ** 2, 0, a[2] * a[3]],
                [0, a[1] * a[2], 0, a[2] ** 2 + a[3] ** 2, 0],
                [0, 0, a[2] * a[3], 0, a[3] ** 2],
            ]
        )
        displayed_reduced = displayed_square[::2, ::2]
        worst = max(worst, np.max(np.abs(L @ L - displayed_square)))
        worst = max(worst, np.max(np.abs((L @ L)[::2, ::2] - displayed_reduced)))
        worst = max(worst, np.max(np.abs(henon_jacobi(u_state(u)) - displayed_reduced)))
    report(2, "Moser golden test", worst < tol, f"max entry error {worst:.2e} < {tol:g}")


def test_criterion_03_pi1_golden():
    tol = 1e-12
    rng = fresh_rng()
    worst = 0.0
    for _ in range(20):
        v = rng.uniform(0.1, 2.0, 7)
        t12 = v[0] * v[2] / v[1]
        t13 = v[0] * v[2] * v[4] / (v[1] * v[3])
        t23 = v[2] * v[4] / v[3]
        half = 0.5 * (v[6] - v[5])
        displayed = np.array(
            [
                [0, v[0], -t12, t12, -t13, t13 / 2, t13 / 2],
                [-v[0], 0, v[2], -v[2], t23, -t23 / 2, -t23 / 2],
                [t12, -v[2], 0, v[2], -t23, t23 / 2, t23 / 2],
                [-t12, v[2], -v[2], 0, v[4], -v[4] / 2, -v[4] / 2],
                [t13, -t23, t23, -v[4], 0, v[4] / 2, v[4] / 2],
                [-t13 / 2, t23 / 2, -t23 / 2, v[4] / 2, -v[4] / 2, 0, half],
                [-t13 / 2, t23 / 2, -t23 / 2, v[4] / 2, -v[4] / 2, -half, 0],
            ]
        )
        got = STRUCTURES["pi1-v"](v_state(v))[0]
        worst = max(worst, np.max(np.abs(got - displayed)))
    report(3, "pi1 golden test", worst < tol, f"max entry error {worst:.2e} < {tol:g}")


def test_criterion_04_bihamiltonian_suite():
    rng = fresh_rng()
    # the flow Hamiltonian tr(L^4)/8: half the gradient of tr(L^4)/4
    grad_h = lambda s: 0.5 * grad_trace_invariant(SYSTEMS["vd"].lax, s, [4])[0]
    jac = comp = cas = flow = 0.0
    for n in (5, 7):
        for _ in range(50):
            s = v_state(rng.uniform(0.1, 2.0, n))
            pi1, pi3 = STRUCTURES["pi1-v"], STRUCTURES["pi3-v"]
            jac = max(jac, jacobi_residual(pi1, s)[0], jacobi_residual(pi3, s)[0])
            for lam in (1.0, 2.5):
                comp = max(comp, compatibility_residual(pi1, pi3, lam, s)[0])
            cas = max(cas, hamiltonian_flow_check(pi1, s, grad_casimir_F(s))[0])
            flow = max(flow, hamiltonian_flow_check(pi1, s, grad_h(s), vd_field(s, s.array)[None])[0])
    ok = jac < 1e-6 and comp < 1e-6 and cas < 1e-10 and flow < 1e-10
    report(
        4,
        "bi-Hamiltonian suite",
        ok,
        f"jacobi {jac:.2e} < 1e-6, compat {comp:.2e} < 1e-6, casimir {cas:.2e} < 1e-10, flow {flow:.2e} < 1e-10",
    )


def test_criterion_05_lenard():
    tol = 1e-7
    rng = fresh_rng()
    worst_v = 0.0
    for _ in range(50):
        s = v_state(rng.uniform(0.1, 2.0, 7))
        worst_v = max(worst_v, lenard_residual(LENARD["v"], s)[0])
    worst_ab = 0.0
    for m in (2, 3):
        for _ in range(50):
            s = ab_state(rng.uniform(-1, 1, m + 1), rng.uniform(-1, 1, m))
            worst_ab = max(worst_ab, lenard_residual(LENARD["ab"], s)[0])
    ok = worst_v < tol and worst_ab < tol
    report(5, "Lenard relation", ok, f"v-chart {worst_v:.2e}, ab-chart {worst_ab:.2e} < {tol:g}")


def test_criterion_06_transform_conjugacy():
    tol = cli.SUITES["transform"].checks["d-map"].tolerance  # every map shares the suite's gate
    assert {check.tolerance for check in cli.SUITES["transform"].checks.values()} == {tol}
    rng = fresh_rng()
    results = {}
    for name, row in cli.TRANSFORMS.items():  # every map the transform suite certifies, at its default sizes
        results[name] = max(row.residual(row.sample(rng, 100, 7, 3)))
    ok = all(v < tol for v in results.values())
    detail = ", ".join(f"{k} {v:.1e}" for k, v in results.items())
    report(6, "transform conjugacy", ok, f"{detail} < {tol:g}")


def test_criterion_07_casimir_constant():
    rng = fresh_rng()
    worst = 0.0
    for m in (2, 3, 4):
        target = 2.0 ** -(2 * m - 1)
        for _ in range(100):
            st = qp_state(rng.uniform(-1, 1, m), rng.uniform(-1, 1, m))
            c = casimir_C_column(sklyanin_flaschka_block(st))[0]
            worst = max(worst, abs(c - target) / target)
    report(7, "Casimir constant", worst < 1e-13, f"max relative error {worst:.2e} < 1e-13")


def test_criterion_08_hamiltonian_correspondence():
    rng = fresh_rng()
    worst = 0.0
    for _ in range(50):
        m = int(rng.integers(2, 5))
        st = qp_state(rng.uniform(-1, 1, m), rng.uniform(-1, 1, m))
        lhs = SYSTEMS["ab"].invariant_columns(sklyanin_flaschka_block(st), ["H2"])["H2"][0]
        rhs = 0.5 * hamiltonian_eval("sklyanin", st)
        worst = max(worst, abs(lhs - rhs))
    report(8, "Hamiltonian correspondence", worst < 1e-12, f"max |h2 - H/2| {worst:.2e} < 1e-12")


def test_criterion_09_conservation_under_flow():
    tol = 1e-6
    ab_sys = get_system("ab")
    s0 = ab_state([1.0, 0.9, 1.1, 0.8], [0.1, -0.2, 0.3])
    _, coords = run(ab_sys, s0, 10.0, FixedStep(1e-3))
    columns = ab_sys.invariant_columns(s0.replace_coords(coords), ab_sys.invariants(s0))
    drifts = {r.name: r.max_rel_drift for r in drift_report(columns)}
    ab_ok = all(drifts[k] < tol for k in ("H2", "H4", "H6", "C"))
    vd_sys = get_system("vd")
    v0 = v_state([0.04, 0.05, 0.06, 0.05, 0.045, 0.06, 0.03])
    _, coords_v = run(vd_sys, v0, 10.0, FixedStep(1e-3))
    columns_v = vd_sys.invariant_columns(v0.replace_coords(coords_v), ["H2", "H4", "F"])
    drifts_v = {r.name: r.max_rel_drift for r in drift_report(columns_v)}
    ok = ab_ok and all(d < tol for d in drifts_v.values())
    detail = (
        "ab "
        + ", ".join(f"{k} {drifts[k]:.1e}" for k in ("H2", "H4", "H6", "C"))
        + "; vd "
        + ", ".join(f"{k} {v:.1e}" for k, v in drifts_v.items())
    )
    report(9, "conservation under flow", ok, f"{detail} < {tol:g}")


def test_criterion_10_involution():
    tol = 1e-9
    rng = fresh_rng()
    worst = 0.0
    for _ in range(50):
        s = ab_state(rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 3))
        pi = STRUCTURES["pi1-ab"](s)[0]
        [g2], [g4], [g6] = grad_trace_invariant(ab_lax, s, [2, 4, 6])
        for gk in (g4, g6):
            worst = max(worst, abs(complex(g2 @ pi @ gk)))
    report(10, "involution", worst < tol, f"max |{{H2,Hk}}| {worst:.2e} < {tol:g}")


def test_criterion_11_condition_checker():
    all_pass = all(kozlov_treshchev_check(sklyanin_spectrum(n)).passed for n in range(2, 13))
    base = sklyanin_spectrum(4)
    extra = [0.0] * 4
    extra[0] = extra[1] = 1.0
    spoiled = Spectrum(4, base.vectors + (tuple(extra),))
    rep = kozlov_treshchev_check(spoiled)
    spoiled_fails = (not rep.passed) and any(r > 0 for _, _, r in rep.violations)
    ok = all_pass and spoiled_fails
    report(
        11,
        "integrability condition checker",
        ok,
        f"sizes 2..12 pass; augmented spectrum fails with ratio "
        f"{max((r for _, _, r in rep.violations), default=float('nan')):+.1f}",
    )
