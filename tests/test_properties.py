"""The CLI's exit contract, checked in-process over one table of argvs.

The table crosses every ``verify`` suite and selector with the sizes -3 and
0-6 and with --states 0 and 3 (``verify compat`` also with non-finite and
overflowing lambdas), and every catalog system, on each chart it accepts,
with fixed, adaptive, zero-length and invalid step flags, on ordinary,
complex, signed-zero, overflowing, wall-overflowing and non-finite states;
the (q, p) chains run with 1, 2, 3 and 9 q's, and the polynomial chains at
a size each side of 16 coordinates.  On every argv:

* no exception escapes ``cli.main``, numpy's warnings included;
* the exit code is 0, 1 or 2;
* a ``simulate`` run that exits 0 writes only finite cells;
* an exit 2 writes exactly one ``usage error:`` line;
* an exit 1 writes at most one line.
"""

import cmath
import json
import math
import warnings

from lattice_flows.catalog import SYSTEMS, get_system
from lattice_flows.cli import SUITES, main
from lattice_flows.rootdata import sklyanin_spectrum, spectrum_to_json
from lattice_flows.states import C_VARS, CHARTS, FLASCHKA_AB, QP, VOLTERRA_U, VOLTERRA_V, state_from_dict

SIZES = (-3, 0, 1, 2, 3, 4, 5, 6)
LAMBDAS = ("inf", "-inf", "nan", "1e200")

#: The spectrum system's file: sklyanin_spectrum(2), whose state has 3 a's and 3 b's.
SPECTRUM = sklyanin_spectrum(2)

#: The numbers of q's the (q, p) chains run with: one q puts both walls on
#: it, and 9 is past the sizes the field's terms are written for.
QP_SIZES = (1, 2, 3, 9)

#: Coordinates per group of the states a system is run from, by chart, and by
#: system on the (a, b) chart.  The u and v charts, ab and toda also run one
#: size each side of integrate.LIST_STEP_MAX_DIM = 16 coordinates, where a
#: fixed step moves from Python numbers to numpy rows: 16 and 17, or 15 and
#: 17 on the (a, b) chart.
GROUPS = {QP: [(n, n) for n in QP_SIZES], VOLTERRA_U: [(5,), (16,), (17,)], VOLTERRA_V: [(5,), (16,), (17,)],
          C_VARS: [(5,)], ("ab", FLASCHKA_AB): [(3, 2), (8, 7), (9, 8)],
          ("toda", FLASCHKA_AB): [(2, 3), (7, 8), (8, 9)], ("spectrum", FLASCHKA_AB): [(3, 3)]}

#: Each state kind as a function of the coordinate's index and of whether it
#: is the last of the chart's first group (the last q on the (q, p) chart).
STATES = {
    "ordinary": lambda i, last: 0.5 + 0.1 * i,
    "complex": lambda i, last: [0.5 + 0.1 * i, 0.2],
    "signed-zero": lambda i, last: -0.0 if i % 2 else 0.0,
    "overflowing": lambda i, last: 1e300,
    # e^{2 q_n} overflows while p and every chain term stay ordinary
    "wall-overflowing": lambda i, last: 400.0 if last else 0.5 + 0.1 * i,
    "non-finite": lambda i, last: [0.5, math.inf] if i % 2 else math.nan,
}

#: ``--t 0`` writes the start state alone: a run that steps nowhere must
#: still refuse a state that is not finite.
VALID_STEPS = (("--t", "0.01", "--dt", "0.005"), ("--t", "0.01", "--adaptive"), ("--t", "0", "--dt", "0.001"))
#: Runs past the fixed-step limit are tested in a child with a timeout
#: (``test_cli.py``): without the limit they would run on here, unbounded.
INVALID_STEPS = (
    ("--t=-1", "--dt", "0.005"), ("--t", "nan", "--dt", "0.005"), ("--t", "inf", "--adaptive"),
    ("--t", "0.01", "--dt", "0"), ("--t", "0.01", "--dt=-inf"), ("--t", "0.01", "--dt", "nan"), ("--t", "0.01"),
    ("--t", "0.01", "--adaptive", "--rtol=-1"), ("--t", "0.01", "--adaptive", "--rtol", "nan"),
    ("--t", "0.01", "--adaptive", "--rtol", "0", "--atol", "0"),
)


def _verify_argvs():
    for name, suite in SUITES.items():
        flags = [flag for flag, _ in suite.options if flag in ("--n", "--m")]
        extras = [()] + [(f"--lambdas={lam}",) for lam in LAMBDAS] if name == "compat" else [()]
        for selector in suite.checks:
            pick = (suite.selector, selector) if suite.selector else ()
            for size in SIZES:
                for states in ("0", "3"):
                    for extra in extras:
                        yield ["verify", name, *pick, *(x for flag in flags for x in (flag, str(size))),
                               "--states", states, *extra]
    for size in SIZES:
        yield ["verify", "spectrum", "--sklyanin", str(size)]


def _simulate_argvs(spectrum_file):
    """Every system on each chart it accepts, from each state kind, with every
    valid step asking for all the invariants its chart offers at that size
    (read from the ordinary state), then every invalid step."""
    for key, system in SYSTEMS.items():
        spectrum = ("--spectrum", spectrum_file) if key == "spectrum" else ()
        for chart in system.charts:
            for groups in GROUPS[(key, chart) if chart == FLASCHKA_AB else chart]:

                def document(value):
                    return {name: [value(i, j == 0 and i == size - 1) for i in range(size)]
                            for j, (name, size) in enumerate(zip(CHARTS[chart], groups))}
                offered = get_system(key, SPECTRUM).invariants(state_from_dict(document(STATES["ordinary"])))
                for value in STATES.values():
                    state = ("--system", key, "--state", json.dumps(document(value)), *spectrum)
                    for step in VALID_STEPS:
                        yield ["simulate", *state, *step, "--invariants", ",".join(offered)]
                    for step in INVALID_STEPS:
                        yield ["simulate", *state, *step]


def _fault(argv, code, out, err) -> str | None:
    """What breaks the exit contract, or None."""
    if code not in (0, 1, 2):
        return f"exit {code}"
    if code == 2 and not (err.startswith("usage error: ") and err.count("\n") == 1):
        return f"exit 2 with stderr {err!r}"
    if code == 1 and err.count("\n") > 1:
        return f"exit 1 with stderr {err!r}"
    if code == 0 and argv[0] == "simulate":
        cells = [cell for line in out.splitlines()[1:] for cell in line.split(",")]
        if not all(cmath.isfinite(complex(cell)) for cell in cells):
            return "exit 0 with a non-finite cell"
    return None


def test_every_argv_of_the_table_keeps_the_exit_contract(tmp_path, capsys):
    spectrum_file = tmp_path / "spectrum.json"
    spectrum_file.write_text(spectrum_to_json(SPECTRUM))
    argvs = [*_verify_argvs(), *_simulate_argvs(str(spectrum_file))]
    faults = []
    for argv in argvs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main(argv)
            except Exception as exc:  # noqa: BLE001 -- any escape is a fault to report
                code = f"raised {exc!r}"
        out, err = capsys.readouterr()
        fault = code if isinstance(code, str) else _fault(argv, code, out, err)
        if fault:
            faults.append(f"{' '.join(argv)}: {fault}")
    assert len(argvs) > 1000
    assert not faults, "\n".join(faults)


def test_the_polynomial_chains_run_each_side_of_the_list_step_cutoff():
    from lattice_flows.integrate import LIST_STEP_MAX_DIM  # here: tests/sweep.py runs this table on older trees

    for sizes in (GROUPS[VOLTERRA_U], GROUPS[VOLTERRA_V], GROUPS[("ab", FLASCHKA_AB)], GROUPS[("toda", FLASCHKA_AB)]):
        dims = {sum(groups) for groups in sizes}
        assert LIST_STEP_MAX_DIM + 1 in dims and dims & {LIST_STEP_MAX_DIM - 1, LIST_STEP_MAX_DIM}
