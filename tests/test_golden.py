"""Byte-exact pins of the CLI: verify reports, simulate CSVs, exit codes and options.

``golden/verify_reports.json`` holds, for every (suite, selector) pair at a
fixed seed and a small ``--states``, the exact stdout and exit code of
``lattice-flows verify``, plus multi-lambda, multi-pair, spectrum and
usage-error runs.  It also holds the 13 ``verify-mix`` benchmark suites
(n = 15 and 25, m = 7), ``jacobi pi1-v --n 25`` and ``compat --chart v
--n 15``: at these sizes a change in summation order shows in the last
digits of ``max_residual``.  Three runs (``jacobi pi1-v --n 25 --states
130``, ``casimir pi1-v --n 15 --states 300``, ``lenard v --n 9 --states
129``) span several of the CLI's blocks of states, so a block boundary that
dropped, repeated or reordered a sample would show.  Each verify subcommand's flags, defaults,
choices and required markers are pinned too.  These pin the README's promise that a seed
gives a byte-identical report; regenerate them only for an intended change
of report format or sampling.

``golden/simulate_csvs.json`` holds the exact stdout and exit code of short
``lattice-flows simulate`` runs (every chart, both step policies, complex
states, invariant columns and three usage errors), the ``simulate --help``
text at 80 columns, and the invariant names each system offers on a sample
state of each of its charts.  The spectrum run reads ``sklyanin_spectrum(2)``
from a file whose path replaces the ``{spectrum}`` argument.  Runs with a
``name`` (used in the test id) pin the sizes where the order of numpy's
sums and divisions in the invariant columns shows: Lax matrices up to
17 x 17, every trace order, (q, p) chains of 9 particles, complex states,
and the two ``simulate-mix`` benchmark ops at seed 7.  The ``bv-*-n7`` and
``c-*-n7`` runs pin every family's field at 7 variables, past the boundary
rules, so the interior loops of ``bv-b`` and ``bv-d`` run too, and
``verify lax --system vd --n 16`` pins the complex path of the Lax
residual, which only vd at even n takes.
"""

import argparse
import json
from pathlib import Path

import pytest

from lattice_flows.catalog import get_system
from lattice_flows import poisson
from lattice_flows.cli import BLOCK, _build_parser, main
from lattice_flows.rootdata import sklyanin_spectrum, spectrum_to_json
from lattice_flows.states import state_from_dict

GOLDEN = json.loads((Path(__file__).parent / "golden" / "verify_reports.json").read_text())
SIMULATE = json.loads((Path(__file__).parent / "golden" / "simulate_csvs.json").read_text())


def _subparsers(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("case", GOLDEN["reports"], ids=lambda c: " ".join(c["argv"][1:]))
def test_verify_report_is_byte_identical(capsys, case):
    code = main(list(case["argv"]))
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]


def test_verify_report_same_with_cold_or_warm_plans(capsys):
    # tables compile to plans on first use; a report must not depend on
    # whether this process has compiled them already
    argv = ["verify", "compat", "--chart", "v", "--n", "9", "--states", str(BLOCK + 2), "--seed", "3"]
    poisson._PLANS.clear()
    main(argv)
    cold = capsys.readouterr().out
    assert poisson._PLANS
    main(argv)
    assert capsys.readouterr().out == cold


def test_verify_options_unchanged():
    verify = _subparsers(_build_parser())["verify"]
    spec = {
        name: [
            [list(a.option_strings), a.default, list(a.choices) if a.choices else None, a.required]
            for a in p._actions
            if not isinstance(a, argparse._HelpAction)
        ]
        for name, p in _subparsers(verify).items()
    }
    assert spec == GOLDEN["verify_options"]
    assert list(_subparsers(verify)) == [
        "lax", "jacobi", "compat", "casimir", "lenard", "transform", "involution", "spectrum"
    ]


def _simulate_id(case):
    policy = "adaptive" if "--adaptive" in case["argv"] else "rk4"
    return f"{case.get('name', case['argv'][2])}-{policy}-exit{case['exit']}"


@pytest.mark.parametrize("case", SIMULATE["simulate"], ids=_simulate_id)
def test_simulate_csv_is_byte_identical(tmp_path, capsys, case):
    spec = tmp_path / "spec.json"
    spec.write_text(spectrum_to_json(sklyanin_spectrum(2)))
    code = main([str(spec) if arg == "{spectrum}" else arg for arg in case["argv"]])
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]


def test_simulate_help_unchanged(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(["simulate", "--help"]) == 0
    assert capsys.readouterr().out == SIMULATE["simulate_help"]


@pytest.mark.parametrize(
    "case", SIMULATE["invariant_names"], ids=lambda c: f"{c['system']}-{''.join(c['state'])}"
)
def test_invariant_names_unchanged(case):
    spectrum = sklyanin_spectrum(2) if case["system"] == "spectrum" else None
    system = get_system(case["system"], spectrum)
    assert list(system.invariants(state_from_dict(case["state"]))) == case["names"]
