"""Byte-exact pins of the verify command: reports, exit codes and options.

``golden/verify_reports.json`` holds, for every (suite, selector) pair at a
fixed seed and a small ``--states``, the exact stdout and exit code of
``lattice-flows verify``, plus multi-lambda, multi-pair, spectrum and
usage-error runs.  It also holds each verify subcommand's flags, defaults,
choices and required markers.  These pin the README's promise that a seed
gives a byte-identical report; regenerate them only for an intended change
of report format or sampling.
"""

import argparse
import json
from pathlib import Path

import pytest

from lattice_flows.cli import _build_parser, main

GOLDEN = json.loads((Path(__file__).parent / "golden" / "verify_reports.json").read_text())


def _subparsers(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.mark.parametrize("case", GOLDEN["reports"], ids=lambda c: " ".join(c["argv"][1:]))
def test_verify_report_is_byte_identical(capsys, case):
    code = main(list(case["argv"]))
    assert capsys.readouterr().out == case["stdout"]
    assert code == case["exit"]


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
