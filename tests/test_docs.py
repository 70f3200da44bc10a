"""The README must describe the systems, charts and commands the package has."""

import re
import shlex
from pathlib import Path

import pytest

from lattice_flows.catalog import SYSTEM_KEYS, SYSTEMS
from lattice_flows.cli import main
from lattice_flows.rootdata import QP_WALLS, sklyanin_spectrum, spectrum_to_json
from lattice_flows.states import CHARTS

README = (Path(__file__).parent.parent / "README.md").read_text()


def _system_table() -> list[list[str]]:
    header = "| System | Charts | Invariants | Lax pair | Spectrum |"
    lines = README[README.index(header):].split("\n")[2:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_readme_lists_every_system():
    rows = _system_table()
    assert [re.findall(r"`([^`]+)`", row[0]) for row in rows] == [[key] for key in SYSTEM_KEYS]
    for (key, charts, _, lax_pair, _), system in zip(rows, SYSTEMS.values()):
        assert re.findall(r"`([^`]+)`", charts) == list(system.charts), key
        assert re.findall(r"`([^`]+)`", lax_pair) == ([f"lax.{system.lax.__name__}"] if system.lax else []), key


def test_readme_gives_each_qp_row_the_spectrum_of_its_walls():
    # the chain's vectors, then each wall w e_end of rootdata.QP_WALLS, written as −2e₁
    coefficient = {1.0: "", -1.0: "−", 2.0: "2", -2.0: "−2"}
    rows = {row[0].strip("`").replace("-", "_"): row[4] for row in _system_table()}
    for key, walls in QP_WALLS.items():
        ends = [f"`{coefficient[w]}e{'₁' if end == 0 else 'ₙ'}`" for group in walls for end, ws in group for w in ws]
        assert rows[key] == ", ".join(["`e_i − e_{i+1}`", *ends]), key


def test_readme_quick_tour_runs():
    # every name the tour imports and calls must still exist and run
    start = README.index("## Library quick tour")
    block = README[README.index("```python\n", start) + len("```python\n"):]
    exec(compile(block[: block.index("```")], "README quick tour", "exec"), {})


def test_readme_state_documents_match_the_chart_table():
    start = README.index("The charts take these state documents:")
    sentence = README[start : README.index(".", start)]
    documents = re.findall(r"`(\w+)` is `\{([^`]*)\}`", sentence)
    assert [(chart, tuple(re.findall(r'"(\w+)"', keys))) for chart, keys in documents] == list(CHARTS.items())


def _cli_commands() -> list[str]:
    """The ``lattice-flows`` commands of the README's CLI block, continuation lines joined."""
    start = README.index("```sh", README.index("## CLI"))
    block = re.sub(r"\\\n\s*", "", README[start + len("```sh") : README.index("```", start + 1)])
    return [line.strip() for line in block.split("\n") if line.strip().startswith("lattice-flows ")]


@pytest.mark.parametrize("command", _cli_commands())
def test_readme_cli_command_runs(tmp_path, capsys, command):
    spectrum = tmp_path / "my_spectrum.json"
    spectrum.write_text(spectrum_to_json(sklyanin_spectrum(4)))
    argv = [str(spectrum) if arg == "my_spectrum.json" else arg for arg in shlex.split(command)[1:]]
    assert main(argv) == 0, capsys.readouterr().err
