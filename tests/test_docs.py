"""The README's system table must describe the systems the catalog registers."""

import re
from pathlib import Path

from lattice_flows.catalog import SYSTEM_KEYS, SYSTEMS
from lattice_flows.lax import _BUILDERS

README = (Path(__file__).parent.parent / "README.md").read_text()


def _system_table() -> list[list[str]]:
    header = "| System | Charts | Invariants | Lax pair |"
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
    for (key, charts, _, lax_pair), system in zip(rows, SYSTEMS.values()):
        assert re.findall(r"`([^`]+)`", charts) == list(system.charts), key
        assert re.findall(r"`([^`]+)`", lax_pair) == [k for k in _BUILDERS if k == system.key], key
