"""Every public function in the package has a caller in the package.

A public module-level function that only tests or the benchmark call is
code the package carries for someone else: it belongs next to its callers.
The walk below reads each module of ``src/lattice_flows`` with ``ast`` and
lists the public functions that no package code names outside their own
definition; a name the package imports (``__init__`` re-exports the public
API) counts as named.  The list must equal ``WAITING``, the functions kept
on purpose until their caller lands.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "lattice_flows"

#: Public functions with no caller in the package, and why each stays.
WAITING = {
    "integrate.drift_report",  # simulate's run report will read it
    "systems.hamiltonian_eval",  # bench/workloads.py checks the simulate-mix CSV with it
}


def _uncalled() -> set[str]:
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    named = set()
    for tree in trees.values():
        owner = {}  # node -> the module-level function whose body holds it
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                owner.update((id(sub), node.name) for sub in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                named.update(alias.name for alias in node.names)
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name and owner.get(id(node)) != name:
                named.add(name)
    return {f"{module}.{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_") and node.name not in named}


def test_every_public_function_has_a_caller_in_the_package():
    assert _uncalled() == WAITING
