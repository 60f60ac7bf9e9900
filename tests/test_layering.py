"""The import graph between torusbq's modules, pinned.

Each module's relative imports are read with ast and compared with IMPORTS,
so a change that adds or drops an edge between modules edits this table on
purpose.
"""

import ast
from pathlib import Path

import pytest

import torusbq

PACKAGE = Path(torusbq.__file__).parent

#: module -> the package modules it imports ("__init__" for `from . import`)
IMPORTS = {
    "__init__": set(),
    "__main__": {"cli"},
    "checks": {"forcing", "solver", "spectral", "transport"},
    "cli": {"checks", "forcing", "io", "ldp", "solver", "spectral"},
    "diagnostics": {"forcing", "solver", "spectral", "transport"},
    "forcing": {"spectral"},
    "io": {"__init__", "forcing", "solver", "spectral", "transport"},
    "ldp": {"forcing", "solver", "spectral"},
    "solver": {"forcing", "spectral", "transport"},
    "spectral": set(),
    "transport": {"spectral"},
}


def relative_imports(path: Path) -> set:
    tree = ast.parse(path.read_text())
    return {
        node.module or "__init__"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
    }


def test_every_module_is_in_the_table():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(IMPORTS)


@pytest.mark.parametrize("module", sorted(IMPORTS))
def test_imports_match_the_table(module):
    assert relative_imports(PACKAGE / f"{module}.py") == IMPORTS[module]
