"""The import graph between torusbq's modules, pinned.

Each module's relative imports are read with ast and compared with IMPORTS,
so a change that adds or drops an edge between modules edits this table on
purpose.  A fresh interpreter that imports the CLI must not load the scipy
subpackages that only some functions use (DEFERRED), so every command starts
without paying for them.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import torusbq

PACKAGE = Path(torusbq.__file__).parent

#: scipy subpackages that no module imports at top level
DEFERRED = ("scipy.stats", "scipy.optimize")

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


def test_cli_import_defers_scipy_subpackages():
    src = str(PACKAGE.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys, torusbq.cli; "
        "print([m for m in sys.argv[1:] if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, *DEFERRED],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
