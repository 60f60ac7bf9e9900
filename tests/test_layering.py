"""The import graph between torusbq's modules, pinned, and its public names.

Each module's relative imports are read with ast and compared with IMPORTS,
so a change that adds or drops an edge between modules edits this table on
purpose.  A fresh interpreter that imports the CLI must not load the scipy
subpackages that only some functions use (DEFERRED), so every command starts
without paying for them.  Every public name the package defines has a reader
in the package or the benchmark (UNREFERENCED pins the exceptions), so code
that only tests call lives under tests/, as tests/oracles.py does.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
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
    "diagnostics": {"solver"},
    "forcing": {"spectral"},
    "io": {"__init__", "forcing", "solver", "spectral", "transport"},
    "ldp": {"forcing", "solver", "spectral"},
    "solver": {"forcing", "spectral", "transport"},
    "spectral": set(),
    "transport": {"spectral"},
}


#: public names that nothing in src/ or perfbench/ references (none)
UNREFERENCED = set()


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


def referenced_names(node) -> Counter:
    """How often each name is read under node: a Name, an Attribute's
    attribute or an imported name."""
    return Counter(
        sub.id if isinstance(sub, ast.Name)
        else sub.attr if isinstance(sub, ast.Attribute)
        else sub.name.rpartition(".")[2]
        for sub in ast.walk(node)
        if isinstance(sub, (ast.Name, ast.Attribute, ast.alias))
    )


def public_definitions(tree: ast.Module):
    """(qualified name, node) of each public module-level function or class
    and each public method of such a class."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef) and not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}", method


def test_every_public_name_has_a_reader():
    """Each public function, class and method of src/torusbq is referenced
    somewhere in src/ or perfbench/ outside its own definition.

    The check goes by name, not by binding, so a name shared with an
    unrelated reader passes: a QWienerSpec.trace property would, since
    perfbench reads its own args.trace.
    """
    bench = PACKAGE.parent.parent / "perfbench"
    trees = {path: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    readers = [*trees.values(), *(ast.parse(p.read_text()) for p in bench.glob("*.py"))]
    reads = sum(map(referenced_names, readers), Counter())
    unread = {
        f"{path.stem}.{qualified}"
        for path, tree in trees.items()
        for qualified, node in public_definitions(tree)
        if reads[node.name] <= referenced_names(node)[node.name]
    }
    assert unread == UNREFERENCED
