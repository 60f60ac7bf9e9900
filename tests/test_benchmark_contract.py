"""The names the benchmark's tracer wraps still exist in the library.

perfbench/tracer.py wraps the functions listed in its LAYERS table and fails
the traced benchmark when one is gone.  Checking the table here makes a
rename fail the test suite first.  The tracer is loaded from its file and
only read; nothing is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


LAYERS = load_layers()


@pytest.mark.parametrize(
    "module_name,qualname",
    [(module, name) for module, names in LAYERS.values() for name in names],
)
def test_layer_name_resolves(module_name, qualname):
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert callable(vars(owner).get(attr)), f"{module_name}.{qualname} is gone"
