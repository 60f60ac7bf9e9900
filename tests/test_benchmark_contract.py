"""What the benchmark calls of the library still exists and still runs.

perfbench/tracer.py wraps the functions listed in its LAYERS table and fails
the traced benchmark when one is gone; perfbench/workloads.py builds its
inputs through the library's public constructors.  Checking both here, and
running every workload's setup, makes a rename or a constructor change fail
the test suite first.  The perfbench files are loaded from their paths and
only read; nothing is wrapped.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


LAYERS = load("tracer").LAYERS
WORKLOADS_MODULE = load("workloads")
WORKLOADS = WORKLOADS_MODULE.WORKLOADS


@pytest.mark.parametrize(
    "module_name,qualname",
    [(module, name) for module, names in LAYERS.values() for name in names],
)
def test_layer_name_resolves(module_name, qualname):
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    assert callable(vars(owner).get(attr)), f"{module_name}.{qualname} is gone"


def test_ou_toy_skeleton_solve():
    """The OU toy of the ldp-ou and mc-ou workloads builds and solves.

    A constant control h = 1 drives the cos(x_2) e_1 mode by the
    backward-Euler recursion x <- (x + dt h) / (1 + dt).
    """
    from torusbq import ldp
    from torusbq.solver import Control

    workloads = load("workloads")
    config = workloads.ou_toy_config()
    record = ldp.solve_skeleton(config, Control(np.array([0.0]), np.array([[1.0]])))
    amplitude = ldp.FUNCTIONALS["terminal_mode_amplitude"][0](config)(record)
    rho = 1.0 / (1.0 + workloads.OU_DT)
    want = workloads.OU_DT * sum(rho**j for j in range(1, config.n_steps + 1))
    assert amplitude == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_setup(name, tmp_path):
    """Each workload builds its inputs and runs one checked main call; the
    simulations are cut to two steps.  The OU workloads register a timed
    functional in ldp.FUNCTIONALS, which is restored afterwards."""
    from torusbq import ldp

    workload = WORKLOADS[name]
    saved = dict(ldp.FUNCTIONALS)
    try:
        workload.setup(0, tmp_path)
        if isinstance(workload, WORKLOADS_MODULE.Simulation):
            config = workload.config
            workload.config = dataclasses.replace(config, t_end=2 * config.dt)
        result = workload.call()
        assert result.problems == []
        assert result.failed == 0
    finally:
        ldp.FUNCTIONALS.clear()
        ldp.FUNCTIONALS.update(saved)
