"""Exact Fourier-transform counts of one step and one full diagnostic row.

Transform counts are deterministic, unlike wall times, so they are the gate
on the spectral core's cost: a change that adds a transform to the step or
to the row fails here.  Every numpy.fft and scipy.fft transform function is
replaced by a counting wrapper through its module attribute, which is how
the library calls them.
"""

import numpy as np
import numpy.fft
import pytest
import scipy.fft

from torusbq.forcing import (
    QWienerSpec,
    RandomStream,
    additive_intensity,
    default_mode_fields,
    default_qwiener,
    multiplicative_intensity,
)
from torusbq.solver import (
    BLANK_ROW,
    COLUMNS,
    InitialCondition,
    NoiseModel,
    SolverConfig,
    _diagnostic_row,
    _energy_residual,
    _prepare_state,
    build_initial_state,
    step,
)
from torusbq.spectral import Grid, SpectralVectorField

TRANSFORMS = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)


@pytest.fixture
def count_transforms(monkeypatch):
    counts = [0]
    for module in (numpy.fft, scipy.fft):
        for name in TRANSFORMS:
            original = getattr(module, name)

            def counted(*args, _original=original, **kwargs):
                counts[0] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

    def measure(fn, *args):
        before = counts[0]
        result = fn(*args)
        return result, counts[0] - before

    return measure


def noisy_cutoff_config(dimension, n, intensity=additive_intensity):
    """Noise (additive by default) at epsilon > 0 and a cut-off that stays at
    phi = 1."""
    grid = Grid(dimension, n)
    spec = default_qwiener(dimension, 4)
    noise = NoiseModel(spec, intensity(default_mode_fields(grid, spec)))
    return SolverConfig(
        grid=grid,
        dt=0.01,
        t_end=0.02,
        cutoff_R=1e6,
        epsilon=0.01,
        noise=noise,
        init=InitialCondition(velocity="random", temperature="sine", seed=3),
    )


#: (dimension, n) -> (step on a fresh state, full row of the stepped state,
#: step on a state whose full row was taken), with additive noise
BUDGET = {
    (2, 32): (3, 5, 1),
    (3, 16): (3, 3, 1),
}


@pytest.mark.parametrize("dimension,n", sorted(BUDGET))
def test_step_and_row_budget(count_transforms, dimension, n):
    fresh_step, full_row, warm_step = BUDGET[(dimension, n)]
    config = noisy_cutoff_config(dimension, n)
    stream = RandomStream(5)

    # A fresh state: the step itself transforms grad u (with the samples of u),
    # theta for the buoyancy term and the advection product.  The additive
    # noise sum is summed from stored projected coefficients, untransformed.
    state = _prepare_state(build_initial_state(config), config)
    (new_state, info), used = count_transforms(step, state, config, stream, 0)
    assert info["phi"] == 1.0
    assert used == fresh_step

    # The full row of the new state transforms its grad u once (velocity
    # samples included), theta once and grad theta once; in 2D also the
    # vorticity and its gradient.  The energy residual needs none.
    row = BLANK_ROW.copy()
    _, used = count_transforms(_diagnostic_row, row, new_state, config, True)
    assert np.isfinite(row[COLUMNS.index("linf_grad_u")])
    assert used == full_row
    rows = np.stack([BLANK_ROW, row])
    _diagnostic_row(rows[0], state, config, False)
    _, used = count_transforms(_energy_residual, state, new_state, rows, config)
    assert used == 0

    # As in solver.run: the next step reuses what that row computed, so it
    # transforms only the advection product.
    _, used = count_transforms(step, new_state, config, stream, 1)
    assert used == warm_step


@pytest.mark.parametrize("dimension,n", sorted(BUDGET))
def test_multiplicative_step_transforms_its_noise_sum(count_transforms, dimension, n):
    # The multiplicative envelope follows the state, so each step transforms
    # its noise sum: one transform more than the additive budget.
    fresh_step, _, warm_step = BUDGET[(dimension, n)]
    config = noisy_cutoff_config(dimension, n, multiplicative_intensity)
    stream = RandomStream(5)
    state = _prepare_state(build_initial_state(config), config)
    (new_state, _), used = count_transforms(step, state, config, stream, 0)
    assert used == fresh_step + 1
    _diagnostic_row(BLANK_ROW.copy(), new_state, config, True)
    _, used = count_transforms(step, new_state, config, stream, 1)
    assert used == warm_step + 1


def test_saturated_cutoff_light_steps(count_transforms):
    # The OU toy: one additive mode and a cut-off radius every nonzero
    # velocity overshoots, so phi = 0 from the second step on.
    grid = Grid(2, 8)
    spec = QWienerSpec((((0, 1), "cos"),), np.array([1.0]))
    mode = SpectralVectorField.from_samples(
        grid, np.cos(grid.x_mesh[1]), np.zeros(grid.shape)
    )
    config = SolverConfig(
        grid=grid,
        dt=0.0125,
        t_end=0.25,
        cutoff_R=1e-12,
        epsilon=0.01,
        noise=NoiseModel(spec, additive_intensity([mode])),
    )
    stream = RandomStream(5)
    state = _prepare_state(build_initial_state(config), config)

    # From u = 0 the step transforms grad u and the advection product (theta
    # = 0 has no buoyancy term; the additive noise sum needs no transform).
    (state, info), used = count_transforms(step, state, config, stream, 0)
    assert info["phi"] == 1.0
    assert used == 2

    # Later steps with light rows: the Parseval RMS of grad u settles
    # phi = 0, so nothing is transformed; the rows need none either.
    for j in range(1, config.n_steps):
        (state, info), used = count_transforms(step, state, config, stream, j)
        assert info["phi"] == 0.0
        assert used == 0
        row = BLANK_ROW.copy()
        _, used = count_transforms(_diagnostic_row, row, state, config, False)
        assert used == 0
