import numpy as np
import pytest

from torusbq.spectral import (
    Grid,
    SpectralScalarField,
    SpectralVectorField,
    galerkin_project,
    gradient,
    leray_project,
    lp_norm,
    mollify,
    sobolev_norm,
)


@pytest.fixture
def grid():
    return Grid(2, 32)


def random_corpus(grid, count, seed, kmax=8):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        f = SpectralScalarField.from_samples(grid, rng.standard_normal(grid.shape))
        out.append(galerkin_project(f, kmax))
    return out


def test_rejects_nonpositive_epsilon(grid):
    f = SpectralScalarField.zero(grid)
    for eps in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            mollify(f, eps)


def test_huge_epsilon_keeps_the_mean(grid):
    # eps^2 overflows at 1e200 and eps^2 |k|^2 at 1e154: both give the
    # eps -> inf limit, as does the formula itself once it underflows
    rng = np.random.default_rng(4)
    f = SpectralScalarField.from_samples(grid, 3.0 + rng.standard_normal(grid.shape))
    want = np.zeros(grid.shape, complex)
    want[0, 0] = f.coefficients[0, 0]
    for eps in (1e200, np.float64(1e200), 1e154, 1e3):
        assert np.array_equal(mollify(f, eps).coefficients, want)


def test_constant_unchanged(grid):
    f = SpectralScalarField.from_samples(grid, np.full(grid.shape, 2.0))
    out = mollify(f, 1.0)
    assert np.max(np.abs(out.samples - 2.0)) < 1e-14


def test_single_mode_action(grid):
    f = SpectralScalarField.from_samples(grid, np.sin(grid.x_mesh[0]))
    out = mollify(f, 1.0)
    expect = np.exp(-1.0) * np.sin(grid.x_mesh[0])
    assert np.max(np.abs(out.samples - expect)) < 1e-13
    gap = sobolev_norm(out - f, 0)
    assert abs(gap - (1 - np.exp(-1)) * np.sqrt(0.5)) < 1e-13


def test_band_limited_small_epsilon_gap(grid):
    f = galerkin_project(
        SpectralScalarField.from_samples(
            grid, np.sin(3 * grid.x_mesh[0]) + np.cos(2 * grid.x_mesh[1])
        ),
        4,
    )
    eps = 1e-3
    out = mollify(f, eps)
    kmax2 = 9.0
    bound = eps**2 * kmax2 * lp_norm(f, np.inf) * 1.5
    assert lp_norm(out - f, np.inf) <= bound


def test_commutes_with_gradient_and_leray(grid):
    rng = np.random.default_rng(4)
    f = SpectralScalarField.from_samples(grid, rng.standard_normal(grid.shape))
    eps = 0.3
    a = gradient(mollify(f, eps))
    b = mollify(gradient(f), eps)
    assert np.max(np.abs(a.coefficients - b.coefficients)) < 1e-14
    v = SpectralVectorField.from_samples(
        grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
    )
    a = leray_project(mollify(v, eps))
    b = mollify(leray_project(v), eps)
    assert np.max(np.abs(a.coefficients - b.coefficients)) < 1e-13


class TestSmoothingContract:
    """Uniform boundedness, 1/eps gain, and strong convergence."""

    def test_uniform_bound(self, grid):
        for s in (2, 3):
            for f in random_corpus(grid, 10, seed=1):
                for eps in (0.5, 0.1, 0.01):
                    assert sobolev_norm(mollify(f, eps), s) <= (
                        sobolev_norm(f, s) * (1 + 1e-12)
                    )

    def test_smoothing_gain(self, grid):
        analytic = np.sqrt(1.0 + 0.5 * np.exp(-1.0))  # sup of eps^2(1+K)e^{-2 eps^2 K}
        for s in (2, 3):
            for f in random_corpus(grid, 10, seed=2):
                for eps in (1.0, 0.5, 0.25):
                    gain = eps * sobolev_norm(mollify(f, eps), s)
                    assert gain <= 1.1 * analytic * sobolev_norm(f, s - 1)

    def test_difference_bound(self, grid):
        for s in (2, 3):
            for f in random_corpus(grid, 10, seed=3):
                for eps in (0.5, 0.1, 0.02):
                    diff = sobolev_norm(mollify(f, eps) - f, s - 1)
                    assert diff <= eps * sobolev_norm(f, s)

    def test_convergence_monotone(self, grid):
        for s in (2, 3):
            for f in random_corpus(grid, 5, seed=4):
                diffs = [
                    sobolev_norm(mollify(f, 2.0**-j) - f, s)
                    for j in range(1, 9)
                ]
                assert all(a >= b for a, b in zip(diffs, diffs[1:]))
                assert diffs[-1] <= 1e-2 * sobolev_norm(f, s)

    def test_ratio_vanishes(self, grid):
        for s in (2, 3):
            for f in random_corpus(grid, 5, seed=5):
                ratios = [
                    sobolev_norm(mollify(f, 2.0**-j) - f, s - 1) / 2.0**-j
                    for j in range(1, 9)
                ]
                assert ratios[-1] <= 0.2 * max(ratios)
                assert ratios[-1] <= ratios[0]
