import numpy as np
import pytest

from torusbq.spectral import Grid, SpectralScalarField, SpectralVectorField, lp_norm
from torusbq.transport import (
    AdvectionScheme,
    advect,
    cfl_number,
    grad_sup,
    velocity_grad_sup,
)

SL_CUBIC = AdvectionScheme("semi_lagrangian", "cubic")
SL_LINEAR = AdvectionScheme("semi_lagrangian", "linear")
SPECTRAL = AdvectionScheme("spectral_rk2")


def make_grid(n=32):
    return Grid(2, n)


def sine_theta(grid):
    return SpectralScalarField.from_samples(grid, np.sin(grid.x_mesh[0]))


def constant_u(grid, c):
    return SpectralVectorField.from_samples(
        grid, np.full(grid.shape, c), np.zeros(grid.shape)
    )


def shear_u(grid, a=1.0):
    return SpectralVectorField.from_samples(
        grid, a * np.sin(grid.x_mesh[1]), np.zeros(grid.shape)
    )


def test_scheme_validation():
    with pytest.raises(ValueError):
        AdvectionScheme("upwind")
    with pytest.raises(ValueError):
        AdvectionScheme("semi_lagrangian", "quintic")


@pytest.mark.parametrize("scheme", [SL_CUBIC, SL_LINEAR, SPECTRAL])
def test_zero_velocity_identity(scheme):
    grid = make_grid()
    theta = sine_theta(grid)
    out = advect(theta, SpectralVectorField.zero(grid), 0.1, scheme)
    assert out is theta


@pytest.mark.parametrize("scheme,tol", [(SL_CUBIC, 5e-5), (SL_LINEAR, 5e-3), (SPECTRAL, 1e-4)])
def test_constant_translation(scheme, tol):
    grid = make_grid(64)
    theta = sine_theta(grid)
    c, dt = 0.7, 0.1
    out = advect(theta, constant_u(grid, c), dt, scheme)
    exact = np.sin(grid.x_mesh[0] - c * dt)
    assert np.max(np.abs(out.samples - exact)) < tol


@pytest.mark.parametrize("scheme", [SL_CUBIC, SL_LINEAR, SPECTRAL])
def test_constant_theta_invariant(scheme):
    grid = make_grid()
    theta = SpectralScalarField.from_samples(grid, np.full(grid.shape, 1.5))
    out = advect(theta, shear_u(grid), 0.05, scheme)
    assert np.max(np.abs(out.samples - 1.5)) < 1e-13


@pytest.mark.parametrize("scheme", [SL_CUBIC, SL_LINEAR], ids=["cubic", "linear"])
def test_runaway_departure_points_sample_nan(scheme):
    # departure coordinates near 1e19 have no fractional part left; scipy's
    # periodic wrap would read outside theta rather than fail
    grid = make_grid(16)
    theta = SpectralScalarField.from_samples(
        grid, np.random.default_rng(0).standard_normal(grid.shape)
    )
    out = advect(theta, constant_u(grid, 1e19), 1.0, scheme)
    assert np.all(np.isnan(out.samples))


def test_max_principle_linear_exact():
    grid = make_grid()
    rng = np.random.default_rng(0)
    theta = SpectralScalarField.from_samples(grid, rng.standard_normal(grid.shape))
    sup0 = lp_norm(theta, np.inf)
    u = shear_u(grid)
    for _ in range(200):
        theta = advect(theta, u, 0.05, SL_LINEAR)
        assert lp_norm(theta, np.inf) <= sup0


def test_max_principle_cubic_mild_overshoot():
    grid = make_grid(64)
    theta = sine_theta(grid)
    sup0 = lp_norm(theta, np.inf)
    u = shear_u(grid)
    for _ in range(300):
        theta = advect(theta, u, 0.02, SL_CUBIC)
    assert lp_norm(theta, np.inf) <= sup0 * (1 + 1e-3)


def test_spectral_mean_preserved():
    grid = make_grid()
    rng = np.random.default_rng(3)
    from torusbq.spectral import galerkin_project, leray_project

    u = leray_project(
        SpectralVectorField.from_samples(
            grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
        )
    )
    u = galerkin_project(u, grid.n // 3)
    theta = SpectralScalarField.from_samples(grid, 2.0 + rng.standard_normal(grid.shape))
    mean0 = theta.coefficient_at((0, 0))
    for _ in range(20):
        theta = advect(theta, u, 0.02, SPECTRAL)
    assert abs(theta.coefficient_at((0, 0)) - mean0) < 1e-12


@pytest.mark.parametrize(
    "interp,nominal", [("linear", 2.0), ("cubic", 4.0)]
)
def test_spatial_convergence_order(interp, nominal):
    # translate by a fixed 1.5-cell displacement at every resolution so the
    # interpolation error scales cleanly as h^q
    scheme = AdvectionScheme("semi_lagrangian", interp)
    dt = 0.1
    errs = []
    for n in [16, 32, 64]:
        grid = make_grid(n)
        theta = sine_theta(grid)
        c = 1.5 * grid.spacing / dt
        out = advect(theta, constant_u(grid, c), dt, scheme)
        exact = np.sin(grid.x_mesh[0] - c * dt)
        errs.append(np.max(np.abs(out.samples - exact)))
    slopes = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
    assert all(abs(s - nominal) <= 0.3 for s in slopes)


def test_temporal_convergence_second_order():
    # characteristics are curved for the cellular flow, so the midpoint
    # backtrace's O(dt^2) error dominates; compare against a fine-dt reference
    grid = make_grid(64)
    X, Y = grid.x_mesh
    a, T = 1.5, 0.5
    u = SpectralVectorField.from_samples(
        grid, a * np.sin(X) * np.cos(Y), -a * np.cos(X) * np.sin(Y)
    )

    def run(n_steps):
        theta = sine_theta(grid)
        dt = T / n_steps
        for _ in range(n_steps):
            theta = advect(theta, u, dt, SL_CUBIC)
        return theta.samples

    ref = run(512)
    errs = [np.max(np.abs(run(ns) - ref)) for ns in (4, 8, 16)]
    slopes = [np.log2(e1 / e2) for e1, e2 in zip(errs, errs[1:])]
    assert all(abs(s - 2.0) <= 0.3 for s in slopes)


def test_gradient_growth_bound():
    grid = make_grid(64)
    u = shear_u(grid)  # |grad u|_inf = 1
    theta = sine_theta(grid)
    g0 = grad_sup(theta)
    t = 0.0
    for _ in range(50):
        theta = advect(theta, u, 0.02, SL_CUBIC)
        t += 0.02
        assert grad_sup(theta) <= g0 * np.exp(t) * 1.05


class TestGradSup:
    def test_constant(self):
        grid = make_grid()
        assert grad_sup(SpectralScalarField.from_samples(grid, np.full(grid.shape, 4.0))) < 1e-12

    def test_single_sine(self):
        grid = make_grid()
        val = grad_sup(sine_theta(grid))
        assert abs(val - 1.0) < 1e-12

    def test_two_sines(self):
        grid = make_grid()
        theta = SpectralScalarField.from_samples(
            grid, np.sin(grid.x_mesh[0]) + np.sin(grid.x_mesh[1])
        )
        assert abs(grad_sup(theta) - np.sqrt(2)) <= 0.01 * np.sqrt(2)

    def test_velocity_grad_sup(self):
        grid = make_grid()
        assert abs(velocity_grad_sup(shear_u(grid)) - 1.0) < 1e-12


def test_cfl_number():
    grid = make_grid()
    u = constant_u(grid, 2.0)
    assert cfl_number(u, 0.1) == pytest.approx(0.2 / grid.spacing)
