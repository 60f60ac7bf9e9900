import numpy as np
import pytest

from torusbq.spectral import (
    Grid,
    SpectralScalarField,
    SpectralVectorField,
    dealias,
    divergence,
    galerkin_project,
    gradient,
    implicit_diffusion_solve,
    laplacian,
    leray_project,
    lp_norm,
    perp_div_2d,
    perp_grad_2d,
    sobolev_norm,
    stokes_apply,
)


@pytest.fixture
def grid():
    return Grid(2, 32)


def scalar(grid, fn):
    return SpectralScalarField.from_samples(grid, fn(*grid.x_mesh))


def random_scalar(grid, seed, kmax=None):
    rng = np.random.default_rng(seed)
    f = SpectralScalarField.from_samples(grid, rng.standard_normal(grid.shape))
    if kmax is not None:
        f = galerkin_project(f, kmax)
    return f


def random_vector(grid, seed, kmax=None):
    rows = [random_scalar(grid, seed + i, kmax) for i in range(grid.dimension)]
    if kmax is not None:
        return SpectralVectorField.from_coefficient_stack(
            grid, [r.coefficients for r in rows]
        )
    return SpectralVectorField.from_sample_stack(grid, [r.samples for r in rows])


class TestGrid:
    def test_rejects_bad_resolution(self):
        for n in (3, 6, 10, 2):
            with pytest.raises(ValueError):
                Grid(2, n)
        with pytest.raises(ValueError):
            Grid(4, 16)

    def test_wavenumber_range(self, grid):
        assert grid.k1d.min() == -15
        assert grid.k1d.max() == 16

    def test_3d_supported(self):
        g = Grid(3, 8)
        assert g.k2.shape == (8, 8, 8)


class TestTransforms:
    def test_constant_field(self, grid):
        f = scalar(grid, lambda x, y: np.full_like(x, 2.5))
        c = f.coefficients
        assert abs(f.coefficients[grid.mode_index((0, 0))] - 2.5) < 1e-14
        c2 = c.copy()
        c2[grid.mode_index((0, 0))] = 0.0
        assert np.max(np.abs(c2)) < 1e-14

    def test_sine_coefficients(self, grid):
        f = scalar(grid, lambda x, y: np.sin(x))
        assert abs(f.coefficients[grid.mode_index((1, 0))] - (-0.5j)) < 1e-14
        assert abs(f.coefficients[grid.mode_index((-1, 0))] - (0.5j)) < 1e-14
        others = f.coefficients.copy()
        others[grid.mode_index((1, 0))] = 0
        others[grid.mode_index((-1, 0))] = 0
        assert np.max(np.abs(others)) < 1e-14

    def test_round_trip(self, grid):
        f = random_scalar(grid, 7)
        g2 = SpectralScalarField.from_coefficients(grid, f.coefficients)
        err = np.max(np.abs(g2.samples - f.samples))
        assert err <= 1e-12 * np.max(np.abs(f.samples))

    def test_hermitian_symmetry(self, grid):
        f = random_scalar(grid, 3)
        c = f.coefficients
        for k in [(1, 2), (5, -7), (0, 3), (-4, 4)]:
            kk = grid.mode_index(tuple(-ki for ki in k))
            assert abs(c[grid.mode_index(k)] - np.conj(c[kk])) < 1e-13


class TestNorms:
    def test_sobolev_zero_field(self, grid):
        z = SpectralScalarField.zero(grid)
        for s in range(4):
            assert sobolev_norm(z, s) == 0.0

    def test_sobolev_sine(self, grid):
        f = scalar(grid, lambda x, y: np.sin(x))
        assert abs(sobolev_norm(f, 0) - np.sqrt(0.5)) < 1e-12
        assert abs(sobolev_norm(f, 1) - 1.0) < 1e-12

    def test_sobolev_monotone_in_s(self, grid):
        f = random_scalar(grid, 11)
        norms = [sobolev_norm(f, s) for s in range(6)]
        assert all(a <= b * (1 + 1e-15) for a, b in zip(norms, norms[1:]))

    def test_sobolev_cap(self, grid):
        f = random_scalar(grid, 1)
        with pytest.raises(ValueError):
            sobolev_norm(f, 9)

    def test_lp_constant(self, grid):
        f = scalar(grid, lambda x, y: np.full_like(x, 3.0))
        assert lp_norm(f, np.inf) == 3.0

    def test_lp_sine(self, grid):
        f = scalar(grid, lambda x, y: np.sin(x))
        # integral of sin^2 over (-pi,pi)^2 is (2 pi)^2 / 2
        assert abs(lp_norm(f, 2) - np.sqrt(2 * np.pi**2)) < 1e-12
        sup = lp_norm(f, np.inf)
        assert np.cos(np.pi / grid.n) <= sup <= 1.0

    def test_parseval(self, grid):
        f = random_scalar(grid, 5)
        lhs = lp_norm(f, 2) ** 2
        rhs = (2 * np.pi) ** 2 * np.sum(np.abs(f.coefficients) ** 2)
        assert abs(lhs - rhs) <= 1e-12 * rhs


class TestDerivatives:
    def test_gradient_of_sine(self, grid):
        f = scalar(grid, lambda x, y: np.sin(x))
        gx, gy = gradient(f).samples
        assert np.max(np.abs(gx - np.cos(grid.x_mesh[0]))) < 1e-12
        assert np.max(np.abs(gy)) < 1e-13

    def test_div_grad_is_laplacian(self, grid):
        f = scalar(grid, lambda x, y: np.cos(y))
        lap = divergence(gradient(f))
        assert np.max(np.abs(lap.samples + np.cos(grid.x_mesh[1]))) < 1e-12
        lap2 = laplacian(f)
        assert np.max(np.abs(lap.coefficients - lap2.coefficients)) < 1e-14

    def test_perp_identity(self, grid):
        f = random_scalar(grid, 9)
        a = perp_div_2d(perp_grad_2d(f))
        b = laplacian(f)
        assert np.max(np.abs(a.coefficients - b.coefficients)) == 0.0

    def test_perp_on_sine(self, grid):
        f = scalar(grid, lambda x, y: np.sin(x))
        out = perp_div_2d(perp_grad_2d(f))
        assert np.max(np.abs(out.samples + np.sin(grid.x_mesh[0]))) < 1e-12

    def test_perp_rejects_3d(self):
        g = Grid(3, 8)
        f = SpectralScalarField.zero(g)
        with pytest.raises(ValueError):
            perp_grad_2d(f)
        with pytest.raises(ValueError):
            perp_div_2d(SpectralVectorField.zero(g))


class TestLeray:
    def test_constant_unchanged(self, grid):
        v = SpectralVectorField.from_samples(
            grid, np.ones(grid.shape), np.zeros(grid.shape)
        )
        p = leray_project(v)
        assert np.max(np.abs(p.samples[0] - 1.0)) < 1e-14
        assert np.max(np.abs(p.samples[1])) < 1e-14

    def test_pure_gradient_annihilated(self, grid):
        # (cos x, 0) = grad sin x
        v = SpectralVectorField.from_samples(
            grid, np.cos(grid.x_mesh[0]), np.zeros(grid.shape)
        )
        p = leray_project(v)
        assert lp_norm(p, 2) < 1e-12

    def test_solenoidal_fixed(self, grid):
        v = SpectralVectorField.from_samples(
            grid, np.cos(grid.x_mesh[1]), np.zeros(grid.shape)
        )
        p = leray_project(v)
        assert np.max(np.abs(p.samples[0] - v.samples[0])) < 1e-13

    def test_divergence_annihilated(self, grid):
        v = random_vector(grid, 21)
        p = leray_project(v)
        assert lp_norm(divergence(p), 2) <= 1e-12 * sobolev_norm(v, 1)

    def test_idempotent_and_orthogonal(self, grid):
        v = random_vector(grid, 33)
        p = leray_project(v)
        pp = leray_project(p)
        gap = np.max(np.abs(p.coefficients - pp.coefficients))
        assert gap <= 1e-12
        # (Pv, v - Pv)_{L^2} = 0
        resid = v - p
        inner = sum(
            np.sum(p.samples[i] * resid.samples[i])
            * grid.cell_volume
            for i in range(2)
        )
        assert abs(inner) <= 1e-12 * lp_norm(v, 2) ** 2


class TestGalerkin:
    def test_large_cutoff_is_identity(self, grid):
        f = random_scalar(grid, 2)
        out = galerkin_project(f, grid.n // 2)
        assert out.coefficients is f.coefficients

    def test_mode_above_cutoff_killed(self, grid):
        f = scalar(grid, lambda x, y: np.sin(3 * x))
        out = galerkin_project(f, 2)
        assert lp_norm(out, 2) < 1e-13

    def test_idempotent(self, grid):
        f = random_scalar(grid, 4)
        a = galerkin_project(f, 5)
        b = galerkin_project(a, 5)
        assert np.array_equal(a.coefficients, b.coefficients)


class TestStokes:
    def test_constant_killed(self, grid):
        v = SpectralVectorField.from_samples(
            grid, np.full(grid.shape, 2.0), np.zeros(grid.shape)
        )
        assert lp_norm(stokes_apply(v), 2) < 1e-13

    def test_single_mode_eigenfunction(self, grid):
        v = SpectralVectorField.from_samples(
            grid, np.cos(grid.x_mesh[1]), np.zeros(grid.shape)
        )
        out = stokes_apply(v)
        assert np.max(np.abs(out.samples[0] - v.samples[0])) < 1e-12

    def test_implicit_solve_single_mode(self, grid):
        v = SpectralVectorField.from_samples(
            grid, np.cos(grid.x_mesh[1]), np.zeros(grid.shape)
        )
        out = implicit_diffusion_solve(v, dt=1.0)
        assert np.max(np.abs(out.samples[0] - 0.5 * np.cos(grid.x_mesh[1]))) < 1e-12

    def test_implicit_solve_rejects_bad_dt(self, grid):
        v = SpectralVectorField.zero(grid)
        with pytest.raises(ValueError):
            implicit_diffusion_solve(v, dt=0.0)
        with pytest.raises(ValueError):
            implicit_diffusion_solve(v, dt=-1.0)

    def test_inverse_pair(self, grid):
        v = leray_project(random_vector(grid, 12, kmax=8))
        dt = 0.17
        w = implicit_diffusion_solve(v, dt)
        back = w + dt * stokes_apply(w)
        gap = np.max(np.abs(back.coefficients - v.coefficients))
        assert gap < 1e-12


def test_dealias_band(grid):
    # n = 32 keeps |k_i| <= 10
    f = scalar(grid, lambda x, y: np.sin(12 * x) + np.sin(3 * x))
    out = dealias(f)
    assert abs(out.coefficients[grid.mode_index((3, 0))] - (-0.5j)) < 1e-14
    assert out.coefficients[grid.mode_index((12, 0))] == 0.0
