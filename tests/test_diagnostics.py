import numpy as np
import pytest

from torusbq.diagnostics import (
    GronwallRecord,
    StoppingRule,
    biot_savart,
    check_stopping,
    curl_2d,
    energy_budget,
    gronwall_record,
    vorticity_consistency,
)
from torusbq.forcing import (
    QWienerSpec,
    RandomStream,
    additive_intensity,
)
from torusbq.solver import (
    InitialCondition,
    NoiseModel,
    SolverConfig,
    State,
    run,
)
from torusbq.spectral import (
    Grid,
    SpectralScalarField,
    SpectralVectorField,
    galerkin_project,
    gradient,
    leray_project,
    lp_norm,
    sobolev_norm,
)


@pytest.fixture
def grid():
    return Grid(2, 32)


def single_mode_noise(grid):
    spec = QWienerSpec((((0, 1), "cos"),), np.array([1.0]))
    fields = [
        SpectralVectorField.from_samples(
            grid, np.cos(grid.x_mesh[1]), np.zeros(grid.shape)
        )
    ]
    return NoiseModel(spec, additive_intensity(fields))


def random_divfree(grid, seed, kmax=8):
    rng = np.random.default_rng(seed)
    raw = SpectralVectorField.from_samples(
        grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
    )
    return leray_project(galerkin_project(raw, kmax))


class TestCurl:
    def test_shear(self, grid):
        u = SpectralVectorField.from_samples(
            grid, np.sin(grid.x_mesh[1]), np.zeros(grid.shape)
        )
        w = curl_2d(u)
        assert np.max(np.abs(w.samples + np.cos(grid.x_mesh[1]))) < 1e-12

    def test_constant(self, grid):
        u = SpectralVectorField.from_samples(
            grid, np.full(grid.shape, 2.0), np.full(grid.shape, -1.0)
        )
        assert lp_norm(curl_2d(u), 2) < 1e-13

    def test_gradient_field(self, grid):
        u = SpectralVectorField.from_samples(
            grid, np.cos(grid.x_mesh[0]), np.zeros(grid.shape)
        )
        assert lp_norm(curl_2d(u), 2) < 1e-13

    def test_requires_2d(self):
        g3 = Grid(3, 8)
        with pytest.raises(ValueError):
            curl_2d(SpectralVectorField.zero(g3))


class TestBiotSavart:
    def test_zero(self, grid):
        u = biot_savart(SpectralScalarField.zero(grid))
        assert lp_norm(u, 2) == 0.0

    def test_single_mode(self, grid):
        w = SpectralScalarField.from_samples(grid, np.sin(grid.x_mesh[0]))
        u = biot_savart(w)
        assert np.max(np.abs(u.samples[0])) < 1e-13
        assert np.max(np.abs(u.samples[1] + np.cos(grid.x_mesh[0]))) < 1e-13

    def test_rejects_mean(self, grid):
        w = SpectralScalarField.from_samples(grid, 1.0 + np.sin(grid.x_mesh[0]))
        with pytest.raises(ValueError, match="mean"):
            biot_savart(w)

    def test_roundtrip_both_ways(self, grid):
        for seed in range(5):
            u = random_divfree(grid, seed)
            # remove the mean velocity (free parameter on the torus)
            coeffs = u.coefficients.copy()
            coeffs[(slice(None),) + grid.mode_index((0, 0))] = 0.0
            u0 = SpectralVectorField.from_coefficient_stack(grid, coeffs)
            back = biot_savart(curl_2d(u0))
            err = np.max(np.abs(back.coefficients - u0.coefficients))
            assert err <= 1e-12
            w = curl_2d(u0)
            w_back = curl_2d(biot_savart(w))
            assert np.max(np.abs(w_back.coefficients - w.coefficients)) <= 1e-12


class TestGronwall:
    def zero_cfg(self, grid, **kw):
        return SolverConfig(grid=grid, dt=0.01, t_end=0.01, **kw)

    def test_zero_state(self, grid):
        cfg = self.zero_cfg(grid)
        state = State(0.0, SpectralVectorField.zero(grid), SpectralScalarField.zero(grid))
        rec = gronwall_record(state, cfg)
        assert rec.Y == 1.0
        assert rec.g == 1.0
        assert rec.sigma == 1.0
        assert rec.Z_bound == 1.0

    def test_unit_grad_w(self, grid):
        # choose w = c sin(x1) with |grad w|_{L^4} = 1
        c = (8.0 / 3.0) ** 0.25 / np.sqrt(2 * np.pi)
        w = SpectralScalarField.from_samples(grid, c * np.sin(grid.x_mesh[0]))
        state = State(0.0, biot_savart(w), SpectralScalarField.zero(grid))
        rec = gronwall_record(state, self.zero_cfg(grid))
        assert abs(lp_norm(gradient(curl_2d(state.u)), 4) - 1.0) < 1e-12
        assert abs(rec.Y - 2.0) < 1e-10
        assert abs(rec.Z_bound - 2.0**0.75) < 1e-10
        assert abs(rec.Z_bound - 1.6818) < 1e-3

    def test_quartic_scaling(self, grid):
        u = random_divfree(grid, 3)
        theta = SpectralScalarField.zero(grid)
        cfg = self.zero_cfg(grid)
        y1 = gronwall_record(State(0.0, u, theta), cfg).Y - 1.0
        y2 = gronwall_record(State(0.0, 2.0 * u, theta), cfg).Y - 1.0
        assert y2 == pytest.approx(16.0 * y1, rel=1e-10)

    def test_noise_enters_sigma(self, grid):
        cfg = self.zero_cfg(grid, noise=single_mode_noise(grid))
        state = State(0.0, SpectralVectorField.zero(grid), SpectralScalarField.zero(grid))
        rec = gronwall_record(state, cfg)
        # curl of cos(x2) e1 is sin(x2); its gradient's W^{0,4} norm is positive
        assert rec.sigma > 1.0
        assert rec.Z_bound > 1.0

    def test_requires_2d(self):
        g3 = Grid(3, 8)
        cfg = SolverConfig(grid=g3, dt=0.01, t_end=0.01)
        state = State(0.0, SpectralVectorField.zero(g3), SpectralScalarField.zero(g3))
        with pytest.raises(ValueError):
            gronwall_record(state, cfg)


class TestStopping:
    def shear_record(self, grid, T=1.0, dt=0.01):
        cfg = SolverConfig(
            grid=grid, dt=dt, t_end=T, init=InitialCondition(velocity="shear")
        )
        return run(cfg), cfg

    def test_infinite_threshold(self, grid):
        rec, _ = self.shear_record(grid, T=0.1)
        assert check_stopping(rec, StoppingRule("tau_R", np.inf)) is None

    def test_immediate_breach(self, grid):
        rec, _ = self.shear_record(grid, T=0.1)
        # |grad u0|_inf = 1 > 0.5
        assert check_stopping(rec, StoppingRule("tau_R", 0.5)) == 0.0

    def test_run_stops_at_rule(self, grid):
        cfg = SolverConfig(
            grid=grid, dt=0.01, t_end=0.1, init=InitialCondition(velocity="shear")
        )
        rule = StoppingRule("tau_R", 0.5)
        rec = run(cfg, stopping_rules=[rule])
        assert rec.stop_reason == rule.describe()
        assert len(rec.rows) == 1  # fired on the initial row

    def test_monotone_in_threshold(self, grid):
        rec, _ = self.shear_record(grid, T=1.0)
        rule_small = StoppingRule("gamma_R", 5.0)
        rule_big = StoppingRule("gamma_R", 7.0)
        t_small = check_stopping(rec, rule_small)
        t_big = check_stopping(rec, rule_big)
        if t_small is not None and t_big is not None:
            assert t_big >= t_small

    def test_gamma_closed_form_crossing(self, grid):
        # buoyancy growth from rest with theta0 = sin x1: theta is never
        # advected (u is vertical and x2-independent), so exactly
        # u(t) = (1 - e^{-t}) sin x1 e2 and w(t) = (1 - e^{-t}) cos x1,
        # making the running Gamma functional
        #   G(t) = (c2 + c4)(1 - e^{-t}) + c2 (t - 1 + e^{-t})
        dt, T = 0.005, 2.0
        cfg = SolverConfig(
            grid=grid,
            dt=dt,
            t_end=T,
            init=InitialCondition(temperature="sine", temperature_amplitude=1.0),
        )
        rec = run(cfg)
        c2 = np.sqrt(2 * np.pi**2)
        c4 = ((2 * np.pi) ** 2 * 3.0 / 8.0) ** 0.25
        ts = np.linspace(0, T, 4001)
        exact = (c2 + c4) * (1 - np.exp(-ts)) + c2 * (ts - 1 + np.exp(-ts))
        threshold = float(np.interp(1.0, ts, exact))  # crossed near t = 1
        t_exact = ts[np.argmax(exact > threshold)]
        t_disc = check_stopping(rec, StoppingRule("gamma_R", threshold))
        assert t_disc is not None
        assert abs(t_disc - t_exact) <= 0.05 + 2 * dt

    def test_custom_rule(self, grid):
        rec, _ = self.shear_record(grid, T=0.1)
        rule = StoppingRule(
            "custom", 0.5, functional=lambda r: 1.0 - r.rows[-1].l2_u / r.rows[0].l2_u
        )
        assert check_stopping(rec, rule) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            StoppingRule("bogus", 1.0)
        with pytest.raises(ValueError):
            StoppingRule("custom", 1.0)


class TestEnergyBudget:
    def test_zero_flow(self, grid):
        cfg = SolverConfig(grid=grid, dt=0.01, t_end=0.05)
        res = energy_budget(run(cfg))
        assert np.max(np.abs(res)) == 0.0

    def test_refuses_stochastic(self, grid):
        cfg = SolverConfig(
            grid=grid, dt=0.01, t_end=0.05, epsilon=0.5, noise=single_mode_noise(grid)
        )
        rec = run(cfg, stream=RandomStream(0))
        with pytest.raises(ValueError):
            energy_budget(rec)


class TestVorticityConsistency:
    def test_zero_everything(self, grid):
        cfg = SolverConfig(grid=grid, dt=0.01, t_end=0.05)
        out = vorticity_consistency(cfg)
        assert out["sup_gap"] == 0.0

    def test_shear_decay_gap_small(self, grid):
        dt, T = 0.01, 0.5
        cfg = SolverConfig(
            grid=grid, dt=dt, t_end=T, init=InitialCondition(velocity="shear")
        )
        out = vorticity_consistency(cfg)
        assert out["sup_gap"] <= 5 * dt * T * np.sqrt(2 * np.pi**2)

    def test_gap_halves_with_dt(self, grid):
        T = 0.5
        sups = []
        for dt in (0.02, 0.01):
            cfg = SolverConfig(
                grid=grid,
                dt=dt,
                t_end=T,
                epsilon=0.5,
                noise=single_mode_noise(grid),
                init=InitialCondition(velocity="taylor_green", temperature="sine"),
            )
            out = vorticity_consistency(cfg, stream=RandomStream(21))
            sups.append(out["sup_gap"])
        assert sups[0] / sups[1] >= 1.8

    def test_requires_plain_system(self, grid):
        with pytest.raises(ValueError):
            vorticity_consistency(
                SolverConfig(grid=grid, dt=0.01, t_end=0.05, cutoff_R=1.0)
            )
        g3 = Grid(3, 8)
        with pytest.raises(ValueError):
            vorticity_consistency(SolverConfig(grid=g3, dt=0.01, t_end=0.05))


def test_embedding_ratio_bounded(grid):
    # |grad u|_inf <= C (|grad u|_{L^2} + |grad w|_{L^4}) with a per-grid
    # constant; pinned from the randomized corpus with margin
    from torusbq.transport import velocity_grad_sup

    ratios = []
    for seed in range(20):
        u = random_divfree(grid, seed + 100)
        w = curl_2d(u)
        rows = [SpectralScalarField.from_coefficients(grid, c) for c in u.coefficients]
        denom = lp_norm(gradient(w), 4) + np.sqrt(
            sum(lp_norm(gradient(c), 2) ** 2 for c in rows)
        )
        ratios.append(velocity_grad_sup(u) / denom)
    assert max(ratios) <= 0.5
