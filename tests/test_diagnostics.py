import numpy as np
import pytest

from torusbq.diagnostics import (
    GronwallRecord,
    StoppingRule,
    check_stopping,
    energy_budget,
    gronwall_record,
    vorticity_consistency,
)
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
    Control,
    InitialCondition,
    NoiseModel,
    SolverConfig,
    State,
    TrajectoryRecord,
    run,
)
from torusbq.spectral import (
    Grid,
    SpectralScalarField,
    SpectralVectorField,
    biot_savart,
    galerkin_project,
    gradient,
    leray_project,
    lp_norm,
    perp_div_2d,
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
        w = perp_div_2d(u)
        assert np.max(np.abs(w.samples + np.cos(grid.x_mesh[1]))) < 1e-12

    def test_constant(self, grid):
        u = SpectralVectorField.from_samples(
            grid, np.full(grid.shape, 2.0), np.full(grid.shape, -1.0)
        )
        assert lp_norm(perp_div_2d(u), 2) < 1e-13

    def test_gradient_field(self, grid):
        u = SpectralVectorField.from_samples(
            grid, np.cos(grid.x_mesh[0]), np.zeros(grid.shape)
        )
        assert lp_norm(perp_div_2d(u), 2) < 1e-13

    def test_requires_2d(self):
        g3 = Grid(3, 8)
        with pytest.raises(ValueError):
            perp_div_2d(SpectralVectorField.zero(g3))


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
            back = biot_savart(perp_div_2d(u0))
            err = np.max(np.abs(back.coefficients - u0.coefficients))
            assert err <= 1e-12
            w = perp_div_2d(u0)
            w_back = perp_div_2d(biot_savart(w))
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
        assert abs(lp_norm(gradient(perp_div_2d(state.u)), 4) - 1.0) < 1e-12
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

    def test_stack_sums_match_loop_reference(self, grid):
        # sigma and the Hessian term come from one call on the (d, m, *grid)
        # mode stack and on grad w; the plain loops over modes and components
        # sum in another order, hence the tolerance
        spec = default_qwiener(2, 5)
        fields = default_mode_fields(grid, spec)
        noise = NoiseModel(spec, multiplicative_intensity(fields, a0=0.5, a1=0.7, a2=0.3))
        u = random_divfree(grid, 11)
        theta = SpectralScalarField.from_samples(grid, np.sin(grid.x_mesh[0]))
        rec = gronwall_record(State(0.0, u, theta), self.zero_cfg(grid, noise=noise))
        envelope = 0.5 + 0.7 * u.samples + 0.3 * theta.samples
        agg = np.zeros(grid.shape)
        for lam, base in zip(spec.eigenvalues, fields):
            fe = SpectralVectorField.from_sample_stack(grid, base.samples * envelope)
            grad_curl = gradient(perp_div_2d(fe)).samples
            agg += lam * (grad_curl[0] ** 2 + grad_curl[1] ** 2)
        w44 = (np.sum(agg**2) * grid.cell_volume) ** 0.25
        assert rec.sigma == pytest.approx((1.0 + w44) ** 4, rel=1e-12)
        grad_w = gradient(perp_div_2d(u))
        hess_sq = np.zeros(grid.shape)
        for c in grad_w.coefficients:
            for second in gradient(SpectralScalarField(grid, coeffs=c)).samples:
                hess_sq += second**2
        mag_sq = grad_w.samples[0] ** 2 + grad_w.samples[1] ** 2
        want = np.sum(hess_sq * mag_sq) * grid.cell_volume
        assert rec.second_derivative_term == pytest.approx(want, rel=1e-12)

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

    def test_fires_reads_only_the_last_row(self):
        # the earlier rows' Gamma terms overflow when summed: a rule that
        # re-read them would warn (an error under this suite) or see inf
        values = np.tile(BLANK_ROW, (3, 1))
        gamma = [COLUMNS.index(name) for name in ("l2_w", "l4_w", "int_grad_w_h")]
        tau = COLUMNS.index("linf_grad_u")
        values[:2, gamma + [tau]] = 1e308
        values[2, gamma] = 1.0
        values[2, tau] = 3.0
        record = TrajectoryRecord(values=values)
        assert StoppingRule("gamma_R", 2.5).fires(record)
        assert not StoppingRule("gamma_R", 3.5).fires(record)
        assert StoppingRule("tau_R", 2.5).fires(record)
        assert not StoppingRule("tau_R", 3.5).fires(record)

    def test_gamma_column_matches_prefix_sums(self):
        # a controlled noisy run, so both integrands are nonzero: the
        # column agrees with the prefix sum (cumsum, then times dt) it
        # replaces, and the rule stops on the same row as that form does
        grid = Grid(2, 16)
        spec = default_qwiener(2, 4)
        noise = NoiseModel(spec, additive_intensity(default_mode_fields(grid, spec)))
        control = Control([0.0, 0.25], np.linspace(-1.0, 1.0, 8).reshape(2, 4))
        cfg = SolverConfig(
            grid=grid,
            dt=0.01,
            t_end=0.5,
            epsilon=0.3,
            noise=noise,
            control=control,
            init=InitialCondition(velocity="taylor_green", temperature="sine"),
        )
        rec = run(cfg, stream=RandomStream(3))
        integrand = rec.column("l2_grad_w") + rec.column("h_h0")
        prefix = np.concatenate([[0.0], np.cumsum(integrand[:-1]) * cfg.dt])
        assert rec.column("int_grad_w_h")[0] == 0.0
        np.testing.assert_allclose(rec.column("int_grad_w_h"), prefix, rtol=1e-14, atol=0)
        gamma = rec.column("l2_w") + rec.column("l4_w") + prefix
        rule = StoppingRule("gamma_R", float(np.median(gamma)))
        first = int(np.argmax(gamma > rule.threshold))
        assert first > 0
        assert check_stopping(rec, rule) == rec.column("t")[first]
        stopped = run(cfg, stream=RandomStream(3), stopping_rules=[rule])
        assert len(stopped.values) == first + 1
        assert stopped.stop_reason == rule.describe()
        light = run(cfg, stream=RandomStream(3), full_diagnostics=False)
        assert np.all(np.isnan(light.column("int_grad_w_h")))

    def test_validation(self):
        with pytest.raises(ValueError):
            StoppingRule("bogus", 1.0)
        with pytest.raises(ValueError, match="unknown stopping rule kind 'custom'"):
            StoppingRule("custom", 1.0)


class TestEnergyBudget:
    def test_zero_flow(self, grid):
        cfg = SolverConfig(grid=grid, dt=0.01, t_end=0.05)
        res = energy_budget(run(cfg))
        assert np.max(np.abs(res)) == 0.0

    def test_result_cannot_edit_record(self, grid):
        rec = run(SolverConfig(grid=grid, dt=0.01, t_end=0.05))
        with pytest.raises(ValueError, match="read-only"):
            energy_budget(rec)[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            rec.values[0, 0] = 1.0
        assert np.max(np.abs(energy_budget(rec))) == 0.0

    def test_control_work_balanced(self):
        # the mean mode's constant drift does work on u and nothing else does
        grid = Grid(2, 16)
        spec = default_qwiener(2, 3)
        assert spec.modes[0] == ((0, 0), "cos")
        cfg = SolverConfig(
            grid=grid,
            dt=0.01,
            t_end=0.03,
            noise=NoiseModel(spec, additive_intensity(default_mode_fields(grid, spec))),
            control=Control([0.0], [[1.0, 0.0, 0.0]]),
        )
        rec = run(cfg)
        assert rec.column("l2_u")[-1] > 0.01
        assert np.max(np.abs(energy_budget(rec))) < 1e-14

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

    @staticmethod
    def sup_gaps(grid, noise):
        """sup_gap at dt = 0.02 and 0.01 for one noise model."""
        sups = []
        for dt in (0.02, 0.01):
            cfg = SolverConfig(
                grid=grid,
                dt=dt,
                t_end=0.5,
                epsilon=0.5,
                noise=noise,
                init=InitialCondition(velocity="taylor_green", temperature="sine"),
            )
            out = vorticity_consistency(cfg, stream=RandomStream(21))
            sups.append(out["sup_gap"])
        return sups

    def test_gap_halves_with_dt(self, grid):
        sups = self.sup_gaps(grid, single_mode_noise(grid))
        assert sups[0] / sups[1] >= 1.8

    def test_multiplicative_gap_halves_with_dt(self, grid):
        # four modes, the mean mode among them, under a state-dependent envelope
        spec = default_qwiener(2, 4)
        fields = default_mode_fields(grid, spec)
        noise = NoiseModel(spec, multiplicative_intensity(fields, a0=0.5, a1=0.3))
        sups = self.sup_gaps(grid, noise)
        assert sups[0] / sups[1] >= 1.8
        # 0.025 measured; a twin that leaves the mean mode's forcing out of
        # its mean velocity reads 0.09, and still halves with dt
        assert sups[1] <= 0.04

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
        w = perp_div_2d(u)
        rows = [SpectralScalarField.from_coefficients(grid, c) for c in u.coefficients]
        denom = lp_norm(gradient(w), 4) + np.sqrt(
            sum(lp_norm(gradient(c), 2) ** 2 for c in rows)
        )
        ratios.append(velocity_grad_sup(u) / denom)
    assert max(ratios) <= 0.5
