import concurrent.futures
import dataclasses
import os

import numpy as np
import pytest

from torusbq.diagnostics import StoppingRule
from torusbq.forcing import (
    NoiseIntensity,
    QWienerSpec,
    RandomStream,
    additive_intensity,
    default_mode_fields,
    default_qwiener,
)
from torusbq.ldp import FUNCTIONALS, ControlFamily
from torusbq.solver import (
    BLANK_ROW,
    COLUMNS,
    Control,
    InitialCondition,
    NoiseModel,
    SolverConfig,
    State,
    build_initial_state,
    cutoff,
    momentum_rhs,
    run,
    run_ensemble,
    step,
)
from torusbq.spectral import (
    Grid,
    SpectralScalarField,
    SpectralVectorField,
    lp_norm,
    perp_div_2d,
    sobolev_norm,
)
from torusbq.transport import AdvectionScheme


def base_config(n=32, **kw):
    grid = Grid(2, n)
    defaults = dict(grid=grid, dt=0.01, t_end=0.1)
    defaults.update(kw)
    return SolverConfig(**defaults)


def single_mode_noise(grid, amplitude=1.0):
    spec = QWienerSpec((((0, 1), "cos"),), np.array([1.0]))
    fields = [
        SpectralVectorField.from_samples(
            grid, amplitude * np.cos(grid.x_mesh[1]), np.zeros(grid.shape)
        )
    ]
    return NoiseModel(spec, additive_intensity(fields))


class TestCutoff:
    def test_plateau_values(self):
        R = 2.0
        assert cutoff(0.5 * R, R) == 1.0
        assert cutoff(R, R) == 1.0
        assert cutoff(2.5 * R, R) == 0.0
        assert cutoff(2.0 * R, R) == 0.0

    def test_midpoint(self):
        for R in (0.5, 1.0, 3.0):
            assert cutoff(1.5 * R, R) == pytest.approx(0.5, abs=1e-12)

    def test_monotone(self):
        R = 1.0
        xs = np.linspace(0.0, 3.0, 301)
        vals = [cutoff(x, R) for x in xs]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_radius(self):
        with pytest.raises(ValueError):
            cutoff(1.0, 0.0)


class TestConfigValidation:
    def test_good_defaults(self):
        cfg = base_config()
        assert cfg.s == 3
        assert cfg.n_steps == 10

    def test_bad_dt(self):
        with pytest.raises(ValueError):
            base_config(dt=-0.1)
        with pytest.raises(ValueError):
            base_config(dt=0.5, t_end=0.1)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("dt", np.nan),
            ("dt", np.inf),
            ("t_end", np.nan),
            ("t_end", np.inf),
            ("viscosity", np.nan),
            ("viscosity", np.inf),
            # 0 already means no cut-off
            ("cutoff_R", np.nan),
            ("cutoff_R", np.inf),
            ("cfl_cap", np.nan),
            ("cfl_cap", 0.0),
            ("cfl_cap", -1.0),
        ],
    )
    def test_refuses_non_finite_naming_field(self, field, value):
        # NaN passed every `<= 0` test: t_end = nan ran no step, viscosity =
        # nan ended as a velocity blow-up and cfl_cap = nan never flagged
        with pytest.raises(ValueError, match=rf"^{field} must be (positive|nonnegative)"):
            base_config(**{field: value})

    def test_infinite_cfl_cap_never_flags(self):
        init = InitialCondition(velocity="taylor_green", velocity_amplitude=50.0)
        flags = {}
        for cap in (1.0, np.inf):
            cfg = base_config(n=16, t_end=0.03, cfl_cap=cap, init=init)
            flags[cap] = run(cfg, columns=()).column("cfl_violated")[1:].tolist()
        assert flags == {1.0: [1.0, 1.0, 1.0], np.inf: [0.0, 0.0, 0.0]}

    def test_t_end_zero_allowed(self):
        cfg = base_config(t_end=0.0)
        assert cfg.n_steps == 0

    def test_t_end_must_be_multiple(self):
        with pytest.raises(ValueError):
            base_config(dt=0.03, t_end=0.1)

    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            base_config(epsilon=-0.1)
        with pytest.raises(ValueError):
            base_config(epsilon=1.5)

    def test_epsilon_needs_noise(self):
        with pytest.raises(ValueError):
            base_config(epsilon=0.5)

    def test_control_needs_noise(self):
        with pytest.raises(ValueError):
            base_config(control=Control.zero(1))

    @pytest.mark.parametrize(
        "times, samples",
        [
            ([np.nan], [[1.0]]),
            ([0.0, np.nan], [[1.0], [2.0]]),
            ([0.0, np.inf], [[1.0], [2.0]]),
            ([0.0], [[np.nan]]),
            ([0.0, 0.5], [[1.0], [-np.inf]]),
        ],
        ids=["nan-start", "nan-node", "inf-node", "nan-sample", "inf-sample"],
    )
    def test_control_refuses_non_finite(self, times, samples):
        # a NaN node passed the ordering check and ran to t_end uncontrolled
        with pytest.raises(ValueError, match="control times and samples must be finite"):
            Control(times, samples)

    def test_control_mode_count(self):
        grid = Grid(2, 32)
        with pytest.raises(ValueError):
            SolverConfig(
                grid=grid,
                dt=0.01,
                t_end=0.1,
                noise=single_mode_noise(grid),
                control=Control.zero(3),
            )


def _intensity(**amplitudes):
    base = (SpectralVectorField.zero(Grid(2, 8)),)
    return NoiseIntensity("multiplicative", base, **amplitudes)


#: constructor of one number -> the field its refusal names
NON_FINITE_REFUSALS = {
    "box_bound": (lambda v: ControlFamily(2, box_bound=v), "box bound"),
    "velocity_amplitude": (
        lambda v: InitialCondition(velocity_amplitude=v), "velocity_amplitude"
    ),
    "temperature_amplitude": (
        lambda v: InitialCondition(temperature_amplitude=v), "temperature_amplitude"
    ),
    "a0": (lambda v: _intensity(a0=v), "a0"),
    "a1": (lambda v: _intensity(a1=v), "a1"),
    "a2": (lambda v: _intensity(a2=v), "a2"),
    "gamma": (lambda v: default_qwiener(2, 3, gamma=v), "gamma"),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=str)
@pytest.mark.parametrize("case", sorted(NON_FINITE_REFUSALS))
def test_constructors_refuse_non_finite(case, value):
    # each was accepted, or refused naming no field: a NaN amplitude was
    # reported as a NaN divergence defect, and 1.0**nan is 1.0 for gamma
    build, field = NON_FINITE_REFUSALS[case]
    with pytest.raises(ValueError, match=rf"^{field} must be .*finite, got {value}$"):
        build(value)


class TestMomentumRhs:
    def test_zero_state(self):
        cfg = base_config()
        state = State(0.0, SpectralVectorField.zero(cfg.grid), SpectralScalarField.zero(cfg.grid))
        drift, phi = momentum_rhs(state, cfg)
        assert phi == 1.0
        assert lp_norm(drift, 2) == 0.0

    def test_constant_buoyancy(self):
        cfg = base_config()
        c = 0.7
        state = State(
            0.0,
            SpectralVectorField.zero(cfg.grid),
            SpectralScalarField.from_samples(cfg.grid, np.full(cfg.grid.shape, c)),
        )
        drift, _ = momentum_rhs(state, cfg)
        assert np.max(np.abs(drift.samples[1] - c)) < 1e-13
        assert np.max(np.abs(drift.samples[0])) < 1e-13

    def test_cutoff_kills_nonlinearity(self):
        grid = Grid(2, 32)
        X, Y = grid.x_mesh
        u = SpectralVectorField.from_samples(
            grid, np.sin(X) * np.cos(Y), -np.cos(X) * np.sin(Y)
        )
        theta = SpectralScalarField.zero(grid)
        # |grad u|_inf = sqrt(2) for Taylor-Green; choose R with sqrt(2) >= 2R
        cfg = base_config(cutoff_R=0.4)
        drift, phi = momentum_rhs(State(0.0, u, theta), cfg)
        assert phi == 0.0
        assert lp_norm(drift, 2) == 0.0

    @pytest.mark.parametrize("dimension", [2, 3])
    def test_matches_two_projection_form(self, dimension):
        # P is linear, so one projection of the summed stack gives
        # P(theta e_d) - phi P(dealias((u . grad) u)) + P f h to rounding
        from torusbq.forcing import weighted_sum
        from torusbq.solver import _prepare_state
        from torusbq.spectral import dealias, gradient_summary, leray_project
        from torusbq.transport import velocity_grad_sup

        grid = Grid(dimension, 16 if dimension == 2 else 8)
        spec = default_qwiener(dimension, 3)
        noise = NoiseModel(spec, additive_intensity(default_mode_fields(grid, spec)))
        init = InitialCondition(velocity="taylor_green", temperature="sine")
        cfg = SolverConfig(grid=grid, dt=0.01, t_end=0.01, noise=noise, init=init)
        state = _prepare_state(build_initial_state(cfg), cfg)
        u, theta = state.u, state.theta
        h = np.array([1.5, 0.0, -0.5])
        # R = sup / 1.4 puts |grad u|_inf inside (R, 2R): 0 < phi < 1
        cfg = dataclasses.replace(
            cfg, cutoff_R=velocity_grad_sup(u) / 1.4, control=Control([0.0], [h])
        )
        drift, phi = momentum_rhs(state, cfg)
        assert 0.0 < phi < 1.0

        buoyancy = np.zeros((dimension,) + grid.shape, dtype=complex)
        buoyancy[-1] = theta.coefficients
        buoyancy = SpectralVectorField.from_coefficient_stack(grid, buoyancy)
        advection = gradient_summary(u).advection
        advection = dealias(SpectralVectorField.from_sample_stack(grid, advection))
        want = (
            leray_project(buoyancy)
            - phi * leray_project(advection)
            + weighted_sum(noise, u, theta, h)
        ).coefficients
        scale = np.max(np.abs(want))
        assert np.max(np.abs(drift.coefficients - want)) <= 1e-13 * scale


class TestExactSolutions:
    def test_constant_mode_buoyancy(self):
        cfg = base_config(
            dt=0.01,
            t_end=0.5,
            init=InitialCondition(temperature="constant", temperature_amplitude=0.8),
        )
        rec = run(cfg)
        u = rec.final_state.u
        expect = 0.8 * 0.5
        assert abs(u.coefficients[1][u.grid.mode_index((0, 0))] - expect) < 1e-10
        assert np.max(np.abs(u.samples[0])) < 1e-12
        assert np.max(np.abs(rec.final_state.theta.samples - 0.8)) < 1e-12

    def test_everything_zero(self):
        cfg = base_config()
        rec = run(cfg)
        assert lp_norm(rec.final_state.u, 2) == 0.0
        assert lp_norm(rec.final_state.theta, 2) == 0.0

    def test_shear_decay_matches_scheme(self):
        dt, T = 0.01, 0.5
        cfg = base_config(dt=dt, t_end=T, init=InitialCondition(velocity="shear"))
        rec = run(cfg)
        n = cfg.n_steps
        expect = (1.0 + dt) ** (-n) * np.sin(cfg.grid.x_mesh[1])
        got = rec.final_state.u.samples[0]
        assert np.max(np.abs(got - expect)) < 1e-12
        # and the scheme value is e^{-T} up to O(dt)
        ratio = rec.rows[-1].l2_u / rec.rows[0].l2_u
        assert abs(ratio - np.exp(-T)) <= 5 * dt

    def test_shear_decay_first_order_in_dt(self):
        T = 0.5
        errs = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            cfg = base_config(dt=dt, t_end=T, init=InitialCondition(velocity="shear"))
            rec = run(cfg)
            ratio = rec.rows[-1].l2_u / rec.rows[0].l2_u
            errs.append(abs(ratio - np.exp(-T)))
        slopes = [np.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert all(abs(s - 1.0) <= 0.2 for s in slopes)


class TestRunBookkeeping:
    def test_t_end_zero_initial_row_only(self):
        cfg = base_config(t_end=0.0, init=InitialCondition(velocity="shear"))
        rec = run(cfg)
        assert len(rec.rows) == 1
        assert rec.rows[0].t == 0.0
        assert rec.rows[0].l2_u > 0

    def test_divergence_free_every_step(self):
        cfg = base_config(
            dt=5e-3,
            t_end=0.1,
            epsilon=0.5,
            noise=single_mode_noise(Grid(2, 32)),
            init=InitialCondition(velocity="taylor_green", temperature="sine"),
        )
        rec = run(cfg, stream=RandomStream(0))
        defects = rec.column("div_defect")[1:]
        assert np.max(defects) <= 1e-10

    def test_refuses_nonsolenoidal_initial_velocity(self):
        grid = Grid(2, 16)
        theta = SpectralScalarField.zero(grid)
        compressible = SpectralVectorField.from_samples(
            grid, np.sin(grid.x_mesh[0]), np.zeros(grid.shape)
        )  # div u = cos x1
        with pytest.raises(ValueError, match=r"divergence defect 2\.221e\+00 > 1e-10"):
            run(base_config(n=16), initial_state=State(0.0, compressible, theta))
        nan = SpectralVectorField.from_sample_stack(
            grid, np.full((2,) + grid.shape, np.nan)
        )
        with pytest.raises(ValueError, match="divergence defect nan"):
            run(base_config(n=16), initial_state=State(0.0, nan, theta))

    def test_stochastic_run_needs_stream(self):
        grid = Grid(2, 8)
        cfg = base_config(n=8, epsilon=0.1, noise=single_mode_noise(grid))
        with pytest.raises(ValueError, match="stochastic runs need a RandomStream"):
            run(cfg)

    @pytest.mark.parametrize("dimension", [2, 3])
    @pytest.mark.parametrize(
        "case",
        ["buoyancy", "cutoff_advection", "control", "multiplicative_noise",
         "galerkin", "spectral_rk2"],
    )
    def test_every_row_solenoidal(self, dimension, case):
        # every drift and noise term is Leray-projected: no row may lose it
        grid = Grid(dimension, 16 if dimension == 2 else 8)
        spec = default_qwiener(dimension, 4)
        fields = default_mode_fields(grid, spec)
        velocity = "zero" if case == "buoyancy" else "taylor_green"
        kw = dict(init=InitialCondition(velocity, temperature="random", seed=1))
        if case == "cutoff_advection":
            kw["cutoff_R"] = 1.0  # R < |grad u|_inf < 2R, checked below
        elif case == "control":
            kw["noise"] = NoiseModel(spec, additive_intensity(fields))
            kw["control"] = Control(np.array([0.0]), np.ones((1, 4)))
        elif case == "multiplicative_noise":
            intensity = NoiseIntensity("multiplicative", tuple(fields), 0.5, 0.3, 0.2)
            kw.update(noise=NoiseModel(spec, intensity), epsilon=0.5)
        elif case == "galerkin":
            kw["galerkin_modes"] = 2
        elif case == "spectral_rk2":
            kw["scheme"] = AdvectionScheme("spectral_rk2")
        cfg = SolverConfig(grid=grid, dt=0.01, t_end=0.05, **kw)
        rec = run(cfg, stream=RandomStream(2))
        assert not rec.blown_up and len(rec.rows) == 6
        if case == "cutoff_advection":
            assert all(0.0 < row.phi_value < 1.0 for row in rec.rows[1:])
        assert np.max(rec.column("div_defect")[1:]) <= 1e-10

    def test_reproducible(self):
        cfg = base_config(
            dt=5e-3,
            t_end=0.05,
            epsilon=0.3,
            noise=single_mode_noise(Grid(2, 32)),
            init=InitialCondition(velocity="random", temperature="random", seed=4),
        )
        a = run(cfg, stream=RandomStream(9))
        b = run(cfg, stream=RandomStream(9))
        assert np.array_equal(
            a.final_state.u.samples[0], b.final_state.u.samples[0]
        )

    def test_temperature_sup_nonincreasing(self):
        cfg = base_config(
            dt=5e-3,
            t_end=0.25,
            scheme=AdvectionScheme("semi_lagrangian", "linear"),
            init=InitialCondition(velocity="taylor_green", temperature="random", seed=1),
        )
        rec = run(cfg)
        sups = rec.column("linf_theta")
        assert all(a >= b for a, b in zip(sups, sups[1:]))

    def test_gradient_bound_with_cutoff(self):
        R = 0.7
        cfg = base_config(
            dt=5e-3,
            t_end=0.5,
            cutoff_R=R,
            init=InitialCondition(
                velocity="shear", temperature="sine", temperature_amplitude=1.0
            ),
        )
        rec = run(cfg)
        assert rec.rows[1].phi_value < 1.0  # engaged at t=0 (|grad u0| = 1 > R)
        g0 = rec.rows[0].linf_grad_theta
        for row in rec.rows[1:]:
            assert row.linf_grad_theta <= g0 * np.exp(2 * R * row.t) * 1.05

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_blow_up_recorded_not_raised(self):
        cfg = base_config(
            n=32,
            dt=0.5,
            t_end=5.0,
            scheme=AdvectionScheme("spectral_rk2"),
            init=InitialCondition(
                velocity="taylor_green", velocity_amplitude=8.0, temperature="random",
                temperature_amplitude=5.0, seed=2,
            ),
        )
        rec = run(cfg)
        assert rec.blown_up
        assert rec.stop_reason.startswith("blow_up:")
        assert rec.rows[-1].stop_flag == 1

    #: what every row holds, whatever its columns name
    STEP_INFO = {"t", "phi_value", "cfl", "cfl_violated", "div_defect", "stop_flag"}

    @staticmethod
    def recorded(values):
        """The columns of a table holding anything but their BLANK_ROW value."""
        blank = (values == BLANK_ROW) | (np.isnan(values) & np.isnan(BLANK_ROW))
        return {COLUMNS[j] for j in np.flatnonzero(~blank.all(axis=0))}

    @pytest.mark.parametrize("kind", ["tau_R", "gamma_R"])
    def test_rules_compute_their_columns(self, kind):
        # buoyancy from rest: grad u and the vorticity grow, so a rule at the
        # median of its watched sum fires mid-run
        cfg = base_config(n=16, init=InitialCondition(temperature="sine"))
        full = run(cfg)
        columns = StoppingRule(kind, 0.0).columns
        watched = sum(full.column(name) for name in columns)
        rule = StoppingRule(kind, float(np.median(watched)))
        first = int(np.argmax(watched > rule.threshold))
        assert first > 0
        rec = run(cfg, stopping_rules=[rule], columns=())
        assert rec.stop_reason == rule.describe()
        assert len(rec.values) == first + 1 == len(run(cfg, stopping_rules=[rule]).values)
        # gamma_R's integral also computes its integrand l2_grad_w (and h_h0,
        # which stays 0 without a control)
        own = set(columns) | ({"l2_grad_w"} if kind == "gamma_R" else set())
        assert own <= self.recorded(rec.values) <= own | self.STEP_INFO
        for name in own | self.STEP_INFO - {"stop_flag"}:
            assert rec.column(name).tobytes() == full.column(name)[: first + 1].tobytes()

    def test_unknown_column_refused(self):
        with pytest.raises(ValueError, match=r"unknown trajectory columns \['bogus'\]"):
            run(base_config(n=8), columns=("l2_u", "bogus"))

    def test_initial_phi_value(self):
        # |grad u0|_inf = sqrt(2) >= 2R: the initial cut-off is 0 when the
        # row computes linf_grad_u, NaN (unknown) when it does not, and 1
        # without a cut-off; later rows hold the step's phi either way
        cfg = base_config(n=16, cutoff_R=0.7, init=InitialCondition(velocity="taylor_green"))
        full = run(cfg)
        assert full.rows[0].phi_value == cutoff(full.rows[0].linf_grad_u, 0.7) == 0.0
        sup_only = run(cfg, columns=("linf_grad_u",))
        assert sup_only.rows[0].phi_value == 0.0
        bare = run(cfg, columns=())
        assert np.isnan(bare.rows[0].phi_value)
        assert bare.column("phi_value")[1:].tobytes() == full.column("phi_value")[1:].tobytes()
        uncut = dataclasses.replace(cfg, cutoff_R=0.0)
        assert run(uncut, columns=()).rows[0].phi_value == 1.0

    @staticmethod
    def controlled_noisy_config():
        """2D 16^2 with a control, noise and a cut-off: |grad u|_inf starts at
        sqrt(2) > 2R = 1.4 and falls below 2R, so phi leaves 0 at step three."""
        grid = Grid(2, 16)
        spec = default_qwiener(2, 3)
        return SolverConfig(
            grid=grid,
            dt=0.01,
            t_end=0.05,
            cutoff_R=0.7,
            epsilon=0.25,
            noise=NoiseModel(spec, additive_intensity(default_mode_fields(grid, spec))),
            control=Control([0.0, 0.02], [[1.5, 0.0, -0.5], [0.0, 2.0, 0.0]]),
            init=InitialCondition(velocity="taylor_green", temperature="sine"),
        )

    def test_light_rows_record_only_light_columns(self):
        # a light row names no column: it holds the step info only
        cfg = self.controlled_noisy_config()
        values = run(cfg, stream=RandomStream(5), columns=()).values
        assert {"t", "phi_value", "cfl", "div_defect"} <= self.recorded(values)
        assert self.recorded(values) <= self.STEP_INFO

    @pytest.mark.parametrize("every_column", [False, True])
    def test_unchanged_theta_columns_are_recomputed(self, every_column):
        # on the OU toy no step moves theta (u = 0, then phi = 0): every row's
        # theta columns equal what recomputing them from that theta gives
        from torusbq.spectral import parseval_l2
        from torusbq.transport import grad_sup

        grid = Grid(2, 8)
        cfg = SolverConfig(
            grid=grid,
            dt=0.0125,
            t_end=0.25,
            epsilon=0.01,
            cutoff_R=1e-12,
            noise=single_mode_noise(grid),
            init=InitialCondition(temperature="sine"),
        )
        states = []
        rec = run(
            cfg,
            stream=RandomStream(4),
            observers=[lambda state, row: states.append(state)],
            columns=COLUMNS if every_column else ("l2_theta",),
        )
        assert len(states) == cfg.n_steps + 1
        assert all(state.theta is states[0].theta for state in states)
        expect = {"l2_theta": lambda th: parseval_l2(grid, th.coefficients)}
        if every_column:
            expect["hs_theta"] = lambda th: sobolev_norm(th, cfg.s)
            expect["linf_grad_theta"] = grad_sup
            expect["linf_theta"] = lambda th: lp_norm(th, np.inf)
        for name, of in expect.items():
            assert list(rec.column(name)) == [of(state.theta) for state in states]

    def test_full_rows_leave_only_the_initial_defect_blank(self):
        rec = run(self.controlled_noisy_config(), stream=RandomStream(5))
        assert len(rec.values) == 6 and not rec.blown_up
        nan = np.argwhere(np.isnan(rec.values)).tolist()
        assert nan == [[0, COLUMNS.index("div_defect")]]

    def test_energy_residual_shear(self):
        dt = 0.01
        cfg = base_config(dt=dt, t_end=0.1, init=InitialCondition(velocity="shear"))
        rec = run(cfg)
        u0_sq = rec.rows[0].l2_u ** 2
        for row in rec.rows[1:]:
            assert abs(row.energy_residual) <= 3 * dt**2 * u0_sq

    def test_energy_residual_constant_mode_exact(self):
        cfg = base_config(
            dt=0.01,
            t_end=0.2,
            init=InitialCondition(temperature="constant", temperature_amplitude=1.0),
        )
        rec = run(cfg)
        assert np.max(np.abs(rec.column("energy_residual"))) < 1e-10

    def test_energy_identity_order(self):
        # total budget violation over [0, T] should shrink linearly in dt
        T = 0.2
        totals = []
        for dt in (2e-2, 1e-2, 5e-3):
            cfg = base_config(
                dt=dt,
                t_end=T,
                init=InitialCondition(
                    velocity="taylor_green", temperature="sine", seed=0
                ),
            )
            rec = run(cfg)
            totals.append(np.sum(np.abs(rec.column("energy_residual"))))
        slopes = [np.log2(a / b) for a, b in zip(totals, totals[1:])]
        assert all(s >= 0.8 for s in slopes)


class TestCutoffSemantics:
    def make_state(self, grid, scale):
        X, Y = grid.x_mesh
        u = SpectralVectorField.from_samples(
            grid, scale * np.sin(X) * np.cos(Y), -scale * np.cos(X) * np.sin(Y)
        )
        theta = SpectralScalarField.from_samples(grid, np.sin(X))
        return State(0.0, u, theta)

    def test_bit_identical_below_R(self):
        grid = Grid(2, 32)
        state = self.make_state(grid, 0.5)  # |grad u|_inf = 0.5
        noise = single_mode_noise(grid)
        kw = dict(dt=0.01, t_end=0.05, epsilon=0.4, noise=noise)
        rec_plain = run(
            SolverConfig(grid=grid, **kw), stream=RandomStream(5), initial_state=state
        )
        rec_cut = run(
            SolverConfig(grid=grid, cutoff_R=10.0, **kw),
            stream=RandomStream(5),
            initial_state=state,
        )
        assert np.array_equal(
            rec_plain.final_state.u.coefficients, rec_cut.final_state.u.coefficients
        )
        assert np.array_equal(
            rec_plain.final_state.theta.samples, rec_cut.final_state.theta.samples
        )

    def test_exact_zero_contributions_above_2R(self):
        grid = Grid(2, 32)
        state = self.make_state(grid, 1.0)  # |grad u|_inf = 1
        cfg = SolverConfig(grid=grid, dt=0.01, t_end=0.01, cutoff_R=0.3)
        new_state, info = step(state, cfg)
        assert info["phi"] == 0.0
        # temperature untouched, bitwise
        assert new_state.theta is state.theta
        # velocity step reduces to diffusion plus the buoyancy drift alone
        from torusbq.spectral import implicit_diffusion_solve, leray_project

        buoyancy = np.zeros((2,) + grid.shape, dtype=complex)
        buoyancy[-1] = state.theta.coefficients
        buoyancy = SpectralVectorField.from_coefficient_stack(grid, buoyancy)
        expect = implicit_diffusion_solve(
            state.u + 0.01 * leray_project(buoyancy), 0.01
        )
        assert np.array_equal(new_state.u.coefficients, expect.coefficients)


    @pytest.mark.parametrize("every_column", [False, True])
    @pytest.mark.parametrize("case", ["ou_toy", "decaying_taylor_green"])
    def test_phi_equals_cutoff_of_transformed_sup(self, monkeypatch, case, every_column):
        # phi settled by the Parseval RMS bound must be the cutoff of the sup
        # a fresh transform of the pre-step velocity gives
        import torusbq.solver as solver_module
        from torusbq.transport import velocity_grad_sup

        if case == "ou_toy":
            grid = Grid(2, 8)
            R = 1e-12
            kw = dict(dt=0.0125, t_end=0.25, epsilon=0.01)
            init = InitialCondition()
        else:
            # |grad u|_inf = sqrt(2) e^(-2t) and its grid RMS e^(-2t) fall
            # through 2R = 0.9: phi is 0, first by the RMS, then in (0, 1)
            grid = Grid(2, 16)
            R = 0.45
            kw = dict(dt=0.02, t_end=0.4, epsilon=1e-4)
            init = InitialCondition(velocity="taylor_green")
        cfg = SolverConfig(
            grid=grid, cutoff_R=R, noise=single_mode_noise(grid), init=init, **kw
        )
        sup_calls = [0]

        def counted(u):
            sup_calls[0] += 1
            return velocity_grad_sup(u)

        monkeypatch.setattr(solver_module, "velocity_grad_sup", counted)
        velocities = []
        rec = run(
            cfg,
            stream=RandomStream(4),
            observers=[lambda state, row: velocities.append(state.u)],
            columns=COLUMNS if every_column else (),
        )
        phis = rec.column("phi_value")[1:]
        expect = [
            cutoff(
                velocity_grad_sup(
                    SpectralVectorField.from_coefficient_stack(
                        grid, u.coefficients.copy()
                    )
                ),
                R,
            )
            for u in velocities[:-1]
        ]
        assert len(phis) == cfg.n_steps
        assert list(phis) == expect
        assert 0.0 in expect
        in_between = any(0.0 < phi < 1.0 for phi in expect)
        assert in_between == (case == "decaying_taylor_green")
        if not every_column:
            assert sup_calls[0] < cfg.n_steps  # the bound settled some steps


class TestGalerkin:
    def test_full_resolution_bit_identical(self):
        grid = Grid(2, 32)
        kw = dict(
            dt=5e-3,
            t_end=0.05,
            epsilon=0.5,
            noise=single_mode_noise(grid),
            init=InitialCondition(velocity="taylor_green", temperature="sine"),
        )
        a = run(SolverConfig(grid=grid, **kw), stream=RandomStream(3))
        b = run(
            SolverConfig(grid=grid, galerkin_modes=grid.n // 2, **kw),
            stream=RandomStream(3),
        )
        assert np.array_equal(
            a.final_state.u.coefficients, b.final_state.u.coefficients
        )

    def test_truncation_confines_modes(self):
        grid = Grid(2, 32)
        cfg = SolverConfig(
            grid=grid,
            dt=5e-3,
            t_end=0.1,
            galerkin_modes=2,
            init=InitialCondition(velocity="taylor_green", temperature="sine"),
        )
        rec = run(cfg)
        c = rec.final_state.u.coefficients[0]
        outside = c.copy()
        for kx in range(-2, 3):
            for ky in range(-2, 3):
                outside[grid.mode_index((kx, ky))] = 0.0
        assert np.max(np.abs(outside)) < 1e-14


class FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in-process."""

    max_workers = []

    def __init__(self, max_workers):
        FakePool.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return list(map(fn, *iterables))


class TestEnsemble:
    def test_single_path_matches(self):
        grid = Grid(2, 16)
        cfg = SolverConfig(
            grid=grid,
            dt=0.01,
            t_end=0.05,
            epsilon=0.2,
            noise=single_mode_noise(grid),
        )
        functionals = [lambda rec: rec.rows[-1].l2_u]
        table = run_ensemble(cfg, 1, master_seed=12, functionals=functionals)
        direct = run(cfg, stream=RandomStream(12, 0))
        assert table.shape == (1, 1) and table.dtype == np.float64
        assert table[0, 0] == direct.rows[-1].l2_u

    def test_parallel_bitwise_equal(self):
        grid = Grid(2, 8)
        cfg = SolverConfig(
            grid=grid,
            dt=0.01,
            t_end=0.05,
            epsilon=0.3,
            noise=single_mode_noise(grid),
            init=InitialCondition(velocity="taylor_green", temperature="sine"),
        )
        functionals = [FUNCTIONALS[name][0](cfg) for name in FUNCTIONALS]
        serial = run_ensemble(cfg, 9, 4, functionals)
        parallel = run_ensemble(cfg, 9, 4, functionals, n_jobs=2)
        assert serial.shape == (len(FUNCTIONALS), 9)
        assert np.array_equal(serial, parallel)

    def test_pool_workers_capped(self, monkeypatch):
        # a fake pool: no process is started whatever n_jobs asks for
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(FakePool, "max_workers", [])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        grid = Grid(2, 8)
        cfg = SolverConfig(
            grid=grid, dt=0.01, t_end=0.02, init=InitialCondition(velocity="shear")
        )
        functionals = [lambda rec: rec.rows[-1].l2_u, lambda rec: rec.rows[-1].t]
        serial = run_ensemble(cfg, 5, 0, functionals)
        # 5,000 jobs over 5 paths: one worker per path block, capped by the cores
        assert np.array_equal(run_ensemble(cfg, 5, 0, functionals, n_jobs=5000), serial)
        assert np.array_equal(run_ensemble(cfg, 5, 0, functionals, n_jobs=2), serial)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)))
        assert np.array_equal(run_ensemble(cfg, 5, 0, functionals, n_jobs=5000), serial)
        assert FakePool.max_workers == [3, 2, 5]

    def test_refuses_no_paths(self):
        cfg = SolverConfig(grid=Grid(2, 8), dt=0.01, t_end=0.02)
        with pytest.raises(ValueError, match="n_paths must be >= 1"):
            run_ensemble(cfg, 0, 0, [lambda rec: 0.0])

    @pytest.mark.parametrize("n_jobs", [0, -1])
    def test_refuses_fewer_than_one_job(self, n_jobs):
        cfg = SolverConfig(grid=Grid(2, 8), dt=0.01, t_end=0.02)
        with pytest.raises(ValueError, match="n_jobs must be >= 1"):
            run_ensemble(cfg, 3, 0, [lambda rec: 0.0], n_jobs=n_jobs)

    def test_deterministic_zero_variance(self):
        grid = Grid(2, 16)
        cfg = SolverConfig(
            grid=grid, dt=0.01, t_end=0.05, init=InitialCondition(velocity="shear")
        )
        (values,) = run_ensemble(
            cfg, 4, master_seed=0, functionals=[lambda rec: rec.rows[-1].l2_u]
        )
        assert np.all(values == values[0])

    def test_linearised_ou_variance(self):
        # tiny cut-off radius disables the nonlinearity as soon as u != 0;
        # each Fourier mode is then an independent OU recursion.  The same
        # closed form covers velocity and vorticity (the forcing mode
        # cos(x2) e1 has |curl| = |u| here).
        grid = Grid(2, 16)
        dt, T, eps = 0.01, 0.5, 1.0
        cfg = SolverConfig(
            grid=grid,
            dt=dt,
            t_end=T,
            epsilon=eps,
            cutoff_R=1e-12,
            noise=single_mode_noise(grid),
        )
        terminal_sq, terminal_w_sq = run_ensemble(
            cfg,
            1000,
            master_seed=77,
            functionals=[
                lambda rec: rec.rows[-1].l2_u ** 2,
                lambda rec: (
                    (2 * np.pi) ** 2
                    * np.sum(np.abs(perp_div_2d(rec.final_state.u).coefficients) ** 2)
                ),
            ],
            columns=("l2_u",),
        )
        # discrete OU recursion variance for the (0, 1) mode pair
        rho = 1.0 / (1.0 + dt)
        n = int(round(T / dt))
        var_coeff = eps * dt * rho**2 * (1 - rho ** (2 * n)) / (1 - rho**2)
        # |u|_{L^2}^2 = (2 pi)^2 * 2 * |c|^2 * X^2 with field X cos(x2):
        # coefficients at k=(0,±1) are X/2 each
        expect = (2 * np.pi) ** 2 * 0.5 * var_coeff
        assert abs(np.mean(terminal_sq) - expect) <= 0.1 * expect
        assert abs(np.mean(terminal_w_sq) - expect) <= 0.1 * expect


def test_build_initial_state_presets():
    grid = Grid(2, 16)
    for vel in ("zero", "shear", "taylor_green", "random"):
        for temp in ("zero", "constant", "sine", "random"):
            cfg = SolverConfig(
                grid=grid,
                dt=0.01,
                t_end=0.01,
                init=InitialCondition(velocity=vel, temperature=temp, seed=3),
            )
            state = build_initial_state(cfg)
            assert np.all(np.isfinite(state.u.samples[0]))
    with pytest.raises(ValueError):
        build_initial_state(
            SolverConfig(
                grid=grid, dt=0.01, t_end=0.01, init=InitialCondition(velocity="bogus")
            )
        )
