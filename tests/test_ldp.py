import numpy as np
import pytest

from torusbq.forcing import (
    QWienerSpec,
    RandomStream,
    additive_intensity,
    default_mode_fields,
    default_qwiener,
)
from torusbq.io import write_csv
from torusbq.ldp import (
    FUNCTIONALS,
    VARADHAN_COLUMNS,
    ControlFamily,
    RareEvent,
    control_cost,
    mc_rare_event,
    minimize_cost,
    solve_skeleton,
    varadhan_gap,
)
from torusbq.solver import (
    Control,
    InitialCondition,
    NoiseModel,
    SolverConfig,
    run,
)
from torusbq.spectral import Grid, SpectralVectorField, lp_norm
from torusbq.transport import AdvectionScheme


def toy_config(n=8, dt=0.0125, t_end=0.25, cutoff_R=1e-12, **kw):
    """Linearized single-mode configuration: each Fourier mode is OU."""
    grid = Grid(2, n)
    spec = QWienerSpec((((0, 1), "cos"),), np.array([1.0]))
    fields = [
        SpectralVectorField.from_samples(
            grid, np.cos(grid.x_mesh[1]), np.zeros(grid.shape)
        )
    ]
    noise = NoiseModel(spec, additive_intensity(fields))
    return SolverConfig(
        grid=grid, dt=dt, t_end=t_end, cutoff_R=cutoff_R, noise=noise, **kw
    )


def discrete_gramian(dt, n_steps, mu=1.0):
    """Terminal variance factor of the backward-Euler OU recursion."""
    rho = 1.0 / (1.0 + dt * mu)
    return dt * rho**2 * (1.0 - rho ** (2 * n_steps)) / (1.0 - rho**2)


def block_lq_optimum(a, dt, n_steps, n_blocks, mu=1.0):
    """Minimal 1/2 sum dt h^2 steering the discrete OU mode to a,
    over block-constant controls (Lagrange multiplier closed form)."""
    rho = 1.0 / (1.0 + dt * mu)
    weights = rho ** (n_steps - np.arange(n_steps))  # step j contributes dt*rho^{n-j}
    blocks = np.array_split(weights, n_blocks)
    c = np.array([dt * b.sum() for b in blocks])
    d = np.array([dt * len(b) for b in blocks])
    return a**2 / (2.0 * np.sum(c**2 / d))


class TestControlCost:
    def test_zero(self):
        spec = QWienerSpec((((0, 1), "cos"),), np.array([1.0]))
        assert control_cost(Control.zero(1), spec, 2.0) == 0.0

    def test_unit_control(self):
        spec = QWienerSpec((((0, 1), "cos"),), np.array([1.0]))
        h = Control(np.array([0.0]), np.array([[1.0]]))
        assert control_cost(h, spec, 2.0) == pytest.approx(1.0)

    def test_quadratic_scaling(self):
        spec = QWienerSpec((((0, 1), "cos"), ((1, 0), "sin")), np.array([1.0, 0.5]))
        h = Control(np.array([0.0, 0.5]), np.array([[1.0, 2.0], [0.5, -1.0]]))
        c1 = control_cost(h, spec, 1.0)
        h2 = Control(h.times, 2.0 * h.samples)
        assert control_cost(h2, spec, 1.0) == pytest.approx(4.0 * c1)

    def test_refinement_invariance(self):
        spec = QWienerSpec((((0, 1), "cos"),), np.array([1.0]))
        coarse = Control(np.array([0.0, 1.0]), np.array([[0.7], [-0.3]]))
        fine = Control(
            np.array([0.0, 0.5, 1.0, 1.5]),
            np.array([[0.7], [0.7], [-0.3], [-0.3]]),
        )
        assert control_cost(coarse, spec, 2.0) == pytest.approx(
            control_cost(fine, spec, 2.0)
        )

    def test_mode_subset_required(self):
        spec = QWienerSpec((((0, 1), "cos"),), np.array([1.0]))
        with pytest.raises(ValueError):
            control_cost(Control.zero(3), spec, 1.0)


class TestSkeleton:
    def test_zero_control_zero_data(self):
        cfg = toy_config()
        rec = solve_skeleton(cfg, Control.zero(1))
        assert lp_norm(rec.final_state.u, 2) == 0.0

    def test_constant_buoyancy(self):
        cfg = toy_config(
            cutoff_R=0.0,
            init=InitialCondition(temperature="constant", temperature_amplitude=1.0),
        )
        rec = solve_skeleton(cfg, None)
        assert abs(
            rec.final_state.u.coefficients[1][cfg.grid.mode_index((0, 0))] - cfg.t_end
        ) < 1e-10

    def test_linear_mode_closed_form(self):
        dt, T = 1e-3, 0.5
        cfg = toy_config(dt=dt, t_end=T)
        h = Control(np.array([0.0]), np.array([[1.0]]))
        rec = solve_skeleton(cfg, h)
        event_fn = RareEvent("terminal_mode_amplitude", 0.0).build(cfg)
        got = event_fn(rec)
        exact = 1.0 - np.exp(-T)
        assert abs(got - exact) <= 1e-3

    def test_requires_2d(self):
        grid = Grid(3, 8)
        cfg = SolverConfig(grid=grid, dt=0.01, t_end=0.05)
        with pytest.raises(ValueError):
            solve_skeleton(cfg, None)


def test_girsanov_linearity():
    # in the linearized configuration the controlled noisy run equals the
    # noisy run plus the deterministic response to h, path by path
    eps = 0.25
    h = Control(np.array([0.0]), np.array([[0.8]]))
    cfg_plain = toy_config()
    cfg_ctrl = toy_config(control=h)
    import dataclasses

    noisy_ctrl = run(
        dataclasses.replace(cfg_ctrl, epsilon=eps), stream=RandomStream(3)
    )
    noisy_plain = run(
        dataclasses.replace(cfg_plain, epsilon=eps), stream=RandomStream(3)
    )
    skeleton = solve_skeleton(cfg_ctrl, h)
    for i in range(2):
        lhs = noisy_ctrl.final_state.u.coefficients[i]
        rhs = (
            noisy_plain.final_state.u.coefficients[i]
            + skeleton.final_state.u.coefficients[i]
        )
        assert np.max(np.abs(lhs - rhs)) < 1e-10


class TestMcRareEvent:
    def test_needs_paths(self):
        cfg = toy_config()
        with pytest.raises(ValueError):
            mc_rare_event(cfg, RareEvent("terminal_l2_u", 1.0), 0.01, 50, 0)

    def test_deterministic_is_indicator(self):
        cfg = toy_config(
            cutoff_R=0.0,
            init=InitialCondition(temperature="constant", temperature_amplitude=1.0),
        )
        event_hit = RareEvent("terminal_l2_u", 0.1)
        event_miss = RareEvent("terminal_l2_u", 100.0)
        assert mc_rare_event(cfg, event_hit, 0.0, 100, 0)[0] == 1.0
        assert mc_rare_event(cfg, event_miss, 0.0, 100, 0)[0] == 0.0

    def test_threshold_below_deterministic_value(self):
        cfg = toy_config(
            cutoff_R=0.0,
            init=InitialCondition(temperature="constant", temperature_amplitude=1.0),
        )
        # deterministic terminal |u|_{L^2} is 2 pi t_end; tiny noise keeps it near
        event = RareEvent("terminal_l2_u", 0.5 * 2 * np.pi * cfg.t_end)
        p, _ = mc_rare_event(cfg, event, 1e-4, 200, 1)
        assert p == 1.0

    def test_ou_gaussian_tail(self):
        dt, T, eps = 0.0125, 0.25, 0.01
        cfg = toy_config(dt=dt, t_end=T)
        var1 = discrete_gramian(dt, int(round(T / dt)))
        a = 2.0 * np.sqrt(eps * var1)  # z = 2 => p ~ 0.0228
        event = RareEvent("terminal_mode_amplitude", a)
        p, (lo, hi) = mc_rare_event(cfg, event, eps, 2000, master_seed=5)
        from scipy.stats import norm

        exact = norm.sf(2.0)
        assert lo <= exact <= hi

    def test_parallel_bitwise_equal(self):
        cfg = toy_config()
        event = RareEvent("terminal_mode_amplitude", 0.05)
        serial = mc_rare_event(cfg, event, 0.04, 100, 3)
        assert 0.0 < serial[0] < 1.0
        assert mc_rare_event(cfg, event, 0.04, 100, 3, n_jobs=2) == serial

    def test_blown_up_paths_miss(self):
        # every path blows up in the temperature; the threshold is below any
        # finite value, so only scoring the last finite state would hit it
        grid = Grid(2, 16)
        spec = default_qwiener(2, 2)
        noise = NoiseModel(spec, additive_intensity(default_mode_fields(grid, spec)))
        init = InitialCondition("taylor_green", 8.0, "random", 5.0)
        scheme = AdvectionScheme("spectral_rk2")
        cfg = SolverConfig(grid, 0.5, 5.0, noise=noise, scheme=scheme, init=init)
        event = RareEvent("terminal_mode_amplitude", -1e300)
        with np.errstate(over="ignore", invalid="ignore"):
            assert mc_rare_event(cfg, event, 0.01, 100, 0)[0] == 0.0
            skeleton = solve_skeleton(cfg, Control.zero(2))
        assert skeleton.blown_up and np.isnan(event.build(cfg)(skeleton))

    def test_rule_of_three_on_zero(self):
        cfg = toy_config()
        event = RareEvent("terminal_mode_amplitude", 100.0)
        p, (lo, hi) = mc_rare_event(cfg, event, 1e-4, 100, 2)
        assert p == 0.0
        assert (lo, hi) == (0.0, 0.03)


class TestMinimizeCost:
    def test_zero_control_suffices(self):
        cfg = toy_config(
            cutoff_R=0.0,
            init=InitialCondition(temperature="constant", temperature_amplitude=1.0),
        )
        event = RareEvent("terminal_l2_u", 0.1)
        res = minimize_cost(event, ControlFamily(2), cfg)
        assert res.feasible
        assert res.cost == 0.0

    @pytest.mark.parametrize("direction, a", [("ge", 0.1), ("le", -0.1)])
    def test_matches_lq_oracle(self, direction, a):
        dt, T = 0.0125, 0.25
        n_blocks = 4
        cfg = toy_config(dt=dt, t_end=T)
        event = RareEvent("terminal_mode_amplitude", a, direction)
        res = minimize_cost(event, ControlFamily(n_blocks, box_bound=10.0), cfg)
        oracle = block_lq_optimum(a, dt, int(round(T / dt)), n_blocks)
        assert res.feasible
        assert event.realized(res.value)
        assert abs(res.cost - oracle) <= 0.02 * oracle
        assert res.n_evaluations < 200

    def test_doubling_target_quadruples_cost(self):
        dt, T = 0.0125, 0.25
        cfg = toy_config(dt=dt, t_end=T)
        costs = []
        for a in (0.05, 0.1):
            res = minimize_cost(
                RareEvent("terminal_mode_amplitude", a), ControlFamily(4), cfg
            )
            costs.append(res.cost)
        assert abs(costs[1] - 4.0 * costs[0]) <= 0.05 * costs[1]

    def test_infeasible_family(self):
        cfg = toy_config()
        event = RareEvent("terminal_mode_amplitude", 1e6)
        res = minimize_cost(event, ControlFamily(2, box_bound=0.5), cfg)
        assert not res.feasible
        assert res.control is None
        assert res.cost == np.inf
        assert res.n_evaluations <= 464


class TestVaradhan:
    def test_eps_list_validation(self):
        cfg = toy_config()
        with pytest.raises(ValueError):
            varadhan_gap(cfg, RareEvent("terminal_l2_u", 1.0), [0.01, 0.02], 100)

    def test_n_paths_checked_before_minimisation(self, monkeypatch):
        import torusbq.ldp as ldp_module

        solves = [0]

        def counted(*args, **kwargs):
            solves[0] += 1
            return solve_skeleton(*args, **kwargs)

        monkeypatch.setattr(ldp_module, "solve_skeleton", counted)
        event = RareEvent("terminal_mode_amplitude", 0.1, params={"mode_index": 0})
        with pytest.raises(ValueError, match="n_paths >= 100, got 50"):
            varadhan_gap(toy_config(), event, [0.04], 50, family=ControlFamily(2))
        assert solves[0] == 0

    def test_sure_event_rows(self, tmp_path):
        cfg = toy_config(
            cutoff_R=0.0,
            init=InitialCondition(temperature="constant", temperature_amplitude=1.0),
        )
        event = RareEvent("terminal_l2_u", 0.01)
        table = varadhan_gap(cfg, event, [1e-3, 1e-4], 100, master_seed=3)
        assert table.shape == (2, len(VARADHAN_COLUMNS))
        assert list(table[:, VARADHAN_COLUMNS.index("p_hat")]) == [1.0, 1.0]
        gaps = table[:, VARADHAN_COLUMNS.index("neg_eps_log_p")]
        assert list(gaps) == [0.0, 0.0]
        assert not np.any(np.signbit(gaps))  # 0, not -0
        out = tmp_path / "varadhan.csv"
        write_csv(VARADHAN_COLUMNS, table.tolist(), out)
        assert [line.split(",")[5] for line in out.read_text().splitlines()[1:]] == [
            "0",
            "0",
        ]

    def test_csv_columns(self, tmp_path):
        cfg = toy_config()
        event = RareEvent("terminal_mode_amplitude", 0.05)
        table = varadhan_gap(
            cfg, event, [0.04, 0.02], 100, family=ControlFamily(2), master_seed=7
        )
        out = tmp_path / "table.csv"
        write_csv(VARADHAN_COLUMNS, table.tolist(), out)
        header = out.read_text().splitlines()[0]
        assert header == "epsilon,n_paths,p_hat,ci_low,ci_high,neg_eps_log_p,best_cost"
        assert len(out.read_text().splitlines()) == 3


def test_event_validation():
    with pytest.raises(ValueError):
        RareEvent("bogus", 1.0)
    with pytest.raises(ValueError):
        RareEvent("terminal_l2_u", 1.0, direction="above")


@pytest.mark.parametrize("mode_index", [-1, 1])
def test_mode_index_outside_the_retained_modes(mode_index):
    cfg = toy_config()  # one retained mode
    event = RareEvent("terminal_mode_amplitude", 0.1, params={"mode_index": mode_index})
    with pytest.raises(ValueError, match=rf"mode_index {mode_index} outside \[0, 1\)"):
        event.build(cfg)


def test_functional_flags():
    """Only sup_linf_theta reads a column that light rows leave out."""
    assert {name: needs_full for name, (_, needs_full) in FUNCTIONALS.items()} == {
        "terminal_mode_amplitude": False,
        "terminal_l2_u": False,
        "sup_l2_u": False,
        "terminal_l2_theta": False,
        "sup_linf_theta": True,
    }


@pytest.mark.parametrize("name", sorted(FUNCTIONALS))
def test_light_row_flag(name):
    """A functional flagged light reads the same value from light rows as
    from full rows of the same path; one flagged full reads NaN from light
    rows, which is why it needs the full ones."""
    grid = Grid(2, 16)
    spec = default_qwiener(2, 3)
    cfg = SolverConfig(
        grid=grid,
        dt=0.01,
        t_end=0.1,
        cutoff_R=0.7,  # |grad u0|_inf = 1: phi starts inside (0, 1)
        epsilon=0.25,
        noise=NoiseModel(spec, additive_intensity(default_mode_fields(grid, spec))),
        init=InitialCondition(velocity="taylor_green", temperature="sine"),
    )
    builder, needs_full = FUNCTIONALS[name]
    functional = builder(cfg)
    full, light = (
        functional(run(cfg, stream=RandomStream(6), full_diagnostics=full_rows))
        for full_rows in (True, False)
    )
    assert np.isfinite(full)
    if needs_full:
        assert np.isnan(light)
    else:
        assert light == full
