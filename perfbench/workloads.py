"""The benchmark's workloads: inputs made from a seed, one main call, checks.

Each workload builds its inputs in `setup(seed, out_dir)`, runs one main call
per `call()` and checks every operation of it, and ends with `finish()` for
the checks that need the whole run.  Only `setup` imports torusbq, so the
runner can read the workload table without the library.

A step sample is the wall time one solver step takes as its caller sees it:
for the simulations the gap between successive `observers` callbacks of
`solver.run` (diagnostic row, energy residual and stopping rule included);
for the OU workloads the gap between successive calls of the event
functional, one per trajectory, divided by that trajectory's steps.
"""

from __future__ import annotations

import dataclasses
import math
import time
from pathlib import Path

CONFIGS = Path(__file__).resolve().parent / "configs"

#: Relative tolerance of the terminal values checked at the default seed.
REFERENCE_RTOL = 1e-8

#: A stopping-rule threshold no trajectory of these workloads reaches.
NEVER = 1e12


@dataclasses.dataclass
class CallResult:
    """One main call: its wall time, step samples and checked operations."""

    seconds: float
    step_ms: list
    attempted: int
    failed: int
    problems: list


# -- simulations --------------------------------------------------------------

#: StepRow fields every step must leave finite; the 2D-only vorticity rows
#: stay NaN in 3D.
FINITE_FIELDS = (
    "l2_u", "hs_u", "hs1_u", "hs_theta", "linf_grad_u", "linf_grad_theta",
    "linf_theta", "l2_theta", "phi_value", "energy_residual", "div_defect", "cfl",
)
FINITE_FIELDS_2D = ("l2_w", "l4_w", "l2_grad_w", "l4_grad_w")
TERMINAL_FIELDS = ("l2_u", "hs_u", "l2_theta", "linf_theta")


#: Wrapped functions (tracer span names) each kind of workload must call.
_CORE = (
    "spectral.leray_project", "spectral.implicit_diffusion_solve",
    "spectral.divergence_defect", "transport.advect", "transport.velocity_grad_sup",
    "transport.cfl_number", "forcing.weighted_sum", "solver.step",
    "solver.momentum_rhs", "solver.run",
)
_NOISE = ("forcing.sample_increment", "forcing.apply_noise")


class Simulation:
    """`solver.run` on an INI config, with full diagnostics and output files."""

    traced = _CORE + _NOISE + (
        "diagnostics.StoppingRule.fires", "io.parse_config",
        "io.write_timeseries", "io.write_snapshot",
    )

    def __init__(self, name, why, config_file, rule_kind, reference):
        self.name = name
        self.why = why
        self.config_file = config_file
        self.rule_kind = rule_kind
        self.reference = reference  # terminal TERMINAL_FIELDS at seed 0

    def setup(self, seed, out_dir):
        from torusbq import diagnostics, forcing, io, solver

        self.io, self.solver, self.forcing = io, solver, forcing
        config, _ = io.parse_config(CONFIGS / self.config_file)
        self.config = dataclasses.replace(
            config, init=dataclasses.replace(config.init, seed=seed)
        )
        self.initial = solver.build_initial_state(self.config)
        self.rule = diagnostics.StoppingRule(self.rule_kind, NEVER)
        self.seed = seed
        self.out_dir = out_dir
        self.terminals = []
        self.finite = FINITE_FIELDS + (
            FINITE_FIELDS_2D if self.config.grid.dimension == 2 else ()
        )

    def call(self) -> CallResult:
        stamps = []
        problems = []
        failed = 0

        def observe(state, row):
            nonlocal failed
            stamps.append(time.perf_counter())
            if len(stamps) == 1:
                return  # the initial row precedes the first step
            before = len(problems)
            where = f"step {len(stamps) - 1} (t={row.t:.4g})"
            bad = [f for f in self.finite if not math.isfinite(getattr(row, f))]
            if bad:
                problems.append(f"{where}: non-finite {', '.join(bad)}")
            if row.div_defect > 1e-10:
                problems.append(f"{where}: div_defect {row.div_defect:.3g} > 1e-10")
            if row.cfl_violated:
                problems.append(f"{where}: cfl {row.cfl:.3g} over the cap")
            if row.phi_value != 1.0:
                problems.append(f"{where}: phi {row.phi_value!r} != 1")
            failed += len(problems) > before

        start = time.perf_counter()
        record = self.solver.run(
            self.config,
            stream=self.forcing.RandomStream(self.seed),
            observers=[observe],
            stopping_rules=[self.rule],
            initial_state=self.initial,
        )
        self.io.write_timeseries(record, self.out_dir / "timeseries.csv")
        self.io.write_snapshot(record.final_state, self.out_dir / "state_final.bqsf")
        seconds = time.perf_counter() - start

        n_steps = self.config.n_steps
        missing = n_steps - (len(stamps) - 1)
        if missing:
            problems.append(f"{missing} steps not taken (stop: {record.stop_reason})")
        self.terminals.append(tuple(getattr(record.rows[-1], f) for f in TERMINAL_FIELDS))
        return CallResult(
            seconds,
            [1e3 * (b - a) for a, b in zip(stamps, stamps[1:])],
            n_steps,
            failed + missing,
            problems,
        )

    def exact_calls(self) -> dict:
        """Span counts the calls made so far must have produced exactly."""
        calls = len(self.terminals)
        return {"solver.run": calls, "solver.step": calls * self.config.n_steps}

    def finish(self) -> list:
        problems = []
        if len(set(self.terminals)) > 1:
            problems.append("repeated calls at one seed gave different terminal rows")
        if self.seed == 0:
            for field, want, got in zip(TERMINAL_FIELDS, self.reference, self.terminals[0]):
                if not abs(got - want) <= REFERENCE_RTOL * abs(want):
                    problems.append(
                        f"terminal {field} {got!r} differs from reference {want!r} "
                        f"by {abs(got - want) / abs(want):.3g} (rtol {REFERENCE_RTOL:g})"
                    )
        return problems


# -- the OU toy -----------------------------------------------------------------

OU_DT = 0.0125
OU_T_END = 0.25


def ou_toy_config():
    """8^2 grid, one additive cos(x_2) e_1 mode; each Fourier mode is OU.

    With cutoff_R = 1e-12 the cut-off switches the nonlinearity off once the
    velocity is nonzero, so the driven mode is an exact linear recursion.
    """
    import numpy as np

    from torusbq.forcing import QWienerSpec, additive_intensity
    from torusbq.solver import NoiseModel, SolverConfig
    from torusbq.spectral import Grid, SpectralVectorField

    grid = Grid(2, 8)
    spec = QWienerSpec((((0, 1), "cos"),), np.array([1.0]))
    fields = [
        SpectralVectorField.from_samples(grid, np.cos(grid.x_mesh[1]), np.zeros(grid.shape))
    ]
    noise = NoiseModel(spec, additive_intensity(fields))
    return SolverConfig(grid=grid, dt=OU_DT, t_end=OU_T_END, cutoff_R=1e-12, noise=noise)


def discrete_gramian(dt, n_steps, mu=1.0):
    """Terminal variance factor of the backward-Euler OU recursion."""
    rho = 1.0 / (1.0 + dt * mu)
    return dt * rho**2 * (1.0 - rho ** (2 * n_steps)) / (1.0 - rho**2)


def block_lq_optimum(a, dt, n_steps, n_blocks, mu=1.0):
    """Least 1/2 sum dt h^2 steering the discrete OU mode to a with
    block-constant controls (Lagrange multiplier closed form)."""
    import numpy as np

    rho = 1.0 / (1.0 + dt * mu)
    weights = rho ** (n_steps - np.arange(n_steps))
    blocks = np.array_split(weights, n_blocks)
    c = np.array([dt * b.sum() for b in blocks])
    d = np.array([dt * len(b) for b in blocks])
    return a**2 / (2.0 * np.sum(c**2 / d))


class CallbackClock:
    """Times the gaps between event-functional callbacks, one per trajectory,
    and counts the blown-up trajectories, from one `start` to the next."""

    def start(self):
        self.last = time.perf_counter()
        self.step_ms = []
        self.blown_up = 0

    def tick(self, record):
        now = time.perf_counter()
        steps = len(record.rows) - 1
        if steps > 0:
            self.step_ms.append(1e3 * (now - self.last) / steps)
        self.last = now
        self.blown_up += bool(record.blown_up)


#: Registry name of the timed copy of terminal_mode_amplitude.
TIMED_FUNCTIONAL = "perfbench_timed_terminal_mode_amplitude"


def timed_event(clock, threshold):
    """RareEvent on terminal_mode_amplitude whose functional ticks `clock`.

    The copy is registered in ldp.FUNCTIONALS next to the original; it returns
    the same values and keeps the original's light-row setting.
    """
    from torusbq import ldp

    make_original, full_rows = ldp.FUNCTIONALS["terminal_mode_amplitude"]

    def build(config, **params):
        inner = make_original(config, **params)

        def functional(record):
            clock.tick(record)
            return inner(record)

        return functional

    ldp.FUNCTIONALS[TIMED_FUNCTIONAL] = (build, full_rows)
    return ldp.RareEvent(TIMED_FUNCTIONAL, threshold)


class McOu:
    """`ldp.mc_rare_event` on the OU toy; exact p = norm.sf(2)."""

    epsilon = 0.01
    paths_per_call = 200
    traced = _CORE + _NOISE + ("solver.run_ensemble", "ldp.mc_rare_event")

    def __init__(self, name, why):
        self.name = name
        self.why = why

    def setup(self, seed, out_dir):
        from scipy.stats import norm

        from torusbq import ldp

        self.ldp = ldp
        self.config = ou_toy_config()
        var1 = discrete_gramian(OU_DT, self.config.n_steps)
        self.clock = CallbackClock()
        self.event = timed_event(self.clock, 2.0 * math.sqrt(self.epsilon * var1))
        self.exact = float(norm.sf(2.0))
        self.seed = seed
        self.hits = 0
        self.paths = 0

    def call(self) -> CallResult:
        # every call draws fresh paths: master seeds seed*10000, seed*10000+1, ...
        master_seed = self.seed * 10_000 + self.paths // self.paths_per_call
        self.clock.start()
        start = time.perf_counter()
        p_hat, _ = self.ldp.mc_rare_event(
            self.config, self.event, self.epsilon, self.paths_per_call, master_seed, n_jobs=1
        )
        seconds = time.perf_counter() - start
        self.hits += round(p_hat * self.paths_per_call)
        self.paths += self.paths_per_call
        blown = self.clock.blown_up
        problems = [f"master seed {master_seed}: {blown} paths blew up"] if blown else []
        return CallResult(seconds, self.clock.step_ms, self.paths_per_call, blown, problems)

    def exact_calls(self) -> dict:
        return {
            "solver.run": self.paths,
            "ldp.mc_rare_event": self.paths // self.paths_per_call,
        }

    def finish(self) -> list:
        p_hat = self.hits / self.paths
        bound = 4.0 * math.sqrt(self.exact * (1.0 - self.exact) / self.paths)
        if abs(p_hat - self.exact) > bound:
            return [
                f"p_hat {p_hat:.5f} over {self.paths} paths is {abs(p_hat - self.exact):.5f} "
                f"from norm.sf(2) = {self.exact:.5f}; allowed {bound:.5f}"
            ]
        return []


class LdpOu:
    """`ldp.minimize_cost` on the OU toy, checked against the block LQ optimum."""

    threshold = 0.1
    n_blocks = 4
    box_bound = 10.0
    cost_rtol = 0.02
    traced = _CORE + ("ldp.solve_skeleton", "ldp.minimize_cost")

    def __init__(self, name, why):
        self.name = name
        self.why = why

    def setup(self, seed, out_dir):
        from torusbq import ldp

        self.ldp = ldp
        self.config = ou_toy_config()
        self.clock = CallbackClock()
        self.event = timed_event(self.clock, self.threshold)
        self.family = ldp.ControlFamily(self.n_blocks, box_bound=self.box_bound)
        self.oracle = block_lq_optimum(
            self.threshold, OU_DT, self.config.n_steps, self.n_blocks
        )
        self.seed = seed
        self.results = []

    def call(self) -> CallResult:
        self.clock.start()
        start = time.perf_counter()
        result = self.ldp.minimize_cost(self.event, self.family, self.config, seed=self.seed)
        seconds = time.perf_counter() - start
        self.results.append(result)
        problems = []
        if not result.feasible:
            problems.append(f"seed {self.seed}: no feasible control found")
        elif abs(result.cost - self.oracle) > self.cost_rtol * self.oracle:
            problems.append(
                f"seed {self.seed}: cost {result.cost:.6g} is "
                f"{abs(result.cost - self.oracle) / self.oracle:.3g} from the LQ optimum "
                f"{self.oracle:.6g} (allowed {self.cost_rtol})"
            )
        return CallResult(seconds, self.clock.step_ms, 1, bool(problems), problems)

    def exact_calls(self) -> dict:
        return {
            "ldp.solve_skeleton": sum(r.n_evaluations for r in self.results),
            "ldp.minimize_cost": len(self.results),
        }

    def finish(self) -> list:
        return []


WORKLOADS = {
    w.name: w
    for w in (
        Simulation(
            "sim2d-cutoff-128",
            "only workload with 2D vorticity rows and the energy residual (~30% of a "
            "step); cut-off grad u ~20% and SL transport ~33%, so spectral, grad-u-once "
            "and row changes show",
            "sim2d-cutoff-128.ini",
            "gamma_R",
            reference=(1.7674915762142143, 2.184011702141849, 2.018922042633921,
                       0.9988946212007789),
        ),
        Simulation(
            "sim3d-32",
            "SL transport is ~59% of a 3D step and diagnostics a minority, so a "
            "transport change shows most here and a diagnostics change least",
            "sim3d-32.ini",
            "tau_R",
            reference=(2.0019684502968897, 15.64712184076674, 3.5468661186522117,
                       1.0033108334820784),
        ),
        McOu(
            "mc-ou",
            "per-step Python overhead dominates: noise draw + apply_noise ~25%, cut-off "
            "grad u ~25%; transport and full rows bypassed (predict no change); a batch "
            "axis shows here",
        ),
        LdpOu(
            "ldp-ou",
            "cost is skeleton solves x cost per solve (3,751 solves at seed 0); forcing "
            "enters as a control drift via weighted_sum; transport bypassed",
        ),
    )
}
