"""Semi-implicit Euler-Maruyama stepper for buoyancy-coupled incompressible flow.

One stepper covers the whole family: the full stochastic system, its cut-off
truncation (a smooth [0,1] factor phi_R(|grad u|_inf) multiplying both the
momentum nonlinearity and the advecting velocity), the mode-truncated
Galerkin variant, the controlled system (a deterministic drift P f h replacing
or accompanying the noise), and the noiseless skeleton (epsilon = 0).

Per step, with A the Stokes operator and P the Leray projector:

    u'     = (I + dt nu A)^{-1} (u + dt drift + sqrt(eps) P f dW)
    drift  = -phi P (u.grad u) + P (theta e_d) + P f h(t)
    theta' = advect(theta, phi * u, dt)

Diffusion is implicit (unconditionally stable per mode), everything else
explicit, noise evaluated at the pre-step state (Ito convention).  The
cut-off argument |grad u|_inf is frozen once per step, so stepping is
bit-identical to the untruncated scheme while phi = 1 and the nonlinear and
advective contributions vanish exactly once phi = 0.

grad u is computed once per state (spectral.gradient_summary, cached on the
velocity field): the diagnostic row's |grad u|_inf, the next step's cut-off
and that step's (u . grad) u all read the same transform.  A step whose
state has no cached summary first bounds |grad u|_inf from below by the
grid RMS of grad u, which Parseval gives from the coefficients; once that
RMS reaches 2R, phi = 0 exactly (the sup is at least the RMS) and grad u is
never transformed.  Light-row runs whose velocity gradient sits past 2R
step that way.

Solenoidality is checked once per run, on the initial velocity: every term
added to u is Leray-projected, so step only reports each new velocity's
defect.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .forcing import (
    NoiseModel,
    RandomStream,
    apply_noise,
    sample_increment,
    weighted_sum,
)
from .spectral import (
    DIV_FREE_RTOL,
    Grid,
    SpectralScalarField,
    SpectralVectorField,
    SOBOLEV_INDEX_CAP,
    dealias,
    divergence_defect,
    galerkin_project,
    gradient,
    grad_rms_reaches,
    gradient_summary,
    implicit_diffusion_solve,
    leray_project,
    lp_norm,
    parseval_grad_l2,
    parseval_inner,
    parseval_l2,
    perp_div_2d,
    sobolev_norm,
)
from .transport import AdvectionScheme, advect, cfl_number, grad_sup, velocity_grad_sup


class BlowUpError(RuntimeError):
    """A step produced non-finite values; carries the offending diagnostic."""

    def __init__(self, diagnostic: str, t: float):
        super().__init__(f"numerical blow-up in {diagnostic} at t={t:.6g}")
        self.diagnostic = diagnostic
        self.t = t


@dataclass
class State:
    """Divergence-free velocity plus transported temperature at time t."""

    t: float
    u: SpectralVectorField
    theta: SpectralScalarField


@dataclass
class Control:
    """Piecewise-constant H0-valued control h(t).

    times: increasing node times; samples[j] holds the H0 coordinates (one per
    retained noise mode) on [times[j], times[j+1]), the last block extending
    to infinity.
    """

    times: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if self.times.ndim != 1 or len(self.times) == 0:
            raise ValueError("control needs at least one time node")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("control time nodes must be strictly increasing")
        if self.samples.shape[0] != len(self.times):
            raise ValueError(
                f"control has {len(self.times)} time nodes but "
                f"{self.samples.shape[0]} sample rows"
            )

    @property
    def n_modes(self) -> int:
        return self.samples.shape[1]

    def value_at(self, t: float) -> np.ndarray:
        idx = int(np.searchsorted(self.times, t + 1e-12, side="right")) - 1
        return self.samples[max(idx, 0)]

    @classmethod
    def zero(cls, n_modes: int) -> "Control":
        return cls(np.array([0.0]), np.zeros((1, n_modes)))


@dataclass
class InitialCondition:
    """Named initial-data presets (resolved by build_initial_state)."""

    velocity: str = "zero"
    velocity_amplitude: float = 1.0
    temperature: str = "zero"
    temperature_amplitude: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.velocity not in ("zero", "shear", "taylor_green", "random"):
            raise ValueError(f"unknown velocity preset {self.velocity!r}")
        if self.temperature not in ("zero", "constant", "sine", "random"):
            raise ValueError(f"unknown temperature preset {self.temperature!r}")


@dataclass
class SolverConfig:
    """Everything one trajectory needs; immutable once runs begin.

    cutoff_R = 0 disables the cut-off (phi identically 1); galerkin_modes
    absent means full resolution; epsilon scales the noise as sqrt(epsilon).
    """

    grid: Grid
    dt: float
    t_end: float
    s: Optional[int] = None
    cutoff_R: float = 0.0
    galerkin_modes: Optional[int] = None
    epsilon: float = 0.0
    viscosity: float = 1.0
    noise: Optional[NoiseModel] = None
    control: Optional[Control] = None
    scheme: AdvectionScheme = dataclass_field(default_factory=AdvectionScheme)
    cfl_cap: float = 1.0
    init: InitialCondition = dataclass_field(default_factory=InitialCondition)

    def __post_init__(self):
        g = self.grid
        if self.s is None:
            self.s = math.ceil(g.dimension / 2 + 2)
        if not 0 <= self.s <= SOBOLEV_INDEX_CAP:
            raise ValueError(f"sobolev index {self.s} outside [0, {SOBOLEV_INDEX_CAP}]")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_end < 0:
            raise ValueError(f"t_end must be nonnegative, got {self.t_end}")
        if self.t_end > 0:
            if self.dt > self.t_end * (1 + 1e-12):
                raise ValueError(f"dt={self.dt} exceeds t_end={self.t_end}")
            steps = self.t_end / self.dt
            if abs(steps - round(steps)) > 1e-8 * max(1.0, steps):
                raise ValueError(
                    f"t_end={self.t_end} is not an integer multiple of dt={self.dt}"
                )
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if self.cutoff_R < 0:
            raise ValueError(f"cutoff_R must be nonnegative, got {self.cutoff_R}")
        if self.viscosity <= 0:
            raise ValueError(f"viscosity must be positive, got {self.viscosity}")
        if self.galerkin_modes is not None and not (
            1 <= self.galerkin_modes <= g.n // 2
        ):
            raise ValueError(
                f"galerkin_modes must lie in [1, {g.n // 2}], got {self.galerkin_modes}"
            )
        if self.epsilon > 0 and self.noise is None:
            raise ValueError("epsilon > 0 requires an active noise model")
        if self.control is not None:
            if self.noise is None:
                raise ValueError("a control needs the noise model defining f")
            if self.control.n_modes != self.noise.spec.truncation:
                raise ValueError(
                    "control coordinates do not match the retained noise modes"
                )
            if self.control.times[0] > 1e-12 or self.control.times[-1] > self.t_end + 1e-12:
                raise ValueError("control time grid must cover [0, t_end]")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt)) if self.t_end > 0 else 0


def cutoff(x: float, R: float) -> float:
    """Smooth partition-of-unity cut-off: exactly 1 for x <= R, 0 for x >= 2R.

    phi_R(x) = g((2R-x)/R) / (g((2R-x)/R) + g((x-R)/R)) with g(t) = exp(-1/t)
    for t > 0, else 0; monotone nonincreasing with phi_R(1.5 R) = 1/2.
    """
    if R <= 0:
        raise ValueError(f"cut-off radius must be positive, got {R}")
    if x <= R:
        return 1.0
    if x >= 2.0 * R:
        return 0.0
    a = math.exp(-R / (2.0 * R - x))
    b = math.exp(-R / (x - R))
    return a / (a + b)


def _advection_term(u: SpectralVectorField) -> SpectralVectorField:
    """(u . grad) u, pseudo-spectral with 2/3 dealiasing of the products."""
    advection = gradient_summary(u).advection
    return dealias(SpectralVectorField.from_sample_stack(u.grid, advection))


def _buoyancy_term(theta: SpectralScalarField) -> SpectralVectorField:
    grid = theta.grid
    c = theta.coefficients
    if not np.any(c):
        return SpectralVectorField.zero(grid)
    stack = np.zeros((grid.dimension,) + grid.shape, dtype=np.complex128)
    stack[-1] = c
    return leray_project(SpectralVectorField.from_coefficient_stack(grid, stack))


def momentum_rhs(state: State, config: SolverConfig):
    """Explicit momentum drift and the cut-off value used for this step.

    drift = -phi P(u.grad u) + P(theta e_d) + P f h(t), each term Galerkin
    projected when a mode truncation is configured.  The nonlinearity is
    skipped entirely when phi = 0, making its contribution exactly zero.

    phi = 0 is settled without transforming grad u when u has no cached
    gradient summary and the grid RMS of grad u already reaches 2R
    (spectral.grad_rms_reaches): the sup is at least the RMS, so
    cutoff(|grad u|_inf, R) would return exactly 0.0 too.
    """
    u, theta = state.u, state.theta
    R = config.cutoff_R
    if R <= 0:
        phi = 1.0
    elif grad_rms_reaches(u, 2.0 * R):
        phi = 0.0
    else:
        phi = cutoff(velocity_grad_sup(u), R)
    drift = _buoyancy_term(theta)
    if config.control is not None:
        h = config.control.value_at(state.t)
        drift = drift + weighted_sum(config.noise, u, theta, h)
    if phi != 0.0:
        drift = drift - phi * leray_project(_advection_term(u))
    if config.galerkin_modes is not None:
        drift = galerkin_project(drift, config.galerkin_modes)
    return drift, phi


def step(
    state: State,
    config: SolverConfig,
    stream: Optional[RandomStream] = None,
    step_index: int = 0,
):
    """Advance one step; returns (new state, info dict).

    info carries phi, the CFL number of the advecting velocity, and the
    divergence defect of the updated velocity (reported, never corrected).
    """
    dt = config.dt
    drift, phi = momentum_rhs(state, config)
    # transport first: it reads only the old state, and runs before the
    # velocity update's temporaries exist, which keeps the peak memory down
    if phi == 0.0:
        theta_new = state.theta
        cfl = 0.0
    else:
        u_adv = state.u if phi == 1.0 else phi * state.u
        cfl = cfl_number(u_adv, dt)
        theta_new = advect(state.theta, u_adv, dt, config.scheme)

    pre = state.u + dt * drift
    if config.epsilon > 0:
        inc = sample_increment(config.noise.spec, dt, stream, step_index)
        forcing = apply_noise(config.noise, state.u, state.theta, inc)
        if config.galerkin_modes is not None:
            forcing = galerkin_project(forcing, config.galerkin_modes)
        pre = pre + math.sqrt(config.epsilon) * forcing
    u_new = implicit_diffusion_solve(pre, dt, config.viscosity)

    finite = np.isfinite(u_new.coefficients)
    if not finite.all():
        per_component = finite.reshape(config.grid.dimension, -1).all(axis=1)
        first_bad = int(np.argmin(per_component))
        raise BlowUpError(f"velocity component {first_bad + 1}", state.t + dt)
    if not np.all(np.isfinite(theta_new.samples)):
        raise BlowUpError("temperature", state.t + dt)
    info = {
        "phi": phi,
        "cfl": cfl,
        "div_defect": divergence_defect(u_new),
    }
    return State(state.t + dt, u_new, theta_new), info


# -- trajectory records -------------------------------------------------------

#: Column order of the time-series CSV (io module writes exactly these).
CSV_COLUMNS = (
    "t",
    "l2_u",
    "hs_u",
    "hs1_u",
    "hs_theta",
    "linf_grad_u",
    "linf_grad_theta",
    "linf_theta",
    "l2_w",
    "l4_grad_w",
    "phi_value",
    "energy_residual",
    "stop_flag",
)


@dataclass
class StepRow:
    """Per-step diagnostics; CSV_COLUMNS names the serialised subset."""

    t: float
    l2_u: float = np.nan
    hs_u: float = np.nan
    hs1_u: float = np.nan
    hs_theta: float = np.nan
    linf_grad_u: float = np.nan
    linf_grad_theta: float = np.nan
    linf_theta: float = np.nan
    l2_w: float = np.nan
    l4_grad_w: float = np.nan
    phi_value: float = 1.0
    energy_residual: float = 0.0
    stop_flag: int = 0
    # extras outside the CSV contract
    l2_theta: float = np.nan
    l4_w: float = np.nan
    l2_grad_w: float = np.nan
    div_defect: float = np.nan
    h_h0: float = 0.0
    cfl: float = 0.0
    cfl_violated: bool = False


@dataclass
class TrajectoryRecord:
    """Rows of per-step diagnostics plus the run outcome."""

    dt: float
    rows: list = dataclass_field(default_factory=list)
    stop_reason: Optional[str] = None
    blown_up: bool = False
    final_state: Optional[State] = None
    epsilon: float = 0.0

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(row, name) for row in self.rows], dtype=np.float64)

    @property
    def times(self) -> np.ndarray:
        return self.column("t")


def _diagnostic_row(state: State, config: SolverConfig, full: bool) -> StepRow:
    u, theta = state.u, state.theta
    row = StepRow(t=state.t)
    g = u.grid
    row.l2_u = parseval_l2(g, u.coefficients)
    row.l2_theta = parseval_l2(g, theta.coefficients)
    if config.control is not None:
        row.h_h0 = float(np.linalg.norm(config.control.value_at(state.t)))
    if not full:
        # light rows keep only what stepping itself produces; phi for
        # post-step rows is filled in from the step info by run()
        return row
    row.linf_grad_u = velocity_grad_sup(u)
    if config.cutoff_R > 0:
        row.phi_value = cutoff(row.linf_grad_u, config.cutoff_R)
    s = config.s
    row.hs_u = sobolev_norm(u, s)
    row.hs1_u = sobolev_norm(u, min(s + 1, SOBOLEV_INDEX_CAP))
    row.hs_theta = sobolev_norm(theta, s)
    row.linf_grad_theta = grad_sup(theta)
    row.linf_theta = lp_norm(theta, np.inf)
    if g.dimension == 2:
        w = perp_div_2d(u)
        row.l2_w = parseval_l2(g, w.coefficients)
        row.l4_w = lp_norm(w, 4)
        grad_w = gradient(w)
        row.l2_grad_w = parseval_l2(g, grad_w.coefficients)
        row.l4_grad_w = lp_norm(grad_w, 4)
    return row


def _energy_residual(prev: State, new: State, config: SolverConfig) -> float:
    """Trapezoid residual of d|u|^2 + 2 nu |grad u|^2 dt = 2 (theta e_d, u) dt.

    The buoyancy work (P theta e_d, u_mid) is taken as (theta e_d, u_mid):
    P is self-adjoint and both velocities are solenoidal, so P u_mid = u_mid
    and the step's buoyancy term need not be projected again here.
    """
    dt, g = config.dt, config.grid
    c0, c1 = prev.u.coefficients, new.u.coefficients
    mid_grad_sq = 0.5 * (parseval_grad_l2(g, c0) ** 2 + parseval_grad_l2(g, c1) ** 2)
    theta = prev.theta.coefficients
    work = 0.5 * (parseval_inner(g, theta, c0[-1]) + parseval_inner(g, theta, c1[-1]))
    return (
        parseval_l2(g, c1) ** 2
        - parseval_l2(g, c0) ** 2
        + 2.0 * dt * config.viscosity * mid_grad_sq
        - 2.0 * dt * work
    )


def build_initial_state(config: SolverConfig) -> State:
    """Resolve the configured named initial data into a State at t = 0."""
    grid = config.grid
    init = config.init
    mesh = grid.x_mesh
    amp = init.velocity_amplitude
    rng = np.random.default_rng(init.seed)

    kind = init.velocity
    if kind == "zero":
        u = SpectralVectorField.zero(grid)
    elif kind == "shear":
        comps = [amp * np.sin(mesh[-1])] + [np.zeros(grid.shape)] * (grid.dimension - 1)
        u = SpectralVectorField.from_samples(grid, *comps)
    elif kind == "taylor_green":
        if grid.dimension == 2:
            u = SpectralVectorField.from_samples(
                grid,
                amp * np.sin(mesh[0]) * np.cos(mesh[1]),
                -amp * np.cos(mesh[0]) * np.sin(mesh[1]),
            )
        else:
            u = SpectralVectorField.from_samples(
                grid,
                amp * np.sin(mesh[0]) * np.cos(mesh[1]) * np.cos(mesh[2]),
                -amp * np.cos(mesh[0]) * np.sin(mesh[1]) * np.cos(mesh[2]),
                np.zeros(grid.shape),
            )
    else:  # random
        raw = SpectralVectorField.from_samples(
            grid, *[rng.standard_normal(grid.shape) for _ in range(grid.dimension)]
        )
        u = leray_project(galerkin_project(raw, min(grid.n // 3, 8)))
        sup = lp_norm(u, np.inf)
        if sup > 0:
            u = (amp / sup) * u

    kind = init.temperature
    amp = init.temperature_amplitude
    if kind == "zero":
        theta = SpectralScalarField.zero(grid)
    elif kind == "constant":
        theta = SpectralScalarField.from_samples(grid, np.full(grid.shape, amp))
    elif kind == "sine":
        theta = SpectralScalarField.from_samples(grid, amp * np.sin(mesh[0]))
    else:  # random
        raw = SpectralScalarField.from_samples(grid, rng.standard_normal(grid.shape))
        theta = galerkin_project(raw, min(grid.n // 3, 8))
        sup = lp_norm(theta, np.inf)
        if sup > 0:
            theta = (amp / sup) * theta
    return State(0.0, u, theta)


def _prepare_state(state: State, config: SolverConfig) -> State:
    u = dealias(state.u)
    if config.galerkin_modes is not None:
        u = galerkin_project(u, config.galerkin_modes)
    defect = divergence_defect(u)
    if not defect <= DIV_FREE_RTOL:  # also refuses a NaN velocity
        msg = f"initial velocity has divergence defect {defect:.3e} > {DIV_FREE_RTOL:g}"
        raise ValueError(msg + "; leray_project it first")
    return State(state.t, u, state.theta)


def run(
    config: SolverConfig,
    stream: Optional[RandomStream] = None,
    observers: Sequence[Callable] = (),
    stopping_rules: Sequence = (),
    initial_state: Optional[State] = None,
    full_diagnostics: bool = True,
) -> TrajectoryRecord:
    """Integrate to t_end, recording diagnostics each step.

    The initial velocity is restricted to the dealiased band (and the Galerkin
    band when configured) so quadratic products stay alias-free, and refused
    if its divergence defect exceeds DIV_FREE_RTOL.  Observers get obs(state,
    row) for every state reached.  Stopping rules (diagnostics.StoppingRule)
    are evaluated on the growing record, including the initial row; blow-up
    terminates the record instead of raising.  full_diagnostics=False keeps
    only the norms the stepper needs, for large ensembles; it refuses tau_R
    and gamma_R rules, which read the columns it leaves out.
    """
    if config.epsilon > 0 and stream is None:
        raise ValueError("stochastic runs need a RandomStream")
    row_rules = [r.describe() for r in stopping_rules if r.kind in ("tau_R", "gamma_R")]
    if row_rules and not full_diagnostics:
        msg = "read full diagnostic rows, which light rows leave NaN"
        raise ValueError(f"{', '.join(row_rules)} {msg}; pass full_diagnostics=True")
    state = initial_state if initial_state is not None else build_initial_state(config)
    state = _prepare_state(state, config)

    record = TrajectoryRecord(dt=config.dt, epsilon=config.epsilon)
    row = _diagnostic_row(state, config, full_diagnostics)
    record.rows.append(row)
    for obs in observers:
        obs(state, row)

    def check_rules() -> bool:
        for rule in stopping_rules:
            if rule.fires(record):
                record.rows[-1].stop_flag = 1
                record.stop_reason = rule.describe()
                return True
        return False

    stopped = check_rules()
    n_steps = config.n_steps
    for j in range(n_steps):
        if stopped:
            break
        try:
            new_state, info = step(state, config, stream, j)
        except BlowUpError as exc:
            terminal = StepRow(t=state.t + config.dt)
            terminal.stop_flag = 1
            terminal.phi_value = np.nan
            terminal.energy_residual = np.nan
            record.rows.append(terminal)
            record.stop_reason = f"blow_up:{exc.diagnostic}"
            record.blown_up = True
            break
        row = _diagnostic_row(new_state, config, full_diagnostics)
        row.phi_value = info["phi"]
        row.cfl = info["cfl"]
        row.cfl_violated = info["cfl"] > config.cfl_cap
        row.div_defect = info["div_defect"]
        if full_diagnostics:
            row.energy_residual = _energy_residual(state, new_state, config)
        record.rows.append(row)
        state = new_state
        for obs in observers:
            obs(state, row)
        stopped = check_rules()

    record.final_state = state
    return record


@dataclass
class EnsembleSummary:
    """Per-path functional values with order-independent reductions."""

    n_paths: int
    master_seed: int
    values: Mapping[str, np.ndarray]
    mean: Mapping[str, float]
    variance: Mapping[str, float]
    max: Mapping[str, float]


def _reduce_summary(values: Mapping[str, np.ndarray], n_paths, master_seed):
    mean, var, vmax = {}, {}, {}
    for name, arr in values.items():
        m = float(np.sum(arr) / len(arr))  # pairwise summation
        mean[name] = m
        var[name] = float(np.sum((arr - m) ** 2) / len(arr))
        vmax[name] = float(np.max(arr))
    return EnsembleSummary(n_paths, master_seed, values, mean, var, vmax)


def _ensemble_block(args):
    config, master_seed, paths, functionals, full_diagnostics = args
    out = {name: np.empty(len(paths)) for name in functionals}
    for i, p in enumerate(paths):
        rec = run(
            config,
            stream=RandomStream(master_seed, p),
            full_diagnostics=full_diagnostics,
        )
        for name, fn in functionals.items():
            out[name][i] = fn(rec)
    return out


def run_ensemble(
    config: SolverConfig,
    n_paths: int,
    master_seed: int,
    functionals: Mapping[str, Callable[[TrajectoryRecord], float]],
    n_jobs: int = 1,
    full_diagnostics: bool = True,
) -> EnsembleSummary:
    """Independent trajectories on per-path streams, reduced deterministically.

    Values are gathered in path order and summed pairwise, so the summary is
    independent of worker scheduling.  n_jobs > 1 requires picklable
    functionals.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    all_paths = np.arange(n_paths)
    if n_jobs <= 1:
        blocks, pool = [all_paths], nullcontext()
    else:
        from concurrent.futures import ProcessPoolExecutor

        blocks = [b for b in np.array_split(all_paths, n_jobs * 4) if len(b)]
        pool = ProcessPoolExecutor(max_workers=n_jobs)
    tasks = [(config, master_seed, b, functionals, full_diagnostics) for b in blocks]
    values = {name: np.empty(n_paths) for name in functionals}
    with pool as executor:
        mapper = map if executor is None else executor.map
        for block, result in zip(blocks, mapper(_ensemble_block, tasks)):
            for name in functionals:
                values[name][block] = result[name]
    return _reduce_summary(values, n_paths, master_seed)
