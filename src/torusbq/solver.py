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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .forcing import (
    NoiseIntensity,
    QWienerSpec,
    RandomStream,
    apply_noise,
    sample_increment,
    weighted_sum,
)
from .spectral import (
    Grid,
    SpectralScalarField,
    SpectralVectorField,
    SOBOLEV_INDEX_CAP,
    dealias,
    divergence_defect,
    galerkin_project,
    gradient,
    implicit_diffusion_solve,
    leray_project,
    lp_norm,
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
class NoiseModel:
    """Covariance spectrum plus the intensity mapping modes to force fields."""

    spec: QWienerSpec
    intensity: NoiseIntensity

    def __post_init__(self):
        if self.intensity.mode != "off" and (
            self.intensity.n_fields != self.spec.truncation
        ):
            raise ValueError("noise intensity/spec mode counts differ")


@dataclass
class InitialCondition:
    """Named initial-data presets (resolved by build_initial_state)."""

    velocity: str = "zero"
    velocity_amplitude: float = 1.0
    temperature: str = "zero"
    temperature_amplitude: float = 1.0
    seed: int = 0


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
        if self.epsilon > 0 and (self.noise is None or self.noise.intensity.mode == "off"):
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
    grid = u.grid
    u_samples = [c.samples for c in u.components]
    comps = []
    for i in range(grid.dimension):
        grads = gradient(u.components[i]).components
        total = u_samples[0] * grads[0].samples
        for j in range(1, grid.dimension):
            total += u_samples[j] * grads[j].samples
        comps.append(total)
    return dealias(SpectralVectorField.from_samples(grid, *comps))


def _buoyancy_term(theta: SpectralScalarField) -> SpectralVectorField:
    grid = theta.grid
    if not np.any(theta.coefficients):
        return SpectralVectorField.zero(grid)
    zero = SpectralScalarField.from_coefficients(grid, np.zeros(grid.shape, dtype=complex))
    comps = [zero] * (grid.dimension - 1) + [theta]
    return leray_project(SpectralVectorField(comps))


def momentum_rhs(state: State, config: SolverConfig):
    """Explicit momentum drift and the cut-off value used for this step.

    drift = -phi P(u.grad u) + P(theta e_d) + P f h(t), each term Galerkin
    projected when a mode truncation is configured.  The nonlinearity is
    skipped entirely when phi = 0, making its contribution exactly zero.
    """
    u, theta = state.u, state.theta
    if config.cutoff_R > 0:
        phi = cutoff(velocity_grad_sup(u), config.cutoff_R)
    else:
        phi = 1.0
    drift = _buoyancy_term(theta)
    if config.control is not None:
        h = config.control.value_at(state.t)
        drift = drift + weighted_sum(
            config.noise.intensity, config.noise.spec, u, theta, h, state.t
        )
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
    divergence defect of the updated velocity.
    """
    dt = config.dt
    drift, phi = momentum_rhs(state, config)
    pre = state.u + dt * drift
    if config.epsilon > 0:
        inc = sample_increment(config.noise.spec, dt, stream, step_index)
        forcing = apply_noise(
            config.noise.intensity, config.noise.spec, state.u, state.theta, inc, state.t
        )
        if config.galerkin_modes is not None:
            forcing = galerkin_project(forcing, config.galerkin_modes)
        pre = pre + math.sqrt(config.epsilon) * forcing
    u_new = implicit_diffusion_solve(pre, dt, config.viscosity)

    if phi == 0.0:
        theta_new = state.theta
        cfl = 0.0
    else:
        u_adv = state.u if phi == 1.0 else phi * state.u
        cfl = cfl_number(u_adv, dt)
        theta_new = advect(state.theta, u_adv, dt, config.scheme)

    for i, comp in enumerate(u_new.components):
        if not np.all(np.isfinite(comp.coefficients)):
            raise BlowUpError(f"velocity component {i + 1}", state.t + dt)
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
    states: Optional[list] = None
    epsilon: float = 0.0

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(row, name) for row in self.rows], dtype=np.float64)

    @property
    def times(self) -> np.ndarray:
        return self.column("t")


def _l2_from_coeffs(field) -> float:
    grid = field.grid if hasattr(field, "grid") else field.components[0].grid
    comps = field.components if isinstance(field, SpectralVectorField) else (field,)
    total = sum(np.sum(np.abs(c.coefficients) ** 2) for c in comps)
    return float(np.sqrt((2 * np.pi) ** grid.dimension * total))


def _grad_l2_from_coeffs(v: SpectralVectorField) -> float:
    grid = v.grid
    total = sum(np.sum(grid.k2_masked * np.abs(c.coefficients) ** 2) for c in v.components)
    return float(np.sqrt((2 * np.pi) ** grid.dimension * total))


def _l2_inner(a: SpectralVectorField, b: SpectralVectorField) -> float:
    grid = a.grid
    total = sum(
        np.sum(np.conj(ca.coefficients) * cb.coefficients).real
        for ca, cb in zip(a.components, b.components)
    )
    return float((2 * np.pi) ** grid.dimension * total)


def _diagnostic_row(state: State, config: SolverConfig, full: bool) -> StepRow:
    u, theta = state.u, state.theta
    row = StepRow(t=state.t)
    row.l2_u = _l2_from_coeffs(u)
    row.l2_theta = _l2_from_coeffs(theta)
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
    if config.grid.dimension == 2:
        w = perp_div_2d(u)
        row.l2_w = _l2_from_coeffs(w)
        row.l4_w = lp_norm(w, 4)
        grad_w = gradient(w)
        row.l2_grad_w = _l2_from_coeffs(grad_w)
        row.l4_grad_w = lp_norm(grad_w, 4)
    return row


def _energy_residual(prev: State, new: State, config: SolverConfig) -> float:
    """Trapezoid residual of d|u|^2 + 2 nu |grad u|^2 dt = 2 (theta e_d, u) dt."""
    dt = config.dt
    mid_grad_sq = 0.5 * (
        _grad_l2_from_coeffs(prev.u) ** 2 + _grad_l2_from_coeffs(new.u) ** 2
    )
    u_mid = 0.5 * (prev.u + new.u)
    buoy = _buoyancy_term(prev.theta)
    return (
        _l2_from_coeffs(new.u) ** 2
        - _l2_from_coeffs(prev.u) ** 2
        + 2.0 * dt * config.viscosity * mid_grad_sq
        - 2.0 * dt * _l2_inner(buoy, u_mid)
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
    elif kind == "random":
        raw = SpectralVectorField.from_samples(
            grid, *[rng.standard_normal(grid.shape) for _ in range(grid.dimension)]
        )
        u = leray_project(galerkin_project(raw, min(grid.n // 3, 8)))
        sup = lp_norm(u, np.inf)
        if sup > 0:
            u = (amp / sup) * u
    else:
        raise ValueError(f"unknown velocity preset {kind!r}")

    kind = init.temperature
    amp = init.temperature_amplitude
    if kind == "zero":
        theta = SpectralScalarField.zero(grid)
    elif kind == "constant":
        theta = SpectralScalarField.from_samples(grid, np.full(grid.shape, amp))
    elif kind == "sine":
        theta = SpectralScalarField.from_samples(grid, amp * np.sin(mesh[0]))
    elif kind == "random":
        raw = SpectralScalarField.from_samples(grid, rng.standard_normal(grid.shape))
        theta = galerkin_project(raw, min(grid.n // 3, 8))
        sup = lp_norm(theta, np.inf)
        if sup > 0:
            theta = (amp / sup) * theta
    else:
        raise ValueError(f"unknown temperature preset {kind!r}")
    return State(0.0, u, theta)


def _prepare_state(state: State, config: SolverConfig) -> State:
    u = dealias(state.u)
    if config.galerkin_modes is not None:
        u = galerkin_project(u, config.galerkin_modes)
    return State(state.t, u, state.theta)


def run(
    config: SolverConfig,
    stream: Optional[RandomStream] = None,
    observers: Sequence[Callable] = (),
    stopping_rules: Sequence = (),
    initial_state: Optional[State] = None,
    store_states: bool = False,
    full_diagnostics: bool = True,
) -> TrajectoryRecord:
    """Integrate to t_end, recording diagnostics each step.

    The initial velocity is restricted to the dealiased band (and the Galerkin
    band when configured) so quadratic products stay alias-free.  Stopping
    rules (diagnostics.StoppingRule) are evaluated on the growing record,
    including the initial row; blow-up terminates the record instead of
    raising.  full_diagnostics=False keeps only the norms the stepper needs,
    for large ensembles.
    """
    if config.epsilon > 0 and stream is None:
        raise ValueError("stochastic runs need a RandomStream")
    state = initial_state if initial_state is not None else build_initial_state(config)
    state = _prepare_state(state, config)

    record = TrajectoryRecord(dt=config.dt, epsilon=config.epsilon)
    if store_states:
        record.states = [state]
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
        if store_states:
            record.states.append(state)
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
        values = _ensemble_block(
            (config, master_seed, all_paths, functionals, full_diagnostics)
        )
        return _reduce_summary(values, n_paths, master_seed)

    from concurrent.futures import ProcessPoolExecutor

    blocks = np.array_split(all_paths, n_jobs * 4)
    blocks = [b for b in blocks if len(b)]
    tasks = [(config, master_seed, b, functionals, full_diagnostics) for b in blocks]
    values = {name: np.empty(n_paths) for name in functionals}
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        for block, result in zip(blocks, pool.map(_ensemble_block, tasks)):
            for name in functionals:
                values[name][block] = result[name]
    return _reduce_summary(values, n_paths, master_seed)
