"""Semi-implicit Euler-Maruyama stepper for buoyancy-coupled incompressible flow.

One stepper covers the whole family: the full stochastic system, its cut-off
truncation (a smooth [0,1] factor phi_R(|grad u|_inf) multiplying both the
momentum nonlinearity and the advecting velocity), the mode-truncated
Galerkin variant, the controlled system (a deterministic drift P f h replacing
or accompanying the noise), and the noiseless skeleton (epsilon = 0).

Per step, with A the Stokes operator, P the Leray projector and G the
Galerkin truncation (the identity without a mode truncation):

    u'     = (I + dt nu A)^{-1} G (u + dt drift + sqrt(eps) P f dW)
    drift  = P (theta e_d - phi (u.grad u)) + P f h(t)
    theta' = advect(theta, phi * u, dt)

The nonlinearity and the buoyancy are summed in one coefficient stack and
Leray-projected once, as the paper's velocity equation projects them; the
control drift P f h arrives projected.  G is applied once, to the whole
update: u already lies in the band, so this equals truncating each term.

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
never transformed.  Runs whose rows do not compute linf_grad_u (see run's
columns) and whose velocity gradient sits past 2R step that way.

The momentum terms transformed per step are thus grad u (with the samples of
u) unless cached or settled by the RMS bound, theta for a nonzero buoyancy
term, the advection product while phi != 0, and, for a multiplicative
intensity, whose envelope follows the state, the noise sum and the control
drift P f h.  With an additive intensity those two need no transform:
forcing.weighted_sum sums them from the noise model's stored projected
coefficients.

Solenoidality is checked once per run, on the initial velocity: every term
added to u is Leray-projected, so step only reports each new velocity's
defect.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field as dataclass_field
from functools import partial
from typing import Callable, Optional, Sequence

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
    to infinity.  Both must be finite.
    """

    times: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.samples = np.atleast_2d(np.asarray(self.samples, dtype=np.float64))
        if self.times.ndim != 1 or len(self.times) == 0:
            raise ValueError("control needs at least one time node")
        if not (np.all(np.isfinite(self.times)) and np.all(np.isfinite(self.samples))):
            raise ValueError("control times and samples must be finite")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("control time nodes must be strictly increasing")
        if self.samples.shape[0] != len(self.times):
            raise ValueError(
                f"control has {len(self.times)} time nodes but "
                f"{self.samples.shape[0]} sample rows"
            )
        if abs(self.times[0]) > 1e-12:
            raise ValueError(f"control time grid must start at 0, got {self.times[0]:g}")

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
        if self.seed < 0:
            raise ValueError(f"init seed must be nonnegative, got {self.seed}")
        for name in ("velocity_amplitude", "temperature_amplitude"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass
class SolverConfig:
    """Everything one trajectory needs; immutable once runs begin.

    cutoff_R = 0 disables the cut-off (phi identically 1); galerkin_modes
    absent means full resolution; epsilon scales the noise as sqrt(epsilon);
    a step whose CFL number exceeds cfl_cap is flagged, never with cfl_cap =
    inf.  Every number must be finite but cfl_cap; a refusal names its field.
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
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0 <= self.t_end < math.inf:
            raise ValueError(f"t_end must be nonnegative and finite, got {self.t_end}")
        if self.t_end > 0:
            if self.dt > self.t_end * (1 + 1e-12):
                raise ValueError(f"dt={self.dt} exceeds t_end={self.t_end}")
            steps = self.t_end / self.dt
            if abs(steps - round(steps)) > 1e-8 * max(1.0, steps):
                raise ValueError(
                    f"t_end={self.t_end} is not an integer multiple of dt={self.dt}"
                )
            # run preallocates one float64 table row per state
            table = (self.n_steps + 1) * len(COLUMNS) * 8
            if table > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
                msg = f"t_end / dt = {self.n_steps} steps need a {table:.3g}-byte table"
                raise ValueError(msg + ", more than this machine's memory")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")
        if not 0 <= self.cutoff_R < math.inf:
            msg = f"cutoff_R must be nonnegative and finite, got {self.cutoff_R}"
            raise ValueError(msg)
        if not 0 < self.viscosity < math.inf:
            msg = f"viscosity must be positive and finite, got {self.viscosity}"
            raise ValueError(msg)
        if not self.cfl_cap > 0:
            raise ValueError(f"cfl_cap must be positive, got {self.cfl_cap}")
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
            if self.control.times[-1] > self.t_end + 1e-12:
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


def momentum_rhs(state: State, config: SolverConfig):
    """Explicit momentum drift, before the step's Galerkin truncation, and
    the cut-off value used for this step.

    drift = P(theta e_d - phi dealias((u.grad) u)) + P f h(t): one Leray
    projection of the summed stack, skipped (a zero contribution) only when
    theta = 0 and phi = 0; the control drift arrives projected from
    forcing.weighted_sum.  phi = 0 is settled without transforming grad u
    when u has no cached gradient summary and the grid RMS of grad u
    already reaches 2R (spectral.grad_rms_reaches): the sup is at least
    the RMS, so cutoff(|grad u|_inf, R) would return exactly 0.0 too.
    """
    u, theta = state.u, state.theta
    g = u.grid
    R = config.cutoff_R
    if R <= 0:
        phi = 1.0
    elif grad_rms_reaches(u, 2.0 * R):
        phi = 0.0
    else:
        phi = cutoff(velocity_grad_sup(u), R)
    drift = SpectralVectorField.zero(g)
    if phi != 0.0 or np.any(theta.coefficients):
        stack = np.zeros((g.dimension,) + g.shape, dtype=np.complex128)
        stack[-1] = theta.coefficients
        if phi != 0.0:
            advection = gradient_summary(u).advection
            advection = SpectralVectorField.from_sample_stack(g, advection)
            stack -= phi * dealias(advection).coefficients
        drift = leray_project(SpectralVectorField.from_coefficient_stack(g, stack))
    if config.control is not None:
        h = config.control.value_at(state.t)
        drift = drift + weighted_sum(config.noise, u, theta, h)
    return drift, phi


def step(
    state: State,
    config: SolverConfig,
    stream: Optional[RandomStream] = None,
    step_index: int = 0,
):
    """Advance one step, as the module docstring writes it (one Galerkin
    truncation of the whole update); returns (new state, info dict).

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
        pre = pre + math.sqrt(config.epsilon) * forcing
    if config.galerkin_modes is not None:
        pre = galerkin_project(pre, config.galerkin_modes)
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
#: The columns of a trajectory table: CSV_COLUMNS, then the extras.
COLUMNS = CSV_COLUMNS + (
    "l2_theta",
    "l4_w",
    "l2_grad_w",
    "int_grad_w_h",
    "div_defect",
    "h_h0",
    "cfl",
    "cfl_violated",
)
_COL = {name: i for i, name in enumerate(COLUMNS)}
#: column -> the columns its value is built from, which a row computing it
#: also computes
_INPUTS = {"energy_residual": ("l2_u",), "int_grad_w_h": ("l2_grad_w", "h_h0")}

#: A table row before anything is recorded in it.
BLANK_ROW = np.full(len(COLUMNS), np.nan)
BLANK_ROW[_COL["phi_value"]] = 1.0
for _name in ("energy_residual", "stop_flag", "h_h0", "cfl", "cfl_violated"):
    BLANK_ROW[_COL[_name]] = 0.0

_ROW_DTYPE = np.dtype([(name, np.float64) for name in COLUMNS])


@dataclass
class TrajectoryRecord:
    """The diagnostics of one trajectory as a float64 table, plus its outcome.

    values has one row per recorded state and its columns in COLUMNS order; a
    column the run did not compute keeps its BLANK_ROW value: NaN, but 1 for
    phi_value and 0 for energy_residual, stop_flag, h_h0, cfl and cfl_violated
    (the flags hold 0 or 1); run returns it read-only.  rows is a read-only
    record view of the same memory, for attribute readers (rows[-1].l2_u).
    int_grad_w_h, Gamma_R's int (|grad w|_{L^2} + |h|_{H0}) ds, is 0 on a 2D
    initial row, then the previous row's value plus dt times its integrand.
    """

    values: np.ndarray = dataclass_field(
        default_factory=lambda: np.empty((0, len(COLUMNS)))
    )
    stop_reason: Optional[str] = None
    blown_up: bool = False
    final_state: Optional[State] = None

    def column(self, name: str) -> np.ndarray:
        return self.values[:, _COL[name]]

    @property
    def rows(self) -> np.recarray:
        view = self.values.view(_ROW_DTYPE)[:, 0].view(np.recarray)
        view.flags.writeable = False
        return view


def _l2(field, s):
    return parseval_l2(field.grid, field.coefficients)


#: column -> (the field it is a norm of, norm(field, config.s)); the fields
#: are u, theta and, on a 2D grid only, the vorticity w and grad w
_NORMS = {
    "linf_grad_u": ("u", lambda u, s: velocity_grad_sup(u)),
    "l2_u": ("u", _l2),
    "hs_u": ("u", sobolev_norm),
    "hs1_u": ("u", lambda u, s: sobolev_norm(u, min(s + 1, SOBOLEV_INDEX_CAP))),
    "l2_theta": ("theta", _l2),
    "hs_theta": ("theta", sobolev_norm),
    "linf_grad_theta": ("theta", lambda theta, s: grad_sup(theta)),
    "linf_theta": ("theta", lambda theta, s: lp_norm(theta, np.inf)),
    "l2_w": ("w", _l2),
    "l4_w": ("w", lambda w, s: lp_norm(w, 4)),
    "l2_grad_w": ("grad_w", _l2),
    "l4_grad_w": ("grad_w", lambda grad_w, s: lp_norm(grad_w, 4)),
}
#: The columns only a 2D grid computes, from its scalar vorticity w
_2D_COLUMNS = frozenset("l2_w l4_w l2_grad_w l4_grad_w int_grad_w_h".split())


def _diagnostic_row(row, state: State, config: SolverConfig, columns):
    """Write t and the norms and h_h0 named in the set columns into the
    blank table row.  w and grad w are computed once, at the first vorticity
    column: computed before grad u's summary, they slowed a 2D 128^2 step by
    about 5%.
    """
    u = state.u
    row[_COL["t"]] = state.t
    fields = {"u": u, "theta": state.theta}
    for name, (source, norm) in _NORMS.items():
        if name not in columns:
            continue
        if source not in fields and u.grid.dimension == 2:
            fields["w"] = perp_div_2d(u)
            fields["grad_w"] = gradient(fields["w"])
        if source in fields:
            row[_COL[name]] = norm(fields[source], config.s)
    if "h_h0" in columns and config.control is not None:
        row[_COL["h_h0"]] = np.linalg.norm(config.control.value_at(state.t))


def _energy_residual(prev: State, new: State, rows, config: SolverConfig) -> float:
    """Trapezoid residual of d|u|^2 + 2 nu |grad u|^2 dt = 2 W dt.

    W is the work on u_mid of the buoyancy, (P theta e_d, u_mid), plus in a
    controlled run that of the control drift, (P f h, u_mid), with theta, h
    and f's envelope taken at the pre-step state, as the step takes them.
    rows are the two states' table rows, whose l2_u it reads.  The buoyancy
    work is taken as (theta e_d, u_mid): P is self-adjoint and both
    velocities are solenoidal, so P u_mid = u_mid and the step's buoyancy
    term need not be projected again here.
    """
    dt, g = config.dt, config.grid
    c0, c1 = prev.u.coefficients, new.u.coefficients
    mid_grad_sq = 0.5 * (parseval_grad_l2(g, c0) ** 2 + parseval_grad_l2(g, c1) ** 2)
    theta = prev.theta.coefficients
    work = 0.5 * (parseval_inner(g, theta, c0[-1]) + parseval_inner(g, theta, c1[-1]))
    if config.control is not None:
        h = config.control.value_at(prev.t)
        drift = weighted_sum(config.noise, prev.u, prev.theta, h).coefficients
        work += 0.5 * (parseval_inner(g, drift, c0) + parseval_inner(g, drift, c1))
    l2_u0, l2_u1 = rows[:, _COL["l2_u"]].tolist()
    return (
        l2_u1**2
        - l2_u0**2
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
        z = np.prod([np.cos(x) for x in mesh[2:]], axis=0)  # 1.0 in 2D
        comps = [
            amp * np.sin(mesh[0]) * np.cos(mesh[1]) * z,
            -amp * np.cos(mesh[0]) * np.sin(mesh[1]) * z,
        ] + [np.zeros(grid.shape)] * (grid.dimension - 2)
        u = SpectralVectorField.from_samples(grid, *comps)
    else:  # random
        raw = SpectralVectorField(grid, rng.standard_normal((grid.dimension,) + grid.shape))
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
    columns: Sequence[str] = COLUMNS,
) -> TrajectoryRecord:
    """Integrate to t_end, recording diagnostics each step.

    The initial velocity is restricted to the dealiased band (and the Galerkin
    band when configured) so quadratic products stay alias-free, and refused
    if its divergence defect exceeds DIV_FREE_RTOL.

    The table (see TrajectoryRecord) is allocated once, one row per state up
    to t_end; record.values is the part written so far, so a stop or a
    blow-up truncates it.  Every row holds the step info: t, phi_value, cfl,
    cfl_violated, div_defect and stop_flag.  Beyond that a row computes the
    named columns (every column by default), the columns the stopping rules
    watch, and their inputs: energy_residual reads l2_u, int_grad_w_h reads
    l2_grad_w and h_h0.  The initial row's phi_value is the cut-off of its
    linf_grad_u, NaN when that is not computed (1 without a cut-off).
    Blow-up ends the record, instead of raising, with a blank row holding t,
    stop_flag = 1 and NaN phi_value and energy_residual.  Observers get
    obs(state, record.rows[-1]) for every state reached.  Stopping rules
    (diagnostics.StoppingRule) are evaluated on the growing record, including
    the initial row.  Raises ValueError, before any step, for an unknown
    column name and for a vorticity rule (gamma_R) on a 3D grid.
    """
    if config.epsilon > 0 and stream is None:
        raise ValueError("stochastic runs need a RandomStream")
    named = set(columns).union(*(rule.columns for rule in stopping_rules))
    if not named.issubset(_COL):
        raise ValueError(f"unknown trajectory columns {sorted(named.difference(_COL))}")
    d = config.grid.dimension
    for rule in stopping_rules:
        if d != 2 and not _2D_COLUMNS.isdisjoint(rule.columns):
            raise ValueError(f"{rule.describe()} watches the 2D vorticity, on a {d}D grid")
    columns = named.union(*(_INPUTS.get(name, ()) for name in named))
    state = initial_state if initial_state is not None else build_initial_state(config)
    state = _prepare_state(state, config)

    table = np.repeat(BLANK_ROW[None], config.n_steps + 1, axis=0)
    record = TrajectoryRecord()
    for i, row in enumerate(table):
        record.values = table[: i + 1]
        if i == 0:
            _diagnostic_row(row, state, config, columns)
            if config.cutoff_R > 0:  # the cut-off of an uncomputed (NaN) sup is NaN
                row[_COL["phi_value"]] = cutoff(row[_COL["linf_grad_u"]], config.cutoff_R)
            if "int_grad_w_h" in columns and config.grid.dimension == 2:
                row[_COL["int_grad_w_h"]] = 0.0
        else:
            try:
                new_state, info = step(state, config, stream, i - 1)
            except BlowUpError as exc:
                row[_COL["t"]] = state.t + config.dt
                row[_COL["stop_flag"]] = 1.0
                row[_COL["phi_value"]] = row[_COL["energy_residual"]] = np.nan
                record.stop_reason = f"blow_up:{exc.diagnostic}"
                record.blown_up = True
                break
            _diagnostic_row(row, new_state, config, columns)
            row[_COL["phi_value"]] = info["phi"]
            row[_COL["cfl"]] = info["cfl"]
            row[_COL["cfl_violated"]] = info["cfl"] > config.cfl_cap
            row[_COL["div_defect"]] = info["div_defect"]
            if "energy_residual" in columns:
                row[_COL["energy_residual"]] = _energy_residual(
                    state, new_state, table[i - 1 : i + 1], config
                )
            if "int_grad_w_h" in columns:
                prev = table[i - 1]
                row[_COL["int_grad_w_h"]] = prev[_COL["int_grad_w_h"]] + config.dt * (
                    prev[_COL["l2_grad_w"]] + prev[_COL["h_h0"]]
                )
            state = new_state
        if observers:
            row_view = record.rows[-1]
            for obs in observers:
                obs(state, row_view)
        fired = next((rule for rule in stopping_rules if rule.fires(record)), None)
        if fired is not None:
            row[_COL["stop_flag"]] = 1.0
            record.stop_reason = fired.describe()
            break

    record.values.flags.writeable = False
    record.final_state = state
    return record


def check_n_jobs(n_jobs: int):
    """Raise ValueError unless n_jobs is a worker count, at least 1."""
    if n_jobs < 1:
        raise ValueError(f"n_jobs must be >= 1, got {n_jobs}")


def _ensemble_block(config, master_seed, functionals, columns, paths):
    out = np.empty((len(functionals), len(paths)))
    for i, p in enumerate(paths):
        rec = run(config, stream=RandomStream(master_seed, p), columns=columns)
        out[:, i] = [fn(rec) for fn in functionals]
    return out


def run_ensemble(
    config: SolverConfig,
    n_paths: int,
    master_seed: int,
    functionals: Sequence[Callable[[TrajectoryRecord], float]],
    n_jobs: int = 1,
    columns: Sequence[str] = COLUMNS,
) -> np.ndarray:
    """Independent trajectories on per-path streams, gathered in path order.

    Returns a (len(functionals), n_paths) float64 array whose row j holds
    functionals[j] of every path, whatever n_jobs; each path's rows compute
    columns (see run).  n_jobs > 1 needs picklable functionals and starts
    min(n_jobs, path blocks, usable cores) workers.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    check_n_jobs(n_jobs)
    block = partial(_ensemble_block, config, master_seed, functionals, columns)
    if n_jobs == 1:
        return block(np.arange(n_paths))
    from concurrent.futures import ProcessPoolExecutor

    blocks = np.array_split(np.arange(n_paths), min(4 * n_jobs, n_paths))
    workers = min(n_jobs, len(blocks), len(os.sched_getaffinity(0)))
    with ProcessPoolExecutor(max_workers=workers) as executor:
        return np.concatenate(list(executor.map(block, blocks)), axis=1)
