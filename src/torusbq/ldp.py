"""Small-noise large-deviation harness: costs, skeletons, rare-event tables.

The skeleton map sends a control h (piecewise-constant in time, one H0
coordinate per retained noise mode) to the noiseless trajectory driven by the
drift P f h.  Its quadratic energy  1/2 int |h(t)|_{H0}^2 dt  prices every
trajectory the control can reach, and the minimal price of a rare event is
estimated by a constrained solve (SLSQP, the event as an inequality
constraint) over a finite-dimensional control family, so the reported optimum
is an upper bound on the true rate.  Monte Carlo tables of -eps log p_hat
against that bound give the numerical face of the small-noise asymptotics.
Girsanov densities are never simulated; everything is costed directly through
the skeleton.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import partial
from operator import itemgetter
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.stats import norm

from .forcing import QWienerSpec
from .solver import (
    LIGHT_COLUMNS,
    Control,
    SolverConfig,
    TrajectoryRecord,
    check_n_jobs,
    run,
    run_ensemble,
)
from .spectral import lp_norm, parseval_inner


# -- trajectory functionals ------------------------------------------------------


class _TerminalModeAmplitude:
    """Coefficient of the chosen noise mode in u(T), in one-forcing-field units."""

    def __init__(self, config: SolverConfig, mode_index: int = 0):
        n_modes = config.noise.spec.truncation
        if not 0 <= mode_index < n_modes:
            raise ValueError(f"mode_index {mode_index} outside [0, {n_modes})")
        base = config.noise.intensity.base_fields[mode_index]
        self.base_coeffs = base.coefficients
        self.norm_sq = lp_norm(base, 2) ** 2
        if self.norm_sq == 0.0:  # [noise].amplitude = 0: no unit to measure in
            raise ValueError(f"mode_index {mode_index} picks a zero noise field")
        self.grid = base.grid

    def __call__(self, record: TrajectoryRecord) -> float:
        if record.blown_up:  # final_state is the last finite state, not u(T)
            return np.nan
        c = record.final_state.u.coefficients
        return parseval_inner(self.grid, self.base_coeffs, c) / self.norm_sq


def _column_value(column: str, reduce, config, record: TrajectoryRecord) -> float:
    """reduce (the last entry or the max) of a table column; config unread."""
    return float(reduce(record.column(column)))


def _column(column: str, reduce) -> tuple:
    """The FUNCTIONALS entry of reduce(column): its builder and its functional
    are partials of _column_value (picklable), and it needs full diagnostics
    unless light rows record the column."""
    return partial(partial, _column_value, column, reduce), column not in LIGHT_COLUMNS


_LAST = itemgetter(-1)

#: name -> (builder(config, **params) -> functional, needs full diagnostics)
FUNCTIONALS = {
    "terminal_mode_amplitude": (_TerminalModeAmplitude, False),
    "terminal_l2_u": _column("l2_u", _LAST),
    "sup_l2_u": _column("l2_u", np.max),
    "terminal_l2_theta": _column("l2_theta", _LAST),
    "sup_linf_theta": _column("linf_theta", np.max),
}


@dataclass(frozen=True)
class RareEvent:
    """Named trajectory functional crossing a threshold.

    functional must be a FUNCTIONALS key; direction "ge" watches
    F >= threshold, "le" watches F <= threshold.
    """

    functional: str
    threshold: float
    direction: str = "ge"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.functional not in FUNCTIONALS:
            raise ValueError(
                f"unknown functional {self.functional!r}; "
                f"known: {sorted(FUNCTIONALS)}"
            )
        if self.direction not in ("ge", "le"):
            raise ValueError(f"direction must be 'ge' or 'le', got {self.direction!r}")

    def build(self, config: SolverConfig) -> Callable[[TrajectoryRecord], float]:
        builder, _ = FUNCTIONALS[self.functional]
        return builder(config, **self.params)

    @property
    def needs_full_diagnostics(self) -> bool:
        return FUNCTIONALS[self.functional][1]

    def realized(self, value):
        """Whether F = value is in the event (elementwise; NaN never is)."""
        if self.direction == "ge":
            return value >= self.threshold
        return value <= self.threshold


# -- control cost and skeleton ---------------------------------------------------


def control_cost(h: Control, spec: QWienerSpec, t_end: float) -> float:
    """1/2 int_0^T |h|_{H0}^2 dt for a piecewise-constant control.

    h is stored in H0 coordinates, so the covariance weighting is the
    identity and the cost is invariant under refinements of the time grid.
    """
    if h.n_modes > spec.truncation:
        raise ValueError(
            f"control drives {h.n_modes} modes but the spec retains "
            f"{spec.truncation}"
        )
    edges = np.concatenate([h.times, [t_end]])
    durations = np.diff(edges)
    if np.any(durations < -1e-12):
        raise ValueError("control grid extends past t_end")
    durations = np.clip(durations, 0.0, None)
    return float(0.5 * np.sum(durations * np.sum(h.samples**2, axis=1)))


def solve_skeleton(
    config: SolverConfig, h: Optional[Control], full_diagnostics: bool = True
) -> TrajectoryRecord:
    """Deterministic controlled trajectory (the noise-free system plus P f h).

    Raises ValueError, before any step, unless config is 2D, where the
    skeleton map is defined."""
    if config.grid.dimension != 2:
        raise ValueError(f"the skeleton map needs dimension 2, got {config.grid.dimension}")
    cfg = dataclasses.replace(config, epsilon=0.0, control=h)
    return run(cfg, full_diagnostics=full_diagnostics)


# -- rare-event Monte Carlo --------------------------------------------------------


def mc_rare_event(
    config: SolverConfig,
    event: RareEvent,
    epsilon: float,
    n_paths: int,
    master_seed: int,
    n_jobs: int = 1,
):
    """Crossing-probability estimate with a 95% normal-approximation CI.

    Returns (p_hat, (lo, hi)), p_hat the share of run_ensemble's one row (a
    value per path) in the event.  A deterministic configuration (epsilon = 0)
    is evaluated once and reports exactly 0 or 1; an estimate of exactly zero
    gets the one-sided rule-of-three interval (0, 3/n).
    """
    check_n_paths(n_paths)
    cfg = dataclasses.replace(config, epsilon=epsilon)
    functional = event.build(cfg)
    if epsilon == 0.0:
        value = functional(run(cfg))
        p = 1.0 if event.realized(value) else 0.0
        return p, (p, p)
    (values,) = run_ensemble(
        cfg,
        n_paths,
        master_seed,
        [functional],
        n_jobs=n_jobs,
        full_diagnostics=event.needs_full_diagnostics,
    )
    # a blown-up path's NaN value realizes neither direction: a miss
    p = np.count_nonzero(event.realized(values)) / n_paths
    if p == 0.0:
        return 0.0, (0.0, 3.0 / n_paths)
    if p == 1.0:
        return 1.0, (1.0 - 3.0 / n_paths, 1.0)
    half = norm.ppf(0.975) * np.sqrt(p * (1.0 - p) / n_paths)
    return p, (max(0.0, p - half), min(1.0, p + half))


def check_n_paths(n_paths: int):
    """Raise ValueError if n_paths is too few for a rare-event estimate."""
    if n_paths < 100:
        raise ValueError(f"rare-event estimation needs n_paths >= 100, got {n_paths}")


# -- cost minimisation over a control family ---------------------------------------


@dataclass(frozen=True)
class ControlFamily:
    """Piecewise-constant temporal blocks per noise mode, box-bounded."""

    n_blocks: int
    box_bound: float = 10.0

    def __post_init__(self):
        if self.n_blocks < 1:
            raise ValueError("need at least one temporal block")
        if self.box_bound <= 0:
            raise ValueError("box bound must be positive")

    def control(self, params: np.ndarray, t_end: float) -> Control:
        times = np.arange(self.n_blocks) * (t_end / self.n_blocks)
        return Control(times, np.asarray(params, dtype=np.float64))


@dataclass
class MinimizeResult:
    """Best control found and its cost (an upper bound on the true rate)."""

    feasible: bool
    cost: float
    control: Optional[Control]
    value: float
    n_evaluations: int


#: SLSQP starts per minimisation: the zero control plus seeded uniform restarts
N_STARTS = 3
#: SLSQP iteration cap; without it an unreachable event stalls SLSQP near zero
MAX_ITER = 20


def minimize_cost(
    event: RareEvent,
    family: ControlFamily,
    config: SolverConfig,
    seed: int = 0,
) -> MinimizeResult:
    """Search the family for the cheapest control whose skeleton hits the event.

    One SLSQP solve per start minimises the exact quadratic cost (analytic
    gradient: block duration times parameter) over the box, with the event
    as an inequality constraint whose finite-difference gradient costs one
    skeleton solve per parameter.  The starts are the zero control and
    seeded uniform draws from the inner quarter of the box.  A converged
    point that misses the threshold by rounding is rescaled (bracket and
    bisection on the amplitude) until it realizes the event; a start that
    neither converges nor realizes the event is dropped.  The exact cost of
    the cheapest realizing candidate is reported.  Returns an explicit
    infeasibility result when no start reaches the event.
    """
    n_modes = config.noise.spec.truncation
    t_end = config.t_end
    shape = (family.n_blocks, n_modes)
    functional = event.build(config)
    values = {}  # parameter bytes -> functional value; SLSQP revisits points

    def trajectory_value(params) -> float:
        params = np.asarray(params, dtype=np.float64).reshape(shape)
        key = params.tobytes()
        if key not in values:
            rec = solve_skeleton(
                config,
                family.control(params, t_end),
                full_diagnostics=event.needs_full_diagnostics,
            )
            values[key] = functional(rec)
        return values[key]

    # zero control may already realize the event
    zero = np.zeros(shape)
    zero_value = trajectory_value(zero)
    if event.realized(zero_value):
        return MinimizeResult(True, 0.0, Control.zero(n_modes), zero_value, len(values))

    weight = t_end / family.n_blocks  # block duration
    sign = 1.0 if event.direction == "ge" else -1.0
    constraint = {
        "type": "ineq",
        "fun": lambda p: sign * (trajectory_value(p) - event.threshold),
    }
    B = family.box_bound
    rng = np.random.default_rng(seed)
    starts = [zero] + [
        rng.uniform(-B / 4, B / 4, size=shape) for _ in range(N_STARTS - 1)
    ]
    best_params, best_cost = None, np.inf
    for start in starts:
        res = minimize(
            lambda p: (0.5 * weight * p @ p, weight * p),
            start.ravel(),
            jac=True,
            method="SLSQP",
            bounds=[(-B, B)] * start.size,
            constraints=constraint,
            options={"maxiter": MAX_ITER},
        )
        params = res.x.reshape(shape)
        if not event.realized(trajectory_value(params)):
            if not res.success:
                continue
            params = _feasibility_scaling(params, trajectory_value, event, B)
            if params is None:
                continue
        cost = control_cost(family.control(params, t_end), config.noise.spec, t_end)
        if cost < best_cost:
            best_cost, best_params = cost, params
    if best_params is None:
        return MinimizeResult(False, np.inf, None, np.nan, len(values))
    h = family.control(best_params, t_end)
    value = trajectory_value(best_params)
    return MinimizeResult(True, best_cost, h, value, len(values))


def _feasibility_scaling(params, trajectory_value, event, box_bound):
    """Smallest amplitude scaling t > 1 (to relative precision 1e-9) such that
    t * params realizes the event, or None once the box stops the growth.

    params misses the threshold, usually by rounding only, so the bracket
    grows outward from a relative step of 1e-9.
    """
    if not np.any(params):
        return None
    t_max = box_bound / np.max(np.abs(params))
    lo, hi, step = 1.0, None, 1e-9
    while hi is None:
        if lo >= t_max:
            return None
        t = min(lo * (1.0 + step), t_max)
        if event.realized(trajectory_value(t * params)):
            hi = t
        else:
            lo, step = t, 8.0 * step
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        if event.realized(trajectory_value(mid * params)):
            hi = mid
        else:
            lo = mid
    return hi * params


# -- Varadhan tables ----------------------------------------------------------------


#: varadhan.csv's header and the columns of varadhan_gap's table
VARADHAN_COLUMNS = tuple(
    "epsilon n_paths p_hat ci_low ci_high neg_eps_log_p best_cost".split()
)


def varadhan_gap(
    config: SolverConfig,
    event: RareEvent,
    eps_list: Sequence[float],
    n_paths: int,
    family: Optional[ControlFamily] = None,
    master_seed: int = 0,
    n_jobs: int = 1,
) -> np.ndarray:
    """Monte Carlo -eps log p_hat rows plus the family's best control cost.

    Returns a float64 array, one row per epsilon, columns in VARADHAN_COLUMNS
    order: p_hat = 0 gives neg_eps_log_p = inf; best_cost is NaN without a
    family and inf when no control in it reaches the event.  Rows need not be
    monotone in epsilon: finite samples wobble.

    Every bad input raises ValueError before any trajectory is solved:
    eps_list (nonempty, strictly decreasing inside (0, 1]), n_paths and
    n_jobs here, then the event's own parameters (event.build) and, with a
    family, the 2D check of the first skeleton solve.  The ldp-mc command
    relies on this to write nothing for a bad configuration.
    """
    eps = list(eps_list)
    inside = len(eps) > 0 and all(0.0 < e <= 1.0 for e in eps)
    if not inside or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError(f"epsilons must decrease strictly inside (0, 1], got {eps}")
    check_n_paths(n_paths)
    check_n_jobs(n_jobs)
    best_cost = np.nan
    if family is not None:
        result = minimize_cost(event, family, config)
        best_cost = result.cost if result.feasible else np.inf
    rows = []
    for e in eps:
        p, ci = mc_rare_event(config, event, e, n_paths, master_seed, n_jobs=n_jobs)
        if p == 0.0:
            gap = np.inf
        else:
            gap = float(0.0 - e * np.log(p))  # 0, not -0, for a sure event
        rows.append([e, n_paths, p, *ci, gap, best_cost])
    return np.array(rows, dtype=np.float64)
