"""2D vorticity diagnostics: log-Gronwall quantities, blow-up monitors, energy budget.

The scalar vorticity w = -d2 u1 + d1 u2 closes on itself in 2D (no vortex
stretching), which is what the blow-up monitors exploit:

* tau_R fires when |grad u|_inf exceeds R;
* Gamma_R fires when |w|_{L^2} + |w|_{L^4} + int |grad w|_{L^2} ds (plus the
  control budget int |h|_{H0} ds in controlled runs) exceeds R; the integral
  is the trajectory table's int_grad_w_h column, written once per row.

gronwall_record evaluates the log-Gronwall quantities driving the
no-blow-up argument: Y = 1 + |grad w|_{L^4}^4 + |grad theta|_{L^4}^4, the
prefactor g = 1 + |u|_inf^2 + |w|_{L^2} + |grad w|_{L^2} (+ |h|_{H0}), the
forcing weight sigma built from the curled noise modes, and the martingale
bound Z <= (1 + |grad curl f|_{W^{0,4}}) Y^{3/4}.

vorticity_consistency cross-checks the primal solver against an independent
stepper for the curled system driven by the same Brownian increments.  The
twin intentionally uses Crank-Nicolson diffusion (the primal is backward
Euler), giving a clean O(dt) discrepancy between two consistent schemes; with
identical time discretisations the dealiased nonlinear terms agree to
rounding and a dt-refinement study would only measure noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .forcing import RandomStream, sample_increment
from .solver import (
    SolverConfig,
    State,
    TrajectoryRecord,
    run,
)
from .spectral import (
    SpectralScalarField,
    SpectralVectorField,
    biot_savart,
    dealias,
    gradient,
    lp_norm,
    perp_div_2d,
)
from .transport import advect


# -- log-Gronwall quantities ---------------------------------------------------


@dataclass
class GronwallRecord:
    """The quantities Y, g, sigma and the martingale bound at one instant."""

    t: float
    Y: float
    g: float
    sigma: float
    Z_bound: float
    grad_w_l4: float
    grad_theta_l4: float
    second_derivative_term: float


def _curled_noise_aggregate(config: SolverConfig, state: State) -> float:
    """|grad curl f|_{W^{0,4}}: L^4 norm in x of the mode-wise l^2 aggregate
    of sqrt(lambda_k) grad(curl(f e_k))."""
    noise = config.noise
    if noise is None:
        return 0.0
    grid = config.grid
    modes = noise.intensity.mode_samples(state.u, state.theta)
    grad_curl = gradient(perp_div_2d(SpectralVectorField(grid, samples=modes)))
    # grad_curl.samples[i, k] is the i-th derivative of mode k's curl
    a = np.sqrt(np.einsum("m,im...->...", noise.spec.eigenvalues, grad_curl.samples**2))
    return float((np.sum(a**4) * grid.cell_volume) ** 0.25)


def gronwall_record(state: State, config: SolverConfig) -> GronwallRecord:
    """Evaluate the log-Gronwall quantities at the current state."""
    if config.grid.dimension != 2:
        raise ValueError("gronwall_record requires dimension 2")
    u, theta = state.u, state.theta
    w = perp_div_2d(u)
    grad_w = gradient(w)
    grad_theta = gradient(theta)
    gw4 = lp_norm(grad_w, 4)
    gt4 = lp_norm(grad_theta, 4)
    Y = 1.0 + gw4**4 + gt4**4
    gval = 1.0 + lp_norm(u, np.inf) ** 2 + lp_norm(w, 2) + lp_norm(grad_w, 2)
    h_h0 = 0.0
    if config.control is not None:
        h_h0 = float(np.linalg.norm(config.control.value_at(state.t)))
        gval += h_h0
    noise_w44 = _curled_noise_aggregate(config, state)
    if config.control is not None:
        sigma = (1.0 + noise_w44 + noise_w44 * h_h0**0.25) ** 4
    else:
        sigma = (1.0 + noise_w44) ** 4
    z_bound = (1.0 + noise_w44) * Y**0.75
    hess = gradient(grad_w).samples  # hess[j, i] = d_j d_i w
    hess_sq = np.einsum("ji...,ji...->...", hess, hess)
    grad_w_mag_sq = np.einsum("i...,i...->...", grad_w.samples, grad_w.samples)
    second_term = float(np.sum(hess_sq * grad_w_mag_sq) * config.grid.cell_volume)
    return GronwallRecord(
        t=state.t,
        Y=Y,
        g=gval,
        sigma=sigma,
        Z_bound=z_bound,
        grad_w_l4=gw4,
        grad_theta_l4=gt4,
        second_derivative_term=second_term,
    )


# -- stopping rules -------------------------------------------------------------


#: stopping-rule kind -> the table columns whose sum it watches
RULE_COLUMNS = {"tau_R": ("linf_grad_u",), "gamma_R": ("l2_w", "l4_w", "int_grad_w_h")}


@dataclass
class StoppingRule:
    """First-passage monitor over a trajectory record; two kinds.

    kind "tau_R" watches |grad u|_inf; "gamma_R" watches |w|_{L^2} +
    |w|_{L^4} + int (|grad w|_{L^2} + |h|_{H0}) ds, whose integral is the
    table column int_grad_w_h, written once per row by solver.run.  Both read
    full diagnostic rows, fires only the last one.  Thresholds are monotone: a
    larger R never fires earlier on the same path.
    """

    kind: str
    threshold: float

    def __post_init__(self):
        if self.kind not in RULE_COLUMNS:
            raise ValueError(f"unknown stopping rule kind {self.kind!r}")

    def fires(self, record: TrajectoryRecord) -> bool:
        """Whether the functional exceeds the threshold at the last row."""
        last = sum(record.column(name)[-1] for name in RULE_COLUMNS[self.kind])
        return bool(np.isfinite(last) and last > self.threshold)

    def describe(self) -> str:
        return f"{self.kind}(threshold={self.threshold:g})"


def check_stopping(record: TrajectoryRecord, rule: StoppingRule) -> Optional[float]:
    """First recorded time the rule's running functional exceeds its threshold."""
    values = sum(record.column(name) for name in RULE_COLUMNS[rule.kind])
    hits = np.nonzero(np.isfinite(values) & (values > rule.threshold))[0]
    if len(hits) == 0:
        return None
    return float(record.column("t")[hits[0]])


def energy_budget(record: TrajectoryRecord) -> np.ndarray:
    """Per-step residuals of the deterministic kinetic-energy identity, whose
    work terms are the buoyancy's and, in a controlled run, the control's.

    Only meaningful without noise; stochastic budgets hold in expectation and
    are checked through ensembles instead, so epsilon > 0 records are refused.
    """
    if record.epsilon > 0:
        raise ValueError("energy budget applies to deterministic (epsilon=0) runs")
    return record.column("energy_residual")


# -- vorticity-form consistency --------------------------------------------------


def vorticity_consistency(
    config: SolverConfig,
    stream: Optional[RandomStream] = None,
    initial_state: Optional[State] = None,
):
    """Pathwise gap between primal-curl and an independently stepped vorticity.

    Runs the primal solver, then re-integrates the curled system (advection
    u.grad w, buoyancy d1 theta, the curl of the unprojected noise sum,
    Crank-Nicolson diffusion) from the same initial data with bitwise-identical
    Brownian increments; the velocity is reconstructed each step by
    Biot-Savart with the mean mode tracked by its own scalar equation, and
    both vorticities are compared mean-removed.  Returns a dict with per-step
    L^2 gaps and the sup over the horizon.
    """
    grid = config.grid
    if grid.dimension != 2:
        raise ValueError("vorticity consistency requires dimension 2")
    if config.cutoff_R > 0 or config.galerkin_modes is not None:
        raise ValueError("vorticity consistency applies to the untruncated system")
    if config.control is not None:
        raise ValueError("vorticity consistency applies to uncontrolled runs")
    states = []
    primal = run(
        config, stream, [lambda s, row: states.append(s)], initial_state=initial_state
    )
    dt, nu = config.dt, config.viscosity
    eps = config.epsilon

    state0 = states[0]
    w = perp_div_2d(state0.u)
    theta = state0.theta
    mean = (slice(None),) + grid.mode_index((0, 0))
    mean_u = state0.u.coefficients[mean].copy()
    cn_minus = 1.0 - 0.5 * dt * nu * grid.k2
    cn_plus = 1.0 + 0.5 * dt * nu * grid.k2

    gaps = [0.0]
    times = [0.0]
    vol_factor = 2 * np.pi  # sqrt((2 pi)^2), L^2 norm from coefficients

    for j in range(len(states) - 1):
        coeffs = biot_savart(w).coefficients.copy()
        coeffs[mean] = mean_u
        u_full = SpectralVectorField(grid, coeffs=coeffs)

        grad_w = gradient(w).samples
        adv = u_full.samples[0] * grad_w[0] + u_full.samples[1] * grad_w[1]
        adv_hat = dealias(
            SpectralScalarField.from_samples(grid, adv)
        ).coefficients
        buoy_hat = grid.deriv[0] * theta.coefficients

        rhs = cn_minus * w.coefficients + dt * (-adv_hat + buoy_hat)
        if eps > 0:
            inc = sample_increment(config.noise.spec, dt, stream, j)
            weights = np.sqrt(eps * config.noise.spec.eigenvalues) * inc
            modes = config.noise.intensity.mode_samples(u_full, theta)
            forcing = SpectralVectorField(
                grid, samples=np.einsum("m,dm...->d...", weights, modes)
            )
            rhs = rhs + perp_div_2d(forcing).coefficients
            mean_u = mean_u + forcing.coefficients[mean]
        mean_theta = theta.coefficient_at((0, 0))
        mean_u[-1] += dt * mean_theta

        w = SpectralScalarField.from_coefficients(grid, rhs / cn_plus)
        theta = advect(theta, u_full, dt, config.scheme)

        w_primal = perp_div_2d(states[j + 1].u)
        diff = w.coefficients - w_primal.coefficients
        gaps.append(float(vol_factor * np.sqrt(np.sum(np.abs(diff) ** 2))))
        times.append(states[j + 1].t)

    return {
        "times": np.array(times),
        "gaps": np.array(gaps),
        "sup_gap": float(np.max(gaps)),
        "primal": primal,
    }
