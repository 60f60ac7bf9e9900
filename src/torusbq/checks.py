"""Machine-checkable invariant battery behind the check-invariants command.

Each check runs on the configured grid and returns its measured value next to
the tolerance it was judged against, so a failing report says by how much.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .forcing import RandomStream, apply_noise, sample_increment
from .solver import (
    InitialCondition,
    SolverConfig,
    cutoff,
    run,
)
from .spectral import (
    SpectralScalarField,
    SpectralVectorField,
    biot_savart,
    divergence,
    divergence_defect,
    galerkin_project,
    implicit_diffusion_solve,
    leray_project,
    lp_norm,
    mollify,
    perp_div_2d,
    perp_grad_2d,
    sobolev_norm,
    stokes_apply,
    laplacian,
)
from .transport import AdvectionScheme, advect


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float
    detail: str = ""

    def line(self) -> str:
        flag = "PASS" if self.passed else "FAIL"
        return (
            f"{flag} {self.name}: measured {self.measured:.3e} "
            f"(tolerance {self.tolerance:.3e}) {self.detail}".rstrip()
        )


def _random_scalar(grid, seed, kmax=None):
    rng = np.random.default_rng(seed)
    f = SpectralScalarField.from_samples(grid, rng.standard_normal(grid.shape))
    return galerkin_project(f, kmax) if kmax else f


def _random_vector(grid, seed, kmax=None):
    """Component i drawn from seed + i, as _random_scalar draws it."""
    seeds = range(seed, seed + grid.dimension)
    draws = [np.random.default_rng(s).standard_normal(grid.shape) for s in seeds]
    v = SpectralVectorField(grid, samples=np.stack(draws))
    return galerkin_project(v, kmax) if kmax else v


def run_invariant_battery(config: SolverConfig) -> list:
    """All spectral/forcing/transport invariants at the configured resolution."""
    grid = config.grid
    results = []

    def record(name, measured, tolerance, detail="", larger_ok=False):
        ok = measured >= tolerance if larger_ok else measured <= tolerance
        results.append(CheckResult(name, bool(ok), float(measured), float(tolerance), detail))

    f = _random_scalar(grid, 101)
    g2 = SpectralScalarField.from_coefficients(grid, f.coefficients)
    record(
        "transform_round_trip",
        np.max(np.abs(g2.samples - f.samples)) / np.max(np.abs(f.samples)),
        1e-12,
    )

    lhs = lp_norm(f, 2) ** 2
    rhs = (2 * np.pi) ** grid.dimension * np.sum(np.abs(f.coefficients) ** 2)
    record("parseval", abs(lhs - rhs) / rhs, 1e-12)

    norms = [sobolev_norm(f, s) for s in range(5)]
    worst = max((a / b for a, b in zip(norms, norms[1:])), default=0.0)
    record("sobolev_monotone_in_s", worst, 1.0 + 1e-15, detail="max ratio H^s/H^{s+1}")

    v = _random_vector(grid, 202)
    p = leray_project(v)
    record(
        "leray_divergence_annihilation",
        lp_norm(divergence(p), 2) / sobolev_norm(v, 1),
        1e-12,
    )
    pp = leray_project(p)
    record("leray_idempotent", np.max(np.abs(p.coefficients - pp.coefficients)), 1e-12)
    resid = v - p
    per_component = np.sum(p.samples * resid.samples, axis=grid.axes)
    inner = abs(sum(per_component * grid.cell_volume))
    record("leray_orthogonal", inner / lp_norm(v, 2) ** 2, 1e-12)

    if grid.dimension == 2:
        a = perp_div_2d(perp_grad_2d(f))
        b = laplacian(f)
        record(
            "perp_identity",
            np.max(np.abs(a.coefficients - b.coefficients)),
            0.0,
            detail="bitwise per mode",
        )
        w = _random_scalar(grid, 303, kmax=grid.n // 4)
        cc = w.coefficients.copy()
        cc[grid.mode_index((0,) * grid.dimension)] = 0.0
        w = SpectralScalarField.from_coefficients(grid, cc)
        back = perp_div_2d(biot_savart(w))
        record(
            "biot_savart_curl_round_trip",
            np.max(np.abs(back.coefficients - w.coefficients)),
            1e-12,
        )

    ga = galerkin_project(f, max(2, grid.n // 4))
    gb = galerkin_project(ga, max(2, grid.n // 4))
    record(
        "galerkin_idempotent",
        float(np.max(np.abs(ga.coefficients - gb.coefficients))),
        0.0,
        detail="bitwise",
    )

    sol = leray_project(_random_vector(grid, 404, kmax=grid.n // 4))
    dt = 0.17
    back = implicit_diffusion_solve(sol, dt)
    undone = back + dt * stokes_apply(back)
    gap = np.max(np.abs(undone.coefficients - sol.coefficients))
    record("stokes_implicit_inverse_pair", gap, 1e-12)

    h = _random_scalar(grid, 505, kmax=grid.n // 4)
    hs = sobolev_norm(h, 2)
    worst_bound = 0.0
    worst_diff = 0.0
    diffs = []
    for j in range(1, 9):
        eps = 2.0**-j
        smoothed = mollify(h, eps)
        worst_bound = max(worst_bound, sobolev_norm(smoothed, 2) / hs)
        worst_diff = max(worst_diff, sobolev_norm(smoothed - h, 1) / (eps * hs))
        diffs.append(sobolev_norm(smoothed - h, 2))
    record("mollifier_uniform_bound", worst_bound, 1.0 + 1e-12)
    record("mollifier_difference_bound", worst_diff, 1.0)
    monotone = all(x >= y for x, y in zip(diffs, diffs[1:]))
    record(
        "mollifier_convergence",
        diffs[-1] / hs,
        1e-2,
        detail="monotone" if monotone else "NOT monotone",
    )
    if not monotone:
        results[-1].passed = False

    record("cutoff_left_plateau", abs(cutoff(0.9, 1.0) - 1.0), 0.0, detail="bitwise 1")
    record("cutoff_right_plateau", abs(cutoff(2.1, 1.0)), 0.0, detail="bitwise 0")
    record("cutoff_midpoint", abs(cutoff(1.5, 1.0) - 0.5), 1e-12)

    s1 = RandomStream(12345, 7).normals(3, 8)
    s2 = RandomStream(12345, 7).normals(3, 8)
    record(
        "stream_reproducibility",
        float(np.max(np.abs(s1 - s2))),
        0.0,
        detail="bitwise",
    )

    theta = _random_scalar(grid, 606, kmax=grid.n // 4)
    out = advect(theta, SpectralVectorField.zero(grid), 0.1, config.scheme)
    record(
        "advect_zero_velocity_identity",
        0.0 if out is theta else 1.0,
        0.0,
        detail="same object",
    )

    mesh = grid.x_mesh
    shear = [np.sin(mesh[-1])] + [np.zeros(grid.shape)] * (grid.dimension - 1)
    u = SpectralVectorField.from_samples(grid, *shear)
    linear = AdvectionScheme("semi_lagrangian", "linear")
    t2 = theta
    sup0 = lp_norm(theta, np.inf)
    worst = 0.0
    for _ in range(50):
        t2 = advect(t2, u, 0.05, linear)
        worst = max(worst, lp_norm(t2, np.inf))
    record("advect_max_principle_linear", worst, sup0, detail="sup never grows")

    if config.noise is not None:
        forced = apply_noise(
            config.noise,
            _random_vector(grid, 707, kmax=grid.n // 4),
            theta,
            sample_increment(config.noise.spec, 0.1, RandomStream(9), 0),
        )
        record("noise_divergence_free", divergence_defect(forced), 1e-12)

    mini = SolverConfig(
        grid=grid,
        dt=0.01,
        t_end=0.1,
        viscosity=config.viscosity,
        init=InitialCondition(temperature="constant", temperature_amplitude=1.0),
    )
    rec = run(mini)
    got = rec.final_state.u.coefficients[
        (grid.dimension - 1,) + grid.mode_index((0,) * grid.dimension)
    ]
    record("constant_mode_buoyancy_exact", abs(got - 0.1), 1e-10)
    record(
        "energy_residual_constant_mode",
        float(np.max(np.abs(rec.column("energy_residual")))),
        1e-10,
    )

    mini = SolverConfig(
        grid=grid, dt=0.01, t_end=0.1, init=InitialCondition(velocity="shear")
    )
    l2_u = run(mini).column("l2_u")
    expect = (1 + 0.01) ** (-10)
    record(
        "shear_decay_matches_scheme",
        abs(l2_u[-1] / l2_u[0] - expect),
        1e-12,
    )

    return results
