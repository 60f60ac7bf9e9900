"""Diffusion-free temperature advection  d theta + (u . grad) theta dt = 0.

Two discretisations:

* semi-Lagrangian characteristics (default): one midpoint backtrace
  X = x - dt u(x - dt/2 u(x)) with periodic wrapping, then interpolation of
  theta at the departure points.  Linear interpolation keeps the discrete
  maximum principle exactly (results are additionally clipped to the incoming
  range to guard the last floating-point ulp); cubic interpolation is fourth
  order in space but may overshoot slightly.

* dealiased pseudo-spectral RK2 on -u . grad theta (2/3 rule on the product),
  which preserves the temperature mean to rounding for incompressible u.

The CFL number dt |u|_inf / h is an accuracy contract, not a stability limit,
for the semi-Lagrangian path; callers flag violations on their step records
via cfl_number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import map_coordinates

from .spectral import (
    SpectralScalarField,
    SpectralVectorField,
    dealias,
    gradient,
    gradient_summary,
    lp_norm,
)


@dataclass(frozen=True)
class AdvectionScheme:
    """Transport discretisation choice.

    kind: "semi_lagrangian" or "spectral_rk2".
    interpolation: "cubic" or "linear" (semi-Lagrangian only; linear is the
        L^inf-certified configuration).
    """

    kind: str = "semi_lagrangian"
    interpolation: str = "cubic"

    def __post_init__(self):
        if self.kind not in ("semi_lagrangian", "spectral_rk2"):
            raise ValueError(f"unknown advection kind {self.kind!r}")
        if self.interpolation not in ("cubic", "linear"):
            raise ValueError(f"unknown interpolation {self.interpolation!r}")


def cfl_number(u: SpectralVectorField, dt: float) -> float:
    """dt |u|_inf / h, checked against the configured cap by the stepper."""
    return dt * lp_norm(u, np.inf) / u.grid.spacing


def _interp_order(scheme: AdvectionScheme) -> int:
    return 3 if scheme.interpolation == "cubic" else 1


def _interpolate(samples: np.ndarray, coords: np.ndarray, order: int) -> np.ndarray:
    """samples at fractional index coords, wrapped periodically.  A point with
    a coordinate that is non-finite or at least 2**52 in magnitude, where
    float64 keeps no fraction and scipy's wrap reads outside the array,
    samples NaN: a runaway velocity then always stops a run the same way."""
    valid = np.abs(coords) < 2.0**52
    if not valid.all():
        valid = valid.all(axis=0)
        values = np.full(valid.shape, np.nan)
        values[valid] = _interpolate(samples, coords[:, valid], order)
        return values
    return map_coordinates(
        samples, coords, order=order, mode="grid-wrap", prefilter=(order > 1)
    )


def _departure_coords(u: SpectralVectorField, dt: float, order: int) -> np.ndarray:
    """Backtracked departure points in fractional index units."""
    grid = u.grid
    h = grid.spacing
    base = np.stack(
        np.meshgrid(*([np.arange(grid.n, dtype=np.float64)] * grid.dimension), indexing="ij")
    )
    vel = u.samples / h  # index units per time
    half = base - (0.5 * dt) * vel
    vel_half = np.stack([_interpolate(c, half, order) for c in u.samples]) / h
    return base - dt * vel_half


def _advect_semi_lagrangian(theta, u, dt, scheme) -> SpectralScalarField:
    order = _interp_order(scheme)
    coords = _departure_coords(u, dt, order)
    values = _interpolate(theta.samples, coords, order)
    if scheme.interpolation == "linear":
        # exact in real arithmetic; guards rounding so the max principle is bitwise
        values = np.clip(values, theta.samples.min(), theta.samples.max())
    return SpectralScalarField.from_samples(theta.grid, values)


def _advect_spectral_rk2(theta, u, dt) -> SpectralScalarField:
    grid = theta.grid

    def tendency(coeffs):
        grad = gradient(SpectralScalarField(grid, coeffs=coeffs)).samples
        total = np.einsum("i...,i...->...", u.samples, grad)
        return -dealias(SpectralScalarField(grid, samples=total)).coefficients

    c0 = theta.coefficients
    k1 = tendency(c0)
    k2 = tendency(c0 + dt * k1)
    return SpectralScalarField.from_coefficients(grid, c0 + 0.5 * dt * (k1 + k2))


def advect(
    theta: SpectralScalarField,
    u: SpectralVectorField,
    dt: float,
    scheme: AdvectionScheme = AdvectionScheme(),
) -> SpectralScalarField:
    """Transport theta through the frozen velocity u for one step of size dt.

    A velocity that is identically zero returns theta unchanged, bitwise.
    """
    if theta.grid != u.grid:
        raise ValueError("theta and u live on different grids")
    if dt == 0.0 or not np.any(u.samples):
        return theta
    if scheme.kind == "semi_lagrangian":
        return _advect_semi_lagrangian(theta, u, dt, scheme)
    return _advect_spectral_rk2(theta, u, dt)


def grad_sup(theta: SpectralScalarField) -> float:
    """Max over the grid of the Euclidean norm of the spectral gradient."""
    return lp_norm(gradient(theta), np.inf)


def velocity_grad_sup(u: SpectralVectorField) -> float:
    """Max over the grid of the Frobenius norm of the velocity gradient.

    Read from u's cached gradient_summary, so it costs no transform when the
    stepper or the diagnostic row has already asked for it.
    """
    return gradient_summary(u).sup
