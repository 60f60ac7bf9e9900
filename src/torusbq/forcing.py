"""Trace-class Wiener forcing: mode spectra, reproducible streams, intensities.

The driving noise is W(t) = sum_k sqrt(lambda_k) e_k W_k(t) over a finite list
of real torus modes (a cos/sin pair per retained wavenumber).  Intensities map
each basis mode to a velocity-space vector field: a fixed divergence-free
family in additive mode, or an affine diagonal Nemytskii envelope
(a0 + a1 u_i + a2 theta) times the same family in multiplicative mode.

Streams are counter-based (Philox) and keyed by (master seed, path index,
step index), so ensembles are reproducible in any evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .spectral import (
    Grid,
    SpectralScalarField,
    SpectralVectorField,
    leray_project,
    sobolev_norm,
)


class RandomStream:
    """Stateless counter-based Gaussian stream for one simulated path.

    The tuple (master_seed, path_index, step_index, draw position) fully
    determines every variate, so distinct paths and steps can be generated
    independently and in any order.
    """

    def __init__(self, master_seed: int, path_index: int = 0):
        self.master_seed = int(master_seed)
        self.path_index = int(path_index)

    def for_path(self, path_index: int) -> "RandomStream":
        """Stream for another path under the same master seed."""
        return RandomStream(self.master_seed, path_index)

    def normals(self, step_index: int, count: int) -> np.ndarray:
        """`count` standard normals for the given step."""
        if count == 0:
            return np.empty(0)
        bitgen = np.random.Philox(
            key=np.array(
                [self.master_seed & 0xFFFFFFFFFFFFFFFF, self.path_index],
                dtype=np.uint64,
            ),
            counter=np.array([0, int(step_index), 0, 0], dtype=np.uint64),
        )
        return np.random.Generator(bitgen).standard_normal(count)


@dataclass(frozen=True)
class QWienerSpec:
    """Retained noise modes and their covariance eigenvalues.

    modes: tuple of (wavenumber tuple, parity) with parity in {"cos", "sin"};
    eigenvalues: lambda_k >= 0, one per retained mode.
    """

    modes: tuple
    eigenvalues: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        object.__setattr__(self, "eigenvalues", lam)
        if lam.shape != (len(self.modes),):
            raise ValueError("one eigenvalue per mode required")
        if not np.all(np.isfinite(lam)) or np.any(lam < 0):
            raise ValueError("eigenvalues must be finite and nonnegative")

    @property
    def truncation(self) -> int:
        return len(self.modes)

    @property
    def trace(self) -> float:
        return float(np.sum(self.eigenvalues))


def _half_space_wavenumbers(dimension: int, count: int):
    """Canonical half-space wavenumbers ordered by |k|^2 then lexicographically."""
    out = []
    radius = 1
    while len(out) < count:
        rng = range(-radius, radius + 1)
        ks = []
        if dimension == 2:
            candidates = [(a, b) for a in rng for b in rng]
        else:
            candidates = [(a, b, c) for a in rng for b in rng for c in rng]
        for k in candidates:
            if all(v == 0 for v in k):
                continue
            first = next(v for v in k if v != 0)
            if first < 0:
                continue
            if max(abs(v) for v in k) == radius:
                ks.append(k)
        ks.sort(key=lambda k: (sum(v * v for v in k), k))
        out.extend(ks)
        radius += 1
    return out


def default_qwiener(
    dimension: int,
    n_modes: int,
    gamma: float = 2.0,
    lambda0: float = 1.0,
    include_mean: bool = True,
) -> QWienerSpec:
    """Spectrum lambda_k = |k|^(-2 gamma) with the mean mode fixed separately.

    Each wavenumber in the canonical half-space contributes a cos and a sin
    mode; the mean mode (k = 0) appears once, with eigenvalue lambda0.
    """
    if n_modes < 0:
        raise ValueError("n_modes must be nonnegative")
    modes = []
    lams = []
    if include_mean and n_modes > 0:
        modes.append(((0,) * dimension, "cos"))
        lams.append(lambda0)
    ks = _half_space_wavenumbers(dimension, n_modes)
    for k in ks:
        for parity in ("cos", "sin"):
            if len(modes) >= n_modes:
                break
            modes.append((k, parity))
            lams.append(float(sum(v * v for v in k)) ** (-gamma))
    return QWienerSpec(tuple(modes[:n_modes]), np.array(lams[:n_modes]))


@dataclass
class NoiseIncrement:
    """One step's Gaussian increments, Normal(0, dt) per retained mode."""

    coefficients: np.ndarray
    dt: float


def sample_increment(
    spec: QWienerSpec, dt: float, stream: RandomStream, step_index: int = 0
) -> NoiseIncrement:
    """Draw the step's increments; deterministic in (stream, step_index)."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    z = stream.normals(step_index, spec.truncation)
    return NoiseIncrement(z * np.sqrt(dt), dt)


def _mode_direction(k, dimension):
    """Unit vector orthogonal to k (divergence-free direction for mode k)."""
    if all(v == 0 for v in k):
        e = np.zeros(dimension)
        e[0] = 1.0
        return e
    kv = np.array(k, dtype=np.float64)
    if dimension == 2:
        perp = np.array([-kv[1], kv[0]])
    else:
        axis = np.zeros(3)
        axis[int(np.argmin(np.abs(kv)))] = 1.0
        perp = np.cross(kv, axis)
    return perp / np.linalg.norm(perp)


def default_mode_fields(grid: Grid, spec: QWienerSpec, amplitude: float = 1.0):
    """Divergence-free base fields cos/sin(k.x) times a unit vector normal to k."""
    fields = []
    for k, parity in spec.modes:
        phase = sum(ki * x for ki, x in zip(k, grid.x_mesh))
        e = np.cos(phase) if parity == "cos" else np.sin(phase)
        direction = _mode_direction(k, grid.dimension)
        comps = [amplitude * direction[i] * e for i in range(grid.dimension)]
        fields.append(SpectralVectorField.from_samples(grid, *comps))
    return fields


@dataclass
class NoiseIntensity:
    """Maps Wiener basis modes to velocity-space forcing fields.

    mode "off" forces nothing; "additive" returns the fixed base fields;
    "multiplicative" applies the diagonal affine envelope
    (a0 + a1 u_i + a2 theta) componentwise.  The linear-growth and Lipschitz
    constants C1 = |a0|+|a1|+|a2| and C2 = |a1|+|a2| are exposed for
    reporting.
    """

    mode: str
    grid: Optional[Grid] = None
    base_fields: tuple = ()
    a0: float = 1.0
    a1: float = 0.0
    a2: float = 0.0
    _stack: np.ndarray = field(init=False, repr=False, default=None)

    def __post_init__(self):
        if self.mode not in ("off", "additive", "multiplicative"):
            raise ValueError(f"unknown noise mode {self.mode!r}")
        self.base_fields = tuple(self.base_fields)
        if self.mode != "off":
            if not self.base_fields:
                raise ValueError(f"{self.mode} noise needs base fields")
            grid = self.base_fields[0].grid
            if self.grid is None:
                self.grid = grid
            if any(f.grid != grid for f in self.base_fields):
                raise ValueError("base fields live on different grids")
            self._stack = np.stack(
                [
                    np.stack([c.samples for c in f.components])
                    for f in self.base_fields
                ]
            )

    @property
    def n_fields(self) -> int:
        return len(self.base_fields)

    @property
    def lipschitz_constant(self) -> float:
        return abs(self.a1) + abs(self.a2)

    @property
    def growth_constant(self) -> float:
        return abs(self.a0) + abs(self.a1) + abs(self.a2)

    def mode_samples(self, u, theta, t: float = 0.0) -> np.ndarray:
        """Stacked (n_modes, d, grid) samples of f(u, theta) e_k at time t."""
        if self.mode == "off":
            raise ValueError("noise is off")
        if self.mode == "additive":
            return self._stack
        b = np.stack(
            [
                self.a0 + self.a1 * c.samples + self.a2 * theta.samples
                for c in u.components
            ]
        )
        return self._stack * b[np.newaxis]

    def mode_field(self, index: int, u=None, theta=None, t: float = 0.0):
        """Single f(u, theta) e_k as a vector field (before projection)."""
        if self.mode == "additive" or self.mode == "off":
            return self.base_fields[index]
        samples = self.mode_samples(u, theta, t)[index]
        return SpectralVectorField.from_samples(self.grid, *samples)


def additive_intensity(fields: Sequence[SpectralVectorField]):
    return NoiseIntensity("additive", base_fields=tuple(fields))


def multiplicative_intensity(
    fields: Sequence[SpectralVectorField], a0=1.0, a1=0.0, a2=0.0
):
    return NoiseIntensity(
        "multiplicative", base_fields=tuple(fields), a0=a0, a1=a1, a2=a2
    )


def _check_counts(f: NoiseIntensity, spec: QWienerSpec):
    if f.mode != "off" and f.n_fields != spec.truncation:
        raise ValueError(
            f"intensity carries {f.n_fields} fields but spec retains "
            f"{spec.truncation} modes"
        )


def weighted_sum(
    f: NoiseIntensity, spec: QWienerSpec, u, theta, weights, t: float = 0.0
) -> SpectralVectorField:
    """Leray projection of sum_k sqrt(lambda_k) weights_k f(u, theta) e_k.

    The common core of the stochastic forcing (weights = Brownian increments)
    and the control drift (weights = control coordinates in H0).
    """
    _check_counts(f, spec)
    grid = f.grid if f.mode != "off" else u.grid
    weights = np.asarray(weights, dtype=np.float64)
    if f.mode == "off" or weights.size == 0:
        return SpectralVectorField.zero(grid)
    if weights.shape != (spec.truncation,):
        raise ValueError("one weight per retained mode required")
    stack = f.mode_samples(u, theta, t)
    w = np.sqrt(spec.eigenvalues) * weights
    summed = np.einsum("m,md...->d...", w, stack)
    return leray_project(SpectralVectorField.from_samples(grid, *summed))


def apply_noise(
    f: NoiseIntensity, spec: QWienerSpec, u, theta, inc: NoiseIncrement, t: float = 0.0
) -> SpectralVectorField:
    """P sum_k sqrt(lambda_k) f(u, theta) e_k dW_k; divergence-free output."""
    return weighted_sum(f, spec, u, theta, inc.coefficients, t)


def hs_norm(
    f: NoiseIntensity, spec: QWienerSpec, u, theta, s: int, t: float = 0.0
) -> float:
    """Hilbert-Schmidt norm sqrt(sum_k lambda_k |P f(u,theta) e_k|_{H^s}^2)."""
    _check_counts(f, spec)
    if f.mode == "off" or spec.truncation == 0:
        return 0.0
    total = 0.0
    for i in range(spec.truncation):
        lam = spec.eigenvalues[i]
        if lam == 0.0:
            continue
        projected = leray_project(f.mode_field(i, u, theta, t))
        total += lam * sobolev_norm(projected, s) ** 2
    return float(np.sqrt(total))


def ito_isometry_estimate(
    f: NoiseIntensity,
    spec: QWienerSpec,
    u,
    theta,
    dt: float,
    n_steps: int,
    n_paths: int,
    stream: RandomStream,
):
    """Monte Carlo check of E|int P f dW|^2 = T * |P f|_{HS}^2 at frozen state.

    Both sides use the coefficient (H^0) norm.  Returns (lhs, rhs,
    relative_gap).  Increments are summed per path before a single intensity
    application, which is exact here because the state is frozen.
    """
    if n_paths <= 0:
        raise ValueError("n_paths must be positive")
    rhs = n_steps * dt * hs_norm(f, spec, u, theta, 0) ** 2
    acc = np.zeros(n_paths)
    for p in range(n_paths):
        sp = stream.for_path(p)
        total = np.zeros(spec.truncation)
        for j in range(n_steps):
            total += sample_increment(spec, dt, sp, j).coefficients
        summed = weighted_sum(f, spec, u, theta, total)
        acc[p] = sobolev_norm(summed, 0) ** 2
    lhs = float(np.sum(acc) / n_paths)
    if rhs == 0.0:
        gap = 0.0 if lhs == 0.0 else np.inf
    else:
        gap = abs(lhs - rhs) / rhs
    return lhs, rhs, gap
