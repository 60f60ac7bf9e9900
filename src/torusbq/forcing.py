"""Trace-class Wiener forcing: mode spectra, reproducible streams, intensities.

The driving noise is W(t) = sum_k sqrt(lambda_k) e_k W_k(t) over a finite list
of real torus modes (a cos/sin pair per retained wavenumber).  Intensities map
each basis mode to a velocity-space vector field: a fixed divergence-free
family in additive mode, or an affine diagonal Nemytskii envelope
(a0 + a1 u_i + a2 theta) times the same family in multiplicative mode.

The one forcing object is a NoiseModel, which checks once that spectrum and
intensity retain the same modes; every forcing call takes the model.  The
intensity keeps its m modes as one (d, m, *grid) samples stack, in the spectral
module's stack layout, so a sum or an operator over the modes is one call.

An additive force is a fixed linear combination of fixed fields, and P is
linear, so the model projects each base field once, P f_k, and keeps those
coefficients on their support only (SUPPORT_RTOL): a weighted sum of them,
for a noise increment or a control, costs no transform.  A multiplicative
force depends on the state, so its sum is transformed and projected per call.

Streams are counter-based (Philox) and keyed by (master seed, path index,
step index), so ensembles are reproducible in any evaluation order; each
stream reuses one generator, resetting its counter per step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import product
from typing import Optional, Sequence

import numpy as np

from .spectral import (
    Grid,
    SpectralVectorField,
    leray_project,
)


class RandomStream:
    """Counter-based Gaussian stream for one simulated path.

    The tuple (master_seed, path_index, step_index, draw position) fully
    determines every variate.  The stream builds one Philox generator, keyed
    by (master_seed, path_index), and each normals call resets its counter to
    [0, step_index, 0, 0] and clears its buffer first.  A draw is thus
    bitwise that of a freshly built generator, so distinct paths and steps
    can be drawn independently and in any order.  The generator is mutable
    state, so one stream must not be drawn from by two threads at once.
    """

    def __init__(self, master_seed: int, path_index: int = 0):
        self.master_seed = int(master_seed)
        self.path_index = int(path_index)
        self._bitgen = np.random.Philox(
            key=np.array(
                [self.master_seed & 0xFFFFFFFFFFFFFFFF, self.path_index],
                dtype=np.uint64,
            )
        )
        self._generator = np.random.Generator(self._bitgen)
        # the state of a generator that has drawn nothing; normals sets its counter
        self._fresh_state = self._bitgen.state

    def normals(self, step_index: int, count: int) -> np.ndarray:
        """`count` standard normals for the given step."""
        self._fresh_state["state"]["counter"][1] = int(step_index)
        self._bitgen.state = self._fresh_state
        return self._generator.standard_normal(count)


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


def _half_space_wavenumbers(dimension: int, count: int):
    """Every k > 0 (lexicographically, the canonical half-space) with |k|_inf
    up to the least radius giving at least `count` of them, shell by shell in
    |k|_inf, then by |k|^2, then lexicographically: (3, 3) precedes (4, 0)."""
    radius = 1
    while (2 * radius + 1) ** dimension // 2 < count:
        radius += 1
    ks = product(range(-radius, radius + 1), repeat=dimension)
    return sorted(
        (k for k in ks if k > (0,) * dimension),
        key=lambda k: (max(map(abs, k)), sum(v * v for v in k), k),
    )


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
    if n_modes < 1:
        raise ValueError(f"n_modes must be at least 1, got {n_modes}")
    if not math.isfinite(gamma):
        raise ValueError(f"gamma must be finite, got {gamma}")
    modes = []
    lams = []
    if include_mean:
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


def sample_increment(
    spec: QWienerSpec, dt: float, stream: RandomStream, step_index: int = 0
) -> np.ndarray:
    """Normal(0, dt) increments per retained mode, fixed by (stream, step_index)."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return stream.normals(step_index, spec.truncation) * np.sqrt(dt)


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
    # a mode with |k_i| >= n/2 aliases onto another one or vanishes (sin at n/2)
    k_max = max((abs(ki) for k, _ in spec.modes for ki in k), default=0)
    if k_max >= grid.n // 2:
        msg = f"n_modes {spec.truncation} reaches |k_i| = {k_max} >= n/2"
        raise ValueError(f"{msg} = {grid.n // 2}, which the grid cannot resolve")
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

    "additive" returns the fixed base fields; "multiplicative" applies the
    diagonal affine envelope (a0 + a1 u_i + a2 theta) componentwise.  The
    base fields must be nonempty and share one grid, which becomes `grid`;
    absent noise is `noise=None` in the solver configuration, not a mode.
    """

    mode: str
    base_fields: tuple = ()
    a0: float = 1.0
    a1: float = 0.0
    a2: float = 0.0
    grid: Grid = field(init=False)
    _stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.mode not in ("additive", "multiplicative"):
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if not self.base_fields:
            raise ValueError(f"{self.mode} noise needs base fields")
        for name in ("a0", "a1", "a2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        self.grid = self.base_fields[0].grid
        if any(f.grid != self.grid for f in self.base_fields):
            raise ValueError("base fields live on different grids")
        # the base fields become views of the one (d, m, *grid) stack
        self._stack = np.stack([f.samples for f in self.base_fields], axis=1)
        self.base_fields = tuple(
            SpectralVectorField(self.grid, samples=s)
            for s in self._stack.swapaxes(0, 1)
        )

    def mode_samples(self, u, theta) -> np.ndarray:
        """The (d, m, *grid) samples stack of every f(u, theta) e_k, before
        projection, from one envelope evaluation (additive: the base stack)."""
        if self.mode == "additive":
            return self._stack
        envelope = self.a0 + self.a1 * u.samples + self.a2 * theta.samples
        return self._stack * envelope[:, None]


def additive_intensity(fields: Sequence[SpectralVectorField]):
    return NoiseIntensity("additive", base_fields=tuple(fields))


#: A projected coefficient of an additive intensity is kept only when its
#: magnitude exceeds SUPPORT_RTOL times the largest one of the stack.  Off a
#: single Fourier mode's support the transform leaves rounding of at most
#: ~2e-16 of the peak; the cut sits some 500 times above that, so rounding
#: never widens the support, while a genuine coefficient it drops is below
#: 1e-13 of the peak, well inside any tolerance a sum of the modes is held to.
SUPPORT_RTOL = 1e-13


def _projected_support(intensity: NoiseIntensity):
    """(support, projected): the flat grid positions where some P f_k has a
    coefficient above SUPPORT_RTOL times the stack's peak, and the (d, m, S)
    coefficients of every P f_k there, those below the threshold set to 0.

    One base field is transformed and projected at a time, so no dense
    (d, m, *grid) coefficient stack is built.  Each mode first keeps the
    positions above SUPPORT_RTOL times its own peak, a superset of its final
    support, since the stack's peak is at least the mode's.
    """
    grid = intensity.grid
    d = grid.dimension
    kept = []
    peak = 0.0
    for base in intensity.base_fields:
        # a new field, so the coefficients are not cached on the base field
        fresh = SpectralVectorField(grid, samples=base.samples)
        coeffs = leray_project(fresh).coefficients.reshape(d, -1)
        magnitude = np.abs(coeffs).max(axis=0)
        mode_peak = float(magnitude.max())
        positions = np.flatnonzero(magnitude > SUPPORT_RTOL * mode_peak)
        kept.append((positions, coeffs[:, positions]))
        peak = max(peak, mode_peak)
    support = np.unique(np.concatenate([positions for positions, _ in kept]))
    projected = np.zeros((d, len(kept), support.size), dtype=np.complex128)
    for k, (positions, coeffs) in enumerate(kept):
        projected[:, k, np.searchsorted(support, positions)] = coeffs
    projected[np.abs(projected) <= SUPPORT_RTOL * peak] = 0.0
    nonzero = np.any(projected != 0.0, axis=(0, 1))
    return support[nonzero], projected[:, :, nonzero]


@dataclass
class NoiseModel:
    """Covariance spectrum plus the intensity mapping its modes to force
    fields; the mode counts are checked here, once, and sqrt(lambda_k) kept.

    An additive intensity also keeps its projected base fields P f_k on their
    support (see _projected_support): `support` holds flat grid positions and
    `projected` the (d, m, len(support)) coefficients there.  Both are None
    for a multiplicative intensity, whose fields follow the state.
    """

    spec: QWienerSpec
    intensity: NoiseIntensity
    sqrt_eigenvalues: np.ndarray = field(init=False, repr=False)
    support: Optional[np.ndarray] = field(init=False, repr=False, default=None)
    projected: Optional[np.ndarray] = field(init=False, repr=False, default=None)

    def __post_init__(self):
        n_fields = len(self.intensity.base_fields)
        if n_fields != self.spec.truncation:
            raise ValueError(
                f"intensity carries {n_fields} fields but spec "
                f"retains {self.spec.truncation} modes"
            )
        self.sqrt_eigenvalues = np.sqrt(self.spec.eigenvalues)
        if self.intensity.mode == "additive":
            self.support, self.projected = _projected_support(self.intensity)


def weighted_sum(noise: NoiseModel, u, theta, weights) -> SpectralVectorField:
    """Leray projection of sum_k sqrt(lambda_k) weights_k f(u, theta) e_k.

    The common core of the stochastic forcing (weights = Brownian increments)
    and the control drift (weights = control coordinates in H0).  Additive:
    one einsum over the stored P f_k, scattered into a zero coefficient stack,
    with no transform.  Multiplicative: the samples are summed, transformed
    once and projected.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != noise.sqrt_eigenvalues.shape:
        raise ValueError("one weight per retained mode required")
    scaled = noise.sqrt_eigenvalues * weights
    grid = noise.intensity.grid
    if noise.intensity.mode == "multiplicative":
        stack = noise.intensity.mode_samples(u, theta)
        summed = np.einsum("m,dm...->d...", scaled, stack)
        return leray_project(SpectralVectorField.from_sample_stack(grid, summed))
    d = grid.dimension
    coeffs = np.zeros((d, grid.n**d), dtype=np.complex128)
    coeffs[:, noise.support] = np.einsum("m,dms->ds", scaled, noise.projected)
    return SpectralVectorField(grid, coeffs=coeffs.reshape((d,) + grid.shape))


def apply_noise(noise: NoiseModel, u, theta, inc: np.ndarray) -> SpectralVectorField:
    """P sum_k sqrt(lambda_k) f(u, theta) e_k dW_k with dW = inc; divergence-free."""
    return weighted_sum(noise, u, theta, inc)

