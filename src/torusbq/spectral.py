"""Spectral core: torus grids, Fourier transforms, differential operators and norms.

Everything lives on the periodic box (-pi, pi)^d, d in {2, 3}, sampled on a
uniform n^d grid with n a power of two.  Fourier coefficients follow the
convention

    u_hat(k) = (2 pi)^{-d} * integral of u(x) exp(-i k.x) dx,

so a single mode sin(x_1) has u_hat(+-e_1) = -+ i/2 and the discrete Sobolev
norm  sqrt(sum_k (1+|k|^2)^s |u_hat(k)|^2)  needs no extra constants.

Derivative multipliers zero the Nyquist mode (k = n/2) so derivatives of real
fields stay real.  Fields cache both representations and are treated as
immutable; operations return new fields.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

#: Largest Sobolev index accepted by sobolev_norm.
SOBOLEV_INDEX_CAP = 8

_DIV_FREE_RTOL = 1e-10


class Grid:
    """Uniform periodic grid on (-pi, pi)^d with cached spectral machinery.

    Attributes:
        dimension: spatial dimension, 2 or 3.
        n: points per axis (power of two, >= 4).
        k1d: per-axis integer wavenumbers in FFT layout, Nyquist labelled +n/2.
        k2: |k|^2 on the full mode grid.
        phase: (-1)^(k_1+...+k_d), converts FFT phases to x in (-pi, pi)^d.
        deriv: per-axis multipliers i*k with the Nyquist entry zeroed.
        dealias_mask: True where |k_i| <= n//3 on every axis (2/3 rule).
    """

    def __init__(self, dimension: int, n: int):
        if dimension not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {dimension}")
        if n < 4 or n % 2 != 0 or (n & (n - 1)) != 0:
            raise ValueError(f"resolution must be a power of two >= 4, got {n}")
        self.dimension = dimension
        self.n = n
        self.shape = (n,) * dimension
        self.spacing = 2.0 * np.pi / n
        self.cell_volume = self.spacing**dimension

        k = np.fft.fftfreq(n, d=1.0 / n).astype(np.int64)
        k[n // 2] = n // 2  # label Nyquist +n/2
        self.k1d = k
        axes = []
        derivs = []
        for ax in range(dimension):
            shape = [1] * dimension
            shape[ax] = n
            ka = k.reshape(shape)
            axes.append(ka)
            dk = 1j * ka.astype(np.float64)
            dk = dk.copy()
            nyq = [slice(None)] * dimension
            nyq[ax] = n // 2
            dk[tuple(nyq)] = 0.0
            derivs.append(dk)
        self.k_axes = axes
        self.deriv = derivs
        # Derivative-consistent real wavenumbers (Nyquist zeroed), used by the
        # Leray projector so div(P v) vanishes under the same convention.
        self.k_masked = [d.imag.copy() for d in derivs]
        self.k2_masked = reduce(np.add, (km**2 for km in self.k_masked))
        self.k2 = reduce(np.add, (ka.astype(np.float64) ** 2 for ka in axes))
        ksum = reduce(np.add, axes)
        self.phase = np.where(ksum % 2 == 0, 1.0, -1.0)
        cut = n // 3
        self.dealias_mask = reduce(
            np.logical_and, (np.abs(ka) <= cut for ka in axes)
        )
        x = -np.pi + self.spacing * np.arange(n)
        self.x1d = x
        self.x_mesh = np.meshgrid(*([x] * dimension), indexing="ij")

    def mode_index(self, k) -> tuple:
        """Array index of wavenumber k (tuple of ints)."""
        return tuple(int(ki) % self.n for ki in k)

    def __eq__(self, other):
        return (
            isinstance(other, Grid)
            and other.dimension == self.dimension
            and other.n == self.n
        )

    def __hash__(self):
        return hash((self.dimension, self.n))

    def __repr__(self):
        return f"Grid(dimension={self.dimension}, n={self.n})"


class SpectralScalarField:
    """Real scalar field with lazily synchronised physical/spectral views.

    Construct with from_samples or from_coefficients; the missing
    representation is computed on first access and cached.  Instances are
    immutable once both views exist.
    """

    __slots__ = ("grid", "_samples", "_coeffs")

    def __init__(self, grid: Grid, samples=None, coeffs=None):
        if samples is None and coeffs is None:
            raise ValueError("need at least one representation")
        self.grid = grid
        self._samples = samples
        self._coeffs = coeffs

    @classmethod
    def from_samples(cls, grid: Grid, samples) -> "SpectralScalarField":
        samples = np.asarray(samples, dtype=np.float64)
        if samples.shape != grid.shape:
            raise ValueError(f"samples shape {samples.shape} != grid {grid.shape}")
        return cls(grid, samples=samples)

    @classmethod
    def from_coefficients(cls, grid: Grid, coeffs) -> "SpectralScalarField":
        coeffs = np.asarray(coeffs, dtype=np.complex128)
        if coeffs.shape != grid.shape:
            raise ValueError(f"coeffs shape {coeffs.shape} != grid {grid.shape}")
        return cls(grid, coeffs=coeffs)

    @classmethod
    def zero(cls, grid: Grid) -> "SpectralScalarField":
        return cls(grid, samples=np.zeros(grid.shape))

    @property
    def samples(self):
        if self._samples is None:
            g = self.grid
            self._samples = np.real(np.fft.ifftn(self._coeffs * g.phase)) * g.n**g.dimension
        return self._samples

    @property
    def coefficients(self):
        if self._coeffs is None:
            g = self.grid
            self._coeffs = g.phase * np.fft.fftn(self._samples) / g.n**g.dimension
        return self._coeffs

    def coefficient_at(self, k) -> complex:
        """Single Fourier coefficient u_hat(k) for an integer wavenumber tuple."""
        return complex(self.coefficients[self.grid.mode_index(k)])

    def __add__(self, other):
        self._check(other)
        return SpectralScalarField.from_coefficients(
            self.grid, self.coefficients + other.coefficients
        )

    def __sub__(self, other):
        self._check(other)
        return SpectralScalarField.from_coefficients(
            self.grid, self.coefficients - other.coefficients
        )

    def __mul__(self, scalar):
        return SpectralScalarField.from_coefficients(
            self.grid, self.coefficients * float(scalar)
        )

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def _check(self, other):
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")


class SpectralVectorField:
    """d-component vector field; all components share one grid."""

    __slots__ = ("grid", "components")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise ValueError("empty component list")
        grid = components[0].grid
        if len(components) != grid.dimension:
            raise ValueError(
                f"expected {grid.dimension} components, got {len(components)}"
            )
        if any(c.grid != grid for c in components):
            raise ValueError("components live on different grids")
        self.grid = grid
        self.components = components

    @classmethod
    def from_samples(cls, grid: Grid, *component_samples) -> "SpectralVectorField":
        return cls([SpectralScalarField.from_samples(grid, s) for s in component_samples])

    @classmethod
    def zero(cls, grid: Grid) -> "SpectralVectorField":
        return cls([SpectralScalarField.zero(grid) for _ in range(grid.dimension)])

    def __add__(self, other):
        return SpectralVectorField([a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other):
        return SpectralVectorField([a - b for a, b in zip(self.components, other.components)])

    def __mul__(self, scalar):
        return SpectralVectorField([c * scalar for c in self.components])

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0


def _component_fields(field):
    if isinstance(field, SpectralVectorField):
        return field.components
    return (field,)


def sobolev_norm(field, s: int) -> float:
    """Discrete H^s norm  sqrt(sum_k (1+|k|^2)^s |u_hat(k)|^2).

    Vector fields sum over components.  s must be a nonnegative integer at
    most SOBOLEV_INDEX_CAP.
    """
    if not 0 <= s <= SOBOLEV_INDEX_CAP:
        raise ValueError(f"Sobolev index {s} outside [0, {SOBOLEV_INDEX_CAP}]")
    comps = _component_fields(field)
    grid = comps[0].grid
    weight = (1.0 + grid.k2) ** s
    total = 0.0
    for c in comps:
        total += np.sum(weight * np.abs(c.coefficients) ** 2)
    return float(np.sqrt(total))


def lp_norm(field, p) -> float:
    """Discrete L^p norm with grid-sum quadrature ((2 pi)^d / n^d weights).

    p = inf returns the sample maximum of |u|; vector fields use the pointwise
    Euclidean magnitude.
    """
    comps = _component_fields(field)
    grid = comps[0].grid
    if len(comps) == 1:
        mag = np.abs(comps[0].samples)
    else:
        mag = np.sqrt(reduce(np.add, (c.samples**2 for c in comps)))
    if p == np.inf or p == "inf":
        return float(np.max(mag))
    p = float(p)
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float((np.sum(mag**p) * grid.cell_volume) ** (1.0 / p))


def gradient(field: SpectralScalarField) -> SpectralVectorField:
    """Spectral gradient; Nyquist modes of each derivative are zeroed."""
    g = field.grid
    c = field.coefficients
    return SpectralVectorField(
        [SpectralScalarField.from_coefficients(g, d * c) for d in g.deriv]
    )


def divergence(v: SpectralVectorField) -> SpectralScalarField:
    g = v.grid
    acc = g.deriv[0] * v.components[0].coefficients
    for ax in range(1, g.dimension):
        acc = acc + g.deriv[ax] * v.components[ax].coefficients
    return SpectralScalarField.from_coefficients(g, acc)


def laplacian(field: SpectralScalarField) -> SpectralScalarField:
    """Literal divergence(gradient(.)), bit-compatible with the perp identity."""
    return divergence(gradient(field))


def _require_2d(grid: Grid, what: str):
    if grid.dimension != 2:
        raise ValueError(f"{what} requires dimension 2, grid has {grid.dimension}")


def perp_grad_2d(field: SpectralScalarField) -> SpectralVectorField:
    """Perpendicular gradient (-d2 f, d1 f); 2D only."""
    _require_2d(field.grid, "perp_grad_2d")
    g = field.grid
    c = field.coefficients
    return SpectralVectorField(
        [
            SpectralScalarField.from_coefficients(g, -g.deriv[1] * c),
            SpectralScalarField.from_coefficients(g, g.deriv[0] * c),
        ]
    )


def perp_div_2d(v: SpectralVectorField) -> SpectralScalarField:
    """Perpendicular divergence -d2 v1 + d1 v2; 2D only."""
    _require_2d(v.grid, "perp_div_2d")
    g = v.grid
    c = -g.deriv[1] * v.components[0].coefficients + g.deriv[0] * v.components[1].coefficients
    return SpectralScalarField.from_coefficients(g, c)


def leray_project(v: SpectralVectorField) -> SpectralVectorField:
    """Orthogonal projection onto divergence-free fields.

    Per mode subtracts k (k . v_hat) / |k|^2 with the Nyquist-masked
    wavenumbers, so divergence(leray_project(v)) vanishes identically under
    the derivative convention.  Modes with masked k = 0 (the mean and the
    pure-Nyquist modes, which no discrete derivative can see) pass through.
    """
    g = v.grid
    coeffs = [c.coefficients for c in v.components]
    k2 = np.where(g.k2_masked == 0.0, 1.0, g.k2_masked)
    dot = reduce(
        np.add, (g.k_masked[ax] * coeffs[ax] for ax in range(g.dimension))
    )
    scale = dot / k2
    out = []
    for ax in range(g.dimension):
        out.append(
            SpectralScalarField.from_coefficients(
                g, coeffs[ax] - g.k_masked[ax] * scale
            )
        )
    return SpectralVectorField(out)


def galerkin_project(field, cutoff_modes: int):
    """Sharp Fourier truncation to |k|_inf <= cutoff_modes (idempotent).

    A cutoff at or above n/2 keeps every mode and is the identity.
    """
    if isinstance(field, SpectralVectorField):
        return SpectralVectorField(
            [galerkin_project(c, cutoff_modes) for c in field.components]
        )
    g = field.grid
    if cutoff_modes >= g.n // 2:
        return field
    mask = reduce(
        np.logical_and, (np.abs(ka) <= cutoff_modes for ka in g.k_axes)
    )
    return SpectralScalarField.from_coefficients(g, field.coefficients * mask)


def dealias(field):
    """Zero modes outside the 2/3 band (alias control for quadratic products)."""
    if isinstance(field, SpectralVectorField):
        return SpectralVectorField([dealias(c) for c in field.components])
    g = field.grid
    return SpectralScalarField.from_coefficients(
        g, field.coefficients * g.dealias_mask
    )


def stokes_apply(v: SpectralVectorField) -> SpectralVectorField:
    """Stokes operator: multiply mode k by |k|^2, then Leray-project."""
    g = v.grid
    scaled = SpectralVectorField(
        [
            SpectralScalarField.from_coefficients(g, g.k2 * c.coefficients)
            for c in v.components
        ]
    )
    return leray_project(scaled)


def divergence_defect(v: SpectralVectorField) -> float:
    """|div v|_{L^2} / (1 + |v|_{H^1}), the solenoidality residual.

    Evaluated entirely from coefficients (Parseval for the L^2 factor), so it
    is cheap enough to check every step.
    """
    g = v.grid
    div_c = reduce(
        np.add, (g.deriv[ax] * v.components[ax].coefficients for ax in range(g.dimension))
    )
    l2_div = np.sqrt((2 * np.pi) ** g.dimension * np.sum(np.abs(div_c) ** 2))
    h1 = np.sqrt(
        sum(
            np.sum((1.0 + g.k2) * np.abs(c.coefficients) ** 2) for c in v.components
        )
    )
    return float(l2_div / (1.0 + h1))


def implicit_diffusion_solve(
    rhs: SpectralVectorField, dt: float, viscosity: float = 1.0
) -> SpectralVectorField:
    """Solve (I + dt * nu * A) v = rhs per mode: divide by 1 + dt nu |k|^2.

    rhs is checked for solenoidality and Leray-projected if it fails.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if divergence_defect(rhs) > _DIV_FREE_RTOL:
        rhs = leray_project(rhs)
    g = rhs.grid
    denom = 1.0 + dt * viscosity * g.k2
    return SpectralVectorField(
        [
            SpectralScalarField.from_coefficients(g, c.coefficients / denom)
            for c in rhs.components
        ]
    )
