"""Spectral core: torus grids, Fourier transforms, differential operators and norms.

Everything lives on the periodic box (-pi, pi)^d, d in {2, 3}, sampled on a
uniform n^d grid with n a power of two.  Fourier coefficients follow the
convention

    u_hat(k) = (2 pi)^{-d} * integral of u(x) exp(-i k.x) dx,

so a single mode sin(x_1) has u_hat(+-e_1) = -+ i/2 and the discrete Sobolev
norm  sqrt(sum_k (1+|k|^2)^s |u_hat(k)|^2)  needs no extra constants.

Derivative multipliers zero the Nyquist mode (k = n/2) so derivatives of real
fields stay real.

Storage.  A scalar field holds an (n,)*d samples array and an (n,)*d complex
coefficients array; a vector field holds one (d, n, ..., n) stack of each, and
there are no per-component objects: component i is row i of a stack.  Either
representation is computed from the other on first access by one batched
scipy.fft call over the spatial axes, and operators work on whole stacks.
One layout serves every stack of fields: component axis first, batch axes
next, grid axes last, (d, ..., *grid).  A field may hold such a stack (the
(d, m, *grid) noise modes, say) and each operator then acts on it slice by
slice, bitwise as on each field alone; norms sum over the whole stack.
Fields are immutable: operations return new fields, so a quantity derived
from a field can be cached on it.  The velocity gradient is one:
gradient_summary transforms grad u once per velocity field and keeps
|grad u|_inf and the samples of (u . grad) u for every later consumer;
grad_rms_reaches bounds |grad u|_inf from below without that transform.

Norms and inner products read from coefficients go through the Parseval
helpers parseval_l2, parseval_grad_l2 and parseval_inner.  No operator projects
on its own; the solver checks divergence_defect against DIV_FREE_RTOL once per run.

Every Fourier multiplier lives here, the 2D ones included: the perpendicular
gradient and divergence (the latter is the scalar vorticity), the Biot-Savart
inversion of a mean-free vorticity, and the Gaussian mollifier mollify.
"""

from __future__ import annotations

from functools import reduce
from typing import NamedTuple

import numpy as np
import scipy.fft

#: Largest Sobolev index accepted by sobolev_norm.
SOBOLEV_INDEX_CAP = 8

#: Largest divergence_defect a velocity may have and still count as solenoidal.
DIV_FREE_RTOL = 1e-10

#: Relative margin by which grad_rms_reaches asks the RMS to clear its bound,
#: far above the rounding of the Parseval sum and of the transformed sup.
GRAD_RMS_MARGIN = 1e-9


class Grid:
    """Uniform periodic grid on (-pi, pi)^d with cached spectral machinery.

    Attributes:
        dimension: spatial dimension, 2 or 3.
        n: points per axis (power of two, >= 4).
        axes: the spatial axes (-d, ..., -1) every transform runs over.
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
        self.axes = tuple(range(-dimension, 0))
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
        # |k|^2 with the modes no derivative sees set to 1, a safe divisor
        self.k2_safe = np.where(self.k2_masked == 0.0, 1.0, self.k2_masked)
        self.k2 = reduce(np.add, (ka.astype(np.float64) ** 2 for ka in axes))
        ksum = reduce(np.add, axes)
        self.phase = np.where(ksum % 2 == 0, 1.0, -1.0)
        cut = n // 3
        self.dealias_mask = reduce(
            np.logical_and, (np.abs(ka) <= cut for ka in axes)
        )
        x = -np.pi + self.spacing * np.arange(n)
        self.x_mesh = np.meshgrid(*([x] * dimension), indexing="ij")

    def mode_index(self, k) -> tuple:
        """Array index of wavenumber k (tuple of ints)."""
        return tuple(int(ki) % self.n for ki in k)

    def __eq__(self, other):
        return other is self or (
            isinstance(other, Grid)
            and other.dimension == self.dimension
            and other.n == self.n
        )

    def __hash__(self):
        return hash((self.dimension, self.n))

    def __repr__(self):
        return f"Grid(dimension={self.dimension}, n={self.n})"


def _to_coefficients(grid: Grid, samples: np.ndarray) -> np.ndarray:
    """Coefficients of samples shaped (..., n, ..., n); one transform call."""
    coeffs = scipy.fft.fftn(samples, axes=grid.axes, norm="forward")
    coeffs *= grid.phase
    return coeffs


def _to_samples(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Real samples of coefficients shaped (..., n, ..., n); one transform call."""
    values = scipy.fft.ifftn(
        coeffs * grid.phase, axes=grid.axes, norm="forward", overwrite_x=True
    )
    return values.real.copy()


def _abs2(coeffs: np.ndarray) -> np.ndarray:
    return coeffs.real**2 + coeffs.imag**2


class _Field:
    """Samples and coefficients arrays over the trailing d axes of a grid.

    The bare constructor stores what it is given, unchecked, as cheaply as
    possible: a step builds about 15 fields.  Its arrays may hold a stack in
    the one layout: a vector field's component axis, any batch axes, then
    the d grid axes.  Either array is computed from the other on first
    access and cached, as is a vector field's gradient summary (`_summary`,
    unused by scalars).  Fields are immutable; arithmetic returns new fields
    of the same kind.
    """

    __slots__ = ("grid", "_samples", "_coeffs", "_summary")

    def __init__(self, grid: Grid, samples=None, coeffs=None):
        self.grid = grid
        self._samples = samples
        self._coeffs = coeffs
        self._summary = None

    @property
    def samples(self) -> np.ndarray:
        if self._samples is None:
            self._samples = _to_samples(self.grid, self._coeffs)
        return self._samples

    @property
    def coefficients(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = _to_coefficients(self.grid, self._samples)
        return self._coeffs

    def _with_coefficients(self, coeffs):
        return type(self)(self.grid, coeffs=coeffs)

    def __add__(self, other):
        self._check(other)
        return self._with_coefficients(self.coefficients + other.coefficients)

    def __sub__(self, other):
        self._check(other)
        return self._with_coefficients(self.coefficients - other.coefficients)

    def __mul__(self, scalar):
        return self._with_coefficients(self.coefficients * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1.0

    def _check(self, other):
        if other.grid != self.grid:
            raise ValueError("fields live on different grids")

    @classmethod
    def _shape(cls, grid: Grid) -> tuple:
        """Shape of one field's arrays."""
        return grid.shape

    @classmethod
    def _validated(cls, grid: Grid, array, dtype, what: str) -> np.ndarray:
        array = np.asarray(array, dtype=dtype)
        if array.shape != cls._shape(grid):
            raise ValueError(f"{what} shape {array.shape} != {cls._shape(grid)}")
        return array

    @classmethod
    def zero(cls, grid: Grid):
        shape = cls._shape(grid)
        return cls(grid, np.zeros(shape), np.zeros(shape, complex))


class SpectralScalarField(_Field):
    """Real scalar field with lazily synchronised physical/spectral views.

    Construct with from_samples or from_coefficients; the missing
    representation is computed on first access and cached.  Instances are
    immutable once both views exist.
    """

    __slots__ = ()

    @classmethod
    def from_samples(cls, grid: Grid, samples) -> "SpectralScalarField":
        return cls(grid, samples=cls._validated(grid, samples, np.float64, "samples"))

    @classmethod
    def from_coefficients(cls, grid: Grid, coeffs) -> "SpectralScalarField":
        return cls(grid, coeffs=cls._validated(grid, coeffs, np.complex128, "coeffs"))

    def coefficient_at(self, k) -> complex:
        """Single Fourier coefficient u_hat(k) for an integer wavenumber tuple."""
        return complex(self.coefficients[self.grid.mode_index(k)])


class GradientSummary(NamedTuple):
    """What the stepper and the diagnostics read from grad u.

    sup: max over the grid of the Frobenius norm of grad u.
    advection: samples of (u . grad) u, shape (d, *grid.shape), not dealiased.
    """

    sup: float
    advection: np.ndarray


class SpectralVectorField(_Field):
    """d-component vector field: `samples` and `coefficients` are (d, *grid.shape)
    stacks, component i being row i of each.

    Build with from_samples (one array per component), from_sample_stack or
    from_coefficient_stack; operators read and write whole stacks.
    """

    __slots__ = ()

    @classmethod
    def from_samples(cls, grid: Grid, *component_samples) -> "SpectralVectorField":
        return cls.from_sample_stack(grid, np.stack(component_samples))

    @classmethod
    def _shape(cls, grid: Grid) -> tuple:
        return (grid.dimension,) + grid.shape

    @classmethod
    def from_sample_stack(cls, grid: Grid, samples) -> "SpectralVectorField":
        """Field whose samples are the (d, *grid.shape) stack `samples`."""
        return cls(grid, samples=cls._validated(grid, samples, np.float64, "samples"))

    @classmethod
    def from_coefficient_stack(cls, grid: Grid, coeffs) -> "SpectralVectorField":
        """Field whose coefficients are the (d, *grid.shape) stack `coeffs`."""
        return cls(grid, coeffs=cls._validated(grid, coeffs, np.complex128, "coeffs"))


def gradient_summary(u: SpectralVectorField) -> GradientSummary:
    """|grad u|_inf and (u . grad) u from one batched transform, cached on u.

    The d x d derivative coefficients and u itself go through a single
    inverse transform.  The samples of u obtained on the way become u's own
    if it has none yet: a batched transform gives each slice exactly the
    values a transform of that slice alone would.  Neither grad u nor its
    samples outlive the call.
    """
    if u._summary is not None:
        return u._summary
    g = u.grid
    d = g.dimension
    c = u.coefficients
    stack = np.empty((d + 1, d) + g.shape, dtype=np.complex128)
    for j, dk in enumerate(g.deriv):
        np.multiply(c, dk, out=stack[j])  # stack[j, i] = d_j u_i
    stack[d] = c
    stack *= g.phase
    values = scipy.fft.ifftn(stack, axes=g.axes, norm="forward", overwrite_x=True)
    real = values.real
    if u._samples is None:
        u._samples = real[d].copy()
    grad = real[:d]
    sup = float(np.sqrt(np.max(np.einsum("ji...,ji...->...", grad, grad))))
    advection = np.einsum("j...,ji...->i...", u.samples, grad)
    u._summary = GradientSummary(sup, advection)
    return u._summary


def grad_rms_reaches(u: SpectralVectorField, bound: float) -> bool:
    """Whether the grid RMS of |grad u| alone shows |grad u|_inf >= bound.

    By discrete Parseval the grid RMS is parseval_grad_l2 / (2 pi)^(d/2),
    with the Nyquist-masked k that gradient_summary differentiates with, so
    it costs no transform, and the sup is at least the RMS.  The RMS must
    clear bound by GRAD_RMS_MARGIN, so a True answer survives rounding.
    False whenever u already carries its gradient summary: the exact sup is
    then free, and callers read it instead.
    """
    if u._summary is not None:
        return False
    g = u.grid
    rms = parseval_grad_l2(g, u.coefficients) / (2 * np.pi) ** (g.dimension / 2)
    return rms >= bound * (1.0 + GRAD_RMS_MARGIN)


def parseval_l2(grid: Grid, coeffs: np.ndarray) -> float:
    """L^2 norm from coefficients (of one field or a stack): Parseval."""
    return float(np.sqrt((2 * np.pi) ** grid.dimension * _abs2(coeffs).sum()))


def parseval_grad_l2(grid: Grid, coeffs: np.ndarray) -> float:
    """L^2 norm of the gradient from coefficients, Nyquist modes excluded."""
    total = (grid.k2_masked * _abs2(coeffs)).sum()
    return float(np.sqrt((2 * np.pi) ** grid.dimension * total))


def parseval_inner(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """L^2 inner product of two real fields from their coefficients."""
    total = (a.real * b.real + a.imag * b.imag).sum()
    return float((2 * np.pi) ** grid.dimension * total)


def sobolev_norm(field, s: int) -> float:
    """Discrete H^s norm  sqrt(sum_k (1+|k|^2)^s |u_hat(k)|^2).

    Vector fields sum over components.  s must be a nonnegative integer at
    most SOBOLEV_INDEX_CAP.
    """
    if not 0 <= s <= SOBOLEV_INDEX_CAP:
        raise ValueError(f"Sobolev index {s} outside [0, {SOBOLEV_INDEX_CAP}]")
    weight = (1.0 + field.grid.k2) ** s
    return float(np.sqrt((weight * _abs2(field.coefficients)).sum()))


def lp_norm(field, p) -> float:
    """Discrete L^p norm with grid-sum quadrature ((2 pi)^d / n^d weights).

    p = inf returns the sample maximum of |u|; vector fields use the pointwise
    Euclidean magnitude.
    """
    samples = field.samples
    if isinstance(field, SpectralVectorField):
        mag = np.sqrt(np.einsum("i...,i...->...", samples, samples))
    else:
        mag = np.abs(samples)
    if p == np.inf or p == "inf":
        return float(np.max(mag))
    p = float(p)
    if p < 1:
        raise ValueError(f"p must be >= 1 or inf, got {p}")
    return float((np.sum(mag**p) * field.grid.cell_volume) ** (1.0 / p))


def gradient(field: SpectralScalarField) -> SpectralVectorField:
    """Spectral gradient; Nyquist modes of each derivative are zeroed.

    The derivative axis goes in front of whatever stack the field holds."""
    g = field.grid
    c = field.coefficients
    out = np.empty((g.dimension,) + c.shape, dtype=np.complex128)
    for ax, dk in enumerate(g.deriv):
        np.multiply(dk, c, out=out[ax])
    return SpectralVectorField(g, coeffs=out)


def divergence(v: SpectralVectorField) -> SpectralScalarField:
    g = v.grid
    c = v.coefficients
    acc = g.deriv[0] * c[0]
    for ax in range(1, g.dimension):
        acc += g.deriv[ax] * c[ax]
    return SpectralScalarField(g, coeffs=acc)


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
        g, coeffs=np.stack([-g.deriv[1] * c, g.deriv[0] * c])
    )


def perp_div_2d(v: SpectralVectorField) -> SpectralScalarField:
    """Perpendicular divergence -d2 v1 + d1 v2; 2D only."""
    _require_2d(v.grid, "perp_div_2d")
    g = v.grid
    c = v.coefficients
    return SpectralScalarField(g, coeffs=-g.deriv[1] * c[0] + g.deriv[0] * c[1])


def biot_savart(w: SpectralScalarField) -> SpectralVectorField:
    """Mean-free divergence-free velocity with perp_div_2d(u) = w.

    Inverts u = perp-grad of the stream function solving the Poisson problem;
    the k = 0 velocity is a free parameter on the torus and is set to zero.
    Rejects vorticity with a nonzero mean (reporting the measured mean).
    """
    g = w.grid
    _require_2d(g, "biot_savart")
    c = w.coefficients
    mean = c[g.mode_index((0, 0))]
    if abs(mean) > 1e-12 * max(sobolev_norm(w, 0), 1e-300):
        raise ValueError(f"vorticity must be mean-free, measured mean {mean:.3e}")
    psi = np.where(g.k2_masked == 0.0, 0.0, -c / g.k2_safe)
    return perp_grad_2d(SpectralScalarField(g, coeffs=psi))


def leray_project(v: SpectralVectorField) -> SpectralVectorField:
    """Orthogonal projection onto divergence-free fields.

    Per mode subtracts k (k . v_hat) / |k|^2 with the Nyquist-masked
    wavenumbers, so divergence(leray_project(v)) vanishes identically under
    the derivative convention.  Modes with masked k = 0 (the mean and the
    pure-Nyquist modes, which no discrete derivative can see) pass through.
    """
    g = v.grid
    c = v.coefficients
    scale = g.k_masked[0] * c[0]
    for ax in range(1, g.dimension):
        scale += g.k_masked[ax] * c[ax]
    scale /= g.k2_safe
    out = c.copy()
    for ax in range(g.dimension):
        out[ax] -= g.k_masked[ax] * scale
    return SpectralVectorField(g, coeffs=out)


def galerkin_project(field, cutoff_modes: int):
    """Sharp Fourier truncation to |k|_inf <= cutoff_modes (idempotent).

    A cutoff at or above n/2 keeps every mode and is the identity.
    """
    g = field.grid
    if cutoff_modes >= g.n // 2:
        return field
    mask = reduce(
        np.logical_and, (np.abs(ka) <= cutoff_modes for ka in g.k_axes)
    )
    return field._with_coefficients(field.coefficients * mask)


def mollify(field, epsilon: float):
    """Smooth a scalar or vector field: mode k is scaled by exp(-eps^2 |k|^2).

    The family is linear, commutes with derivatives and the Leray projector
    (it is diagonal in Fourier), never increases any H^s norm, gains one
    derivative at cost 1/eps, and converges strongly to the identity as
    eps -> 0 with |rho_eps f - f|_{s-1} = O(eps).  A sharp spectral cutoff
    would lose the quantified O(eps) difference bound at the band edge, which
    is why the multiplier is Gaussian.  Refuses eps unless 0 < eps < inf.
    An eps whose eps^2 |k|^2 overflows gets the eps -> inf limit, the mean
    alone, which is what the multiplier rounds to for every eps above 27.3.
    """
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    k2 = field.grid.k2
    try:
        with np.errstate(over="raise"):
            multiplier = np.exp(-(epsilon**2) * k2)
    except (OverflowError, FloatingPointError):
        multiplier = np.where(k2 == 0.0, 1.0, 0.0)
    return field._with_coefficients(multiplier * field.coefficients)


def dealias(field):
    """Zero modes outside the 2/3 band (alias control for quadratic products)."""
    return field._with_coefficients(field.coefficients * field.grid.dealias_mask)


def stokes_apply(v: SpectralVectorField) -> SpectralVectorField:
    """Stokes operator: multiply mode k by |k|^2, then Leray-project."""
    return leray_project(v._with_coefficients(v.grid.k2 * v.coefficients))


def divergence_defect(v: SpectralVectorField) -> float:
    """|div v|_{L^2} / (1 + |v|_{H^1}), the solenoidality residual.

    Evaluated entirely from coefficients (Parseval for the L^2 factor), so it
    is cheap enough to check every step.
    """
    l2_div = parseval_l2(v.grid, divergence(v).coefficients)
    return float(l2_div / (1.0 + sobolev_norm(v, 1)))


def implicit_diffusion_solve(
    rhs: SpectralVectorField, dt: float, viscosity: float = 1.0
) -> SpectralVectorField:
    """Solve (I + dt * nu * A) v = rhs per mode: divide by 1 + dt nu |k|^2.

    No projection: a solenoidal rhs gives a solenoidal v, and the solver
    checks solenoidality once per run, on the initial velocity.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    g = rhs.grid
    denom = 1.0 + dt * viscosity * g.k2
    return SpectralVectorField(g, coeffs=rhs.coefficients / denom)
