"""Smoothing operators realised as Gaussian Fourier multipliers.

mollify scales mode k by exp(-eps^2 |k|^2).  The family is linear, commutes
with derivatives and the Leray projector (it is diagonal in Fourier), never
increases any H^s norm, gains one derivative at cost 1/eps, and converges
strongly to the identity as eps -> 0 with |rho_eps f - f|_{s-1} = O(eps).
A sharp spectral cutoff would lose the quantified O(eps) difference bound at
the band edge, which is why the multiplier is Gaussian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MollifierSpec:
    """Smoothing scale; multiplier m(k) = exp(-epsilon^2 |k|^2)."""

    epsilon: float

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    def multiplier(self, grid) -> np.ndarray:
        return np.exp(-(self.epsilon**2) * grid.k2)


def mollify(field, spec: MollifierSpec):
    """Apply the smoothing multiplier; scalar and vector fields accepted."""
    return field._with_coefficients(spec.multiplier(field.grid) * field.coefficients)
