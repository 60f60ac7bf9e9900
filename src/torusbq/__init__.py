"""torusbq: stochastic Boussinesq flow with partial diffusion on the torus.

A numpy-based pseudo-spectral library: spectral operators on (-pi, pi)^d,
trace-class Wiener forcing, diffusion-free temperature transport, the coupled
velocity/temperature stepper with its cut-off and Galerkin variants, 2D
vorticity diagnostics, spectral mollifiers, and a small-noise large-deviation
harness.
"""

__version__ = "0.1.0"
