"""Stacked operators against a per-component numpy.fft reference.

Vector fields store one (d, *grid.shape) stack and transform it in one
batched call.  The references below do the same mathematics the plain way,
one component and one numpy.fft call at a time, and the stacked results must
agree to 1e-12 relative.  One test checks that grad u is transformed once per
velocity field, however many consumers read it.  The last pins the stack
layout (d, *batch, *grid): every operator on a stack equals, bitwise, the
operator on each field of it alone.
"""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from torusbq.solver import (
    BLANK_ROW,
    COLUMNS,
    SolverConfig,
    State,
    _diagnostic_row,
    momentum_rhs,
)
from torusbq.spectral import (
    Grid,
    SpectralScalarField,
    SpectralVectorField,
    biot_savart,
    divergence_defect,
    dealias,
    divergence,
    galerkin_project,
    gradient,
    implicit_diffusion_solve,
    leray_project,
    mollify,
    perp_div_2d,
    perp_grad_2d,
)
from torusbq.transport import velocity_grad_sup

RTOL = 1e-12


def ref_coefficients(grid, samples):
    return grid.phase * np.fft.fftn(samples) / grid.n**grid.dimension


def ref_samples(grid, coeffs):
    return np.real(np.fft.ifftn(coeffs * grid.phase)) * grid.n**grid.dimension


def ref_leray(grid, comps):
    k2 = np.where(grid.k2_masked == 0.0, 1.0, grid.k2_masked)
    scale = sum(grid.k_masked[ax] * comps[ax] for ax in range(grid.dimension)) / k2
    return [comps[ax] - grid.k_masked[ax] * scale for ax in range(grid.dimension)]


def ref_divergence_defect(grid, comps):
    div = sum(grid.deriv[ax] * comps[ax] for ax in range(grid.dimension))
    l2_div = np.sqrt((2 * np.pi) ** grid.dimension * np.sum(np.abs(div) ** 2))
    h1 = np.sqrt(sum(np.sum((1.0 + grid.k2) * np.abs(c) ** 2) for c in comps))
    return l2_div / (1.0 + h1)


def ref_implicit_solve(grid, comps, dt, viscosity):
    return [c / (1.0 + dt * viscosity * grid.k2) for c in comps]


def ref_velocity_gradient(grid, comps):
    """grads[i][j] = samples of d_j u_i, one transform per entry."""
    return [[ref_samples(grid, dk * c) for dk in grid.deriv] for c in comps]


def ref_grad_sup(grid, comps):
    grads = ref_velocity_gradient(grid, comps)
    return np.sqrt(np.max(sum(g**2 for row in grads for g in row)))


def ref_advection(grid, comps):
    """Coefficients of the dealiased (u . grad) u."""
    u = [ref_samples(grid, c) for c in comps]
    grads = ref_velocity_gradient(grid, comps)
    return [
        ref_coefficients(grid, sum(u[j] * grads[i][j] for j in range(grid.dimension)))
        * grid.dealias_mask
        for i in range(grid.dimension)
    ]


def close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


def random_field(grid, seed, kmax=None):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((grid.dimension,) + grid.shape)
    v = SpectralVectorField.from_sample_stack(grid, samples)
    return galerkin_project(v, kmax) if kmax else v


def per_component(v):
    return [np.array(c) for c in v.coefficients]


GRIDS = [Grid(2, 32), Grid(3, 16)]


@pytest.fixture(params=GRIDS, ids=lambda g: f"{g.dimension}d-{g.n}")
def grid(request):
    return request.param


def test_transforms_match(grid):
    v = random_field(grid, 1)
    ref = [ref_coefficients(grid, s) for s in v.samples]
    assert close(v.coefficients, ref)
    back = SpectralVectorField.from_coefficient_stack(grid, v.coefficients)
    assert close(back.samples, v.samples)


def test_leray_project(grid):
    v = random_field(grid, 2)
    assert close(leray_project(v).coefficients, ref_leray(grid, per_component(v)))


def test_divergence_defect(grid):
    # the projected field's defect is rounding (~1e-17), hence the absolute floor
    for v in (random_field(grid, 3), leray_project(random_field(grid, 4))):
        want = ref_divergence_defect(grid, per_component(v))
        assert abs(divergence_defect(v) - want) <= RTOL * max(want, 1e-300) + 1e-15


@pytest.mark.parametrize("seed,project", [(5, False), (6, True)])
def test_implicit_diffusion_solve(grid, seed, project):
    v = random_field(grid, seed)
    if project:
        v = leray_project(v)
    want = ref_implicit_solve(grid, per_component(v), 0.05, 0.7)
    assert close(implicit_diffusion_solve(v, 0.05, 0.7).coefficients, want)


def test_gradient(grid):
    f = SpectralScalarField.from_samples(
        grid, np.random.default_rng(7).standard_normal(grid.shape)
    )
    got = gradient(f)
    assert close(got.coefficients, [dk * f.coefficients for dk in grid.deriv])
    want = [ref_samples(grid, dk * f.coefficients) for dk in grid.deriv]
    assert close(got.samples, want)


def test_mollify(grid):
    v = random_field(grid, 8)
    m = np.exp(-(0.3**2) * grid.k2)
    want = [m * ref_coefficients(grid, s) for s in v.samples]
    got = mollify(v, 0.3)
    assert close(got.coefficients, want)
    assert close(got.samples, [ref_samples(grid, c) for c in want])


def test_biot_savart():
    grid = GRIDS[0]
    samples = np.random.default_rng(9).standard_normal(grid.shape)
    w = SpectralScalarField.from_samples(grid, samples - samples.mean())
    c = ref_coefficients(grid, w.samples)
    k2 = np.where(grid.k2_masked == 0.0, 1.0, grid.k2_masked)
    psi = np.where(grid.k2_masked == 0.0, 0.0, -c / k2)
    want = [-grid.deriv[1] * psi, grid.deriv[0] * psi]
    got = biot_savart(w)
    assert close(got.coefficients, want)
    assert close(got.samples, [ref_samples(grid, c) for c in want])


def test_velocity_grad_sup(grid):
    v = random_field(grid, 8, kmax=grid.n // 3)
    want = ref_grad_sup(grid, per_component(v))
    assert abs(velocity_grad_sup(v) - want) <= RTOL * want


def test_advection_term(grid):
    # theta = 0 and no cut-off (phi = 1): the drift is -P dealias((v . grad) v)
    v = leray_project(random_field(grid, 9, kmax=grid.n // 3))
    want = [-c for c in ref_leray(grid, ref_advection(grid, per_component(v)))]
    state = State(0.0, v, SpectralScalarField.zero(grid))
    drift, phi = momentum_rhs(state, SolverConfig(grid=grid, dt=0.01, t_end=0.01))
    assert phi == 1.0
    assert close(drift.coefficients, want)


def test_grad_u_transformed_once_per_state(grid, monkeypatch):
    """velocity_grad_sup, momentum_rhs's advection product and a row naming
    every column share one transform of grad u: the only transform of a
    (d+1, d, *grid.shape) stack."""
    stacks = []
    original = scipy.fft.ifftn

    def spy(x, *args, **kwargs):
        if np.ndim(x) == grid.dimension + 2:
            stacks.append(np.shape(x))
        return original(x, *args, **kwargs)

    monkeypatch.setattr(scipy.fft, "ifftn", spy)
    u = leray_project(random_field(grid, 10, kmax=grid.n // 3))
    theta = SpectralScalarField.from_samples(grid, np.sin(grid.x_mesh[0]))
    config = SolverConfig(grid=grid, dt=0.01, t_end=0.01, cutoff_R=1e6)

    sup = velocity_grad_sup(u)
    _, phi = momentum_rhs(State(0.0, u, SpectralScalarField.zero(grid)), config)
    assert phi == 1.0
    row = BLANK_ROW.copy()
    _diagnostic_row(row, State(0.0, u, theta), config, set(COLUMNS))
    assert row[COLUMNS.index("linf_grad_u")] == sup
    assert stacks == [(grid.dimension + 1, grid.dimension) + grid.shape]


def _layout_cases(grid, cutoff, eps):
    """(operator, takes a vector stack) pairs covering the stack-aware operators."""
    cases = [
        (leray_project, True),
        (divergence, True),
        (lambda f: implicit_diffusion_solve(f, 0.05, 0.7), True),
        (gradient, False),
        (gradient, True),
    ]
    for takes_vector in (False, True):
        cases += [
            (lambda f: galerkin_project(f, cutoff), takes_vector),
            (dealias, takes_vector),
            (lambda f: mollify(f, eps), takes_vector),
        ]
    if grid.dimension == 2:
        cases += [(perp_div_2d, True), (perp_grad_2d, False)]
    return cases


@settings(deadline=None, max_examples=60)
@given(
    d=st.sampled_from([2, 3]),
    n=st.sampled_from([4, 8, 16]),
    batch=st.lists(st.integers(1, 3), max_size=2).map(tuple),
    seed=st.integers(0, 2**32 - 1),
    eps=st.floats(0.05, 2.0),
)
def test_operators_act_on_a_stack_slice_by_slice(d, n, batch, seed, eps):
    grid = Grid(d, n)
    cutoff = n // 2 - 1  # below n/2, so the truncation is not the identity
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((d,) + batch + grid.shape)
    scalars = rng.standard_normal(batch + grid.shape)
    for op, takes_vector in _layout_cases(grid, cutoff, eps):
        kind = SpectralVectorField if takes_vector else SpectralScalarField
        samples = vectors if takes_vector else scalars
        lead = (slice(None),) if takes_vector else ()
        stacked = op(kind(grid, samples=samples))
        # the axes a result puts ahead of the batch: none for a scalar, one
        # for a vector, two for the gradient of a vector
        out_lead = (slice(None),) * (stacked.coefficients.ndim - len(batch) - d)
        for idx in np.ndindex(batch):
            alone = op(kind(grid, samples=samples[lead + idx].copy()))
            assert np.array_equal(stacked.coefficients[out_lead + idx], alone.coefficients)
            assert np.array_equal(stacked.samples[out_lead + idx], alone.samples)
