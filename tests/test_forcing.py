import numpy as np
import pytest

from oracles import hs_norm, ito_isometry_estimate
from torusbq.forcing import (
    NoiseIntensity,
    NoiseModel,
    QWienerSpec,
    RandomStream,
    additive_intensity,
    apply_noise,
    default_mode_fields,
    default_qwiener,
    sample_increment,
    weighted_sum,
)
from torusbq.spectral import (
    Grid,
    SpectralScalarField,
    SpectralVectorField,
    divergence,
    galerkin_project,
    leray_project,
    lp_norm,
    sobolev_norm,
)


@pytest.fixture
def grid():
    return Grid(2, 16)


def cos_x2_field(grid):
    return SpectralVectorField.from_samples(
        grid, np.cos(grid.x_mesh[1]), np.zeros(grid.shape)
    )


def single_mode_spec():
    return QWienerSpec((((0, 1), "cos"),), np.array([1.0]))


def zero_state(grid):
    return SpectralVectorField.zero(grid), SpectralScalarField.zero(grid)


class TestStream:
    def test_reproducible(self):
        a = RandomStream(42, 3).normals(7, 5)
        b = RandomStream(42, 3).normals(7, 5)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        base = RandomStream(42, 0).normals(0, 4)
        assert not np.array_equal(base, RandomStream(43, 0).normals(0, 4))
        assert not np.array_equal(base, RandomStream(42, 1).normals(0, 4))
        assert not np.array_equal(base, RandomStream(42, 0).normals(1, 4))

    def test_order_independent(self):
        s = RandomStream(1, 0)
        late = s.normals(10, 3)
        s.normals(2, 3)
        assert np.array_equal(late, s.normals(10, 3))

    def test_matches_fresh_philox_in_any_order(self):
        # one reused generator per stream must draw bitwise what a generator
        # built for (seed, path) at counter [0, step, 0, 0] draws
        import pickle

        seed, path, count = 2**40 + 3, 5, 7

        def fresh(step):
            bitgen = np.random.Philox(
                key=np.array([seed, path], dtype=np.uint64),
                counter=np.array([0, step, 0, 0], dtype=np.uint64),
            )
            return np.random.Generator(bitgen).standard_normal(count)

        stream = RandomStream(seed, path)
        for step in (9, 0, 3, 3, 17, 1, 0):
            assert np.array_equal(stream.normals(step, count), fresh(step))
        stream.normals(4, 1)  # leaves a partly used buffer behind
        copy = pickle.loads(pickle.dumps(stream))
        for step in (4, 2, 11):
            assert np.array_equal(copy.normals(step, count), fresh(step))
            assert np.array_equal(stream.normals(step, count), fresh(step))


class TestSpec:
    def test_default_spectrum(self):
        spec = default_qwiener(2, 5, gamma=2.0, lambda0=1.0)
        assert spec.truncation == 5
        assert spec.modes[0] == ((0, 0), "cos")
        assert spec.eigenvalues[0] == 1.0
        # first nonzero wavenumbers have |k|^2 = 1 -> lambda = 1
        assert np.allclose(spec.eigenvalues[1:], 1.0)
        spec2 = default_qwiener(2, 12, include_mean=False)
        assert ((0, 0), "cos") not in spec2.modes
        k2 = [sum(v * v for v in k) for k, _ in spec2.modes]
        assert k2 == sorted(k2)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            QWienerSpec((((0, 1), "cos"),), np.array([-1.0]))


class TestIncrements:
    def test_empty(self):
        spec = QWienerSpec((), np.array([]))
        inc = sample_increment(spec, 0.1, RandomStream(0))
        assert inc.size == 0

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            sample_increment(single_mode_spec(), 0.0, RandomStream(0))

    def test_moments(self):
        spec = default_qwiener(2, 4)
        dt = 0.01
        n = 100_000
        stream = RandomStream(7)
        draws = np.array(
            [sample_increment(spec, dt, stream, j) for j in range(n // 4)]
        )
        flat = draws.ravel()[:n]
        assert abs(flat.mean()) <= 4 * np.sqrt(dt / n)
        assert abs(flat.var() - dt) <= 0.05 * dt

    def test_cross_mode_correlation(self):
        spec = default_qwiener(2, 4)
        stream = RandomStream(11)
        draws = np.array(
            [sample_increment(spec, 1.0, stream, j) for j in range(25_000)]
        )
        corr = np.corrcoef(draws.T)
        off = corr - np.eye(4)
        assert np.max(np.abs(off)) <= 0.02


class TestApplyNoise:
    def test_additive_single_mode(self, grid):
        f = additive_intensity([cos_x2_field(grid)])
        spec = single_mode_spec()
        u, theta = zero_state(grid)
        out = apply_noise(NoiseModel(spec, f), u, theta, np.array([0.3]))
        expect = 0.3 * np.cos(grid.x_mesh[1])
        assert np.max(np.abs(out.samples[0] - expect)) < 1e-14
        assert np.max(np.abs(out.samples[1])) < 1e-14

    def test_degenerate_multiplicative_matches_additive(self, grid):
        base = [cos_x2_field(grid)]
        fa = additive_intensity(base)
        fm = NoiseIntensity("multiplicative", tuple(base), 1.0, 0.0, 0.0)
        spec = single_mode_spec()
        rng = np.random.default_rng(0)
        u = SpectralVectorField.from_samples(
            grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
        )
        theta = SpectralScalarField.from_samples(grid, rng.standard_normal(grid.shape))
        inc = np.array([0.7])
        a = apply_noise(NoiseModel(spec, fa), u, theta, inc)
        b = apply_noise(NoiseModel(spec, fm), u, theta, inc)
        # additive sums stored projected coefficients, multiplicative projects
        # the transformed sum: the two paths round differently
        np.testing.assert_allclose(a.samples, b.samples, rtol=0, atol=1e-15)

    def test_mode_count_mismatch(self, grid):
        f = additive_intensity([cos_x2_field(grid)])
        spec = default_qwiener(2, 3)
        with pytest.raises(ValueError, match="carries 1 fields but spec retains 3"):
            NoiseModel(spec, f)

    def test_output_divergence_free(self, grid):
        spec = default_qwiener(2, 6)
        f = NoiseIntensity(
            "multiplicative", tuple(default_mode_fields(grid, spec)), 0.5, 1.0, 0.3
        )
        rng = np.random.default_rng(5)
        u = SpectralVectorField.from_samples(
            grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
        )
        theta = SpectralScalarField.from_samples(grid, rng.standard_normal(grid.shape))
        inc = sample_increment(spec, 0.1, RandomStream(3))
        out = apply_noise(NoiseModel(spec, f), u, theta, inc)
        assert lp_norm(divergence(out), 2) < 1e-12 * (1 + sobolev_norm(out, 1))


def samples_path_sum(noise, u, theta, weights):
    """The reference: sum the (d, m, *grid) samples, transform, project."""
    stack = noise.intensity.mode_samples(u, theta)
    summed = np.einsum("m,dm...->d...", noise.sqrt_eigenvalues * weights, stack)
    grid = noise.intensity.grid
    return leray_project(SpectralVectorField.from_sample_stack(grid, summed))


def ou_toy_noise():
    grid = Grid(2, 8)
    return NoiseModel(single_mode_spec(), additive_intensity([cos_x2_field(grid)]))


def default_noise(dimension, n, n_modes=8):
    grid = Grid(dimension, n)
    spec = default_qwiener(dimension, n_modes)
    return NoiseModel(spec, additive_intensity(default_mode_fields(grid, spec)))


def dense_noise():
    # random, not divergence-free fields: every coefficient is signal
    grid = Grid(2, 16)
    rng = np.random.default_rng(21)
    fields = [
        SpectralVectorField.from_sample_stack(grid, rng.standard_normal((2, 16, 16)))
        for _ in range(5)
    ]
    spec = QWienerSpec(
        tuple(((0, k), "cos") for k in range(5)), rng.uniform(0.1, 2.0, 5)
    )
    return NoiseModel(spec, additive_intensity(fields))


class TestAdditiveCoefficients:
    """Additive weighted sums from stored projected coefficients, against the
    samples path (sum, transform, project) every multiplicative sum takes."""

    @pytest.mark.parametrize(
        "build, galerkin",
        [
            (lambda: default_noise(2, 32), None),
            (lambda: default_noise(3, 16), None),
            (ou_toy_noise, None),
            (lambda: default_noise(2, 16, 12), 4),
            (dense_noise, None),
        ],
        ids=["2d-32", "3d-16", "ou-toy", "galerkin-16", "dense-16"],
    )
    def test_matches_samples_path(self, build, galerkin):
        noise = build()
        rng = np.random.default_rng(3)
        u, theta = zero_state(noise.intensity.grid)
        for _ in range(4):
            weights = rng.standard_normal(noise.spec.truncation)
            got = weighted_sum(noise, u, theta, weights)
            want = samples_path_sum(noise, u, theta, weights)
            if galerkin is not None:
                got = galerkin_project(got, galerkin)
                want = galerkin_project(want, galerkin)
            peak = np.max(np.abs(want.coefficients))
            gap = np.max(np.abs(got.coefficients - want.coefficients))
            assert gap <= 1e-15 * peak

    def test_support_follows_the_modes(self):
        # 8 default modes (the mean and cos/sin pairs of 4 wavenumbers) sit
        # on 9 grid positions, whatever the resolution
        for dimension, n in ((2, 32), (3, 16)):
            noise = default_noise(dimension, n)
            assert noise.support.size == 9
            assert noise.projected.shape == (dimension, 8, 9)
        # a dense family keeps every position
        assert dense_noise().support.size == 16 * 16

    def test_zero_intensity_gives_zero_force(self, grid):
        noise = NoiseModel(
            single_mode_spec(), additive_intensity([SpectralVectorField.zero(grid)])
        )
        assert noise.support.size == 0
        u, theta = zero_state(grid)
        out = weighted_sum(noise, u, theta, np.array([0.8]))
        assert not np.any(out.coefficients)
        assert out.coefficients.shape == (2, 16, 16)


class TestHsNorm:
    def test_zero_eigenvalues(self, grid):
        f = additive_intensity([cos_x2_field(grid)])
        spec = QWienerSpec((((0, 1), "cos"),), np.array([0.0]))
        u, theta = zero_state(grid)
        assert hs_norm(NoiseModel(spec, f), u, theta, 0) == 0.0

    def test_single_mode_h0(self, grid):
        f = additive_intensity([cos_x2_field(grid)])
        u, theta = zero_state(grid)
        val = hs_norm(NoiseModel(single_mode_spec(), f), u, theta, 0)
        # H^0 norm of cos x2 is sqrt(1/2); equals L^2 value / (2 pi)^{d/2}
        assert abs(val - np.sqrt(0.5)) < 1e-13
        assert abs(val - lp_norm(cos_x2_field(grid), 2) / (2 * np.pi)) < 1e-13

    def test_doubling_eigenvalues(self, grid):
        spec = default_qwiener(2, 5)
        f = additive_intensity(default_mode_fields(grid, spec))
        u, theta = zero_state(grid)
        a = hs_norm(NoiseModel(spec, f), u, theta, 1)
        spec2 = QWienerSpec(spec.modes, 2 * spec.eigenvalues)
        b = hs_norm(NoiseModel(spec2, f), u, theta, 1)
        assert abs(b - np.sqrt(2) * a) < 1e-12 * a

    def test_multiplicative_envelope_evaluated_once(self, grid, monkeypatch):
        spec = default_qwiener(2, 6)
        f = NoiseIntensity(
            "multiplicative", tuple(default_mode_fields(grid, spec)), 0.5, 0.7, 0.3
        )
        rng = np.random.default_rng(12)
        u = SpectralVectorField.from_samples(
            grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
        )
        theta = SpectralScalarField.from_samples(grid, rng.standard_normal(grid.shape))
        # the per-mode sum, each mode's field built on its own
        envelope = 0.5 + 0.7 * u.samples + 0.3 * theta.samples
        want = 0.0
        for lam, base in zip(spec.eigenvalues, f.base_fields):
            fe = SpectralVectorField.from_sample_stack(grid, base.samples * envelope)
            want += lam * sobolev_norm(leray_project(fe), 2) ** 2
        calls = []
        original = NoiseIntensity.mode_samples

        def counted(self, u, theta):
            calls.append(1)
            return original(self, u, theta)

        monkeypatch.setattr(NoiseIntensity, "mode_samples", counted)
        assert hs_norm(NoiseModel(spec, f), u, theta, 2) == float(np.sqrt(want))
        assert len(calls) == 1


class TestItoIsometry:
    def test_zero_intensity(self, grid):
        f = additive_intensity([SpectralVectorField.zero(grid)])
        u, theta = zero_state(grid)
        lhs, rhs, gap = ito_isometry_estimate(
            NoiseModel(single_mode_spec(), f), u, theta, 0.01, 10, 8, RandomStream(0)
        )
        assert (lhs, rhs, gap) == (0.0, 0.0, 0.0)

    def test_rejects_zero_paths(self, grid):
        noise = NoiseModel(single_mode_spec(), additive_intensity([cos_x2_field(grid)]))
        u, theta = zero_state(grid)
        with pytest.raises(ValueError):
            ito_isometry_estimate(noise, u, theta, 0.01, 10, 0, RandomStream(0))

    def test_single_mode_gap(self, grid):
        f = additive_intensity([cos_x2_field(grid)])
        u, theta = zero_state(grid)
        noise = NoiseModel(single_mode_spec(), f)
        lhs, rhs, gap = ito_isometry_estimate(
            noise, u, theta, 0.01, 20, 2000, RandomStream(1)
        )
        assert rhs == pytest.approx(20 * 0.01 * 0.5, rel=1e-12)
        assert gap <= 0.1

    def test_two_modes_additive(self, grid):
        spec = QWienerSpec(
            (((0, 1), "cos"), ((1, 0), "cos")), np.array([1.0, 1.0])
        )
        f1 = SpectralVectorField.from_samples(
            grid, np.cos(grid.x_mesh[1]), np.zeros(grid.shape)
        )
        f2 = SpectralVectorField.from_samples(
            grid, np.zeros(grid.shape), np.cos(grid.x_mesh[0])
        )
        u, theta = zero_state(grid)
        noise = NoiseModel(spec, additive_intensity([f1, f2]))
        lhs, rhs, gap = ito_isometry_estimate(
            noise, u, theta, 0.01, 20, 2000, RandomStream(2)
        )
        # independence: variances add across modes
        assert rhs == pytest.approx(2 * 20 * 0.01 * 0.5, rel=1e-12)
        assert gap <= 0.1


class TestConditions:
    def test_lipschitz_bound(self, grid):
        spec = default_qwiener(2, 5)
        fields = default_mode_fields(grid, spec)
        f = NoiseIntensity("multiplicative", tuple(fields), 0.2, 0.8, 0.5)
        c2 = abs(f.a1) + abs(f.a2)
        sup_factor = max(
            np.sqrt(lam) * lp_norm(fld, np.inf)
            for lam, fld in zip(spec.eigenvalues, fields)
        )
        rng = np.random.default_rng(9)
        for _ in range(5):
            u1 = SpectralVectorField.from_samples(
                grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
            )
            u2 = SpectralVectorField.from_samples(
                grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
            )
            t1 = SpectralScalarField.from_samples(grid, rng.standard_normal(grid.shape))
            t2 = SpectralScalarField.from_samples(grid, rng.standard_normal(grid.shape))
            # the (d, m, *grid) mode stacks, projected mode by mode in one call
            diff = f.mode_samples(u1, t1) - f.mode_samples(u2, t2)
            projected = leray_project(SpectralVectorField(grid, samples=diff))
            coeffs = projected.coefficients
            lhs_sq = np.einsum("m,dmxy->", spec.eigenvalues, np.abs(coeffs) ** 2)
            du = u1 - u2
            dtheta = t1 - t2
            state_norm = np.sqrt(
                sobolev_norm(du, 0) ** 2 + sobolev_norm(dtheta, 0) ** 2
            )
            assert np.sqrt(lhs_sq) <= c2 * state_norm * sup_factor * np.sqrt(
                spec.truncation
            )

    def test_linear_growth(self, grid):
        spec = default_qwiener(2, 5)
        f = NoiseIntensity(
            "multiplicative", tuple(default_mode_fields(grid, spec)), 0.3, 0.6, 0.4
        )
        rng = np.random.default_rng(17)
        ratios = []
        for _ in range(5):
            u = SpectralVectorField.from_samples(
                grid, rng.standard_normal(grid.shape), rng.standard_normal(grid.shape)
            )
            theta = SpectralScalarField.from_samples(
                grid, rng.standard_normal(grid.shape)
            )
            s = 2
            val = hs_norm(NoiseModel(spec, f), u, theta, s)
            ratios.append(
                val / (1 + sobolev_norm(u, s) + sobolev_norm(theta, s))
            )
        measured = max(ratios)
        assert np.isfinite(measured)
        # loose sanity bound: growth constant scaled by the field roughness
        assert measured < 50 * (abs(f.a0) + abs(f.a1) + abs(f.a2))
