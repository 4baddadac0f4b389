"""Grid substrate: spectral Gaussians, semigroup, convolution, norms."""

import numpy as np
import pytest
from scipy.integrate import quad

from heatlab import grid as g
from heatlab.errors import (
    DivergentMoment,
    NotPowerOfTwo,
    SpecMismatch,
    WraparoundRisk,
)


def test_make_grid_examples():
    spec = g.make_grid(1, 256, 40)
    assert spec.h == 0.15625
    spec2 = g.make_grid(2, 64, 20)
    assert spec2.size == 4096
    with pytest.raises(NotPowerOfTwo):
        g.make_grid(1, 100, 40)
    with pytest.raises(NotPowerOfTwo):
        g.make_grid(1, 8, 40)
    with pytest.raises(SpecMismatch):
        g.make_grid(3, 64, 20)
    with pytest.raises(ValueError):
        g.make_grid(1, 64, -1.0)


def test_gaussian_origin_value_and_mass(spec40):
    p = g.gaussian(spec40, 1.0)
    assert abs(p.values[spec40.n // 2] - (2 * np.pi) ** -0.5) < 1e-8
    assert abs(p.integral() - 1.0) < 1e-10


def test_gaussian_even_symmetry(spec40):
    p = g.gaussian(spec40, 0.7)
    v = p.values
    # even on the grid: v[i0+k] == v[i0-k]
    i0 = spec40.n // 2
    k = np.arange(1, i0)
    assert np.array_equal(v[i0 + k], v[i0 - k])


def test_gaussian_wraparound_guard(spec40):
    with pytest.raises(WraparoundRisk):
        g.gaussian(spec40, (40 / 8) ** 2 * 1.1)
    with pytest.raises(ValueError):
        g.gaussian(spec40, 0.0)


def test_gaussian_2d_tensorizes(spec2d):
    p2 = g.gaussian(spec2d, 0.5)
    spec1 = g.make_grid(1, spec2d.n, spec2d.L)
    p1 = g.gaussian(spec1, 0.5).values
    assert np.abs(p2.values - np.outer(p1, p1)).max() < 1e-10


def test_gaussian_deriv_odd_and_identity(spec40):
    d1 = g.gaussian_deriv(spec40, 1.0, (1,))
    assert abs(d1.values[spec40.n // 2]) < 1e-12
    x = spec40.axis_points()
    p = g.gaussian(spec40, 1.0)
    assert np.abs(d1.values + x * p.values).max() < 1e-8
    with pytest.raises(ValueError):
        g.gaussian_deriv(spec40, 1.0, (3,))


def test_gaussian_deriv_envelope_constant_stable():
    # measured C(t, mu) = sup |d^mu p| / (t^{-|mu|/2} p(ct, .)) should be
    # essentially t-independent (scaling exactness up to periodization); the
    # grid must tail-resolve the smallest time (exp(-t xi_max^2/2) ~ 0)
    spec = g.make_grid(1, 8192, 40.0)
    c = 2.0
    for mu in ((1,), (2,)):
        consts = []
        for t in (0.01, 0.1, 1.0, 10.0):
            dp = np.abs(g.gaussian_deriv(spec, t, mu).values)
            env = g.gaussian(spec, c * t).values
            mask = env > 1e-13 * env.max()
            order = sum(mu)
            consts.append((dp[mask] / (t ** (-order / 2) * env[mask])).max())
        consts = np.array(consts)
        assert consts.max() / consts.min() < 10
        assert consts.max() / consts.min() < 1.01  # scaling is in fact exact


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_fft_is_bit_identical_to_the_scaled_numpy_transform(spec40, spec2d, kind):
    # the result is h^d * fftn bit for bit, in a fresh array, on real and
    # complex input alike
    rng = np.random.default_rng(5)
    for spec, shape in ((spec40, (7, 3, spec40.n)), (spec2d, (4, spec2d.n, spec2d.n))):
        values = rng.standard_normal(shape)
        if kind == "complex":
            values = values + 1j * rng.standard_normal(shape)
        kept = values.copy()
        got = g.fft(spec, values)
        expect = spec.cell * np.fft.fftn(values, axes=tuple(range(-spec.d, 0)))
        assert got.dtype == np.complex128 and np.array_equal(got, expect)
        assert np.array_equal(values, kept) and not np.shares_memory(got, values)


def test_half_spectrum_transforms_match_the_full_ones(spec40, spec2d):
    # rfft is h^d * rfftn bit for bit and holds the first n//2+1 bins of the
    # last axis of fft; irfft inverts it; both return fresh arrays
    rng = np.random.default_rng(6)
    for spec, shape in ((spec40, (7, 3, spec40.n)), (spec2d, (4, spec2d.n, spec2d.n))):
        axes = tuple(range(-spec.d, 0))
        values = rng.standard_normal(shape)
        kept = values.copy()
        half = g.rfft(spec, values)
        assert half.shape == shape[:-1] + (spec.n // 2 + 1,)
        assert np.array_equal(half, spec.cell * np.fft.rfftn(values, axes=axes))
        full = g.fft(spec, values)
        assert np.abs(half - full[..., : spec.n // 2 + 1]).max() <= 1e-13 * np.abs(full).max()
        assert np.array_equal(values, kept) and not np.shares_memory(half, values)
        back_kept = half.copy()
        back = g.irfft(spec, half)
        assert back.dtype == np.float64 and back.shape == shape
        assert np.array_equal(back, np.fft.irfftn(half, s=spec.shape, axes=axes) / spec.cell)
        assert np.abs(back - values).max() <= 1e-13 * np.abs(values).max()
        assert np.abs(back - g.ifft(spec, full)).max() <= 1e-13 * np.abs(values).max()
        assert np.array_equal(half, back_kept) and not np.shares_memory(back, half)


def test_semigroup_identity_and_law(spec40):
    rng = np.random.default_rng(0)
    f = g.GridField(spec40, rng.standard_normal(spec40.shape))
    assert np.array_equal(g.semigroup_apply(f, 0.0).values, f.values)
    for s, t in ((0.3, 0.7), (0.05, 0.6)):
        lhs = g.semigroup_apply(g.semigroup_apply(f, t), s).values
        rhs = g.semigroup_apply(f, s + t).values
        assert np.abs(lhs - rhs).max() < 1e-10 * np.abs(f.values).max()


def test_convolve_gaussian_semigroup(spec40):
    for t, s in ((0.25, 0.5), (1.0, 0.5)):
        conv = g.convolve(g.gaussian(spec40, t), g.gaussian(spec40, s))
        assert np.abs(conv.values - g.gaussian(spec40, t + s).values).max() < 1e-10


def test_convolve_delta_identity(spec40):
    rng = np.random.default_rng(1)
    f = g.GridField(spec40, rng.standard_normal(spec40.shape))
    conv = g.convolve(f, g.discrete_delta(spec40))
    assert np.abs(conv.values - f.values).max() < 1e-10 * np.abs(f.values).max()


def test_convolve_dilated_identity(spec40):
    # p(c(t-s)) * p(cs) = p(ct), the composition step of the kernel estimates
    c = 2.0
    for t in (0.25, 1.0):
        for s in (t / 4, t / 2):
            conv = g.convolve(g.gaussian(spec40, c * (t - s)), g.gaussian(spec40, c * s))
            assert np.abs(conv.values - g.gaussian(spec40, c * t).values).max() < 1e-10


def test_convolve_spec_mismatch(spec40, spec8pi):
    with pytest.raises(SpecMismatch):
        g.convolve(g.gaussian(spec40, 1.0), g.gaussian(spec8pi, 1.0))


def test_lp_norms(spec40):
    assert abs(g.lp_norm(g.gaussian(spec40, 1.0), 1) - 1.0) < 1e-10
    const = g.GridField(spec40, np.full(spec40.shape, 3.0))
    assert g.lp_norm(const, np.inf) == 3.0


def test_lp_norm_grad_gaussian_vs_quadrature_oracle():
    # oracle: integral |x| p(1,x) dx by adaptive quadrature = 2 p(1,0)
    oracle, _ = quad(lambda x: abs(x) * np.exp(-x * x / 2) / np.sqrt(2 * np.pi),
                     -15, 15, points=[0.0], limit=200)
    spec = g.make_grid(1, 16384, 40.0)
    val = g.lp_norm(g.gaussian_deriv(spec, 1.0, (1,)), 1)
    assert abs(oracle - 2 * (2 * np.pi) ** -0.5) < 1e-12
    assert abs(val - oracle) < 1e-6


def test_gaussian_exp_moment():
    assert abs(g.gaussian_exp_moment(0.5, 0.5, 1.0, 1) - np.sqrt(2)) < 1e-6
    assert abs(g.gaussian_exp_moment(0.3, 0.0, 2.0, 2) - 1.0) < 1e-9
    with pytest.raises(DivergentMoment):
        g.gaussian_exp_moment(0.4, 1.25, 1.0, 1)
    # closed form at d=2
    c, k = 0.25, 1.0
    assert abs(g.gaussian_exp_moment(c, k, 0.5, 2) - 1 / (1 - 2 * c * k)) < 1e-6


def test_field_rejects_nonfinite(spec40):
    bad = np.zeros(spec40.shape)
    bad[0] = np.nan
    with pytest.raises(ValueError):
        g.GridField(spec40, bad)
