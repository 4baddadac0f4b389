"""Dyadic partition, blocks, Besov norms, drift norms, mollification."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from heatlab import drifts, dyadic as dy, grid as g
from heatlab.errors import IndexOutOfRange, PartitionInfeasible


def test_partition_of_unity(spec40):
    part = dy.build_partition(spec40)
    total = sum(part.rho)
    assert np.abs(total - 1.0).max() < 1e-12
    sq = sum(r**2 for r in part.rho)
    assert sq.min() >= 0.5 - 1e-12
    assert sq.max() <= 1.0 + 1e-12


def test_partition_disjoint_supports(spec40):
    part = dy.build_partition(spec40)
    for i in part.indices:
        for j in part.indices:
            if j - i >= 2:
                assert not np.any((part.multiplier(i) > 0) & (part.multiplier(j) > 0))


def test_partition_dyadic_scaling(spec40):
    # rho_i(xi) = rho_0(2^{-i} xi): compare at radii present at both scales
    part = dy.build_partition(spec40)
    r = np.sqrt(g.freq_sq(spec40))
    for i in (1, 2):
        probe = np.geomspace(2.0**i, 2.0 ** (i + 1), 9)
        v_i = np.interp(probe, np.sort(r), part.multiplier(i)[np.argsort(r)])
        v_0 = np.interp(probe / 2**i, np.sort(r), part.multiplier(0)[np.argsort(r)])
        assert np.abs(v_i - v_0).max() < 5e-2  # interp slack; exact at grid radii


def test_partition_infeasible():
    tiny = g.GridSpec(d=1, n=8, L=10.0)
    with pytest.raises(PartitionInfeasible):
        dy.build_partition.__wrapped__(tiny)


def test_block_frequency_localization(spec8pi):
    part = dy.build_partition(spec8pi)
    x = spec8pi.axis_points()
    xi0 = 6.0  # inside block 2's plateau
    assert part.multiplier(2)[np.argmin(np.abs(spec8pi.axis_freqs() - xi0))] == 1.0
    f = g.GridField(spec8pi, np.cos(xi0 * x))
    b2 = dy.block(f, 2)
    b0 = dy.block(f, 0)
    assert np.abs(b2.values - f.values).max() < 1e-12
    assert np.abs(b0.values).max() < 1e-12


def test_block_two_apart_annihilate(spec40):
    rng = np.random.default_rng(3)
    f = g.GridField(spec40, rng.standard_normal(spec40.shape))
    for i, j in ((0, 2), (1, 3), (-1, 1)):
        bb = dy.block(dy.block(f, i), j)
        assert np.abs(bb.values).max() < 1e-12 * np.abs(f.values).max()


def test_block_reconstruction(spec40):
    part = dy.build_partition(spec40)
    rng = np.random.default_rng(4)
    for _ in range(20):
        f = g.GridField(spec40, rng.standard_normal(spec40.shape))
        low = dy.block(f, -1).values
        high = dy.block(f, dy.GEQ0).values
        assert np.abs(low + high - f.values).max() < 1e-10 * np.abs(f.values).max()
        full = sum(dy.block(f, i).values for i in part.indices)
        assert np.abs(full - f.values).max() < 1e-10 * np.abs(f.values).max()


def test_block_index_range(spec40):
    f = g.gaussian(spec40, 1.0)
    with pytest.raises(IndexOutOfRange):
        dy.block(f, 99)
    with pytest.raises(IndexOutOfRange):
        dy.block(f, -2)


def test_besov_single_wave(spec8pi):
    part = dy.build_partition(spec8pi)
    x = spec8pi.axis_points()
    xi = spec8pi.axis_freqs()
    # a frequency on block 3's plateau
    cand = np.where(part.multiplier(3) == 1.0)[0]
    xi0 = xi[cand[np.argmin(np.abs(np.abs(xi[cand]) - 12))]]
    amp = 0.7
    f = g.GridField(spec8pi, amp * np.cos(abs(xi0) * x))
    val = dy.besov_norm(f, dy.BesovIndex(2.0, np.inf, 1))
    assert abs(val - 2.0**6 * amp) < 1e-8


def test_besov_monotone_in_s(spec40):
    rng = np.random.default_rng(5)
    f = g.GridField(spec40, rng.standard_normal(spec40.shape))
    ss = [-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]
    vals = [dy.besov_norm(f, dy.BesovIndex(s, np.inf, 1)) for s in ss]
    assert all(a <= b * (1 + 1e-12) for a, b in zip(vals, vals[1:]))


def test_besov_dirac_l1_flat():
    # ||Delta_i delta||_{L^1} is i-independent over fully resolved blocks
    spec = g.make_grid(1, 1024, 20.0)
    i_hi = int(np.floor(np.log2(3 * (np.pi * spec.n / spec.L) / 8)))
    delta = g.discrete_delta(spec)
    vals = [g.lp_norm(dy.block(delta, i), 1) for i in range(0, i_hi + 1)]
    assert max(vals) / min(vals) < 1.10


def test_besov_embedding_constant(spec40):
    # B^{-a}_{inf,1} <-> C^{-a} sandwich: finite observed constant
    rng = np.random.default_rng(6)
    alpha, eps = 0.25, 0.05
    worst = 0.0
    for _ in range(20):
        f = g.GridField(spec40, rng.standard_normal(spec40.shape))
        lower = dy.besov_norm(f, dy.BesovIndex(-alpha - eps, np.inf, 1))
        upper = dy.besov_norm(f, dy.BesovIndex(-alpha, np.inf, np.inf))
        worst = max(worst, lower / upper)
    assert np.isfinite(worst)
    assert worst < 50


def test_drift_norms_presets(spec8pi):
    b0 = drifts.zero_drift(spec8pi)
    assert dy.drift_norms(b0) == (0.0, 0.0)
    bc = drifts.constant_drift(spec8pi, -1.5)
    X, Y = dy.drift_norms(bc)
    assert abs(X - 1.5) < 1e-12 and Y < 1e-12


def _drift_norms_per_sample(b):
    # one sample and one component at a time, through the public block helpers
    idx = dy.BesovIndex(s=-b.alpha, p=np.inf, q=1)
    X = Y = 0.0
    for j in range(len(b.times)):
        x_j = y_j = 0.0
        for c in range(b.spec.d):
            comp = b.values[j, c]
            low = dy.block_values(b.spec, comp, -1)
            x_j += float(np.abs(low).max())
            y_j += dy.besov_norm_values(b.spec, comp - low, idx)
        X, Y = max(X, x_j), max(Y, y_j)
    return X, Y


@pytest.mark.parametrize("preset", ["zero", "constant", "single-mode", "multi-mode",
                                    "time-varying", "refreshing-mode", "traveling-mode"])
def test_drift_norms_blocks_match_per_sample_loop(spec8pi, preset):
    # 1025 time samples is not a multiple of the sample block: the last,
    # partial block is covered
    b = drifts.make_preset(preset, spec8pi, amplitude=0.8, horizon=1.0)
    assert dy.drift_norms(b) == _drift_norms_per_sample(b)


def test_drift_norms_blocks_match_per_sample_loop_2d():
    spec = g.make_grid(2, 32, 8 * np.pi)
    b = drifts.make_preset("time-varying", spec, amplitude=1.0, horizon=1.0)
    assert len(b.times) % dy._SAMPLE_BLOCK != 0
    assert dy.drift_norms(b) == _drift_norms_per_sample(b)


def test_drift_norms_single_mode_oracle(spec8pi):
    # oracle: a pure block-2 wave has X = 0 and Y = A * 2^{-2 alpha} exactly
    # (grid sup of the cosine is 1 since x=0 is a grid point)
    A, alpha = 2.0, 0.25
    b = drifts.single_mode_drift(spec8pi, amplitude=A, alpha=alpha)
    X, Y = dy.drift_norms(b)
    assert X < 1e-10
    assert abs(Y - A * 2 ** (-2 * alpha)) < 0.02 * A


def test_drift_norms_are_stored_on_the_drift(monkeypatch, spec8pi):
    b = drifts.make_preset("time-varying", spec8pi, amplitude=0.8, horizon=1.0)
    first = dy.drift_norms(b)
    calls = {"rfft": 0, "irfft": 0}
    for name in calls:
        def counting(*args, _name=name, _orig=getattr(g, name)):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(g, name, counting)
    assert dy.drift_norms(b) is first
    assert calls == {"rfft": 0, "irfft": 0}
    # shifted and mollified drifts are new instances: they compute their own
    assert dy.drift_norms(b.shift(0.5)) == _drift_norms_per_sample(b.shift(0.5))
    assert calls["rfft"] > 0
    before = dict(calls)
    mollified = dy.mollify_drift(b, 2)
    after_mollify = dict(calls)
    assert dy.drift_norms(mollified) == _drift_norms_per_sample(mollified)
    assert calls["rfft"] > after_mollify["rfft"] > before["rfft"]


def test_drift_values_are_read_only_but_the_callers_array_is_not(spec8pi_small):
    vals = np.ones((1, 1) + spec8pi_small.shape)
    b = dy.DriftField(spec8pi_small, [0.0], vals)
    with pytest.raises(ValueError):
        b.values[0, 0, 0] = 2.0
    with pytest.raises(ValueError):
        b.at_time(0.0)[0] *= 2.0
    vals[0, 0, 0] = 2.0  # the caller's array is not frozen


def _argmin_index(times, t):
    idx = np.argmin(np.abs(times - np.expand_dims(t, -1)), axis=-1)
    return int(idx) if np.ndim(t) == 0 else idx


@st.composite
def _times_and_queries(draw):
    steps = draw(arrays(float, st.integers(0, 40),
                        elements=st.floats(1e-6, 1e3, allow_subnormal=False)))
    times = np.concatenate([[0.0], np.cumsum(steps)])
    times = times[np.concatenate([[True], np.diff(times) > 0])]
    mids = (times[1:] + times[:-1]) / 2  # exact ties
    span = times[-1] + 1.0
    free = draw(arrays(float, st.integers(0, 20),
                       elements=st.floats(-10 * span, 10 * span)))
    far = np.array([-1e300, 1e300, -np.inf, np.inf])
    return times, np.concatenate([times, mids, free, far])


@settings(max_examples=200, deadline=None)
@given(_times_and_queries())
def test_time_index_bisection_equals_argmin(spec8pi_small, case):
    times, t = case
    b = dy.DriftField(spec8pi_small, times, np.zeros((len(times), 1) + spec8pi_small.shape))
    got = b.time_index(t)
    assert got.dtype == np.intp and np.array_equal(got, _argmin_index(times, t))
    assert np.array_equal(b.time_index(t.reshape(-1, 1)), _argmin_index(times, t[:, None]))
    for s in np.concatenate([t[:4], t[-6:]]):  # samples, free and far t
        one = b.time_index(s)
        assert type(one) is int and one == _argmin_index(times, s)


def test_mollify_drift(spec8pi):
    part = dy.build_partition(spec8pi)
    b = drifts.multi_mode_drift(spec8pi, amplitude=1.0, seed=9)
    full = dy.mollify_drift(b, part.j_max)
    again = dy.mollify_drift(b, part.j_max + 5)
    assert np.abs(full.values - again.values).max() < 1e-12
    bc = drifts.constant_drift(spec8pi, 2.0)
    assert np.abs(dy.mollify_drift(bc, 3).values).max() < 1e-12
    with pytest.raises(ValueError):
        dy.mollify_drift(b, 0)


def test_mollify_converges_and_norms_bounded(spec8pi):
    part = dy.build_partition(spec8pi)
    b = drifts.multi_mode_drift(spec8pi, amplitude=1.0, seed=9)
    full = dy.mollify_drift(b, part.j_max)
    idx = dy.BesovIndex(-b.alpha, np.inf, 1)
    dists = []
    for n in (1, 2, 3, 4):
        bn = dy.mollify_drift(b, n)
        dists.append(dy.besov_norm_values(spec8pi, (bn.values - full.values)[0, 0], idx))
    assert all(a >= b_ for a, b_ in zip(dists, dists[1:]))
    X, Y = dy.drift_norms(b)
    for n in (1, 2, 4):
        Xn, Yn = dy.drift_norms(dy.mollify_drift(b, n))
        assert Xn <= 2 * X + 1e-12
        assert Yn <= 2 * Y + 1e-12


def test_product_bound_ratio(spec8pi):
    zero = g.GridField(spec8pi, np.zeros(spec8pi.shape))
    one = g.GridField(spec8pi, np.ones(spec8pi.shape))
    rng = np.random.default_rng(7)
    u = g.GridField(spec8pi, rng.standard_normal(spec8pi.shape))
    assert dy.product_bound_ratio(zero, u, -0.3, 1.5, np.inf, np.inf, 1, 1) == 0.0
    r_one = dy.product_bound_ratio(u, one, -0.3, 1.5, np.inf, np.inf, 1, 1)
    assert np.isfinite(r_one) and r_one < 10
    with pytest.raises(ValueError):
        dy.product_bound_ratio(u, one, -0.5, 0.3, np.inf, np.inf, 1, 1)


def test_product_bound_ratio_random_sample(spec8pi_small):
    # empirical sup of the product estimate ratio over band-limited pairs
    spec = spec8pi_small
    part = dy.build_partition(spec)
    rng = np.random.default_rng(8)
    x = spec.axis_points()
    worst = 0.0
    for _ in range(100):
        uu = np.zeros(spec.shape)
        vv = np.zeros(spec.shape)
        for _ in range(4):
            k1, k2 = rng.integers(1, spec.n // 4, size=2)
            uu += rng.normal() * np.cos(2 * np.pi * k1 / spec.L * x + rng.uniform(0, 7))
            vv += rng.normal() * np.cos(2 * np.pi * k2 / spec.L * x + rng.uniform(0, 7))
        r = dy.product_bound_ratio(g.GridField(spec, uu), g.GridField(spec, vv),
                                   -0.3, 1.5, np.inf, np.inf, 1, 1)
        worst = max(worst, r)
    assert np.isfinite(worst)
    assert worst < 100


def test_shift_past_horizon(spec8pi_small):
    b = drifts.make_preset("traveling-mode", spec8pi_small, horizon=1.0)
    assert b.shift(0.5).horizon == pytest.approx(0.5)
    with pytest.raises(ValueError, match="horizon"):
        b.shift(1.5)
    with pytest.raises(ValueError, match="nonnegative"):  # would re-time the samples
        b.shift(-0.5)
    static = drifts.single_mode_drift(spec8pi_small)
    moved = static.shift(1.5)  # a one-sample drift is the same at every time
    assert np.array_equal(moved.times, [0.0])
    assert np.array_equal(moved.values, static.values)
