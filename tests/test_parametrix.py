"""Correction-series construction: families, series, composition."""

import itertools
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import full_spectrum as fs
from heatlab import cauchy as cy, drifts, grid as g, parametrix as px
from heatlab.dyadic import DriftField
from heatlab.errors import NoDecay, QuadratureDivergence, WraparoundRisk


def _families(b, t, k_max, m=128):
    """Node times and Psi^{0,k} in physical space, k = 1..k_max, from the
    engine's family walk."""
    walk = px._families(b, t, 0.0, m)
    fams = [next(walk) for _ in range(k_max)]
    return fams[0][0], [g.irfft(b.spec, psi_hat) for _, psi_hat in fams]


def _l1_norms(spec, fields):
    return spec.cell * np.abs(fields).sum(axis=-1)


def test_psi_first_zero_drift(spec8pi_small):
    _, (psi1,) = _families(drifts.zero_drift(spec8pi_small), 1.0, 1)
    assert np.abs(psi1).max() == 0.0


def test_psi_first_constant_drift_formula(spec8pi_small):
    # for b = lambda the divergence form collapses to -lambda * dp(s, .-y)
    spec = spec8pi_small
    lam = 1.3
    s, (psi1,) = _families(drifts.constant_drift(spec, lam), 1.0, 1)
    for j in (1, len(s) // 2, len(s) - 1):
        expect = -lam * g.gaussian_deriv(spec, s[j], (1,)).values
        assert np.abs(psi1[j] - expect).max() < 1e-10


def test_psi_first_l1_singularity_scale(spec8pi_small):
    # ||Psi^1_s||_1 * sqrt(s) stays under the analytic envelope
    spec = spec8pi_small
    b = drifts.single_mode_drift(spec, amplitude=1.0, xi0=1.0)
    s, (psi1,) = _families(b, 1.0, 1)
    prod = _l1_norms(spec, psi1)[1:] * np.sqrt(s[1:])
    bound = np.sqrt(2 / np.pi) * 1.0 + np.sqrt(1.0) * 1.0  # sup|b|, sup|div b| = 1
    assert prod.max() < 2 * bound


def test_psi_next_zero_and_growth(spec8pi_small):
    spec = spec8pi_small
    _, (_, psi2) = _families(drifts.zero_drift(spec), 1.0, 2)
    assert np.abs(psi2).max() == 0.0
    # integral of ||Psi^k||_1 grows no faster than t^{(1+3k)/2}
    b = drifts.single_mode_drift(spec, amplitude=1.0, xi0=1.0)
    for k in (1, 2):
        vals = []
        for t in (0.5, 1.0, 2.0):
            s, fams = _families(b, t, k)
            vals.append(np.trapezoid(_l1_norms(spec, fams[k - 1]), s))
        assert vals[-1] / vals[0] < 4.0 ** ((1 + 3 * k) / 2)
        assert all(np.isfinite(vals))


def test_gamma_series_zero_drift(spec8pi):
    for t in (0.25, 1.0):
        res = px.gamma_series(drifts.zero_drift(spec8pi), t, 0.0)
        assert res.K_used == 1
        assert np.abs(res.gamma.values - g.gaussian(spec8pi, t).values).max() < 1e-8


def test_time_nodes_need_an_interval(spec8pi_small):
    # m = 0 divides by zero in the node formula: a NaN node, and a series
    # that silently drops every correction
    for m in (0, -2):
        with pytest.raises(ValueError, match="m >= 1"):
            px.time_nodes(1.0, m)
    with pytest.raises(ValueError, match="m >= 1"):
        px.gamma_series(drifts.constant_drift(spec8pi_small, 1.0), 1.0, 0.0, m=0)
    # an odd m still rounds up to the next even count
    assert np.array_equal(px.time_nodes(1.0, 1), px.time_nodes(1.0, 2))
    assert np.array_equal(px.time_nodes(1.0, 3), px.time_nodes(1.0, 4))
    assert len(px.time_nodes(1.0, 1)) == 3


_PROPERTY_SPEC = g.make_grid(1, 128, 8 * np.pi)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(t=st.floats(0.1, 1.0), cell=st.integers(-16, 16), frac=st.floats(0.05, 0.95),
       preset=st.sampled_from(["zero", "single-mode", "multi-mode", "time-varying",
                               "refreshing-mode", "traveling-mode"]),
       amplitude=st.floats(0.0, 1.0))
def test_series_keeps_unit_mass_and_the_driftless_gaussian(t, cell, frac, preset,
                                                           amplitude):
    spec = _PROPERTY_SPEC
    y = (cell + frac) * spec.h  # off the grid
    b = drifts.make_preset(preset, spec, amplitude=amplitude)
    res = px.gamma_series(b, t, y, m=64)
    assert abs(res.gamma.integral() - 1.0) <= 1e-12
    if preset == "zero":
        assert res.gamma.values.tobytes() == g.gaussian_shifted(spec, t, y).values.tobytes()


def test_gamma_series_constant_drift(spec8pi):
    res = px.gamma_series(drifts.constant_drift(spec8pi, 1.0), 1.0, 0.0, K_max=8)
    target = g.gaussian_shifted(spec8pi, 1.0, 1.0).values
    rel = np.abs(res.gamma.values - target).max() / target.max()
    assert rel < 1e-3
    assert abs(res.gamma.integral() - 1.0) < 1e-12


def test_gamma_series_mass_and_positivity(spec8pi):
    b = drifts.single_mode_drift(spec8pi, amplitude=1.0, xi0=1.0)
    res = px.gamma_series(b, 1.0, 0.0)
    assert abs(res.gamma.integral() - 1.0) < 1e-4  # in fact machine-exact
    assert abs(res.gamma.integral() - 1.0) < 1e-12
    assert res.gamma.values.min() > -1e-10
    assert res.term_sup_norms[-1] < res.term_sup_norms[0]
    assert res.tail_estimate < 1e-2


def test_gamma_series_no_decay(spec8pi_small):
    with pytest.raises(NoDecay):
        px.gamma_series(drifts.constant_drift(spec8pi_small, 30.0), 1.0, 0.0, K_max=4)


def test_gamma_series_translation_covariance(spec8pi_small):
    spec = spec8pi_small
    b = drifts.constant_drift(spec, 0.7)
    res0 = px.gamma_series(b, 0.5, 0.0, K_max=8)
    k = 10
    y = k * spec.h
    res1 = px.gamma_series(b, 0.5, y, K_max=8)
    assert np.abs(np.roll(res0.gamma.values, k) - res1.gamma.values).max() < 1e-12


def test_gamma_grad_odd_symmetry_oracle(spec8pi):
    # even drift about the source: odd part of (Gamma - p) is the first
    # correction term up to higher-order (even) corrections
    spec = spec8pi
    b = drifts.single_mode_drift(spec, amplitude=0.5, xi0=1.0)  # cos(x), even at y=0
    res = px.gamma_series(b, 1.0, 0.0)
    v = res.gamma.values
    mirror = np.roll(v[::-1], 1)
    odd = 0.5 * (v - mirror)
    term1 = res.term_fields[0]
    scale = np.abs(term1).max()
    assert np.abs(odd - term1).max() < 0.3 * scale


def test_quadrature_divergence_detected(spec8pi_small):
    # synthetic family alternating sign per node: coarse/fine trapezoid differ O(1)
    spec = spec8pi_small
    s = px.time_nodes(1.0, 8)
    base = g.gaussian(spec, 0.5).values
    psi_hat = g.rfft(spec, np.stack([(-1.0) ** j * base for j in range(len(s))]))
    with pytest.raises(QuadratureDivergence):
        px._duhamel(spec, psi_hat, s)


def test_series_term_vs_family_propagation(spec8pi_small):
    # family k=2 is -div(b * G_1) with G_1(0) = 0, so it vanishes at s=0
    spec = spec8pi_small
    b = drifts.single_mode_drift(spec, amplitude=1.0, xi0=1.0)
    _, (psi1, psi2) = _families(b, 0.5, 2)
    assert psi2.shape == psi1.shape
    assert np.abs(psi2[0]).max() == 0.0
    assert np.abs(psi2).max() > 0.0


def test_correction_spectra_are_those_of_real_fields(spec8pi_small):
    # the I-tables differentiate the Psi^k spectra directly: an imaginary
    # residue in the DC or Nyquist bin of a half spectrum would be dropped by
    # the inverse transform instead of showing in the field
    spec = spec8pi_small
    b = drifts.make_preset("multi-mode", spec)
    for _, psi_hat in itertools.islice(px._families(b, 0.5, 1.9, 64), 3):
        real = g.rfft(spec, g.irfft(spec, psi_hat))
        assert np.abs(psi_hat - real).max() <= 1e-13 * np.abs(psi_hat).max()


def test_chapman_kolmogorov_zero_and_constant(spec8pi_small):
    spec = spec8pi_small
    r0 = px.chapman_kolmogorov_residual(drifts.zero_drift(spec), 0.25, 0.5, 0.0, m=64)
    assert r0 < 1e-8
    rc = px.chapman_kolmogorov_residual(drifts.constant_drift(spec, 1.0),
                                        0.25, 0.5, 0.0, K_max=16, tol=1e-9, m=256)
    assert rc < 1e-6


def test_batched_sources_match_single(spec8pi_small):
    spec = spec8pi_small
    b = drifts.single_mode_drift(spec, amplitude=1.0, xi0=1.0)
    ys = np.array([[0.0], [5 * spec.h]])
    batch = px.gamma_series(b, 0.5, ys, K_max=6)
    one = px.gamma_series(b, 0.5, 0.0, K_max=6)
    assert np.abs(batch.gamma[0] - one.gamma.values).max() < 1e-13
    two = px.gamma_series(b, 0.5, 5 * spec.h, K_max=6)
    assert np.abs(batch.gamma[1] - two.gamma.values).max() < 1e-13


def _series_per_node(b, t, y, K_max=12, tol=1e-6, m=128):
    # the series one node at a time: drift slice by DriftField.at_time,
    # -div(b G) back in physical space at every node, and the exponential
    # trapezoid on a forward transform of each family (with its even-node
    # Richardson twin); returns (K_used, gamma, quad_gap)
    spec = b.spec
    comps = fs.freqs(spec)
    s = px.time_nodes(t, m)
    y = np.asarray(y, dtype=float)
    dhat = np.stack([fs.delta(spec, yy) for yy in np.atleast_2d(y)])
    dhat = dhat if y.ndim == 2 else dhat[0]

    def neg_div(j, v):
        bsl = b.at_time(s[j])
        return -g.ifft(spec, sum((1j * comps[c]) * g.fft(spec, bsl[c] * v)
                                 for c in range(spec.d)))

    def trapezoid(psi_hat, idx):
        Gh, out = np.zeros_like(psi_hat[0]), [np.zeros(dhat.shape)]
        for j0, j1 in zip(idx[:-1], idx[1:]):
            dt = s[j1] - s[j0]
            Gh = fs.heat(spec, dt) * (Gh + (dt / 2.0) * psi_hat[j0]) \
                + (dt / 2.0) * psi_hat[j1]
            out.append(g.ifft(spec, Gh))
        return Gh, np.stack(out)

    fields = np.stack([neg_div(j, g.ifft(spec, dhat * fs.heat(spec, sj)))
                       for j, sj in enumerate(s)])
    gamma_hat = dhat * fs.heat(spec, t)
    sup_p = g.gaussian(spec, t).values.max()
    quad_gap = 0.0
    for k in range(1, K_max + 1):
        psi_hat = np.stack([g.fft(spec, f) for f in fields])
        Gh, G = trapezoid(psi_hat, range(len(s)))
        _, C = trapezoid(psi_hat, range(0, len(s), 2))
        quad_gap = max(quad_gap, np.abs(C[-1] - G[-1]).max() / np.abs(G[-1]).max())
        gamma_hat = gamma_hat + Gh
        if np.abs(G[-1]).max() <= tol * sup_p:
            break
        fields = np.stack([neg_div(j, G[j]) for j in range(len(s))])
    return k, g.ifft(spec, gamma_hat), quad_gap


def _swapped_single_mode_2d():
    b = drifts.single_mode_drift(g.make_grid(2, 32, 8 * np.pi), amplitude=1.0, xi0=1.0)
    vals = b.values.copy()
    vals[:, 1] = np.swapaxes(vals[:, 1], -1, -2).copy()  # both axes carry drift
    return DriftField(b.spec, b.times, vals, b.alpha, tag=b.tag)


@pytest.mark.parametrize("make_drift, y", [
    (lambda s: drifts.constant_drift(s, 1.0), 0.0),
    (lambda s: drifts.single_mode_drift(s, amplitude=1.0, xi0=1.0), 0.3),
    (lambda s: drifts.make_preset("multi-mode", s), 1.9),
    (lambda s: drifts.make_preset("time-varying", s, horizon=1.0), -1.1),
    (lambda s: drifts.make_preset("traveling-mode", s, horizon=1.0), 0.7),
    (lambda s: drifts.make_preset("traveling-mode", s, horizon=1.0),
     np.array([[-2.0], [-0.4], [0.9], [3.3]])),
    (lambda s: _swapped_single_mode_2d(), np.array([0.4, -0.6])),
], ids=["constant", "single-mode", "multi-mode", "time-varying", "traveling-mode",
        "traveling-mode-batch4", "single-mode-2d"])
def test_series_matches_per_node_loop(spec8pi_small, make_drift, y):
    b = make_drift(spec8pi_small)
    res = px.gamma_series(b, 0.5, y)
    k, gamma, quad_gap = _series_per_node(b, 0.5, y)
    got = res.gamma if np.ndim(y) == 2 else res.gamma.values
    assert res.K_used == k
    assert np.abs(got - gamma).max() <= 1e-13 * np.abs(gamma).max()
    assert abs(res.quad_gap - quad_gap) <= 1e-12


@pytest.mark.parametrize("d, preset", [
    (1, "single-mode"), (1, "traveling-mode"), (1, "multi-mode"),
    (2, "single-mode"), (2, "traveling-mode"), (2, "multi-mode"),
])
def test_off_grid_sources_match_the_full_spectrum_route(d, preset):
    # the full spectrum of an off-grid source is not Hermitian on its Nyquist
    # rows, and in d=2 its slice is no real field's half spectrum (taken as
    # the source, it moved these kernels by 5e-3 to 2e-2); grid.delta_hat is
    # the half spectrum of the real field the full-spectrum route transforms
    spec = g.make_grid(d, 128 if d == 1 else 32, 8 * np.pi)
    b = drifts.make_preset(preset, spec, horizon=1.0)
    y = np.full(d, 1.2345) if d == 2 else 1.2345
    _, _, source, _ = px._first_family(b, 0.5, y, 8)
    point = g.ifft(spec, fs.delta(spec, y))
    assert np.abs(g.irfft(spec, source) - point).max() <= 1e-13 * np.abs(point).max()
    res = px.gamma_series(b, 0.5, y, m=64)
    k, gamma, _ = _series_per_node(b, 0.5, y, m=64)
    assert res.K_used == k
    assert np.abs(res.gamma.values - gamma).max() <= 1e-13 * np.abs(gamma).max()


def test_gamma_series_guards(spec8pi_small):
    spec = spec8pi_small
    b = drifts.single_mode_drift(spec, amplitude=1.0)
    for t in (0.0, -0.5):
        with pytest.raises(ValueError):
            px.gamma_series(b, t, 0.0)
    with pytest.raises(ValueError):
        px.gamma_series(drifts.make_preset("time-varying", spec, horizon=0.5), 0.75, 0.0)
    with pytest.raises(ValueError):
        px.gamma_series(b, 0.5, 0.0, K_max=0)
    with pytest.raises(WraparoundRisk):
        px.gamma_series(b, 1.01 * (spec.L / 8) ** 2, 0.0)


def test_series_transforms_per_term_do_not_grow_with_nodes(spec8pi_small, monkeypatch):
    # each term costs a fixed number of (batched) transforms, whatever m is
    calls = {"n": 0}
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counting(*args, _orig=getattr(g, name)):
            calls["n"] += 1
            return _orig(*args)
        monkeypatch.setattr(g, name, counting)
    b = drifts.single_mode_drift(spec8pi_small, amplitude=1.0, xi0=1.0)

    def count(K, m):
        calls["n"] = 0
        assert px.gamma_series(b, 0.5, 0.0, K_max=K, tol=0.0, m=m).K_used == K
        return calls["n"]

    per_term = {m: count(3, m) - count(2, m) for m in (32, 128)}
    assert per_term[32] == per_term[128] == 3 + spec8pi_small.d
    assert count(3, 32) == count(3, 128)



# -- the engine against its formulas ---------------------------------------------


def _neg_div_hat_formula(spec, bs, v):
    # -sum_c D_c * h^d RFFT(b_c v) on the real product, with fresh temporaries
    axes = tuple(range(-spec.d, 0))
    bs = np.expand_dims(bs, tuple(range(2, v.ndim + 1 - spec.d)))
    return -sum(g.deriv_multiplier(spec, mu)
                * (spec.cell * np.fft.rfftn(bs[:, c] * v, axes=axes))
                for c, mu in enumerate(np.eye(spec.d, dtype=int)))


def _trapezoid_formula(spec, w_hat, times):
    # the recurrence on a zeroed stack, one fresh temporary per operation
    dts = np.diff(times)
    H = g.heat_multiplier(spec, dts)
    G_hat = np.zeros_like(w_hat)
    for j, dt in enumerate(dts):
        G_hat[j + 1] = H[j] * (G_hat[j] + (dt / 2.0) * w_hat[j]) + (dt / 2.0) * w_hat[j + 1]
    return G_hat


def _engine_case(name):
    # (spec, node times, drift slices, physical stack v, its family spectra)
    if name == "single-mode-2d":
        b, y = _swapped_single_mode_2d(), np.array([0.4, -0.6])
    else:
        spec = g.make_grid(1, 128, 8 * np.pi)
        b = drifts.make_preset("multi-mode", spec)
        y = np.linspace(-10.0, 10.0, 40).reshape(-1, 1) if name == "batch-40" else 0.3
    # 22 fine and 11 coarse intervals end in a partial chunk of the trapezoid
    m = 22 if name == "ragged-22" else 32
    s, bs, _, psi_hat = px._first_family(b, 0.5, y, m)
    v = g.irfft(b.spec, px._trapezoid(b.spec, psi_hat, s))
    return b.spec, s, bs, v, psi_hat


_ENGINE_CASES = ["one-source", "batch-40", "single-mode-2d", "ragged-22"]


@pytest.mark.parametrize("case", _ENGINE_CASES)
def test_neg_div_hat_is_bit_identical_to_its_formula(case):
    spec, _, bs, v, _ = _engine_case(case)
    assert all(np.abs(bs[:, c]).max() > 0 for c in range(spec.d))  # drift on every axis
    inputs = (bs.copy(), v.copy())
    got = px._neg_div_hat(spec, bs, v)
    assert got.dtype == np.complex128 and got.shape == v.shape[:-1] + (spec.n // 2 + 1,)
    assert np.array_equal(got, _neg_div_hat_formula(spec, bs, v))
    assert np.array_equal(bs, inputs[0]) and np.array_equal(v, inputs[1])


@pytest.mark.parametrize("case", _ENGINE_CASES)
def test_trapezoid_is_bit_identical_to_its_formula(case):
    spec, s, _, _, psi_hat = _engine_case(case)
    if case == "ragged-22":
        assert (len(s) - 1) % px._CHUNK and (len(s[::2]) - 1) % px._CHUNK
    kept = psi_hat.copy()
    assert np.array_equal(px._trapezoid(spec, psi_hat, s), _trapezoid_formula(spec, psi_hat, s))
    # the strided even-node view of the Richardson pass, as a stack and as its last node
    coarse = _trapezoid_formula(spec, psi_hat[::2], s[::2])
    assert np.array_equal(px._trapezoid(spec, psi_hat[::2], s[::2]), coarse)
    assert np.array_equal(px._trapezoid(spec, psi_hat[::2], s[::2], last=True), coarse[-1])
    fine = g.irfft(spec, _trapezoid_formula(spec, psi_hat, s)[-1])
    expect = g.irfft(spec, coarse[-1])
    scale = float(np.abs(fine).max())
    G_hat, last, gap, sup = px._duhamel(spec, psi_hat, s)
    assert np.array_equal(G_hat, _trapezoid_formula(spec, psi_hat, s))
    assert np.array_equal(last, fine)
    assert (gap, sup) == (float(np.abs(expect - fine).max()) / scale, scale)
    assert np.array_equal(psi_hat, kept)


def test_series_builds_the_grid_constants_once_per_node_grid(spec8pi_small, monkeypatch):
    # K terms run 2K trapezoids on two node grids, fine and coarse: the heat
    # factors and half steps are built once for each, -(i xi) once per grid
    derivs = []

    def deriv_multiplier(spec, mu, _orig=g.deriv_multiplier):
        derivs.append(mu)
        return _orig(spec, mu)

    monkeypatch.setattr(g, "deriv_multiplier", deriv_multiplier)
    px._grid_constants.cache_clear()
    px._neg_i_xi.cache_clear()
    b = drifts.single_mode_drift(spec8pi_small, amplitude=1.0, xi0=1.0)
    K = 4
    assert px.gamma_series(b, 0.5, 0.3, K_max=K, tol=0.0, m=32).K_used == K
    info = px._grid_constants.cache_info()
    assert (info.misses, info.hits) == (2, 2 * K - 2)
    assert len(derivs) == spec8pi_small.d
    s = px.time_nodes(0.5, 32)
    for arr in px._grid_constants(spec8pi_small, s.tobytes()) + px._neg_i_xi(spec8pi_small):
        assert arr.dtype == np.complex128 and not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_hot_path_transforms_take_their_input_uncast(spec8pi_small, monkeypatch):
    # no transform casts its input: the engine's forward transforms are rfftn
    # on float64 stacks and its inverse transforms irfftn on complex128 half
    # spectra; the series and the fixed point make no full forward transform
    b = drifts.make_preset("multi-mode", spec8pi_small)
    sources = np.linspace(-10.0, 10.0, 40).reshape(-1, 1)
    times = px.time_nodes(0.25, 16)
    data = g.gaussian_shifted(spec8pi_small, 0.05, 0.3).values
    base = cy.TimeField(spec8pi_small, times, px._heat_stack(spec8pi_small,
                                                             g.rfft(spec8pi_small, data), times))
    seen = {}
    for name in ("fftn", "rfftn", "irfftn"):
        def recording(a, *args, _name=name, _orig=getattr(np.fft, name), **kw):
            seen.setdefault(_name, set()).add(a.dtype)
            return _orig(a, *args, **kw)
        monkeypatch.setattr(np.fft, name, recording)
    px.transition_matrix(b, 0.5, sources, K_max=3, m=32)
    cy.theta_apply(base, b, base)
    assert seen == {"rfftn": {np.dtype(float)}, "irfftn": {np.dtype(complex)}}


# -- blocked batches ------------------------------------------------------------


def _series_one_block(b, t, y, K_max=12, tol=1e-6, m=64):
    # the batched series as one block: every stack holds all sources, and the
    # stop test and the Richardson gap read the whole batch directly
    spec = b.spec
    s, bs, dhat, psi_hat = px._first_family(b, t, y, m)
    gamma_hat = dhat * g.heat_multiplier(spec, t)
    sup_p = float(g.gaussian(spec, t).values.max())
    terms, sups, quad_gap = [], [], 0.0
    for k in range(1, K_max + 1):
        G_hat = px._trapezoid(spec, psi_hat, s)
        term = g.irfft(spec, G_hat[-1])
        coarse = g.irfft(spec, px._trapezoid(spec, psi_hat[::2], s[::2])[-1])
        quad_gap = max(quad_gap, float(np.abs(coarse - term).max() / np.abs(term).max()))
        gamma_hat = gamma_hat + G_hat[-1]
        terms.append(term)
        sups.append(float(np.abs(term).max()))
        if sups[-1] <= tol * sup_p or k == K_max:
            break
        psi_hat = px._neg_div_hat(spec, bs, g.irfft(spec, G_hat))
    ratio = sups[-1] / sups[-2] if len(sups) >= 2 else 0.0
    tail = sups[-1] * ratio / (1.0 - ratio) if 0 < ratio < 1 else sups[-1]
    if sups[-1] <= tol * sup_p:
        tail = sups[-1]
    return {"gamma": g.irfft(spec, gamma_hat), "term_fields": np.asarray(terms),
            "term_sup_norms": np.asarray(sups), "K_used": k, "quad_gap": quad_gap,
            "tail_estimate": tail + quad_gap * max(max(sups), 1e-300)}


def _blocked(monkeypatch, cpus, b, t, y, **kw):
    # the library call on `cpus` CPUs; no pool thread may outlive it
    monkeypatch.setattr(px.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    before = threading.active_count()
    try:
        return px.transition_matrix(b, t, y, **kw)[0]
    finally:
        assert threading.active_count() == before


def _assert_bytes_equal(res, ref):
    assert res.K_used == ref["K_used"]
    for name in ("gamma", "term_fields", "term_sup_norms"):
        assert getattr(res, name).tobytes() == ref[name].tobytes(), name
    assert res.quad_gap == ref["quad_gap"]
    assert res.tail_estimate == ref["tail_estimate"]


def _blocks(ys):
    return [slice(i, i + px._SOURCE_BLOCK) for i in range(0, len(ys), px._SOURCE_BLOCK)]


def _sources_70(spec):
    # three blocks, the last one partial
    return np.linspace(-spec.L / 2, spec.L / 2, 70, endpoint=False)[:, None] + 0.05


def _bump_drift(spec, amplitude=1.0):
    # strong drift near x = -8 only: the block of sources there needs more
    # terms than the blocks away from it
    x = spec.axis_points()
    vals = 0.02 * np.cos(6 * x) + amplitude * np.exp(-(x + 8.0) ** 2)
    return DriftField(spec, [0.0], vals[None, None, :], tag="bump")


@pytest.mark.parametrize("make_drift, make_sources", [
    (lambda s: drifts.constant_drift(s, 1.0), _sources_70),
    (lambda s: drifts.single_mode_drift(s, amplitude=1.0, xi0=1.0), _sources_70),
    (lambda s: drifts.make_preset("multi-mode", s), _sources_70),
    (lambda s: drifts.make_preset("traveling-mode", s, horizon=1.0), _sources_70),
    (lambda s: _swapped_single_mode_2d(),
     lambda s: np.random.default_rng(5).uniform(-8.0, 8.0, size=(40, 2))),
], ids=["constant", "single-mode", "multi-mode", "traveling-mode", "single-mode-2d"])
def test_blocked_batch_equals_one_block(spec8pi_small, monkeypatch, make_drift, make_sources):
    # each block's rows are the series of that block alone, whatever the CPUs
    b = make_drift(spec8pi_small)
    ys = make_sources(spec8pi_small)
    alone = []
    for rows in _blocks(ys):
        res = px.gamma_series(b, 0.5, ys[rows], m=64)
        _assert_bytes_equal(res, _series_one_block(b, 0.5, ys[rows]))
        alone.append((rows, res.gamma))
    for cpus in (1, 2, 8):
        M = _blocked(monkeypatch, cpus, b, 0.5, ys, m=64)
        assert M.shape == (len(ys),) + b.spec.shape
        for rows, gamma in alone:
            assert M[rows].tobytes() == gamma.tobytes(), (cpus, rows)


def test_each_block_stops_at_its_own_term(spec8pi_small, monkeypatch):
    b = _bump_drift(spec8pi_small)
    ys = np.concatenate([np.linspace(-9.5, -6.5, 32), np.linspace(-2.0, 11.0, 38)])[:, None]
    loud, *quiet = [px.gamma_series(b, 0.5, ys[rows], m=64) for rows in _blocks(ys)]
    assert len(quiet) == 2
    assert all(q.K_used < loud.K_used for q in quiet)
    for cpus in (1, 2, 8):
        M = _blocked(monkeypatch, cpus, b, 0.5, ys, m=64)
        for rows, res in zip(_blocks(ys), [loud] + quiet):
            assert M[rows].tobytes() == res.gamma.tobytes(), (cpus, rows)


def test_blocked_errors_propagate_unchanged(spec8pi_small, monkeypatch):
    # the first failing block in source order raises, with its own message;
    # under the strong bump at m=8 the quiet block fails its Richardson check
    # and the loud block fails to decay, so the order picks the error type
    spec = spec8pi_small
    ys = _sources_70(spec)
    bump = _bump_drift(spec, 4.0)
    quiet = np.linspace(-2.0, 11.0, 32)[:, None]
    loud = np.linspace(-9.5, -6.5, 32)[:, None]
    cases = [(QuadratureDivergence, drifts.single_mode_drift(spec, amplitude=1.0), 0.5, ys,
              {"m": 2}),
             (NoDecay, drifts.constant_drift(spec, 30.0), 1.0, ys, {"K_max": 4}),
             (ValueError, drifts.make_preset("time-varying", spec, horizon=0.5), 0.75, ys, {}),
             (QuadratureDivergence, bump, 0.5, np.concatenate([quiet, loud]), {"m": 8}),
             (NoDecay, bump, 0.5, np.concatenate([loud, quiet]), {"m": 8})]
    for error, b, t, ys, kw in cases:
        with pytest.raises(error) as first:
            px.gamma_series(b, t, ys[:px._SOURCE_BLOCK], **kw)
        for cpus in (1, 2, 8):
            with pytest.raises(error) as blocked:
                _blocked(monkeypatch, cpus, b, t, ys, **kw)
            assert type(blocked.value) is error
            assert str(blocked.value) == str(first.value)


def test_pool_size_follows_cpu_affinity(spec8pi_small, monkeypatch):
    # transition_matrix starts one worker per CPU, at most one per block;
    # gamma_series starts no pool for any batch
    pools = []

    class Recording(px.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(px, "ThreadPoolExecutor", Recording)
    b = drifts.single_mode_drift(spec8pi_small, amplitude=1.0, xi0=1.0)
    ys = _sources_70(spec8pi_small)
    for cpus in (1, 2, 8):
        _blocked(monkeypatch, cpus, b, 0.5, ys, K_max=2, m=16)
        _blocked(monkeypatch, cpus, b, 0.5, ys[:32], K_max=2, m=16)
        px.gamma_series(b, 0.5, ys, K_max=2, m=16)
        px.gamma_series(b, 0.5, 0.3, K_max=2, m=16)
    assert pools == [2, 3]


def test_blocks_are_not_all_held_at_once(monkeypatch):
    # one block's stacks at a time on one CPU: four blocks peak no higher than
    # one (with every block's stacks alive at once the ratio is 2.8)
    spec = g.make_grid(1, 128, 8 * np.pi)
    b = drifts.make_preset("multi-mode", spec)
    ys = _sources_70(spec)[:32]
    ys = np.concatenate([ys, ys + 0.1, ys + 0.2, ys + 0.3])
    monkeypatch.setattr(px.os, "sched_getaffinity", lambda pid: {0})

    def peak(call):
        call()  # warm the node-grid caches
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one = peak(lambda: px.gamma_series(b, 0.5, ys[:32], m=64))
    four = peak(lambda: px.transition_matrix(b, 0.5, ys, m=64))
    assert four <= 1.2 * one
