"""Fixed-point solver: Duhamel map, slab halving, kernel route."""

import numpy as np
import pytest

from heatlab import cauchy as cy, drifts, dyadic as dy, grid as g, parametrix as px
from heatlab.errors import NoConvergence, WraparoundRisk


def _heat_time_field(spec, phi, times):
    phihat = g.fft(spec, phi.values)
    base = np.stack([g.ifft(spec, g.heat_multiplier(spec, s) * phihat) for s in times])
    return cy.TimeField(spec, times, base)


def test_theta_zero_drift_is_heat_flow(spec8pi_small):
    spec = spec8pi_small
    phi = g.GridField(spec, g.gaussian(spec, 0.05).values)
    rng = np.random.default_rng(0)
    ref = _heat_time_field(spec, phi, px.time_nodes(0.5, 96))
    noise = rng.standard_normal(ref.values.shape)
    v = cy.TimeField(spec, ref.times, ref.values + noise)  # arbitrary v
    out = cy.theta_apply(ref, drifts.zero_drift(spec), v)
    assert np.abs(out.values - ref.values).max() < 1e-13


def test_theta_one_step_matches_first_series_term(spec8pi_small):
    # exact band-limited point source: one Duhamel application reproduces the
    # k=1 partial sum of the series bitwise-tight (orientation pin)
    spec = spec8pi_small
    b = drifts.single_mode_drift(spec, amplitude=1.0, xi0=1.0)
    t = 0.5
    partial1 = px.gamma_series(b, t, 0.0, K_max=1).gamma.values
    phi = g.GridField(spec, g.ifft(spec, g.delta_hat(spec, 0.0)))
    v0 = _heat_time_field(spec, phi, px.time_nodes(t, 128))
    v1 = cy.theta_apply(v0, b, v0)
    assert np.abs(v1.values[-1] - partial1).max() < 1e-10


def test_theta_one_step_mollified_extrapolates_to_series(spec8pi):
    # with data mollified at the h^2 floor the agreement is O(eps); the
    # (eps, eps/2) extrapolation removes the first-order bias
    spec = spec8pi
    b = drifts.single_mode_drift(spec, amplitude=1.0, xi0=1.0)
    t = 0.5
    partial1 = px.gamma_series(b, t, 0.0, K_max=1).gamma.values

    def theta_once(eps):
        phi = g.GridField(spec, g.gaussian_shifted(spec, eps, 0.0).values)
        v0 = _heat_time_field(spec, phi, px.time_nodes(t, 128))
        return cy.theta_apply(v0, b, v0).values[-1]

    eps = spec.h**2
    out = 2 * theta_once(eps) - theta_once(2 * eps)
    assert np.abs(out - partial1).max() < 1e-3 * np.abs(partial1).max()


def _theta_per_node(phi, b, v, offset):
    # the Duhamel map one node at a time: drift slice by DriftField.at_time,
    # -div(b v) back in physical space, then the exponential trapezoid with
    # a forward transform of w at both ends of every step
    spec, times = phi.spec, v.times
    comps = g.freq_components(spec)
    phihat = g.fft(spec, phi.values)
    out = np.stack([g.ifft(spec, g.heat_multiplier(spec, s) * phihat) for s in times])
    w = np.empty_like(v.values)
    for j, s in enumerate(times):
        bsl = b.at_time(offset + s)
        w[j] = -g.ifft(spec, sum((1j * comps[c]) * g.fft(spec, bsl[c] * v.values[j])
                                 for c in range(spec.d)))
    Gh = np.zeros(spec.shape, dtype=complex)
    for j in range(len(times) - 1):
        dt = times[j + 1] - times[j]
        Gh = g.heat_multiplier(spec, dt) * (Gh + (dt / 2.0) * g.fft(spec, w[j])) \
            + (dt / 2.0) * g.fft(spec, w[j + 1])
        out[j + 1] += g.ifft(spec, Gh)
    return out


def _refreshing(d, n):
    b = drifts.make_preset("refreshing-mode", g.make_grid(d, n, 8 * np.pi), horizon=1.0)
    if d == 2:  # component 2 varies along the second axis: both batched axes matter
        vals = b.values.copy()
        vals[:, 1] = np.swapaxes(vals[:, 1], -1, -2).copy()
        b = dy.DriftField(b.spec, b.times, vals, b.alpha, tag=b.tag)
    return b


def _coarse_traveling():
    # five drift samples: offset + node times hit exact midpoints (ties)
    b = drifts.make_preset("traveling-mode", g.make_grid(1, 256, 8 * np.pi), horizon=1.0)
    return dy.DriftField(b.spec, b.times[::256], b.values[::256], b.alpha)


@pytest.mark.parametrize("make_drift, offset, times", [
    (lambda: _refreshing(1, 256), 0.3, px.time_nodes(0.5, 96)),
    (lambda: _refreshing(2, 32), 0.3, px.time_nodes(0.5, 32)),
    (_coarse_traveling, 0.125, np.linspace(0.0, 0.5, 9)),
], ids=["refreshing-1d", "refreshing-2d", "coarse-ties-1d"])
def test_theta_slab_matches_per_node_loop(make_drift, offset, times):
    b = make_drift()
    spec = b.spec
    phi = g.GridField(spec, g.gaussian_shifted(spec, 0.05, np.full(spec.d, 0.7)).values)
    rng = np.random.default_rng(3)
    v = cy.TimeField(spec, times, rng.standard_normal((len(times),) + spec.shape))
    out = cy.theta_apply(_heat_time_field(spec, phi, times), b, v, offset=offset).values
    ref = _theta_per_node(phi, b, v, offset)
    assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


def _count_transforms(monkeypatch):
    calls = {"fft": 0, "ifft": 0, "rfft": 0, "irfft": 0}
    for name in calls:
        def counting(*args, _name=name, _orig=getattr(g, name)):
            calls[_name] += 1
            return _orig(*args)
        monkeypatch.setattr(g, name, counting)
    return calls


@pytest.mark.parametrize("d, n", [(1, 128), (2, 32)])
def test_theta_apply_transforms_only_the_duhamel_stack(monkeypatch, d, n):
    # the heat base comes in built: one forward transform per drift
    # component and one inverse transform of the G stack, all on half spectra
    b = _refreshing(d, n)
    phi = g.gaussian_shifted(b.spec, 0.05, np.full(d, 0.7))
    base = _heat_time_field(b.spec, phi, px.time_nodes(0.5, 32))
    calls = _count_transforms(monkeypatch)
    cy.theta_apply(base, b, base, offset=0.3)
    assert calls == {"fft": 0, "ifft": 0, "rfft": d, "irfft": 1}


def _strong_constant(spec):
    # fails on [0, 1] and [0, 1/2] at tol=1e-9, so it is solved on three slabs
    return drifts.constant_drift(spec, 4.0), g.gaussian_shifted(spec, 0.05, 0.0)


def test_picard_builds_one_heat_base_per_slab(monkeypatch, spec8pi_small):
    # every slab tried, accepted or halved, builds one heat base: a full
    # binary tree with `segments` leaves has 2 * segments - 1 nodes
    b, phi = _strong_constant(spec8pi_small)
    norms = dy.drift_norms(b)
    monkeypatch.setattr(cy, "drift_norms", lambda _b: norms)
    calls = _count_transforms(monkeypatch)
    rep = cy.picard_solve(phi, b, T=1.0, tol=1e-9).report
    slabs = 2 * rep["segments"] - 1
    thetas = sum(rep["iterations"]) + cy._MAX_ITER * (rep["segments"] - 1)
    assert rep["segments"] > 1
    assert calls == {"fft": 0, "ifft": 0, "rfft": thetas + slabs, "irfft": thetas + slabs}


def test_picard_builds_the_grid_constants_once_per_slab(spec8pi_small):
    # every Picard iteration on a slab runs the trapezoid on the same nodes
    b = drifts.single_mode_drift(spec8pi_small, amplitude=1.0)
    phi = g.gaussian_shifted(spec8pi_small, 0.05, 0.3)
    px._grid_constants.cache_clear()
    rep = cy.picard_solve(phi, b, T=0.25, tol=1e-9).report
    info = px._grid_constants.cache_info()
    assert rep["segments"] == 1 and rep["iterations"][0] >= 3
    assert (info.misses, info.hits) == (1, rep["iterations"][0] - 1)


def _picard_reference(phi, b, plan, tol):
    # every segment from a freshly built heat base, no iterate carried over
    spec, data, iters = phi.spec, phi.values, []
    for a, bnd in plan:
        times = px.time_nodes(bnd - a, cy._M)
        base = cy.TimeField(spec, times, px._heat_stack(spec, g.rfft(spec, data), times))
        v, it = base, 0
        while True:
            nxt = cy.theta_apply(base, b, v, offset=a)
            res, v, it = np.abs(nxt.values - v.values).max(), nxt, it + 1
            if res <= tol:
                break
        iters.append(it)
        data = v.values[-1]
    return data, iters


@pytest.mark.parametrize("make_drift, T", [
    (lambda spec: drifts.single_mode_drift(spec, amplitude=1.0), 0.25),
    (lambda spec: drifts.constant_drift(spec, 4.0), 1.0),
], ids=["one-slab", "three-slabs"])
def test_picard_halves_only_the_slabs_that_fail(monkeypatch, spec8pi_small, make_drift, T):
    # a slab that fails costs exactly _MAX_ITER theta applications; the
    # accepted slabs' iterates are the solve, bit for bit
    b = make_drift(spec8pi_small)
    phi = g.gaussian_shifted(spec8pi_small, 0.05, 0.3)
    thetas = [0]
    theta = cy.theta_apply

    def counting(*args, **kwargs):
        thetas[0] += 1
        return theta(*args, **kwargs)

    monkeypatch.setattr(cy, "theta_apply", counting)
    v = cy.picard_solve(phi, b, T=T, tol=1e-9)
    rep = v.report
    assert thetas[0] == sum(rep["iterations"]) + cy._MAX_ITER * (rep["segments"] - 1)
    assert max(rep["iterations"]) <= cy._MAX_ITER
    edges = v.times[::cy._M]
    assert len(edges) == rep["segments"] + 1 and edges[-1] == T
    monkeypatch.setattr(cy, "theta_apply", theta)
    terminal, iters = _picard_reference(phi, b, zip(edges[:-1], edges[1:]), 1e-9)
    assert iters == rep["iterations"]
    assert v.values[-1].tobytes() == terminal.tobytes()


def test_picard_halves_a_strong_drift_to_convergence(spec8pi_small):
    # the a-priori contraction plan raised NoConvergence here
    spec = spec8pi_small
    b, phi = _strong_constant(spec)
    v = cy.picard_solve(phi, b, T=1.0, tol=1e-9)
    expect = g.gaussian_shifted(spec, 1.05, 4.0).values
    assert v.report["segments"] == 3
    assert np.abs(v.terminal().values - expect).max() < 1e-3 * expect.max()


def test_picard_refuses_slabs_below_the_floor(monkeypatch, spec8pi_small):
    # two iterations never reach tol: [0, 1], [0, 1/2] and [0, 1/4] fail,
    # and halves of 1/8 would fall below the floor
    b, phi = _strong_constant(spec8pi_small)
    monkeypatch.setattr(cy, "_MAX_ITER", 2)
    monkeypatch.setattr(cy, "_MIN_DT", 0.2)
    with pytest.raises(NoConvergence, match=r"slab \[0, 0.25\]"):
        cy.picard_solve(phi, b, T=1.0, tol=1e-9)


def test_theta_apply_rejects_base_on_other_nodes(spec8pi_small):
    spec = spec8pi_small
    phi = g.gaussian(spec, 0.05)
    v = _heat_time_field(spec, phi, px.time_nodes(0.5, 32))
    with pytest.raises(ValueError):
        cy.theta_apply(_heat_time_field(spec, phi, px.time_nodes(0.25, 32)),
                       drifts.zero_drift(spec), v)


@pytest.mark.parametrize("preset, t, error", [
    ("single-mode", 0.0, ValueError),
    ("single-mode", -1.0, ValueError),
    ("traveling-mode", 1.5, ValueError),
    ("single-mode", 12.0, WraparoundRisk),
], ids=["t-zero", "t-negative", "past-horizon", "wraparound"])
def test_both_routes_refuse_the_same_horizons(spec8pi_small, preset, t, error):
    b = drifts.make_preset(preset, spec8pi_small, horizon=1.0)
    with pytest.raises(Exception) as series:
        px.gamma_series(b, t, 0.0)
    with pytest.raises(Exception) as fixed:
        cy.gamma_via_cauchy(b, t, 0.0)
    assert series.type is fixed.type is error


def test_picard_heat_flow(spec8pi_small):
    spec = spec8pi_small
    eps = spec.h**2
    phi = g.GridField(spec, g.gaussian_shifted(spec, eps, 0.0).values)
    v = cy.picard_solve(phi, drifts.zero_drift(spec), T=0.5)
    expect = g.gaussian_shifted(spec, 0.5 + eps, 0.0).values
    assert np.abs(v.terminal().values - expect).max() < 1e-10
    assert v.report["segments"] == 1


def test_picard_constant_drift(spec8pi_small):
    spec = spec8pi_small
    lam, t = 1.0, 0.5
    eps = spec.h**2
    phi = g.GridField(spec, g.gaussian_shifted(spec, eps, 0.0).values)
    v = cy.picard_solve(phi, drifts.constant_drift(spec, lam), T=t)
    expect = g.gaussian_shifted(spec, t + eps, lam * t).values
    assert np.abs(v.terminal().values - expect).max() / expect.max() < 1e-3


def test_picard_fixed_point_property(spec8pi_small):
    spec = spec8pi_small
    b = drifts.single_mode_drift(spec, amplitude=1.0, xi0=1.0)
    phi = g.GridField(spec, g.gaussian_shifted(spec, 0.05, 0.0).values)
    v = cy.picard_solve(phi, b, T=0.5, tol=1e-10)
    again = cy.theta_apply(_heat_time_field(spec, phi, v.times), b, v)
    assert np.abs(again.values - v.values).max() < 1e-8


def test_picard_contraction_and_uniqueness(spec8pi_small):
    spec = spec8pi_small
    b = drifts.single_mode_drift(spec, amplitude=2.0, xi0=1.0)  # X + Y ~ 2
    phi = g.GridField(spec, g.gaussian_shifted(spec, 0.05, 0.0).values)
    t = 0.5
    # iterate from two different seeds; same limit, geometric residuals
    base = _heat_time_field(spec, phi, px.time_nodes(t, 96))
    v_a = base
    v_b = cy.TimeField(spec, v_a.times, np.zeros_like(v_a.values))
    res_hist = []
    for _ in range(25):
        na = cy.theta_apply(base, b, v_a)
        nb = cy.theta_apply(base, b, v_b)
        res_hist.append(np.abs(na.values - v_a.values).max())
        v_a, v_b = na, nb
    assert np.abs(v_a.values - v_b.values).max() < 1e-8
    ratios = [r2 / r1 for r1, r2 in zip(res_hist[2:-1], res_hist[3:]) if r1 > 0]
    assert max(ratios) < 1.0  # contracting on this slab


def test_picard_report_contraction_factor(spec8pi_small):
    # the report states what the slabs measured, not an a-priori factor
    spec = spec8pi_small
    b = drifts.single_mode_drift(spec, amplitude=4.0)  # strong: X+Y ~ 2.8
    phi = g.GridField(spec, g.gaussian_shifted(spec, 0.05, 0.0).values)
    v = cy.picard_solve(phi, b, T=1.0, tol=1e-9)
    rep = v.report
    assert rep.keys() == {"segments", "iterations", "final_residual", "X", "Y"}
    assert rep["final_residual"] <= 1e-9
    assert len(rep["iterations"]) == rep["segments"]
    assert max(rep["iterations"]) <= cy._MAX_ITER
    assert (rep["X"], rep["Y"]) == dy.drift_norms(b)
    assert v.times[-1] == 1.0


def test_gamma_via_cauchy_zero_drift(spec8pi_small):
    spec = spec8pi_small
    eps = spec.h**2
    out = cy.gamma_via_cauchy(drifts.zero_drift(spec), 0.5, 0.0, eps=eps)
    expect = g.gaussian_shifted(spec, 0.5 + eps, 0.0).values
    assert np.abs(out.values - expect).max() < 1e-10
    with pytest.raises(ValueError):
        cy.gamma_via_cauchy(drifts.zero_drift(spec), 0.5, 0.0, eps=eps / 4)


def test_gamma_via_cauchy_matches_series(spec8pi_small):
    spec = spec8pi_small
    b = drifts.single_mode_drift(spec, amplitude=1.0, xi0=1.0)
    t = 0.5
    res = px.gamma_series(b, t, 0.0)
    eps = spec.h**2
    g1 = cy.gamma_via_cauchy(b, t, 0.0, eps=2 * eps).values
    g2 = cy.gamma_via_cauchy(b, t, 0.0, eps=eps).values
    sup = res.gamma.values.max()
    gap1 = np.abs(g1 - res.gamma.values).max() / sup
    gap2 = np.abs(g2 - res.gamma.values).max() / sup
    gapx = np.abs(2 * g2 - g1 - res.gamma.values).max() / sup
    # on this coarse grid the h^2 mollification bias is a few percent
    assert gap2 < 0.05
    # halving eps roughly halves the bias, extrapolation beats both
    assert 0.3 < gap2 / gap1 < 0.7
    assert gapx < 0.2 * gap2
    assert gapx < 1e-2
