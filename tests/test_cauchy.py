"""Fixed-point solver: Duhamel map, contraction planning, kernel route."""

import numpy as np
import pytest

from heatlab import cauchy as cy, drifts, dyadic as dy, grid as g, parametrix as px
from heatlab.errors import HorizonTooSmall, WraparoundRisk


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


def test_picard_builds_one_heat_base_per_slab(monkeypatch, spec8pi_small):
    # three calibration trials and three segments on a time-dependent drift
    spec = spec8pi_small
    b = drifts.make_preset("traveling-mode", spec, amplitude=2.0, horizon=1.0)
    phi = g.gaussian_shifted(spec, 0.05, 0.0)
    norms = dy.drift_norms(b)
    monkeypatch.setattr(cy, "drift_norms", lambda _b: norms)
    calls = _count_transforms(monkeypatch)
    v = cy.picard_solve(phi, b, T=1.0, tol=1e-9)
    rep = v.report
    trials = round(np.log2(0.5 / rep["calibration"]["trial"])) + 1
    slabs = trials + rep["segments"]
    thetas = 2 * trials + sum(rep["iterations"])
    assert trials > 1 and rep["segments"] > 1
    assert calls == {"fft": 0, "ifft": 0, "rfft": thetas + slabs, "irfft": thetas + slabs}


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


@pytest.mark.parametrize("amplitude, T", [(1.0, 0.25), (4.0, 1.0)],
                         ids=["one-segment", "two-segments"])
def test_first_segment_continues_the_calibration_iterates(monkeypatch, spec8pi_small,
                                                          amplitude, T):
    # the trial slab is the first segment: its two calibration iterates open
    # it, so only the halved trials cost extra theta applications
    b = drifts.single_mode_drift(spec8pi_small, amplitude=amplitude)
    phi = g.gaussian_shifted(spec8pi_small, 0.05, 0.3)
    thetas = [0]
    theta = cy.theta_apply

    def counting(*args, **kwargs):
        thetas[0] += 1
        return theta(*args, **kwargs)

    monkeypatch.setattr(cy, "theta_apply", counting)
    v = cy.picard_solve(phi, b, T=T, tol=1e-9)
    rep = v.report
    edges = np.linspace(0.0, T, rep["segments"] + 1)
    assert edges[1] == rep["calibration"]["trial"]
    trials = round(np.log2(min(T, 0.5) / rep["calibration"]["trial"])) + 1
    assert thetas[0] == sum(rep["iterations"]) + 2 * (trials - 1)
    monkeypatch.setattr(cy, "theta_apply", theta)
    terminal, iters = _picard_reference(phi, b, zip(edges[:-1], edges[1:]), 1e-9)
    assert iters == rep["iterations"]
    assert v.values[-1].tobytes() == terminal.tobytes()


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


def test_step_horizon_plan():
    plan = cy.step_horizon(0.0, 0.0, 0.25, 1.5, T=2.0)
    assert plan.t0 == 2.0 and plan.factor == 0.0 and len(plan.segments) == 1
    p1 = cy.step_horizon(1.0, 0.5, 0.25, 1.5, c_fit=0.4, T=10.0)
    p2 = cy.step_horizon(2.0, 1.0, 0.25, 1.5, c_fit=0.4, T=10.0)
    expo = 1 - (0.25 + 1.5) / 2
    assert abs(p2.t0 / p1.t0 - 2.0 ** (-1 / expo)) < 0.1 * 2.0 ** (-1 / expo)
    assert p1.factor <= 0.5 + 1e-12
    # segments tile [0, T]
    assert p1.segments[0][0] == 0.0 and p1.segments[-1][1] == 10.0
    for (a, bnd), (a2, _) in zip(p1.segments, p1.segments[1:]):
        assert abs(bnd - a2) < 1e-12
    with pytest.raises(HorizonTooSmall):
        cy.step_horizon(50.0, 50.0, 0.25, 1.5, c_fit=5.0, T=1.0)
    with pytest.raises(ValueError):
        cy.step_horizon(1.0, 0.0, 0.25, 2.5)


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
    spec = spec8pi_small
    b = drifts.single_mode_drift(spec, amplitude=4.0)  # strong: X+Y ~ 2.8
    phi = g.GridField(spec, g.gaussian_shifted(spec, 0.05, 0.0).values)
    v = cy.picard_solve(phi, b, T=1.0, tol=1e-9)
    assert v.report["factor"] <= 0.5 + 1e-9
    assert v.report["final_residual"] <= 1e-9
    assert v.times[-1] == 1.0
    cal = v.report["calibration"]
    assert cal["rho"] < 0.5 or cal["trial"] < 1e-3


def test_weighted_norm(spec8pi_small):
    spec = spec8pi_small
    idx = dy.BesovIndex(0.5, np.inf, np.inf)
    const = cy.TimeField(spec, np.array([0.0, 0.5, 1.0]),
                         np.stack([g.gaussian(spec, 1.0).values] * 3))
    assert abs(cy.weighted_norm(const, 0.0, idx)
               - dy.besov_norm(g.gaussian(spec, 1.0), idx)) < 1e-12
    # delta data: s^{(beta-gamma)/2} ||P_s delta||_{B^beta} stays bounded as
    # s decreases (down to the grid resolution time ~ xi_max^{-2})
    beta, gamma_reg = 1.5, -1.0  # delta in d=1 has regularity -d at p=inf
    times = np.geomspace(0.02, 0.5, 12)
    vals = np.stack([g.semigroup_apply(g.discrete_delta(spec), s).values for s in times])
    v = cy.TimeField(spec, times, vals)
    idx_b = dy.BesovIndex(beta, np.inf, np.inf)
    prods = [s ** ((beta - gamma_reg) / 2)
             * dy.besov_norm(g.GridField(spec, vals[j]), idx_b)
             for j, s in enumerate(times)]
    assert max(prods) / min(prods) < 5
    # monotone nonincreasing in delta for horizons <= 1
    n0 = cy.weighted_norm(v, 0.0, idx_b)
    n1 = cy.weighted_norm(v, 0.5, idx_b)
    n2 = cy.weighted_norm(v, 1.5, idx_b)
    assert n0 >= n1 >= n2


@pytest.mark.parametrize("d,n", [(1, 64), (2, 32)])
def test_weighted_norm_matches_the_per_node_loop(d, n):
    # one stacked Besov sum gives every node the bits of besov_norm_values on
    # that node alone, finite integrability and summability included
    spec = g.make_grid(d, n, 8 * np.pi)
    rng = np.random.default_rng(0)
    times = np.linspace(0.0, 1.0, 41)
    for _ in range(4):
        scale = rng.uniform(0.1, 10.0, (len(times),) + (1,) * d)
        vals = rng.standard_normal((len(times),) + spec.shape) * scale
        v = cy.TimeField(spec, times, vals)
        for p, q in ((1, 2), (2, 3.5), (3.5, 1), (3.5, np.inf), (np.inf, 2)):
            idx = dy.BesovIndex(0.3, p, q)
            for delta in (0.0, 0.5):
                loop = max(s**delta * dy.besov_norm_values(spec, vals[j], idx)
                           for j, s in enumerate(times) if s > 0 or delta == 0)
                assert cy.weighted_norm(v, delta, idx) == loop


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
