"""Scalar inequality machinery and envelope extraction."""

import numpy as np
import pytest

import full_spectrum as fs
from heatlab import bounds, drifts, dyadic as dy, grid as g, parametrix as px
from heatlab.errors import EnvelopeViolated


def test_beta_fn_basics():
    assert abs(bounds.beta_fn(1.0, 1.0) - 1.0) < 1e-14
    assert abs(bounds.beta_fn(0.5, 0.5) - np.pi) < 1e-10
    with pytest.raises(ValueError):
        bounds.beta_fn(0.0, 1.0)
    with pytest.raises(ValueError):
        bounds.beta_fn(1.0, -0.5)


def test_beta_fn_symmetry_grid():
    vals = np.linspace(0.1, 3.0, 12)
    for b1 in vals:
        for b2 in vals:
            assert abs(bounds.beta_fn(b1, b2) - bounds.beta_fn(b2, b1)) < 1e-12


def test_beta_fn_vs_quadrature_oracle():
    for b1, b2 in ((0.7, 2.3), (0.5, 0.5), (1.3, 0.4)):
        assert abs(bounds.beta_fn(b1, b2) - bounds.beta_fn_quadrature(b1, b2)) < 1e-8


def test_m_delta():
    ds = [0.1, 0.25, 0.5, 0.75, 1.0]
    vals = [bounds.m_delta(d) for d in ds]
    assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))  # nonincreasing
    assert abs(bounds.m_delta(1.0) - 1.0) < 1e-6
    v1 = bounds.m_delta(0.25)
    v2 = bounds.m_delta(0.25, gamma_max=2 * 64 / 0.25)
    assert abs(v2 - v1) / v1 < 0.005
    # the lemma's inequality, literal: B(beta,gamma) <= M_delta * gamma^{-beta}
    delta = 0.25
    M = bounds.m_delta(delta)
    rng = np.random.default_rng(0)
    for _ in range(200):
        b1 = rng.uniform(delta, 1.0)
        g1 = rng.uniform(delta, 64 / delta)
        assert bounds.beta_fn(b1, g1) <= M * g1 ** (-b1) * (1 + 1e-9)


def test_subadditive_power_identity():
    # (a+b)^alpha <= a^alpha + b^alpha for a, b >= 0, alpha in (0,1)
    rng = np.random.default_rng(1)
    a = rng.uniform(0, 10, 300)
    b = rng.uniform(0, 10, 300)
    for alpha in (0.25, 0.5, 0.9):
        assert np.all((a + b) ** alpha <= a**alpha + b**alpha + 1e-12)


def test_series_bound_L():
    for beta in (0.25, 0.375, 0.5):
        L = bounds.series_bound_L(beta)
        assert np.isfinite(L) and L >= 1.0
        # spot-check the inequality off the fitting grid
        for z in (0.37, 3.3, 17.0, 49.0):
            lhs = bounds._log_series(z, beta)
            assert np.log(L) + L * z ** (1 / beta) >= lhs - 1e-9


def test_i_rhs():
    assert bounds.i_rhs(2, 0, 0.0, 1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.25) == 0.0
    # k=1, Y=0: single term m=1, n=0
    K, C, M, X, t, i = 2.0, 1.5, 3.0, 0.7, 0.8, 1
    val = bounds.i_rhs(1, i, 0.0, t, X, 0.0, C, M, K, 0.25)
    assert abs(val - K * t ** (-i / 2) * C * M * X * t**0.5) < 1e-12
    # re-summation in reverse order at k=6
    k, X, Y, alpha, beta_sel, t = 6, 0.9, 1.1, 0.25, 0.25, 0.7
    total = 0.0
    from scipy.special import gammaln
    for nn in range(k + 1):  # reversed roles
        mm = k - nn
        term = (C * M * X * t**0.5) ** mm / np.exp(((1 - beta_sel) / 2) * gammaln(mm + 1))
        term *= (C * M * Y * t ** ((1 - alpha) / 2)) ** nn / np.exp(
            ((1 - alpha - beta_sel) / 2) * gammaln(nn + 1))
        total += term
    total *= K * t ** (-(1 + beta_sel) / 2)
    assert abs(bounds.i_rhs(k, 1, beta_sel, t, X, Y, C, M, K, alpha) - total) < 1e-12 * total


def test_i_empirical_zero_drift(spec8pi_small):
    b0 = drifts.zero_drift(spec8pi_small)
    assert bounds.i_empirical(b0, 0.5, 1, 0, 0.0, y_points=[0.0], m=32) == 0.0


def test_ibound_table_dominance(spec8pi):
    b = drifts.single_mode_drift(spec8pi, amplitude=1.0)
    table = bounds.ibound_table(b, [0.5], k_max=2, m=48, y_points=[0.0])
    assert table.dominated()
    assert np.isfinite(table.K) and table.K > 0
    assert len(table.entries) == 2 * 2 * 2


def test_i_recursion_consistency(spec8pi):
    # I_{i,k+1}(t) <= C * int (t-s)^{-(i+b)/2} (X I_{1,k}(s) + Y[...]) ds
    # with a finite fitted constant of moderate size; n=256 keeps the grid
    # product aliasing below the ratio floor
    spec = spec8pi
    b = drifts.single_mode_drift(spec, amplitude=1.0)
    X, Y = dy.drift_norms(b)
    alpha = b.alpha
    t = 0.5
    s_grid = np.array([0.125, 0.25, 0.375, 0.5]) * t / 0.5
    I10 = np.array([bounds.i_empirical(b, float(s), 1, 1, 0.0, y_points=[0.0], m=32)
                    for s in s_grid])
    I1a = np.array([bounds.i_empirical(b, float(s), 1, 1, alpha, y_points=[0.0], m=32)
                    for s in s_grid])
    worst = 0.0
    for i in (0, 1):
        for beta_sel in (0.0, alpha):
            lhs = bounds.i_empirical(b, t, 2, i, beta_sel, y_points=[0.0], m=32)
            w = (t - s_grid[:-1]) ** (-(i + beta_sel) / 2)
            integrand = w * (X * I10[:-1]
                             + Y * ((t - s_grid[:-1]) ** (-alpha / 2) * I10[:-1]
                                    + I1a[:-1]))
            rhs_int = np.trapezoid(np.append(integrand, integrand[-1]), s_grid)
            if rhs_int > 0:
                worst = max(worst, lhs / rhs_int)
    assert np.isfinite(worst)
    assert worst < 50


def test_sharp_const_drift():
    assert abs(bounds.sharp_const_drift(0.0, 2.0, 1.0, 1, "upper") - np.sqrt(2)) < 1e-14
    # frozen closed forms: sqrt(2)*e^{1/2}, (1/sqrt2)*e^{-1}
    assert abs(bounds.sharp_const_drift(1.0, 2.0, 1.0, 1, "upper") - 2.3316439815971246) < 1e-12
    assert abs(bounds.sharp_const_drift(1.0, 0.5, 1.0, 1, "lower") - 0.2601300475114445) < 1e-12
    with pytest.raises(ValueError):
        bounds.sharp_const_drift(1.0, 0.9, 1.0, 1, "upper")
    with pytest.raises(ValueError):
        bounds.sharp_const_drift(1.0, 2.0, 1.0, 1, "lower")
    with pytest.raises(ValueError):
        bounds.sharp_const_drift(1.0, 2.0, 1.0, 1, "sideways")


def _zero_drift_entries(spec, times, amps):
    entries = []
    for amp in amps:
        b = drifts.zero_drift(spec)
        for t in times:
            e = bounds.envelope_sweep_entry(b, t, amp, K_max=4, m=48)
            entries.append(e)
    return entries


def test_fit_envelope_zero_drift(spec8pi_small):
    spec = spec8pi_small
    entries = _zero_drift_entries(spec, (0.25, 0.5, 1.0), (1.0, 2.0))
    rep = bounds.fit_envelope(entries, c=2.0)
    for r in rep.rows:
        assert abs(r["C_upper"] - np.sqrt(2.0)) < 0.01  # c^{d/2}
        assert r["C_lower"] > 0
    assert rep.kappa >= 0.1
    with pytest.raises(ValueError):
        bounds.fit_envelope(entries[:2], c=2.0)


def test_fit_envelope_negative_kernel_rejected(spec8pi_small):
    entries = _zero_drift_entries(spec8pi_small, (0.25, 0.5, 1.0), (1.0, 2.0))
    entries[0]["matrix"] = entries[0]["matrix"].copy()
    entries[0]["matrix"][0, 0] = -1.0
    with pytest.raises(EnvelopeViolated):
        bounds.fit_envelope(entries, c=2.0)


def test_series_dominance_term_by_term(spec8pi):
    # |k-th summed term| <= I^0_{0,k}(t) p(ct, . - y) pointwise over the
    # resolved ratio region
    spec = spec8pi
    b = drifts.single_mode_drift(spec, amplitude=1.0)
    t, c = 0.5, 2.0
    res = px.gamma_series(b, t, 0.0, K_max=3, m=96)
    env = g.gaussian(spec, c * t).values
    for k in (1, 2):
        I0k = bounds.i_empirical(b, t, k, 0, 0.0, y_points=[0.0], m=96)
        lhs = np.abs(res.term_fields[k - 1])
        mask = env > bounds.I_RATIO_FLOOR * env.max()
        assert np.all(lhs[mask] <= I0k * env[mask] * (1 + 5e-2) + 1e-12)


def test_bootstrap_lower_bound_zero_drift(spec8pi):
    # n=256 resolves the smallest composed time kappa*a/2
    boot = bounds.bootstrap_lower_bound(drifts.zero_drift(spec8pi),
                                        a=0.25, kappa=0.5, K_max=4, m=48)
    assert boot["all_ok"]
    assert boot["M"] >= 1.0
    assert boot["checks"][-1]["t"] == 1.0


# -- references: the previous per-node / per-check implementations, inline ----


def _old_ratio_extremes(spec, M, src_idx, p_env, floor_rel=None):
    """Floor from M's overshoot, both extremes read on M as given."""
    n = spec.n
    idx = (np.arange(n)[None, :] - src_idx[:, None] + n // 2) % n
    P = p_env[idx]
    if floor_rel is None:
        noise = max(0.0, float(-M.min())) / float(M.max())
        floor_rel = max(bounds.SUPPORT_FLOOR, 50.0 * noise)
    mask = P > floor_rel * p_env.max()
    ratios = M[mask] / P[mask]
    return float(ratios.max()), float(ratios.min())


def _old_bootstrap(b, a, kappa, K_max, tol, m):
    """One transition matrix per base time and one per check."""
    spec = b.spec
    Minv = np.inf
    src_idx = None
    for tt in [a / 2, a]:
        M_t, src = px.transition_matrix(b, tt, K_max=K_max, tol=tol, m=m)
        src_idx = np.array([int(np.argmin(np.abs(spec.axis_points() - s[0])))
                            for s in src])
        p_lo = g.gaussian(spec, kappa * tt).values
        _, inf_r = _old_ratio_extremes(spec, np.maximum(M_t, 0.0), src_idx, p_lo)
        Minv = min(Minv, inf_r)
    if Minv <= 0:
        raise EnvelopeViolated(f"no positive lower constant at kappa={kappa}")
    M_const = max(1.0 / Minv, 1.0 + 1e-9)
    checks = []
    for t in [1.5 * a, 2.0 * a, 3.0 * a, 4.0 * a]:
        n_comp = int(np.ceil(t / a))
        M_step, _ = px.transition_matrix(b, t / n_comp, K_max=K_max, tol=tol, m=m)
        composed = M_step
        for _ in range(n_comp - 1):
            composed = spec.h * (composed @ M_step)
        p_lo = g.gaussian(spec, kappa * t).values
        bound = M_const ** (-1.0 - t / a)
        _, inf_r = _old_ratio_extremes(spec, np.maximum(composed, 0.0), src_idx, p_lo)
        checks.append({"t": float(t), "n_comp": n_comp, "inf_ratio": inf_r,
                       "required": bound, "ok": bool(inf_r >= bound)})
    return {"kappa": kappa, "M": M_const, "a": a, "checks": checks,
            "all_ok": all(ch["ok"] for ch in checks)}


def _old_i_empirical(b, t, k, i, beta_sel, y_points, m, c=2.0):
    """Integrand node by node, one single-slice transform per multiplier; the
    families come straight from the engine pieces."""
    spec = b.spec
    half = spec.n // 2 + 1  # the engine's half spectra
    xi = fs.freqs(spec)[0][:half]
    muls = {0: [np.ones(half)], 1: [1j * xi], 2: [(1j * xi) * (1j * xi)]}
    pc = g.gaussian(spec, c * t)
    best = 0.0
    for y in y_points:
        s, bs, _, psi_hat = px._first_family(b, t, float(y), m)
        for _ in range(k - 1):
            psi_hat = px._neg_div_hat(spec, bs, g.irfft(spec, px._trapezoid(spec, psi_hat, s)))
        pc_y = np.roll(pc.values, int(round(y / spec.h)))
        mask = pc_y > bounds.I_RATIO_FLOOR * pc_y.max()
        integrand = np.empty(len(s))
        for j, sj in enumerate(s):
            u_hat = fs.heat(spec, t - sj)[:half] * psi_hat[j]
            A = []
            for order in (i, i + 1):
                total = 0.0
                for mlt in muls[order]:
                    vals = g.irfft(spec, mlt * u_hat)
                    total += float((np.abs(vals)[mask] / pc_y[mask]).max())
                A.append(total)
            integrand[j] = A[0] ** (1.0 - beta_sel) * A[1] ** beta_sel
        best = max(best, float(np.trapezoid(integrand, s)))
    return best


def test_bootstrap_builds_one_matrix_per_step_time(spec8pi, monkeypatch):
    # n=256 resolves the smallest composed time kappa*a/2
    b = drifts.single_mode_drift(spec8pi, amplitude=0.5)
    ref = _old_bootstrap(b, 0.25, 0.5, K_max=4, tol=1e-6, m=24)
    built = []

    def recording(b_, t, **kw):
        built.append(t)
        return px.transition_matrix(b_, t, **kw)

    monkeypatch.setattr(bounds, "transition_matrix", recording)
    boot = bounds.bootstrap_lower_bound(b, a=0.25, kappa=0.5, K_max=4, m=24)
    assert sorted(built) == [0.125, 0.1875, 0.25]
    assert boot == ref


@pytest.mark.parametrize("preset", ["single-mode", "multi-mode", "traveling-mode"])
def test_i_empirical_matches_per_node_loop(spec8pi, preset):
    b = drifts.make_preset(preset, spec8pi, amplitude=0.8)
    t, m, ys = 0.5, 32, [0.0, 1.3]
    for k in (1, 2, 3):
        for i in (0, 1):
            for beta_sel in (0.0, b.alpha):
                new = bounds.i_empirical(b, t, k, i, beta_sel, y_points=ys, m=m)
                ref = _old_i_empirical(b, t, k, i, beta_sel, ys, m)
                assert new > 0
                assert abs(new - ref) <= 1e-13 * ref


def test_ibound_table_builds_three_ratio_stacks_per_family(spec8pi, monkeypatch):
    # one stack per derivative order 0, 1, 2 for each (t, k, source), one
    # envelope per t; entries equal the per-entry i_empirical calls exactly
    b = drifts.make_preset("traveling-mode", spec8pi, amplitude=0.8)
    ts, k_max, ys = [0.5, 1.0], 3, [0.0, 1.3]
    ref = {(e_t, k, i, beta): bounds.i_empirical(b, e_t, k, i, beta, y_points=ys, m=32)
           for e_t in ts for k in range(1, k_max + 1) for i in (0, 1)
           for beta in (0.0, b.alpha)}
    calls = {"orders": [], "envelopes": []}

    def ratio_norms(spec, fields_hat, pc_vals, mask, order, _orig=bounds._sup_ratio_norms):
        calls["orders"].append(order)
        return _orig(spec, fields_hat, pc_vals, mask, order)

    def gaussian(spec, t, _orig=g.gaussian):
        calls["envelopes"].append(t)
        return _orig(spec, t)

    monkeypatch.setattr(bounds, "_sup_ratio_norms", ratio_norms)
    monkeypatch.setattr(g, "gaussian", gaussian)
    table = bounds.ibound_table(b, ts, k_max=k_max, m=32, y_points=ys)
    assert calls["orders"] == [0, 1, 2] * (len(ts) * k_max * len(ys))
    assert calls["envelopes"] == [2.0 * t for t in ts]
    assert {(e["t"], e["k"], e["i"], e["beta"]): e["empirical"]
            for e in table.entries} == ref


def test_ibound_table_builds_each_family_once(spec8pi, monkeypatch):
    # each (t, source) walks k = 1..k_max once: one first family, then one
    # -div(b G) step per further family (a restart at k = 1 per k would build
    # 1 + 2 + 3 families per pair)
    b = drifts.single_mode_drift(spec8pi, amplitude=1.0)
    ts, k_max, ys = [0.5, 1.0], 3, [0.0, 1.3]
    firsts, steps = [], []

    def first_family(b_, t, y, m, _orig=bounds._first_family):
        firsts.append((t, y))
        return _orig(b_, t, y, m)

    def neg_div_hat(spec, bs, v, _orig=bounds._neg_div_hat):
        steps.append(1)
        return _orig(spec, bs, v)

    monkeypatch.setattr(bounds, "_first_family", first_family)
    monkeypatch.setattr(bounds, "_neg_div_hat", neg_div_hat)
    bounds.ibound_table(b, ts, k_max=k_max, m=32, y_points=ys)
    assert sorted(firsts) == sorted((t, y) for t in ts for y in ys)
    assert len(steps) == (k_max - 1) * len(ts) * len(ys)


def test_ratio_extremes_reads_inf_on_clipped_kernel(spec8pi_small):
    spec = spec8pi_small
    src = np.arange(spec.n)
    M, _ = px.transition_matrix(drifts.single_mode_drift(spec, amplitude=0.5), 0.5,
                                K_max=6, m=32)
    ringing = M - 1e-7 * M.max()  # a negative overshoot inside the resolved region
    p_lo = g.gaussian(spec, 0.5 * 0.5).values
    for K in (M, ringing):
        # the floor comes from K's own overshoot, not the clipped copy's
        noise = max(0.0, float(-K.min())) / float(K.max())
        floor_rel = max(bounds.SUPPORT_FLOOR, 50.0 * noise)
        assert bounds._ratio_extremes(spec, K, src, p_lo) == (
            _old_ratio_extremes(spec, K, src, p_lo, floor_rel)[0],
            _old_ratio_extremes(spec, np.maximum(K, 0.0), src, p_lo, floor_rel)[1])
