"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line.  Criteria are numbered; tolerances are
pinned here, not deferred.  Heavy Monte Carlo criteria (5, 12, 13) and the
determinism criterion (14) dominate the runtime.
"""

import filecmp
import numpy as np
import pytest

from heatlab import (
    bounds,
    cauchy as cy,
    cli,
    drifts,
    dyadic as dy,
    grid as g,
    harness,
    montecarlo as mc,
    parametrix as px,
)


def _verdict(num, name, ok, detail=""):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def spec():
    return g.make_grid(1, 256, 8 * np.pi)


def test_c01_zero_drift_collapse(spec):
    worst = 0.0
    for t in (0.25, 1.0):
        res = px.gamma_series(drifts.zero_drift(spec), t, 0.0)
        worst = max(worst, float(np.abs(res.gamma.values - g.gaussian(spec, t).values).max()))
    _verdict(1, "zero-drift collapse", worst < 1e-8, f"sup defect {worst:.2e} < 1e-8")


def test_c02_constant_drift_exactness(spec):
    res = px.gamma_series(drifts.constant_drift(spec, 1.0), 1.0, 0.0, K_max=8)
    target = g.gaussian_shifted(spec, 1.0, 1.0).values
    rel = float(np.abs(res.gamma.values - target).max() / target.max())
    _verdict(2, "constant-drift exactness", rel < 1e-3,
             f"rel sup error {rel:.2e} < 1e-3 (K_max=8)")


def test_c03_sharpness_constants(spec):
    lam, c, kap, t = 1.0, 2.0, 0.5, 1.0
    res = px.gamma_series(drifts.constant_drift(spec, lam), t, 0.0, K_max=14)
    M = res.gamma.values[None, :]
    src = np.array([spec.n // 2])
    sup_r, _ = bounds._ratio_extremes(spec, M, src, g.gaussian(spec, c * t).values)
    _, inf_r = bounds._ratio_extremes(spec, np.maximum(M, 0.0), src,
                                      g.gaussian(spec, kap * t).values)
    f_up = bounds.sharp_const_drift(lam, c, t, 1, "upper")    # 2.3316...
    f_lo = bounds.sharp_const_drift(lam, kap, t, 1, "lower")  # 0.2601...
    e_up = abs(sup_r - f_up) / f_up
    e_lo = abs(inf_r - f_lo) / f_lo
    _verdict(3, "sharpness constants", e_up < 0.02 and e_lo < 0.02,
             f"upper {sup_r:.4f} vs {f_up:.4f} ({e_up:.2%}), "
             f"lower {inf_r:.4f} vs {f_lo:.4f} ({e_lo:.2%}), both < 2%")


def test_c04_cross_method_agreement(spec):
    b = drifts.single_mode_drift(spec, amplitude=1.0, xi0=1.0)  # cos x
    res = px.gamma_series(b, 1.0, 0.0)
    eps = spec.h**2
    g1 = cy.gamma_via_cauchy(b, 1.0, 0.0, eps=2 * eps).values
    g2 = cy.gamma_via_cauchy(b, 1.0, 0.0, eps=eps).values
    extrap = 2 * g2 - g1
    gap = float(np.abs(extrap - res.gamma.values).max() / res.gamma.values.max())
    _verdict(4, "cross-method agreement", gap < 1e-2,
             f"extrapolated rel sup gap {gap:.2e} < 1e-2")


def test_c05_monte_carlo_validation():
    spec = g.make_grid(1, 512, 8 * np.pi)
    b = drifts.single_mode_drift(spec, amplitude=1.0, xi0=1.0)
    ens = mc.simulate(b, 0.0, 1.0, 1e-3, 10**6, seed=42, snapshot_times=[1.0])
    dens = mc.density_at(ens, 1.0)  # bandwidth 2h
    res = px.gamma_series(b, 1.0, 0.0)
    l1 = float(spec.cell * np.abs(dens.values - res.gamma.values).sum())
    _verdict(5, "Monte Carlo validation", l1 < 0.02,
             f"L1 distance {l1:.4f} < 0.02 (N=1e6, h_t=1e-3, bw=2h)")


def test_c06_chapman_kolmogorov(spec):
    btv = drifts.time_varying_drift(spec, horizon=1.0)  # sin(t) cos(x)
    resid = px.chapman_kolmogorov_residual(btv, 0.5, 1.0, 0.0)
    _verdict(6, "Chapman-Kolmogorov", resid < 1e-3,
             f"residual {resid:.2e} < 1e-3 at (s,t)=(0.5,1)")


def test_c07_dirac_besov_scaling():
    slopes = {}
    for d, n, L in ((1, 1024, 20.0), (2, 256, 20.0)):
        sp = g.make_grid(d, n, L)
        i_hi = int(np.floor(np.log2(3 * (np.pi * n / L) / 8)))
        delta = g.discrete_delta(sp)
        iis = np.arange(0, i_hi + 1)
        vals = [np.log2(g.lp_norm(dy.block(delta, int(i)), np.inf)) for i in iis]
        slopes[d] = float(np.polyfit(iis, vals, 1)[0])
    ok = all(abs(slopes[d] - d) < 0.05 * d for d in (1, 2))
    _verdict(7, "Dirac Besov scaling", ok,
             f"slopes d=1: {slopes[1]:.4f}, d=2: {slopes[2]:.4f} (within 5%)")


def _random_phase_field(sp, seed):
    # hermitian unit-amplitude spectrum with random phases
    rng = np.random.default_rng(seed)
    n = sp.n
    coef = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
    coef[0] = 1.0
    k = np.arange(1, n // 2)
    coef[n - k] = np.conj(coef[k])
    coef[n // 2] = 1.0
    return g.GridField(sp, np.fft.ifft(coef).real * n)


def test_c08_semigroup_smoothing_exponent():
    sp = g.make_grid(1, 4096, 40.0)
    idx = dy.BesovIndex(0.5, np.inf, np.inf)
    ts = 2.0 ** np.arange(-8, -1)
    norms = []
    for seed in range(8):
        fld = _random_phase_field(sp, seed)
        norms.append([dy.besov_norm(g.semigroup_apply(fld, t), idx) for t in ts])
    mean = np.exp(np.mean(np.log(norms), axis=0))
    slope = float(np.polyfit(np.log(ts), np.log(mean), 1)[0])
    _verdict(8, "semigroup smoothing exponent", abs(slope + 0.5) < 0.05,
             f"regression slope {slope:.4f} within 10% of -1/2")


def test_c09_beta_machinery():
    sym_dev = 0.0
    for b1 in np.linspace(0.2, 2.5, 8):
        for b2 in np.linspace(0.2, 2.5, 8):
            sym_dev = max(sym_dev, abs(bounds.beta_fn(b1, b2) - bounds.beta_fn(b2, b1)))
    pi_dev = abs(bounds.beta_fn(0.5, 0.5) - np.pi)
    v1 = bounds.m_delta(0.25)
    v2 = bounds.m_delta(0.25, gamma_max=2 * 64 / 0.25)
    m_stab = abs(v2 - v1) / v1
    Ls = {}
    for beta in (0.25, 0.375, 0.5):
        Ls[beta] = bounds.series_bound_L(beta)  # verifies on z in [0, 50]
    ok = sym_dev < 1e-12 and pi_dev < 1e-10 and m_stab < 0.005 and all(
        np.isfinite(L) for L in Ls.values())
    _verdict(9, "beta machinery", ok,
             f"symmetry {sym_dev:.1e}, |B(.5,.5)-pi| {pi_dev:.1e}, "
             f"M_d stability {m_stab:.2%}, L={ {k: round(v, 3) for k, v in Ls.items()} }")


def test_c10_ibound_dominance(spec):
    b = drifts.single_mode_drift(spec, amplitude=1.0)
    table = bounds.ibound_table(b, [0.5, 1.0], k_max=3, m=96)
    ok = table.dominated() and np.isfinite(table.K)
    worst = max(e["empirical"] / e["rhs"] for e in table.entries if e["rhs"] > 0)
    _verdict(10, "I-bound dominance", ok,
             f"single triple (C={table.C}, M={table.M:.2f}, K={table.K:.3f}) "
             f"dominates all {len(table.entries)} entries; worst ratio {worst:.3f}")


def test_c11_envelope_scaling(spec):
    # Y-only traveling-wave family (speed proportional to amplitude): the
    # surfing transport sustains the growth the bound tracks; a static mode
    # homogenizes and its constants saturate in t.  Slope stability is
    # leave-one-amplitude-out: no single amplitude may drive the fitted law.
    alpha = 0.25
    entries = []
    for amp in (1.0, 2.0, 4.0):
        b = drifts.traveling_mode_drift(spec, amplitude=0.5 * amp, alpha=alpha,
                                        speed=0.4 * 0.5 * amp)
        for t in (0.25, 0.5, 1.0):
            entries.append(bounds.envelope_sweep_entry(b, t, amp, K_max=12, m=128))
    rep = bounds.fit_envelope(entries, c=2.0, alpha=alpha)
    slopes = list(rep.loo_slopes.values())
    ratio = max(slopes) / min(slopes)
    boot = bounds.bootstrap_lower_bound(
        drifts.single_mode_drift(spec, amplitude=0.5, alpha=alpha),
        a=0.25, kappa=0.5, m=96)
    ok = (rep.r2 > 0.9 and min(slopes) > 0 and ratio < 3.0 and boot["all_ok"])
    _verdict(11, "envelope scaling", ok,
             f"R2 {rep.r2:.3f} > 0.9, refit slopes {[f'{s:.3f}' for s in slopes]} "
             f"(ratio {ratio:.2f} < 3, all positive), bootstrap ok={boot['all_ok']}")


def test_c12_escape_probability(spec):
    T, h_t, N = 1.0, 1e-3, 10**6
    ens = mc.simulate(drifts.zero_drift(spec), 0.0, T, h_t, N, seed=101)
    shift = 0.5826 * np.sqrt(h_t)
    details = []
    ok = True
    for K in (1.0, 2.0, 3.0):
        p_hat, (lo, hi) = mc.escape_prob(ens, K)
        oracle = mc.reflection_escape_oracle(K, T)
        oracle_sh = mc.reflection_escape_oracle(K + shift, T)
        half = (hi - lo) / 2
        good = oracle_sh - 4 * half <= p_hat <= oracle + 4 * half
        ok &= good
        details.append(f"K={K:.0f}: {p_hat:.5f} in "
                       f"[{oracle_sh - 4 * half:.5f}, {oracle + 4 * half:.5f}]")
    # drifted: Gaussian tail with fitted constant
    b = drifts.single_mode_drift(spec, amplitude=1.0)
    X, Y = dy.drift_norms(b)
    ensd = mc.simulate(b, 0.0, T, h_t, 2 * 10**5, seed=102)
    Ks = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
    ps = np.array([mc.escape_prob(ensd, K)[0] for K in Ks])
    slope, intercept = np.polyfit(Ks**2, np.log(ps), 1)
    pred = slope * Ks**2 + intercept
    r2 = 1 - ((np.log(ps) - pred) ** 2).sum() / ((np.log(ps) - np.log(ps).mean()) ** 2).sum()
    C_fit = -1.0 / (slope * T)
    alpha = 0.25
    pref = C_fit * np.exp(C_fit * T * (X**2 + Y ** (2 / (1 - alpha))))
    bound_ok = bool(np.all(ps <= pref * np.exp(-(Ks**2) / (C_fit * T))))
    ok &= slope < 0 and r2 > 0.9 and bound_ok
    _verdict(12, "escape probability", bool(ok),
             "; ".join(details) + f"; drifted fit C={C_fit:.3f} r2={r2:.4f} "
             f"bound_ok={bound_ok}")


def test_c13_grr_suite(spec):
    ens = mc.simulate(drifts.zero_drift(spec), 0.0, 1.0, 1e-3, 100, seed=103,
                      keep_paths=100)
    violations = 0
    for i in range(100):
        rep = mc.grr_verify(ens.kept_paths[i], ens.kept_times, kappa=0.1,
                            sample_pairs=50, seed=i)
        violations += rep.violations
    rs = np.geomspace(1e-6, 1e6, 49)
    zeta, psi = mc.modulus_functions(rs)
    ratio = psi / zeta
    m_const, M_const = float(ratio.min()), float(ratio.max())
    rr = np.geomspace(1e-3, 10.0, 20)
    _, psir = mc.modulus_functions(rr)
    sub_worst = 0.0
    for i, a in enumerate(rr):
        _, pab = mc.modulus_functions(a * rr)
        sub_worst = max(sub_worst, float((pab / (np.sqrt(2) * psir[i] * psir)).max()))
    ok = (violations == 0 and np.isfinite(m_const) and np.isfinite(M_const)
          and m_const > 0 and sub_worst <= 1 + 1e-12)
    _verdict(13, "GRR suite", ok,
             f"violations {violations}/5000, psi/zeta in [{m_const:.3f}, {M_const:.3f}], "
             f"submultiplicativity worst {sub_worst:.4f} <= 1")


def test_c14_determinism(tmp_path):
    cfgf = tmp_path / "exp.cfg"
    cfgf.write_text("""
mc.N = 20000
mc.h_t = 0.005
mc.keep_paths = 30
truncation.K_max = 12
truncation.m = 96
ibound.k_max = 2
ibound.times = 0.5
""")
    rc1 = cli.main(["all", "--config", str(cfgf), "--out", str(tmp_path / "r1"),
                    "--threads", "1"])
    rc2 = cli.main(["all", "--config", str(cfgf), "--out", str(tmp_path / "r2"),
                    "--threads", "8"])
    files1 = sorted(p.name for p in (tmp_path / "r1").iterdir())
    files2 = sorted(p.name for p in (tmp_path / "r2").iterdir())
    same_names = files1 == files2
    identical = same_names and all(
        filecmp.cmp(tmp_path / "r1" / f, tmp_path / "r2" / f, shallow=False)
        for f in files1)
    ok = rc1 == 0 and rc2 == 0 and identical and len(files1) == 11
    _verdict(14, "determinism", ok,
             f"exit codes ({rc1},{rc2}), {len(files1)} reports, "
             f"byte-identical under 1 vs 8 threads: {identical}")
