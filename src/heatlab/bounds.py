"""Scalar inequality machinery and Gaussian envelope extraction.

Covers the beta-function bounds, the factorial-gain series inequality, the
empirical correction-size integrals I^beta_{i,k} with their closed-form
dominating sums, two-sided envelope constants with their growth regression,
the constant-drift sharpness formulas, and the composition bootstrap for the
lower envelope.  The I-table walks the correction families with
`parametrix._families`, which steps with the series' own checked Duhamel step.

Constants here are existential in the underlying estimates; the laboratory
fits minimal constants empirically and asserts their stability, never a
specific value.  Fixed grids: `_N_BETA` x `_N_GAMMA` points for `m_delta`,
`_N_Z` points of z in [0, `_Z_MAX`] for `series_bound_L`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp

from . import grid as g
from .dyadic import DriftField, drift_norms
from .errors import EnvelopeViolated
from .parametrix import _families, transition_matrix

__all__ = [
    "beta_fn",
    "beta_fn_quadrature",
    "m_delta",
    "series_bound_L",
    "i_empirical",
    "i_rhs",
    "IBoundTable",
    "ibound_table",
    "sharp_const_drift",
    "EnvelopeReport",
    "envelope_sweep_entry",
    "fit_envelope",
    "bootstrap_lower_bound",
    "SUPPORT_FLOOR",
]

#: envelope ratios are only meaningful where the band-limited periodized
#: Gaussian sits safely above its truncation/roundoff ringing floor
SUPPORT_FLOOR = 1e-10

#: the correction-size integrals divide pointwise by the envelope; products
#: on the grid alias at a relative floor ~exp(-t(xi_max-xi_drift)^2/2), so the
#: ratio region is restricted harder than the envelope fits
I_RATIO_FLOOR = 1e-8

_N_BETA, _N_GAMMA = 129, 513  # beta and gamma grid sizes of the m_delta scan
_Z_MAX, _N_Z = 50.0, 161  # z range and grid size series_bound_L fits on


def beta_fn(beta: float, gamma: float) -> float:
    """Beta function via the log-Gamma identity."""
    if beta <= 0 or gamma <= 0:
        raise ValueError(f"beta_fn needs positive arguments, got ({beta}, {gamma})")
    return float(np.exp(gammaln(beta) + gammaln(gamma) - gammaln(beta + gamma)))


def beta_fn_quadrature(beta: float, gamma: float) -> float:
    """Independent route: adaptive quadrature of the defining integral."""
    if beta <= 0 or gamma <= 0:
        raise ValueError(f"beta_fn needs positive arguments, got ({beta}, {gamma})")
    val, _ = quad(lambda r: r ** (gamma - 1) * (1 - r) ** (beta - 1), 0, 1,
                  limit=400, epsabs=1e-12, epsrel=1e-12)
    return float(val)


def m_delta(delta: float, gamma_max: float | None = None) -> float:
    """sup of B(beta, gamma) * gamma^beta over [delta,1] x [delta, inf).

    The sup over the unbounded gamma direction tends to Gamma(beta); the
    numeric sup runs over `_N_BETA` x `_N_GAMMA` grid points with gamma up to
    gamma_max (default 64/delta) and is compared against that tail limit.
    """
    if not 0 < delta <= 1:
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    if gamma_max is None:
        gamma_max = 64.0 / delta
    betas = np.linspace(delta, 1.0, _N_BETA)
    gammas = np.geomspace(delta, gamma_max, _N_GAMMA)
    B, G = np.meshgrid(betas, gammas, indexing="ij")
    vals = np.exp(gammaln(B) + gammaln(G) - gammaln(B + G) + B * np.log(G))
    tail = float(np.exp(gammaln(betas)).max())
    return float(max(vals.max(), tail))


def _log_series(z: float, beta: float) -> float:
    """log of sum_k z^k / (k!)^beta, windowed around the peak term."""
    if z == 0:
        return 0.0
    logz = np.log(z)
    k_peak = max(1.0, z ** (1.0 / beta))
    width = np.sqrt(k_peak / beta)
    lo = 0
    hi = int(k_peak + 14 * width) + 64
    if hi <= 200000:
        ks = np.arange(lo, hi + 1, dtype=float)
    else:
        head = np.arange(0, 1025, dtype=float)
        win_lo = max(1025, int(k_peak - 14 * width))
        window = np.arange(win_lo, hi + 1, dtype=float)
        ks = np.concatenate([head, window])
    return float(logsumexp(ks * logz - beta * gammaln(ks + 1)))


def series_bound_L(beta: float) -> float:
    """Smallest grid constant L with sum_k z^k/(k!)^beta <= L*exp(L*z^{1/beta}).

    Found by bisection per z over 0 and a log-spaced grid up to `_Z_MAX`
    (`_N_Z` points in all), then verified on the full grid.
    """
    if not 0 < beta < 1:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    zs = np.concatenate([[0.0], np.geomspace(1e-3, _Z_MAX, _N_Z - 1)])
    L_req = 1.0
    for z in zs:
        logS = _log_series(float(z), beta)
        x = z ** (1.0 / beta)

        def ok(L):
            return np.log(L) + L * x >= logS

        lo, hi = 1.0, 1e6
        if ok(lo):
            continue
        for _ in range(200):
            mid = np.sqrt(lo * hi)
            if ok(mid):
                hi = mid
            else:
                lo = mid
        L_req = max(L_req, hi)
    L = L_req * 1.0000001
    for z in zs:
        if np.log(L) + L * z ** (1.0 / beta) < _log_series(float(z), beta) - 1e-9:
            raise AssertionError("series bound verification failed")
    return float(L)


# -- empirical correction-size integrals --------------------------------------


def _sup_ratio_norms(spec, fields_hat, pc_vals, mask, order: int) -> np.ndarray:
    """Per node of a stack of half spectra (the engine's): sum over derivative
    multi-indices of order `order` of the masked sup of |derivative field| /
    envelope.

    The multipliers (i xi)^mu are `grid.deriv_multiplier`'s, one per ordered
    tuple of axes.
    """
    eye = list(np.eye(spec.d, dtype=int))
    mus = {0: [0 * eye[0]], 1: eye, 2: [a + b for a in eye for b in eye]}[order]
    total = 0.0
    for mu in mus:
        vals = g.irfft(spec, g.deriv_multiplier(spec, mu) * fields_hat)
        total = total + (np.abs(vals)[:, mask] / pc_vals[mask]).max(axis=1)
    return total


def _ratio_stacks(b: DriftField, t: float, k_max: int, y_points, pc: g.GridField,
                  m: int):
    """For k = 1..k_max, the list over sources y of (node times s, [A_0, A_1,
    A_2]), where A_j is the per-node sum of masked sup ratios of the order-j
    derivatives of P_{t-s} Psi^{y,k}_s to the envelope pc = p(ct, .) centred
    at y.  Every source walks its families once.

    d=1 only and 1 <= k_max <= 4 (the upper limit is a cost guard).  Default
    sources: four points a quarter box apart.
    """
    spec = b.spec
    if spec.d != 1:
        raise ValueError("i_empirical is d=1 only")
    if k_max > 4:
        raise ValueError("k <= 4 (cost guard)")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    if y_points is None:
        y_points = spec.axis_points()[:: spec.n // 4][:4]
    walks = [(float(y), _families(b, t, float(y), m)) for y in np.atleast_1d(y_points)]
    for _ in range(k_max):
        stacks = []
        for y, walk in walks:
            s, psi_hat = next(walk)
            pc_y = np.roll(pc.values, int(round(y / spec.h)))
            mask = pc_y > I_RATIO_FLOOR * pc_y.max()
            u_hat = g.heat_multiplier(spec, t - s) * psi_hat
            stacks.append((s, [_sup_ratio_norms(spec, u_hat, pc_y, mask, order)
                               for order in (0, 1, 2)]))
        yield stacks


def _i_entry(stacks: list, i: int, beta_sel: float) -> float:
    """Sup over sources of the time integral of A_i^(1-beta) A_{i+1}^beta."""
    best = 0.0
    for s, A in stacks:
        integrand = A[i] ** (1.0 - beta_sel) * A[i + 1] ** beta_sel
        best = max(best, float(np.trapezoid(integrand, s)))
    return best


def i_empirical(b: DriftField, t: float, k: int, i: int, beta_sel: float,
                y_points=None, c: float = 2.0, m: int = 96) -> float:
    """Empirical I^beta_{i,k}(t): sup over a source subgrid of the time
    integral of the (1-beta, beta)-weighted sup-ratio product.

    beta_sel is the literal beta value (0 or the drift's alpha).  d=1 only and
    k <= 4 (cost guard).  The integrand is formed on the whole node stack.
    """
    if i not in (0, 1):
        raise ValueError("i must be 0 or 1")
    *_, stacks = _ratio_stacks(b, t, k, y_points, g.gaussian(b.spec, c * t), m)
    return _i_entry(stacks, i, beta_sel)


def i_rhs(k: int, i: int, beta_sel: float, t: float, X: float, Y: float,
          C: float, M: float, K: float, alpha: float) -> float:
    """Closed-form dominating sum for I^beta_{i,k}(t)."""
    total = 0.0
    for mm in range(k + 1):
        nn = k - mm
        term = (C * M * X * t**0.5) ** mm / np.exp(((1 - beta_sel) / 2) * gammaln(mm + 1))
        term *= (C * M * Y * t ** ((1 - alpha) / 2)) ** nn / np.exp(
            ((1 - alpha - beta_sel) / 2) * gammaln(nn + 1))
        total += term
    return float(K * t ** (-(i + beta_sel) / 2) * total)


@dataclass
class IBoundTable:
    """Empirical vs closed-form correction-size entries with one fitted triple."""

    alpha: float
    C: float
    M: float
    K: float
    entries: list  # dicts: i, beta, k, t, empirical, rhs

    def dominated(self) -> bool:
        return all(e["empirical"] <= e["rhs"] * (1 + 1e-9) for e in self.entries)


def ibound_table(b: DriftField, t_values, k_max: int = 3, c: float = 2.0,
                 m: int = 96, y_points=None) -> IBoundTable:
    """Build the I-table for a drift and fit the single (C, M, K) triple.

    M is pinned to 8 * M_{1/2 - alpha} (the natural choice from the beta
    function lemma), C to 1; K is fitted as the smallest value making every
    empirical entry dominated.  Each (t, source) walks k = 1..k_max once.
    """
    alpha = b.alpha
    X, Y = drift_norms(b)
    M = 8.0 * m_delta(0.5 - alpha)
    C = 1.0
    raw = []
    for t in np.atleast_1d(t_values):
        pc = g.gaussian(b.spec, c * float(t))
        for k, stacks in enumerate(_ratio_stacks(b, float(t), k_max, y_points, pc, m), 1):
            for i in (0, 1):
                for beta_sel in (0.0, alpha):
                    emp = _i_entry(stacks, i, beta_sel)
                    base = i_rhs(k, i, beta_sel, float(t), X, Y, C, M, 1.0, alpha)
                    raw.append({"i": i, "beta": beta_sel, "k": k, "t": float(t),
                                "empirical": emp, "rhs_unit": base})
    K = max((e["empirical"] / e["rhs_unit"] for e in raw if e["rhs_unit"] > 0),
            default=1.0)
    K = max(K, 1e-12) * (1 + 1e-9)
    entries = [{**e, "rhs": e["rhs_unit"] * K} for e in raw]
    for e in entries:
        del e["rhs_unit"]
    return IBoundTable(alpha=alpha, C=C, M=M, K=float(K), entries=entries)


def sharp_const_drift(lam: float, dilation: float, t: float, d: int,
                      side: str) -> float:
    """Exact envelope constants for constant drift.

    upper: c^{d/2} exp(t*lam^2/(2(c-1))), c > 1;
    lower: kappa^{d/2} exp(-t*lam^2/(2(1-kappa))), kappa in (0,1).
    """
    if side == "upper":
        if not dilation > 1:
            raise ValueError("upper side needs dilation > 1")
        return float(dilation ** (d / 2) * np.exp(t * lam**2 / (2 * (dilation - 1))))
    if side == "lower":
        if not 0 < dilation < 1:
            raise ValueError("lower side needs dilation in (0, 1)")
        return float(dilation ** (d / 2) * np.exp(-t * lam**2 / (2 * (1 - dilation))))
    raise ValueError(f"side must be 'upper' or 'lower', got {side!r}")


# -- envelope fitting ----------------------------------------------------------


@dataclass
class EnvelopeReport:
    """Fitted envelope constants across a (time, amplitude) sweep.

    loo_slopes refit the pooled regression with one amplitude left out (the
    stability check: no single amplitude may drive the fitted growth law).
    """

    c: float
    kappa: float
    alpha: float
    rows: list  # dicts: t, amplitude, X, Y, C_upper, kappa, C_lower
    slope: float
    r2: float
    loo_slopes: dict


def _ratio_extremes(spec: g.GridSpec, M: np.ndarray, src_idx: np.ndarray,
                    p_env: np.ndarray):
    """(sup, inf) of M[i,j] / p_env(x_j - y_i) over the resolved region.

    The region keeps envelope values above max(SUPPORT_FLOOR, 50 x the
    kernel's relative negative overshoot) times the envelope peak: beyond it
    the ratio reads truncation/aliasing noise instead of the envelope constant.
    The inf is read on max(M, 0), so a negative overshoot gives 0, never a
    negative lower constant.
    """
    if spec.d != 1:
        raise ValueError(f"envelope ratios index kernel rows as in d=1; "
                         f"got grid.d = {spec.d}")
    n = spec.n
    i0 = n // 2
    idx = (np.arange(n)[None, :] - src_idx[:, None] + i0) % n
    P = p_env[idx]
    noise = max(0.0, float(-M.min())) / float(M.max())
    floor_rel = max(SUPPORT_FLOOR, 50.0 * noise)
    mask = P > floor_rel * p_env.max()
    ratios = M[mask] / P[mask]
    return float(ratios.max()), max(float(ratios.min()), 0.0)


def envelope_sweep_entry(b: DriftField, t: float, amplitude: float,
                         K_max: int = 12, tol: float = 1e-6, m: int = 128) -> dict:
    """One sweep record: kernel matrix (row i from grid point i) plus drift
    norms at one (t, amplitude)."""
    spec = b.spec
    X, Y = drift_norms(b)
    M, _ = transition_matrix(b, t, K_max=K_max, tol=tol, m=m)
    return {"t": float(t), "amplitude": float(amplitude), "X": X, "Y": Y,
            "matrix": M, "src_idx": np.arange(spec.n), "spec": spec}


def fit_envelope(entries, c: float, alpha: float = 0.25) -> EnvelopeReport:
    """Extract per-time envelope constants and regress their growth.

    C_upper(t) = sup Gamma / p(ct, x-y); the lower side scans kappa = 0.9,
    0.8, ..., 0.1 for the largest kappa with a strictly positive infimum ratio
    (0.1 with C_lower = 0 if none has one).  A kernel below -1e-5 times its
    peak (the negativity tolerance) raises EnvelopeViolated.  The regression
    explains log C_upper by t * (X^2 + Y^{2/(1-alpha)}).
    """
    ts = sorted({e["t"] for e in entries})
    amps = sorted({e["amplitude"] for e in entries})
    if len(ts) < 3 or len(amps) < 2:
        raise ValueError("need at least 3 times and 2 amplitudes")
    rows = []
    kappa_chosen = []
    for e in entries:
        spec = e["spec"]
        M = e["matrix"]
        if M.min() < -1e-5 * M.max():
            raise EnvelopeViolated(
                f"kernel negative ({M.min():.3e}) beyond tolerance at t={e['t']}"
            )
        p_up = g.gaussian(spec, c * e["t"]).values
        sup_r, _ = _ratio_extremes(spec, M, e["src_idx"], p_up)
        best = (0.1, 0.0)
        for kap in np.arange(0.1, 0.95, 0.1)[::-1]:
            p_lo = g.gaussian(spec, kap * e["t"]).values
            _, inf_r = _ratio_extremes(spec, M, e["src_idx"], p_lo)
            if inf_r > 0:
                best = (kap, inf_r)
                break
        rows.append({"t": e["t"], "amplitude": e["amplitude"], "X": e["X"],
                     "Y": e["Y"], "C_upper": sup_r, "kappa": best[0],
                     "C_lower": best[1]})
        kappa_chosen.append(best[0])
    xs = np.array([r["t"] * (r["X"] ** 2 + r["Y"] ** (2 / (1 - alpha))) for r in rows])
    ys = np.log(np.array([r["C_upper"] for r in rows]))
    if np.ptp(xs) == 0:  # driftless sweep: nothing to regress against
        slope, intercept = 0.0, float(ys.mean())
    else:
        slope, intercept = np.polyfit(xs, ys, 1)
    pred = slope * xs + intercept
    ss_res = float(((ys - pred) ** 2).sum())
    ss_tot = float(((ys - ys.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    loo = {}
    for a in amps:
        rest = np.array([r["amplitude"] != a for r in rows])
        if rest.sum() >= 2 and np.ptp(xs[rest]) > 0:
            sl, _ = np.polyfit(xs[rest], ys[rest], 1)
            loo[a] = float(sl)
    return EnvelopeReport(c=c, kappa=float(min(kappa_chosen)), alpha=alpha,
                          rows=rows, slope=float(slope), r2=float(r2), loo_slopes=loo)


def bootstrap_lower_bound(b: DriftField, a: float, kappa: float, K_max: int = 12,
                          tol: float = 1e-6, m: int = 128) -> dict:
    """Composition bootstrap for the lower envelope.

    Measures M on (0, a] as the worst inf of kernel / p(kappa t, x-y) at
    t = a/2 and a, then for each check time t = 1.5a, 2a, 3a, 4a composes the
    kernel at t/n (n = ceil(t/a)) with itself n times and checks the composed
    kernel dominates M^{-1-t/a} p(kappa t, .).  One kernel matrix is built per
    distinct step time; ratios are read above the kernel's noise floor, as in
    `fit_envelope`.
    Time-homogeneous drifts only (composition reuses one matrix).
    """
    spec = b.spec
    if not b.is_time_constant():
        raise ValueError("bootstrap needs a time-homogeneous drift")
    ts = [r * a for r in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0)]
    n_comps = [int(np.ceil(t / a)) for t in ts]
    kernels = {tt: transition_matrix(b, tt, K_max=K_max, tol=tol, m=m)[0]
               for tt in dict.fromkeys(t / n for t, n in zip(ts, n_comps))}
    inf_rs = []
    for t, n_comp in zip(ts, n_comps):
        composed = M_step = kernels[t / n_comp]
        for _ in range(n_comp - 1):
            composed = spec.h * (composed @ M_step)
        p_lo = g.gaussian(spec, kappa * t).values
        inf_rs.append(_ratio_extremes(spec, composed, np.arange(spec.n), p_lo)[1])
    Minv = min(inf_rs[:2])
    if Minv <= 0:
        raise EnvelopeViolated(f"no positive lower constant at kappa={kappa}")
    M_const = max(1.0 / Minv, 1.0 + 1e-9)
    checks = []
    for t, n_comp, inf_r in zip(ts[2:], n_comps[2:], inf_rs[2:]):
        bound = M_const ** (-1.0 - t / a)
        checks.append({"t": float(t), "n_comp": n_comp,
                       "inf_ratio": inf_r, "required": bound,
                       "ok": bool(inf_r >= bound)})
    return {"kappa": kappa, "M": M_const, "a": a, "checks": checks,
            "all_ok": all(ch["ok"] for ch in checks)}
