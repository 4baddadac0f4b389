"""The kernel as an iterated-correction series.

Each term adds one interaction with the drift; term norms decay
super-geometrically, the kernel keeps unit mass exactly, and for constant
drift the series collapses to the shifted Gaussian whose envelope constants
are known in closed form.
"""

import numpy as np

from heatlab import bounds, drifts, grid as g, parametrix as px

spec = g.make_grid(1, 256, 8 * np.pi)

# Zero drift: the series is the kernel itself.
res = px.gamma_series(drifts.zero_drift(spec), 1.0, y=0.0)
print(f"zero drift: K_used={res.K_used}, "
      f"defect={np.abs(res.gamma.values - g.gaussian(spec, 1.0).values).max():.2e}")

# Constant drift: closed-form target p(t, x - y - lambda t).
res = px.gamma_series(drifts.constant_drift(spec, 1.0), 1.0, y=0.0, K_max=8)
target = g.gaussian_shifted(spec, 1.0, 1.0)
rel = np.abs(res.gamma.values - target.values).max() / target.values.max()
print(f"constant drift: rel sup error {rel:.2e} with {res.K_used} terms")
print(f"  term sup norms: {[f'{v:.2e}' for v in res.term_sup_norms]}")

# Oscillating drift: mass stays 1 to machine precision (each correction is an
# exact divergence) and the tail estimate tracks the term decay.
b = drifts.single_mode_drift(spec, amplitude=1.0, xi0=1.0)  # cos(x)
res = px.gamma_series(b, 1.0, y=0.0)
print(f"cos drift: mass defect {abs(res.gamma.integral() - 1):.2e}, "
      f"min {res.gamma.values.min():.2e}, tail {res.tail_estimate:.2e}")

# Sharpness: measured envelope constants against the constant-drift formulas.
lam, c, kap, t = 1.0, 2.0, 0.5, 1.0
res = px.gamma_series(drifts.constant_drift(spec, lam), t, 0.0, K_max=14)
M = res.gamma.values[None, :]
src = np.array([spec.n // 2])
sup_r, _ = bounds._ratio_extremes(spec, M, src, g.gaussian(spec, c * t).values)
_, inf_r = bounds._ratio_extremes(spec, M, src, g.gaussian(spec, kap * t).values)
print(f"sup Gamma/p(ct): {sup_r:.4f}  formula {bounds.sharp_const_drift(lam, c, t, 1, 'upper'):.4f}")
print(f"inf Gamma/p(kt): {inf_r:.4f}  formula {bounds.sharp_const_drift(lam, kap, t, 1, 'lower'):.4f}")

# Two-time consistency through an intermediate time (composition defect).
btv = drifts.time_varying_drift(spec, horizon=1.0)
resid = px.chapman_kolmogorov_residual(btv, 0.5, 1.0, 0.0)
print(f"composition residual, sin(t)cos(x) drift: {resid:.2e}")
