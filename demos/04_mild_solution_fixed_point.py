"""The kernel a second way: contraction fixed point of the Duhamel map.

The map is iterated on [0, T], and a slab whose iterates do not converge
within the iteration cap is halved; point data is mollified at the grid floor
and the bias removed by extrapolation.  Agreement with the series route
cross-validates both.
"""

import numpy as np

from heatlab import cauchy as cy, drifts, dyadic as dy, grid as g, parametrix as px

spec = g.make_grid(1, 256, 8 * np.pi)
b = drifts.single_mode_drift(spec, amplitude=1.0, xi0=1.0)  # cos(x)
X, Y = dy.drift_norms(b)
print(f"drift norms: X={X:.3f} Y={Y:.3g}")

# Pure heat flow sanity: the fixed point of the driftless map is P_t phi.
eps = spec.h**2
phi = g.GridField(spec, g.gaussian_shifted(spec, eps, 0.0).values)
v = cy.picard_solve(phi, drifts.zero_drift(spec), T=0.5)
print(f"heat-flow defect: "
      f"{np.abs(v.terminal().values - g.gaussian_shifted(spec, 0.5 + eps, 0.0).values).max():.2e}")

# A strong drift does not converge on [0, 1] within the iteration cap: the
# slabs that fail are halved until each one converges.  Constant drift has a
# closed form.
strong = cy.picard_solve(phi, drifts.constant_drift(spec, 4.0), T=1.0, tol=1e-9)
exact = g.gaussian_shifted(spec, 1.0 + eps, 4.0).values
print(f"constant drift 4: slabs={strong.report['segments']} "
      f"iterations={strong.report['iterations']} "
      f"error={np.abs(strong.terminal().values - exact).max() / exact.max():.2e}")

# Solve with the cos drift and report its slabs and iterations.
v = cy.picard_solve(phi, b, T=1.0, tol=1e-9)
print(f"solve report: {v.report}")

# Cross-validation against the series, with eps-extrapolation.
res = px.gamma_series(b, 1.0, 0.0)
g1 = cy.gamma_via_cauchy(b, 1.0, 0.0, eps=2 * eps).values
g2 = cy.gamma_via_cauchy(b, 1.0, 0.0, eps=eps).values
sup = res.gamma.values.max()
print(f"gap at eps:        {np.abs(g1 - res.gamma.values).max() / sup:.2e}")
print(f"gap at eps/2:      {np.abs(g2 - res.gamma.values).max() / sup:.2e}")
print(f"gap extrapolated:  {np.abs(2 * g2 - g1 - res.gamma.values).max() / sup:.2e}")
