"""Dyadic frequency analysis: blocks, Besov norms, and drift norms.

The drift's two controlling numbers are X (the low-frequency sup norm) and Y
(the weighted high-frequency block sum); everything quantitative downstream
is phrased in terms of them.
"""

import numpy as np

from heatlab import drifts, dyadic as dy, grid as g

spec = g.make_grid(1, 256, 8 * np.pi)
part = dy.build_partition(spec)
print(f"j_max = {part.j_max}")

total = sum(part.rho)
sq = sum(r**2 for r in part.rho)
print(f"partition sum deviation: {np.abs(total - 1).max():.2e}")
print(f"square-function range:   [{sq.min():.4f}, {sq.max():.4f}]")

# A pure wave sits in exactly one block.
x = spec.axis_points()
wave = g.GridField(spec, np.cos(6.0 * x))
for i in (0, 1, 2, 3):
    print(f"  ||Delta_{i} cos(6x)||_inf = {g.lp_norm(dy.block(wave, i), np.inf):.3f}")

# The discrete delta exposes the scaling 2^{i d (1 - 1/p)}: sup norms double
# per block in d=1, L^1 norms stay flat.
delta = g.discrete_delta(spec)
for i in range(0, 4):
    b = dy.block(delta, i)
    print(f"  block {i}: sup = {g.lp_norm(b, np.inf):8.3f}   L1 = {g.lp_norm(b, 1):.3f}")

# Drift norms for the preset family.
for name in ("zero", "constant", "single-mode", "multi-mode"):
    b = drifts.make_preset(name, spec, amplitude=1.0)
    X, Y = dy.drift_norms(b)
    print(f"{name:12s} X = {X:8.4f}  Y = {Y:8.4f}")

# Mollification keeps blocks 1..n; the distance to the fully mollified drift
# decreases in n while the norms stay comparable.
b = drifts.multi_mode_drift(spec, amplitude=1.0, seed=7)
full = dy.mollify_drift(b, part.j_max)
idx = dy.BesovIndex(-b.alpha, np.inf, 1)
for n in (1, 2, 4, 6):
    bn = dy.mollify_drift(b, n)
    dist = dy.besov_norm_values(spec, (bn.values - full.values)[0, 0], idx)
    print(f"  level {n}: distance to full = {dist:.4f}  Y_n = {dy.drift_norms(bn)[1]:.4f}")
