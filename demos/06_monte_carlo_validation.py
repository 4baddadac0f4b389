"""Probabilistic cross-validation: paths, densities, escape probabilities.

Counter-based randomness makes ensembles bit-reproducible on any CPU count;
kernel density estimates of wrapped samples are compared against the series
kernel, and escape probabilities against the reflection-principle oracle.
"""

import os

import numpy as np

from heatlab import drifts, grid as g, montecarlo as mc, parametrix as px

spec = g.make_grid(1, 256, 8 * np.pi)
N, T, h_t = 100_000, 1.0, 2e-3

# Reproducibility: the increment stream is addressed by (path, step), so
# splitting the paths into one slice per CPU cannot change anything.  One run
# is capped to one CPU, as `heatlab --threads 1` does; the other runs on the
# full CPU mask, where 40000 paths (over two slices of at least 16384) split.
b = drifts.single_mode_drift(spec, amplitude=1.0, xi0=1.0)
cpus = os.sched_getaffinity(0)
os.sched_setaffinity(0, sorted(cpus)[:1])
try:
    e1 = mc.simulate(b, 0.0, 0.1, 0.01, 40_000, seed=1)
finally:
    os.sched_setaffinity(0, cpus)
e2 = mc.simulate(b, 0.0, 0.1, 0.01, 40_000, seed=1)
same = np.array_equal(e1.positions(0.1), e2.positions(0.1))
print(f"1 CPU and {len(cpus)} CPUs give the same ensemble: {same}")

# KDE vs series kernel for the cos drift.
ens = mc.simulate(b, 0.0, T, h_t, N, seed=42, snapshot_times=[T])
dens = mc.density_at(ens, T)
res = px.gamma_series(b, T, 0.0)
l1 = spec.cell * np.abs(dens.values - res.gamma.values).sum()
print(f"L1(KDE, series) = {l1:.4f} at N={N}")

# Escape probabilities vs the reflection oracle, with the barrier-shift
# model for the discrete-monitoring bias.
ens0 = mc.simulate(drifts.zero_drift(spec), 0.0, T, h_t, N, seed=43)
shift = 0.5826 * np.sqrt(h_t)
print("  K    p_hat     oracle    shifted-oracle")
for K in (1.0, 2.0, 3.0):
    p_hat, (lo, hi) = mc.escape_prob(ens0, K)
    print(f"  {K:.0f}  {p_hat:.5f}   {mc.reflection_escape_oracle(K, T):.5f}   "
          f"{mc.reflection_escape_oracle(K + shift, T):.5f}")

# With drift, the tail stays Gaussian: log p is linear in K^2.
ensd = mc.simulate(b, 0.0, T, h_t, N, seed=44)
Ks = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
ps = np.array([mc.escape_prob(ensd, K)[0] for K in Ks])
slope, _ = np.polyfit(Ks**2, np.log(ps), 1)
print(f"drifted escape: fitted tail constant C = {-1 / slope:.3f}")
