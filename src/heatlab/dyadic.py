"""Dyadic frequency decomposition, Besov norms, drift fields and their norms.

The partition of unity follows the classical construction: a radial smoothstep
chi built from the standard exp(-1/x) bump with chi=1 on |xi|<=1 and chi=0 on
|xi|>=4/3; rho_{-1}=chi, rho_0(xi)=chi(xi/2)-chi(xi), rho_i(xi)=rho_0(2^{-i}xi).
On a bounded frequency grid only finitely many blocks are nonzero, so the sum
over all blocks is exact, not truncated.

Besov norms weight block i>=0 by 2^{is}; the low block carries weight 1 so the
scale is monotone in s (the standard 2^{-s} low-block weight is equivalent up
to constants but not monotone).  Blocks, Besov norms, drift norms and
mollification all take the partition from `build_partition`'s per-spec cache.
The partition is radial, hence even, so it lives on the half spectrum of
`grid.rfft` like every other multiplier of real fields.
One Besov sum serves every caller: it takes a stack of fields, keeps the
leading axes and gives each entry the bits of that field's norm alone, so
`besov_norm_values` and the drift norms are the same arithmetic.

A `DriftField` holds its samples read-only, so its controlling norms belong to
the instance: `drift_norms` computes them on first use and stores them there.
Shifted and mollified drifts are new instances and compute their own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import grid as g
from .errors import IndexOutOfRange, PartitionInfeasible, SpecMismatch

__all__ = [
    "GEQ0",
    "DyadicPartition",
    "BesovIndex",
    "DriftField",
    "build_partition",
    "block",
    "block_values",
    "besov_norm",
    "besov_norm_values",
    "drift_norms",
    "mollify_drift",
]

#: sentinel index selecting the sum of all blocks i >= 0
GEQ0 = "geq0"

#: time samples per batched transform in `drift_norms`; bounds its working set
_SAMPLE_BLOCK = 64


def _smoothstep(u: np.ndarray) -> np.ndarray:
    """C^inf step: 0 for u<=0, 1 for u>=1, built from exp(-1/x)."""
    u = np.clip(u, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(u > 0, np.exp(-1.0 / np.maximum(u, 1e-300)), 0.0)
        b = np.where(u < 1, np.exp(-1.0 / np.maximum(1 - u, 1e-300)), 0.0)
    return a / (a + b)


def _chi(r: np.ndarray) -> np.ndarray:
    """Radial cutoff: 1 on |xi|<=1, 0 on |xi|>=4/3, smooth in between."""
    return _smoothstep((4.0 / 3.0 - r) * 3.0)


@dataclass(frozen=True)
class BesovIndex:
    """Besov space indices (regularity s, integrability p, summability q)."""

    s: float
    p: float = np.inf
    q: float = np.inf

    def __post_init__(self):
        for name in ("p", "q"):
            v = getattr(self, name)
            if not (v == np.inf or v >= 1):
                raise ValueError(f"{name} must be in [1, inf], got {v}")


@dataclass(frozen=True)
class DyadicPartition:
    """Sampled dyadic cutoffs rho_i on the half spectrum, i in {-1..j_max}."""

    spec: g.GridSpec
    j_max: int
    rho: tuple  # tuple of ndarrays, index 0 <-> block -1

    def multiplier(self, i) -> np.ndarray:
        if i == GEQ0:
            return 1.0 - self.rho[0]
        if not (-1 <= i <= self.j_max):
            raise IndexOutOfRange(f"block index {i} outside [-1, {self.j_max}]")
        return self.rho[i + 1]

    @property
    def indices(self):
        return range(-1, self.j_max + 1)


@lru_cache(maxsize=32)
def build_partition(spec: g.GridSpec) -> DyadicPartition:
    """Construct the partition for a grid; cached per spec."""
    if spec.n < 16:
        raise PartitionInfeasible(f"n={spec.n} has too few frequencies")
    radius = np.sqrt(g.freq_sq(spec))
    xi_max = np.pi * spec.n / spec.L
    j_max = int(np.ceil(np.log2(xi_max))) + 1
    rho = [_chi(radius)]
    for i in range(0, j_max + 1):
        scaled = radius / 2.0**i
        rho.append(_chi(scaled / 2.0) - _chi(scaled))
    total = sum(rho)
    if not np.allclose(total, 1.0, atol=1e-12):
        raise PartitionInfeasible(
            f"partition of unity violated by {np.abs(total - 1).max():.2e}"
        )
    return DyadicPartition(spec=spec, j_max=j_max, rho=tuple(rho))


def block_values(spec: g.GridSpec, values: np.ndarray, i) -> np.ndarray:
    """Littlewood-Paley block of a raw value array (supports leading axes)."""
    return g.irfft(spec, build_partition(spec).multiplier(i) * g.rfft(spec, values))


def block(f: g.GridField, i) -> g.GridField:
    """Block Delta_i f via the frequency multiplier rho_i; i=GEQ0 sums i>=0."""
    return g.GridField(f.spec, block_values(f.spec, f.values, i))


def _weight(i: int, s: float) -> float:
    # low block weighted by 1 keeps the scale monotone in s
    return 2.0 ** (max(i, 0) * s)


def _root(x, r) -> np.ndarray:
    """x ** (1/r) entry by entry through the scalar power: numpy's array power
    rounds differently, and each entry must have the bits of a single field."""
    return np.vectorize(lambda v: v ** (1.0 / r), otypes=[float])(x)


def _besov_stack(spec: g.GridSpec, values: np.ndarray, idx: BesovIndex) -> np.ndarray:
    """Besov norms of a stack of fields over the last d axes, leading axes
    kept: l^q over blocks of 2^{is} ||Delta_i f||_{L^p} (h^d-weighted)."""
    part = build_partition(spec)
    space = tuple(range(-spec.d, 0))
    fhat = g.rfft(spec, values)
    per_block = []
    for i in part.indices:
        a = np.abs(g.irfft(spec, part.multiplier(i) * fhat))
        lp = (a.max(axis=space) if idx.p == np.inf
              else _root(spec.cell * (a**idx.p).sum(axis=space), idx.p))
        per_block.append(_weight(i, idx.s) * lp)
    per_block = np.stack(per_block, axis=-1)
    if idx.q == np.inf:
        return per_block.max(axis=-1)
    return _root((per_block**idx.q).sum(axis=-1), idx.q)


def besov_norm_values(spec: g.GridSpec, values: np.ndarray, idx: BesovIndex) -> float:
    return float(_besov_stack(spec, values, idx))


def besov_norm(f: g.GridField, idx: BesovIndex) -> float:
    """l^q over blocks of 2^{is} ||Delta_i f||_{L^p}."""
    return besov_norm_values(f.spec, f.values, idx)


@dataclass
class DriftField:
    """Time-sampled vector drift b(t_j, .) with regularity parameter alpha.

    values has shape (n_times, d, *grid shape); times are increasing and start
    at 0.  Time lookup is nearest-sample (the drift is continuous in time, so
    first-order time quadrature suffices at desk tolerances).  values is a
    read-only view, so no write through the drift can make the norms that
    `drift_norms` stores on it stale; a different drift is a new DriftField.
    The caller's own array is not frozen and must not change afterwards.
    """

    spec: g.GridSpec
    times: np.ndarray
    values: np.ndarray
    alpha: float = 0.25
    tag: str = "drift"
    _norms: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.times = np.atleast_1d(np.asarray(self.times, dtype=float))
        self.values = np.asarray(self.values, dtype=float).view()
        self.values.flags.writeable = False
        want = (len(self.times), self.spec.d) + self.spec.shape
        if self.values.shape != want:
            raise SpecMismatch(f"drift values shape {self.values.shape} != {want}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("drift contains non-finite values")
        if not 0 < self.alpha < 0.5:
            raise ValueError(f"alpha must be in (0, 1/2), got {self.alpha}")
        if np.any(np.diff(self.times) <= 0) or self.times[0] < 0:
            raise ValueError("times must be increasing and start at >= 0")

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def time_index(self, t):
        """Nearest stored sample to t, first on ties; an index array when t is
        an array of times.

        Bisection finds the two samples around t.  Rounding can make earlier
        samples exactly as near as the chosen one (t far outside the samples);
        those entries fall back to the argmin over all samples.
        """
        times = self.times
        t = np.asarray(t, dtype=float)
        if len(times) == 1:
            idx = np.zeros(t.shape, dtype=np.intp)
        else:
            right = np.searchsorted(times[1:-1], t) + 1  # in [1, len(times) - 1]
            near = np.abs(times[right - 1] - t) <= np.abs(times[right] - t)
            idx = np.where(near, right - 1, right)
            dist = np.abs(times[idx] - t)
            redo = (idx > 0) & (np.abs(times[idx - 1] - t) == dist)
            if redo.any():
                idx[redo] = np.argmin(np.abs(times - t[redo][..., None]), axis=-1)
        return int(idx) if t.ndim == 0 else idx

    def at_time(self, t) -> np.ndarray:
        """Component array (d, *shape) at the nearest stored sample; a stack
        (len(t), d, *shape) when t is an array of times."""
        return self.values[self.time_index(t)]

    def shift(self, s: float) -> "DriftField":
        """Drift b'_r = b_{r+s} (time shift, for two-time kernels), s >= 0."""
        if s < 0:
            raise ValueError(f"shift must be nonnegative, got {s}")
        keep = self.times >= s - 1e-12
        if not keep.any():
            if len(self.times) > 1:
                raise ValueError(f"shift {s} beyond drift horizon {self.horizon}")
            keep[0] = True  # a time-constant drift shifts to itself
        t2 = np.maximum(self.times[keep] - s, 0.0)
        t2[0] = 0.0
        return DriftField(self.spec, t2, self.values[keep], self.alpha,
                          tag=f"{self.tag}+shift{s:g}")

    def is_time_constant(self) -> bool:
        return len(self.times) == 1 or bool(
            np.all(self.values == self.values[:1])
        )


def drift_norms(b: DriftField):
    """Controlling norms (X, Y) of a drift, computed once per instance.

    X = max over time samples of ||Delta_{-1} b||_inf, Y = max over samples of
    ||Delta_{>=0} b||_{B^{-alpha}_{inf,1}}; vector norms are sums of component
    norms.  The first call stores (X, Y) on b with the alpha they were
    computed for; later calls return the stored tuple without a transform.
    """
    if b._norms is None or b._norms[0] != b.alpha:
        b._norms = (b.alpha, _compute_norms(b))
    return b._norms[1]


def _compute_norms(b: DriftField):
    """(X, Y) from every sample: samples are transformed in blocks of
    _SAMPLE_BLOCK, all components at once."""
    spec = b.spec
    space = tuple(range(-spec.d, 0))
    idx = BesovIndex(-b.alpha, np.inf, 1)
    X = 0.0
    Y = 0.0
    for j in range(0, len(b.times), _SAMPLE_BLOCK):
        samples = b.values[j:j + _SAMPLE_BLOCK]
        low = block_values(spec, samples, -1)
        X = max(X, float(np.abs(low).max(axis=space).sum(axis=-1).max()))
        Y = max(Y, float(_besov_stack(spec, samples - low, idx).sum(axis=-1).max()))
    return X, Y


def mollify_drift(b: DriftField, n: int) -> DriftField:
    """Smoothed drift keeping blocks 1..n only (blocks -1, 0 and >n dropped)."""
    if n < 1:
        raise ValueError(f"mollification level must be >= 1, got {n}")
    part = build_partition(b.spec)
    mult = sum(part.multiplier(i) for i in range(1, min(n, part.j_max) + 1))
    out = g.irfft(b.spec, mult * g.rfft(b.spec, b.values))
    return DriftField(b.spec, b.times.copy(), out, b.alpha, tag=f"{b.tag}^({n})")
