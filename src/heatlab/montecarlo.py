"""Path simulation and probabilistic cross-checks.

Euler-Maruyama under smooth (mollified) drift with counter-based randomness:
every normal increment is addressed by its absolute index (path, step,
component), so ensembles are bit-identical under any chunking or thread
schedule.  `simulate` splits the paths into contiguous slices, one per CPU in
the affinity mask but none smaller than `_MIN_SLICE` paths; each slice runs
on a worker thread with its own drift interpolator and marches its rows
through every step, so the threads join once per run.  A single slice runs
inline and starts no pool.  Derived statistics: kernel density estimates on
the grid (the KDE of box-wrapped samples estimates exactly the periodized
transition density), escape probabilities with Wilson intervals, and the
path-modulus machinery (double-integral functional, modulus inequality
checks, exponential sup-moments).  Fixed: `simulate` refines drift slices by
`_UPSAMPLE`, and the reflection oracle sums `_IMAGE_TERMS` images on each
side.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import product

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr, ndtri

from . import grid as g
from .dyadic import DriftField
from .errors import DivergentF, StepTooLarge

__all__ = [
    "Ensemble",
    "GRRReport",
    "counter_normals",
    "simulate",
    "density_at",
    "escape_prob",
    "reflection_escape_oracle",
    "modulus_functions",
    "grr_verify",
    "pair_sup_ratio",
    "exp_sup_moment",
]

_UPSAMPLE = 16  # spectral refinement of the drift table
# fewest paths a worker thread gets: below it the per-step Python work of two
# threads contending for the interpreter lock outweighs the split
_MIN_SLICE = 1 << 14
_IMAGE_TERMS = 64  # image-series half-width of the reflection oracle


# -- counter-based randomness --------------------------------------------------


def counter_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniforms (k + 1/2) 2^-53 in (0,1) addressed by absolute draw index, k
    the top 53 bits of 64-bit word `start + i` of the keyed Philox stream."""
    block, offset = divmod(start, 4)
    gen = np.random.Generator(np.random.Philox(key=seed, counter=block))
    # `random` fills k 2^-53 exactly in one pass; adding 2^-54 rounds as
    # k + 1/2 does, so the words give the same uniforms bit for bit
    u = gen.random(offset + count)[offset:]
    u += 2.0**-54
    return u


def counter_normals(seed: int, start: int, count: int) -> np.ndarray:
    """Standard normals by inverse CDF on the counter stream."""
    u = counter_uniforms(seed, start, count)
    return ndtri(u, out=u)


# -- drift interpolation -------------------------------------------------------


def _spectral_upsample(spec: g.GridSpec, vals: np.ndarray, up: int) -> np.ndarray:
    """Zero-padded Fourier refinement of one component field (d in {1,2}).

    It keeps its own full-spectrum route on purpose: its bits feed every
    ensemble, and the ensembles are pinned bit for bit.
    """
    F = np.fft.fftshift(np.fft.fftn(vals))
    pad = (up - 1) * spec.n // 2
    Fp = np.pad(F, [(pad, pad)] * spec.d)
    return np.fft.ifftn(np.fft.ifftshift(Fp)).real * up**spec.d


class _DriftInterp:
    """Periodic trigonometric interpolation of drift slices.

    Fields are spectrally refined by `_UPSAMPLE` and then read with linear weights.
    The refined slice is padded by 2 wrap entries per axis, so the gather
    needs no integer modulo (a position that rounds to exactly L reads
    entries nf and nf+1).  Only the slice of the current time index is kept:
    simulate marches forward and never reads an earlier one again.  `eval`
    works on work buffers kept on the interpolator and sized to the largest
    batch of positions seen, so repeated reads allocate nothing.  Neither the
    buffers nor the cached slice may be shared between threads: `simulate`
    gives each path slice its own interpolator.
    """

    def __init__(self, b: DriftField):
        self.b = b
        self.spec = b.spec
        self.nf = b.spec.n * _UPSAMPLE
        self.hf = b.spec.L / self.nf
        self._cache: tuple = (None, None)
        self._work: tuple = ()

    def _fine(self, t_idx: int) -> np.ndarray:
        if self._cache[0] != t_idx:
            fine = np.stack([_spectral_upsample(self.spec, v, _UPSAMPLE)
                             for v in self.b.values[t_idx]])
            self._cache = (t_idx, np.pad(fine, [(0, 0)] + [(0, 2)] * self.spec.d,
                                         mode="wrap"))
        return self._cache[1]

    def _buffers(self, m: int) -> list:
        """Work arrays for m positions: (m, d) pos, floor, index and sign
        mask, then (m,) low and high values."""
        if not self._work or len(self._work[0]) < m:
            shape = (m, self.spec.d)
            self._work = (np.empty(shape), np.empty(shape),
                          np.empty(shape, dtype=np.intp), np.empty(shape, dtype=bool),
                          np.empty(m), np.empty(m))
        return [w[:m] for w in self._work]

    def eval(self, t_idx: int, X: np.ndarray) -> np.ndarray:
        """Drift of time slice `t_idx` (`DriftField.time_index`) at unwrapped
        positions X of shape (N, d).

        For d=1 the result is a view of a work buffer that the next call
        overwrites: consume it first.
        """
        fine = self._fine(t_idx)
        L = self.spec.L
        pos, fl, i0, neg, lo, hi = self._buffers(len(X))
        # fmod plus the sign fix-up is numpy's float % bit for bit; both are
        # the identity when every position already lies in [0, L)
        np.add(X, L / 2, out=pos)
        if not (pos.min() >= 0 and pos.max() < L):
            np.fmod(pos, L, out=pos)
            np.less(pos, 0, out=neg)
            np.add(pos, L, out=pos, where=neg)
        pos /= self.hf
        np.floor(pos, out=fl)
        np.copyto(i0, fl, casting="unsafe")
        frac = np.subtract(pos, fl, out=pos)
        if self.spec.d == 1:
            f, a, w = fine[0], i0[:, 0], frac[:, 0]
            # the 2-entry pad keeps indices in [0, nf + 1]; "clip" skips the
            # buffered bounds pass of "raise" (58 against 107 us a 5e4 take)
            f.take(a, out=lo, mode="clip")
            np.subtract(1, w, out=hi)
            lo *= hi
            a += 1
            f.take(a, out=hi, mode="clip")
            hi *= w
            lo += hi
            return lo[:, None]
        out = np.empty_like(X)
        a1, a2 = i0[:, 0], i0[:, 1]
        b1, b2 = a1 + 1, a2 + 1
        w1, w2 = frac[:, 0], frac[:, 1]
        for c in range(2):
            f = fine[c]
            out[:, c] = (f[a1, a2] * (1 - w1) * (1 - w2)
                         + f[b1, a2] * w1 * (1 - w2)
                         + f[a1, b2] * (1 - w1) * w2
                         + f[b1, b2] * w1 * w2)
        return out


# -- simulation ----------------------------------------------------------------


@dataclass
class Ensemble:
    """Simulated path collection with streamed functionals.

    Full paths are kept only for the first `keep_paths` paths (the modulus
    machinery needs them); everything else is streamed: snapshot positions at
    requested times and the running sup of |X - x0|.
    """

    spec: g.GridSpec
    N: int
    h_t: float
    T: float
    x0: np.ndarray
    seed: int
    drift_tag: str
    snapshot_times: np.ndarray
    snapshots: dict
    sup_dev: np.ndarray
    kept_paths: np.ndarray
    kept_times: np.ndarray
    meta: dict = field(default_factory=dict)

    def positions(self, t: float) -> np.ndarray:
        key = min(self.snapshots, key=lambda s: abs(s - t), default=None)
        if key is None or abs(key - t) > self.h_t / 2 + 1e-12:
            raise KeyError(f"time {t} not among stored snapshots {sorted(self.snapshots)}")
        return self.snapshots[key]


def simulate(b_smooth: DriftField, x0, T: float, h_t: float, N: int, seed: int,
             snapshot_times=None, keep_paths: int = 0, chunk: int = 1 << 20) -> Ensemble:
    """Euler-Maruyama ensemble under a grid-sampled drift.

    Paths are unwrapped (positions live on the line/plane); the drift is read
    through periodic trigonometric interpolation.  Increment indexing is
    (step, path, component), so results are independent of `chunk`.

    The paths are split into contiguous slices, one per CPU in the affinity
    mask and each at least `_MIN_SLICE` paths long.  Every slice marches its
    own rows through all steps on a worker thread, with its own
    `_DriftInterp` (whose d=1 `eval` buffers and cached drift slice are not
    shared), and writes only its own rows of the positions, `sup_dev`, the
    kept paths and the snapshots.  It reads the same counter addresses as one
    serial loop, so the ensemble is bit-identical for any CPU count and any
    `chunk`.  With one slice the march runs inline and starts no pool.

    Snapshot times must be multiples of `h_t` in [0, T], within the 1e-9
    that `T` itself must meet; positions are recorded at the end of a step.
    """
    spec = b_smooth.spec
    if not 0 < h_t <= 1e-2 + 1e-15:
        raise ValueError(f"h_t must be in (0, 1e-2], got {h_t}")
    if N < 1:
        raise ValueError(f"N must be >= 1 paths, got {N}")
    sup_b = float(np.abs(b_smooth.values).max())
    if h_t * sup_b > 0.5:
        raise StepTooLarge(f"h_t * sup|b| = {h_t * sup_b:.3g} > 0.5")
    n_steps = int(round(T / h_t))
    if abs(n_steps * h_t - T) > 1e-9:
        raise ValueError(f"T={T} must be an integer multiple of h_t={h_t}")
    d = spec.d
    x0 = np.broadcast_to(np.atleast_1d(np.asarray(x0, dtype=float)), (d,))
    if snapshot_times is None:
        snapshot_times = [T]
    snap_steps = {}
    for t in snapshot_times:
        step = int(round(t / h_t))
        if not 0 <= step <= n_steps:
            raise ValueError(f"snapshot time {t} lies outside [0, T={T}]")
        if abs(step * h_t - t) > 1e-9:
            raise ValueError(f"snapshot time {t} is not a multiple of h_t={h_t}")
        snap_steps[step] = float(t)
    t_idx = b_smooth.time_index(h_t * np.arange(n_steps))
    keep_paths = min(keep_paths, N)

    X = np.tile(x0, (N, 1))
    sup_dev = np.zeros(N)
    kept = np.empty((keep_paths, n_steps + 1, d)) if keep_paths else np.empty((0, 0, d))
    if keep_paths:
        kept[:, 0] = X[:keep_paths]
    # every snapshot array exists before a slice runs; slices fill their rows
    snap_at = {s: X.copy() if s == 0 else np.empty_like(X) for s in snap_steps}
    sqdt = np.sqrt(h_t)

    def march(first: int, last: int):
        """Rows first..last-1 through every step, one chunk at a time."""
        interp = _DriftInterp(b_smooth)
        rows = X[first:last]
        sup = sup_dev[first:last]
        n_kept = max(0, min(keep_paths, last) - first)
        for j in range(n_steps):
            base = j * N * d
            for lo in range(first, last, chunk):
                hi = min(lo + chunk, last)
                xi = counter_normals(seed, base + lo * d, (hi - lo) * d).reshape(hi - lo, d)
                # X += drift * h_t + sqdt * xi, in place and bit for bit
                xi *= sqdt
                if sup_b > 0:
                    drift = interp.eval(t_idx[j], X[lo:hi])
                    drift *= h_t
                    xi += drift
                X[lo:hi] += xi
            dev = rows[:, 0] - x0[0] if d == 1 else np.linalg.norm(rows - x0, axis=1)
            np.maximum(sup, np.abs(dev, out=dev), out=sup)
            if n_kept:
                kept[first:first + n_kept, j + 1] = rows[:n_kept]
            if (j + 1) in snap_at:
                snap_at[j + 1][first:last] = rows

    workers = max(1, min(len(os.sched_getaffinity(0)), N // _MIN_SLICE))
    edges = [N * k // workers for k in range(workers + 1)]
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        run = pool.map if pool is not None else map
        list(run(march, edges[:-1], edges[1:]))
    snapshots = {snap_steps[s]: snap_at[s] for s in sorted(snap_at)}
    return Ensemble(
        spec=spec, N=N, h_t=h_t, T=T, x0=x0, seed=seed, drift_tag=b_smooth.tag,
        snapshot_times=np.asarray(sorted(snapshots)), snapshots=snapshots,
        sup_dev=sup_dev, kept_paths=kept,
        kept_times=h_t * np.arange(n_steps + 1),
        meta={"n_steps": n_steps, "upsample": _UPSAMPLE},
    )


def density_at(e: Ensemble, t: float, bandwidth: float | None = None) -> g.GridField:
    """Gaussian-kernel density estimate of the time-t positions on the grid.

    Samples are wrapped into the box (estimating the periodized density),
    linearly binned, then smoothed spectrally with a Gaussian of the given
    bandwidth (default 2h).  Mass is exactly 1.
    """
    spec = e.spec
    if bandwidth is None:
        bandwidth = 2.0 * spec.h
    X = e.positions(t)
    pos = (X - (-spec.L / 2)) % spec.L
    idx = pos / spec.h
    i0 = np.floor(idx).astype(np.int64) % spec.n
    frac = idx - np.floor(idx)
    w = 1.0 / (e.N * spec.cell)
    # one linear-binning pass per cell corner; the corners come in a fixed
    # (lexicographic) order, which fixes the summation order of the counts
    counts = np.zeros(spec.size)
    for corner in product((0, 1), repeat=spec.d):
        wts = 1.0
        for a, c in enumerate(corner):
            wts = wts * (frac[:, a] if c else 1 - frac[:, a])
        cells = np.ravel_multi_index(tuple((i0 + corner).T), spec.shape, mode="wrap")
        counts += np.bincount(cells, weights=wts, minlength=spec.size)
    hist = counts.reshape(spec.shape) * w
    smooth = g.irfft(spec, g.heat_multiplier(spec, bandwidth**2) * g.rfft(spec, hist))
    return g.GridField(spec, smooth)


def escape_prob(e: Ensemble, K: float):
    """Fraction of paths whose discrete-time sup deviation reached K.

    Returns (p_hat, (lo, hi)) with a Wilson 95% interval.  The discrete sup
    underestimates the continuous one; the bias is conservative for
    upper-bound checks.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    hits = int((e.sup_dev >= K).sum())
    n = e.N
    p_hat = hits / n
    z = 1.959963984540054
    denom = 1 + z**2 / n
    center = (p_hat + z**2 / (2 * n)) / denom
    half = z * np.sqrt(p_hat * (1 - p_hat) / n + z**2 / (4 * n**2)) / denom
    return p_hat, (max(0.0, center - half), min(1.0, center + half))


def reflection_escape_oracle(K: float, T: float) -> float:
    """P(sup_{[0,T]} |B| >= K) for a standard Brownian motion (image series)."""
    if K <= 0:
        return 1.0
    a = K / np.sqrt(T)
    inside = 0.0
    for k in range(-_IMAGE_TERMS, _IMAGE_TERMS + 1):
        inside += (-1) ** k * (ndtr((2 * k + 1) * a) - ndtr((2 * k - 1) * a))
    return float(min(1.0, max(0.0, 1.0 - inside)))


# -- path modulus machinery ----------------------------------------------------


def _psi(r: np.ndarray) -> np.ndarray:
    """The closed-form modulus psi(r) = sqrt(r) * sqrt(log(1/r) or 1,
    whichever larger), elementwise for r > 0."""
    return np.sqrt(r) * np.sqrt(np.maximum(np.log(1.0 / r), 1.0))


def modulus_functions(r):
    """(zeta(r), psi(r)): the integral modulus and its closed-form equivalent.

    zeta(r) = int_0^r u^{-1/2} (sqrt(log(1+u^{-2})) or 1, whichever larger) du,
    psi(r)  = sqrt(r) * sqrt(log(1/r) or 1).  zeta is evaluated by adaptive
    quadrature after the substitution u = v^2.
    """
    r_arr = np.atleast_1d(np.asarray(r, dtype=float))
    if np.any(r_arr <= 0):
        raise ValueError("r must be positive")
    u_star = 1.0 / np.sqrt(np.e - 1)  # where log(1+u^-2) = 1

    def zeta_one(rv):
        def f(v):
            u = v * v
            return 2.0 * max(np.sqrt(np.log1p(u**-2.0)), 1.0)

        pts = [np.sqrt(u_star)] if rv > u_star else None
        val, _ = quad(f, 0.0, np.sqrt(rv), points=pts, limit=200)
        return val

    zeta = np.array([zeta_one(rv) for rv in r_arr])
    psi = _psi(r_arr)
    if np.isscalar(r) or np.ndim(r) == 0:
        return float(zeta[0]), float(psi[0])
    return zeta, psi


@dataclass
class GRRReport:
    """Modulus-inequality audit for one path."""

    kappa: float
    F: float
    G: float
    violations: int
    max_ratio: float
    pairs_checked: int


def _pair_tables(path: np.ndarray, times: np.ndarray) -> tuple:
    """(path, |X_t - X_s|, |t - s|) over every pair of steps; a path of shape
    (n, 1) is squeezed to (n,)."""
    path = np.asarray(path, dtype=float)
    if path.ndim == 2 and path.shape[1] == 1:
        path = path[:, 0]
    disp = (np.abs(path[:, None] - path[None, :]) if path.ndim == 1
            else np.linalg.norm(path[:, None, :] - path[None, :, :], axis=-1))
    return path, disp, np.abs(times[:, None] - times[None, :])


def _path_F(times: np.ndarray, disp: np.ndarray, dt: np.ndarray, kappa: float) -> float:
    """Trapezoid value of the double-integral functional; diagonal integrand 1."""
    ratio2 = np.zeros_like(dt)
    off = dt > 0
    ratio2[off] = disp[off] ** 2 / dt[off]
    arg = kappa * ratio2
    if arg.max() > 700:
        raise DivergentF(f"integrand exponent {arg.max():.1f} overflows; reduce kappa")
    integ = np.exp(arg)
    w = np.full(len(times), times[1] - times[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    return float(w @ integ @ w)


def grr_verify(path: np.ndarray, times: np.ndarray, kappa: float,
               sample_pairs: int = 50, seed: int = 0) -> GRRReport:
    """Check the pathwise modulus inequality on sampled time pairs.

    For each sampled s < t the bound
        kappa |X_t - X_s| <= 4 int_0^{t-s} u^{-1/2} sqrt(log(1 + 4(F - T^2)/u^2)) du
    is evaluated with F the trapezoid value of the exponential double
    integral; violations are counted (zero expected: the inequality is exact
    for the piecewise-linear path up to quadrature slack).
    """
    times = np.asarray(times, dtype=float)
    path, disp, dt_pairs = _pair_tables(path, times)
    T = times[-1]
    F = _path_F(times, disp, dt_pairs, kappa)
    B = max(F - T * T, 0.0)
    G = 2.0 * np.sqrt(max(F, 4.0))
    rng = np.random.default_rng(seed)
    n = len(times)
    violations = 0
    max_ratio = 0.0
    checked = 0
    for _ in range(sample_pairs):
        i, j = sorted(rng.choice(n, size=2, replace=False))
        if i == j:
            continue
        dt = times[j] - times[i]
        lhs = kappa * (abs(path[j] - path[i]) if path.ndim == 1
                       else np.linalg.norm(path[j] - path[i]))
        if B == 0.0:
            rhs = 0.0
        else:
            rhs, _ = quad(lambda v: 2.0 * np.sqrt(np.log1p(4.0 * B / v**4)),
                          0.0, np.sqrt(dt), limit=200)
            rhs *= 4.0
        checked += 1
        if rhs > 0:
            max_ratio = max(max_ratio, lhs / rhs)
            if lhs > rhs * (1 + 1e-9):
                violations += 1
        elif lhs > 1e-12:
            violations += 1
    return GRRReport(kappa=kappa, F=F, G=G, violations=violations,
                     max_ratio=max_ratio, pairs_checked=checked)


def pair_sup_ratio(path: np.ndarray, times: np.ndarray) -> float:
    """sup over s<t of |X_t - X_s| / psi(t - s) on the step grid."""
    _, disp, dt = _pair_tables(path, times)
    off = dt > 0
    return float((disp[off] / _psi(dt[off])).max())


def exp_sup_moment(e: Ensemble, M: float | None = None):
    """Empirical E[exp((1/M) sup_pairs (|X_t-X_s|/psi(t-s))^2)] over kept paths.

    M defaults to twice the largest observed squared ratio (keeping the
    exponential finite); returns (M, moment, ratios).
    """
    if e.kept_paths.size == 0:
        raise ValueError("ensemble was simulated without kept paths")
    ratios = np.array([pair_sup_ratio(p, e.kept_times) for p in e.kept_paths])
    if M is None:
        M = float(2.0 * (ratios**2).max())
    moment = float(np.exp(ratios**2 / M).mean())
    return M, moment, ratios
