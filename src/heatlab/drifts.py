"""Drift presets spanning the norm regimes (low-block only, high-block only,
mixed, and time-varying).  Fixed: `_N_SLICES` time intervals per horizon,
`_MODES_PER_BLOCK` cosines per multi-mode block, the `_REFRESH` period."""

from __future__ import annotations

import inspect

import numpy as np

from . import grid as g
from .dyadic import DriftField, build_partition

__all__ = ["zero_drift", "constant_drift", "single_mode_drift",
           "multi_mode_drift", "time_varying_drift", "make_preset"]

_N_SLICES = 1024  # time intervals of the time-dependent presets over [0, horizon]
_MODES_PER_BLOCK = 2  # cosines per dyadic block of the multi-mode preset
_REFRESH = 0.0625  # phase refresh period of the refreshing mode


def _grid_frequency(spec: g.GridSpec, target: float) -> float:
    """Nearest exactly-representable frequency 2*pi*k/L to `target`."""
    k = max(1, round(target * spec.L / (2 * np.pi)))
    return 2 * np.pi * k / spec.L


def _from_profile(spec: g.GridSpec, times, prof: np.ndarray, alpha: float,
                  tag: str) -> DriftField:
    """Drift whose every component is prof[j](x1) at times[j], constant along
    the other axes; prof is (len(times), n)."""
    if spec.d == 2:
        prof = prof[:, :, None] * np.ones(spec.n)
    vals = np.repeat(prof[:, None], spec.d, axis=1)
    return DriftField(spec, times, vals, alpha, tag=tag)


def zero_drift(spec: g.GridSpec, alpha: float = 0.25) -> DriftField:
    vals = np.zeros((1, spec.d) + spec.shape)
    return DriftField(spec, [0.0], vals, alpha, tag="zero")


def constant_drift(spec: g.GridSpec, lam, alpha: float = 0.25) -> DriftField:
    lam = np.broadcast_to(np.atleast_1d(np.asarray(lam, dtype=float)), (spec.d,))
    vals = np.empty((1, spec.d) + spec.shape)
    for c in range(spec.d):
        vals[0, c] = lam[c]
    return DriftField(spec, [0.0], vals, alpha, tag="constant")


def single_mode_drift(spec: g.GridSpec, amplitude: float = 1.0,
                      xi0: float | None = None, alpha: float = 0.25) -> DriftField:
    """b(x) = A cos(xi0 * x1) in every component; xi0 snaps to the grid.

    The default xi0 sits inside dyadic block 2, giving a drift with X = 0 and
    Y = A * 2^{-2 alpha} (up to a grid factor ~ 1).
    """
    if xi0 is None:
        xi0 = _grid_frequency(spec, 6.0)
    else:
        xi0 = _grid_frequency(spec, xi0)
    prof = amplitude * np.cos(xi0 * spec.axis_points())
    return _from_profile(spec, [0.0], prof[None], alpha, f"single-mode(xi0={xi0:g})")


def multi_mode_drift(spec: g.GridSpec, amplitude: float = 1.0, alpha: float = 0.25,
                     seed: int = 7, i_max: int | None = None) -> DriftField:
    """Random Fourier sum with per-block amplitude decay 2^{-alpha*i}.

    Seeded; each active block i in 1..i_max contributes `_MODES_PER_BLOCK`
    cosines at exact grid frequencies inside the block.
    """
    part = build_partition(spec)
    if i_max is None:
        i_max = part.j_max - 2
    rng = np.random.default_rng(seed)
    x1 = spec.axis_points()
    prof = np.zeros(spec.n)
    for i in range(1, i_max + 1):
        lo, hi = 2.0**i * 4.0 / 3.0, 2.0** (i + 1)  # where rho_i = 1
        ks = np.arange(int(np.ceil(lo * spec.L / (2 * np.pi))),
                       int(np.floor(hi * spec.L / (2 * np.pi))) + 1)
        ks = ks[(ks > 0) & (ks < spec.n // 2)]
        if len(ks) == 0:
            continue
        pick = rng.choice(ks, size=min(_MODES_PER_BLOCK, len(ks)), replace=False)
        for k in pick:
            phase = rng.uniform(0, 2 * np.pi)
            prof += 2.0 ** (-alpha * i) * np.cos(2 * np.pi * k / spec.L * x1 + phase)
    prof *= amplitude
    return _from_profile(spec, [0.0], prof[None], alpha, f"multi-mode(seed={seed})")


def time_varying_drift(spec: g.GridSpec, horizon: float = 1.0, amplitude: float = 1.0,
                       xi0: float | None = None, alpha: float = 0.25) -> DriftField:
    """b(t, x) = A sin(t) cos(xi0 * x1); densely sampled in time.

    Dense sampling keeps the nearest-sample time quantization well below the
    spatial quadrature error.
    """
    xi0 = _grid_frequency(spec, 1.0 if xi0 is None else xi0)
    prof = amplitude * np.cos(xi0 * spec.axis_points())
    times = np.linspace(0.0, horizon, _N_SLICES + 1)
    return _from_profile(spec, times, np.sin(times)[:, None] * prof,
                         alpha, f"time-varying(xi0={xi0:g})")


def traveling_mode_drift(spec: g.GridSpec, amplitude: float = 1.0,
                         alpha: float = 0.25, xi0: float | None = None,
                         speed: float | None = None, horizon: float = 1.0) -> DriftField:
    """Traveling wave b(t, x) = A cos(xi0 (x - v t)); Y-only at every slice.

    With speed proportional to amplitude, trapped mass surfs the wave and the
    coherent displacement grows linearly in t, so the envelope constants show
    the sustained exponential growth the two-sided bounds are built to track
    (a static mode homogenizes instead and its constants saturate).
    """
    xi0 = _grid_frequency(spec, 1.5 if xi0 is None else xi0)
    if speed is None:
        speed = 0.4 * amplitude
    times = np.linspace(0.0, horizon, _N_SLICES + 1)
    prof = amplitude * np.cos(xi0 * (spec.axis_points() - speed * times[:, None]))
    return _from_profile(spec, times, prof, alpha,
                         f"traveling-mode(xi0={xi0:g},v={speed:g})")


def refreshing_mode_drift(spec: g.GridSpec, amplitude: float = 1.0,
                          alpha: float = 0.25, xi0: float | None = None,
                          horizon: float = 1.0, seed: int = 7) -> DriftField:
    """Single high-frequency mode whose phase re-randomizes every `_REFRESH`.

    Y-only like the static single mode, but the periodic phase refresh keeps
    pumping the kernel instead of homogenizing away, so the envelope
    constants keep growing linearly in t (the worst-case growth the two-sided
    bounds are designed to track).  Seeded and reproducible.
    """
    if xi0 is None:
        xi0 = _grid_frequency(spec, 6.0)
    else:
        xi0 = _grid_frequency(spec, xi0)
    rng = np.random.default_rng(seed)
    times = np.linspace(0.0, horizon, _N_SLICES + 1)
    n_intervals = int(np.ceil(horizon / _REFRESH)) + 1
    phases = rng.uniform(0, 2 * np.pi, n_intervals)
    slot = np.minimum((times / _REFRESH).astype(int), n_intervals - 1)
    prof = amplitude * np.cos(xi0 * spec.axis_points() + phases[slot][:, None])
    return _from_profile(spec, times, prof, alpha,
                         f"refreshing-mode(xi0={xi0:g},refresh={_REFRESH:g})")


_PRESETS = {
    "zero": zero_drift,
    "constant": constant_drift,
    "single-mode": single_mode_drift,
    "multi-mode": multi_mode_drift,
    "time-varying": time_varying_drift,
    "refreshing-mode": refreshing_mode_drift,
    "traveling-mode": traveling_mode_drift,
}


def make_preset(name: str, spec: g.GridSpec, amplitude: float = 1.0,
                alpha: float = 0.25, seed: int = 7, horizon: float = 1.0,
                xi0: float | None = None) -> DriftField:
    """Build a preset drift by name (see _PRESETS for the catalogue).

    Each builder gets the options among these that it takes by name; the
    amplitude of the constant preset is its `lam`.
    """
    if name not in _PRESETS:
        raise KeyError(f"unknown drift preset {name!r}; have {sorted(_PRESETS)}")
    build = _PRESETS[name]
    opts = {"amplitude": amplitude, "lam": amplitude, "alpha": alpha, "seed": seed,
            "horizon": horizon, "xi0": xi0}
    takes = inspect.signature(build).parameters
    return build(spec, **{k: v for k, v in opts.items() if k in takes})
