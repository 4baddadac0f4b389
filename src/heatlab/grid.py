"""Periodic spatial grids, spectral Gaussian kernels, heat semigroup and norms.

Everything spatial in the laboratory lives on a uniform periodic grid over
[-L/2, L/2)^d with n points per axis.  Gaussians and their derivatives are
defined spectrally (multiplier exp(-t|xi|^2/2) acting on the discrete delta),
which is exactly the band-limited periodization of the whole-space kernel and
avoids any image-sum truncation choices.  Fields carry the quadrature rule
integral(f) ~ h^d * sum(values).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .errors import DivergentMoment, NotPowerOfTwo, SpecMismatch, WraparoundRisk

__all__ = [
    "GridSpec",
    "GridField",
    "make_grid",
    "gaussian",
    "gaussian_shifted",
    "gaussian_deriv",
    "semigroup_apply",
    "convolve",
    "lp_norm",
    "gaussian_exp_moment",
    "discrete_delta",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid on [-L/2, L/2)^d.

    Parameters
    ----------
    d : int
        Dimension, 1 or 2 (higher is out of desk scale).
    n : int
        Points per axis; must be a power of two (>= 16) for fast transforms.
    L : float
        Box side length.
    """

    d: int
    n: int
    L: float

    @property
    def h(self) -> float:
        """Grid spacing L/n."""
        return self.L / self.n

    @property
    def shape(self) -> tuple:
        return (self.n,) * self.d

    @property
    def size(self) -> int:
        return self.n**self.d

    @property
    def cell(self) -> float:
        """Quadrature weight h^d of one grid cell."""
        return self.h**self.d

    def axis_points(self) -> np.ndarray:
        """Grid coordinates -L/2 + j*h along one axis."""
        return -self.L / 2 + self.h * np.arange(self.n)

    def axis_freqs(self) -> np.ndarray:
        """Frequencies {2*pi*k/L : k = -n/2..n/2-1} in FFT order."""
        return 2 * np.pi * np.fft.fftfreq(self.n, d=self.h)


def make_grid(d: int, n: int, L: float) -> GridSpec:
    """Validate and build a GridSpec."""
    if d not in (1, 2):
        raise SpecMismatch(f"dimension must be 1 or 2, got {d}")
    if n < 16 or (n & (n - 1)) != 0:
        raise NotPowerOfTwo(f"n must be a power of two >= 16, got {n}")
    if not L > 0:
        raise ValueError(f"box length must be positive, got {L}")
    return GridSpec(d=d, n=int(n), L=float(L))


@lru_cache(maxsize=64)
def _freq_grids(spec: GridSpec) -> tuple:
    """Per-axis frequency arrays broadcast to the full grid, plus |xi|^2."""
    ax = spec.axis_freqs()
    if spec.d == 1:
        comps = (ax,)
    else:
        comps = tuple(np.meshgrid(ax, ax, indexing="ij"))
    sq = sum(c**2 for c in comps)
    return comps, sq


def freq_components(spec: GridSpec) -> tuple:
    """Frequency component arrays xi_1, ..., xi_d on the full grid."""
    return _freq_grids(spec)[0]


def freq_sq(spec: GridSpec) -> np.ndarray:
    """|xi|^2 on the full grid (FFT order)."""
    return _freq_grids(spec)[1]


# -- spectral transforms ------------------------------------------------------
#
# Spectra are continuum-normalized: fhat = h^d * FFT(f), so that periodic
# convolution is plain multiplication of spectra and the DC mode equals the
# integral of the field.  Physical fields are recovered with ifft / h^d.


def fft(spec: GridSpec, values: np.ndarray) -> np.ndarray:
    """Continuum-normalized spectrum h^d * FFT(values) over the last d axes.

    Leading axes are a stack of fields.  Complex input is transformed without
    a cast; real input is cast by numpy inside the transform, which costs
    about as much as the transform itself.  The series and fixed-point engine
    therefore keeps its real fields on half spectra (`rfft`, `irfft`); the
    full spectrum serves the dyadic blocks, the KDE and the Gaussians.
    The result is a fresh array, scaled in place; `values` is never written.
    """
    out = np.fft.fftn(values, axes=tuple(range(-spec.d, 0)))
    out *= spec.cell
    return out


def ifft(spec: GridSpec, fhat: np.ndarray) -> np.ndarray:
    """Physical field Re(IFFT(fhat)) / h^d over the last d axes, the inverse of `fft`.

    Leading axes are a stack of spectra.  The result is a fresh real array;
    `fhat` is never written.
    """
    axes = tuple(range(-spec.d, 0))
    return np.fft.ifftn(fhat, axes=axes).real / spec.cell


def rfft(spec: GridSpec, values: np.ndarray) -> np.ndarray:
    """Half spectrum h^d * RFFT(values) of real fields over the last d axes.

    The normalization of `fft`, of which it holds the bins [..., :n//2+1] of
    the last axis; the rest follow by Hermitian symmetry.  Leading axes are a
    stack of fields.  The result is a fresh array, scaled in place; `values`
    is never written.
    """
    out = np.fft.rfftn(values, axes=tuple(range(-spec.d, 0)))
    out *= spec.cell
    return out


def irfft(spec: GridSpec, fhat: np.ndarray) -> np.ndarray:
    """Real field IRFFT(fhat) / h^d over the last d axes, the inverse of `rfft`.

    Leading axes are a stack of half spectra.  The result is a fresh real
    array, scaled in place; `fhat` is never written.
    """
    out = np.fft.irfftn(fhat, s=spec.shape, axes=tuple(range(-spec.d, 0)))
    out /= spec.cell
    return out


def heat_multiplier(spec: GridSpec, t) -> np.ndarray:
    """Spectral multiplier exp(-t|xi|^2/2) of the heat semigroup.

    An array of times gives the stack of multipliers, shape t.shape + grid
    shape, from one exponential.
    """
    t = np.asarray(t)
    return np.exp(-t.reshape(t.shape + (1,) * spec.d) * freq_sq(spec) / 2.0)


def delta_hat(spec: GridSpec, center) -> np.ndarray:
    """Spectrum of the (periodized) unit-mass point source at `center`.

    `center` may be any point in the box, not necessarily on the grid.
    """
    comps = freq_components(spec)
    center = np.atleast_1d(np.asarray(center, dtype=float))
    x0 = -spec.L / 2
    phase = sum(c * (center[i] - x0) for i, c in enumerate(comps))
    return np.exp(-1j * phase)


@dataclass
class GridField:
    """Scalar field sampled on a GridSpec; integral ~ h^d * sum(values)."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.spec.shape:
            raise SpecMismatch(
                f"values shape {self.values.shape} != grid shape {self.spec.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")

    def integral(self) -> float:
        return float(self.spec.cell * self.values.sum())

    def copy(self) -> "GridField":
        return GridField(self.spec, self.values.copy())


def _check_wraparound(spec: GridSpec, t: float):
    if np.sqrt(t) > spec.L / 8:
        raise WraparoundRisk(
            f"sqrt(t)={np.sqrt(t):.3g} exceeds L/8={spec.L / 8:.3g}; enlarge the box"
        )


def _symmetrize(spec: GridSpec, values: np.ndarray, sign: int) -> np.ndarray:
    """Project onto the even (+1) or odd (-1) part under x -> -x.

    FFT roundoff breaks grid parity at the 1e-16 level; origin-centered
    kernels are symmetrized so the parity invariants hold exactly.
    """
    mirror = values
    for ax in range(spec.d):
        mirror = np.roll(np.flip(mirror, axis=ax), 1, axis=ax)
    return 0.5 * (values + sign * mirror)


def gaussian(spec: GridSpec, t: float) -> GridField:
    """Periodized heat kernel p(t, .) centered at x=0, defined spectrally.

    Mass h^d*sum = 1 exactly (DC mode is 1); even symmetry on the grid.
    """
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    _check_wraparound(spec, t)
    vals = ifft(spec, delta_hat(spec, np.zeros(spec.d)) * heat_multiplier(spec, t))
    return GridField(spec, _symmetrize(spec, vals, +1))


def gaussian_shifted(spec: GridSpec, t: float, center) -> GridField:
    """Periodized p(t, . - center); center may be off-grid (spectral shift)."""
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    _check_wraparound(spec, t)
    vals = ifft(spec, delta_hat(spec, center) * heat_multiplier(spec, t))
    return GridField(spec, vals)


def deriv_multiplier(spec: GridSpec, mu) -> np.ndarray:
    """Spectral multiplier (i*xi)^mu for a multi-index mu, |mu| <= 2.

    The Nyquist mode is zeroed for odd-order components so that odd
    derivatives of real even fields stay exactly odd on the grid.
    """
    mu = tuple(int(m) for m in np.atleast_1d(mu))
    if len(mu) != spec.d:
        raise ValueError(f"multi-index length {len(mu)} != dimension {spec.d}")
    if sum(mu) > 2 or any(m < 0 for m in mu):
        raise ValueError(f"|mu| must be <= 2 with nonnegative entries, got {mu}")
    comps = freq_components(spec)
    out = np.ones(spec.shape, dtype=complex)
    ax = spec.axis_freqs()
    nyq = np.abs(ax).max()
    for i, m in enumerate(mu):
        if m == 0:
            continue
        c = comps[i].copy()
        if m % 2 == 1:
            c[np.abs(c) == nyq] = 0.0
        out = out * (1j * c) ** m
    return out


def gaussian_deriv(spec: GridSpec, t: float, mu) -> GridField:
    """Spatial derivative d^mu p(t, .) of the periodized Gaussian, |mu| <= 2."""
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")
    _check_wraparound(spec, t)
    fhat = delta_hat(spec, np.zeros(spec.d)) * heat_multiplier(spec, t)
    vals = ifft(spec, deriv_multiplier(spec, mu) * fhat)
    parity = 1 if sum(int(v) for v in np.atleast_1d(mu)) % 2 == 0 else -1
    return GridField(spec, _symmetrize(spec, vals, parity))


def semigroup_apply(f: GridField, t: float) -> GridField:
    """Heat semigroup P_t f via the spectral multiplier; P_0 f = f."""
    if t < 0:
        raise ValueError(f"t must be nonnegative, got {t}")
    if t == 0:
        return f.copy()
    return GridField(f.spec, ifft(f.spec, heat_multiplier(f.spec, t) * fft(f.spec, f.values)))


def convolve(f: GridField, g: GridField) -> GridField:
    """Periodic convolution with quadrature weight h^d (Fourier-diagonal).

    The index-space circular convolution is re-anchored to the coordinate
    origin x=0 (index n/2) by the phase of the origin delta.
    """
    if f.spec != g.spec:
        raise SpecMismatch("convolve: operands on different grids")
    phase = delta_hat(f.spec, np.zeros(f.spec.d))
    vals = ifft(f.spec, fft(f.spec, f.values) * fft(g.spec, g.values) * phase)
    return GridField(f.spec, vals)


def discrete_delta(spec: GridSpec) -> GridField:
    """Unit-mass discrete delta at x=0: value 1/h^d at the origin node."""
    vals = np.zeros(spec.shape)
    vals[(spec.n // 2,) * spec.d] = 1.0 / spec.cell
    return GridField(spec, vals)


def lp_norm(f: GridField, p) -> float:
    """L^p norm (h^d-weighted); p may be any value in [1, inf]."""
    a = np.abs(f.values)
    if p == np.inf or p == "inf":
        return float(a.max())
    p = float(p)
    if p < 1:
        raise ValueError(f"p must be in [1, inf], got {p}")
    return float((f.spec.cell * (a**p).sum()) ** (1.0 / p))


def gaussian_exp_moment(c: float, kappa: float, t: float, d: int) -> float:
    """Quadrature value of integral p(c*t, y) * exp(kappa*|y|^2/t) dy.

    Finite iff kappa < 1/(2c); the closed form is (1 - 2*c*kappa)^(-d/2).
    Computed as the d-th power of the one-dimensional quadrature (the
    integrand tensorizes), independent of any GridSpec.
    """
    if not 0 < c < 1:
        raise ValueError(f"c must be in (0, 1), got {c}")
    if kappa >= 1.0 / (2.0 * c):
        raise DivergentMoment(f"kappa={kappa} >= 1/(2c)={1/(2*c)}")
    sig2 = c * t

    def integrand(y):
        return np.exp(-(y**2) / (2 * sig2) + kappa * y**2 / t) / np.sqrt(2 * np.pi * sig2)

    half_width = 12.0 * np.sqrt(sig2 / (1.0 - 2.0 * c * kappa))
    val, _ = quad(integrand, -half_width, half_width, limit=200)
    return float(val**d)
