"""Full-grid multipliers for the full-spectrum reference route.

The library builds every multiplier on the half spectrum of `grid.rfft`.
References that transform with the full pair `grid.fft`/`grid.ifft` take
their multipliers from here, built from `np.fft.fftfreq`, so that they stay
an independent route.
"""

import numpy as np


def freqs(spec) -> list:
    """Frequency components xi_1, ..., xi_d on the full grid, FFT order."""
    axis = 2 * np.pi * np.fft.fftfreq(spec.n, d=spec.h)
    return np.meshgrid(*(axis,) * spec.d, indexing="ij")


def heat(spec, t) -> np.ndarray:
    """exp(-t|xi|^2/2) on the full grid; an array of times gives a stack."""
    t = np.asarray(t)
    sq = sum(c**2 for c in freqs(spec))
    return np.exp(-t.reshape(t.shape + (1,) * spec.d) * sq / 2.0)


def delta(spec, center) -> np.ndarray:
    """exp(-i xi.(center + L/2)): the full spectrum of the point at `center`,
    whose real inverse transform is the real point field."""
    a = np.broadcast_to(np.atleast_1d(np.asarray(center, dtype=float)), (spec.d,))
    return np.exp(-1j * sum(c * (a[i] + spec.L / 2) for i, c in enumerate(freqs(spec))))
