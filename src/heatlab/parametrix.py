"""Iterated-correction series for the transition kernel around the Gaussian.

The kernel started at a source point y is built as

    gamma_t = p(t, . - y) + sum_k integral_0^t P_{t-r} Psi^{y,k}_r dr,

with the correction family defined in mass-conserving divergence form

    Psi^{y,1}_s = -div( b_s * p(s, . - y) ),
    Psi^{y,k+1}_s = -div( b_s * G_k(s) ),   G_k(s) = integral_0^s P_{s-r} Psi^{y,k}_r dr.

Every correction term is an exact divergence, so each term is mean-free and
the kernel keeps unit mass to machine precision.  The Duhamel integrals G_k
are propagated node-to-node with the exact heat factor and trapezoidal panels
(exponential trapezoid); the node grid is quadratically graded toward both
endpoints, which absorbs the square-root endpoint singularities of the first
family.  For constant drift each panel integrand is constant in r, so the
scheme reproduces the shifted Gaussian up to series truncation alone.

The series terms are the differences of Picard iterates of the Duhamel map
started from the point source, so one spectral Duhamel engine serves this
module, the I-tables in `bounds` and the fixed point in `cauchy`: the drift
slices of a whole node stack (`DriftField.at_time`, nearest sample), the
spectrum `_neg_div_hat` of -div(b_s v_s) on that stack, the
exponential-trapezoid recurrence `_trapezoid` on spectra and the heat stack
`_heat_stack`.  The families Psi^{y,k} stay spectral: each term takes one
batched inverse transform of the G_k stack and one forward transform per
drift component.

Every field of the engine is real, so it keeps half spectra, the bins
[..., :n//2+1] of the last axis (`grid.rfft`, `grid.irfft`).  The drift
products b_c v are real stacks.  The heat and derivative multipliers are the
full ones sliced to the half spectrum (`_half`); this is exact, because
|xi|^2 is even and `grid.deriv_multiplier` zeroes the odd-order Nyquist mode,
so both map the spectrum of a real field to the spectrum of a real field.
The source spectrum must not be sliced: `grid.delta_hat` of an off-grid
source is not Hermitian on its Nyquist rows, and in d=2 its slice is not the
half spectrum of any real field.  The engine takes the half spectrum of the
real field that the full spectrum stands for, rfft(ifft(delta_hat)).

The engine writes into preallocated stacks and updates them in place: one
real product buffer serves every drift component, and the trapezoid fills
its node stack (or one rolling slice, for the Richardson pass) through one
panel buffer.  The operation order is that of the formulas, so the results
are the same bits as with a fresh temporary per operation.

Sources may be batched: `y` with shape (B, d) yields fields with a leading
batch axis throughout.  A batch runs in blocks of 32 sources (`_SOURCE_BLOCK`)
on a thread pool with one worker per CPU in the process's affinity mask,
created per call; a single source or a single block runs inline.  Each block
carries every per-source step, from the first family to the final transforms,
while the stopping rule and the Richardson gap read maxima over the whole
batch, so the result is bit-identical whatever the blocking and the worker
count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import grid as g
from .dyadic import DriftField
from .errors import NoDecay, QuadratureDivergence

__all__ = [
    "ParametrixResult",
    "time_nodes",
    "gamma_series",
    "transition_matrix",
    "chapman_kolmogorov_residual",
]

#: sources per block of a batched series; a block's stacks are
#: (m+1, _SOURCE_BLOCK, *shape), so this bounds the memory in flight per
#: worker (256-source matrices at n=256, m=96 on 2 workers peaked at 340 MiB
#: with blocks of 32, 421 with 64 and 439 with 128; 390 in one block)
_SOURCE_BLOCK = 32


def time_nodes(t: float, m: int) -> np.ndarray:
    """Quadrature nodes t*sin^2(pi*j/2m), j=0..m; graded at both endpoints."""
    if m % 2:
        m += 1
    j = np.arange(m + 1)
    return t * np.sin(np.pi * j / (2 * m)) ** 2


# -- the spectral Duhamel engine ----------------------------------------------


def _half(spec: g.GridSpec, mult: np.ndarray) -> np.ndarray:
    """The half-spectrum bins [..., :n//2+1] of a full-grid multiplier."""
    return mult[..., : spec.n // 2 + 1]


def _neg_div_hat(spec: g.GridSpec, bs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Half spectrum of -div(b_s v_s) over a node stack, one transform per
    component.

    v is (m+1, *shape), or (m+1, B, *shape) with a batch axis after the nodes.
    Each product b_c v is formed in one real buffer shared by the components;
    its half spectrum is multiplied in place by -i xi_c, whose Nyquist mode is
    zeroed (`grid.deriv_multiplier`), and the components are summed in place.
    Negation is exact, so this equals -sum_c (i xi_c) RFFT(b_c v) bit for bit,
    up to the sign of a zero.
    """
    bs = np.expand_dims(bs, tuple(range(2, v.ndim + 1 - spec.d)))
    prod = np.empty(v.shape)
    out = None
    for c, mu in enumerate(np.eye(spec.d, dtype=int)):
        f_hat = g.rfft(spec, np.multiply(bs[:, c], v, out=prod))
        f_hat *= -_half(spec, g.deriv_multiplier(spec, mu))
        if out is None:
            out = f_hat
        else:
            out += f_hat
    return out


def _trapezoid(spec: g.GridSpec, w_hat: np.ndarray, times: np.ndarray,
               last: bool = False) -> np.ndarray:
    """Spectra of G_j = int_0^{s_j} P_{s_j-r} w_r dr on every node, or of
    G_m on the last node only when `last` is set.

    Exponential trapezoid G_{j+1} = H(dt_j) (G_j + dt_j/2 w_j) + dt_j/2 w_{j+1};
    the heat factors of all panels come from one exponential.  Each node is
    written in place into a preallocated stack through one panel buffer, in
    the operation order of the formula; with `last` the stack is one rolling
    slice.  `w_hat` is never written.
    """
    dts = np.diff(times)
    H = _half(spec, g.heat_multiplier(spec, dts))
    rows = 1 if last else len(times)
    G_hat = np.empty((rows,) + w_hat.shape[1:], w_hat.dtype)
    G_hat[0] = 0
    panel = np.empty_like(G_hat[0])
    for j, dt in enumerate(dts):
        half = dt / 2.0
        np.multiply(w_hat[j], half, out=panel)
        panel += G_hat[j % rows]
        panel *= H[j]
        nxt = G_hat[(j + 1) % rows]
        np.multiply(w_hat[j + 1], half, out=nxt)
        nxt += panel
    return G_hat[0] if last else G_hat


def _heat_stack(spec: g.GridSpec, f_hat: np.ndarray, times: np.ndarray) -> np.ndarray:
    """P_s f at every node s from the half spectrum of f: one batched inverse
    transform."""
    H = g.heat_multiplier(spec, times.reshape((-1,) + (1,) * (f_hat.ndim - spec.d)))
    return g.irfft(spec, _half(spec, H) * f_hat)


def _richardson_mismatch(spec: g.GridSpec, w_hat: np.ndarray, times: np.ndarray,
                         fine: np.ndarray) -> tuple:
    """(max|coarse - fine|, max|fine|) at the last node, where `fine` is the
    trapezoid on all nodes (physical) and coarse the trapezoid on the
    even-index subgrid.  Both are maxima, so blocks of sources combine by max."""
    coarse = g.irfft(spec, _trapezoid(spec, w_hat[::2], times[::2], last=True))
    return float(np.abs(coarse - fine).max()), float(np.abs(fine).max())


def _richardson_gap(mismatch: float, scale: float) -> float:
    """Relative coarse/fine gap; raises QuadratureDivergence above 1/2."""
    gap = mismatch / scale if scale > 0 else 0.0
    if gap > 0.5:
        raise QuadratureDivergence(
            f"coarse/fine Duhamel mismatch {gap:.2e}; time grid too coarse"
        )
    return gap


def _check_horizon(b: DriftField, t: float):
    """The input guards of both kernel routes: t > 0, t within the horizon of
    a time-dependent drift, and no wraparound in the box."""
    if len(b.times) > 1 and t > b.horizon + 1e-9:
        raise ValueError(f"t={t} beyond drift horizon {b.horizon}")
    g._check_time(b.spec, t)


def _first_family(b: DriftField, t: float, y, m: int):
    """Node grid, source half spectra and Psi^{y,1} half spectra for horizon t.

    Returns (s_nodes, drift slices, delta spectra, Psi^1 spectra); the spectra
    carry a batch axis when y has shape (B, d).  The source half spectrum is
    that of the real field the full `grid.delta_hat` stands for (module
    docstring).
    """
    _check_horizon(b, t)
    spec = b.spec
    y = np.asarray(y, dtype=float)
    dhat = np.stack([g.delta_hat(spec, yy) for yy in np.atleast_2d(y)])
    if y.ndim != 2:
        dhat = dhat[0]
    dhat = g.rfft(spec, g.ifft(spec, dhat))
    s = time_nodes(t, m)
    bs = b.at_time(s)
    return s, bs, dhat, _neg_div_hat(spec, bs, _heat_stack(spec, dhat, s))


# -- the series ----------------------------------------------------------------


@dataclass
class ParametrixResult:
    """Summed series for one horizon and source, with truncation diagnostics."""

    spec: g.GridSpec
    t: float
    y: np.ndarray
    K_used: int
    gamma: g.GridField
    term_fields: np.ndarray  # (K_used, *shape)
    term_sup_norms: np.ndarray
    tail_estimate: float
    quad_gap: float


def _block_terms(b: DriftField, t: float, y: np.ndarray, m: int):
    """Series terms for one block of sources, one per resumption.

    Yields (term, max|coarse - fine|, max|fine|) for each term; send True to
    compute the next term, False to get the final gamma.
    """
    spec = b.spec
    s, bs, dhat, psi_hat = _first_family(b, t, y, m)
    gamma_hat = dhat * _half(spec, g.heat_multiplier(spec, t))
    while True:
        G_hat = _trapezoid(spec, psi_hat, s)
        term = g.irfft(spec, G_hat[-1])
        mismatch, scale = _richardson_mismatch(spec, psi_hat, s, term)
        del psi_hat  # batched stacks are large: free each one once it is used
        gamma_hat = gamma_hat + G_hat[-1]
        if not (yield term, mismatch, scale):
            break
        G = g.irfft(spec, G_hat)
        del G_hat
        psi_hat = _neg_div_hat(spec, bs, G)
    yield g.irfft(spec, gamma_hat)


def gamma_series(b: DriftField, t: float, y, K_max: int = 12, tol: float = 1e-6,
                 m: int = 128) -> ParametrixResult:
    """Sum the correction series for the kernel started at y, horizon t.

    Terms are added until the k-th term's sup norm drops below tol times the
    sup of the Gaussian at time t, or K_max is reached.  Raises NoDecay when
    the last two term norms fail to decay at K_max.

    A batch runs in blocks of sources on a thread pool (module docstring); the
    stop test and the Richardson gap read maxima over all blocks, so the result
    does not depend on the blocking or the worker count.
    """
    if K_max < 1:
        raise ValueError("K_max must be >= 1")
    spec = b.spec
    y = np.asarray(y, dtype=float)
    blocks = ([y[i:i + _SOURCE_BLOCK] for i in range(0, len(y), _SOURCE_BLOCK)]
              if y.ndim == 2 else [y])
    gens = [_block_terms(b, t, yb, m) for yb in blocks]
    workers = min(len(os.sched_getaffinity(0)), len(gens))
    with ThreadPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        run = pool.map if pool is not None else map

        def advance(go_on):
            return list(run(lambda gen: gen.send(go_on), gens))

        out = advance(None)
        sup_p = float(g.gaussian(spec, t).values.max())
        terms = []
        sups = []
        quad_gap = 0.0
        for k in range(1, K_max + 1):
            scale = max(o[2] for o in out)  # max|fine| is the term's sup
            quad_gap = max(quad_gap, _richardson_gap(max(o[1] for o in out), scale))
            terms.append(np.concatenate([o[0] for o in out]))
            sups.append(scale)
            if sups[-1] <= tol * sup_p or k == K_max:
                break
            out = advance(True)
        sups_arr = np.asarray(sups)
        ratio = sups_arr[-1] / sups_arr[-2] if len(sups_arr) >= 2 and sups_arr[-2] > 0 else 0.0
        if sups_arr[-1] > tol * sup_p and ratio >= 1.0:
            raise NoDecay(
                f"term norms not decaying at K_max={K_max} (last ratio {ratio:.3f}); "
                "t or the drift norms are too large for this truncation"
            )
        finals = advance(False)
    tail = float(sups_arr[-1] * ratio / (1.0 - ratio)) if 0 < ratio < 1 else float(sups_arr[-1])
    if sups_arr[-1] <= tol * sup_p:
        tail = float(sups_arr[-1])
    gamma_vals = np.concatenate(finals)
    # a batch returns the raw array; batch results are consumed internally
    gamma_field = gamma_vals if y.ndim == 2 else g.GridField(spec, gamma_vals)
    return ParametrixResult(
        spec=spec, t=t, y=y, K_used=k, gamma=gamma_field,
        term_fields=np.asarray(terms), term_sup_norms=sups_arr,
        tail_estimate=tail + quad_gap * max(sups_arr.max(), 1e-300), quad_gap=quad_gap,
    )


def transition_matrix(b: DriftField, t: float, sources: np.ndarray | None = None,
                      K_max: int = 12, tol: float = 1e-6, m: int = 128):
    """Kernel values from a batch of source points: M[i] = gamma from sources[i].

    Default sources are all grid points (d=1 only; pass an explicit modest
    batch for d=2).  Returns (M, sources) with M of shape (B, *grid shape).
    """
    spec = b.spec
    if sources is None:
        if spec.d != 1:
            raise ValueError("all-grid-sources batching is d=1 only; pass sources")
        sources = spec.axis_points().reshape(-1, 1)
    sources = np.atleast_2d(np.asarray(sources, dtype=float))
    res = gamma_series(b, t, sources, K_max=K_max, tol=tol, m=m)
    return res.gamma, sources


def chapman_kolmogorov_residual(b: DriftField, s: float, t: float, y,
                                K_max: int = 12, tol: float = 1e-6,
                                m: int = 128) -> float:
    """Sup-norm defect of the two-time composition through an intermediate time.

    Compares the kernel over the full horizon t against the h-weighted
    composition of the kernel up to s with the drift-shifted kernel from s to
    t, both as functions of the source point, observed at y; normalized by
    sup p(t, .).
    """
    if not 0 < s < t:
        raise ValueError(f"need 0 < s < t, got s={s}, t={t}")
    spec = b.spec
    if spec.d != 1:
        raise ValueError("composition residual implemented for d=1")
    iy = int(np.argmin(np.abs(spec.axis_points() - float(np.atleast_1d(y)[0]))))
    M_full, _ = transition_matrix(b, t, K_max=K_max, tol=tol, m=m)
    M_first, _ = transition_matrix(b, s, K_max=K_max, tol=tol, m=m)
    M_second, _ = transition_matrix(b.shift(s), t - s, K_max=K_max, tol=tol, m=m)
    direct = M_full[:, iy]
    composed = spec.h * (M_first @ M_second[:, iy])
    sup_p = float(g.gaussian(spec, t).values.max())
    return float(np.abs(direct - composed).max() / sup_p)
