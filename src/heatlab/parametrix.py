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
family.  For constant drift the trapezoid is exact for the first two
families only, whose integrands are constant and linear in r; from the third
on, P_{s-r} Psi^k_r is a polynomial of degree k-1 in r, so the kernel keeps a
second-order quadrature error.  Against the shifted Gaussian (constant drift
1, t=1, n=256, K_max=20, tol=1e-12) it is 4.6e-5, 1.2e-5, 2.9e-6 and 7.2e-7
of the peak at m = 64, 128, 256 and 512: 4x less per doubling of m.

The series terms are the differences of Picard iterates of the Duhamel map
started from the point source, so one spectral Duhamel engine serves this
module, the I-tables in `bounds` and the fixed point in `cauchy`: the drift
slices of a whole node stack (`DriftField.at_time`, nearest sample), the
spectrum `_neg_div_hat` of -div(b_s v_s) on that stack, the
exponential-trapezoid recurrence `_trapezoid` on spectra and the heat stack
`_heat_stack`.  The families Psi^{y,k} stay spectral: each term takes one
batched inverse transform of the G_k stack and one forward transform per
drift component.  One checked step, `_duhamel` (the trapezoid on every node
and its Richardson gap against the even-node subgrid), builds G_k from
Psi^{y,k} for the series and for the family walk `_families`, which the
I-tables in `bounds` consume.

Every field of the engine is real, so it works on the half spectra of
`grid`, whose multipliers and point source are all built there.
The trapezoid's heat factors and half steps are built once per node grid,
and -i xi once per grid, in small caches of read-only arrays
(`_grid_constants`, `_neg_i_xi`): every series term, Richardson pass and
Picard iterate on the same nodes reuses them.

The engine writes into preallocated stacks and updates them in place: one
real product buffer serves every drift component, and the trapezoid fills
its node stack (or one rolling slice, for the Richardson pass) in chunks of
`_CHUNK` nodes, with three in-place operations per panel.  The operation
order is that of the formulas, so the results are the same bits as with a
fresh temporary per operation.

Sources may be batched: `y` with shape (B, d) yields fields with a leading
batch axis throughout, and `gamma_series` runs the batch as one block whose
stop test and Richardson gap read maxima over its sources.
`transition_matrix` owns the blocking: it maps `gamma_series` over blocks of
32 sources (`_SOURCE_BLOCK`) with `grid._map_blocks`, one worker thread per
CPU in the process's affinity mask, or inline with one worker.  Each block
stops at its own K, so a matrix depends on the block size but not on the
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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

#: sources per block of `transition_matrix`; a block's stacks are
#: (m+1, _SOURCE_BLOCK, *shape) and each worker holds one block at a time, so
#: this bounds the memory in flight per worker (`verify-lower` on the c14
#: config, six 256-source matrices at n=256, m=96, peaked on 2 workers at
#: 113-114 MiB with blocks of 16, 144-146 with 32, 206-207 with 64 and
#: 327-328 with 128, 3 fresh processes each)
_SOURCE_BLOCK = 32

#: trapezoid nodes per chunk: a chunk's weighted slices dt_j/2 w_j are formed
#: by one multiply into a reused (_CHUNK, *slice) buffer, 528 KB for a
#: 32-source block at n=256
_CHUNK = 8


def time_nodes(t: float, m: int) -> np.ndarray:
    """Quadrature nodes t*sin^2(pi*j/2m), j=0..m; graded at both endpoints.

    m >= 1, and an odd m is rounded up to the next even count.
    """
    if m < 1:
        raise ValueError(f"need m >= 1 quadrature intervals, got {m}")
    m += m % 2
    j = np.arange(m + 1)
    return t * np.sin(np.pi * j / (2 * m)) ** 2


# -- the spectral Duhamel engine ----------------------------------------------


@lru_cache(maxsize=8)
def _neg_i_xi(spec: g.GridSpec) -> tuple:
    """-(i xi_c) on the half spectrum, one read-only array per component,
    with the Nyquist mode zeroed (`grid.deriv_multiplier`)."""
    out = tuple(-g.deriv_multiplier(spec, mu) for mu in np.eye(spec.d, dtype=int))
    for mult in out:
        mult.flags.writeable = False
    return out


def _neg_div_hat(spec: g.GridSpec, bs: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Half spectrum of -div(b_s v_s) over a node stack, one transform per
    component.

    v is (m+1, *shape), or (m+1, B, *shape) with a batch axis after the nodes.
    Each product b_c v is formed in one real buffer shared by the components;
    its half spectrum is multiplied in place by -i xi_c (`_neg_i_xi`, built
    once per grid), and the components are summed in place.  Negation is
    exact, so this equals -sum_c (i xi_c) RFFT(b_c v) bit for bit, up to the
    sign of a zero.
    """
    bs = np.expand_dims(bs, tuple(range(2, v.ndim + 1 - spec.d)))
    prod = np.empty(v.shape)
    out = None
    for c, mult in enumerate(_neg_i_xi(spec)):
        f_hat = g.rfft(spec, np.multiply(bs[:, c], v, out=prod))
        f_hat *= mult
        if out is None:
            out = f_hat
        else:
            out += f_hat
    return out


@lru_cache(maxsize=8)
def _grid_constants(spec: g.GridSpec, key: bytes) -> tuple:
    """(H, halves) of the node grid whose times have the bytes `key`.

    H[j] = exp(-dt_j |xi|^2/2) on the half spectrum and halves[j] = dt_j/2,
    both complex128 (numpy casts a real factor to complex inside every mixed
    multiply, so the products keep their bits) and read-only.
    """
    dts = np.diff(np.frombuffer(key))
    out = (g.heat_multiplier(spec, dts).astype(complex), (dts / 2.0).astype(complex))
    for arr in out:
        arr.flags.writeable = False
    return out


def _trapezoid(spec: g.GridSpec, w_hat: np.ndarray, times: np.ndarray,
               last: bool = False) -> np.ndarray:
    """Spectra of G_j = int_0^{s_j} P_{s_j-r} w_r dr on every node, or of
    G_m on the last node only when `last` is set.

    Exponential trapezoid G_{j+1} = H(dt_j) (G_j + dt_j/2 w_j) + dt_j/2 w_{j+1};
    the heat factors and half steps are built once per node grid
    (`_grid_constants`).  The nodes go in chunks of `_CHUNK`: a chunk's
    a_j = dt_j/2 w_j fill one reused buffer and its b_j = dt_j/2 w_{j+1} go
    straight into G_{j+1} (into a second chunk buffer with `last`, where the
    stack is one rolling slice).  Each node then takes three in-place
    operations, a_j + G_j, times H_j, added to b_j: the operation order of the
    formula, so the result has its bits.  `w_hat` is never written.
    """
    H, halves = _grid_constants(spec, np.asarray(times, dtype=float).tobytes())
    halves = halves.reshape((-1,) + (1,) * (w_hat.ndim - 1))
    m = len(times) - 1
    rows = 1 if last else m + 1
    G_hat = np.empty((rows,) + w_hat.shape[1:], w_hat.dtype)
    G_hat[0] = 0
    a = np.empty((min(_CHUNK, m),) + w_hat.shape[1:], w_hat.dtype)
    b_last = np.empty_like(a) if last else None
    for j0 in range(0, m, _CHUNK):
        j1 = min(j0 + _CHUNK, m)
        np.multiply(w_hat[j0:j1], halves[j0:j1], out=a[:j1 - j0])
        b = b_last[:j1 - j0] if last else G_hat[j0 + 1:j1 + 1]
        np.multiply(w_hat[j0 + 1:j1 + 1], halves[j0:j1], out=b)
        for i, j in enumerate(range(j0, j1)):
            panel = a[i]
            panel += G_hat[j % rows]
            panel *= H[j]
            np.add(b[i], panel, out=G_hat[(j + 1) % rows])
    return G_hat[0] if last else G_hat


def _heat_stack(spec: g.GridSpec, f_hat: np.ndarray, times: np.ndarray) -> np.ndarray:
    """P_s f at every node s from the half spectrum of f: one batched inverse
    transform."""
    H = g.heat_multiplier(spec, times.reshape((-1,) + (1,) * (f_hat.ndim - spec.d)))
    return g.irfft(spec, H * f_hat)


def _duhamel(spec: g.GridSpec, w_hat: np.ndarray, times: np.ndarray) -> tuple:
    """The checked Duhamel step: (G_hat, G_m, gap, max|G_m|).

    G_hat is the trapezoid (`_trapezoid`) on every node, G_m its last-node
    field (physical), and the gap max|coarse - G_m| / max|G_m|, where coarse
    is the trapezoid on the even-index subgrid; raises QuadratureDivergence
    above 1/2.
    """
    G_hat = _trapezoid(spec, w_hat, times)
    fine = g.irfft(spec, G_hat[-1])
    coarse = g.irfft(spec, _trapezoid(spec, w_hat[::2], times[::2], last=True))
    mismatch, scale = float(np.abs(coarse - fine).max()), float(np.abs(fine).max())
    gap = mismatch / scale if scale > 0 else 0.0
    if gap > 0.5:
        raise QuadratureDivergence(
            f"coarse/fine Duhamel mismatch {gap:.2e}; time grid too coarse"
        )
    return G_hat, fine, gap, scale


def _check_horizon(b: DriftField, t: float):
    """The input guards of both kernel routes: t > 0, t within the horizon of
    a time-dependent drift, and no wraparound in the box."""
    if len(b.times) > 1 and t > b.horizon + 1e-9:
        raise ValueError(f"t={t} beyond drift horizon {b.horizon}")
    g._check_time(b.spec, t)


def _first_family(b: DriftField, t: float, y, m: int):
    """Node grid, source half spectra and Psi^{y,1} half spectra for horizon t.

    Returns (s_nodes, drift slices, delta spectra, Psi^1 spectra); the spectra
    carry a batch axis when y has shape (B, d).
    """
    _check_horizon(b, t)
    spec = b.spec
    dhat = g.delta_hat(spec, y)
    s = time_nodes(t, m)
    bs = b.at_time(s)
    return s, bs, dhat, _neg_div_hat(spec, bs, _heat_stack(spec, dhat, s))


def _families(b: DriftField, t: float, y, m: int):
    """Psi^{y,1}, Psi^{y,2}, ... as (node times, spectra), each built once from
    the one before by the checked Duhamel step `_duhamel`; the I-tables in
    `bounds` walk them."""
    s, bs, _, psi_hat = _first_family(b, t, y, m)
    while True:
        yield s, psi_hat
        G_hat, *_ = _duhamel(b.spec, psi_hat, s)
        psi_hat = _neg_div_hat(b.spec, bs, g.irfft(b.spec, G_hat))


# -- the series ----------------------------------------------------------------


@dataclass
class ParametrixResult:
    """Summed series for one horizon and source, with truncation diagnostics."""

    spec: g.GridSpec
    t: float
    y: np.ndarray
    K_used: int
    gamma: g.GridField
    term_fields: np.ndarray  # (K_used, *shape), or (K_used, B, *shape) for a batch
    term_sup_norms: np.ndarray
    tail_estimate: float
    quad_gap: float


def gamma_series(b: DriftField, t: float, y, K_max: int = 12, tol: float = 1e-6,
                 m: int = 128) -> ParametrixResult:
    """Sum the correction series for the kernel started at y, horizon t.

    Terms are added until the k-th term's sup norm drops below tol times the
    sup of the Gaussian at time t, or K_max is reached.  Raises NoDecay when
    the last two term norms fail to decay at K_max.

    A batch y of shape (B, d) is one block: every stack carries all B sources,
    and the stop test and the Richardson gap read maxima over the batch.
    `transition_matrix` splits large batches into blocks of its own.
    """
    if K_max < 1:
        raise ValueError("K_max must be >= 1")
    spec = b.spec
    y = np.asarray(y, dtype=float)
    s, bs, dhat, psi_hat = _first_family(b, t, y, m)
    gamma_hat = dhat * g.heat_multiplier(spec, t)
    sup_p = float(g.gaussian(spec, t).values.max())
    terms = []
    sups = []
    quad_gap = 0.0
    for k in range(1, K_max + 1):
        G_hat, term, gap, scale = _duhamel(spec, psi_hat, s)
        del psi_hat  # batched stacks are large: free each one once it is used
        quad_gap = max(quad_gap, gap)
        gamma_hat = gamma_hat + G_hat[-1]
        terms.append(term)
        sups.append(scale)  # max|fine| is the term's sup
        if sups[-1] <= tol * sup_p or k == K_max:
            break
        G = g.irfft(spec, G_hat)
        del G_hat
        psi_hat = _neg_div_hat(spec, bs, G)
    sups_arr = np.asarray(sups)
    ratio = sups_arr[-1] / sups_arr[-2] if len(sups_arr) >= 2 and sups_arr[-2] > 0 else 0.0
    if sups_arr[-1] > tol * sup_p and ratio >= 1.0:
        raise NoDecay(
            f"term norms not decaying at K_max={K_max} (last ratio {ratio:.3f}); "
            "t or the drift norms are too large for this truncation"
        )
    tail = float(sups_arr[-1] * ratio / (1.0 - ratio)) if 0 < ratio < 1 else float(sups_arr[-1])
    if sups_arr[-1] <= tol * sup_p:
        tail = float(sups_arr[-1])
    gamma_vals = g.irfft(spec, gamma_hat)
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

    The sources go in blocks of `_SOURCE_BLOCK`, each its own `gamma_series`
    with its own stop test and Richardson gap, mapped by `grid._map_blocks`
    (one worker per CPU in the process's affinity mask, inline with one).
    The rows do not depend on the worker count, and the first failing block
    in source order raises its own error.
    """
    spec = b.spec
    if sources is None:
        if spec.d != 1:
            raise ValueError("all-grid-sources batching is d=1 only; pass sources")
        sources = spec.axis_points().reshape(-1, 1)
    sources = np.atleast_2d(np.asarray(sources, dtype=float))
    blocks = [sources[i:i + _SOURCE_BLOCK] for i in range(0, len(sources), _SOURCE_BLOCK)]

    def block(ys):
        return gamma_series(b, t, ys, K_max=K_max, tol=tol, m=m).gamma

    return np.concatenate(g._map_blocks(block, blocks)), sources


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
