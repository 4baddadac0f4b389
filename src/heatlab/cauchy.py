"""Mild-solution fixed point: a second, independent route to the kernel.

The Duhamel map is iterated on time slabs:

    (Theta v)_s = P_s phi - integral_0^s P_{s-r} div(b_r v_r) dr,

in the same mass-conserving forward orientation as the series construction in
`parametrix` (the two routes cross-validate each other).  The map contracts on
short enough slabs, and the slabs are found by the convergence test alone:
[0, T] starts as one slab, a slab whose Picard iterates reach the tolerance
within `_MAX_ITER` iterations is accepted, and one that does not is halved.
Each slab restarts from the previous accepted slab's terminal slice.  The
data term P_s phi (the heat base) is built once per slab; one application
`theta_apply` adds to it the Duhamel integral of -div(b v), formed on the
half-spectrum engine shared with `parametrix` (drift lookup, -div(b v)
spectrum, exponential trapezoid) for every node at once, with one inverse
transform back to physical space.  The drift's norms fill the report and are
computed once per drift (`drift_norms` stores them on the DriftField).
Fixed: `_M` quadrature intervals per slab, at most `_MAX_ITER` iterations per
slab, no slab shorter than `_MIN_DT`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grid as g
from .dyadic import DriftField, drift_norms
from .errors import NoConvergence
from .parametrix import (_check_horizon, _heat_stack, _neg_div_hat, _trapezoid,
                         time_nodes)

__all__ = [
    "TimeField",
    "theta_apply",
    "picard_solve",
    "gamma_via_cauchy",
]

_M = 96  # quadrature intervals per slab
_MIN_DT = 1e-4  # a slab that would be halved below this raises NoConvergence
#: Picard iterations per slab; a slab still above tol after them is halved.
#: Constant drift at amplitude 4 (n=128, L=8*pi, phi = p(0.05, .), T=1,
#: tol=1e-9) fails on [0, 1] and [0, 1/2], then converges on three slabs
_MAX_ITER = 40


@dataclass
class TimeField:
    """Field-valued function of time on a node grid; values (m+1, *shape)."""

    spec: g.GridSpec
    times: np.ndarray
    values: np.ndarray
    report: dict = field(default_factory=dict)

    def terminal(self) -> g.GridField:
        return g.GridField(self.spec, self.values[-1])


def theta_apply(base: TimeField, b: DriftField, v: TimeField,
                offset: float = 0.0) -> TimeField:
    """One application of the Duhamel map to v: base + G[v] on v's nodes.

    `base` is the heat flow P_s phi of the data on the same nodes.  G[v] is
    the exponential trapezoid of w_s = -div(b_{offset+s} v_s), formed on the
    whole node stack on half spectra (one `grid.rfft` per drift component)
    and returned in one `grid.irfft`.
    `offset` shifts the drift clock (later slabs evaluate the drift at
    absolute time offset + s).
    """
    if not np.array_equal(base.times, v.times):
        raise ValueError("the heat base and v sit on different time nodes")
    spec = v.spec
    w_hat = _neg_div_hat(spec, b.at_time(offset + v.times), v.values)
    G = g.irfft(spec, _trapezoid(spec, w_hat, v.times))
    return TimeField(spec, v.times, base.values + G)


def _iterates(spec: g.GridSpec, data: np.ndarray, b: DriftField, times: np.ndarray,
              offset: float = 0.0):
    """Picard iterates on one slab's nodes from v_0 = P_s data, with their sup
    changes.

    The heat base is built once; each step yields (v_k, sup |v_k - v_{k-1}|).
    """
    base = TimeField(spec, times, _heat_stack(spec, g.rfft(spec, data), times))
    v = base
    while True:
        nxt = theta_apply(base, b, v, offset)
        yield nxt, float(np.abs(nxt.values - v.values).max())
        v = nxt


def picard_solve(phi: g.GridField, b: DriftField, T: float,
                 tol: float = 1e-8) -> TimeField:
    """Iterate the Duhamel map to its fixed point, halving slabs that do not
    converge.

    [0, T] starts as one slab and slabs are taken depth first.  A slab whose
    iterates change by at most tol (sup norm) within `_MAX_ITER` iterations is
    accepted, and its last iterate is the solve there; one that does not is
    halved, and both halves are solved in turn.  Each slab restarts from the
    previous accepted slab's terminal slice.  Raises NoConvergence if a halved
    slab would be shorter than `_MIN_DT`, and the series' ValueError or
    WraparoundRisk for a horizon T it would refuse.

    report: "segments" (accepted slabs), "iterations" (per accepted slab),
    "final_residual" (of the last one) and the drift's norms "X", "Y", which
    `drift_norms` computes once per drift.
    """
    _check_horizon(b, T)
    spec = phi.spec
    X, Y = drift_norms(b)
    all_times = [np.array([0.0])]
    all_vals = [phi.values[None]]
    data = phi.values
    iters = []
    slabs = [(0.0, T)]
    while slabs:
        a, bnd = slabs.pop()
        steps = _iterates(spec, data, b, time_nodes(bnd - a, _M), offset=a)
        for it, (v, res) in enumerate(steps, 1):
            if res <= tol or it == _MAX_ITER:
                break
        if res > tol:
            mid = (a + bnd) / 2.0
            if mid - a < _MIN_DT:
                raise NoConvergence(f"slab [{a:g}, {bnd:g}] hit max_iter={_MAX_ITER} "
                                    f"with residual {res:.3e}; its halves would be "
                                    f"shorter than {_MIN_DT:g}")
            slabs += [(mid, bnd), (a, mid)]
            continue
        iters.append(it)
        all_times.append(a + v.times[1:])
        all_vals.append(v.values[1:])
        data = v.values[-1]
    full = TimeField(spec, np.concatenate(all_times), np.concatenate(all_vals))
    full.report = {
        "segments": len(iters),
        "iterations": iters,
        "final_residual": res,
        "X": X,
        "Y": Y,
    }
    return full


def gamma_via_cauchy(b: DriftField, t: float, y, eps: float | None = None) -> g.GridField:
    """Kernel from source y via the fixed point with mollified point data.

    The point source is replaced by p(eps, . - y); the result carries an O(eps)
    bias relative to the series kernel, removable by eps-extrapolation.
    """
    spec = b.spec
    if eps is None:
        eps = spec.h**2
    if eps < spec.h**2:
        raise ValueError(f"eps={eps} below grid resolution floor h^2={spec.h ** 2}")
    phi = g.gaussian_shifted(spec, eps, y)
    v = picard_solve(phi, b, T=t)
    return v.terminal()
