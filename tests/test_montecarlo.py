"""Simulation, densities, escape probabilities, path modulus."""

import sys

import numpy as np
import pytest
from scipy.special import ndtri

from heatlab import drifts, grid as g, montecarlo as mc, parametrix as px
from heatlab.errors import DivergentF, StepTooLarge


def test_counter_stream_is_index_addressed():
    u_full = mc.counter_uniforms(123, 0, 100)
    assert np.array_equal(u_full[37:], mc.counter_uniforms(123, 37, 63))
    assert np.array_equal(u_full[4:8], mc.counter_uniforms(123, 4, 4))
    assert np.all((u_full > 0) & (u_full < 1))
    # distinct seeds decorrelate
    assert not np.array_equal(u_full, mc.counter_uniforms(124, 0, 100))
    z = mc.counter_normals(123, 0, 10**5)
    assert abs(z.mean()) < 0.02 and abs(z.std() - 1) < 0.01


def test_counter_uniforms_follow_the_raw_word_formula():
    # u = ((word >> 11) + 1/2) 2^-53; half the words have k >= 2^52, where
    # k + 1/2 is not representable and rounds to even
    for start in (0, 1, 2, 3, 37, 4 * 10**9 + 3):
        block, offset = divmod(start, 4)
        raw = np.random.Philox(key=123, counter=block).random_raw(offset + 1000)[offset:]
        ref = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        assert mc.counter_uniforms(123, start, 1000).tobytes() == ref.tobytes()
        assert mc.counter_normals(123, start, 1000).tobytes() == ndtri(ref).tobytes()


def test_simulate_chunk_invariance(spec8pi_small):
    b = drifts.single_mode_drift(spec8pi_small, amplitude=1.0, xi0=1.0)
    kw = dict(x0=0.0, T=0.1, h_t=0.01, N=1000, seed=7, snapshot_times=[0.1])
    e1 = mc.simulate(b, chunk=64, **kw)
    e2 = mc.simulate(b, chunk=1 << 20, **kw)
    assert np.array_equal(e1.positions(0.1), e2.positions(0.1))
    assert np.array_equal(e1.sup_dev, e2.sup_dev)
    e3 = mc.simulate(b, chunk=64, **kw)
    assert np.array_equal(e1.positions(0.1), e3.positions(0.1))


@pytest.mark.parametrize("case", ["2d", "time-dependent"])
def test_simulate_chunk_invariance_wide(case):
    if case == "2d":
        b = drifts.make_preset("time-varying", g.make_grid(2, 32, 8 * np.pi))
        x0 = [0.3, -0.2]
    else:
        b = drifts.make_preset("traveling-mode", g.make_grid(1, 128, 8 * np.pi),
                               amplitude=2.0)
        x0 = 0.1
    kw = dict(x0=x0, T=0.1, h_t=0.005, N=700, seed=9,
              snapshot_times=[0.05, 0.1], keep_paths=5)
    ref = mc.simulate(b, **kw)
    for chunk in (64, 300):
        e = mc.simulate(b, chunk=chunk, **kw)
        for t in (0.05, 0.1):
            assert e.positions(t).tobytes() == ref.positions(t).tobytes()
        assert e.sup_dev.tobytes() == ref.sup_dev.tobytes()
        assert e.kept_paths.tobytes() == ref.kept_paths.tobytes()


def _modulo_interp(interp, t, X):
    """Reference drift read: float modulo, floor twice, wrapped gather."""
    fine = np.stack([mc._spectral_upsample(interp.spec, interp.b.values[
        interp.b.time_index(t), c], mc._UPSAMPLE) for c in range(interp.spec.d)])
    nf = interp.nf
    pos = (X - (-interp.spec.L / 2)) % interp.spec.L
    idx = pos / interp.hf
    i0 = np.floor(idx).astype(np.int64) % nf
    frac = idx - np.floor(idx)
    out = np.empty_like(X)
    if interp.spec.d == 1:
        f, a, w = fine[0], i0[:, 0], frac[:, 0]
        out[:, 0] = f[a] * (1 - w) + f[(a + 1) % nf] * w
    else:
        a1, a2 = i0[:, 0], i0[:, 1]
        b1, b2 = (a1 + 1) % nf, (a2 + 1) % nf
        w1, w2 = frac[:, 0], frac[:, 1]
        for c in range(2):
            f = fine[c]
            out[:, c] = (f[a1, a2] * (1 - w1) * (1 - w2) + f[b1, a2] * w1 * (1 - w2)
                         + f[a1, b2] * (1 - w1) * w2 + f[b1, b2] * w1 * w2)
    return out


@pytest.mark.parametrize("d", [1, 2])
def test_drift_interp_matches_modulo_formula(d):
    if d == 1:
        spec = g.make_grid(1, 512, 8 * np.pi)
        b = drifts.single_mode_drift(spec, amplitude=1.0, xi0=1.0)
    else:
        spec = g.make_grid(2, 32, 8 * np.pi)
        b = drifts.make_preset("time-varying", spec)
    L = spec.L
    edges = np.array([-L / 2, L / 2, np.nextafter(-L / 2, -np.inf), 0.0, -0.0,
                      L, -L, 3 * L, -4 * L, np.nextafter(L / 2, np.inf)])
    rng = np.random.default_rng(3)
    X = rng.uniform(-5 * L, 5 * L, size=(20000, d))
    X[:len(edges), 0] = edges
    X[len(edges):2 * len(edges), -1] = edges
    if d == 2:
        X[:len(edges), 1] = edges[::-1]
    inside = np.vstack([X[(np.abs(X) < L / 2).all(axis=1)], np.full((1, d), -L / 2)])
    interp = mc._DriftInterp(b)
    for t in (0.0, 0.37, 1.0):
        for Y in (X, inside):  # inside: every position skips the modulo
            out = interp.eval(b.time_index(t), Y)
            assert out.tobytes() == _modulo_interp(interp, t, Y).tobytes()
    # the d=1 gather clips its indices, so the table itself must hold
    # entries nf and nf + 1, which a position wrapping to exactly L reads
    nf, (_, table) = interp.nf, interp._cache
    assert np.floor(((edges[2] + L / 2) % L) / interp.hf) == nf
    assert table.tobytes() == np.pad(table[(slice(None),) + (slice(0, nf),) * d],
                                     [(0, 0)] + [(0, 2)] * d, mode="wrap").tobytes()
    if d == 1:  # a NaN position still reads as NaN
        with np.errstate(invalid="ignore"):
            out = interp.eval(b.time_index(1.0), np.array([[edges[2]], [np.nan]]))
        assert np.isfinite(out[0, 0]) and np.isnan(out[1, 0])


def test_drift_interp_keeps_one_slice():
    spec = g.make_grid(1, 128, 8 * np.pi)
    b = drifts.make_preset("time-varying", spec)
    X = np.random.default_rng(4).uniform(-2 * spec.L, 2 * spec.L, size=(500, 1))
    times = (0.0, 0.25, 0.5, 0.25, 1.0)
    assert len({b.time_index(t) for t in times}) == 4
    interp = mc._DriftInterp(b)
    for t in times:
        out = interp.eval(b.time_index(t), X)
        t_idx, table = interp._cache
        assert t_idx == b.time_index(t)
        assert table.shape == (1, interp.nf + 2)
        assert out.tobytes() == mc._DriftInterp(b).eval(b.time_index(t), X).tobytes()
        assert out.tobytes() == _modulo_interp(interp, t, X).tobytes()


def _reference_euler(b, x0, T, h_t, N, seed, snapshot_times, keep_paths, chunk):
    """Serial Euler loop on the counter stream, written from the formula:
    X += drift * h_t + sqrt(h_t) * xi, one (step, chunk) block at a time."""
    d = b.spec.d
    n_steps = int(round(T / h_t))
    x0 = np.broadcast_to(np.atleast_1d(np.asarray(x0, dtype=float)), (d,))
    interp = mc._DriftInterp(b)
    X = np.tile(x0, (N, 1))
    sup_dev = np.zeros(N)
    snaps = {0: X.copy()}
    kept = [X[:keep_paths].copy()]
    for j in range(n_steps):
        for lo in range(0, N, chunk):
            hi = min(lo + chunk, N)
            xi = mc.counter_normals(seed, (j * N + lo) * d, (hi - lo) * d).reshape(hi - lo, d)
            drift = (interp.eval(b.time_index(j * h_t), X[lo:hi])
                     if np.abs(b.values).max() > 0 else 0.0)
            X[lo:hi] += drift * h_t + np.sqrt(h_t) * xi
        dev = np.abs(X[:, 0] - x0[0]) if d == 1 else np.linalg.norm(X - x0, axis=1)
        sup_dev = np.maximum(sup_dev, dev)
        snaps[j + 1] = X.copy()
        kept.append(X[:keep_paths].copy())
    steps = {int(round(t / h_t)) for t in snapshot_times}
    return ([snaps[s] for s in sorted(steps)], sup_dev,
            np.stack(kept, axis=1) if keep_paths else np.empty((0, 0, d)))


_EULER_CASES = {
    "single-mode": lambda: (drifts.single_mode_drift(g.make_grid(1, 128, 8 * np.pi),
                                                     amplitude=1.0, xi0=1.0), 0.0),
    "2d-time-varying": lambda: (drifts.make_preset("time-varying",
                                                   g.make_grid(2, 32, 8 * np.pi)),
                                [0.3, -0.2]),
    "traveling-mode": lambda: (drifts.make_preset("traveling-mode",
                                                  g.make_grid(1, 128, 8 * np.pi),
                                                  amplitude=2.0), 0.1),
    "zero": lambda: (drifts.zero_drift(g.make_grid(1, 128, 8 * np.pi)), -0.4),
}


def _ensemble_bytes(e):
    return ([e.snapshots[t].tobytes() for t in sorted(e.snapshots)],
            e.sup_dev.tobytes(), e.kept_paths.tobytes())


@pytest.mark.parametrize("case", sorted(_EULER_CASES))
@pytest.mark.parametrize("chunk", [300, 1 << 20])
def test_simulate_matches_serial_euler_reference(case, chunk, monkeypatch):
    # with the floor lowered, 700 paths split into one slice per CPU; chunk
    # 300 cuts across slice edges and 240 kept paths span several slices.
    # A short switch interval makes the threads interleave finely.
    monkeypatch.setattr(mc, "_MIN_SLICE", 64)
    b, x0 = _EULER_CASES[case]()
    kw = dict(x0=x0, T=0.06, h_t=0.005, N=700, seed=21,
              snapshot_times=[0.0, 0.03, 0.06], keep_paths=240, chunk=chunk)
    snaps, sup_dev, kept = _reference_euler(b, **kw)
    for cpus in (1, 2, 3, 8):
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            e = mc.simulate(b, **kw)
        finally:
            sys.setswitchinterval(interval)
        assert sorted(e.snapshots) == [0.0, 0.03, 0.06]
        assert _ensemble_bytes(e) == ([s.tobytes() for s in snaps], sup_dev.tobytes(),
                                      kept.tobytes()), cpus


def test_monte_carlo_pool_size_follows_cpus_and_floor(monkeypatch):
    pools = []

    class Recording(mc.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(mc, "ThreadPoolExecutor", Recording)
    b = drifts.single_mode_drift(g.make_grid(1, 128, 8 * np.pi), amplitude=1.0, xi0=1.0)
    floor = mc._MIN_SLICE
    for cpus in (1, 2, 8):
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid, c=cpus: set(range(c)))
        for N in (64, 2 * floor - 1, 2 * floor, 3 * floor + 5):
            pools.clear()
            mc.simulate(b, 0.0, 0.005, 0.005, N, seed=3)
            # no pool for one CPU or fewer than two floors of paths; else one
            # worker per CPU, at most one per floor
            assert pools == ([] if cpus == 1 or N < 2 * floor
                             else [min(cpus, N // floor)]), (cpus, N)


def test_simulate_rejects_snapshot_times_it_cannot_honour():
    b = drifts.zero_drift(g.make_grid(1, 64, 8 * np.pi))
    kw = dict(x0=0.0, T=0.1, h_t=0.01, N=10, seed=1)
    for t in (2.0, -0.5, 0.0123, 0.1 + 1e-6):
        with pytest.raises(ValueError, match=f"snapshot time {t}"):
            mc.simulate(b, snapshot_times=[0.05, t], **kw)
    # multiples of h_t within T's own 1e-9 tolerance are kept under their labels
    e = mc.simulate(b, snapshot_times=[0.0, 0.03 + 1e-12, 0.1], **kw)
    assert list(e.snapshot_times) == [0.0, 0.03 + 1e-12, 0.1]
    assert np.array_equal(e.positions(0.1), mc.simulate(b, **kw).positions(0.1))
    with pytest.raises(KeyError):
        mc.simulate(b, snapshot_times=[], **kw).positions(0.1)


def test_simulate_guards(spec8pi_small):
    b = drifts.constant_drift(spec8pi_small, 60.0)
    with pytest.raises(StepTooLarge):
        mc.simulate(b, 0.0, 0.1, 0.01, 100, seed=0)
    with pytest.raises(ValueError):
        mc.simulate(drifts.zero_drift(spec8pi_small), 0.0, 1.0, 0.05, 100, seed=0)
    for h_t in (0.0, -0.01):  # no division by zero, no misleading snapshot error
        with pytest.raises(ValueError, match="h_t"):
            mc.simulate(drifts.zero_drift(spec8pi_small), 0.0, 1.0, h_t, 100, seed=0)


def test_simulate_brownian_variance(spec8pi):
    N, T = 40000, 1.0
    ens = mc.simulate(drifts.zero_drift(spec8pi), 0.0, T, 0.005, N, seed=11,
                      snapshot_times=[T])
    x = ens.positions(T)[:, 0]
    assert abs(x.var() - T) < 3 * T * np.sqrt(2.0 / N)
    assert abs(x.mean()) < 3 * np.sqrt(T / N)


def test_simulate_constant_drift_mean(spec8pi):
    N, T, lam = 40000, 1.0, 0.8
    ens = mc.simulate(drifts.constant_drift(spec8pi, lam), 0.0, T, 0.005, N,
                      seed=12, snapshot_times=[T])
    x = ens.positions(T)[:, 0]
    assert abs(x.mean() - lam * T) < 3 * np.sqrt(T / N)


def test_density_zero_drift_within_budget(spec8pi):
    spec = spec8pi
    N, T = 100000, 1.0
    ens = mc.simulate(drifts.zero_drift(spec), 0.0, T, 0.005, N, seed=13,
                      snapshot_times=[T])
    dens = mc.density_at(ens, T)
    assert abs(dens.integral() - 1.0) < 1e-6
    target = g.gaussian(spec, T).values
    bw = 2 * spec.h
    # budget: smoothing bias + binning + 3 sigma pointwise MC noise
    bias = bw**2 / 2 * np.abs(g.gaussian_deriv(spec, T, (2,)).values).max()
    noise = 3 * np.sqrt(target.max() / (N * bw * 2 * np.sqrt(np.pi)))
    assert np.abs(dens.values - target).max() < bias + noise + spec.h**2


def _density_per_dimension(e, t):
    # density_at with the default bandwidth, binned by one branch per
    # dimension (the form before the corner loop) and smoothed on the half
    # spectrum as density_at smooths, so the binning is pinned bit for bit
    spec, n = e.spec, e.spec.n
    idx = ((e.positions(t) - (-spec.L / 2)) % spec.L) / spec.h
    i0 = np.floor(idx).astype(np.int64) % n
    frac = idx - np.floor(idx)
    w = 1.0 / (e.N * spec.cell)
    if spec.d == 1:
        hist = (np.bincount(i0[:, 0], weights=(1 - frac[:, 0]), minlength=n)
                + np.bincount((i0[:, 0] + 1) % n, weights=frac[:, 0], minlength=n)) * w
    else:
        counts = np.zeros(n * n)
        for da, wa in ((0, 1 - frac[:, 0]), (1, frac[:, 0])):
            for db, wb in ((0, 1 - frac[:, 1]), (1, frac[:, 1])):
                cells = ((i0[:, 0] + da) % n) * n + (i0[:, 1] + db) % n
                counts += np.bincount(cells, weights=wa * wb, minlength=n * n)
        hist = counts.reshape(n, n) * w
    return g.irfft(spec, g.heat_multiplier(spec, (2 * spec.h) ** 2) * g.rfft(spec, hist))


@pytest.mark.parametrize("d,n", [(1, 512), (1, 64), (2, 32)])
def test_density_binning_matches_the_per_dimension_branches(d, n):
    # started next to the box edge, so many paths wrap and the far corner of
    # a cell at the last index wraps to index 0
    spec = g.make_grid(d, n, 8 * np.pi)
    b = drifts.single_mode_drift(spec, amplitude=1.0)
    ens = mc.simulate(b, spec.L / 2 - 0.05, 0.5, 0.005, 20000, seed=21)
    assert (mc.density_at(ens, 0.5).values.tobytes()
            == _density_per_dimension(ens, 0.5).tobytes())


def test_density_convergence_study(spec8pi):
    # halving the bandwidth while quadrupling N shrinks the gap to the series
    spec = spec8pi
    b = drifts.single_mode_drift(spec, amplitude=1.0, xi0=1.0)
    res = px.gamma_series(b, 1.0, 0.0)
    gaps = []
    for N, bw_mult in ((30000, 4.0), (120000, 2.0)):
        ens = mc.simulate(b, 0.0, 1.0, 0.005, N, seed=14, snapshot_times=[1.0])
        dens = mc.density_at(ens, 1.0, bandwidth=bw_mult * spec.h)
        gaps.append(spec.cell * np.abs(dens.values - res.gamma.values).sum())
    assert gaps[1] < gaps[0]


def test_escape_prob_basics(spec8pi):
    ens = mc.simulate(drifts.zero_drift(spec8pi), 0.0, 1.0, 0.005, 20000, seed=15)
    p0, _ = mc.escape_prob(ens, 0.0)
    assert p0 == 1.0
    ps = [mc.escape_prob(ens, K)[0] for K in (0.5, 1.0, 1.5, 2.0)]
    assert all(a >= b for a, b in zip(ps, ps[1:]))
    with pytest.raises(ValueError):
        mc.escape_prob(ens, -1.0)


def test_reflection_oracle_dual_route():
    # image series vs eigenfunction series: independent formulas agree
    def eigen(K, T, terms=400):
        n = np.arange(1, 2 * terms, 2, dtype=float)
        s = (4 / np.pi) * np.sum((-1) ** ((n - 1) / 2) / n
                                 * np.exp(-(n**2) * np.pi**2 * T / (8 * K**2)))
        return 1.0 - s

    for K in (0.5, 1.0, 2.0, 3.0):
        assert abs(mc.reflection_escape_oracle(K, 1.0) - eigen(K, 1.0)) < 1e-10
    assert mc.reflection_escape_oracle(0.0, 1.0) == 1.0
    assert mc.reflection_escape_oracle(50.0, 1.0) < 1e-12


def test_escape_bracket_light(spec8pi):
    N, T, h_t = 100000, 1.0, 0.002
    ens = mc.simulate(drifts.zero_drift(spec8pi), 0.0, T, h_t, N, seed=16)
    shift = 0.5826 * np.sqrt(h_t)
    for K in (1.0, 2.0):
        p_hat, (lo, hi) = mc.escape_prob(ens, K)
        oracle = mc.reflection_escape_oracle(K, T)
        oracle_sh = mc.reflection_escape_oracle(K + shift, T)
        half = (hi - lo) / 2
        assert oracle_sh - 4 * half <= p_hat <= oracle + 4 * half


def test_modulus_functions():
    zeta1, psi1 = mc.modulus_functions(1.0)
    assert psi1 == 1.0
    assert zeta1 > 0
    rs = np.geomspace(1e-6, 1e6, 25)
    zeta, psi = mc.modulus_functions(rs)
    ratio = psi / zeta
    assert np.isfinite(ratio).all()
    assert ratio.min() > 0
    # zeta strictly increasing, psi strictly increasing
    assert np.all(np.diff(zeta) > 0)
    assert np.all(np.diff(psi) > 0)
    # submultiplicativity on a 20x20 grid
    rr = np.geomspace(1e-3, 10.0, 20)
    _, psir = mc.modulus_functions(rr)
    for i, a in enumerate(rr):
        _, psi_ab = mc.modulus_functions(a * rr)
        assert np.all(psi_ab <= np.sqrt(2) * psir[i] * psir * (1 + 1e-12))
    with pytest.raises(ValueError):
        mc.modulus_functions(0.0)


def test_grr_constant_path():
    times = np.linspace(0, 1.0, 101)
    path = np.full(101, 2.5)
    rep = mc.grr_verify(path, times, kappa=0.1, sample_pairs=20, seed=0)
    assert abs(rep.F - 1.0) < 1e-12  # T^2 with T=1
    assert rep.violations == 0
    assert rep.G == 4.0  # 2 sqrt(F v 4)


def test_grr_brownian_paths(spec8pi):
    ens = mc.simulate(drifts.zero_drift(spec8pi), 0.0, 1.0, 0.005, 10, seed=17,
                      keep_paths=10)
    total = 0
    for i in range(10):
        rep = mc.grr_verify(ens.kept_paths[i], ens.kept_times, kappa=0.1,
                            sample_pairs=20, seed=i)
        total += rep.violations
        assert rep.max_ratio < 1.0
    assert total == 0


def test_grr_divergent_kappa(spec8pi):
    ens = mc.simulate(drifts.zero_drift(spec8pi), 0.0, 1.0, 0.005, 1, seed=18,
                      keep_paths=1)
    with pytest.raises(DivergentF):
        mc.grr_verify(ens.kept_paths[0], ens.kept_times, kappa=100.0)


def test_exp_sup_moment(spec8pi):
    ens = mc.simulate(drifts.zero_drift(spec8pi), 0.0, 1.0, 0.005, 20, seed=19,
                      keep_paths=20)
    M, moment, ratios = mc.exp_sup_moment(ens)
    assert np.isfinite(moment) and moment >= 1.0
    assert ratios.shape == (20,)
    ens2 = mc.simulate(drifts.zero_drift(spec8pi), 0.0, 0.1, 0.01, 5, seed=19)
    with pytest.raises(ValueError):
        mc.exp_sup_moment(ens2)
