"""Batch orchestration: experiment configs, subcommand recipes, reports.

Configs are flat `key = value` lines with dotted sections (JSON accepted as an
alternative input).  Every subcommand writes one CSV named from the config
hash, with metadata (hash, seed, version) embedded as comment lines; `all`
additionally writes a schema.json documenting the columns.  Reports carry no
timestamps and use fixed float formatting, so identical configs give
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__, bounds, cauchy, drifts, dyadic, grid, montecarlo, parametrix
from .errors import HeatLabError

__all__ = ["ExperimentConfig", "SUBCOMMANDS", "run"]


DEFAULTS = {
    "grid.d": 1,
    "grid.n": 256,
    "grid.L": 8 * np.pi,
    "drift.preset": "single-mode",
    "drift.amplitude": 1.0,
    "drift.alpha": 0.25,
    "drift.seed": 7,
    "times": [0.25, 0.5, 1.0],
    "truncation.K_max": 12,
    "truncation.tol": 1e-6,
    "truncation.m": 128,
    "mc.N": 100000,
    "mc.h_t": 0.002,
    "mc.T": 1.0,
    "mc.seed": 2024,
    "mc.keep_paths": 100,
    "envelope.c": 2.0,
    "envelope.amplitudes": [1.0, 2.0, 4.0],
    "envelope.base_amplitude": 0.5,
    "envelope.eta": 0.4,
    "envelope.times": [0.25, 0.5, 1.0],
    "ibound.k_max": 2,
    "ibound.times": [0.5, 1.0],
    "mollify.levels": [2, 4, 6],
    "escape.radii": [1.0, 2.0, 3.0],
}


def _parse_value(raw: str):
    raw = raw.strip()
    if "," in raw:
        return [_parse_value(p) for p in raw.split(",") if p.strip()]
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            continue
    return raw


@dataclass
class ExperimentConfig:
    """Flat configuration mapping with a deterministic content hash."""

    data: dict = dc_field(default_factory=dict)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        text = Path(path).read_text()
        data = dict(DEFAULTS)
        stripped = text.lstrip()
        if stripped.startswith("{"):
            loaded = json.loads(text)
            flat = {}

            def _flatten(prefix, obj):
                for k, v in obj.items():
                    key = f"{prefix}.{k}" if prefix else k
                    if isinstance(v, dict):
                        _flatten(key, v)
                    else:
                        flat[key] = v

            _flatten("", loaded)
            data.update(flat)
        else:
            for line in text.splitlines():
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"malformed config line: {line!r}")
                key, raw = line.split("=", 1)
                data[key.strip()] = _parse_value(raw)
        return cls(data)

    @classmethod
    def default(cls, **overrides) -> "ExperimentConfig":
        data = dict(DEFAULTS)
        data.update(overrides)
        return cls(data)

    def override(self, **kv) -> "ExperimentConfig":
        data = dict(self.data)
        data.update({k: v for k, v in kv.items() if v is not None})
        return ExperimentConfig(data)

    def __getitem__(self, key):
        return self.data[key]

    def get(self, key, default=None):
        return self.data.get(key, default)

    @property
    def hash(self) -> str:
        canon = "\n".join(
            f"{k} = {json.dumps(self.data[k], sort_keys=True)}"
            for k in sorted(self.data)
        )
        return hashlib.sha256(canon.encode()).hexdigest()[:12]

    def spec(self) -> grid.GridSpec:
        return grid.make_grid(self["grid.d"], self["grid.n"], self["grid.L"])

    def drift(self) -> dyadic.DriftField:
        return drifts.make_preset(
            self["drift.preset"], self.spec(), amplitude=self["drift.amplitude"],
            alpha=self["drift.alpha"], seed=self["drift.seed"],
            horizon=max(self.floats("times")), xi0=self.get("drift.xi0"),
        )

    def floats(self, key) -> list:
        """A list-valued key as floats; a single value reads as a one-item list."""
        v = self[key]
        return [float(x) for x in (v if isinstance(v, list) else [v])]


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.12g}"
    return str(v)


def _write_report(out_dir: Path, name: str, config: ExperimentConfig,
                  columns, rows, status: str = "ok") -> Path:
    path = out_dir / name
    lines = [
        f"# config_hash = {config.hash}",
        f"# seed = {config['mc.seed']}",
        f"# version = heatlab-{__version__}",
        f"# status = {status}",
        ",".join(columns),
    ]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


# -- subcommand recipes ---------------------------------------------------------


def _series_opts(config) -> dict:
    """The series truncation options (K_max, tol, m) of a config."""
    return {"K_max": config["truncation.K_max"], "tol": config["truncation.tol"],
            "m": config["truncation.m"]}


def _cmd_besov_check(config):
    spec = config.spec()
    part = dyadic.build_partition(spec)
    total = sum(part.rho)
    sq = sum(r**2 for r in part.rho)
    disjoint_bad = 0
    for i in part.indices:
        for j in part.indices:
            if j - i >= 2:
                overlap = (part.multiplier(i) > 0) & (part.multiplier(j) > 0)
                disjoint_bad += int(overlap.sum())
    fields = np.random.default_rng(config["drift.seed"]).standard_normal((20,) + spec.shape)
    back = sum(dyadic.block_values(spec, fields, i) for i in part.indices)
    space = tuple(range(-spec.d, 0))
    recon = (np.abs(back - fields).max(axis=space) / np.abs(fields).max(axis=space)).max()
    rows = [
        ("partition_sum_dev", float(np.abs(total - 1).max()), 1e-12),
        ("square_sum_min", float(sq.min()), 0.5),
        ("square_sum_max", float(sq.max()), 1.0),
        ("support_overlap_sites", disjoint_bad, 0),
        ("reconstruction_rel_err", recon, 1e-10),
    ]
    for d in (1, 2):
        sp = grid.make_grid(d, 64 if d == 2 else spec.n, spec.L)
        pt = dyadic.build_partition(sp)
        delta = grid.discrete_delta(sp)
        iis, vals = [], []
        for i in range(0, pt.j_max - 1):
            v = grid.lp_norm(dyadic.block(delta, i), np.inf)
            if v > 0:
                iis.append(i)
                vals.append(np.log2(v))
        slope = np.polyfit(iis, vals, 1)[0]
        rows.append((f"dirac_slope_d{d}", float(slope), d))
    return ["check", "value", "reference"], rows


def _cmd_parametrix(config):
    b = config.drift()
    rows = []
    for t in config.floats("times"):
        res = parametrix.gamma_series(b, t, 0.0, **_series_opts(config))
        rows.append((t, res.K_used, res.tail_estimate, res.quad_gap,
                     abs(res.gamma.integral() - 1.0),
                     float(res.gamma.values.min()),
                     float(res.gamma.values.max())))
    return ["t", "K_used", "tail_estimate", "quad_gap", "mass_dev",
            "min_gamma", "max_gamma"], rows


def _cmd_cauchy(config):
    b = config.drift()
    spec = config.spec()
    t = max(config.floats("times"))
    res = parametrix.gamma_series(b, t, 0.0, **_series_opts(config))
    eps = spec.h**2
    g1 = cauchy.gamma_via_cauchy(b, t, 0.0, eps=2 * eps)
    g2 = cauchy.gamma_via_cauchy(b, t, 0.0, eps=eps)
    ref = res.gamma.values
    # eps = 0 is the Richardson extrapolation of the two mollified kernels
    rows = [(t, e, np.abs(v - ref).max() / ref.max())
            for e, v in ((2 * eps, g1.values), (eps, g2.values),
                         (0.0, 2 * g2.values - g1.values))]
    return ["t", "eps", "rel_sup_gap"], rows


def _envelope_entries(config):
    spec = config.spec()
    entries = []
    times = config.floats("envelope.times")
    for amp in config.floats("envelope.amplitudes"):
        base = config["envelope.base_amplitude"] * amp
        b = drifts.traveling_mode_drift(spec, amplitude=base,
                                        alpha=config["drift.alpha"],
                                        speed=config["envelope.eta"] * base,
                                        horizon=max(times))
        for t in times:
            entries.append(bounds.envelope_sweep_entry(b, t, amp, **_series_opts(config)))
    return entries


def _cmd_verify_upper(config):
    entries = _envelope_entries(config)
    rep = bounds.fit_envelope(entries, c=config["envelope.c"],
                              alpha=config["drift.alpha"])
    rows = [(r["t"], r["amplitude"], r["X"], r["Y"], r["C_upper"],
             rep.slope, rep.r2) for r in rep.rows]
    return ["t", "amplitude", "X", "Y", "C_upper", "fit_slope", "fit_r2"], rows


def _cmd_verify_lower(config):
    spec = config.spec()
    b = drifts.single_mode_drift(spec, amplitude=config["envelope.base_amplitude"],
                                 alpha=config["drift.alpha"])
    boot = bounds.bootstrap_lower_bound(b, a=0.25, kappa=0.5, **_series_opts(config))
    rows = [(ch["t"], ch["n_comp"], ch["inf_ratio"], ch["required"], ch["ok"])
            for ch in boot["checks"]]
    rows.append(("M", boot["M"], boot["kappa"], boot["a"], boot["all_ok"]))
    return ["t", "n_comp", "inf_ratio", "required", "ok"], rows


def _cmd_sharpness(config):
    spec = config.spec()
    lam, c, kap, t = 1.0, config["envelope.c"], 0.5, 1.0
    b = drifts.constant_drift(spec, lam, alpha=config["drift.alpha"])
    res = parametrix.gamma_series(b, t, 0.0, **_series_opts(config))
    M = res.gamma.values[None, :]
    src = np.array([spec.n // 2])
    up = grid.gaussian(spec, c * t).values
    lo = grid.gaussian(spec, kap * t).values
    sup_r, _ = bounds._ratio_extremes(spec, M, src, up)
    _, inf_r = bounds._ratio_extremes(spec, M, src, lo)
    f_up = bounds.sharp_const_drift(lam, c, t, spec.d, "upper")
    f_lo = bounds.sharp_const_drift(lam, kap, t, spec.d, "lower")
    rows = [
        ("upper", lam, c, t, sup_r, f_up, abs(sup_r - f_up) / f_up),
        ("lower", lam, kap, t, inf_r, f_lo, abs(inf_r - f_lo) / f_lo),
    ]
    return ["side", "lambda", "dilation", "t", "measured", "formula", "rel_err"], rows


def _cmd_escape(config):
    spec = config.spec()
    if spec.d != 1:
        raise ValueError(f"escape compares with the one-dimensional reflection "
                         f"oracle; it needs grid.d = 1, got {spec.d}")
    T = config["mc.T"]
    b0 = drifts.zero_drift(spec, alpha=config["drift.alpha"])
    ens = montecarlo.simulate(b0, 0.0, T, config["mc.h_t"], config["mc.N"],
                              config["mc.seed"])
    rows = []
    shift = 0.5826 * np.sqrt(config["mc.h_t"])
    for K in config.floats("escape.radii"):
        p_hat, (lo, hi) = montecarlo.escape_prob(ens, K)
        oracle = montecarlo.reflection_escape_oracle(K, T)
        oracle_sh = montecarlo.reflection_escape_oracle(K + shift, T)
        half = (hi - lo) / 2
        ok = oracle_sh - 4 * half <= p_hat <= oracle + 4 * half
        rows.append((K, p_hat, lo, hi, oracle, oracle_sh, ok))
    return ["K", "p_hat", "ci_lo", "ci_hi", "oracle", "oracle_shifted", "ok"], rows


def _cmd_grr(config):
    spec = config.spec()
    b0 = drifts.zero_drift(spec, alpha=config["drift.alpha"])
    n_keep = config["mc.keep_paths"]
    ens = montecarlo.simulate(b0, 0.0, config["mc.T"], config["mc.h_t"],
                              n_keep, config["mc.seed"], keep_paths=n_keep)
    viol = 0
    max_ratio = 0.0
    F_max = 0.0
    for i in range(n_keep):
        rep = montecarlo.grr_verify(ens.kept_paths[i], ens.kept_times, kappa=0.1,
                                    sample_pairs=50, seed=i)
        viol += rep.violations
        max_ratio = max(max_ratio, rep.max_ratio)
        F_max = max(F_max, rep.F)
    rs = np.geomspace(1e-6, 1e6, 49)
    zeta, psi = montecarlo.modulus_functions(rs)
    ratio = psi / zeta
    # psi(a b) <= sqrt(2) psi(a) psi(b) on a 20 x 20 table, psi in closed form
    rr = np.geomspace(1e-3, 1.0, 20)
    zz = rr[:, None] * rr[None, :]
    psi_r = montecarlo._psi(rr)
    sub_max = (montecarlo._psi(zz) / (np.sqrt(2) * psi_r[:, None] * psi_r[None, :])).max()
    rows = [
        ("paths", n_keep), ("pairs_per_path", 50), ("violations", viol),
        ("max_ratio", max_ratio), ("F_max", F_max),
        ("psi_over_zeta_min", float(ratio.min())),
        ("psi_over_zeta_max", float(ratio.max())),
        ("submultiplicativity_max", float(sub_max)),
    ]
    return ["metric", "value"], rows


def _cmd_mollify_sweep(config):
    # own finer grid: levels up to 6 need at least 7 populated dyadic blocks
    spec = grid.make_grid(1, 1024, 8.0)
    b = drifts.multi_mode_drift(spec, amplitude=config["drift.amplitude"],
                                alpha=config["drift.alpha"],
                                seed=config["drift.seed"], i_max=8)
    part = dyadic.build_partition(spec)
    levels = [int(v) for v in config.floats("mollify.levels")]
    smoothed = {n: dyadic.mollify_drift(b, n) for n in [part.j_max] + levels}
    T, h_t, N = config["mc.T"], config["mc.h_t"], config["mc.N"]
    dens = {}
    for lvl, bb in smoothed.items():
        ens = montecarlo.simulate(bb, 0.0, T, h_t, N, config["mc.seed"],
                                  snapshot_times=[T])
        dens[lvl] = montecarlo.density_at(ens, T).values
    rows = []
    for n in levels:
        l1 = spec.cell * np.abs(dens[n] - dens[part.j_max]).sum()
        _, Y = dyadic.drift_norms(smoothed[n])
        rows.append((n, l1, Y))
    return ["level", "l1_to_full", "Y_level"], rows


def _cmd_ibound_table(config):
    b = config.drift()
    table = bounds.ibound_table(b, config.floats("ibound.times"),
                                k_max=config["ibound.k_max"],
                                c=config["envelope.c"],
                                m=min(config["truncation.m"], 96))
    rows = [(e["i"], e["beta"], e["k"], e["t"], e["empirical"], e["rhs"],
             e["empirical"] / e["rhs"] if e["rhs"] > 0 else 0.0)
            for e in table.entries]
    rows.append(("C", table.C, "M", table.M, "K", table.K,
                 "dominated" if table.dominated() else "violated"))
    return ["i", "beta", "k", "t", "empirical", "rhs", "ratio"], rows


#: subcommand -> (recipe, schema.json description)
_RECIPES = {
    "besov-check": (_cmd_besov_check, "partition/reconstruction/Dirac-scaling audit rows"),
    "parametrix": (_cmd_parametrix, "series diagnostics per horizon"),
    "cauchy": (_cmd_cauchy, "fixed-point kernel vs series kernel, eps sweep"),
    "verify-upper": (_cmd_verify_upper, "upper envelope constants and growth regression"),
    "verify-lower": (_cmd_verify_lower, "composition bootstrap of the lower envelope"),
    "sharpness": (_cmd_sharpness, "constant-drift envelope constants vs closed forms"),
    "escape": (_cmd_escape, "escape probabilities vs reflection oracle"),
    "grr": (_cmd_grr, "path modulus audit and psi/zeta equivalence"),
    "mollify-sweep": (_cmd_mollify_sweep, "density distance vs mollification level"),
    "ibound-table": (_cmd_ibound_table, "empirical vs closed-form correction-size integrals"),
}

SUBCOMMANDS = tuple(_RECIPES) + ("all",)


def run(subcommand: str, config: ExperimentConfig, out_dir) -> tuple:
    """Execute a subcommand; returns (exit_status, [report paths]).

    Nonzero exit on any invariant violation or upstream error, with the
    violated invariant named in the report.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    names = list(_RECIPES) if subcommand == "all" else [subcommand]
    if subcommand not in SUBCOMMANDS:
        raise KeyError(f"unknown subcommand {subcommand!r}; have {SUBCOMMANDS}")
    status = 0
    paths = []
    for name in names:
        fname = f"{name}_{config.hash}.csv"
        try:
            columns, rows = _RECIPES[name][0](config)
            paths.append(_write_report(out_dir, fname, config, columns, rows))
        except (HeatLabError, ValueError, KeyError) as exc:
            paths.append(_write_report(
                out_dir, fname, config, ["error"],
                [(f"{type(exc).__name__}: {exc}",)],
                status=f"failed: {type(exc).__name__}"))
            status = 1
    if subcommand == "all":
        schema = {
            name: {"file": f"{name}_{config.hash}.csv", "description": description}
            for name, (_, description) in _RECIPES.items()
        }
        spath = out_dir / "schema.json"
        spath.write_text(json.dumps(schema, indent=2, sort_keys=True) + "\n")
        paths.append(spath)
    return status, paths
