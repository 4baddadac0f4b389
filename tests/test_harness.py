"""Experiment harness: config parsing, hashing, reports, CLI."""

import json
import os

import numpy as np
import pytest

from heatlab import cli, drifts, dyadic, harness, montecarlo, parametrix as px


LIGHT = {
    "grid.n": 256,
    "mc.N": 5000,
    "mc.h_t": 0.01,
    "mc.keep_paths": 10,
    "truncation.K_max": 8,
    "truncation.m": 64,
    "ibound.k_max": 1,
    "ibound.times": [0.5],
    "times": [0.5],
    "mollify.levels": [2, 4],
}


def test_config_parse_kv(tmp_path):
    f = tmp_path / "exp.cfg"
    f.write_text("""
# comment line
grid.n = 128
drift.preset = constant
drift.amplitude = 2.5
times = 0.25, 0.5
""")
    cfg = harness.ExperimentConfig.from_file(f)
    assert cfg["grid.n"] == 128
    assert cfg["drift.preset"] == "constant"
    assert cfg["drift.amplitude"] == 2.5
    assert cfg["times"] == [0.25, 0.5]
    assert cfg["grid.d"] == 1  # default survives


def test_config_parse_json_equivalent(tmp_path):
    f1 = tmp_path / "exp.cfg"
    f1.write_text("grid.n = 128\ndrift.amplitude = 2.5\n")
    f2 = tmp_path / "exp.json"
    f2.write_text(json.dumps({"grid": {"n": 128}, "drift": {"amplitude": 2.5}}))
    c1 = harness.ExperimentConfig.from_file(f1)
    c2 = harness.ExperimentConfig.from_file(f2)
    assert c1.hash == c2.hash


def test_config_hash_sensitivity():
    a = harness.ExperimentConfig.default()
    b = harness.ExperimentConfig.default(**{"mc.seed": 999})
    assert a.hash != b.hash
    assert a.hash == harness.ExperimentConfig.default().hash
    assert a.override(**{"mc.seed": None}).hash == a.hash


def test_run_sharpness_report(tmp_path):
    cfg = harness.ExperimentConfig.default(**LIGHT)
    status, paths = harness.run("sharpness", cfg, tmp_path)
    assert status == 0
    assert len(paths) == 1
    text = paths[0].read_text()
    assert f"# config_hash = {cfg.hash}" in text
    assert "# version = heatlab-" in text
    assert "# status = ok" in text
    assert text.splitlines()[4].startswith("side,lambda,dilation")
    # measured within 2% of the closed forms
    rows = [ln.split(",") for ln in text.splitlines()[5:]]
    for row in rows:
        assert float(row[6]) < 0.02


def test_run_is_deterministic(tmp_path):
    cfg = harness.ExperimentConfig.default(**LIGHT)
    harness.run("besov-check", cfg, tmp_path / "a")
    harness.run("besov-check", cfg, tmp_path / "b")
    fa = (tmp_path / "a" / f"besov-check_{cfg.hash}.csv").read_bytes()
    fb = (tmp_path / "b" / f"besov-check_{cfg.hash}.csv").read_bytes()
    assert fa == fb


def test_run_escape_subcommand(tmp_path):
    cfg = harness.ExperimentConfig.default(**LIGHT)
    status, paths = harness.run("escape", cfg, tmp_path)
    assert status == 0
    lines = paths[0].read_text().splitlines()
    assert lines[4] == "K,p_hat,ci_lo,ci_hi,oracle,oracle_shifted,ok"
    for ln in lines[5:]:
        K, p_hat, lo, hi = (float(v) for v in ln.split(",")[:4])
        assert 0 <= lo <= p_hat <= hi <= 1


def test_escape_ok_uses_the_half_width_of_the_interval(tmp_path, monkeypatch):
    # p_hat six half-widths above the oracle: outside the c12 bracket of four
    # half-widths, inside a bracket of four full widths
    T = harness.ExperimentConfig.default()["mc.T"]

    def escape_prob(_ens, K):
        half = 0.01
        p_hat = montecarlo.reflection_escape_oracle(K, T) + 6 * half
        return p_hat, (p_hat - half, p_hat + half)

    monkeypatch.setattr(montecarlo, "escape_prob", escape_prob)
    cfg = harness.ExperimentConfig.default(**LIGHT)
    status, paths = harness.run("escape", cfg, tmp_path)
    assert status == 0
    oks = [ln.split(",")[-1] for ln in paths[0].read_text().splitlines()[5:]]
    assert oks == ["false"] * len(cfg["escape.radii"])


def test_grr_report_bounds_psi_of_the_product(tmp_path):
    # psi(a b) <= sqrt(2) psi(a) psi(b), the form of c13, on the c14 config
    cfgf = tmp_path / "c14.cfg"
    cfgf.write_text("mc.N = 20000\nmc.h_t = 0.005\nmc.keep_paths = 30\n"
                    "truncation.K_max = 12\ntruncation.m = 96\nibound.k_max = 2\n"
                    "ibound.times = 0.5\n")
    status, paths = harness.run("grr", harness.ExperimentConfig.from_file(cfgf), tmp_path)
    assert status == 0
    rows = dict(ln.split(",") for ln in paths[0].read_text().splitlines()[5:])
    assert float(rows["submultiplicativity_max"]) <= 1 + 1e-12


def test_every_subcommand_reports_on_a_2d_grid(tmp_path):
    # each recipe either works in d=2 or fails with a named error in its
    # report; none raises.  The series and fixed-point recipes take the
    # scalar source 0.0 as the origin of the plane, and the one-dimensional
    # ratio rows and reflection oracle refuse d=2 instead of reporting numbers
    cfg = harness.ExperimentConfig.default(**{**LIGHT, "grid.d": 2, "grid.n": 32,
                                              "mc.N": 500})
    status, paths = harness.run("all", cfg, tmp_path)
    assert status == 1
    statuses = {}
    for name in harness.SUBCOMMANDS[:-1]:
        lines = (tmp_path / f"{name}_{cfg.hash}.csv").read_text().splitlines()
        statuses[name] = lines[3].removeprefix("# status = ")
        if statuses[name] != "ok":
            error = statuses[name].removeprefix("failed: ")
            assert lines[4:] == ["error", lines[5]] and lines[5].startswith(f"{error}: ")
    assert statuses["parametrix"] == statuses["cauchy"] == "ok"
    assert statuses["sharpness"] == statuses["escape"] == "failed: ValueError"
    assert len(paths) == len(harness.SUBCOMMANDS)


def test_mollify_sweep_builds_each_mollified_drift_once(tmp_path, monkeypatch):
    # the full drift plus one per level; the Y column reads the norms of the
    # drift that was simulated
    calls = []

    def counting(b, n, _mollify=dyadic.mollify_drift):
        calls.append(n)
        return _mollify(b, n)

    monkeypatch.setattr(dyadic, "mollify_drift", counting)
    cfg = harness.ExperimentConfig.default(**{**LIGHT, "mc.N": 500})
    status, _ = harness.run("mollify-sweep", cfg, tmp_path)
    assert status == 0
    assert len(calls) == 1 + len(LIGHT["mollify.levels"])


def test_run_unknown_subcommand(tmp_path):
    out = tmp_path / "never"
    with pytest.raises(KeyError):
        harness.run("frobnicate", harness.ExperimentConfig.default(), out)
    assert not out.exists()


def test_run_failure_names_violation(tmp_path):
    # a drift far too strong for the truncation: NoDecay, nonzero exit,
    # violation named in the report
    cfg = harness.ExperimentConfig.default(**{
        **LIGHT, "drift.preset": "constant", "drift.amplitude": 40.0,
        "times": [1.0], "truncation.K_max": 4,
    })
    status, paths = harness.run("parametrix", cfg, tmp_path)
    assert status == 1
    text = paths[0].read_text()
    assert "# status = failed: NoDecay" in text
    assert "NoDecay" in text
    # a zero Monte Carlo time step is a failed report, not a traceback
    cfg = harness.ExperimentConfig.default(**{**LIGHT, "mc.h_t": 0.0})
    status, paths = harness.run("escape", cfg, tmp_path)
    assert status == 1
    assert "# status = failed: ValueError" in paths[0].read_text()


def test_cli_main(tmp_path, capsys):
    rc = cli.main(["sharpness", "--out", str(tmp_path / "r"),
                   "--config", _write_light_cfg(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "sharpness_" in out


def test_cli_threads_caps_the_cpus_of_the_run(tmp_path, monkeypatch):
    # --threads N runs on at most N CPUs, so --threads 1 starts neither a
    # series pool nor a Monte Carlo pool; the mask is put back afterwards
    before = os.sched_getaffinity(0)
    seen = []

    def recording(base, key):
        class Recording(base):
            def __init__(self, max_workers):
                seen[-1][key] = max_workers
                super().__init__(max_workers)
        return Recording

    def fake_run(subcommand, config, out_dir):
        seen.append({"cpus": os.sched_getaffinity(0), "pool": None, "mc_pool": None})
        b = drifts.single_mode_drift(config.spec(), amplitude=1.0)
        px.transition_matrix(b, 0.5, np.linspace(-5.0, 5.0, 64)[:, None], K_max=2, m=16)
        montecarlo.simulate(b, 0.0, 0.01, 0.01, 2 * montecarlo._MIN_SLICE, seed=1)
        return 0, []

    monkeypatch.setattr(px, "ThreadPoolExecutor", recording(px.ThreadPoolExecutor, "pool"))
    monkeypatch.setattr(montecarlo, "ThreadPoolExecutor",
                        recording(montecarlo.ThreadPoolExecutor, "mc_pool"))
    monkeypatch.setattr(cli, "run", fake_run)
    for threads in ("1", "8"):
        assert cli.main(["parametrix", "--out", str(tmp_path), "--threads", threads]) == 0
        assert os.sched_getaffinity(0) == before
    one, eight = seen
    assert one == {"cpus": {min(before)}, "pool": None, "mc_pool": None}
    assert eight["cpus"] == before
    assert eight["pool"] == (min(len(before), 2) if len(before) > 1 else None)
    assert eight["mc_pool"] == (2 if len(before) > 1 else None)
    with pytest.raises(SystemExit):
        cli.main(["parametrix", "--out", str(tmp_path), "--threads", "0"])


def _write_light_cfg(tmp_path):
    f = tmp_path / "light.cfg"
    f.write_text("\n".join(f"{k} = {_fmt(v)}" for k, v in LIGHT.items()) + "\n")
    return str(f)


def _fmt(v):
    if isinstance(v, list):
        return ", ".join(str(x) for x in v)
    return str(v)


def test_cli_seed_override(tmp_path):
    cfgf = _write_light_cfg(tmp_path)
    rc1 = cli.main(["escape", "--out", str(tmp_path / "s1"), "--config", cfgf,
                    "--seed", "77"])
    rc2 = cli.main(["escape", "--out", str(tmp_path / "s2"), "--config", cfgf,
                    "--seed", "78"])
    assert rc1 == rc2 == 0
    f1 = sorted((tmp_path / "s1").glob("escape_*.csv"))[0]
    f2 = sorted((tmp_path / "s2").glob("escape_*.csv"))[0]
    assert f1.name != f2.name  # seed participates in the config hash
    assert f1.read_bytes() != f2.read_bytes()


def test_list_keys_take_a_single_value(tmp_path):
    # a list-valued key given one value reads as a one-item list
    cfgf = tmp_path / "one.cfg"
    cfgf.write_text(open(_write_light_cfg(tmp_path)).read()
                    + "escape.radii = 2.0\nenvelope.times = 0.5\ngrid.n = 64\n")
    cfg = harness.ExperimentConfig.from_file(cfgf)
    status, paths = harness.run("escape", cfg, tmp_path / "escape")
    assert status == 0
    lines = paths[0].read_text().splitlines()
    assert len(lines) == 6 and lines[5].startswith("2,")
    # one time cannot support the growth regression: a named ValueError report
    status, paths = harness.run("verify-upper", cfg, tmp_path / "upper")
    assert status == 1
    text = paths[0].read_text()
    assert "# status = failed: ValueError" in text
    assert "need at least 3 times" in text
