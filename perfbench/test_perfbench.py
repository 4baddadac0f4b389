"""Tests of the benchmark itself: inputs, tracer, checks and metric registry."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

heatlab = run.import_heatlab()

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

from heatlab import drifts, grid, parametrix  # noqa: E402

MODULES = [getattr(heatlab, name) for name in LAYERS]


def _traced(workload):
    tracer = Tracer(MODULES)
    tracer.hooks.update(run.HOOKS)
    with tracer:
        phase = run.run_cycles(workload, 0.0, heatlab.HeatLabError, LAYERS)
    return tracer, phase


def _small_queries():
    return [workloads.Query("single-mode", 0.25, 0.5, 1.3),
            workloads.Query("time-varying", 0.25, 0.5, -2.0)]


def test_query_stream_repeats_for_a_seed_and_changes_with_it():
    a, b, c = (workloads.query_stream(s) for s in (3, 3, 4))
    assert a == b
    assert a != c
    pairs = sorted((q.preset, q.t) for q in a)
    assert pairs == sorted((p, t) for p in workloads.PRESETS for t in workloads.TIMES)
    assert all(0.5 <= q.amplitude <= 1.0 and abs(q.y) <= workloads.BOX / 2 for q in a)


def test_tracer_wraps_imported_bindings_and_restores_them():
    originals = {(m, a): o for m in MODULES for a, o in vars(m).items()}
    tracer = Tracer(MODULES).install()
    try:
        bound = set(tracer.bindings)
        for name in ("bounds.transition_matrix", "bounds.drift_norms",
                     "cauchy.drift_norms", "cauchy.time_nodes", "grid.fft",
                     "montecarlo.counter_uniforms", "dyadic.build_partition"):
            assert name in bound
        assert heatlab.bounds.transition_matrix is heatlab.parametrix.transition_matrix
        assert heatlab.bounds.transition_matrix.__wrapped__ is originals[
            (heatlab.parametrix, "transition_matrix")]
    finally:
        tracer.restore()
    assert all(vars(m)[a] is o for (m, a), o in originals.items())


def test_transform_counts_repeat_and_match_numpy_calls(monkeypatch):
    spec = grid.make_grid(1, 256, workloads.BOX)
    b = drifts.constant_drift(spec, 1.0)
    numpy_calls = {"fftn": 0, "ifftn": 0}
    for fn in numpy_calls:
        original = getattr(np.fft, fn)

        def counting(*args, _fn=fn, _orig=original, **kwargs):
            numpy_calls[_fn] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.fft, fn, counting)
    counts = []
    for _ in range(2):
        tracer = Tracer(MODULES)
        with tracer:
            parametrix.transition_matrix(b, 1.0, sources=[[0.0]])
        counts.append((tracer.calls["grid.fft"], tracer.calls["grid.ifft"]))
    assert counts[0] == counts[1]
    assert numpy_calls == {"fftn": 2 * counts[0][0], "ifftn": 2 * counts[0][1]}


def test_self_time_from_spans_matches_running_totals():
    w = workloads.KernelQueries(1, queries=_small_queries()[:1])
    tracer, _ = _traced(w)
    from_spans = tracer.self_times_from_spans()
    assert from_spans.keys() == {n for n, c in tracer.calls.items() if c}
    for name, value in from_spans.items():
        assert value == pytest.approx(tracer.self_s[name], rel=1e-6, abs=1e-9)


def test_traced_outputs_are_bit_identical_to_untraced():
    w = workloads.KernelQueries(2, queries=_small_queries())
    untraced = run.run_cycles(w, 0.0, heatlab.HeatLabError, LAYERS)
    tracer, traced = _traced(w)
    assert untraced.failed == traced.failed == 0
    assert untraced.digests == traced.digests
    assert tracer.calls["dyadic.drift_norms"] == 4
    assert tracer.counts["cauchy.iterations"] > 0


def test_op_p50_averages_each_operation_over_cycles_first():
    phase = run.Phase(latencies=[1.0, 10.0, 3.0, 2.0, 20.0, 1.0, 3.0, 30.0, 8.0], cycle_size=3)
    assert phase.cycle_seconds() == [14.0, 23.0, 41.0]
    assert phase.op_p50() == 4.0  # means per operation: 2, 20, 4


def test_heatlab_error_is_a_failed_operation_named_by_its_invariant():
    class Broken:
        accuracy = {}
        cycle = [lambda: grid.make_grid(1, 17, 1.0)]

    phase = run.run_cycles(Broken(), 0.0, heatlab.HeatLabError, LAYERS)
    assert (phase.attempted, phase.failed) == (1, 1)
    assert phase.problems == {("grid", "NotPowerOfTwo"): 1}


def test_every_emitted_metric_is_registered():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    notes = json.loads((HERE / "metrics.json").read_text())
    names = set(run.WORKLOAD_NAMES)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    targets = {m["name"] for m in bench["end_to_end"]} | set(notes["reported"])
    for kind in ("end_to_end", "per_layer"):
        assert [m["name"] for m in bench[kind]] == list(notes[kind])
        for m in bench[kind]:
            assert m["unit"] and m["better"] in ("lower", "higher")
            entry = notes[kind][m["name"]]
            assert entry["workloads"] and set(entry["workloads"]) <= names
            for move in entry.get("moves", []):
                assert move["metric"] in targets and move["workload"] in names

    w = workloads.MCDensity(5, N=400)
    untraced = run.run_cycles(w, 0.0, heatlab.HeatLabError, LAYERS)
    assert set(run.end_to_end(untraced, [1.0])) == set(notes["end_to_end"])
    tracer, traced = _traced(w)
    emitted = run.per_layer(tracer, traced, sum(untraced.latencies), 0, traced.problems, LAYERS)
    assert set(notes["per_layer"]) <= set(emitted)
    assert emitted["montecarlo.path_steps"] == 400 * 1000


def test_run_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "mc-density",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
