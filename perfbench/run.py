"""heatlab benchmark: one workload per run, end-to-end or traced per layer.

    python3 perfbench/run.py --workload kernel-queries --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

Run from the repository root; heatlab is imported from ``src/`` of the same
checkout.  A run sets the workload up (timed as ``setup_s``), then repeats the
workload's seeded cycle of operations and stops at the cycle boundary nearest
to ``--seconds``, checking every operation's output.  With ``--trace 1`` it then runs one more cycle with
every public heatlab function wrapped by the span tracer and reports the
per-layer metrics instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every figure by name with its unit.  The exit status is 0 only when every
operation passed its checks.  Metric names and units come from
``BENCHMARK.json``; ``perfbench/metrics.json`` says which workloads each
metric applies to and which end-to-end metric each layer metric should move.
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("kernel-queries", "mc-density", "envelope-lower")
#: set-up is timed in this process and in this many fresh processes more, half
#: of them before and half after the measurement, because the machine's speed
#: drifts over tens of seconds; setup_s is the median of all of them
SETUP_REPEATS = 2


def import_heatlab():
    """Import heatlab from this checkout's ``src``; exit with an error if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import heatlab
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import heatlab from {src}: {exc}")
    if Path(heatlab.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: heatlab was imported from {heatlab.__file__}, not {src}")
    return heatlab


# -- one phase of measurement --------------------------------------------------


@dataclass
class Phase:
    """What one sequence of whole cycles did."""

    latencies: list = field(default_factory=list)
    cycle_size: int = 1
    kernels: int = 0
    failed: int = 0
    problems: Counter = field(default_factory=Counter)
    accuracy: dict = field(default_factory=dict)
    work: Counter = field(default_factory=Counter)
    digests: list = field(default_factory=list)  # one list per cycle

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def cycle_seconds(self) -> list:
        n = self.cycle_size
        return [sum(self.latencies[k:k + n]) for k in range(0, len(self.latencies), n)]

    def op_p50(self) -> float:
        """Median over the cycle's operations of each one's mean latency.

        Every cycle repeats the same operations, so each operation has one
        latency per cycle.  The machine's speed drifts over tens of seconds,
        so each operation's latencies are averaged over the run first; a
        median of the raw latencies would follow whichever speed held when
        the operations near the middle rank ran.
        """
        per_cycle = np.reshape(self.latencies, (-1, self.cycle_size))
        return float(np.median(per_cycle.mean(axis=0)))


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.encode() if isinstance(a, str) else np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def failing_layer(exc: BaseException, layers) -> str:
    """The innermost heatlab layer on the traceback of ``exc``."""
    layer = "benchmark"
    tb = exc.__traceback__
    while tb is not None:
        parts = tb.tb_frame.f_globals.get("__name__", "").split(".")
        if len(parts) == 2 and parts[0] == "heatlab" and parts[1] in layers:
            layer = parts[1]
        tb = tb.tb_next
    return layer


def run_cycles(workload, seconds: float, error_type, layers) -> Phase:
    """Repeat the workload's cycle (at least once) and stop at the cycle
    boundary nearest to ``seconds``: another cycle starts only while the
    deadline is more than half a cycle (the last one's time) away."""
    phase = Phase(cycle_size=len(workload.cycle))
    t0 = perf_counter()
    while True:
        t_cycle = perf_counter()
        cycle = []
        for op in workload.cycle:
            t = perf_counter()
            try:
                out = op()
            except error_type as exc:
                phase.latencies.append(perf_counter() - t)
                phase.failed += 1
                phase.problems[(failing_layer(exc, layers), type(exc).__name__)] += 1
                cycle.append(None)
                continue
            phase.latencies.append(perf_counter() - t)
            phase.kernels += out.kernels
            phase.work.update(out.work)
            problems = list(out.problems)
            cycle.append(digest(out.arrays))
            if phase.digests and cycle[-1] != phase.digests[0][len(cycle) - 1]:
                problems.append(("benchmark", "repeat_identity"))
            for key, value in out.accuracy.items():
                better = workload.accuracy[key][0]
                worst = phase.accuracy.get(key, value)
                phase.accuracy[key] = max(worst, value) if better == "lower" else min(worst, value)
            if problems:
                phase.failed += 1
                phase.problems.update(problems)
        phase.digests.append(cycle)
        now = perf_counter()
        if now - t0 + (now - t_cycle) / 2 >= seconds:
            return phase


# -- set-up, environment -------------------------------------------------------


def setup_samples(args, repeats: int) -> list:
    """Set-up time of ``repeats`` fresh processes of this workload and seed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    samples = []
    for _ in range(repeats):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=170, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def environment() -> dict:
    import scipy

    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        kind = _read(index / "type")
        level = _read(index / "level")
        if kind in ("Data", "Unified"):
            caches[f"L{level}"] = _read(index / "size")
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "cpu": cpu,
            "caches": caches}


# -- metrics -------------------------------------------------------------------


def end_to_end(phase: Phase, setup: list) -> dict:
    busy = sum(phase.latencies)
    return {
        "setup_s": statistics.median(setup),
        "kernels_per_s": phase.kernels / busy,
        "op_p50_s": phase.op_p50(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced: Phase, untraced_cycle_s: float, misses: int,
              problems: Counter, layers) -> dict:
    out = {}
    for name in tracer.names:
        out[f"{name}.calls"] = tracer.calls.get(name, 0)
        out[f"{name}.s"] = tracer.total_s.get(name, 0.0)
        out[f"{name}.self_s"] = tracer.self_s.get(name, 0.0)
    transforms = out["grid.fft.calls"] + out["grid.ifft.calls"]
    theta = out["cauchy.theta_apply.calls"]
    simulate_s = out["montecarlo.simulate.s"]
    out.update({
        "grid.transform_bytes": tracer.counts["grid.transform_bytes"],
        "grid.transforms_per_kernel": transforms / traced.kernels if traced.kernels else 0.0,
        "parametrix.terms": tracer.counts["parametrix.terms"],
        "cauchy.iterations": tracer.counts["cauchy.iterations"],
        "cauchy.useful_ratio": tracer.counts["cauchy.iterations"] / theta if theta else 0.0,
        "dyadic.build_partition.misses": misses,
        "montecarlo.path_steps": traced.work["path_steps"],
        "montecarlo.path_steps_per_s": (traced.work["path_steps"] / simulate_s
                                        if simulate_s else 0.0),
        "trace.overhead_s": sum(traced.latencies) - untraced_cycle_s,
        "trace.spans": tracer.span_count(),
    })
    failures = Counter()
    for (layer, _), n in problems.items():
        failures[layer] += n
    for layer in layers:
        out[f"{layer}.failures"] = failures[layer]
    return out


def _count_terms(counts, result):
    counts["parametrix.terms"] += result.K_used


def _count_iterations(counts, result):
    counts["cauchy.iterations"] += sum(result.report["iterations"])


#: result hooks that turn return values into work counts
HOOKS = {"parametrix.gamma_series": _count_terms, "cauchy.picard_solve": _count_iterations}


def traced_cycle(heatlab, workload, untraced: Phase, layers):
    """One more cycle with every layer function traced; outputs must not change."""
    from tracer import Tracer

    tracer = Tracer([getattr(heatlab, name) for name in layers])
    tracer.hooks.update(HOOKS)
    misses = heatlab.dyadic.build_partition.cache_info().misses
    with tracer:
        traced = run_cycles(workload, 0.0, heatlab.HeatLabError, layers)
    misses = heatlab.dyadic.build_partition.cache_info().misses - misses
    for a, b in zip(untraced.digests[0], traced.digests[0]):
        if a != b:
            traced.failed += 1
            traced.problems[("benchmark", "trace_identity")] += 1
    return tracer, traced, misses


def report(args, workload, untraced: Phase, attempted: int, failed: int,
           problems: Counter):
    """The figures every run prints before its JSON line."""
    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{untraced.attempted} ops in {len(untraced.digests)} cycle(s) of "
          f"{len(workload.cycle)}")
    print(f"  environment: nproc {env['nproc']}, Python {env['python']}, "
          f"numpy {env['numpy']}, scipy {env['scipy']}, CPU {env['cpu']}, "
          f"caches {env['caches']}")
    caches = ", ".join(f"{k} {v}" for k, v in env["caches"].items())
    for label, size in workload.working_set().items():
        print(f"  working set: {label} = {size / 2**20:.3f} MiB (caches: {caches})")
    if hasattr(workload, "time_dependent_share"):
        print(f"  time-dependent drift share = {workload.time_dependent_share:.3f} of queries")
    if untraced.work["path_steps"]:
        rate = untraced.work["path_steps"] / sum(untraced.latencies)
        print(f"  path_steps_per_s = {rate:.6g} path-steps/s")
    for name, (better, gate) in workload.accuracy.items():
        op = "<" if better == "lower" else ">="
        value = untraced.accuracy.get(name, float("nan"))
        print(f"  {name} = {value:.6g} (gate {op} {gate:g})")
    print(f"  fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for (layer, invariant), n in sorted(problems.items()):
        print(f"  FAILED {layer}.{invariant}: {n} op(s)")
    return env


# -- entry point ---------------------------------------------------------------


def run_one(args) -> int:
    heatlab = import_heatlab()
    sys.path.insert(0, str(HERE))
    import workloads
    from tracer import LAYERS

    workload = workloads.build(args.workload, args.seed, OUT)
    setup_first = perf_counter() - START
    if args.setup_only:
        print(repr(setup_first))
        return 0

    setup = [setup_first]
    if not args.trace:
        setup += setup_samples(args, SETUP_REPEATS // 2)
    untraced = run_cycles(workload, args.seconds, heatlab.HeatLabError, LAYERS)
    phases = [untraced]
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "working_set_bytes": workload.working_set(),
              "cycle_ops": len(workload.cycle), "cycles": len(untraced.digests),
              "cycle_s": untraced.cycle_seconds(), "latencies_s": untraced.latencies,
              "accuracy": untraced.accuracy}
    if args.trace:
        tracer, traced, misses = traced_cycle(heatlab, workload, untraced, LAYERS)
        phases.append(traced)
        result["spans_file"] = str(tracer.write(
            OUT / f"spans-{args.workload}-seed{args.seed}.npz").relative_to(ROOT))
    else:
        setup += setup_samples(args, SETUP_REPEATS - SETUP_REPEATS // 2)
        result["setup_samples_s"] = setup

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    problems = sum((p.problems for p in phases), Counter())
    if args.trace:
        cycle_s = statistics.median(untraced.cycle_seconds())
        figures = per_layer(tracer, traced, cycle_s, misses, problems, LAYERS)
    else:
        figures = end_to_end(untraced, result["setup_samples_s"])

    result["environment"] = report(args, workload, untraced, attempted, failed, problems)
    if not args.trace:
        samples = ", ".join(f"{s:.4f}" for s in result["setup_samples_s"])
        print(f"  set-up samples (s): {samples}")
    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": float(figures[m["name"]]), "unit": m["unit"]}
               for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    result.update(problems={f"{k[0]}.{k[1]}": v for k, v in problems.items()},
                  figures=figures)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True, default=float) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status |= subprocess.run(cmd, cwd=ROOT, timeout=900).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
