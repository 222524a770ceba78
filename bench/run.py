"""Benchmark for gnepalm: three workloads, end-to-end metrics, a layer trace.

Usage, from the root of a checkout:

    python3 bench/run.py --workload dense400 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs traced
and untraced passes in turn and reports the per-layer metrics.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
same numbers with their units, the tail percentile and its sample count,
``fail_frac``, and the environment.

The library runs from ``src/`` of the checkout in this single process, with
BLAS pinned to one thread before numpy loads.  It is driven as a closed
loop with one client: the next run unit starts when the previous one has
returned.  Run-unit times are reported at reference speed: each unit's wall
time is rescaled by a fixed reference kernel timed just before and after it
(``REFERENCE_S`` below; README.md says why).  Set-up time is the median over
fresh interpreters that import gnepalm and build the workload's inputs,
rescaled by the run's median kernel time.  Workloads, inputs and the correctness gate are in ``workloads.py``;
the layer trace is in ``tracer.py``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("catalog_cli", "dense400", "fd_ring50")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Fresh-interpreter set-ups per run (end-to-end) and traced set-ups (per layer).
SETUP_REPEATS = 5
# Tail percentile: the highest of these with at least TAIL_BEYOND samples above it.
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10
# Reference kernel: fixed numpy work, partly interpreted and partly BLAS,
# that shares no code with gnepalm.  On shared virtual machines the speed of
# such code can flip between states within a second and drift over minutes
# (see README.md), so every timed run unit is bracketed by two kernel timings
# and rescaled to a machine on which the kernel takes REFERENCE_S.
REFERENCE_LOOPS = 200
REFERENCE_N = 200
REFERENCE_S = 2e-3
# Layer self times must add up to the traced wall time within this share.
SELF_SUM_RTOL = 1e-3
# Printed but left out of the JSON line: these layers are off the path of
# the library workloads, where their times read exactly 0 on every run.
PRINTED_ONLY = ("cli.self_s", "plugin.load_s")

END_TO_END_UNITS = {
    "solve_ms_p50": "ms",
    "solve_ms_tail": "ms",
    "solves_per_s": "1/s",
    "callback_evals_per_solve": "count",
    "outer_iters_per_solve": "count",
    "inner_iters_per_solve": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    return "B" if name.endswith("bytes_written") else "count"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import and build the inputs, print the elapsed seconds")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "gnepalm" / "__init__.py").is_file():
        sys.stderr.write(f"error: no gnepalm sources at {SRC}; run from a full checkout\n")
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)
    if args.setup_only:
        t0 = perf_counter()
        import workloads

        workloads.build(args.workload, args.seed, ROOT / ".bench_work" / "unused")
        print(repr(perf_counter() - t0))
        return 0
    return _run(args)


# ------------------------------------------------------------------ pieces


class Gate:
    """Runs units, times the call alone, and checks every outcome."""

    def __init__(self, workloads) -> None:
        self.workloads = workloads
        self.seen: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, str] = {}

    def run(self, unit, call=None):
        self.attempted += 1
        call = call or unit.call
        t0 = perf_counter()
        try:
            raw = call()
        except Exception as exc:  # a raising run is a failed run, not a crash
            dt = perf_counter() - t0
            self._fail(unit, f"raised {type(exc).__name__}: {exc}")
            return dt, None
        dt = perf_counter() - t0
        try:
            out = unit.collect(raw)
            reason = self.workloads.check(unit, out, self.seen)
        except Exception as exc:
            out, reason = None, f"unreadable result: {type(exc).__name__}: {exc}"
        if reason:
            self._fail(unit, reason)
        return dt, out

    def _fail(self, unit, reason: str) -> None:
        self.failed += 1
        self.reasons.setdefault(unit.label, reason)


def _run_pass(gate: Gate, units, calls=None):
    """One pass over the units; returns the summed call time and the outcomes."""
    wall, outs = 0.0, []
    for i, unit in enumerate(units):
        dt, out = gate.run(unit, calls[i] if calls else None)
        wall += dt
        outs.append(out)
    return wall, outs


@functools.lru_cache(maxsize=1)
def _reference_inputs():
    import numpy as np

    M = np.random.default_rng(0).standard_normal((REFERENCE_N, REFERENCE_N))
    return np.linspace(-1.0, 1.0, 6), M @ M.T + REFERENCE_N * np.eye(REFERENCE_N)


def _reference_time() -> float:
    """Seconds the fixed reference kernel takes right now."""
    import scipy.linalg

    v, S = _reference_inputs()
    t0 = perf_counter()
    acc = 0.0
    for _ in range(REFERENCE_LOOPS):
        w = v * 2.0 + 1.0
        acc += float(w @ v)
    scipy.linalg.cho_factor(S @ S)
    return perf_counter() - t0


def _tail(samples: list[float]):
    n = len(samples)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= TAIL_BEYOND:
            break
    return p, sorted(samples)[rank - 1], n - rank


def _measure_setup(args) -> list[float]:
    """Set-up seconds, each from a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _environment() -> dict:
    import numpy
    import scipy

    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_count": os.cpu_count(),
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        env["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                platform.processor() or "unknown",
            )
    except OSError:
        env["cpu"] = platform.processor() or "unknown"
    env["git_commit"] = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            env["git_commit"] = done.stdout.strip() or env["git_commit"]
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "gnepalm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["src_sha256"] = digest.hexdigest()[:16]
    return env


def _print_metrics(metrics: dict, notes: dict) -> None:
    for name, m in metrics.items():
        note = f"   ({notes[name]})" if name in notes else ""
        print(f"  {name:<28} {m['value']:>16.6g} {m['unit']}{note}")


# -------------------------------------------------------------- the modes


class Harness:
    """One run: the workload's units, their traced twins, the gate and the tracer."""

    def __init__(self, args, workdir: Path) -> None:
        import workloads
        from tracer import Tracer

        self.args = args
        self.workloads = workloads
        self.workdir = workdir
        self.tracer = Tracer()
        self.gate = Gate(workloads)
        self.units, games = workloads.build(args.workload, args.seed, workdir)
        if games:
            self.traced_units = workloads.library_units(
                [(label, self.tracer.instrument(game), mode, x_ref)
                 for label, game, mode, x_ref in games]
            )
        else:  # the CLI builds its own problems; the tracer instruments those
            self.traced_units = self.units
        self.roots = [self.tracer.wrap(u.call, "bench.unit", "bench") for u in self.traced_units]

    def traced_pass(self):
        """One traced pass: its summed call time and the span aggregates."""
        with self.tracer.active():
            wall, outs = _run_pass(self.gate, self.traced_units, self.roots)
        snap = self.tracer.snapshot()
        snap["bytes_written"] = sum(o.bytes_written for o in outs if o is not None)
        return wall, snap

    def traced_setup(self) -> dict[str, float]:
        """Layer self times of one traced set-up."""
        with self.tracer.active():
            self.workloads.build(self.args.workload, self.args.seed, self.workdir,
                                 wrap=self.tracer.wrap)
        return self.tracer.layer_self(self.tracer.snapshot())


def _run(args) -> int:
    setups = [] if args.trace else _measure_setup(args)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + json.dumps(_environment(), sort_keys=True))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        harness = Harness(args, workdir)
        if args.trace:
            metrics, notes, checks = _traced(harness)
        else:
            metrics, notes, checks = _untraced(harness, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    gate = harness.gate
    fail_frac = gate.failed / gate.attempted
    print(f"runs: {gate.attempted} attempted, {gate.failed} failed, fail_frac {fail_frac:.6g}")
    for label, reason in sorted(gate.reasons.items()):
        print(f"  FAILED {label}: {reason}")
    for problem in checks:
        print(f"  SELF-CHECK FAILED: {problem}")
    if harness.tracer.missing:
        print(f"  not traced (absent in this gnepalm): {', '.join(harness.tracer.missing)}")
    print("metrics:")
    _print_metrics(metrics, notes)
    print(f"  {'fail_frac':<28} {fail_frac:>16.6g} share")
    print(json.dumps({
        "correct": gate.failed == 0 and not checks,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {k: v for k, v in metrics.items() if k not in PRINTED_ONLY},
    }))
    return 0


def _untraced(harness: Harness, setups: list[float]):
    units, gate = harness.units, harness.gate
    walls, refs = [], []
    deadline = perf_counter() + harness.args.seconds
    i = 0
    ref_before = _reference_time()
    while i < len(units) or perf_counter() < deadline:
        dt, _ = gate.run(units[i % len(units)])
        ref_after = _reference_time()
        walls.append(dt)
        refs.append(0.5 * (ref_before + ref_after))
        ref_before = ref_after
        i += 1
    # Iteration and evaluation counts are deterministic: one traced pass,
    # outside the timed window, gives them exactly.
    _, snap = harness.traced_pass()
    layer_of = harness.tracer.layer_of
    per_unit = 1.0 / len(harness.traced_units)
    callbacks = sum(c for name, c in snap["calls"].items() if layer_of[name] == "callback")
    scaled = [dt * REFERENCE_S / ref for dt, ref in zip(walls, refs)]
    p, tail, beyond = _tail(scaled)
    values = {
        "solve_ms_p50": 1e3 * statistics.median(scaled),
        "solve_ms_tail": 1e3 * tail,
        "solves_per_s": len(scaled) / sum(scaled),
        "callback_evals_per_solve": callbacks * per_unit,
        "outer_iters_per_solve": snap["counts"].get("outer.iters", 0) * per_unit,
        "inner_iters_per_solve": snap["counts"].get("subsolver.inner_iters", 0) * per_unit,
        # The set-up ran seconds before the timed loop, in the same speed regime.
        "setup_s": statistics.median(setups) * REFERENCE_S / statistics.median(refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}
    p_wall, tail_wall, _ = _tail(walls)
    speed = "at reference speed"
    notes = {
        "solve_ms_p50": f"{speed}, median of {len(scaled)} run units; "
                        f"wall {1e3 * statistics.median(walls):.4f} ms",
        "solve_ms_tail": f"{speed}, p{p:g} of {len(scaled)} samples, {beyond} beyond it; "
                         f"wall p{p_wall:g} {1e3 * tail_wall:.4f} ms",
        "solves_per_s": f"{speed}; wall {len(walls) / sum(walls):.4f} 1/s",
        "setup_s": f"{speed} of the run's median kernel time, median of {len(setups)} "
                   "fresh interpreters; wall " + ", ".join(f"{t:.4f}" for t in setups),
    }
    print(f"reference kernel: median {1e3 * statistics.median(refs):.4f} ms; "
          f"times at reference speed are for {1e3 * REFERENCE_S:g} ms")
    return metrics, notes, []


def _traced(harness: Harness):
    from tracer import BOOKKEEPING

    tracer, checks = harness.tracer, []
    setups = [harness.traced_setup() for _ in range(SETUP_REPEATS)]
    # Untraced and traced passes alternate, so drift in machine speed hits both.
    plain_walls, traced_walls, snaps = [], [], []
    deadline = perf_counter() + harness.args.seconds
    while len(snaps) < 2 or perf_counter() < deadline:
        plain_walls.append(_run_pass(harness.gate, harness.units)[0])
        wall, snap = harness.traced_pass()
        traced_walls.append(wall)
        snaps.append(snap)
        layer_sum = sum(tracer.layer_self(snap).values())
        if abs(layer_sum - wall) > SELF_SUM_RTOL * wall:
            checks.append(f"layer self times sum to {layer_sum:.6f} s, traced wall is {wall:.6f} s")
    signature = [(s["calls"], s["counts"], s["bytes_written"]) for s in snaps]
    if any(sig != signature[0] for sig in signature[1:]):
        checks.append("counts differ between traced passes")

    U = len(harness.traced_units)

    def med(fn):
        return statistics.median(fn(s) for s in snaps) / U

    def layer(name):
        return lambda s: tracer.layer_self(s).get(name, 0.0)

    def span(kind, name):
        return lambda s: s[kind].get(name, 0.0)

    first = snaps[0]
    calls, counts = first["calls"], first["counts"]
    trials = calls.get("subsolver.lm_step", 0)
    values = {
        "model.callback_calls": sum(
            c for n, c in calls.items() if tracer.layer_of[n] == "callback") / U,
        "model.callback_s": med(layer("callback")),
        "model.self_s": med(layer("model")),
        "model.fd_hess_calls": counts.get("model.fd_hess_calls", 0) / U,
        "alcore.F_calls": calls.get("alcore.assemble_F", 0) / U,
        "alcore.F_self_s": med(span("self", "alcore.assemble_F")),
        "alcore.jac_calls": calls.get("alcore.generalized_jacobian", 0) / U,
        "alcore.jac_self_s": med(span("self", "alcore.generalized_jacobian")),
        "subsolver.trial_steps": trials / U,
        "subsolver.factorizations": calls.get("subsolver.spd_solve", 0) / U,
        "subsolver.accept_ratio": counts.get("subsolver.accepted_steps", 0) / trials if trials else 0.0,
        "subsolver.linsolve_s": med(span("total", "subsolver.lm_step")),
        "subsolver.loop_self_s": med(span("self", "subsolver.lm_solve")),
        "outer.iters": counts.get("outer.iters", 0) / U,
        "outer.rho_growths": counts.get("outer.rho_growths", 0) / U,
        "outer.bookkeeping_s": med(
            lambda s: sum(s["total"].get(f"outer.{b}", 0.0) for b in BOOKKEEPING)),
        "outer.self_s": med(layer("outer")),
        "diagnostics.diagnose_s": med(span("total", "diagnostics.diagnose")),
        "cli.self_s": med(layer("cli")),
        "cli.bytes_written": first["bytes_written"] / U,
        "plugin.load_s": statistics.median(s.get("plugin", 0.0) for s in setups),
        "problems.build_s": statistics.median(s.get("problems", 0.0) for s in setups),
        "trace_overhead_frac": statistics.median(traced_walls) / statistics.median(plain_walls) - 1.0,
    }
    metrics = {name: {"value": v, "unit": _layer_unit(name)} for name, v in values.items()}
    notes = {name: "per run unit, median over traced passes" for name in values
             if name.endswith("_s") and not name.startswith(("plugin.", "problems."))}
    notes["plugin.load_s"] = notes["problems.build_s"] = f"set-up, median of {SETUP_REPEATS}"
    notes["trace_overhead_frac"] = (
        f"median pass: traced {1e3 * statistics.median(traced_walls):.3f} ms, "
        f"untraced {1e3 * statistics.median(plain_walls):.3f} ms, {len(snaps)} passes each"
    )

    print(f"spans per run unit (median over {len(snaps)} traced passes):")
    print(f"  {'span':<36} {'layer':<12} {'calls':>10} {'incl_ms':>10} {'self_ms':>10}")
    for name in sorted(calls, key=lambda n: (tracer.layer_of[n], n)):
        print(f"  {name:<36} {tracer.layer_of[name]:<12} {calls[name] / U:>10.2f} "
              f"{1e3 * med(span('total', name)):>10.4f} {1e3 * med(span('self', name)):>10.4f}")
    print("layer self time per run unit:")
    for name in sorted(set(tracer.layer_of.values())):
        print(f"  {name:<12} {1e3 * med(layer(name)):>10.4f} ms")
    return metrics, notes, checks


def _run_all(args) -> int:
    """Each workload in its own interpreter, one after the other; a summary at the end."""
    results, code = {}, 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        code = max(code, done.returncode)
        if done.returncode == 0:
            results[workload] = json.loads(done.stdout.strip().splitlines()[-1])
    if not results:
        return code or 1
    names = list(next(iter(results.values()))["metrics"])
    print("summary:")
    print(f"  {'metric':<28} " + " ".join(f"{w:>14}" for w in results) + "  unit")
    for name in names:
        row = " ".join(f"{r['metrics'][name]['value']:>14.6g}" for r in results.values())
        print(f"  {name:<28} {row}  {next(iter(results.values()))['metrics'][name]['unit']}")
    fail = " ".join(f"{r['failed'] / r['attempted']:>14.6g}" for r in results.values())
    print(f"  {'fail_frac':<28} {fail}  share")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()) and len(results) == len(WORKLOADS),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
