"""The parts of gnepalm that ``bench/`` relies on still fit together.

``bench/tracer.py`` copies every ``PlayerSpec`` field by field (``h``
included) and wraps module globals of ``gnepalm``; a change there breaks the
benchmark before any of its own checks run.  One library unit and one CLI
unit, traced, must pass the benchmark's correctness gate.  ``tools/identity.py``
reads the workloads' units and fingerprints.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_traced_units_pass_the_gate(tmp_path):
    tracer = Tracer()
    game, system = workloads.ring_game(1, 0)
    units = workloads.library_units(
        [("fd_ring50/0", tracer.instrument(game), "general", workloads.reference(system))]
    )
    units.append(workloads.catalog_units(1, tmp_path)[0])
    with tracer.active():
        outcomes = [unit.collect(unit.call()) for unit in units]
    for unit, out in zip(units, outcomes):
        assert workloads.check(unit, out, {}) is None, unit.label
    assert any(name.startswith("callback.") for name in tracer.calls)
    # The patched globals are the ones called: one solve and one diagnose
    # per unit, and the damped steps through subsolver.lm_step.
    calls = tracer.calls
    assert calls["outer.solve"] + calls["outer.solve_variational"] == 2
    assert calls["diagnostics.diagnose"] == 2
    assert calls["subsolver.lm_step"] > 0


def test_units_carry_what_the_identity_tool_hashes(tmp_path):
    # tools/identity.py builds each workload with build(workload, seed, workdir),
    # runs unit.collect(unit.call()) and hashes Outcome.fingerprint by unit.label.
    labels = []
    for workload in ("catalog_cli", "dense400", "fd_ring50"):
        units, _ = workloads.build(workload, 1, tmp_path)
        assert units and all(callable(u.call) and callable(u.collect) for u in units)
        labels += [unit.label for unit in units]
    assert len(set(labels)) == len(labels)
    unit = units[0]
    out = unit.collect(unit.call())
    assert isinstance(out, workloads.Outcome) and isinstance(out.fingerprint, bytes)
