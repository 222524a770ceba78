"""Layer trace for gnepalm, built from outside the library.

The tracer replaces gnepalm's public functions (and the user callbacks of
the games it runs) with wrappers that record a span per call.  A span's
self time is its duration minus the time covered by the spans it encloses,
so the self times of all spans under one root add up to the root's wall
time.  Only per-name aggregates are kept in memory (calls, inclusive time,
self time) plus a few counters read off call results; they are written out
when the run ends.

The wrappers are installed only around traced passes and removed after, so
untraced passes run the library unmodified.  A target that a later version
of gnepalm no longer has is skipped and listed in ``Tracer.missing``; its
time then falls into the enclosing span.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

import numpy as np

from gnepalm import cli, diagnostics, outer, plugin, problems, subsolver
from gnepalm.model import GnepProblem

# Outer-loop bookkeeping: multiplier, penalty, safeguard and residual updates.
BOOKKEEPING = (
    "initial_multipliers",
    "_initial_multipliers_shared",
    "update_multipliers",
    "update_penalty",
    "update_safeguard",
    "stopping_residuals",
    "_vmeasure",
)

# GnepProblem evaluation methods; their self time is the model layer's.
MODEL_METHODS = (
    "theta", "theta_grad", "theta_hess",
    "g_val", "g_grad", "g_hess",
    "h_val", "h_grad", "h_hess",
    "c_val", "c_grad",
)


class Tracer:
    """Span aggregates and counters for one traced pass at a time."""

    def __init__(self) -> None:
        self.stack: list[float] = []  # per open span: time its children took
        self.layer_of: dict[str, str] = {}
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def wrap(self, fn, name: str, layer: str, after=None):
        """Return ``fn`` recording a span; ``after(tracer, args, kwargs, result)`` runs on success."""
        self.layer_of[name] = layer
        stack = self.stack

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.self_time[name] += dt - child
            if after is not None:
                after(self, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr: str, name: str, layer: str, after=None) -> None:
        original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, layer, after))

    def install(self) -> None:
        """Wrap every layer boundary; undo with :meth:`uninstall`."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self.missing.clear()
        p = self._patch
        p(cli, "main", "cli.main", "cli")
        p(cli, "solve", "outer.solve", "outer", _after_solve)
        p(cli, "solve_variational", "outer.solve_variational", "outer", _after_solve)
        p(cli, "load_problem_plugin", "plugin.load_problem_plugin", "plugin")
        p(problems, "by_name", "problems.by_name", "problems")
        p(plugin, "load_problem_plugin", "plugin.load_problem_plugin", "plugin")
        p(outer, "solve", "outer.solve", "outer", _after_solve)
        p(outer, "solve_variational", "outer.solve_variational", "outer", _after_solve)
        for attr in BOOKKEEPING:
            after = _after_update_penalty if attr == "update_penalty" else None
            p(outer, attr, f"outer.{attr}", "outer", after)
        p(outer, "assemble_F", "alcore.assemble_F", "alcore")
        p(outer, "generalized_jacobian", "alcore.generalized_jacobian", "alcore")
        p(outer, "lm_solve", "subsolver.lm_solve", "subsolver", _after_lm_solve)
        p(subsolver, "lm_step", "subsolver.lm_step", "subsolver")
        p(subsolver, "spd_solve", "subsolver.spd_solve", "subsolver")
        p(diagnostics, "diagnose", "diagnostics.diagnose", "diagnostics")
        for attr in MODEL_METHODS:
            after = _after_hess(attr) if attr.endswith("_hess") else None
            p(GnepProblem, attr, f"model.{attr}", "model", after)
        # Problems the CLI builds get traced callbacks as well.
        resolve = getattr(cli, "resolve_problem", None)
        if resolve is None:
            self.missing.append("cli.resolve_problem")
        else:
            instrument = self.wrap(self.instrument, "bench.instrument", "bench")
            self._patched.append((cli, "resolve_problem", resolve))
            cli.resolve_problem = self.wrap(
                lambda spec: instrument(resolve(spec)), "cli.resolve_problem", "cli"
            )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    @contextmanager
    def active(self):
        """Fresh aggregates, with the wrappers installed for the block."""
        self.reset()
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def instrument(self, problem: GnepProblem) -> GnepProblem:
        """Copy of ``problem`` whose user callbacks record spans."""

        def bundle(b, tag):
            if b is None:
                return None
            wrapped = {
                f: self.wrap(getattr(b, f), f"callback.{tag}.{f}", "callback")
                for f in ("value", "grad", "hess")
                if getattr(b, f) is not None
            }
            return replace(b, **wrapped)

        players = [
            replace(spec, objective=bundle(spec.objective, "theta"),
                    g=bundle(spec.g, "g"), h=bundle(spec.h, "h"))
            for spec in problem.players
        ]
        return GnepProblem(
            players,
            shared_constraints=problem.shared_constraints,
            name=problem.name,
            x0_presets=problem.x0_presets,
        )

    # ------------------------------------------------------------- reading

    def snapshot(self) -> dict:
        """Aggregates of the current pass, by span name, plus counters."""
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
        }

    def layer_self(self, snap: dict) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for name, t in snap["self"].items():
            out[self.layer_of[name]] += t
        return dict(out)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _after_solve(tracer: Tracer, args, kwargs, report) -> None:
    tracer.counts["outer.iters"] += report.outer_iterations
    tracer.counts["subsolver.inner_iters"] += report.i_total


def _after_lm_solve(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["subsolver.accepted_steps"] += len(result.steps)


def _after_update_penalty(tracer: Tracer, args, kwargs, rho_next) -> None:
    rho = np.atleast_1d(np.asarray(_arg(args, kwargs, 4, "rho"), dtype=float))
    tracer.counts["outer.rho_growths"] += int(np.count_nonzero(rho_next > rho))


def _after_hess(attr: str):
    # Counts second-derivative requests that model answers by forward
    # differences because the callback bundle supplies no ``hess``.
    def after(tracer: Tracer, args, kwargs, out) -> None:
        problem, nu = args[0], _arg(args, kwargs, 1, "nu")
        spec = problem.players[nu]
        if attr == "theta_hess":
            bundle = spec.objective
        else:
            bundle = spec.g if attr == "g_hess" else spec.h
            if bundle is None or bundle.count == 0:
                return
        if bundle.hess is None:
            tracer.counts["model.fd_hess_calls"] += 1

    return after
