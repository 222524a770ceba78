"""Command-line harness: load a game, run the solver, write a report and a trace.

The report holds a human-readable summary plus one fixed-width table row
(example name, N, n, x0, outer iterations, accumulated inner iterations,
residual triple, largest penalty).  The trace is line-delimited JSON with
one full-precision record per outer iteration.  Exit codes: 0 solved,
2 infeasible stationary point, 3 subsolver failure, 4 iteration budget
exhausted, 1 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import diagnostics, problems
from .model import EvaluationError, GnepProblem, ProblemError
from .outer import (
    ConfigError,
    IterationRecord,
    OuterConfig,
    Status,
    TerminationReport,
    solve,
    solve_variational,
)
from .plugin import PluginError, load_problem_plugin

__all__ = ["RunConfig", "UsageError", "run", "load_run_config", "main"]

EXIT_STATUS = {
    Status.SOLVED_KKT: 0,
    Status.INFEASIBLE_STATIONARY: 2,
    Status.SUBSOLVER_FAILURE: 3,
    Status.MAX_OUTER_ITERATIONS: 4,
}
EXIT_USAGE = 1

_TABLE_WIDTHS = (24, 4, 5, 12, 5, 8, 9, 9, 9, 9)
_TABLE_HEADER = ("example", "N", "n", "x0", "k", "i_total", "R_f", "R_o", "R_c", "rho_max")


class UsageError(ValueError):
    """Bad command line, config file, or start vector."""


# Failures of one run that are reported as exit code 1 instead of a traceback.
_RUN_ERRORS = (UsageError, PluginError, ProblemError, ConfigError, EvaluationError, OSError)


@dataclass
class RunConfig:
    """One solver run; mirrors the command-line flags."""

    problem: str
    x0: str = "0"
    mode: str = "general"
    umax: float = 1e6
    rho0: float = 1.0
    tau: float | None = None
    gamma: float | None = None
    eps: float = 1e-8
    max_outer: int = 100
    report: str | None = None
    trace: str | None = None
    seed: int = 0


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def load_run_config(path: str | Path) -> dict[str, str]:
    """Read a flat ``key = value`` file; unknown keys are rejected."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}, line {lineno}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _FIELD_TYPES:
            raise UsageError(f"{path}, line {lineno}: unknown key '{key}'")
        raw[key] = value
    return raw


def make_run_config(raw: dict[str, str]) -> RunConfig:
    if "problem" not in raw:
        raise UsageError("missing required key 'problem'")
    kwargs: dict = {}
    for key, value in raw.items():
        if key not in _FIELD_TYPES:
            raise UsageError(f"unknown config key '{key}'")
        try:
            if key in ("problem", "x0", "mode", "report", "trace"):
                kwargs[key] = value
            elif key in ("max_outer", "seed"):
                kwargs[key] = int(value)
            else:
                kwargs[key] = float(value)
        except ValueError:
            raise UsageError(f"config key '{key}': cannot parse value '{value}'") from None
    return RunConfig(**kwargs)


def resolve_problem(spec: str) -> GnepProblem:
    path = Path(spec)
    if path.suffix == ".gnep" or path.is_file():
        return load_problem_plugin(path)
    return problems.by_name(spec)


def parse_x0(spec: str, problem: GnepProblem) -> np.ndarray:
    """Start vector: a named preset, a single value to broadcast, or a comma list."""
    spec = spec.strip()
    if spec in problem.x0_presets:
        return problem.x0_presets[spec].copy()
    parts = [p for p in spec.split(",") if p.strip()]
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise UsageError(
            f"x0 '{spec}' is neither a preset of '{problem.name}' nor a number list"
        ) from None
    if len(values) == 1:
        return np.full(problem.n, values[0])
    if len(values) != problem.n:
        raise UsageError(f"x0 has {len(values)} entries, problem needs {problem.n}")
    return np.array(values)


def _fmt_cell(value: str, width: int) -> str:
    return f"{value:<{width}}"


def _table(problem: GnepProblem, x0_label: str, report: TerminationReport) -> str:
    """Header plus one row of the report's totals; a subsolver failure prints ``F``."""
    header = "  ".join(
        _fmt_cell(name, w) for name, w in zip(_TABLE_HEADER, _TABLE_WIDTHS)
    ).rstrip()
    if report.status is Status.SUBSOLVER_FAILURE:
        cells = ["F", "", "", "", "", ""]
    else:
        res = report.residuals
        cells = [
            str(report.outer_iterations),
            str(report.i_total),
            f"{res[0]:.1e}",
            f"{res[1]:.1e}",
            f"{res[2]:.1e}",
            f"{report.rho_max:g}",
        ]
    values = [problem.name, str(problem.num_players), str(problem.n), x0_label] + cells
    row = "  ".join(
        _fmt_cell(v, w) for v, w in zip(values, _TABLE_WIDTHS)
    ).rstrip()
    return header + "\n" + row + "\n"


def _record_json(rec: IterationRecord) -> str:
    payload = {
        "k": rec.k,
        "x": [float(v) for v in rec.x],
        "lambda": [[float(v) for v in lam] for lam in rec.multipliers.lam],
        "u": [[float(v) for v in u] for u in rec.u],
        "rho": [float(v) for v in rec.rho],
        "inner_iters": rec.inner_iters,
        "residuals": {
            "r_f": float(rec.residuals[0]),
            "r_o": float(rec.residuals[1]),
            "r_c": float(rec.residuals[2]),
        },
        "vmeasure": [float(v) for v in rec.vmeasure],
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _report_text(
    problem: GnepProblem, cfg: RunConfig, x0_label: str, report: TerminationReport
) -> str:
    lines = [
        "# gnepalm report",
        f"problem: {problem.name}",
        f"mode: {cfg.mode}",
        f"seed: {cfg.seed}",
        f"status: {report.status.value}",
        f"exit_code: {EXIT_STATUS[report.status]}",
        f"outer_iterations: {report.outer_iterations}",
        f"inner_iterations_total: {report.i_total}",
        f"rho_max: {report.rho_max:g}",
        f"x: {json.dumps([float(v) for v in report.x])}",
        "lambda: "
        + json.dumps([[float(v) for v in lam] for lam in report.multipliers.lam]),
        "residuals: "
        + json.dumps(
            {
                "r_f": float(report.residuals[0]),
                "r_o": float(report.residuals[1]),
                "r_c": float(report.residuals[2]),
            },
            sort_keys=True,
        ),
    ]
    if report.message:
        lines.append(f"note: {report.message}")
    verdict = diagnostics.diagnose(problem, report.evaluation, report.multipliers, eps=cfg.eps)
    lines.append(f"classification: {verdict.classification.value}")
    for nu, player in enumerate(verdict.to_dict()["players"], start=1):
        lines.append(
            f"player {nu}: stationarity={player['stationarity']:.3e} "
            f"complementarity={player['complementarity']:.3e} "
            f"feasibility_gnep={player['feasibility_gnep']:.3e} "
            f"emfcq={player['emfcq']}"
        )
    lines.append("")
    lines.append(_table(problem, x0_label, report))
    return "\n".join(lines)


def run(cfg: RunConfig) -> int:
    """Execute one configured run; returns the exit status."""
    problem = resolve_problem(cfg.problem)
    x0 = parse_x0(cfg.x0, problem)
    # Built on each call, so wrappers installed on cli.solve and
    # cli.solve_variational after import are the functions that run.
    method = {"general": solve, "variational": solve_variational}.get(cfg.mode)
    if method is None:
        raise UsageError(f"mode must be 'general' or 'variational', got '{cfg.mode}'")
    outer_cfg = OuterConfig(
        u_max=cfg.umax,
        rho0=cfg.rho0,
        tau=cfg.tau,
        gamma=cfg.gamma,
        eps=cfg.eps,
        max_outer=cfg.max_outer,
    )
    report = method(problem, x0, outer_cfg)
    text = _report_text(problem, cfg, cfg.x0, report)
    if cfg.report:
        Path(cfg.report).write_text(text)
    else:
        sys.stdout.write(text)
    if cfg.trace:
        with open(cfg.trace, "w") as fh:
            for rec in report.trace:
                fh.write(_record_json(rec) + "\n")
    return EXIT_STATUS[report.status]


def _run_batch(directory: str) -> int:
    """Run every config in turn; one status line each, the worst exit code overall."""
    folder = Path(directory)
    configs = sorted(folder.glob("*.cfg"))
    if not configs:
        raise UsageError(f"no .cfg files found in {folder}")
    worst = 0
    for path in configs:
        try:
            raw = load_run_config(path)
            raw.setdefault("report", str(path.with_suffix(".report.txt")))
            raw.setdefault("trace", str(path.with_suffix(".trace.jsonl")))
            code = run(make_run_config(raw))
        except _RUN_ERRORS as exc:
            code = EXIT_USAGE
            sys.stdout.write(f"{path.name}: error: {exc}\n")
        else:
            sys.stdout.write(f"{path.name}: exit {code}\n")
        worst = max(worst, code)
    return worst


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gnepalm",
        description="Multiplier-penalty solver for generalized Nash games.",
    )
    parser.add_argument("config", nargs="?", help="flat key=value config file")
    parser.add_argument("--problem", help="catalog name or .gnep plugin path")
    parser.add_argument("--x0", help="start: preset name, single value, or comma list")
    parser.add_argument("--mode", choices=["general", "variational"])
    parser.add_argument("--umax", type=float)
    parser.add_argument("--rho0", type=float)
    parser.add_argument("--tau", type=float)
    parser.add_argument("--gamma", type=float)
    parser.add_argument("--eps", type=float)
    parser.add_argument("--max-outer", dest="max_outer", type=int)
    parser.add_argument("--report", help="report file path (default: stdout)")
    parser.add_argument("--trace", help="line-delimited JSON trace path")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--batch", help="run every .cfg file in this directory")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.batch:
            return _run_batch(args.batch)
        raw: dict[str, str] = {}
        if args.config:
            raw.update(load_run_config(args.config))
        overrides = {
            key: getattr(args, key)
            for key in _FIELD_TYPES
            if getattr(args, key, None) is not None
        }
        raw.update({k: str(v) for k, v in overrides.items()})
        cfg = make_run_config(raw)
        return run(cfg)
    except _RUN_ERRORS as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
