"""The benchmark's workloads, their seeded inputs and their correctness gate.

``catalog_cli``
    Every catalog game plus Harker's game (``harker.gnep``), from each
    ``x0`` preset, in each mode that applies: 20 runs per pass, each one a
    ``gnepalm.cli.main`` call that writes a report and a trace.  With
    n <= 6 the linear algebra is almost free, so per-call overhead in
    ``model``, ``outer``, ``diagnostics`` and ``cli`` dominates.  The seed
    only shuffles the order of the runs.
``dense400``
    A seeded ``quadN(N=40, d=10)`` game (n = 400): one dense SPD quadratic
    form shared by all players, one shared budget, analytic Hessians.
    Solved in each mode, then diagnosed; the damped linear solve
    dominates, and it is the only workload on the ``n > 100`` (tau, gamma)
    branch.
``fd_ring50``
    Eight seeded games with N = 10 players of d = 5 (n = 50), general mode.
    Each player's own budget also counts half of the ring neighbour's
    block, and no callback gives second derivatives, so ``model`` builds
    every Jacobian by forward differences on the gradients.

A run unit is one ``cli.main`` call or one library solve plus ``diagnose``.
A unit fails when it raises, ends with the wrong status or classification,
lands off the known solution or the independent reference, or gives other
report/trace bytes (or other iterates) than an earlier repeat of the same
configuration.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from gnepalm import cli, diagnostics, outer, plugin, problems
from gnepalm.model import ConstraintBundle, GnepProblem, ObjectiveBundle, PlayerSpec

HARKER = Path(__file__).resolve().parent / "harker.gnep"

# Distance (max norm) allowed between a computed x and the known solution.
X_TOL = 1e-6

SOLVED = ("SolvedKKT", "FeasibleKKT")
INFEASIBLE = ("InfeasibleStationary", "InfeasibleStationary")

RING_GAMES = 8


@dataclass
class Outcome:
    """What a run unit produced, in the terms the gate checks."""

    status: str
    classification: str
    x: np.ndarray
    fingerprint: bytes
    bytes_written: int = 0
    exit_code: int | None = None


@dataclass
class Unit:
    """One configuration: the timed call, how to read its result, what is right."""

    label: str
    call: Callable[[], object]
    collect: Callable[[object], Outcome]
    expect: tuple[str, str]
    x_check: Callable[[np.ndarray], bool] | None
    x_desc: str


def check(unit: Unit, out: Outcome, seen: dict[str, bytes]) -> str | None:
    """Reason why ``out`` is wrong, or None when it passes the gate."""
    if (out.status, out.classification) != unit.expect:
        return f"status/classification {out.status}/{out.classification}, expected {unit.expect}"
    if out.exit_code is not None and out.exit_code != cli.EXIT_STATUS[outer.Status(out.status)]:
        return f"exit code {out.exit_code} does not match status {out.status}"
    if unit.x_check is not None and not unit.x_check(out.x):
        return f"x = {out.x.tolist()[:4]}... is not {unit.x_desc}"
    first = seen.setdefault(unit.label, out.fingerprint)
    if first != out.fingerprint:
        return "output bytes differ from an earlier repeat of this configuration"
    return None


def _near(target) -> Callable[[np.ndarray], bool]:
    target = np.asarray(target, dtype=float)
    return lambda x: x.shape == target.shape and float(np.abs(x - target).max()) <= X_TOL


def bordered_solution(Q: np.ndarray, c: np.ndarray, A: np.ndarray, E: np.ndarray, rhs: np.ndarray):
    """Solve ``[Q E; A 0][x; lam] = [-c; rhs]``: stationarity with every budget binding."""
    n, m = Q.shape[0], A.shape[0]
    K = np.block([[Q, E], [A, np.zeros((m, m))]])
    sol = np.linalg.solve(K, np.concatenate([-c, rhs]))
    return sol[:n], sol[n:]


# ------------------------------------------------------------- catalog_cli

# (problem, x0 preset, mode): every preset of every game, each applicable mode.
CATALOG_RUNS = [
    ("duopoly_shared", preset, mode)
    for preset in ("origin", "ones", "tens") for mode in ("general", "variational")
] + [
    ("infeasible_single", "origin", "general"),
    ("example24a", "origin", "general"),
    ("example24b", "origin", "general"),
] + [
    ("quad3", preset, mode)
    for preset in ("origin", "ones", "tens") for mode in ("general", "variational")
] + [
    ("nonshared2", "origin", "general"),
] + [
    ("harker", preset, mode)
    for preset in ("origin", "tens") for mode in ("general", "variational")
]


def _duopoly_segment(x: np.ndarray) -> bool:
    # General mode may stop anywhere on the equilibrium set {(a, 1-a) : a in [1/2, 1]}.
    return (
        x.shape == (2,) and abs(x[0] + x[1] - 1.0) <= X_TOL
        and 0.5 - X_TOL <= x[0] <= 1.0 + X_TOL
    )


def _quad3_reference(problem: GnepProblem) -> np.ndarray:
    # quad3 is quadratic with one shared linear budget, so its variational
    # equilibrium solves a bordered linear system read off the callbacks.
    z = np.zeros(problem.n)
    Q = np.vstack([problem.theta_hess(nu, z) for nu in range(problem.num_players)])
    c = np.concatenate([problem.theta_grad(nu, z) for nu in range(problem.num_players)])
    a = problem.g_grad(0, z)[:, 0]
    return reference((Q, c, a[None, :], a[:, None], -problem.g_val(0, z)))


def _parse_report(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep and key not in fields:
            fields[key] = value
    return fields


def _cli_unit(label: str, argv: list[str], report: Path, trace: Path, expect, x_check, x_desc) -> Unit:
    def call():
        return cli.main(argv)

    def collect(code) -> Outcome:
        report_bytes = report.read_bytes()
        trace_bytes = trace.read_bytes()
        # A later call that fails before writing must not find these.
        report.unlink()
        trace.unlink()
        fields = _parse_report(report_bytes.decode())
        return Outcome(
            status=fields.get("status", "?"),
            classification=fields.get("classification", "?"),
            x=np.array(json.loads(fields.get("x", "[]")), dtype=float),
            fingerprint=report_bytes + b"\0" + trace_bytes,
            bytes_written=len(report_bytes) + len(trace_bytes),
            exit_code=code,
        )

    return Unit(label, call, collect, expect, x_check, x_desc)


def catalog_units(seed: int, workdir: Path) -> list[Unit]:
    harker = plugin.load_problem_plugin(HARKER)
    missing = {"origin", "tens"} - set(harker.x0_presets)
    if missing or harker.n != 2:
        raise RuntimeError(f"{HARKER.name}: expected n = 2 and presets origin, tens")
    quad3_ref = _quad3_reference(problems.by_name("quad3"))
    known = {
        ("duopoly_shared", "variational"): (_near([0.75, 0.25]), "(3/4, 1/4)"),
        ("duopoly_shared", "general"): (_duopoly_segment, "on the segment (a, 1-a), a in [1/2, 1]"),
        ("infeasible_single", "general"): (_near([0.0]), "the infeasible stationary point 0"),
        ("nonshared2", "general"): (_near([0.0, 1.0]), "(0, 1)"),
        ("harker", "general"): (_near([5.0, 9.0]), "(5, 9)"),
        ("harker", "variational"): (_near([5.0, 9.0]), "(5, 9)"),
        ("quad3", "variational"): (_near(quad3_ref), "the bordered-system reference"),
    }
    runs = list(CATALOG_RUNS)
    random.Random(seed).shuffle(runs)
    units = []
    for i, (name, preset, mode) in enumerate(runs):
        report, trace = workdir / f"run{i}.report.txt", workdir / f"run{i}.trace.jsonl"
        spec = str(HARKER) if name == "harker" else name
        argv = ["--problem", spec, "--x0", preset, "--mode", mode,
                "--report", str(report), "--trace", str(trace)]
        expect = INFEASIBLE if name == "infeasible_single" else SOLVED
        x_check, x_desc = known.get((name, mode), (None, ""))
        units.append(_cli_unit(f"{name}/{preset}/{mode}", argv, report, trace,
                               expect, x_check, x_desc))
    return units


# --------------------------------------------------------- generated games

def _quadratic_players(rng, N: int, d: int, budgets, hessians: bool):
    """Players ``theta_nu = x'Qx/2 + b_nu'x`` with one dense SPD ``Q`` for all.

    ``budgets[nu]`` is the row ``a`` of player ``nu``'s constraint
    ``a'x <= 1``.  Returns the players and ``(Q, c)`` where ``c`` stacks
    each player's own block of ``b_nu``.
    """
    n = N * d
    M = rng.standard_normal((n, n))
    Q = M.T @ M / n + np.eye(n)
    # Shifted linear terms pull every player against its budget.
    b = rng.standard_normal((N, n)) - 2.0
    zero_g_hess = np.zeros((1, d, n))
    players = []
    for nu in range(N):
        rows = slice(nu * d, (nu + 1) * d)
        Q_rows, b_nu, b_own = Q[rows], b[nu], b[nu, rows]
        a = budgets[nu]
        a_col = a.reshape(n, 1)
        objective = ObjectiveBundle(
            value=lambda x, b_nu=b_nu: 0.5 * float(x @ Q @ x) + float(b_nu @ x),
            grad=lambda x, Q_rows=Q_rows, b_own=b_own: Q_rows @ x + b_own,
            hess=(lambda x, Q_rows=Q_rows: Q_rows) if hessians else None,
        )
        budget = ConstraintBundle(
            count=1,
            value=lambda x, a=a: np.array([a @ x - 1.0]),
            grad=lambda x, a_col=a_col: a_col,
            hess=(lambda x: zero_g_hess) if hessians else None,
        )
        players.append(PlayerSpec(d, objective, g=budget))
    c = np.concatenate([b[nu, nu * d:(nu + 1) * d] for nu in range(N)])
    return players, Q, c


def reference(system) -> np.ndarray:
    """Equilibrium from ``[Q E; A 0][x; lam] = [-c; rhs]``, checked to have every budget binding."""
    x, lam = bordered_solution(*system)
    if not (lam > 0).all():
        raise RuntimeError("reference: a budget does not bind")
    return x


def dense_game(seed: int, N: int = 40, d: int = 10):
    """Seeded ``quadN``: one shared budget ``sum(x) <= 1``, analytic Hessians.

    Returns the game and the bordered system ``[Q 1; 1' 0][x; lam] = [-c; 1]``
    whose solution is its variational equilibrium.
    """
    n = N * d
    ones = np.ones(n)
    players, Q, c = _quadratic_players(
        np.random.default_rng([seed, 0]), N, d, [ones] * N, hessians=True
    )
    game = GnepProblem(players, shared_constraints=True, name=f"quadN{N}x{d}",
                       x0_presets={"origin": np.zeros(n)})
    return game, (Q, c, ones[None, :], ones[:, None], np.ones(1))


def ring_game(seed: int, i: int, N: int = 10, d: int = 5):
    """Seeded ring game without second derivatives.

    Player ``nu``'s budget is ``sum(x_nu) + sum(x_{nu+1})/2 <= 1``.  Returns
    the game and the bordered system ``[Q E; A 0][x; lam] = [-c; 1]``; with
    positive multipliers its solution is an equilibrium with every budget
    binding.
    """
    n = N * d
    A = np.zeros((N, n))
    E = np.zeros((n, N))
    for nu in range(N):
        nb = (nu + 1) % N
        A[nu, nu * d:(nu + 1) * d] = 1.0
        A[nu, nb * d:(nb + 1) * d] = 0.5
        E[nu * d:(nu + 1) * d, nu] = 1.0
    players, Q, c = _quadratic_players(
        np.random.default_rng([seed, 1, i]), N, d, list(A), hessians=False
    )
    game = GnepProblem(players, name=f"ring{N}x{d}", x0_presets={"origin": np.zeros(n)})
    return game, (Q, c, A, E, np.ones(N))


def _library_unit(label: str, game: GnepProblem, mode: str, x_ref) -> Unit:
    solve = "solve_variational" if mode == "variational" else "solve"
    x0 = game.x0_presets["origin"]

    def call():
        # Looked up at call time, so a traced pass sees the wrapped functions.
        report = getattr(outer, solve)(game, x0)
        return report, diagnostics.diagnose(game, report.x, report.multipliers)

    def collect(result) -> Outcome:
        report, verdict = result
        parts = [report.status.value.encode(), report.x.tobytes()]
        for rec in report.trace:
            parts += [rec.x.tobytes(), rec.rho.tobytes(), np.asarray(rec.residuals).tobytes()]
        parts += [np.asarray(lam).tobytes() for lam in report.multipliers.lam]
        return Outcome(
            status=report.status.value,
            classification=verdict.classification.value,
            x=np.asarray(report.x, dtype=float),
            fingerprint=b"\0".join(parts),
        )

    return Unit(label, call, collect, SOLVED, _near(x_ref), "the bordered-system reference")


def library_units(games: list[tuple[str, GnepProblem, str, np.ndarray]]) -> list[Unit]:
    return [_library_unit(label, game, mode, x_ref) for label, game, mode, x_ref in games]


def build(workload: str, seed: int, workdir: Path, wrap=lambda fn, name, layer: fn):
    """Set up one workload: parse, build and generate its inputs.

    Returns ``(units, games)``: the run units of one pass and, for library
    workloads, the games they solve as ``(label, game, mode, x_ref)``.
    ``wrap`` lets a traced set-up record the generators as spans.
    """
    if workload == "catalog_cli":
        return wrap(catalog_units, "bench.catalog_setup", "bench")(seed, workdir), []
    solution = wrap(reference, "bench.reference", "bench")
    if workload == "dense400":
        game, system = wrap(dense_game, "problems.dense_game", "problems")(seed)
        x_ref = solution(system)
        games = [(f"dense400/{mode}", game, mode, x_ref) for mode in ("general", "variational")]
    elif workload == "fd_ring50":
        make = wrap(ring_game, "problems.ring_game", "problems")
        games = []
        for i in range(RING_GAMES):
            game, system = make(seed, i)
            games.append((f"fd_ring50/{i}", game, "general", solution(system)))
    else:
        raise ValueError(f"unknown workload '{workload}'")
    return library_units(games), games
