"""N-player game model with block-structured variables and split constraints.

A game is a list of :class:`PlayerSpec` objects.  Player ``nu`` controls a
contiguous block of the joint vector ``x`` and owns a scalar objective plus
two optional groups of inequality constraints: ``g`` (the group a solver is
allowed to penalize) and ``h`` (the group that must be kept explicitly).
All callbacks receive the full joint vector and return plain arrays whose
shapes and finiteness are checked; an :class:`Evaluation` keeps the checked
first-order data of one point for every consumer of that point.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

import numpy as np

__all__ = [
    "ProblemError",
    "EvaluationError",
    "ObjectiveBundle",
    "ConstraintBundle",
    "PlayerSpec",
    "GnepProblem",
    "Evaluation",
    "evaluator",
    "MultiplierSet",
    "ValidationEntry",
    "ValidationReport",
    "validate_problem",
]

# Forward-difference step for the optional second-derivative fallback.
FD_HESS_STEP = 1e-7
# Central-difference step used by validate_problem.
FD_CHECK_STEP = 1e-6


class ProblemError(ValueError):
    """A problem definition or a callback violated its declared contract."""


class EvaluationError(RuntimeError):
    """A callback produced non-finite output at an evaluation point."""


@dataclass(frozen=True)
class ObjectiveBundle:
    """Callbacks for one player's objective.

    ``value(x)`` returns the scalar objective.  ``grad(x)`` returns the
    partial gradient with respect to the player's own block, length ``dim``.
    ``hess(x)`` returns the row block of the full second derivative taken
    first along the own block and then along the whole vector, shape
    ``(dim, n)``.  ``hess`` may be ``None``; a forward-difference fallback
    on ``grad`` is used instead.
    """

    value: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class ConstraintBundle:
    """Callbacks for one group of inequality constraints ``c(x) <= 0``.

    ``value(x)`` has length ``count``.  ``grad(x)`` is the transposed
    Jacobian with respect to the full vector, shape ``(n, count)``; column
    ``i`` is the gradient of component ``i``.  ``hess(x)`` stacks the
    per-component second-derivative row blocks, shape ``(count, dim, n)``;
    ``None`` enables the forward-difference fallback.
    """

    count: int
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class PlayerSpec:
    """One player: block dimension, objective, and split constraint groups."""

    dim: int
    objective: ObjectiveBundle
    g: ConstraintBundle | None = None
    h: ConstraintBundle | None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ProblemError(f"player dimension must be >= 1, got {self.dim}")
        for label, bundle in (("g", self.g), ("h", self.h)):
            if bundle is not None and bundle.count < 0:
                raise ProblemError(f"constraint group '{label}' has negative count")

    @property
    def g_count(self) -> int:
        return 0 if self.g is None else self.g.count

    @property
    def h_count(self) -> int:
        return 0 if self.h is None else self.h.count


class GnepProblem:
    """Immutable N-player game over a joint vector of length ``n``.

    Parameters
    ----------
    players : sequence of PlayerSpec
        One entry per player; block offsets are the prefix sums of the dims.
    shared_constraints : bool
        Asserts that every player's ``g`` (and ``h``) evaluates the same
        functions, which the variational solver requires.  Equal counts are
        enforced here; equal values are the caller's promise (the plugin
        loader verifies this structurally).
    name : str
        Label used in reports.
    x0_presets : mapping, optional
        Named start vectors of length ``n``.
    """

    def __init__(
        self,
        players: Sequence[PlayerSpec],
        shared_constraints: bool = False,
        name: str = "",
        x0_presets: Mapping[str, Sequence[float]] | None = None,
    ) -> None:
        players = tuple(players)
        if not players:
            raise ProblemError("a game needs at least one player")
        self.players = players
        self.shared_constraints = bool(shared_constraints)
        self.name = str(name)
        offsets = [0]
        for spec in players:
            offsets.append(offsets[-1] + spec.dim)
        self.block_offsets = tuple(offsets)
        self.n = offsets[-1]
        self.m = sum(spec.g_count for spec in players)
        self.p = sum(spec.h_count for spec in players)
        if self.shared_constraints:
            counts = {(spec.g_count, spec.h_count) for spec in players}
            if len(counts) > 1:
                raise ProblemError(
                    "shared_constraints requires identical g/h counts for all players"
                )
        presets: dict[str, np.ndarray] = {}
        if x0_presets:
            for label, vec in x0_presets.items():
                arr = np.asarray(vec, dtype=float)
                if arr.shape != (self.n,):
                    raise ProblemError(
                        f"x0 preset '{label}' has length {arr.size}, expected {self.n}"
                    )
                presets[str(label)] = arr
        self.x0_presets = presets

    # ----------------------------------------------------------------- blocks

    @property
    def num_players(self) -> int:
        return len(self.players)

    def _check_player(self, nu: int) -> None:
        if not 0 <= nu < len(self.players):
            raise ProblemError(
                f"player index {nu} out of range for {len(self.players)} players"
            )

    def block_slice(self, nu: int) -> slice:
        """Index range of player ``nu`` inside the joint vector."""
        self._check_player(nu)
        return slice(self.block_offsets[nu], self.block_offsets[nu + 1])

    def block_of(self, x: np.ndarray, nu: int) -> np.ndarray:
        """Contiguous slice of ``x`` owned by player ``nu``."""
        return self.point(x)[self.block_slice(nu)]

    def point(self, x: Sequence[float]) -> np.ndarray:
        """Validate and return ``x`` as a float vector of length ``n``."""
        arr = np.asarray(x, dtype=float)
        if arr.shape != (self.n,):
            raise ProblemError(f"point has shape {arr.shape}, expected ({self.n},)")
        return arr

    # ------------------------------------------------------------- evaluation

    def _checked(self, out, shape: tuple, nu: int, label: str) -> np.ndarray:
        arr = np.asarray(out, dtype=float)
        if arr.shape != shape:
            raise ProblemError(
                f"player {nu}: callback '{label}' returned shape {arr.shape}, "
                f"expected {shape}"
            )
        if arr.size and not np.isfinite(arr).all():
            raise EvaluationError(f"player {nu}: callback '{label}' returned non-finite values")
        return arr

    def theta(self, nu: int, x: np.ndarray) -> float:
        self._check_player(nu)
        x = self.point(x)
        out = np.asarray(self.players[nu].objective.value(x), dtype=float)
        if out.size != 1:
            raise ProblemError(f"player {nu}: callback 'theta' must return a scalar")
        val = float(out.reshape(-1)[0])
        if not np.isfinite(val):
            raise EvaluationError(f"player {nu}: callback 'theta' returned non-finite value")
        return val

    def theta_grad(self, nu: int, x: np.ndarray) -> np.ndarray:
        self._check_player(nu)
        x = self.point(x)
        dim = self.players[nu].dim
        return self._checked(self.players[nu].objective.grad(x), (dim,), nu, "theta.grad")

    def theta_hess(self, nu: int, x: np.ndarray, grad_x: np.ndarray | None = None) -> np.ndarray:
        """Row block of the second derivative of the objective, shape (dim, n).

        ``grad_x`` is the checked ``theta_grad(nu, x)`` if the caller holds it.
        """
        self._check_player(nu)
        spec = self.players[nu]
        return self._hess(
            nu, x, spec.objective.hess, (spec.dim, self.n), "theta.hess", self.theta_grad, grad_x
        )

    def _hess(self, nu: int, x, hess, shape: tuple, label: str, grad, base=None) -> np.ndarray:
        # The callback ``hess`` when given, else forward differences of the
        # own-block first derivative ``grad(nu, x)`` along every coordinate;
        # a caller that holds ``base = grad(nu, x)`` spares that call.
        x = self.point(x)
        if hess is not None:
            return self._checked(hess(x), shape, nu, label)
        if base is None:
            base = grad(nu, x)
        out = np.empty(shape)
        for j in range(self.n):
            xp = x.copy()
            xp[j] += FD_HESS_STEP
            out[..., j] = (grad(nu, xp) - base) / FD_HESS_STEP
        return out

    def _group(self, nu: int, which: str) -> ConstraintBundle | None:
        return self.players[nu].g if which == "g" else self.players[nu].h

    def _cons_val(self, nu: int, x: np.ndarray, which: str) -> np.ndarray:
        self._check_player(nu)
        x = self.point(x)
        bundle = self._group(nu, which)
        if bundle is None or bundle.count == 0:
            return np.zeros(0)
        return self._checked(bundle.value(x), (bundle.count,), nu, which)

    def _cons_grad(self, nu: int, x: np.ndarray, which: str) -> np.ndarray:
        self._check_player(nu)
        x = self.point(x)
        bundle = self._group(nu, which)
        if bundle is None or bundle.count == 0:
            return np.zeros((self.n, 0))
        return self._checked(bundle.grad(x), (self.n, bundle.count), nu, f"{which}.grad")

    def g_val(self, nu: int, x: np.ndarray) -> np.ndarray:
        return self._cons_val(nu, x, "g")

    def g_grad(self, nu: int, x: np.ndarray) -> np.ndarray:
        return self._cons_grad(nu, x, "g")

    def g_hess(self, nu: int, x: np.ndarray, grad_x: np.ndarray | None = None) -> np.ndarray:
        """Stacked per-constraint row blocks, shape (count, dim, n).

        ``grad_x`` is the checked ``g_grad(nu, x)`` if the caller holds it.
        """
        self._check_player(nu)
        spec = self.players[nu]
        if spec.g_count == 0:
            return np.zeros((0, spec.dim, self.n))
        rows = self.block_slice(nu)
        return self._hess(
            nu, x, spec.g.hess, (spec.g.count, spec.dim, self.n), "g.hess",
            lambda nu, z: self._cons_grad(nu, z, "g")[rows, :].T,
            None if grad_x is None else grad_x[rows, :].T,
        )

    def h_val(self, nu: int, x: np.ndarray) -> np.ndarray:
        return self._cons_val(nu, x, "h")

    def h_grad(self, nu: int, x: np.ndarray) -> np.ndarray:
        return self._cons_grad(nu, x, "h")

    def c_val(self, nu: int, x: np.ndarray) -> np.ndarray:
        """All constraints of player ``nu``: penalized group first, kept group after."""
        return np.concatenate([self.g_val(nu, x), self.h_val(nu, x)])

    def c_grad(self, nu: int, x: np.ndarray) -> np.ndarray:
        return np.hstack([self.g_grad(nu, x), self.h_grad(nu, x)])


class Evaluation:
    """Checked first-order data of a game at one point ``x``; read-only.

    Player ``nu`` reads the constraints of slot ``slot[nu]``: ``0`` for
    everyone when ``shared`` (the variational method) is asked of a game
    with shared constraints, ``nu`` otherwise.
    Slot ``s`` is evaluated once, through player ``s``; the per-player lists
    ``g``, ``g_grad``, ``h`` and ``h_grad`` repeat each slot's arrays, and
    ``h`` is evaluated on first use.  Second derivatives are not stored.
    """

    def __init__(self, problem: GnepProblem, x: np.ndarray, shared: bool = False) -> None:
        self.problem = problem
        self.x = problem.point(x)
        self.key = self.x.tobytes()
        players = range(problem.num_players)
        shared = shared and problem.shared_constraints
        self.slot = tuple(0 if shared else nu for nu in players)
        self.theta_grad = [problem.theta_grad(nu, self.x) for nu in players]
        self.g = self.by_slot(problem.g_val)
        self.g_grad = self.by_slot(problem.g_grad)

    @classmethod
    def of(cls, problem: GnepProblem, x, shared: bool = False) -> "Evaluation":
        """``x`` itself when it already is an Evaluation, else a new one at ``x``."""
        return x if isinstance(x, cls) else cls(problem, x, shared)

    def by_slot(self, evaluate) -> list:
        """``evaluate(s, x)`` once per slot ``s``, repeated for each player of the slot."""
        out: list = []
        for nu, s in enumerate(self.slot):
            out.append(evaluate(nu, self.x) if s == nu else out[s])
        return out

    @cached_property
    def h(self) -> list[np.ndarray]:
        return self.by_slot(self.problem.h_val)

    @cached_property
    def h_grad(self) -> list[np.ndarray]:
        return self.by_slot(self.problem.h_grad)


def evaluator(problem: GnepProblem, shared: bool = False) -> Callable[[np.ndarray], Evaluation]:
    """``at(x)``: the :class:`Evaluation` at ``x``, reused while ``x`` repeats bit for bit."""
    last: Evaluation | None = None

    def at(x: np.ndarray) -> Evaluation:
        nonlocal last
        x = problem.point(x)
        if last is None or last.key != x.tobytes():
            last = Evaluation(problem, x, shared)
        return last

    return at


@dataclass
class MultiplierSet:
    """Per-player multiplier estimates for the two constraint groups.

    No sign constraint is stored; inexact inner solves may produce negative
    entries for the kept group.
    """

    lam: list[np.ndarray]
    mu: list[np.ndarray]

    @classmethod
    def zeros(cls, problem: GnepProblem) -> "MultiplierSet":
        return cls(
            lam=[np.zeros(spec.g_count) for spec in problem.players],
            mu=[np.zeros(spec.h_count) for spec in problem.players],
        )

    def check_shapes(self, problem: GnepProblem) -> None:
        if len(self.lam) != problem.num_players or len(self.mu) != problem.num_players:
            raise ProblemError("multiplier lists must have one entry per player")
        for nu, spec in enumerate(problem.players):
            if np.asarray(self.lam[nu]).shape != (spec.g_count,):
                raise ProblemError(f"player {nu}: lambda has wrong length")
            if np.asarray(self.mu[nu]).shape != (spec.h_count,):
                raise ProblemError(f"player {nu}: mu has wrong length")


@dataclass(frozen=True)
class ValidationEntry:
    player: int
    callback: str
    max_rel_error: float


@dataclass
class ValidationReport:
    """Result of the finite-difference derivative audit."""

    fd_tol: float
    entries: list[ValidationEntry]

    @property
    def max_rel_error(self) -> float:
        return max((e.max_rel_error for e in self.entries), default=0.0)

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.fd_tol

    def __str__(self) -> str:
        lines = [f"derivative audit (tol {self.fd_tol:g}): "
                 f"{'pass' if self.passed else 'FAIL'}"]
        for e in self.entries:
            lines.append(
                f"  player {e.player} {e.callback}: max rel err {e.max_rel_error:.3e}"
            )
        return "\n".join(lines)


def _rel_err(analytic: np.ndarray, approx: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=float)
    approx = np.asarray(approx, dtype=float)
    if analytic.size == 0:
        return 0.0
    return float(np.max(np.abs(analytic - approx) / (1.0 + np.abs(analytic))))


def validate_problem(
    problem: GnepProblem,
    probe_points: Sequence[Sequence[float]],
    fd_tol: float = 1e-5,
) -> ValidationReport:
    """Compare analytic gradients against central finite differences.

    Every objective and constraint gradient is checked at every probe point
    with step ``1e-6``.  Shape mismatches and non-finite outputs raise
    immediately; the report collects the worst relative error per callback.

    Parameters
    ----------
    problem : GnepProblem
    probe_points : sequence of points, each of length ``n``
    fd_tol : float
        Relative tolerance defining ``report.passed``.

    Returns
    -------
    ValidationReport
    """
    if not len(probe_points):
        raise ProblemError("validate_problem needs at least one probe point")
    points = [problem.point(x) for x in probe_points]
    h = FD_CHECK_STEP

    def central(f, x: np.ndarray, coords: range) -> np.ndarray:
        # Central differences of f at x, one row per coordinate in coords.
        out = []
        for j in coords:
            xp = x.copy()
            xm = x.copy()
            xp[j] += h
            xm[j] -= h
            out.append((f(xp) - f(xm)) / (2 * h))
        return np.array(out)

    entries = []
    for nu, spec in enumerate(problem.players):
        rows = problem.block_slice(nu)
        worst_theta = 0.0
        worst = {"g": 0.0, "h": 0.0}
        for x in points:
            grad = problem.theta_grad(nu, x)
            fd = central(lambda z: problem.theta(nu, z), x, range(rows.start, rows.stop))
            worst_theta = max(worst_theta, _rel_err(grad, fd))
            for which in ("g", "h"):
                val = problem._cons_val(nu, x, which)
                if val.size == 0:
                    continue
                grad_c = problem._cons_grad(nu, x, which)
                fd_c = central(lambda z: problem._cons_val(nu, z, which), x, range(problem.n))
                worst[which] = max(worst[which], _rel_err(grad_c, fd_c))
        entries.append(ValidationEntry(nu, "theta.grad", worst_theta))
        if spec.g_count:
            entries.append(ValidationEntry(nu, "g.grad", worst["g"]))
        if spec.h_count:
            entries.append(ValidationEntry(nu, "h.grad", worst["h"]))
    return ValidationReport(fd_tol=fd_tol, entries=entries)
