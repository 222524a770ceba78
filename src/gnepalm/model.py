"""N-player game model with block-structured variables.

A game is a list of :class:`PlayerSpec` objects.  Player ``nu`` controls a
contiguous block of the joint vector ``x`` and owns a scalar objective plus
an optional group ``g`` of inequality constraints, all of which the solver
penalizes.  Constraints kept out of the penalty would need a constrained
inner solver, which gnepalm does not have, so there is no such group.
All callbacks receive the full joint vector and return plain arrays whose
shapes and finiteness are checked; an :class:`Evaluation` keeps the checked
first-order data of one point for every consumer of that point.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
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
    """One player: block dimension, objective and constraints ``g``."""

    dim: int
    objective: ObjectiveBundle
    g: ConstraintBundle | None = None
    # Always None; kept because bench/tracer.py reads it and sets it in replace().
    h: None = None

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ProblemError(f"player dimension must be >= 1, got {self.dim}")
        if self.g is not None and self.g.count < 0:
            raise ProblemError("constraint group 'g' has negative count")
        if self.h is not None:
            raise ProblemError(
                "kept constraints 'h' are not supported; declare them in 'g', "
                "where they are penalized"
            )

    @property
    def g_count(self) -> int:
        return 0 if self.g is None else self.g.count


class GnepProblem:
    """Immutable N-player game over a joint vector of length ``n``.

    Parameters
    ----------
    players : sequence of PlayerSpec
        One entry per player; block offsets are the prefix sums of the dims.
    shared_constraints : bool
        Asserts that every player's ``g`` evaluates the same
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
        if self.shared_constraints:
            if len({spec.g_count for spec in players}) > 1:
                raise ProblemError(
                    "shared_constraints requires identical g counts for all players"
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
            nu, x, spec.objective, "theta", (spec.dim, self.n), self.theta_grad, grad_x
        )

    def _hess(
        self, nu: int, x, bundle, label: str, shape: tuple, grad, base=None, rows=slice(None)
    ) -> np.ndarray:
        # The callback ``bundle.hess`` when given.  Otherwise forward differences
        # of the raw ``bundle.grad`` along every coordinate, taken over the own
        # ``rows`` of each output.  ``base`` is the checked ``grad(nu, x)``, so
        # its shape is the callback's contract; a caller that holds it spares
        # that call.  Each coordinate gets a fresh perturbed copy of ``x``.
        x = self.point(x)
        if bundle.hess is not None:
            return self._checked(bundle.hess(x), shape, nu, f"{label}.hess")
        if base is None:
            base = grad(nu, x)
        label = f"{label}.grad"
        block = np.empty((self.n, *base.shape))
        for j in range(self.n):
            xp = x.copy()
            xp[j] += FD_HESS_STEP
            out = np.asarray(bundle.grad(xp), dtype=float)
            if out.shape != base.shape:
                self._checked(out, base.shape, nu, label)  # raises the shape error
            block[j] = out
        self._checked(block, block.shape, nu, label)  # finiteness, once per Hessian
        # Reversing the axes (n, rows, count) gives the row-block layout (count, rows, n).
        return np.ascontiguousarray(((block[:, rows] - base[rows]) / FD_HESS_STEP).T)

    def g_val(self, nu: int, x: np.ndarray) -> np.ndarray:
        self._check_player(nu)
        x = self.point(x)
        bundle = self.players[nu].g
        if bundle is None or bundle.count == 0:
            return np.zeros(0)
        return self._checked(bundle.value(x), (bundle.count,), nu, "g")

    def g_grad(self, nu: int, x: np.ndarray) -> np.ndarray:
        self._check_player(nu)
        x = self.point(x)
        bundle = self.players[nu].g
        if bundle is None or bundle.count == 0:
            return np.zeros((self.n, 0))
        return self._checked(bundle.grad(x), (self.n, bundle.count), nu, "g.grad")

    def g_hess(self, nu: int, x: np.ndarray, grad_x: np.ndarray | None = None) -> np.ndarray:
        """Stacked per-constraint row blocks, shape (count, dim, n).

        ``grad_x`` is the checked ``g_grad(nu, x)`` if the caller holds it.
        """
        self._check_player(nu)
        spec = self.players[nu]
        if spec.g_count == 0:
            return np.zeros((0, spec.dim, self.n))
        return self._hess(
            nu, x, spec.g, "g", (spec.g.count, spec.dim, self.n), self.g_grad, grad_x,
            self.block_slice(nu),
        )


class Evaluation:
    """Checked first-order data of a game at one point ``x``; read-only.

    Player ``nu`` reads the constraints of slot ``slot[nu]``: ``0`` for
    everyone when ``shared`` (the variational method) is asked of a game
    with shared constraints, ``nu`` otherwise.
    Slot ``s`` is evaluated once, through player ``s``; the per-player lists
    ``g`` and ``g_grad`` repeat each slot's arrays.  Second derivatives are
    not stored.
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

    def per_player(self) -> "Evaluation":
        """This point with every player reading their own constraints.

        Slots already evaluated are reused; ``g`` and ``g.grad`` are called
        only for the players that read another player's slot here.
        """
        own_slots = tuple(range(len(self.slot)))
        if self.slot == own_slots:
            return self
        own = copy.copy(self)
        own.slot = own_slots

        def reuse(held: list, evaluate):
            return lambda nu, x: held[nu] if self.slot[nu] == nu else evaluate(nu, x)

        own.g = own.by_slot(reuse(self.g, self.problem.g_val))
        own.g_grad = own.by_slot(reuse(self.g_grad, self.problem.g_grad))
        return own


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
    """Per-player multiplier estimates ``lam[nu]`` for the constraints ``g``.

    No sign constraint is stored, so a caller may pass any estimate to the
    diagnostics.
    """

    lam: list[np.ndarray]

    @classmethod
    def zeros(cls, problem: GnepProblem) -> "MultiplierSet":
        return cls(lam=[np.zeros(spec.g_count) for spec in problem.players])

    def check_shapes(self, problem: GnepProblem) -> None:
        if len(self.lam) != problem.num_players:
            raise ProblemError("multiplier lists must have one entry per player")
        for nu, spec in enumerate(problem.players):
            if np.asarray(self.lam[nu]).shape != (spec.g_count,):
                raise ProblemError(f"player {nu}: lambda has wrong length")


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
        worst_theta = worst_g = 0.0
        for x in points:
            grad = problem.theta_grad(nu, x)
            fd = central(lambda z: problem.theta(nu, z), x, range(rows.start, rows.stop))
            worst_theta = max(worst_theta, _rel_err(grad, fd))
            if problem.g_val(nu, x).size:
                fd_g = central(lambda z: problem.g_val(nu, z), x, range(problem.n))
                worst_g = max(worst_g, _rel_err(problem.g_grad(nu, x), fd_g))
        entries.append(ValidationEntry(nu, "theta.grad", worst_theta))
        if spec.g_count:
            entries.append(ValidationEntry(nu, "g.grad", worst_g))
    return ValidationReport(fd_tol=fd_tol, entries=entries)
