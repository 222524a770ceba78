"""Built-in example games with known solutions, plus a brute-force
best-response oracle for desk-scale verification.

Catalog entries:

``duopoly_shared``
    Two quadratic players on a shared budget line ``x1 + x2 <= 1``.  The
    equilibrium set is the segment ``{(a, 1-a) : a in [1/2, 1]}`` (best
    responses ``x1 = min(1, 1-x2)`` and ``x2 = min(1/2, 1-x1)`` intersect
    exactly there); the equilibrium with equal shared multipliers is
    ``(3/4, 1/4)`` with multiplier ``1/2``.
``infeasible_single``
    One player, ``min x`` subject to ``x^2 + 1 <= 0``: no feasible point.
    The squared violation ``(x^2+1)^2`` is stationary only at ``x = 0``.
``example24a`` / ``example24b``
    Constraint-only two-player fixtures exercising the gap between the
    player-wise and concatenated constraint-qualification views.
``quad3``
    Three players with two variables each, strictly convex seeded quadratic
    objectives and a shared linear budget; regression workhorse.
``nonshared2``
    Two players with genuinely different constraints; the unique
    equilibrium is ``(0, 1)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .model import (
    ConstraintBundle,
    GnepProblem,
    ObjectiveBundle,
    PlayerSpec,
    ProblemError,
)

__all__ = [
    "catalog",
    "by_name",
    "duopoly_shared",
    "infeasible_single",
    "example24a",
    "example24b",
    "quad3",
    "nonshared2",
    "OracleConfig",
    "OracleVerdict",
    "BestResponseReport",
    "best_response_check",
    "box_oracle",
]

_QUAD3_SEED = 20230811


def duopoly_shared() -> GnepProblem:
    obj1 = ObjectiveBundle(
        value=lambda x: (x[0] - 1.0) ** 2,
        grad=lambda x: np.array([2.0 * (x[0] - 1.0)]),
        hess=lambda x: np.array([[2.0, 0.0]]),
    )
    obj2 = ObjectiveBundle(
        value=lambda x: (x[1] - 0.5) ** 2,
        grad=lambda x: np.array([2.0 * (x[1] - 0.5)]),
        hess=lambda x: np.array([[0.0, 2.0]]),
    )

    def budget() -> ConstraintBundle:
        return ConstraintBundle(
            count=1,
            value=lambda x: np.array([x[0] + x[1] - 1.0]),
            grad=lambda x: np.array([[1.0], [1.0]]),
            hess=lambda x: np.zeros((1, 1, 2)),
        )

    return GnepProblem(
        [PlayerSpec(1, obj1, g=budget()), PlayerSpec(1, obj2, g=budget())],
        shared_constraints=True,
        name="duopoly_shared",
        x0_presets={
            "origin": [0.0, 0.0],
            "ones": [1.0, 1.0],
            "tens": [10.0, 10.0],
        },
    )


def infeasible_single() -> GnepProblem:
    obj = ObjectiveBundle(
        value=lambda x: x[0],
        grad=lambda x: np.array([1.0]),
        hess=lambda x: np.array([[0.0]]),
    )
    g = ConstraintBundle(
        count=1,
        value=lambda x: np.array([x[0] ** 2 + 1.0]),
        grad=lambda x: np.array([[2.0 * x[0]]]),
        hess=lambda x: np.array([[[2.0]]]),
    )
    return GnepProblem(
        [PlayerSpec(1, obj, g=g)],
        name="infeasible_single",
        x0_presets={"origin": [0.0]},
    )


def _zero_objective(dim: int, n: int) -> ObjectiveBundle:
    return ObjectiveBundle(
        value=lambda x: 0.0,
        grad=lambda x, d=dim: np.zeros(d),
        hess=lambda x, d=dim, k=n: np.zeros((d, k)),
    )


def example24a() -> GnepProblem:
    g1 = ConstraintBundle(
        count=1,
        value=lambda x: np.array([x[0]]),
        grad=lambda x: np.array([[1.0], [0.0]]),
        hess=lambda x: np.zeros((1, 1, 2)),
    )
    g2 = ConstraintBundle(
        count=1,
        value=lambda x: np.array([x[0] + x[1] ** 2]),
        grad=lambda x: np.array([[1.0], [2.0 * x[1]]]),
        hess=lambda x: np.array([[[0.0, 2.0]]]),
    )
    return GnepProblem(
        [
            PlayerSpec(1, _zero_objective(1, 2), g=g1),
            PlayerSpec(1, _zero_objective(1, 2), g=g2),
        ],
        name="example24a",
        x0_presets={"origin": [0.0, 0.0]},
    )


def example24b() -> GnepProblem:
    g1 = ConstraintBundle(
        count=1,
        value=lambda x: np.array([2.0 * x[0] - x[1] ** 2 - 1.0]),
        grad=lambda x: np.array([[2.0], [-2.0 * x[1]]]),
        hess=lambda x: np.zeros((1, 1, 2)),
    )
    g2 = ConstraintBundle(
        count=1,
        value=lambda x: np.array([2.0 * x[1] - x[0] ** 2 - 1.0]),
        grad=lambda x: np.array([[-2.0 * x[0]], [2.0]]),
        hess=lambda x: np.zeros((1, 1, 2)),
    )
    return GnepProblem(
        [
            PlayerSpec(1, _zero_objective(1, 2), g=g1),
            PlayerSpec(1, _zero_objective(1, 2), g=g2),
        ],
        name="example24b",
        x0_presets={"origin": [0.0, 0.0]},
    )


def quad3() -> GnepProblem:
    """Three seeded strictly convex quadratic players on a shared budget.

    All players use the same positive definite quadratic form, so the
    stacked gradient map is strongly monotone and the equilibrium with
    equal shared multipliers is unique.
    """
    rng = np.random.default_rng(_QUAD3_SEED)
    n = 6
    M = rng.standard_normal((n, n))
    Q = M.T @ M / n + np.eye(n)
    # Shift the linear terms so the budget binds at the equilibrium.
    b = rng.standard_normal((3, n)) - 2.0

    def make_objective(nu: int) -> ObjectiveBundle:
        rows = slice(2 * nu, 2 * nu + 2)
        return ObjectiveBundle(
            value=lambda x: 0.5 * float(x @ Q @ x) + float(b[nu] @ x),
            grad=lambda x: (Q @ x + b[nu])[rows],
            hess=lambda x: Q[rows, :],
        )

    def budget() -> ConstraintBundle:
        return ConstraintBundle(
            count=1,
            value=lambda x: np.array([x.sum() - 1.0]),
            grad=lambda x: np.ones((n, 1)),
            hess=lambda x: np.zeros((1, 2, n)),
        )

    players = [PlayerSpec(2, make_objective(nu), g=budget()) for nu in range(3)]
    return GnepProblem(
        players,
        shared_constraints=True,
        name="quad3",
        x0_presets={
            "origin": np.zeros(n),
            "ones": np.ones(n),
            "tens": 10.0 * np.ones(n),
        },
    )


def nonshared2() -> GnepProblem:
    """Distinct per-player constraints; unique equilibrium at ``(0, 1)``.

    Best responses are ``x1 = min(1, 1-x2)`` and, while the disc constraint
    allows it, ``x2 = min(1, sqrt(2 - x1^2))``; the only intersection is
    ``(0, 1)`` with multipliers ``(2, 0)``.
    """
    obj1 = ObjectiveBundle(
        value=lambda x: (x[0] - 1.0) ** 2,
        grad=lambda x: np.array([2.0 * (x[0] - 1.0)]),
        hess=lambda x: np.array([[2.0, 0.0]]),
    )
    obj2 = ObjectiveBundle(
        value=lambda x: (x[1] - 1.0) ** 2,
        grad=lambda x: np.array([2.0 * (x[1] - 1.0)]),
        hess=lambda x: np.array([[0.0, 2.0]]),
    )
    g1 = ConstraintBundle(
        count=1,
        value=lambda x: np.array([x[0] + x[1] - 1.0]),
        grad=lambda x: np.array([[1.0], [1.0]]),
        hess=lambda x: np.zeros((1, 1, 2)),
    )
    g2 = ConstraintBundle(
        count=1,
        value=lambda x: np.array([x[0] ** 2 + x[1] ** 2 - 2.0]),
        grad=lambda x: np.array([[2.0 * x[0]], [2.0 * x[1]]]),
        hess=lambda x: np.array([[[0.0, 2.0]]]),
    )
    return GnepProblem(
        [PlayerSpec(1, obj1, g=g1), PlayerSpec(1, obj2, g=g2)],
        name="nonshared2",
        x0_presets={"origin": [0.0, 0.0]},
    )


_BUILDERS = {
    "duopoly_shared": duopoly_shared,
    "infeasible_single": infeasible_single,
    "example24a": example24a,
    "example24b": example24b,
    "quad3": quad3,
    "nonshared2": nonshared2,
}


def catalog() -> list[GnepProblem]:
    """All built-in games, freshly constructed."""
    return [build() for build in _BUILDERS.values()]


def by_name(name: str) -> GnepProblem:
    try:
        return _BUILDERS[name]()
    except KeyError:
        raise ProblemError(
            f"unknown catalog problem '{name}'; available: {', '.join(_BUILDERS)}"
        ) from None


# ------------------------------------------------------------------- oracle


@dataclass(frozen=True)
class OracleConfig:
    """Grid-search parameters for the best-response oracle.

    ``bounds[nu]`` lists one finite ``(low, high)`` pair per coordinate of
    player ``nu``.  The uniform grid makes the oracle reproducible
    bit-for-bit.
    """

    bounds: tuple[tuple[tuple[float, float], ...], ...]
    resolution: int = 401
    improvement_tol: float = 1e-6
    feas_tol: float = 1e-9

    def __post_init__(self) -> None:
        if self.resolution < 3:
            raise ValueError("grid resolution must be at least 3")
        for per_player in self.bounds:
            for lo, hi in per_player:
                if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
                    raise ValueError("oracle bounds must be finite with low < high")


def box_oracle(
    problem: GnepProblem,
    low: float = 0.0,
    high: float = 1.0,
    resolution: int = 401,
    improvement_tol: float = 1e-6,
) -> OracleConfig:
    """Uniform box bounds for every player."""
    bounds = tuple(
        tuple((low, high) for _ in range(spec.dim)) for spec in problem.players
    )
    return OracleConfig(
        bounds=bounds, resolution=resolution, improvement_tol=improvement_tol
    )


class OracleVerdict(Enum):
    EQUILIBRIUM = "equilibrium"
    IMPROVABLE = "improvable"
    NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class BestResponseReport:
    verdict: OracleVerdict
    player: int | None = None
    better_point: np.ndarray | None = None
    gain: float | None = None
    reason: str = ""


def best_response_check(
    problem: GnepProblem, x: np.ndarray, cfg: OracleConfig
) -> BestResponseReport:
    """Grid search for a unilateral improvement of any player.

    For each player in turn the own block is swept over the configured box
    (other blocks fixed); only grid points satisfying the player's own
    constraints to ``feas_tol`` count.  An improvement must beat the
    tolerance plus a resolution slack of ten cell widths to be reported.
    The check requires ``x`` itself to satisfy every player's own
    constraints; otherwise it is not applicable.
    """
    x = problem.point(x)
    if len(cfg.bounds) != problem.num_players:
        raise ValueError("oracle bounds must list one box per player")
    for nu, spec in enumerate(problem.players):
        if spec.dim > 3:
            raise ProblemError(
                f"player {nu} has dimension {spec.dim}; the grid oracle only "
                "supports dimensions up to 3, skip this check"
            )
        block = problem.block_of(x, nu)
        for i, (lo, hi) in enumerate(cfg.bounds[nu]):
            if not lo <= block[i] <= hi:
                raise ValueError(
                    f"player {nu} coordinate {i} of x is outside the oracle box"
                )
    for nu in range(problem.num_players):
        c = problem.g_val(nu, x)
        if c.size and float(c.max()) > cfg.feas_tol:
            return BestResponseReport(
                OracleVerdict.NOT_APPLICABLE,
                player=nu,
                reason=f"player {nu}'s own constraints are violated at x",
            )
    for nu in range(problem.num_players):
        rows = problem.block_slice(nu)
        axes = [
            np.linspace(lo, hi, cfg.resolution) for (lo, hi) in cfg.bounds[nu]
        ]
        cell = max((hi - lo) / (cfg.resolution - 1) for (lo, hi) in cfg.bounds[nu])
        slack = cfg.improvement_tol + 10.0 * cell
        base = problem.theta(nu, x)
        for candidate in itertools.product(*axes):
            z = x.copy()
            z[rows] = candidate
            c = problem.g_val(nu, z)
            if c.size and float(c.max()) > cfg.feas_tol:
                continue
            gain = base - problem.theta(nu, z)
            if gain > slack:
                return BestResponseReport(
                    OracleVerdict.IMPROVABLE,
                    player=nu,
                    better_point=z,
                    gain=float(gain),
                )
    return BestResponseReport(OracleVerdict.EQUILIBRIUM)
