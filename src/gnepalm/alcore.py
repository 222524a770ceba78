"""Augmented Lagrangian values and gradients, the stacked residual map, and
elements of its generalized Jacobian.

For player ``nu`` with penalized constraints ``g`` the augmented Lagrangian
is the classical shifted quadratic penalty

    L(x, u; rho) = theta(x) + (rho/2) * ||(g(x) + u/rho)_+||^2,

whose own-block gradient is ``grad theta + grad g @ (u + rho*g(x))_+``.
Stacking these gradients over the players gives a square, piecewise-smooth
map ``F`` whose zeros are the stationary points of the penalized game; the
Jacobian element used by the Newton-type subsolver is assembled here.  Where
a function takes ``x | Evaluation``, it reads the evaluation when given one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Evaluation, GnepProblem, ProblemError

__all__ = [
    "PenaltyState",
    "shifted_multiplier",
    "al_value",
    "al_gradient_block",
    "assemble_F",
    "generalized_jacobian",
    "shared_penalty_term",
]


@dataclass
class PenaltyState:
    """Safeguarded multiplier estimates and penalty weights.

    ``u[i]`` lies in ``[0, u_max]`` componentwise and ``rho[i] > 0``.  With
    ``shared=True`` both lists hold a single entry used by every player, so
    cross-player equality is structural rather than numerical.
    """

    u: list[np.ndarray]
    rho: list[float]
    u_max: float
    shared: bool = False

    def __post_init__(self) -> None:
        self.u = [np.asarray(ui, dtype=float) for ui in self.u]
        self.rho = [float(r) for r in self.rho]
        self.u_max = float(self.u_max)
        if self.u_max < 0:
            raise ValueError("u_max must be nonnegative")
        if len(self.u) != len(self.rho):
            raise ValueError("u and rho must have the same number of entries")
        if self.shared and len(self.u) != 1:
            raise ValueError("shared state stores exactly one (u, rho) pair")
        for ui in self.u:
            if ui.size and (ui.min() < 0.0 or ui.max() > self.u_max):
                raise ValueError("safeguarded estimates must lie in [0, u_max]")
        for r in self.rho:
            if not r > 0.0:
                raise ValueError("penalty parameters must be positive")

    def u_of(self, nu: int) -> np.ndarray:
        return self.u[0] if self.shared else self.u[nu]

    def rho_of(self, nu: int) -> float:
        return self.rho[0] if self.shared else self.rho[nu]


def shifted_multiplier(g_val: np.ndarray, u: np.ndarray, rho: float) -> np.ndarray:
    """Componentwise ``(u + rho * g)_+``; the multiplier update rule."""
    g_val = np.asarray(g_val, dtype=float)
    u = np.asarray(u, dtype=float)
    if g_val.shape != u.shape:
        raise ValueError(f"shape mismatch: g {g_val.shape} vs u {u.shape}")
    if not rho > 0.0:
        raise ValueError("rho must be positive")
    return np.maximum(0.0, u + rho * g_val)


def _penalty(g: np.ndarray, u: np.ndarray, rho: float) -> float:
    # The shifted quadratic penalty (rho/2) * ||(g + u/rho)_+||^2.
    shifted = np.maximum(0.0, g + u / rho)
    return 0.5 * rho * float(shifted @ shifted)


def al_value(problem: GnepProblem, nu: int, x: np.ndarray, state: PenaltyState) -> float:
    """Augmented Lagrangian of player ``nu`` at ``x``."""
    theta = problem.theta(nu, x)
    return theta + _penalty(problem.g_val(nu, x), state.u_of(nu), state.rho_of(nu))


def al_gradient_block(
    problem: GnepProblem, nu: int, x: np.ndarray | Evaluation, state: PenaltyState
) -> np.ndarray:
    """Own-block gradient of the augmented Lagrangian of player ``nu``."""
    ev = Evaluation.of(problem, x, state.shared)
    grad = ev.theta_grad[nu]
    g = ev.g[nu]
    if g.size == 0:
        return grad
    s = shifted_multiplier(g, state.u_of(nu), state.rho_of(nu))
    rows = problem.block_slice(nu)
    return grad + ev.g_grad[nu][rows, :] @ s


def assemble_F(
    problem: GnepProblem, x: np.ndarray | Evaluation, state: PenaltyState
) -> np.ndarray:
    """Stacked augmented-Lagrangian gradients, one block per player."""
    ev = Evaluation.of(problem, x, state.shared)
    return np.concatenate(
        [al_gradient_block(problem, nu, ev, state) for nu in range(problem.num_players)]
    )


def generalized_jacobian(
    problem: GnepProblem,
    x: np.ndarray | Evaluation,
    state: PenaltyState,
) -> np.ndarray:
    """One element of the generalized Jacobian of :func:`assemble_F`.

    Row block ``nu`` is

        H_theta + rho * sum_{i active} G_own[:, i] G_full[:, i]^T
                + sum_i s_i * H_{g_i}

    with ``s = (u + rho*g)_+``; constraint ``i`` is active where
    ``u_i + rho*g_i > 0``.  A constraint sitting exactly on the activity
    boundary adds no rank-one term, which keeps the element closest to the
    smooth-interior one.  The result is square and in general nonsymmetric.
    """
    ev = Evaluation.of(problem, x, state.shared)
    n = problem.n
    V = np.empty((n, n))
    for nu in range(problem.num_players):
        rows = problem.block_slice(nu)
        V[rows, :] = problem.theta_hess(nu, ev.x, ev.theta_grad[nu])
        g = ev.g[nu]
        if g.size == 0:
            continue
        rho = state.rho_of(nu)
        t = state.u_of(nu) + rho * g
        active = t > 0.0
        if active.any():
            G = ev.g_grad[nu]
            V[rows, :] += rho * (G[rows, :][:, active] @ G[:, active].T)
        s = np.maximum(0.0, t)
        if s.any():
            # In variational mode ev.g_grad[nu] is player 0's, not player nu's.
            G_x = ev.g_grad[nu] if ev.slot[nu] == nu else None
            V[rows, :] += np.tensordot(s, problem.g_hess(nu, ev.x, G_x), axes=1)
    return V


def shared_penalty_term(problem: GnepProblem, x: np.ndarray, state: PenaltyState) -> float:
    """Penalty term common to all players of a shared-constraint game.

    ``al_value(nu, ...) == theta(nu, x) + shared_penalty_term(...)`` holds
    exactly for every player.
    """
    if not problem.shared_constraints:
        raise ProblemError("shared_penalty_term requires a shared-constraint game")
    return _penalty(problem.g_val(0, x), state.u_of(0), state.rho_of(0))

