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
    out: np.ndarray | None = None,
) -> np.ndarray:
    """One element of the generalized Jacobian of :func:`assemble_F`.

    Row block ``nu`` is

        H_theta + rho * sum_{i active} G_own[:, i] G_full[:, i]^T
                + sum_i s_i * H_{g_i}

    with ``s = (u + rho*g)_+``; constraint ``i`` is active where
    ``u_i + rho*g_i > 0``.  A constraint sitting exactly on the activity
    boundary adds no rank-one term, which keeps the element closest to the
    smooth-interior one.  The result is square and in general nonsymmetric.

    With ``out`` (a float array of shape ``(n, n)``, else ``ValueError``)
    the element is written into ``out``, which is returned.  Every row block
    is assigned before anything is added to it, so the old content of
    ``out`` is never read.
    """
    ev = Evaluation.of(problem, x, state.shared)
    n = problem.n
    if out is None:
        V = np.empty((n, n))
    elif out.shape != (n, n) or out.dtype != np.float64:
        raise ValueError(f"out is {out.dtype} of shape {out.shape}, expected float64 ({n}, {n})")
    else:
        V = out
    # A shared state gives every player of a slot the same g, rho and u, so
    # the slot's (rho, G[:, active], its contiguous transpose, s) is worked out
    # once; otherwise per player.
    terms: dict = {}
    for nu in range(problem.num_players):
        rows = problem.block_slice(nu)
        V[rows, :] = problem.theta_hess(nu, ev.x, ev.theta_grad[nu])
        g = ev.g[nu]
        if g.size == 0:
            continue
        key = ev.slot[nu] if state.shared else nu
        if key not in terms:
            rho = state.rho_of(nu)
            t = state.u_of(nu) + rho * g
            active = t > 0.0
            s = np.maximum(0.0, t)
            Ga = ev.g_grad[nu][:, active] if active.any() else None
            GaT = None if Ga is None else np.ascontiguousarray(Ga.T)
            terms[key] = (rho, Ga, GaT, s if s.any() else None)
        rho, Ga, GaT, s = terms[key]
        if Ga is not None:
            # rho * (Ga[rows] @ Ga.T) bit for bit, through BLAS without matmul's overhead.
            P = np.dot(Ga[rows], GaT)
            P *= rho
            V[rows, :] += P
        if s is not None:
            # In variational mode ev.g_grad[nu] is player 0's, not player nu's.
            G_x = ev.g_grad[nu] if ev.slot[nu] == nu else None
            H = problem.g_hess(nu, ev.x, G_x)
            # The product np.tensordot(s, H, axes=1) forms, without its bookkeeping.
            V[rows, :] += np.dot(s.reshape(1, -1), H.reshape(s.size, -1)).reshape(H.shape[1:])
    return V


def shared_penalty_term(problem: GnepProblem, x: np.ndarray, state: PenaltyState) -> float:
    """Penalty term common to all players of a shared-constraint game.

    ``al_value(nu, ...) == theta(nu, x) + shared_penalty_term(...)`` holds
    exactly for every player.
    """
    if not problem.shared_constraints:
        raise ProblemError("shared_penalty_term requires a shared-constraint game")
    return _penalty(problem.g_val(0, x), state.u_of(0), state.rho_of(0))

