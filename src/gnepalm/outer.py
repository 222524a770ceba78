"""Outer multiplier-penalty loop with safeguarded estimates.

``solve`` runs the general method with one multiplier/penalty set per
player; ``solve_variational`` runs the shared-constraint variant that keeps
a single set for all players and therefore targets equilibria whose shared
multipliers coincide.  Both drive the same loop:

1. stop if the joint residuals (feasibility, stationarity, complementarity)
   are below ``eps``;
2. solve the penalized subsystem ``F(x) = 0`` from the previous iterate;
3. update the multipliers to ``(u + rho*g(x))_+``;
4. keep ``rho`` where the complementarity measure improved by the factor
   ``tau``, grow it by ``gamma`` elsewhere;
5. safeguard ``u = min(lambda, u_max)``.

Every constraint is penalized; keeping some out of the penalty would need a
constrained inner solver, which the ``subsolver`` hook does not accept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from .alcore import PenaltyState, assemble_F, generalized_jacobian, shifted_multiplier
from .diagnostics import EPS_FEAS, feasibility_gnep_residual, nnls
from .model import Evaluation, EvaluationError, GnepProblem, MultiplierSet, evaluator
from .subsolver import LmConfig, LmResult, LmStatus, SemismoothSystem, lm_solve

__all__ = [
    "ConfigError",
    "Status",
    "FixedTolerance",
    "GeometricTolerance",
    "OuterConfig",
    "IterationRecord",
    "TerminationReport",
    "initial_multipliers",
    "update_multipliers",
    "update_penalty",
    "update_safeguard",
    "stopping_residuals",
    "solve",
    "solve_variational",
]


# Penalty growth has stopped helping once a penalty exceeds RHO_LIMIT while the
# feasibility residual fell by less than the fraction STALL_RTOL over the last
# STALL_WINDOW iterations; the point is then tested as InfeasibleStationary.
RHO_LIMIT = 1e12
STALL_WINDOW = 5
STALL_RTOL = 1e-3
# A semismooth F can stall just above the inner tolerance at a usable point, so
# a safeguard stop within this factor of the tolerance is accepted.
SOFT_ACCEPT_FACTOR = 1e3


class ConfigError(ValueError):
    """Invalid solver configuration for the given problem."""


class Status(Enum):
    SOLVED_KKT = "SolvedKKT"
    INFEASIBLE_STATIONARY = "InfeasibleStationary"
    MAX_OUTER_ITERATIONS = "MaxOuterIterations"
    SUBSOLVER_FAILURE = "SubsolverFailure"


@dataclass(frozen=True)
class FixedTolerance:
    """Constant inner tolerance."""

    value: float = 1e-8

    def __call__(self, k: int) -> float:
        return self.value


@dataclass(frozen=True)
class GeometricTolerance:
    """Inner tolerance ``max(start * factor**k, floor)``."""

    start: float
    factor: float
    floor: float

    def __call__(self, k: int) -> float:
        return max(self.start * self.factor**k, self.floor)


@dataclass
class OuterConfig:
    """Parameters of the outer loop.

    ``u_max`` bounds the safeguarded multiplier estimates, ``rho0`` is the
    initial penalty, ``eps`` the stopping tolerance on the residual triple,
    ``eps_inner(k)`` the inner tolerance of outer iteration ``k`` and
    ``max_outer`` the iteration budget.  ``tau`` and ``gamma`` default to
    the size-dependent rule ``(0.1, 10)`` for ``n <= 100`` and ``(0.5, 2)``
    for larger games.  The method is chosen by calling :func:`solve` or
    :func:`solve_variational`.
    """

    u_max: float = 1e6
    rho0: float = 1.0
    tau: float | None = None
    gamma: float | None = None
    eps: float = 1e-8
    eps_inner: Callable[[int], float] = FixedTolerance(1e-8)
    max_outer: int = 100

    def __post_init__(self) -> None:
        # Written so that NaN fails each test; u_max = inf switches the
        # safeguard off, an infinite rho0, eps or gamma is an error.
        if not self.u_max >= 0:
            raise ConfigError("u_max must be nonnegative")
        if not 0 < self.rho0 < math.inf:
            raise ConfigError("rho0 must be positive and finite")
        if not 0 < self.eps < math.inf:
            raise ConfigError("eps must be positive and finite")
        if self.max_outer < 1:
            raise ConfigError("max_outer must be at least 1")


@dataclass
class IterationRecord:
    """State after one completed outer iteration.

    ``rho`` is the penalty vector used for this iteration's subproblem
    (length 1 in variational mode), ``u`` the safeguarded estimates produced
    at its end, and ``inner`` the full subsolver log.
    """

    k: int
    x: np.ndarray
    multipliers: MultiplierSet
    u: list[np.ndarray]
    rho: np.ndarray
    inner_iters: int
    residuals: tuple[float, float, float]
    vmeasure: np.ndarray
    inner: LmResult


@dataclass
class TerminationReport:
    """Final status with residual triple and the per-iteration trace.

    ``evaluation`` is the solve's :class:`Evaluation` at ``x``, in the
    constraint layout of the method that ran.
    """

    status: Status
    x: np.ndarray
    multipliers: MultiplierSet
    residuals: tuple[float, float, float]
    rho_max: float
    i_total: int
    evaluation: Evaluation
    trace: list[IterationRecord] = field(default_factory=list)
    shared: bool = False
    message: str = ""

    @property
    def outer_iterations(self) -> int:
        return len(self.trace)


# --------------------------------------------------------------------- pieces


def initial_multipliers(problem: GnepProblem, x0: np.ndarray | Evaluation) -> MultiplierSet:
    """Least-squares multiplier start.

    Components with ``g_i(x0) < 0`` start at zero; over the remaining ones
    the stacked stationarity system of the players in each constraint slot
    of the :class:`Evaluation` is fit in a nonnegative least-squares sense.
    """
    ev = Evaluation.of(problem, x0)

    def fit(s: int, _x) -> np.ndarray:
        members = [nu for nu, t in enumerate(ev.slot) if t == s]
        lam = np.zeros(ev.g[s].size)
        active = ev.g[s] >= 0.0
        if active.any():
            A = np.vstack([ev.g_grad[s][problem.block_slice(nu), :] for nu in members])
            b = -np.concatenate([ev.theta_grad[nu] for nu in members])
            lam[active] = nnls(A[:, active], b)
        return lam

    return MultiplierSet(lam=ev.by_slot(fit))


def update_multipliers(
    problem: GnepProblem, x_next: np.ndarray | Evaluation, state: PenaltyState
) -> list[np.ndarray]:
    """Shifted-multiplier update, one entry per ``(u, rho)`` pair of the state."""
    ev = Evaluation.of(problem, x_next, state.shared)
    return [
        shifted_multiplier(ev.g[s], u, rho)
        for s, (u, rho) in enumerate(zip(state.u, state.rho))
    ]


def update_penalty(
    vmeasure_new: np.ndarray,
    vmeasure_old: np.ndarray,
    tau: float,
    gamma: float,
    rho: np.ndarray,
) -> np.ndarray:
    """Keep ``rho`` where the measure improved by factor ``tau``, else grow by ``gamma``."""
    vn = np.atleast_1d(np.asarray(vmeasure_new, dtype=float))
    vo = np.atleast_1d(np.asarray(vmeasure_old, dtype=float))
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    return np.where(vn <= tau * vo, rho, gamma * rho)


def update_safeguard(lam: Sequence[np.ndarray], u_max: float) -> list[np.ndarray]:
    """Clamp multiplier estimates into ``[0, u_max]``."""
    return [np.clip(np.asarray(l, dtype=float), 0.0, u_max) for l in lam]


def stopping_residuals(
    problem: GnepProblem, x: np.ndarray | Evaluation, lam: Sequence[np.ndarray]
) -> tuple[float, float, float]:
    """Max-norm (feasibility, stationarity, complementarity) residual triple."""
    ev = Evaluation.of(problem, x)
    r_f = r_o = r_c = 0.0
    for nu in range(problem.num_players):
        g = ev.g[nu]
        l = np.asarray(lam[nu], dtype=float)
        rows = problem.block_slice(nu)
        stat = ev.theta_grad[nu] + ev.g_grad[nu][rows, :] @ l
        r_o = max(r_o, float(np.abs(stat).max()) if stat.size else 0.0)
        if g.size:
            r_f = max(r_f, float(np.maximum(g, 0.0).max()))
            r_c = max(r_c, abs(float(g @ l)))
    return (r_f, r_o, r_c)


# ---------------------------------------------------------------- the driver


def _resolve_tau_gamma(problem: GnepProblem, cfg: OuterConfig) -> tuple[float, float]:
    def resolve(value, default, name):
        if value is None:
            return default
        if np.ndim(value) != 0:
            raise ConfigError(f"{name} must be a single number")
        return float(value)

    # Aggressive penalization for small games, cautious for large ones.
    small = problem.n <= 100
    tau = resolve(cfg.tau, 0.1 if small else 0.5, "tau")
    if not 0.0 < tau < 1.0:
        raise ConfigError("tau must lie in (0, 1)")
    gamma = resolve(cfg.gamma, 10.0 if small else 2.0, "gamma")
    if not 1.0 < gamma < math.inf:
        raise ConfigError("gamma must be > 1 and finite")
    return tau, gamma


def _vmeasure(ev: Evaluation, lam: Sequence[np.ndarray]) -> np.ndarray:
    # One complementarity measure per constraint slot.
    return np.array(
        [float(np.linalg.norm(np.minimum(-ev.g[s], l))) for s, l in enumerate(lam)]
    )


def _default_subsolver(at=None):
    """Damped Newton-type subsolver; ``at`` is the solve's :func:`evaluator`."""

    def run(problem: GnepProblem, state: PenaltyState, x_start: np.ndarray, tol: float) -> LmResult:
        point = at or evaluator(problem, state.shared)
        system = SemismoothSystem(
            residual=lambda x: assemble_F(problem, point(x), state),
            jacobian=lambda x: generalized_jacobian(problem, point(x), state),
        )
        try:
            return lm_solve(system, x_start, LmConfig(eps=tol))
        except EvaluationError:
            # x_start's callbacks were evaluated before this call, so F's own arithmetic overflowed.
            return LmResult(np.array(x_start, dtype=float), 0, math.inf, LmStatus.SAFEGUARD_STOP)

    return run


def _rho_stalled(trace: list[IterationRecord], state: PenaltyState) -> bool:
    if max(state.rho) <= RHO_LIMIT:
        return False
    if len(trace) <= STALL_WINDOW:
        return False
    old = trace[-1 - STALL_WINDOW].residuals[0]
    new = trace[-1].residuals[0]
    if old <= 0.0:
        return False
    return (old - new) < STALL_RTOL * old


def _run(
    problem: GnepProblem,
    x0: np.ndarray,
    cfg: OuterConfig | None,
    shared: bool,
    subsolver,
) -> TerminationReport:
    cfg = cfg or OuterConfig()
    tau, gamma = _resolve_tau_gamma(problem, cfg)
    at = evaluator(problem, shared)
    x = problem.point(x0).copy()
    ev = at(x)
    slot = ev.slot
    # One multiplier vector per constraint slot; slot s is player s's.
    lam = initial_multipliers(problem, ev).lam[: max(slot) + 1]
    rho = np.full(len(lam), cfg.rho0)
    u = update_safeguard(lam, cfg.u_max)
    state = PenaltyState(u=u, rho=list(rho), u_max=cfg.u_max, shared=shared)
    vmeas_old = _vmeasure(ev, lam)

    if subsolver is None:
        subsolver = _default_subsolver(at)

    trace: list[IterationRecord] = []
    i_total = 0
    res = stopping_residuals(problem, ev, [lam[s] for s in slot])
    status = None
    message = ""

    for k in range(1, cfg.max_outer + 1):
        if max(res) <= cfg.eps:
            status = Status.SOLVED_KKT
            break
        if _rho_stalled(trace, state):
            if np.max(feasibility_gnep_residual(problem, ev)) <= EPS_FEAS:
                status = Status.INFEASIBLE_STATIONARY
                message = (
                    "penalty growth stalled on an infeasible point that is "
                    "stationary for the constraint-violation game"
                )
                break
        eps_k = cfg.eps_inner(k - 1)
        inner = subsolver(problem, state, x, eps_k)
        i_total += inner.iterations
        x = inner.x
        ev = at(x)
        if inner.status is not LmStatus.CONVERGED:
            if inner.final_residual > eps_k * SOFT_ACCEPT_FACTOR:
                status = Status.SUBSOLVER_FAILURE
                message = (
                    f"inner solver stopped ({inner.status.value}) with residual "
                    f"{inner.final_residual:.3e} above the acceptable slack"
                )
                res = stopping_residuals(problem, ev, [lam[s] for s in slot])
                break
        lam = update_multipliers(problem, ev, state)
        vmeas_new = _vmeasure(ev, lam)
        rho_next = update_penalty(vmeas_new, vmeas_old, tau, gamma, rho)
        u_next = update_safeguard(lam, cfg.u_max)
        res = stopping_residuals(problem, ev, [lam[s] for s in slot])
        trace.append(
            IterationRecord(
                k=k,
                x=x.copy(),
                # Players that share a slot alias the same arrays.
                multipliers=MultiplierSet(lam=[lam[s] for s in slot]),
                u=[ui.copy() for ui in u_next],
                rho=rho.copy(),
                inner_iters=inner.iterations,
                residuals=res,
                vmeasure=vmeas_new.copy(),
                inner=inner,
            )
        )
        rho = rho_next
        state = PenaltyState(u=u_next, rho=list(rho), u_max=cfg.u_max, shared=shared)
        vmeas_old = vmeas_new

    if status is None:
        if max(res) <= cfg.eps:
            # converged exactly on the last allowed iteration
            status = Status.SOLVED_KKT
        elif res[0] > cfg.eps and np.max(feasibility_gnep_residual(problem, ev)) <= EPS_FEAS:
            status = Status.INFEASIBLE_STATIONARY
            message = (
                "iteration budget exhausted at an infeasible point that is "
                "stationary for the constraint-violation game"
            )
        else:
            status = Status.MAX_OUTER_ITERATIONS
            message = "iteration budget exhausted"

    rho_max = float(max((float(rec.rho.max()) for rec in trace), default=cfg.rho0))
    return TerminationReport(
        status=status,
        x=x,
        multipliers=MultiplierSet(lam=[lam[s] for s in slot]),
        residuals=res,
        rho_max=rho_max,
        i_total=i_total,
        evaluation=ev,
        trace=trace,
        shared=shared,
        message=message,
    )


def solve(
    problem: GnepProblem,
    x0: np.ndarray,
    cfg: OuterConfig | None = None,
    subsolver=None,
) -> TerminationReport:
    """Run the general method with per-player multipliers and penalties.

    Parameters
    ----------
    problem : GnepProblem
    x0 : array of length ``n``
    cfg : OuterConfig, optional
    subsolver : callable, optional
        ``(problem, state, x_start, tol) -> LmResult``; defaults to the
        damped Newton-type solver on the stacked gradient system.

    Returns
    -------
    TerminationReport
    """
    return _run(problem, x0, cfg, shared=False, subsolver=subsolver)


def solve_variational(
    problem: GnepProblem,
    x0: np.ndarray,
    cfg: OuterConfig | None = None,
    subsolver=None,
) -> TerminationReport:
    """Run the shared-constraint variant with a single multiplier set.

    Requires ``problem.shared_constraints``; the returned report certifies
    the structural sharing (``report.shared`` and aliased multiplier
    entries).
    """
    if not problem.shared_constraints:
        raise ConfigError(
            "solve_variational requires a problem built with shared_constraints=True"
        )
    return _run(problem, x0, cfg, shared=True, subsolver=subsolver)
