"""Damped Newton-type solver for square semismooth systems ``F(x) = 0``.

Each iteration solves the regularized normal equations

    (V^T V + alpha * ||F(x)|| * I) d = -V^T F(x)

for a generalized-Jacobian element ``V`` and accepts the step only if it
strictly decreases ``||F||``; otherwise the damping ``alpha`` is grown and
the step recomputed with the same ``V``.  A trial point at which ``F``
cannot be evaluated, or a step whose factorization fails, counts as a
rejected step.  Because ``F`` may be merely semismooth, the re-solve loop
need not terminate; it is cut off once the step shrinks below
``eps / ||V||_F`` (or a retry cap), which is reported as a soft stop
rather than an exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np
import scipy.linalg

from .model import EvaluationError

__all__ = [
    "NotPositiveDefiniteError",
    "spd_solve",
    "lm_step",
    "LmConfig",
    "LmStatus",
    "LmStepLog",
    "LmResult",
    "SemismoothSystem",
    "lm_solve",
]


class NotPositiveDefiniteError(RuntimeError):
    """Cholesky factorization hit a non-positive pivot."""


def spd_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``M x = rhs`` for a symmetric positive definite matrix.

    Parameters
    ----------
    M : ndarray, shape (n, n)
        Must be symmetric to within ``1e-12`` (relative to its magnitude).
    rhs : ndarray, shape (n,)

    Returns
    -------
    ndarray
        Solution with backward error at the Cholesky level.

    Raises
    ------
    ValueError
        If ``M`` is not square, not symmetric, or ``M`` or ``rhs`` has a
        non-finite entry.
    NotPositiveDefiniteError
        If the factorization encounters a non-positive pivot.
    """
    M = np.asarray(M, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if rhs.shape != (M.shape[0],):
        raise ValueError("right-hand side length must match the matrix")
    # NaN or inf anywhere in M makes its largest magnitude NaN or inf.
    peak = float(np.abs(M).max()) if M.size else 0.0
    if not (math.isfinite(peak) and np.isfinite(rhs).all()):
        raise ValueError("matrix and right-hand side must be finite")
    scale = max(1.0, peak)
    if M.size and float(np.abs(M - M.T).max()) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric")
    return _cholesky_solve(M, rhs)


def _cholesky_solve(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Lower Cholesky solve of ``M x = rhs``; reads only the lower triangle of ``M``."""
    try:
        factor = scipy.linalg.cho_factor(M, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(str(exc)) from None
    return scipy.linalg.cho_solve(factor, rhs, check_finite=False)


def lm_step(V: np.ndarray, Fx: np.ndarray, alpha: float) -> np.ndarray:
    """Solve ``(V^T V + alpha*||F|| I) d = -V^T F`` for the trial step ``d``."""
    V = np.asarray(V, dtype=float)
    Fx = np.asarray(Fx, dtype=float)
    fnorm = float(np.linalg.norm(Fx))
    if fnorm == 0.0:
        return np.zeros(V.shape[1])
    n = V.shape[1]
    M = V.T @ V
    # Same sum as V.T @ V + (alpha*fnorm) * eye(n) on the diagonal, without the n x n temporaries.
    M.flat[:: n + 1] += alpha * fnorm
    # VᵀV plus a diagonal is symmetric, so spd_solve's symmetry check cannot fire here.
    return _cholesky_solve(M, -(V.T @ Fx))


@dataclass(frozen=True)
class LmConfig:
    """Damping schedule and stopping parameters."""

    alpha0: float = 1.0
    decrease_factor: float = 0.1
    increase_factor: float = 10.0
    eps: float = 1e-8
    max_iter: int = 200
    max_inner_tries: int = 50
    # Floor keeps the damping out of the denormal range.
    alpha_floor: float = 1e-16

    def __post_init__(self) -> None:
        if not 0.0 < self.decrease_factor < 1.0 < self.increase_factor:
            raise ValueError("need 0 < decrease_factor < 1 < increase_factor")
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if not 0.0 < self.alpha0 < math.inf:
            raise ValueError("alpha0 must be positive and finite")
        if not math.isfinite(self.increase_factor):
            raise ValueError("increase_factor must be finite")
        if not 0.0 <= self.alpha_floor < math.inf:
            raise ValueError("alpha_floor must be finite and nonnegative")
        if self.max_iter < 0 or self.max_inner_tries < 0:
            raise ValueError("max_iter and max_inner_tries must be nonnegative")


class LmStatus(Enum):
    CONVERGED = "converged"
    SAFEGUARD_STOP = "safeguard_stop"
    MAX_ITER = "max_iter"


@dataclass(frozen=True)
class LmStepLog:
    """Bookkeeping for one accepted iteration."""

    alpha_in: float
    resolves: int
    alpha_out: float
    residual_before: float
    residual_after: float
    step_norm: float


@dataclass
class LmResult:
    """Outcome of :func:`lm_solve`; failures are data, not exceptions."""

    x: np.ndarray
    iterations: int
    final_residual: float
    status: LmStatus
    steps: list[LmStepLog] = field(default_factory=list)


@dataclass(frozen=True)
class SemismoothSystem:
    """Residual map together with a generalized-Jacobian provider."""

    residual: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray], np.ndarray]


def lm_solve(system: SemismoothSystem, x0: np.ndarray, cfg: LmConfig | None = None) -> LmResult:
    """Drive the damped iteration from ``x0`` until ``||F|| <= eps``.

    Accepted steps strictly decrease ``||F||``.  After an immediately
    accepted step the damping shrinks by ``decrease_factor``; after ``j``
    re-solves it has grown by ``increase_factor**j`` and is kept.  The
    iteration reports ``SAFEGUARD_STOP`` when the re-solve loop drives the
    step below ``eps / ||V||_F`` or exceeds ``max_inner_tries``, and
    ``MAX_ITER`` when the iteration budget runs out.  A Jacobian that
    cannot be evaluated at the current iterate is a ``SAFEGUARD_STOP``
    there.  Only an evaluation error at ``x0`` itself propagates, and a
    residual that is not finite at ``x0`` raises one.
    """
    if cfg is None:
        cfg = LmConfig()
    x = np.asarray(x0, dtype=float).copy()
    fvec = np.asarray(system.residual(x), dtype=float)
    if not np.isfinite(fvec).all():
        raise EvaluationError("residual is not finite at the start point")
    fnorm = float(np.linalg.norm(fvec))
    alpha = cfg.alpha0
    steps: list[LmStepLog] = []

    for k in range(cfg.max_iter):
        if fnorm <= cfg.eps:
            return LmResult(x, k, fnorm, LmStatus.CONVERGED, steps)
        try:
            V = np.asarray(system.jacobian(x), dtype=float)
        except EvaluationError:
            # No Jacobian here (e.g. a forward-difference point off the domain): stop at x.
            return LmResult(x, k, fnorm, LmStatus.SAFEGUARD_STOP, steps)
        vfro = float(np.linalg.norm(V, "fro"))
        step_floor = math.inf if vfro == 0.0 else cfg.eps / vfro
        alpha_in = alpha
        resolves = 0
        while True:
            try:
                d = lm_step(V, fvec, alpha)
                if resolves and float(np.linalg.norm(d)) < step_floor:
                    return LmResult(x, k, fnorm, LmStatus.SAFEGUARD_STOP, steps)
                x_try = x + d
                f_try = np.asarray(system.residual(x_try), dtype=float)
                fn_try = float(np.linalg.norm(f_try))
            except (NotPositiveDefiniteError, EvaluationError):
                # An unevaluable trial point, or VᵀV swamping the damping under a huge penalty.
                fn_try = math.inf
            if fn_try < fnorm:
                break
            if resolves and resolves >= cfg.max_inner_tries:
                return LmResult(x, k, fnorm, LmStatus.SAFEGUARD_STOP, steps)
            alpha = alpha * cfg.increase_factor
            resolves += 1
        if not resolves:
            alpha = max(cfg.decrease_factor * alpha, cfg.alpha_floor)
        steps.append(
            LmStepLog(
                alpha_in=alpha_in,
                resolves=resolves,
                alpha_out=alpha,
                residual_before=fnorm,
                residual_after=fn_try,
                step_norm=float(np.linalg.norm(d)),
            )
        )
        x = x_try
        fvec = f_try
        fnorm = fn_try

    status = LmStatus.CONVERGED if fnorm <= cfg.eps else LmStatus.MAX_ITER
    return LmResult(x, cfg.max_iter, fnorm, status, steps)
