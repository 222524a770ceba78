"""Point classification for N-player games.

Three executable checks:

* per-player KKT residuals (stationarity and complementarity in max norm);
* stationarity for the constraint-violation game, in which each player
  minimizes the squared violation of their penalized constraints subject to
  the kept ones (limit points of the multiplier-penalty loop land there
  when feasibility cannot be reached);
* a player-wise extended Mangasarian-Fromovitz test, decided through
  positive linear independence of the active own-block gradients.

Each check takes ``x`` or its :class:`Evaluation`; :func:`diagnose` runs
them all on one.  :func:`nnls` decides the independence test and also fits
the outer loop's initial multipliers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np
import scipy.optimize

from .model import Evaluation, GnepProblem, MultiplierSet

__all__ = [
    "EPS_FEAS",
    "NnlsError",
    "nnls",
    "kkt_residual",
    "feasibility_gnep_residual",
    "PliVerdict",
    "positive_linear_independence",
    "EmfcqStatus",
    "EmfcqVerdict",
    "emfcq_check",
    "PointClass",
    "classify_point",
    "DiagnosticsVerdict",
    "diagnose",
]

# Weight of the appended normalization row in the simplex least-squares fit.
SIMPLEX_PENALTY = 1e6
# Bound on the constraint-violation game's residual below which an infeasible
# point counts as stationary.  The outer loop stops with InfeasibleStationary
# under this same bound, so the solver and the check that certifies it agree.
EPS_FEAS = 1e-6


class NnlsError(RuntimeError):
    """The nonnegative least-squares iteration exceeded its cap."""


def nnls(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Nonnegative least squares ``argmin_{w >= 0} ||A w - b||``.

    Thin wrapper around the Lawson-Hanson active-set iteration with the
    iteration count capped at ``10 * columns``.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("nnls requires finite inputs")
    if A.shape[0] != b.shape[0]:
        raise ValueError("matrix and right-hand side sizes do not match")
    if A.shape[1] == 0:
        return np.zeros(0)
    try:
        sol, _ = scipy.optimize.nnls(A, b, maxiter=max(1, 10 * A.shape[1]))
    except RuntimeError as exc:
        raise NnlsError(str(exc)) from None
    return sol


def _inf_norm(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if v.size else 0.0


def _constraints(ev: Evaluation, nu: int) -> np.ndarray:
    # All constraints of player nu: penalized group first, kept group after.
    return np.concatenate([ev.g[nu], ev.h[nu]])


def kkt_residual(
    problem: GnepProblem, x: np.ndarray | Evaluation, multipliers: MultiplierSet
) -> list[tuple[float, float]]:
    """Per-player ``(stationarity, complementarity)`` residuals in max norm.

    Stationarity is ``||grad theta + grad g @ lam + grad h @ mu||`` over the
    player's own block; complementarity is ``||min(-c, (lam, mu))||`` over
    all of the player's constraints.
    """
    ev = Evaluation.of(problem, x)
    multipliers.check_shapes(problem)
    out = []
    for nu in range(problem.num_players):
        rows = problem.block_slice(nu)
        lam = np.asarray(multipliers.lam[nu], dtype=float)
        mu = np.asarray(multipliers.mu[nu], dtype=float)
        stat = (
            ev.theta_grad[nu]
            + ev.g_grad[nu][rows, :] @ lam
            + ev.h_grad[nu][rows, :] @ mu
        )
        c = _constraints(ev, nu)
        w = np.concatenate([lam, mu])
        comp = _inf_norm(np.minimum(-c, w)) if c.size else 0.0
        out.append((_inf_norm(stat), comp))
    return out


def feasibility_gnep_residual(
    problem: GnepProblem,
    x: np.ndarray | Evaluation,
    mu_hat: Sequence[np.ndarray] | None = None,
) -> np.ndarray:
    """Per-player KKT residual of the constraint-violation game.

    Player ``nu`` minimizes ``||g_+(x)||^2`` subject to ``h(x) <= 0``; the
    residual combines the own-block stationarity of that problem with the
    complementarity of ``mu_hat`` (pass nothing when every constraint is
    penalized).
    """
    ev = Evaluation.of(problem, x)
    out = np.empty(problem.num_players)
    for nu in range(problem.num_players):
        rows = problem.block_slice(nu)
        gplus = np.maximum(ev.g[nu], 0.0)
        grad = 2.0 * (ev.g_grad[nu][rows, :] @ gplus)
        h = ev.h[nu]
        mu = (
            np.zeros(h.size)
            if mu_hat is None
            else np.asarray(mu_hat[nu], dtype=float)
        )
        if mu.shape != (h.size,):
            raise ValueError(f"player {nu}: mu_hat has wrong length")
        if h.size:
            grad = grad + ev.h_grad[nu][rows, :] @ mu
            comp = _inf_norm(np.minimum(-h, mu))
        else:
            comp = 0.0
        out[nu] = max(_inf_norm(grad), comp)
    return out


@dataclass(frozen=True)
class PliVerdict:
    """Outcome of the positive-linear-independence test.

    ``sigma`` is the minimum of ``||V w||`` over the unit simplex; the
    columns are positively linearly independent exactly when it is positive,
    and ``weights`` attains it.
    """

    independent: bool
    sigma: float
    weights: np.ndarray


def positive_linear_independence(V: np.ndarray, tol: float = 1e-8) -> PliVerdict:
    """Decide whether any nontrivial nonnegative combination of columns vanishes.

    The simplex-constrained least-squares problem is solved as a
    nonnegative fit with a penalized normalization row; ``sigma <= tol``
    yields a dependence certificate.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    d, k = V.shape
    if k < 1:
        raise ValueError("at least one column is required")
    A = np.vstack([V, np.full((1, k), SIMPLEX_PENALTY)])
    b = np.concatenate([np.zeros(d), [SIMPLEX_PENALTY]])
    w = nnls(A, b)
    s = float(w.sum())
    if s > 0.0:
        w = w / s
    else:
        # Fit collapsed (enormous columns); fall back to the best vertex.
        j = int(np.argmin(np.linalg.norm(V, axis=0)))
        w = np.zeros(k)
        w[j] = 1.0
    sigma = float(np.linalg.norm(V @ w))
    return PliVerdict(independent=sigma > tol, sigma=sigma, weights=w)


class EmfcqStatus(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class EmfcqVerdict:
    """Player-wise extended MFCQ outcome.

    ``HOLDS`` carries a direction along which every near-active constraint
    strictly descends; ``FAILS`` carries simplex weights certifying a
    vanishing nonnegative combination; ``INCONCLUSIVE`` flags a tolerance
    conflict between the independence test and the direction check.
    """

    status: EmfcqStatus
    direction: np.ndarray | None = None
    weights: np.ndarray | None = None
    active: np.ndarray | None = None


def emfcq_check(
    problem: GnepProblem, nu: int, x: np.ndarray | Evaluation, tol: float = 1e-8
) -> EmfcqVerdict:
    """Extended MFCQ for player ``nu`` at ``x``.

    Constraints with ``c_i(x) >= -tol`` count as active (the slack makes the
    check stable near boundaries).  With no active constraints the condition
    holds vacuously with the zero direction.
    """
    ev = Evaluation.of(problem, x)
    rows = problem.block_slice(nu)
    c = _constraints(ev, nu)
    active = np.flatnonzero(c >= -tol)
    dim = problem.players[nu].dim
    if active.size == 0:
        return EmfcqVerdict(EmfcqStatus.HOLDS, direction=np.zeros(dim), active=active)
    V = np.hstack([ev.g_grad[nu], ev.h_grad[nu]])[rows, :][:, active]
    pli = positive_linear_independence(V, tol)
    if not pli.independent:
        return EmfcqVerdict(EmfcqStatus.FAILS, weights=pli.weights, active=active)
    gram = V.T @ V
    w, *_ = np.linalg.lstsq(gram, np.ones(active.size), rcond=None)
    d = -V @ w
    dnorm = float(np.linalg.norm(d))
    if dnorm > 0.0 and np.all(V.T @ d < -tol * dnorm):
        return EmfcqVerdict(EmfcqStatus.HOLDS, direction=d, active=active)
    return EmfcqVerdict(EmfcqStatus.INCONCLUSIVE, active=active)


class PointClass(Enum):
    FEASIBLE_KKT = "FeasibleKKT"
    INFEASIBLE_STATIONARY = "InfeasibleStationary"
    NEITHER = "Neither"


def classify_point(
    problem: GnepProblem,
    x: np.ndarray | Evaluation,
    multipliers: MultiplierSet,
    eps: float = 1e-8,
) -> PointClass:
    """Classify ``x`` as a KKT point, a stationary infeasible point, or neither.

    Violation-game stationarity is judged against :data:`EPS_FEAS`.
    """
    ev = Evaluation.of(problem, x)
    kkt = kkt_residual(problem, ev, multipliers)
    return _classify(ev, kkt, feasibility_gnep_residual(problem, ev), eps)


def _classify(ev: Evaluation, kkt: list, feasibility_gnep: np.ndarray, eps: float) -> PointClass:
    worst_kkt = max(max(p) for p in kkt)
    viol = 0.0
    for nu in range(len(ev.slot)):
        viol = max(viol, _inf_norm(np.maximum(_constraints(ev, nu), 0.0)))
    if worst_kkt <= eps and viol <= eps:
        return PointClass.FEASIBLE_KKT
    if viol > eps and float(np.max(feasibility_gnep)) <= EPS_FEAS:
        return PointClass.INFEASIBLE_STATIONARY
    return PointClass.NEITHER


@dataclass
class DiagnosticsVerdict:
    """Bundle of all checks at one point, with the tolerance used."""

    kkt: list[tuple[float, float]]
    feasibility_gnep: np.ndarray
    emfcq: list[EmfcqVerdict]
    classification: PointClass
    eps: float

    def to_dict(self) -> dict:
        return {
            "classification": self.classification.value,
            "eps": self.eps,
            "players": [
                {
                    "stationarity": float(stat),
                    "complementarity": float(comp),
                    "feasibility_gnep": float(self.feasibility_gnep[nu]),
                    "emfcq": self.emfcq[nu].status.value,
                }
                for nu, (stat, comp) in enumerate(self.kkt)
            ],
        }


def diagnose(
    problem: GnepProblem,
    x: np.ndarray,
    multipliers: MultiplierSet,
    eps: float = 1e-8,
) -> DiagnosticsVerdict:
    """Run every check once at ``x`` and collect the verdicts."""
    ev = Evaluation(problem, x)
    kkt = kkt_residual(problem, ev, multipliers)
    feasibility_gnep = feasibility_gnep_residual(problem, ev)
    return DiagnosticsVerdict(
        kkt=kkt,
        feasibility_gnep=feasibility_gnep,
        emfcq=[emfcq_check(problem, nu, ev) for nu in range(problem.num_players)],
        classification=_classify(ev, kkt, feasibility_gnep, eps),
        eps=eps,
    )
