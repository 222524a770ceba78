import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import make_state, single_player

from gnepalm import cli, outer, problems
from gnepalm.alcore import PenaltyState, generalized_jacobian
from gnepalm.diagnostics import PointClass, diagnose
from gnepalm.model import (
    FD_HESS_STEP,
    ConstraintBundle,
    EvaluationError,
    GnepProblem,
    ObjectiveBundle,
    PlayerSpec,
)
from gnepalm.outer import (
    ConfigError,
    FixedTolerance,
    GeometricTolerance,
    OuterConfig,
    Status,
    initial_multipliers,
    nnls,
    solve,
    solve_variational,
    stopping_residuals,
    update_multipliers,
    update_penalty,
    update_safeguard,
)
from gnepalm.outer import _default_subsolver
from gnepalm.subsolver import LmResult, LmStatus


def nnls_kkt_ok(A, b, w, tol=1e-10):
    grad = A.T @ (A @ w - b)
    return (w >= 0).all() and (grad >= -tol).all() and abs(w @ grad) <= tol


class TestNnls:
    def test_clamped_identity_fit(self):
        w = nnls(np.eye(2), np.array([1.0, -1.0]))
        np.testing.assert_array_equal(w, [1.0, 0.0])

    def test_zero_rhs(self):
        w = nnls(np.eye(3), np.zeros(3))
        np.testing.assert_array_equal(w, np.zeros(3))

    def test_empty_columns(self):
        assert nnls(np.zeros((3, 0)), np.ones(3)).shape == (0,)

    def test_random_instances_satisfy_kkt_and_beat_sampling(self, rng):
        for _ in range(20):
            A = rng.standard_normal((5, 3))
            b = rng.standard_normal(5)
            w = nnls(A, b)
            assert nnls_kkt_ok(A, b, w)
            best = np.linalg.norm(A @ w - b)
            trials = rng.uniform(0, 1 + w.max(), size=(1000, 3))
            trial_objs = np.linalg.norm(trials @ A.T - b, axis=1)
            assert best <= trial_objs.min() + 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            nnls(np.array([[np.inf]]), np.array([1.0]))


class TestInitialMultipliers:
    def test_zero_gradient_gives_zero(self):
        prob = single_player(
            theta=lambda x: 0.0, grad=lambda x: 0.0, g=lambda x: x, g_grad=lambda x: 1.0
        )
        ms = initial_multipliers(prob, np.zeros(1))
        np.testing.assert_array_equal(ms.lam[0], [0.0])

    def test_exact_one_dimensional_fit(self):
        # grad theta = -2, active column gradient 1  =>  lambda = 2
        prob = single_player(
            theta=lambda x: -2.0 * x, grad=lambda x: -2.0,
            g=lambda x: x, g_grad=lambda x: 1.0,
        )
        ms = initial_multipliers(prob, np.zeros(1))
        np.testing.assert_allclose(ms.lam[0], [2.0])

    def test_strictly_inactive_prefiltered(self):
        prob = single_player(
            theta=lambda x: -2.0 * x, grad=lambda x: -2.0,
            g=lambda x: x - 5.0, g_grad=lambda x: 1.0,
        )
        ms = initial_multipliers(prob, np.zeros(1))
        np.testing.assert_array_equal(ms.lam[0], [0.0])


class TestUpdates:
    def test_multiplier_update_matches_shift(self, duopoly):
        state = make_state(duopoly, u_value=0.25, rho=2.0)
        x = np.array([0.8, 0.8])
        lam = update_multipliers(duopoly, x, state)
        # (0.25 + 2 * 0.6)_+ = 1.45 for both players
        np.testing.assert_allclose(lam[0], [1.45])
        np.testing.assert_allclose(lam[1], [1.45])

    def test_variational_update_is_single_vector(self, duopoly):
        state = make_state(duopoly, u_value=0.0, rho=1.0, shared=True)
        lam = update_multipliers(duopoly, np.array([1.0, 1.0]), state)
        assert len(lam) == 1

    def test_quadratic_penalty_reduction(self, duopoly):
        # u_max = 0 forces u = 0, so lambda = rho * g_+ bit-exactly
        state = make_state(duopoly, u_value=0.0, rho=7.0, u_max=0.0)
        x = np.array([1.0, 0.5])
        lam = update_multipliers(duopoly, x, state)
        g = duopoly.g_val(0, x)
        np.testing.assert_array_equal(lam[0], np.maximum(0.0, 7.0 * g))

    def test_zero_constraint_returns_u(self, duopoly):
        state = make_state(duopoly, u_value=0.4, rho=3.0)
        x = np.array([0.5, 0.5])  # g = 0 exactly
        lam = update_multipliers(duopoly, x, state)
        np.testing.assert_array_equal(lam[0], [0.4])

    def test_penalty_kept_on_improvement(self):
        rho = update_penalty(np.array([0.05]), np.array([1.0]), 0.1, 10.0, np.array([1.0]))
        np.testing.assert_array_equal(rho, [1.0])

    def test_penalty_grown_without_improvement(self):
        rho = update_penalty(np.array([0.5]), np.array([1.0]), 0.1, 10.0, np.array([1.0]))
        np.testing.assert_array_equal(rho, [10.0])

    def test_penalty_degenerate_zero_measures(self):
        # 0 <= tau * 0 holds, so rho is kept
        rho = update_penalty(np.array([0.0]), np.array([0.0]), 0.1, 10.0, np.array([3.0]))
        np.testing.assert_array_equal(rho, [3.0])

    def test_penalty_per_player(self):
        rho = update_penalty(
            np.array([0.05, 0.5]), np.array([1.0, 1.0]), 0.1, 10.0, np.array([1.0, 1.0])
        )
        np.testing.assert_array_equal(rho, [1.0, 10.0])

    def test_safeguard_clamps(self):
        u = update_safeguard([np.array([1e9])], 1e6)
        np.testing.assert_array_equal(u[0], [1e6])

    def test_safeguard_keeps_small_values(self):
        u = update_safeguard([np.array([0.3])], 1e6)
        np.testing.assert_array_equal(u[0], [0.3])

    def test_safeguard_zero_cap(self):
        u = update_safeguard([np.array([5.0, 0.1])], 0.0)
        np.testing.assert_array_equal(u[0], [0.0, 0.0])


class TestStoppingResiduals:
    def test_all_zero(self):
        prob = single_player(
            theta=lambda x: 0.0, grad=lambda x: 0.0, g=lambda x: x - 1.0, g_grad=lambda x: 1.0
        )
        res = stopping_residuals(prob, np.zeros(1), [np.zeros(1)])
        assert res == (0.0, 0.0, 0.0)

    def test_direct_formulas(self):
        # g = 0.3 with zero gradient, grad theta = 0.1, lambda = 2:
        # R_f = 0.3, R_o = 0.1, R_c = 0.6
        prob = single_player(
            theta=lambda x: 0.1 * x, grad=lambda x: 0.1,
            g=lambda x: 0.3, g_grad=lambda x: 0.0,
        )
        res = stopping_residuals(prob, np.zeros(1), [np.array([2.0])])
        assert res == (0.3, 0.1, pytest.approx(0.6))

    def test_duopoly_equilibrium_closed_form(self, duopoly):
        # (3/4, 1/4) with shared multiplier 1/2 satisfies the optimality
        # system exactly: 2(x1-1) + 1/2 = 0 and 2(x2-1/2) + 1/2 = 0.
        res = stopping_residuals(
            duopoly, np.array([0.75, 0.25]), [np.array([0.5]), np.array([0.5])]
        )
        assert max(res) <= 1e-12


class TestSolve:
    def test_unconstrained_single_outer_iteration(self):
        prob = single_player(
            theta=lambda x: (x - 3.0) ** 2, grad=lambda x: 2.0 * (x - 3.0),
            hess=lambda x: 2.0,
        )
        report = solve(prob, np.zeros(1))
        assert report.status is Status.SOLVED_KKT
        assert report.outer_iterations == 1
        assert abs(report.x[0] - 3.0) <= 1e-8

    def test_duopoly_general_lands_on_equilibrium_segment(self, duopoly):
        report = solve(duopoly, np.zeros(2))
        assert report.status is Status.SOLVED_KKT
        assert abs(report.x.sum() - 1.0) <= 1e-6
        assert 0.5 - 1e-6 <= report.x[0] <= 1.0 + 1e-6

    def test_duopoly_variational_unique_point(self, duopoly):
        report = solve_variational(duopoly, np.zeros(2), OuterConfig())
        assert report.status is Status.SOLVED_KKT
        np.testing.assert_allclose(report.x, [0.75, 0.25], atol=1e-6)
        np.testing.assert_allclose(report.multipliers.lam[0], [0.5], atol=1e-6)

    def test_general_and_variational_modes_differ_from_asymmetric_start(self, duopoly):
        # the asymmetric start seeds different per-player multipliers, so
        # the general loop may settle anywhere on the segment; the shared
        # loop always picks the point with coinciding multipliers
        x0 = np.array([0.0, 2.0])
        general = solve(duopoly, x0, OuterConfig(eps=1e-9))
        assert general.status is Status.SOLVED_KKT
        assert abs(general.x.sum() - 1.0) <= 1e-6
        assert 0.5 - 1e-6 <= general.x[0] <= 1.0 + 1e-6
        variational = solve_variational(
            duopoly, x0, OuterConfig(eps=1e-9)
        )
        np.testing.assert_allclose(variational.x, [0.75, 0.25], atol=1e-6)
        # both are genuine equilibria even when they disagree
        from gnepalm.problems import OracleVerdict, best_response_check, box_oracle

        cfg = box_oracle(duopoly, 0.0, 1.0)
        for rep in (general, variational):
            out = best_response_check(duopoly, np.clip(rep.x, 0.0, 1.0), cfg)
            assert out.verdict is OracleVerdict.EQUILIBRIUM

    def test_variational_requires_shared(self):
        prob = problems.nonshared2()
        with pytest.raises(ConfigError):
            solve_variational(prob, np.zeros(2), OuterConfig())

    def test_infeasible_detection(self, infeasible):
        report = solve(infeasible, np.zeros(1))
        assert report.status is Status.INFEASIBLE_STATIONARY
        assert abs(report.x[0]) <= 1e-4

    def test_nonshared_distinct_constraints(self):
        prob = problems.nonshared2()
        report = solve(prob, np.zeros(2))
        assert report.status is Status.SOLVED_KKT
        np.testing.assert_allclose(report.x, [0.0, 1.0], atol=1e-6)
        np.testing.assert_allclose(report.multipliers.lam[0], [2.0], atol=1e-5)
        np.testing.assert_allclose(report.multipliers.lam[1], [0.0], atol=1e-8)

    def test_solved_status_recheckable(self, duopoly):
        report = solve(duopoly, np.zeros(2))
        res = stopping_residuals(duopoly, report.x, report.multipliers.lam)
        assert max(res) <= 1e-8

    def test_variational_structural_sharing(self, duopoly):
        report = solve_variational(duopoly, np.zeros(2), OuterConfig())
        assert report.shared
        assert report.multipliers.lam[0] is report.multipliers.lam[1]
        for rec in report.trace:
            assert rec.multipliers.lam[0] is rec.multipliers.lam[1]
            assert rec.rho.shape == (1,)

    def test_trace_invariants(self, duopoly):
        cfg = OuterConfig()
        report = solve(duopoly, np.array([10.0, 10.0]), cfg)
        assert report.status is Status.SOLVED_KKT
        gamma = 10.0  # size-dependent default for n <= 100
        prev = np.full(duopoly.num_players, cfg.rho0)
        for rec in report.trace:
            ratio_ok = (rec.rho == prev) | (rec.rho == gamma * prev)
            assert ratio_ok.all()
            assert (rec.rho >= prev).all()
            prev = rec.rho
            for u in rec.u:
                assert (u >= 0).all() and (u <= cfg.u_max).all()
            for lam in rec.multipliers.lam:
                assert (lam >= 0).all()
            norms = [s.residual_before for s in rec.inner.steps] + [
                rec.inner.final_residual
            ]
            assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_quadratic_penalty_run(self, duopoly):
        cfg = OuterConfig(u_max=0.0, eps=1e-6)
        report = solve(duopoly, np.zeros(2), cfg)
        assert report.status is Status.SOLVED_KKT
        assert max(report.residuals) <= 1e-6
        for rec in report.trace:
            for u in rec.u:
                assert (u == 0.0).all()
            for nu in range(duopoly.num_players):
                g = duopoly.g_val(nu, rec.x)
                expected = np.maximum(0.0, rec.rho[nu] * g)
                np.testing.assert_array_equal(rec.multipliers.lam[nu], expected)

    def test_max_outer_exhaustion(self, duopoly):
        report = solve(duopoly, np.zeros(2), OuterConfig(max_outer=2))
        assert report.status is Status.MAX_OUTER_ITERATIONS
        assert report.outer_iterations == 2

    def test_convergence_on_final_allowed_iteration(self, duopoly):
        # find the natural iteration count, then allow exactly that many
        full = solve_variational(duopoly, np.zeros(2), OuterConfig())
        k = full.outer_iterations
        tight = solve_variational(
            duopoly, np.zeros(2), OuterConfig(max_outer=k)
        )
        assert tight.status is Status.SOLVED_KKT
        assert tight.outer_iterations == k

    def test_geometric_inner_tolerance(self, duopoly):
        sched = GeometricTolerance(start=1e-2, factor=0.1, floor=1e-9)
        assert sched(0) == 1e-2 and sched(1) == pytest.approx(1e-3)
        assert sched(100) == 1e-9
        cfg = OuterConfig(eps=1e-6, eps_inner=sched)
        report = solve(duopoly, np.zeros(2), cfg)
        assert report.status is Status.SOLVED_KKT

    def test_fixed_tolerance_schedule(self):
        sched = FixedTolerance(1e-8)
        assert sched(0) == sched(17) == 1e-8


class TestSubsolverInterface:
    def test_custom_subsolver_is_used(self, duopoly):
        calls = []

        base = _default_subsolver()

        def counting(problem, state, x_start, tol):
            calls.append(tol)
            return base(problem, state, x_start, tol)

        report = solve(duopoly, np.zeros(2), subsolver=counting)
        assert report.status is Status.SOLVED_KKT
        assert len(calls) == report.outer_iterations
        assert all(t == 1e-8 for t in calls)

    def test_subsolver_failure_reported(self, duopoly):
        def broken(problem, state, x_start, tol):
            return LmResult(
                x=x_start, iterations=1, final_residual=1e3,
                status=LmStatus.SAFEGUARD_STOP,
            )

        report = solve(duopoly, np.zeros(2), subsolver=broken)
        assert report.status is Status.SUBSOLVER_FAILURE
        assert report.message

    def test_failed_jacobian_reported_as_subsolver_failure(self):
        # grad is NaN for x1 > 0, so the forward difference along x1 fails at the start
        def grad(x):
            return np.array([2 * (x[0] - 1), np.nan if x[1] > 0 else 2 * x[1]])

        obj = ObjectiveBundle(value=lambda x: (x[0] - 1) ** 2 + x[1] ** 2, grad=grad)
        report = solve(GnepProblem([PlayerSpec(2, obj)]), np.zeros(2))
        assert report.status is Status.SUBSOLVER_FAILURE
        assert report.message.startswith(
            "inner solver stopped (safeguard_stop) with residual 2.000e+00"
        )
        np.testing.assert_array_equal(report.x, np.zeros(2))

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_start_residual_reported_as_subsolver_failure(self):
        # Finite callbacks whose penalized residual overflows at the start point
        prob = single_player(
            theta=lambda t: t**2, grad=lambda t: 2 * t, hess=lambda t: 2.0,
            g=lambda t: 1e200 * (t - 1.0), g_grad=lambda t: 1e200, g_hess=lambda t: 0.0,
        )
        report = solve(prob, np.array([10.0]))
        assert report.status is Status.SUBSOLVER_FAILURE
        assert "(safeguard_stop) with residual inf" in report.message

    def test_soft_failure_accepted_within_slack(self, duopoly):
        base = _default_subsolver()

        def degraded(problem, state, x_start, tol):
            # solve accurately but report a soft stop within the slack
            res = base(problem, state, x_start, tol * 1e2)
            return LmResult(
                x=res.x, iterations=res.iterations,
                final_residual=res.final_residual,
                status=LmStatus.SAFEGUARD_STOP, steps=res.steps,
            )

        report = solve(duopoly, np.zeros(2), OuterConfig(eps=1e-5), subsolver=degraded)
        assert report.status is Status.SOLVED_KKT


class TestJacobianBuffer:
    @pytest.mark.parametrize("run", [solve, solve_variational])
    def test_one_jacobian_array_per_solve(self, run, monkeypatch):
        prob = quadratic_budget_game()
        returned = []

        def recording(*args, original=outer.generalized_jacobian, **kwargs):
            returned.append(original(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(outer, "generalized_jacobian", recording)
        first = run(prob, np.zeros(prob.n))
        per_solve = len(returned)
        second = run(prob, np.zeros(prob.n))
        assert first.status is second.status is Status.SOLVED_KKT
        assert np.array_equal(first.x, second.x)
        assert per_solve > 1 and len(returned) == 2 * per_solve
        assert all(V is returned[0] for V in returned[:per_solve])
        assert all(V is returned[per_solve] for V in returned[per_solve:])
        assert returned[per_solve] is not returned[0]

    def test_subsolver_reused_across_game_sizes(self):
        run = _default_subsolver()
        for name in ("duopoly_shared", "quad3", "duopoly_shared"):
            prob = problems.by_name(name)
            state = make_state(prob, u_value=0.4, rho=2.0)
            x0 = prob.x0_presets["ones"]
            got = run(prob, state, x0, 1e-10)
            fresh = _default_subsolver()(prob, state, x0, 1e-10)
            assert got.status is fresh.status is LmStatus.CONVERGED
            assert np.array_equal(got.x, fresh.x) and got.iterations == fresh.iterations
            assert got.final_residual == fresh.final_residual


class TestConfigValidation:
    def test_bad_tau(self, duopoly):
        with pytest.raises(ConfigError):
            solve(duopoly, np.zeros(2), OuterConfig(tau=1.5))

    def test_bad_gamma(self, duopoly):
        with pytest.raises(ConfigError):
            solve(duopoly, np.zeros(2), OuterConfig(gamma=0.5))

    def test_bad_rho0(self):
        with pytest.raises(ConfigError):
            OuterConfig(rho0=0.0)

    def test_per_player_tau_in_variational_rejected(self, duopoly):
        cfg = OuterConfig(tau=[0.1, 0.2])
        with pytest.raises(ConfigError):
            solve_variational(duopoly, np.zeros(2), cfg)

    def test_per_player_tau_general(self, duopoly):
        with pytest.raises(ConfigError):
            solve(duopoly, np.zeros(2), OuterConfig(tau=[0.1, 0.2]))

    @pytest.mark.parametrize("field, value", [
        ("u_max", np.nan), ("rho0", np.inf), ("eps", np.inf), ("gamma", np.inf),
    ])
    def test_non_finite_values_rejected(self, duopoly, field, value):
        # NaN and inf pass plain sign tests; u_max = nan gave a false SolvedKKT
        with pytest.raises(ConfigError):
            solve(duopoly, np.zeros(2), OuterConfig(**{field: value}))

    def test_infinite_u_max_turns_the_safeguard_off(self, duopoly):
        report = solve_variational(duopoly, np.zeros(2), OuterConfig(u_max=np.inf))
        assert report.status is Status.SOLVED_KKT
        np.testing.assert_allclose(report.x, [0.75, 0.25], atol=1e-6)


def counted(problem):
    """Copy of ``problem`` whose callbacks log ``(callback, player, x bytes)``."""
    calls = []

    def wrap(fn, tag, nu):
        def logged(x):
            calls.append((tag, nu, np.asarray(x).tobytes()))
            return fn(x)

        return logged

    def bundle(b, kind, nu):
        if b is None:
            return None
        return replace(b, **{
            f: wrap(getattr(b, f), f"{kind}.{f}", nu)
            for f in ("value", "grad", "hess") if getattr(b, f) is not None
        })

    players = [
        replace(spec, objective=bundle(spec.objective, "theta", nu), g=bundle(spec.g, "g", nu))
        for nu, spec in enumerate(problem.players)
    ]
    return GnepProblem(players, shared_constraints=problem.shared_constraints), calls


class TestEvaluateOnce:
    TOTALS = {
        ("duopoly_shared", "general"):
            {"theta.grad": 36, "theta.hess": 34, "g.value": 36, "g.grad": 36, "g.hess": 30},
        ("duopoly_shared", "variational"):
            {"theta.grad": 36, "theta.hess": 34, "g.value": 18, "g.grad": 18, "g.hess": 30},
        ("quad3", "general"):
            {"theta.grad": 42, "theta.hess": 39, "g.value": 42, "g.grad": 42, "g.hess": 36},
        ("quad3", "variational"):
            {"theta.grad": 42, "theta.hess": 39, "g.value": 14, "g.grad": 14, "g.hess": 36},
    }

    @pytest.mark.parametrize("name, mode", list(TOTALS))
    def test_no_callback_repeats_at_a_point(self, name, mode):
        prob, calls = counted(problems.by_name(name))
        run = solve_variational if mode == "variational" else solve
        report = run(prob, np.zeros(prob.n))
        assert report.status is Status.SOLVED_KKT
        assert all(rec.inner.status is LmStatus.CONVERGED for rec in report.trace)
        repeated = [c[:2] for c, k in Counter(calls).items() if k > 1]
        assert repeated == []
        if mode == "variational":
            # the shared constraints are evaluated once per point, by player 0
            assert not [c for c in calls if c[0] in ("g.value", "g.grad") and c[1] >= 1]
        assert Counter(tag for tag, _, _ in calls) == self.TOTALS[name, mode]

    @pytest.mark.parametrize("name, mode", list(TOTALS))
    def test_cli_report_reuses_the_solve_evaluation(self, name, mode, tmp_path, monkeypatch):
        prob, calls = counted(problems.by_name(name))
        monkeypatch.setattr(cli, "resolve_problem", lambda spec: prob)
        solved_at = []
        for method in ("solve", "solve_variational"):
            def logged(*args, method=getattr(cli, method), **kwargs):
                report = method(*args, **kwargs)
                solved_at.append(len(calls))
                return report

            monkeypatch.setattr(cli, method, logged)
        code = cli.run(cli.RunConfig(problem=name, mode=mode, report=str(tmp_path / "r.txt")))
        assert code == 0
        repeated = [c[:2] for c, k in Counter(calls).items() if k > 1]
        assert repeated == []
        report_calls = Counter(c[:2] for c in calls[solved_at[0]:])
        if mode == "general":
            assert report_calls == {}
        else:
            # diagnose checks each player's own constraints; player 0's are
            # the shared ones the solve already evaluated
            others = range(1, prob.num_players)
            assert report_calls == {(tag, nu): 1 for tag in ("g.value", "g.grad") for nu in others}


def hessian_variant(problem, make):
    """Copy of ``problem`` whose objective and ``g`` bundles get ``hess = make(own_grad)``.

    ``own_grad(x)`` is the raw own-block first derivative of the bundle:
    shape (dim,) for the objective, (count, dim) for ``g``.
    """
    players = []
    for nu, spec in enumerate(problem.players):
        rows = problem.block_slice(nu)
        players.append(replace(
            spec,
            objective=replace(spec.objective, hess=make(spec.objective.grad)),
            g=replace(spec.g, hess=make(lambda x, g=spec.g, rows=rows: g.grad(x)[rows, :].T)),
        ))
    return GnepProblem(players, shared_constraints=problem.shared_constraints)


def forward_differences(own_grad):
    """Hessian callback that differences ``own_grad`` from scratch at every call."""

    def hess(x):
        base = own_grad(x)
        cols = []
        for j in range(x.size):
            xp = x.copy()
            xp[j] += FD_HESS_STEP
            cols.append((own_grad(xp) - base) / FD_HESS_STEP)
        return np.stack(cols, axis=-1)

    return hess


class TestForwardDifferenceHessian:
    @pytest.mark.parametrize("run", [solve, solve_variational])
    def test_fallback_matches_explicit_differences_without_repeats(self, run):
        quad3 = problems.by_name("quad3")
        free, calls = counted(hessian_variant(quad3, lambda own_grad: None))
        report = run(free, quad3.x0_presets["tens"])
        assert report.status is Status.SOLVED_KKT
        # the gradient at x comes from the Evaluation, not a second call
        theta_grad = Counter(c for c in calls if c[0] == "theta.grad")
        assert theta_grad and max(theta_grad.values()) == 1
        reference = hessian_variant(quad3, forward_differences)
        shared = run is solve_variational
        for rec in report.trace:
            state = PenaltyState(u=rec.u, rho=list(rec.rho), u_max=1e6, shared=shared)
            V = generalized_jacobian(free, rec.x, state)
            V_ref = generalized_jacobian(reference, rec.x, state)
            assert np.array_equal(V, V_ref)


def quadratic_budget_game(N=4, d=26, seed=1):
    """Strongly monotone quadratic game: one SPD form for all, shared ``sum(x) <= 1``."""
    rng = np.random.default_rng(seed)
    n = N * d
    M = rng.standard_normal((n, n))
    Q = M.T @ M / n + np.eye(n)
    b = rng.standard_normal((N, n)) - 2.0
    budget = ConstraintBundle(
        count=1,
        value=lambda x: np.array([x.sum() - 1.0]),
        grad=lambda x: np.ones((n, 1)),
        hess=lambda x: np.zeros((1, d, n)),
    )
    players = []
    for nu in range(N):
        rows = slice(nu * d, (nu + 1) * d)
        objective = ObjectiveBundle(
            value=lambda x, nu=nu: 0.5 * float(x @ Q @ x) + float(b[nu] @ x),
            grad=lambda x, nu=nu, rows=rows: Q[rows] @ x + b[nu, rows],
            hess=lambda x, rows=rows: Q[rows],
        )
        players.append(PlayerSpec(d, objective, g=budget))
    return GnepProblem(players, shared_constraints=True)


class TestLargeGame:
    @pytest.mark.parametrize("run", [solve, solve_variational])
    def test_solved_with_large_game_penalty_defaults(self, run):
        prob = quadratic_budget_game()
        assert prob.n > 100
        report = run(prob, np.zeros(prob.n))
        assert report.status is Status.SOLVED_KKT
        verdict = diagnose(prob, report.x, report.multipliers)
        assert verdict.classification is PointClass.FEASIBLE_KKT
        # gamma = 2 is the default for n > 100 (10 below)
        rho = np.array([rec.rho for rec in report.trace])
        assert set((rho[1:] / rho[:-1]).ravel()) - {1.0} == {2.0}


class TestFailedTrialPoint:
    @pytest.mark.parametrize("x0", [5.0, 50.0, 500.0])
    def test_domain_error_at_trial_point_is_rejected_step(self, x0):
        # theta = x log x - x: full Newton steps leave the domain x > 0,
        # where the gradient log x is not finite
        obj = ObjectiveBundle(
            value=lambda x: x[0] * np.log(x[0]) - x[0],
            grad=lambda x: np.log(x),
            hess=lambda x: 1.0 / x.reshape(1, 1),
        )
        prob = GnepProblem([PlayerSpec(1, obj)])
        with np.errstate(invalid="ignore", divide="ignore"):
            report = solve(prob, np.array([x0]))
        assert report.status is Status.SOLVED_KKT
        assert abs(report.x[0] - 1.0) <= 1e-8

    @staticmethod
    def math_log_game():
        # theta = x log x - 3x with math.log, which raises outside x > 0;
        # its minimizer is x = e^2
        obj = ObjectiveBundle(
            value=lambda x: x[0] * math.log(x[0]) - 3.0 * x[0],
            grad=lambda x: np.array([math.log(x[0]) - 2.0]),
            hess=lambda x: np.array([[1.0 / x[0]]]),
        )
        return GnepProblem([PlayerSpec(1, obj)])

    @pytest.mark.parametrize("x0", [0.05, 5.0, 50.0, 500.0])
    def test_raising_callback_at_trial_point_is_rejected_step(self, x0):
        report = solve(self.math_log_game(), np.array([x0]))
        assert report.status is Status.SOLVED_KKT
        assert abs(report.x[0] - math.e**2) <= 1e-8

    def test_raising_callback_at_start_point_raises(self):
        with pytest.raises(EvaluationError, match="callback 'theta.grad' raised") as raised:
            solve(self.math_log_game(), np.array([-1.0]))
        assert type(raised.value.__cause__) is ValueError

    def test_failed_factorization_is_rejected_step(self):
        # x1 + x2 <= 0 and x1 + x2 >= 1 contradict: rho grows to about 1e10,
        # where V^T V swamps the damping and its Cholesky factorization fails
        obj = ObjectiveBundle(
            value=lambda x: float(x @ x), grad=lambda x: 2.0 * x, hess=lambda x: 2.0 * np.eye(2)
        )
        g = ConstraintBundle(
            count=2,
            value=lambda x: np.array([x[0] + x[1], 1.0 - x[0] - x[1]]),
            grad=lambda x: np.array([[1.0, -1.0], [1.0, -1.0]]),
            hess=lambda x: np.zeros((2, 2, 2)),
        )
        report = solve(GnepProblem([PlayerSpec(2, obj, g=g)]), np.zeros(2))
        assert report.status is Status.INFEASIBLE_STATIONARY
        np.testing.assert_allclose(report.x, [0.25, 0.25], atol=1e-6)
