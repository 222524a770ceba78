import numpy as np
import pytest

from conftest import single_player

from gnepalm import problems
from gnepalm.diagnostics import (
    EmfcqStatus,
    PointClass,
    classify_point,
    diagnose,
    emfcq_check,
    feasibility_gnep_residual,
    kkt_residual,
    positive_linear_independence,
)
from gnepalm.model import (
    ConstraintBundle,
    GnepProblem,
    MultiplierSet,
    ObjectiveBundle,
    PlayerSpec,
)
from gnepalm.outer import OuterConfig, solve, solve_variational, stopping_residuals


class TestKktResidual:
    def test_inactive_zero_multiplier(self):
        prob = single_player(
            theta=lambda x: 0.0, grad=lambda x: 0.0, g=lambda x: -2.0, g_grad=lambda x: 0.0
        )
        ms = MultiplierSet(lam=[np.array([0.0])], mu=[np.zeros(0)])
        assert kkt_residual(prob, np.zeros(1), ms) == [(0.0, 0.0)]

    def test_sign_violation(self):
        prob = single_player(
            theta=lambda x: 0.0, grad=lambda x: 0.0, g=lambda x: 0.0, g_grad=lambda x: 0.0
        )
        ms = MultiplierSet(lam=[np.array([-1.0])], mu=[np.zeros(0)])
        stat, comp = kkt_residual(prob, np.zeros(1), ms)[0]
        assert comp == 1.0

    def test_duopoly_equilibrium(self, duopoly):
        ms = MultiplierSet(lam=[np.array([0.5]), np.array([0.5])], mu=[np.zeros(0)] * 2)
        pairs = kkt_residual(duopoly, np.array([0.75, 0.25]), ms)
        assert max(max(p) for p in pairs) <= 1e-12

    def test_kept_group_enters_stationarity(self):
        obj = ObjectiveBundle(value=lambda x: x[0], grad=lambda x: np.ones(1))
        h = ConstraintBundle(
            count=1, value=lambda x: np.array([x[0]]), grad=lambda x: np.ones((1, 1))
        )
        prob = GnepProblem([PlayerSpec(1, obj, h=h)])
        ms = MultiplierSet(lam=[np.zeros(0)], mu=[np.array([-1.0])])
        stat, comp = kkt_residual(prob, np.zeros(1), ms)[0]
        assert stat == 0.0  # 1 + 1*(-1)
        assert comp == 1.0  # min(-0, -1) = -1


class TestFeasibilityResidual:
    def test_zero_at_feasible_points(self, duopoly, rng):
        count = 0
        while count < 10:
            x = rng.uniform(-1, 1, size=2)
            if duopoly.g_val(0, x)[0] <= 0:
                res = feasibility_gnep_residual(duopoly, x)
                np.testing.assert_array_equal(res, np.zeros(2))
                count += 1

    def test_stationary_infeasible_origin(self, infeasible):
        np.testing.assert_array_equal(
            feasibility_gnep_residual(infeasible, np.zeros(1)), [0.0]
        )

    def test_direct_value_away_from_origin(self, infeasible):
        # |2 * (x^2+1) * 2x| = 8 at x = 1
        np.testing.assert_allclose(
            feasibility_gnep_residual(infeasible, np.array([1.0])), [8.0]
        )

    def test_kept_group_complementarity(self):
        obj = ObjectiveBundle(value=lambda x: 0.0, grad=lambda x: np.zeros(1))
        h = ConstraintBundle(
            count=1, value=lambda x: np.array([x[0]]), grad=lambda x: np.ones((1, 1))
        )
        prob = GnepProblem([PlayerSpec(1, obj, h=h)])
        res = feasibility_gnep_residual(prob, np.array([-1.0]), mu_hat=[np.array([2.0])])
        # stationarity |0 + 1*2| = 2, complementarity |min(1, 2)| = 1
        np.testing.assert_allclose(res, [2.0])


class TestPositiveLinearIndependence:
    def test_cancelling_pair(self):
        v = positive_linear_independence(np.array([[1.0, -1.0], [0.0, 0.0]]))
        assert not v.independent
        np.testing.assert_allclose(v.weights, [0.5, 0.5], atol=1e-6)

    def test_single_column(self):
        v = positive_linear_independence(np.array([[1.0], [0.0]]))
        assert v.independent
        assert v.sigma == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_pair(self):
        v = positive_linear_independence(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert v.independent
        assert v.sigma == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-9)

    def test_zero_column_dependent(self):
        v = positive_linear_independence(np.zeros((2, 1)))
        assert not v.independent

    def test_appending_spanned_column_flips(self, rng):
        for _ in range(10):
            V = rng.standard_normal((4, 3)) + np.array([3.0, 0, 0, 0])[:, None]
            base = positive_linear_independence(V)
            if not base.independent:
                continue
            w = rng.uniform(0.1, 1.0, size=3)
            w /= w.sum()
            V2 = np.hstack([V, -(V @ w)[:, None]])
            assert not positive_linear_independence(V2).independent

    def test_requires_columns(self):
        with pytest.raises(ValueError):
            positive_linear_independence(np.zeros((2, 0)))


class TestEmfcq:
    def test_fixture_a_player1_holds_player2_fails(self):
        prob = problems.example24a()
        xbar = np.zeros(2)
        assert emfcq_check(prob, 0, xbar).status is EmfcqStatus.HOLDS
        assert emfcq_check(prob, 1, xbar).status is EmfcqStatus.FAILS

    def test_fixture_b_both_hold(self):
        prob = problems.example24b()
        xbar = np.ones(2)
        for nu in range(2):
            verdict = emfcq_check(prob, nu, xbar)
            assert verdict.status is EmfcqStatus.HOLDS
            # returned direction is a certified strict descent direction
            rows = prob.block_slice(nu)
            V = prob.c_grad(nu, xbar)[rows, :][:, verdict.active]
            assert (V.T @ verdict.direction < 0).all()

    def test_fixture_b_concatenated_gradients_dependent(self):
        prob = problems.example24b()
        xbar = np.ones(2)
        cols = np.hstack([prob.c_grad(0, xbar), prob.c_grad(1, xbar)])
        assert not positive_linear_independence(cols).independent

    def test_vacuous_hold_without_active_constraints(self, duopoly):
        verdict = emfcq_check(duopoly, 0, np.array([-1.0, -1.0]))
        assert verdict.status is EmfcqStatus.HOLDS
        np.testing.assert_array_equal(verdict.direction, np.zeros(1))

    @pytest.mark.parametrize("beta", [0.5, 2.0, 10.0])
    def test_invariant_under_positive_scaling(self, beta):
        def scaled(problem_builder, beta):
            base = problem_builder()
            players = []
            for nu, spec in enumerate(base.players):
                g = spec.g
                players.append(
                    PlayerSpec(
                        spec.dim,
                        spec.objective,
                        g=ConstraintBundle(
                            count=g.count,
                            value=lambda x, g=g: beta * np.asarray(g.value(x)),
                            grad=lambda x, g=g: beta * np.asarray(g.grad(x)),
                        ),
                    )
                )
            return GnepProblem(players, name=base.name + "-scaled")

        for builder, point in [
            (problems.example24a, np.zeros(2)),
            (problems.example24b, np.ones(2)),
        ]:
            base = builder()
            modified = scaled(builder, beta)
            for nu in range(2):
                assert (
                    emfcq_check(base, nu, point).status
                    is emfcq_check(modified, nu, point).status
                )


class TestClassify:
    def test_duopoly_equilibrium_is_feasible_kkt(self, duopoly):
        ms = MultiplierSet(lam=[np.array([0.5]), np.array([0.5])], mu=[np.zeros(0)] * 2)
        assert (
            classify_point(duopoly, np.array([0.75, 0.25]), ms)
            is PointClass.FEASIBLE_KKT
        )

    def test_infeasible_stationary_origin(self, infeasible):
        ms = MultiplierSet.zeros(infeasible)
        assert classify_point(infeasible, np.zeros(1), ms) is PointClass.INFEASIBLE_STATIONARY

    def test_neither(self, infeasible):
        ms = MultiplierSet.zeros(infeasible)
        assert classify_point(infeasible, np.array([1.0]), ms) is PointClass.NEITHER

    def test_agrees_with_stopping_residuals_on_solver_output(self, duopoly):
        report = solve(duopoly, np.zeros(2))
        res = stopping_residuals(duopoly, report.x, report.multipliers.lam)
        verdict = classify_point(duopoly, report.x, report.multipliers)
        assert (max(res) <= 1e-8) == (verdict is PointClass.FEASIBLE_KKT)
        # far away both views reject
        ms = MultiplierSet(lam=[np.array([3.0]), np.array([1.0])], mu=[np.zeros(0)] * 2)
        far = np.array([4.0, 4.0])
        assert max(stopping_residuals(duopoly, far, ms.lam)) > 1e-8
        assert classify_point(duopoly, far, ms) is not PointClass.FEASIBLE_KKT


def test_diagnose_bundle(duopoly):
    report = solve_variational(duopoly, np.zeros(2), OuterConfig())
    verdict = diagnose(duopoly, report.x, report.multipliers)
    assert verdict.classification is PointClass.FEASIBLE_KKT
    payload = verdict.to_dict()
    assert len(payload["players"]) == 2
    assert payload["players"][0]["emfcq"] == "holds"
