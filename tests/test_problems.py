import numpy as np
import pytest

from gnepalm import problems
from gnepalm.model import (
    GnepProblem,
    ObjectiveBundle,
    PlayerSpec,
    ProblemError,
    validate_problem,
)
from gnepalm.outer import OuterConfig, Status, solve, solve_variational
from gnepalm.problems import (
    BestResponseReport,
    OracleConfig,
    OracleVerdict,
    best_response_check,
    box_oracle,
)


def test_catalog_names_and_validation(rng):
    cat = problems.catalog()
    names = {p.name for p in cat}
    assert {
        "duopoly_shared",
        "infeasible_single",
        "example24a",
        "example24b",
        "quad3",
        "nonshared2",
    } <= names
    for prob in cat:
        points = [rng.standard_normal(prob.n) for _ in range(10)]
        assert validate_problem(prob, points, fd_tol=1e-5).passed


def test_unknown_name_rejected():
    with pytest.raises(ProblemError):
        problems.by_name("nope")


class TestDuopolyFacts:
    def test_equilibrium_segment_endpoints_are_best_responses(self, duopoly):
        # best responses: x1 = min(1, 1-x2) and x2 = min(1/2, 1-x1); any
        # (a, 1-a) with a in [1/2, 1] is a fixed point of both
        for a in [0.5, 0.6, 0.75, 0.9, 1.0]:
            x = np.array([a, 1.0 - a])
            assert min(1.0, 1.0 - x[1]) == pytest.approx(x[0])
            assert min(0.5, 1.0 - x[0]) == pytest.approx(x[1])

    def test_variational_point_multiplier(self, duopoly):
        # 2(x1 - 1) + lam = 0 and 2(x2 - 1/2) + lam = 0 on x1 + x2 = 1
        # force lam = 1/2, x = (3/4, 1/4)
        lam = 0.5
        x = np.array([0.75, 0.25])
        assert 2 * (x[0] - 1) + lam == 0.0
        assert 2 * (x[1] - 0.5) + lam == 0.0
        assert x.sum() == 1.0


class TestInfeasibleSingleFacts:
    def test_no_feasible_point(self, infeasible, rng):
        for _ in range(100):
            x = rng.uniform(-10, 10, size=1)
            assert infeasible.g_val(0, x)[0] > 0

    def test_violation_stationary_only_at_origin(self, infeasible):
        # d/dx (x^2+1)^2 = 4x(x^2+1) vanishes iff x = 0
        from gnepalm.diagnostics import feasibility_gnep_residual

        assert feasibility_gnep_residual(infeasible, np.zeros(1))[0] == 0.0
        for x in [-2.0, -0.5, 0.3, 1.0]:
            assert feasibility_gnep_residual(infeasible, np.array([x]))[0] > 0.0


class TestOracle:
    def test_equilibrium_point(self, duopoly):
        cfg = box_oracle(duopoly, 0.0, 1.0)
        out = best_response_check(duopoly, np.array([0.75, 0.25]), cfg)
        assert out.verdict is OracleVerdict.EQUILIBRIUM

    def test_improvable_point_names_second_player(self, duopoly):
        # player 1's best response to 0.7 is 0.3 (already there); player 2's
        # best response to 0.3 is 0.5, improving (0.7-0.5)^2 -> 0
        x = np.array([0.3, 0.7])
        cfg = box_oracle(duopoly, 0.0, 1.0)
        out = best_response_check(duopoly, x, cfg)
        assert out.verdict is OracleVerdict.IMPROVABLE
        assert out.player == 1
        # the witness is feasible, keeps the other block, and improves
        assert duopoly.g_val(1, out.better_point)[0] <= cfg.feas_tol
        assert out.better_point[0] == x[0]
        gain = duopoly.theta(1, x) - duopoly.theta(1, out.better_point)
        assert gain == pytest.approx(out.gain)
        assert out.gain > cfg.improvement_tol

    def test_infeasible_point_not_applicable(self, duopoly):
        cfg = box_oracle(duopoly, 0.0, 1.0)
        out = best_response_check(duopoly, np.array([0.9, 0.9]), cfg)
        assert out.verdict is OracleVerdict.NOT_APPLICABLE

    def test_large_player_dimension_rejected(self):
        obj = ObjectiveBundle(value=lambda x: float(x @ x), grad=lambda x: 2 * x)
        prob = GnepProblem([PlayerSpec(4, obj)])
        cfg = OracleConfig(bounds=(((0.0, 1.0),) * 4,), resolution=5)
        with pytest.raises(ProblemError, match="skip"):
            best_response_check(prob, 0.5 * np.ones(4), cfg)

    def test_point_outside_box_rejected(self, duopoly):
        cfg = box_oracle(duopoly, 0.0, 1.0)
        with pytest.raises(ValueError):
            best_response_check(duopoly, np.array([2.0, -1.0]), cfg)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(bounds=(((0.0, np.inf),),))
        with pytest.raises(ValueError):
            OracleConfig(bounds=(((0.0, 1.0),),), resolution=2)

    def test_deterministic(self, duopoly):
        cfg = box_oracle(duopoly, 0.0, 1.0)
        a = best_response_check(duopoly, np.array([0.3, 0.7]), cfg)
        b = best_response_check(duopoly, np.array([0.3, 0.7]), cfg)
        assert a.player == b.player and a.gain == b.gain
        np.testing.assert_array_equal(a.better_point, b.better_point)


class TestSolverAgainstOracle:
    @pytest.mark.parametrize("start", [(0.0, 0.0), (0.2, 0.9), (1.0, 1.0)])
    def test_general_solutions_pass_best_response_check(self, duopoly, start):
        # eps below the oracle's 1e-9 feasibility cutoff, so the solved
        # point is applicable for the grid check
        report = solve(duopoly, np.array(start), OuterConfig(eps=1e-9))
        assert report.status is Status.SOLVED_KKT
        cfg = box_oracle(duopoly, 0.0, 1.0)
        x = np.clip(report.x, 0.0, 1.0)  # keep roundoff inside the box
        out = best_response_check(duopoly, x, cfg)
        assert out.verdict is OracleVerdict.EQUILIBRIUM


@pytest.mark.parametrize("label", ["origin", "ones", "tens"])
def test_quad3_regression_both_modes(label):
    prob = problems.quad3()
    x0 = prob.x0_presets[label]
    general = solve(prob, x0)
    assert general.status is Status.SOLVED_KKT
    variational = solve_variational(prob, x0, OuterConfig())
    assert variational.status is Status.SOLVED_KKT
    # shared multiplier equilibrium is unique: same point from every start
    np.testing.assert_allclose(
        variational.x, solve_variational(prob, np.zeros(6),
                                         OuterConfig()).x,
        atol=1e-6,
    )
