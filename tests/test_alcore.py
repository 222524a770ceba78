import numpy as np
import pytest

from conftest import make_state, random_nonkink_point, single_player

from gnepalm import problems
from gnepalm.alcore import (
    PenaltyState,
    al_gradient_block,
    al_value,
    assemble_F,
    generalized_jacobian,
    shared_penalty_term,
    shifted_multiplier,
)
from gnepalm.model import ProblemError


class TestShiftedMultiplier:
    def test_negative_shift_clamps(self):
        np.testing.assert_array_equal(
            shifted_multiplier(np.array([-1.0]), np.array([2.0]), 4.0), [0.0]
        )

    def test_plain_value(self):
        np.testing.assert_array_equal(
            shifted_multiplier(np.array([3.0]), np.array([0.0]), 1.0), [3.0]
        )

    def test_partial_shift(self):
        np.testing.assert_allclose(
            shifted_multiplier(np.array([-0.05]), np.array([1.0]), 10.0), [0.5]
        )

    def test_always_nonnegative(self, rng):
        for _ in range(50):
            g = rng.standard_normal(4)
            u = np.abs(rng.standard_normal(4))
            rho = float(rng.uniform(0.1, 100))
            assert (shifted_multiplier(g, u, rho) >= 0).all()

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            shifted_multiplier(np.zeros(2), np.zeros(3), 1.0)


class TestAlValue:
    def test_inactive_constraint_clamps(self):
        prob = single_player(
            theta=lambda x: 5.0, grad=lambda x: 0.0, g=lambda x: -3.0, g_grad=lambda x: 0.0
        )
        state = make_state(prob, u_value=0.0, rho=2.0)
        assert al_value(prob, 0, np.zeros(1), state) == 5.0

    def test_direct_formula(self):
        prob = single_player(
            theta=lambda x: 5.0, grad=lambda x: 0.0, g=lambda x: 1.0, g_grad=lambda x: 0.0
        )
        state = make_state(prob, u_value=2.0, rho=2.0)
        # 5 + (2/2) * (1 + 2/2)^2 = 9
        assert al_value(prob, 0, np.zeros(1), state) == 9.0

    def test_zero_case(self):
        prob = single_player(
            theta=lambda x: 0.0, grad=lambda x: 0.0, g=lambda x: 0.0, g_grad=lambda x: 0.0
        )
        for rho in (0.5, 1.0, 7.0):
            state = make_state(prob, u_value=0.0, rho=rho)
            assert al_value(prob, 0, np.zeros(1), state) == 0.0

    def test_monotone_in_rho_with_zero_shift(self):
        # With u = 0 the penalty is rho/2 * g_+^2, nondecreasing in rho.
        prob = single_player(
            theta=lambda x: x, grad=lambda x: 1.0, g=lambda x: x - 0.5, g_grad=lambda x: 1.0
        )
        x = np.array([2.0])
        values = []
        for rho in [0.5, 1.0, 2.0, 5.0, 10.0, 100.0]:
            values.append(al_value(prob, 0, x, make_state(prob, 0.0, rho)))
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_monotone_in_rho_past_shift_crossover(self):
        # With u > 0 monotonicity starts once rho*g exceeds u.
        prob = single_player(
            theta=lambda x: 0.0, grad=lambda x: 0.0, g=lambda x: x, g_grad=lambda x: 1.0
        )
        u, gval = 2.0, 0.5
        x = np.array([gval])
        rhos = [u / gval, 5.0, 10.0, 50.0, 500.0]
        values = [
            al_value(prob, 0, x, make_state(prob, u_value=u, rho=r)) for r in rhos
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestAlGradient:
    def test_clamped_gradient_is_objective_gradient(self):
        prob = single_player(
            theta=lambda x: (x - 3) ** 2,
            grad=lambda x: 2 * (x - 3),
            g=lambda x: x - 100.0,
            g_grad=lambda x: 1.0,
        )
        x = np.array([1.0])
        state = make_state(prob, 0.0, 1.0)
        np.testing.assert_array_equal(
            al_gradient_block(prob, 0, x, state), prob.theta_grad(0, x)
        )

    def test_direct_formula(self):
        prob = single_player(
            theta=lambda x: x, grad=lambda x: 1.0,
            g=lambda x: x**2 + 1.0, g_grad=lambda x: 2 * x,
        )
        state = make_state(prob, 0.0, 1.0)
        # at x=0: 1 + (2*0) * (0 + 1*1)_+ = 1
        np.testing.assert_array_equal(al_gradient_block(prob, 0, np.zeros(1), state), [1.0])

    @pytest.mark.parametrize("name", ["duopoly_shared", "infeasible_single", "nonshared2", "quad3"])
    def test_matches_finite_differences_of_value(self, name, rng):
        prob = problems.by_name(name)
        state = make_state(prob, u_value=0.3, rho=2.0)
        h = 1e-6
        for _ in range(10):
            x = random_nonkink_point(prob, state, rng, scale=2.0)
            for nu in range(prob.num_players):
                analytic = al_gradient_block(prob, nu, x, state)
                rows = prob.block_slice(nu)
                fd = np.empty(prob.players[nu].dim)
                for i, j in enumerate(range(rows.start, rows.stop)):
                    xp, xm = x.copy(), x.copy()
                    xp[j] += h
                    xm[j] -= h
                    fd[i] = (
                        al_value(prob, nu, xp, state) - al_value(prob, nu, xm, state)
                    ) / (2 * h)
                err = np.max(np.abs(analytic - fd) / (1.0 + np.abs(analytic)))
                assert err <= 1e-5


class TestAssembleF:
    def test_single_quadratic(self):
        prob = single_player(theta=lambda x: x**2, grad=lambda x: 2 * x)
        state = PenaltyState(u=[np.zeros(0)], rho=[1.0], u_max=1e6)
        np.testing.assert_array_equal(assemble_F(prob, np.array([2.0]), state), [4.0])
        np.testing.assert_array_equal(assemble_F(prob, np.zeros(1), state), [0.0])

    def test_blockwise_equality_with_gradient(self, duopoly, rng):
        state = make_state(duopoly, u_value=0.7, rho=3.0)
        for _ in range(10):
            x = rng.standard_normal(2)
            F = assemble_F(duopoly, x, state)
            for nu in range(2):
                np.testing.assert_array_equal(
                    F[duopoly.block_slice(nu)], al_gradient_block(duopoly, nu, x, state)
                )

    def test_zero_at_variational_equilibrium(self, duopoly):
        # At (3/4, 1/4) with shared multiplier 1/2 the budget is tight, so
        # the shifted multiplier equals u and both gradients cancel.
        state = PenaltyState(u=[np.array([0.5])], rho=[1.0], u_max=1e6, shared=True)
        F = assemble_F(duopoly, np.array([0.75, 0.25]), state)
        assert np.abs(F).max() <= 1e-8


class TestGeneralizedJacobian:
    def test_all_inactive_gives_objective_blocks(self, duopoly):
        # strongly infeasible shifts: u + rho*g < 0 everywhere
        state = make_state(duopoly, u_value=0.0, rho=1.0)
        x = np.array([-5.0, -5.0])
        V = generalized_jacobian(duopoly, x, state)
        np.testing.assert_array_equal(V, np.array([[2.0, 0.0], [0.0, 2.0]]))

    def test_rank_one_term(self):
        prob = single_player(
            theta=lambda x: 0.0, grad=lambda x: 0.0, hess=lambda x: 0.0,
            g=lambda x: x, g_grad=lambda x: 1.0, g_hess=lambda x: 0.0,
        )
        state = make_state(prob, u_value=1.0, rho=2.0)
        V = generalized_jacobian(prob, np.zeros(1), state)
        np.testing.assert_array_equal(V, [[2.0]])

    @pytest.mark.parametrize("name", ["duopoly_shared", "infeasible_single", "nonshared2", "quad3"])
    def test_directional_finite_differences(self, name, rng):
        prob = problems.by_name(name)
        state = make_state(prob, u_value=0.4, rho=2.0)
        t = 1e-6
        for _ in range(5):
            x = random_nonkink_point(prob, state, rng, scale=1.5)
            V = generalized_jacobian(prob, x, state)
            F0 = assemble_F(prob, x, state)
            for j in range(prob.n):
                e = np.zeros(prob.n)
                e[j] = 1.0
                fd = (assemble_F(prob, x + t * e, state) - F0) / t
                assert np.abs(fd - V @ e).max() <= 1e-4

    def test_kink_rules_differ_at_exact_kink(self):
        prob = single_player(
            theta=lambda x: 0.0, grad=lambda x: 0.0, hess=lambda x: 0.0,
            g=lambda x: x - 0.5, g_grad=lambda x: 1.0, g_hess=lambda x: 0.0,
        )
        state = make_state(prob, u_value=1.0, rho=2.0)
        x = np.array([0.0])  # u + rho*g = 1 - 1 = 0 exactly
        # The exactly-zero component is treated as inactive: no rank-one term.
        np.testing.assert_array_equal(generalized_jacobian(prob, x, state), [[0.0]])


class TestSharedPenalty:
    def test_zero_case(self, duopoly):
        state = make_state(duopoly, 0.0, 1.0, shared=True)
        assert shared_penalty_term(duopoly, np.array([0.5, 0.5]), state) == 0.0

    def test_direct_formula(self, duopoly):
        state = make_state(duopoly, 0.0, 2.0, shared=True)
        # (2/2) * (1 + 1 - 1)^2 = 1
        assert shared_penalty_term(duopoly, np.array([1.0, 1.0]), state) == 1.0

    def test_value_decomposition_exact(self, duopoly, rng):
        state = make_state(duopoly, 0.9, 4.0, shared=True)
        for _ in range(10):
            x = rng.standard_normal(2)
            P = shared_penalty_term(duopoly, x, state)
            for nu in range(2):
                assert al_value(duopoly, nu, x, state) == duopoly.theta(nu, x) + P

    def test_requires_shared_problem(self):
        prob = problems.nonshared2()
        state = make_state(prob, 0.0, 1.0, shared=True)
        with pytest.raises(ProblemError):
            shared_penalty_term(prob, np.zeros(2), state)


class TestPenaltyState:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            PenaltyState(u=[np.array([2.0])], rho=[1.0], u_max=1.0)
        with pytest.raises(ValueError):
            PenaltyState(u=[np.array([0.5])], rho=[0.0], u_max=1.0)
        with pytest.raises(ValueError):
            PenaltyState(u=[np.array([-0.1])], rho=[1.0], u_max=1.0)

    def test_shared_accessors_alias(self):
        state = PenaltyState(u=[np.array([0.5])], rho=[2.0], u_max=1.0, shared=True)
        assert state.u_of(0) is state.u_of(5)
        assert state.rho_of(0) == state.rho_of(5) == 2.0
