from collections import Counter

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
from gnepalm.model import (
    ConstraintBundle,
    Evaluation,
    GnepProblem,
    ObjectiveBundle,
    PlayerSpec,
    ProblemError,
)


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

    @pytest.mark.parametrize("analytic", [True, False])
    @pytest.mark.parametrize("mode", ["variational", "general"])
    def test_out_prefilled_with_nan_gets_the_fresh_element(self, analytic, mode):
        prob, x = quadratic_budget_game((3, 1, 4, 2), TARGETS["two_active"], analytic, "C",
                                        Counter())
        state = budget_state(prob, x, "two_active", mode)
        out = np.full((prob.n, prob.n), np.nan)
        V = generalized_jacobian(prob, x, state, out=out)
        assert V is out
        assert np.array_equal(V, generalized_jacobian(prob, x, state))

    @pytest.mark.parametrize("out", [np.empty((2, 3)), np.empty((3, 3)), np.empty(4),
                                     np.empty((2, 2), dtype=np.float32)])
    def test_out_of_another_shape_or_dtype_raises(self, duopoly, out):
        state = make_state(duopoly, u_value=0.4, rho=2.0)
        with pytest.raises(ValueError, match="out is"):
            generalized_jacobian(duopoly, np.zeros(2), state, out=out)


def reference_jacobian(problem, x, state):
    """The generalized Jacobian as the per-player loop with np.tensordot built it.

    The rank-one term is the product ``Ga[rows] @ Ga.T`` of the column
    selection ``Ga``, which is Fortran-ordered.  The older form
    ``G[rows, :][:, active] @ G[:, active].T`` multiplies a contiguous copy
    of the rows, so for a one-coordinate player with two or more active
    constraints BLAS takes another path and the last bits can differ.
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
            Ga = ev.g_grad[nu][:, active]
            V[rows, :] += rho * (Ga[rows] @ Ga.T)
        s = np.maximum(0.0, t)
        if s.any():
            G_x = ev.g_grad[nu] if ev.slot[nu] == nu else None
            V[rows, :] += np.tensordot(s, problem.g_hess(nu, ev.x, G_x), axes=1)
    return V


def quadratic_budget_game(dims, targets, analytic, layout, calls, seed=7):
    """Shared quadratic constraints whose values at the returned ``x`` are ``targets``.

    Every callback counts its calls in ``calls``; ``layout`` is the memory
    order of the ``g.grad`` output.
    """
    rng = np.random.default_rng(seed)
    n, count = sum(dims), len(targets)
    P = rng.standard_normal((n, n))
    c = rng.standard_normal(n)
    Q = rng.standard_normal((count, n, n))
    Q = Q + Q.transpose(0, 2, 1)
    a = rng.standard_normal((n, count))
    x = rng.standard_normal(n)
    b = 0.5 * np.einsum("i,kij,j->k", x, Q, x) + x @ a - np.asarray(targets)
    order = {"C": np.ascontiguousarray, "F": np.asfortranarray}[layout]

    def counted(name, fn):
        def call(z):
            calls[name] += 1
            return fn(z)
        return call

    players, start = [], 0
    for nu, dim in enumerate(dims):
        rows = slice(start, start + dim)
        start += dim
        objective = ObjectiveBundle(
            value=counted(f"theta/{nu}", lambda z, rows=rows: 0.5 * z[rows] @ (P[rows] @ z)),
            grad=counted(f"theta.grad/{nu}", lambda z, rows=rows: P[rows] @ z + c[rows]),
            hess=counted(f"theta.hess/{nu}", lambda z, rows=rows: P[rows]),
        )
        g = ConstraintBundle(
            count=count,
            value=counted(f"g/{nu}", lambda z: 0.5 * np.einsum("i,kij,j->k", z, Q, z) + z @ a - b),
            grad=counted(f"g.grad/{nu}", lambda z: order(np.einsum("kij,j->ik", Q, z) + a)),
            hess=counted(f"g.hess/{nu}", lambda z, rows=rows: Q[:, rows, :]) if analytic else None,
        )
        players.append(PlayerSpec(dim, objective, g=g))
    return GnepProblem(players, shared_constraints=True), x


def budget_state(prob, x, point, mode, rhos=(10.0, 0.3, 3.0, 1e3)):
    """Penalty state of ``quadratic_budget_game`` at ``x`` for a ``TARGETS`` point.

    Constraint 1 sits exactly on the activity boundary u + rho*g = 0 except
    at "three_active", where all three constraints are violated.
    """
    g = prob.g_val(0, x)

    def u_for(nu, rho):
        u = np.zeros(g.size)
        if point != "three_active":
            u[1] = -(rho * g[1])
            assert u[1] + rho * g[1] == 0.0
        if point != "mostly_inactive":
            u[0] = 0.3
        elif nu % 2:
            u[0] = 0.25 - rho * g[0]  # odd players' slots are active, even ones' are not
        return u

    if mode == "variational":
        return PenaltyState(u=[u_for(0, 10.0)], rho=[10.0], u_max=1e6, shared=True)
    rhos = rhos[: prob.num_players]
    return PenaltyState(u=[u_for(nu, r) for nu, r in enumerate(rhos)],
                        rho=list(rhos), u_max=1e6)


# Constraint values at the test point: constraint 0 is violated or slack,
# constraint 2 inactive or violated; with budget_state, 0 to 3 of them are active.
TARGETS = {
    "mixed": (0.7, -0.5, -2.0),
    "mostly_inactive": (-0.3, -0.5, -2.0),
    "two_active": (0.7, -0.5, 0.4),
    "three_active": (0.7, 0.2, 0.4),
}
MODES = ["variational", "general", "shared_evaluation_general_state"]


class TestJacobianBitIdentity:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("point", list(TARGETS))
    @pytest.mark.parametrize("layout", ["C", "F"])
    @pytest.mark.parametrize("analytic", [True, False])
    @pytest.mark.parametrize("dims", [(1, 2, 3), (3, 1, 4, 2), (5,)])
    def test_matches_the_per_player_loop(self, dims, analytic, layout, point, mode):
        self.check(dims, analytic, layout, point, mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("point", ["mixed", "three_active"])
    @pytest.mark.parametrize("layout", ["C", "F"])
    def test_matches_the_per_player_loop_at_n_131(self, layout, point, mode):
        # One game wider than 128 columns, far larger than the games above.
        self.check((40, 50, 41), True, layout, point, mode)

    @staticmethod
    def check(dims, analytic, layout, point, mode):
        calls: Counter = Counter()
        prob, x = quadratic_budget_game(dims, TARGETS[point], analytic, layout, calls)
        state = budget_state(prob, x, point, mode)
        if point == "three_active":
            assert all((u + r * prob.g_val(0, x) > 0).all() for u, r in zip(state.u, state.rho))
        # A shared-layout Evaluation read with per-player rho and u.
        at = Evaluation(prob, x, shared=True) if mode.startswith("shared") else x
        calls.clear()
        ref = reference_jacobian(prob, at, state)
        ref_calls = calls.copy()
        calls.clear()
        V = generalized_jacobian(prob, at, state)
        assert np.array_equal(V, ref)
        assert calls == ref_calls


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
