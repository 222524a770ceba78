import numpy as np
import pytest

from gnepalm import problems
from gnepalm.model import (
    FD_HESS_STEP,
    ConstraintBundle,
    EvaluationError,
    GnepProblem,
    MultiplierSet,
    ObjectiveBundle,
    PlayerSpec,
    ProblemError,
    validate_problem,
)


def two_block_problem():
    # dims (1, 2): x = (a, b, c)
    obj1 = ObjectiveBundle(value=lambda x: x[0] ** 2, grad=lambda x: np.array([2 * x[0]]))
    obj2 = ObjectiveBundle(
        value=lambda x: x[1] ** 2 + x[2] ** 2, grad=lambda x: 2 * x[1:3]
    )
    return GnepProblem([PlayerSpec(1, obj1), PlayerSpec(2, obj2)], name="two")


class TestBlockAccess:
    def test_second_player_block(self):
        prob = two_block_problem()
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(prob.block_of(x, 1), [2.0, 3.0])

    def test_first_player_block(self):
        prob = two_block_problem()
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(prob.block_of(x, 0), [1.0])

    def test_out_of_range_player(self):
        prob = two_block_problem()
        with pytest.raises(ProblemError):
            prob.block_of(np.zeros(3), 2)

    def test_eval_then_slice_equals_slice_then_eval(self, rng):
        prob = two_block_problem()
        for _ in range(10):
            x = rng.standard_normal(3)
            for nu in range(2):
                s = prob.block_slice(nu)
                np.testing.assert_array_equal(prob.block_of(x, nu), x[s])

    def test_offsets_consistent(self):
        prob = two_block_problem()
        assert prob.block_offsets == (0, 1, 3)
        assert prob.n == 3 and prob.m == 0


class TestContracts:
    def test_kept_group_rejected(self):
        obj = ObjectiveBundle(value=lambda x: x[0], grad=lambda x: np.ones(1))
        h = ConstraintBundle(
            count=1, value=lambda x: np.array([x[0]]), grad=lambda x: np.ones((1, 1))
        )
        with pytest.raises(ProblemError, match="'g'"):
            PlayerSpec(1, obj, h=h)

    def test_wrong_point_length(self):
        prob = two_block_problem()
        with pytest.raises(ProblemError):
            prob.theta(0, np.zeros(2))

    def test_declared_count_mismatch(self):
        # declares two constraints, returns three values
        bad = ConstraintBundle(
            count=2,
            value=lambda x: np.array([1.0, 2.0, 3.0]),
            grad=lambda x: np.zeros((1, 2)),
        )
        obj = ObjectiveBundle(value=lambda x: 0.0, grad=lambda x: np.zeros(1))
        prob = GnepProblem([PlayerSpec(1, obj, g=bad)])
        with pytest.raises(ProblemError, match="player 0.*'g'"):
            prob.g_val(0, np.zeros(1))

    def test_nonfinite_output(self):
        obj = ObjectiveBundle(value=lambda x: np.nan, grad=lambda x: np.zeros(1))
        prob = GnepProblem([PlayerSpec(1, obj)])
        with pytest.raises(EvaluationError):
            prob.theta(0, np.zeros(1))

    def test_bad_dim(self):
        obj = ObjectiveBundle(value=lambda x: 0.0, grad=lambda x: np.zeros(0))
        with pytest.raises(ProblemError):
            PlayerSpec(0, obj)

    def test_shared_counts_enforced(self):
        obj = ObjectiveBundle(value=lambda x: 0.0, grad=lambda x: np.zeros(1))
        g = ConstraintBundle(
            count=1, value=lambda x: np.zeros(1), grad=lambda x: np.zeros((2, 1))
        )
        with pytest.raises(ProblemError):
            GnepProblem(
                [PlayerSpec(1, obj, g=g), PlayerSpec(1, obj)],
                shared_constraints=True,
            )

    def test_preset_length_checked(self):
        obj = ObjectiveBundle(value=lambda x: 0.0, grad=lambda x: np.zeros(1))
        with pytest.raises(ProblemError):
            GnepProblem([PlayerSpec(1, obj)], x0_presets={"bad": [0.0, 1.0]})


class TestValidateProblem:
    def test_simple_quadratic_passes(self):
        obj = ObjectiveBundle(value=lambda x: x[0] ** 2, grad=lambda x: np.array([2 * x[0]]))
        prob = GnepProblem([PlayerSpec(1, obj)])
        report = validate_problem(prob, [np.array([1.0])], fd_tol=1e-6)
        assert report.passed
        assert report.max_rel_error <= 1e-6

    def test_wrong_gradient_fails(self):
        obj = ObjectiveBundle(value=lambda x: x[0] ** 2, grad=lambda x: np.array([3 * x[0]]))
        prob = GnepProblem([PlayerSpec(1, obj)])
        report = validate_problem(prob, [np.array([1.0])], fd_tol=1e-6)
        assert not report.passed

    def test_crossed_parabola_gradients_at_ones(self):
        # constraints 2*x1 - x2^2 - 1 and 2*x2 - x1^2 - 1 with hand-coded
        # gradients (2, -2*x2) and (-2*x1, 2)
        prob = problems.example24b()
        report = validate_problem(prob, [np.array([1.0, 1.0])], fd_tol=1e-5)
        assert report.passed

    def test_requires_probe_points(self, duopoly):
        with pytest.raises(ProblemError):
            validate_problem(duopoly, [])

    @pytest.mark.parametrize("name", [p.name for p in problems.catalog()])
    def test_catalog_passes_at_random_probes(self, name, rng):
        prob = problems.by_name(name)
        points = [rng.standard_normal(prob.n) for _ in range(10)]
        report = validate_problem(prob, points, fd_tol=1e-5)
        assert report.passed, str(report)


FD_N = 5  # joint length of the Hessian-free games below: player dims (2, 3)
# Player 1's own gradient shape for each forward-differenced callback.
FD_OUT = {"theta": (3,), "g": (FD_N, 2)}


def hessian_free_game(theta_grads, g_grad, shared=False):
    """Players of dims (2, 3), two constraints each, no ``hess`` callbacks."""
    g = ConstraintBundle(count=2, value=lambda x: np.zeros(2), grad=g_grad)
    players = [
        PlayerSpec(dim, ObjectiveBundle(value=lambda x: 0.0, grad=grad), g=g)
        for dim, grad in zip((2, 3), theta_grads)
    ]
    return GnepProblem(players, shared_constraints=shared)


def with_player1_grad(kind, grad):
    """A Hessian-free game whose player 1 has ``grad`` as its ``kind`` gradient."""
    zeros = {k: (lambda x, shape=shape: np.zeros(shape)) for k, shape in FD_OUT.items()}
    zeros[kind] = grad
    return hessian_free_game([lambda x: np.zeros(2), zeros["theta"]], zeros["g"])


def fd_game(returns, shared):
    """Nonlinear Hessian-free game whose gradients come back as ``returns``."""
    own = [slice(0, 2), slice(2, 5)]
    theta = [lambda x, r=r: np.sin(x[r]) * (x @ x) + x[r] ** 3 for r in own]

    def g_grad(x):
        return np.column_stack([2 * x + np.cos(x), np.full(FD_N, 3 * x.sum() ** 2)])

    if returns == "list":
        theta = [lambda x, f=f: f(x).tolist() for f in theta]
        g = lambda x: g_grad(x).tolist()
    elif returns == "int":
        theta = [lambda x, f=f: np.floor(1e9 * f(x)).astype(np.int64) for f in theta]
        g = lambda x: np.floor(1e9 * g_grad(x)).astype(np.int64)
    elif returns == "view":
        # Views of the argument itself.
        theta = [lambda x, r=r: x[r] for r in own]
        g = lambda x: np.broadcast_to(x[:, None], (FD_N, 2))
    else:
        g = g_grad
    return hessian_free_game(theta, g, shared)


def per_call_fd_hess(problem, kind, nu, x, grad_x=None):
    """Reference: forward differences with one checked gradient call per coordinate."""
    x = problem.point(x)
    spec = problem.players[nu]
    if kind == "theta":
        shape = (spec.dim, problem.n)
        grad, base = problem.theta_grad, grad_x
    else:
        rows = problem.block_slice(nu)
        shape = (spec.g_count, spec.dim, problem.n)
        grad = lambda nu, z: problem.g_grad(nu, z)[rows, :].T
        base = None if grad_x is None else grad_x[rows, :].T
    if base is None:
        base = grad(nu, x)
    out = np.empty(shape)
    for j in range(problem.n):
        xp = x.copy()
        xp[j] += FD_HESS_STEP
        out[..., j] = (grad(nu, xp) - base) / FD_HESS_STEP
    return out


class TestHessianFallback:
    def test_theta_fd_fallback_matches_analytic(self, rng):
        def value(x):
            return x[0] ** 2 * x[1] + 0.5 * x[1] ** 2

        def grad(x):
            return np.array([2 * x[0] * x[1]])

        analytic = ObjectiveBundle(
            value=value, grad=grad, hess=lambda x: np.array([[2 * x[1], 2 * x[0]]])
        )
        fallback = ObjectiveBundle(value=value, grad=grad)
        pa = GnepProblem([PlayerSpec(1, analytic), PlayerSpec(1, ObjectiveBundle(
            value=lambda x: 0.0, grad=lambda x: np.zeros(1)))])
        pf = GnepProblem([PlayerSpec(1, fallback), PlayerSpec(1, ObjectiveBundle(
            value=lambda x: 0.0, grad=lambda x: np.zeros(1)))])
        x = rng.standard_normal(2)
        np.testing.assert_allclose(pf.theta_hess(0, x), pa.theta_hess(0, x), atol=1e-5)

    def test_constraint_fd_fallback(self, rng):
        def value(x):
            return np.array([x[0] ** 2 + x[1] ** 2 - 2.0])

        def grad(x):
            return np.array([[2 * x[0]], [2 * x[1]]])

        fallback = ConstraintBundle(count=1, value=value, grad=grad)
        obj = ObjectiveBundle(value=lambda x: 0.0, grad=lambda x: np.zeros(1))
        prob = GnepProblem([PlayerSpec(1, obj, g=fallback), PlayerSpec(1, obj)])
        x = rng.standard_normal(2)
        np.testing.assert_allclose(
            prob.g_hess(0, x), np.array([[[2.0, 0.0]]]), atol=1e-5
        )


    @pytest.mark.parametrize("returns", ["array", "list", "int", "view"])
    @pytest.mark.parametrize("shared", [False, True])
    @pytest.mark.parametrize("given", [False, True])
    def test_bit_identical_to_per_call_loop(self, returns, shared, given, rng):
        prob = fd_game(returns, shared)
        x = rng.standard_normal(FD_N)
        for nu in range(prob.num_players):
            for kind in FD_OUT:
                grad_x = getattr(prob, f"{kind}_grad")(nu, x) if given else None
                hess = getattr(prob, f"{kind}_hess")(nu, x, grad_x)
                assert hess.flags.c_contiguous
                assert np.array_equal(hess, per_call_fd_hess(prob, kind, nu, x, grad_x))

    @pytest.mark.parametrize("kind", FD_OUT)
    def test_callback_sees_fresh_perturbed_copies(self, kind, rng):
        seen = []

        def recording(x):
            seen.append(x)
            return np.zeros(FD_OUT[kind])

        prob = with_player1_grad(kind, recording)
        x = rng.standard_normal(FD_N)
        x_before = x.copy()
        getattr(prob, f"{kind}_hess")(1, x, np.zeros(FD_OUT[kind]))
        assert len(seen) == FD_N
        assert len({id(z) for z in seen}) == FD_N and all(z is not x for z in seen)
        for j, z in enumerate(seen):
            xp = x_before.copy()
            xp[j] += FD_HESS_STEP
            assert np.array_equal(z, xp)
        assert np.array_equal(x, x_before)

    @pytest.mark.parametrize("kind", FD_OUT)
    def test_non_finite_perturbed_output_raises(self, kind):
        out = np.ones(FD_OUT[kind])
        prob = with_player1_grad(kind, lambda z: out * np.nan if z[3] > 0 else out)
        with pytest.raises(
            EvaluationError, match=f"player 1: callback '{kind}.grad' returned non-finite"
        ):
            getattr(prob, f"{kind}_hess")(1, np.zeros(FD_N))

    @pytest.mark.parametrize("kind", FD_OUT)
    def test_wrong_shaped_perturbed_output_raises(self, kind):
        out = np.ones(FD_OUT[kind])
        prob = with_player1_grad(kind, lambda z: out[:-1] if z[3] > 0 else out)
        with pytest.raises(ProblemError, match=f"player 1: callback '{kind}.grad' returned shape"):
            getattr(prob, f"{kind}_hess")(1, np.zeros(FD_N))


def test_multiplier_set_zeros(duopoly):
    ms = MultiplierSet.zeros(duopoly)
    ms.check_shapes(duopoly)
    assert all(lam.shape == (1,) for lam in ms.lam)
