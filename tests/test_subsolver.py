import numpy as np
import pytest
import scipy.linalg

from gnepalm.model import EvaluationError
from gnepalm.subsolver import (
    LmConfig,
    LmStatus,
    NotPositiveDefiniteError,
    SemismoothSystem,
    lm_solve,
    lm_step,
    spd_solve,
)


def reference_lm_step(V, Fx, alpha):
    """The damped step as it was computed with scipy's cho_factor and cho_solve."""
    V = np.asarray(V, dtype=float)
    Fx = np.asarray(Fx, dtype=float)
    fnorm = float(np.linalg.norm(Fx))
    if fnorm == 0.0:
        return np.zeros(V.shape[1])
    n = V.shape[1]
    M = V.T @ V
    M.flat[:: n + 1] += alpha * fnorm
    factor = scipy.linalg.cho_factor(M, lower=True, check_finite=False)
    return scipy.linalg.cho_solve(factor, -(V.T @ Fx), check_finite=False)


class TestSpdSolve:
    def test_scaled_identity(self):
        np.testing.assert_allclose(
            spd_solve(2.0 * np.eye(2), np.array([4.0, 6.0])), [2.0, 3.0], rtol=1e-14
        )

    def test_identity_returns_rhs(self, rng):
        rhs = rng.standard_normal(5)
        np.testing.assert_allclose(spd_solve(np.eye(5), rhs), rhs, atol=1e-14)

    def test_random_spd_back_substitution(self, rng):
        for _ in range(20):
            A = rng.standard_normal((6, 6))
            M = A.T @ A + np.eye(6)
            rhs = rng.standard_normal(6)
            sol = spd_solve(M, rhs)
            assert np.linalg.norm(M @ sol - rhs) <= 1e-10 * (1 + np.linalg.norm(rhs))

    def test_indefinite_raises(self):
        with pytest.raises(NotPositiveDefiniteError):
            spd_solve(np.diag([1.0, -1.0]), np.ones(2))

    def test_asymmetric_rejected(self):
        M = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError):
            spd_solve(M, np.ones(2))

    @pytest.mark.parametrize("M, rhs", [(np.ones((2, 3)), np.ones(2)), (np.eye(2), np.ones(3))])
    def test_shape_mismatch_rejected(self, M, rhs):
        with pytest.raises(ValueError):
            spd_solve(M, rhs)

    @pytest.mark.parametrize("n", [2, 6, 50])
    def test_nearly_symmetric_reads_only_the_lower_triangle(self, rng, n):
        A = rng.standard_normal((n, n))
        M = A.T @ A + n * np.eye(n)
        lower = np.tril(M) + np.tril(M, -1).T
        # Within spd_solve's symmetry tolerance, but not exactly symmetric.
        M = lower + np.triu(rng.uniform(0.5, 1.0, (n, n)), 1) * 1e-13 * np.abs(M).max()
        assert not np.array_equal(M, M.T)
        rhs = rng.standard_normal(n)
        d = spd_solve(M, rhs)
        ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(M, lower=True), rhs)
        assert np.array_equal(d, ref)
        assert np.array_equal(d, spd_solve(lower, rhs))

    @pytest.mark.parametrize(
        "M, rhs",
        [
            ([[1.0, np.nan], [0.0, 1.0]], [1.0, 1.0]),
            ([[np.nan]], [1.0]),
            ([[np.inf, 0.0], [0.0, 1.0]], [1.0, 1.0]),
            ([[1.0, 0.0], [0.0, 1.0]], [np.nan, 1.0]),
            ([[1.0, 0.0], [0.0, 1.0]], [1.0, -np.inf]),
        ],
    )
    def test_non_finite_rejected(self, M, rhs):
        with pytest.raises(ValueError, match="finite"):
            spd_solve(np.array(M), np.array(rhs))


class TestLmStep:
    def test_scalar_case(self):
        # (1*1 + 1*1) d = -1  =>  d = -1/2
        d = lm_step(np.array([[1.0]]), np.array([1.0]), 1.0)
        np.testing.assert_allclose(d, [-0.5], rtol=1e-14)

    def test_zero_residual_gives_zero_step(self):
        d = lm_step(np.zeros((3, 3)), np.zeros(3), 1.0)
        np.testing.assert_array_equal(d, np.zeros(3))

    def test_normal_equations_residual(self, rng):
        for _ in range(20):
            V = rng.standard_normal((4, 4)) + 2 * np.eye(4)
            F = rng.standard_normal(4)
            alpha = float(rng.uniform(0.01, 10))
            d = lm_step(V, F, alpha)
            M = V.T @ V + alpha * np.linalg.norm(F) * np.eye(4)
            assert np.linalg.norm(M @ d + V.T @ F) <= 1e-10

    @pytest.mark.parametrize("n", [1, 4, 50, 400])
    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    def test_bit_identical_to_dense_damped_solve(self, rng, n, layout):
        base = rng.standard_normal((2 * n, 3 * n))
        V = {"C": base[:n, :n].copy(), "F": np.asfortranarray(base[:n, :n]),
             "strided": base[::2, ::3]}[layout]
        F = rng.standard_normal(n)
        a = float(rng.uniform(0.01, 10))
        V0, F0 = V.copy(), F.copy()
        d = lm_step(V, F, a)
        ref = spd_solve(V.T @ V + a * np.linalg.norm(F) * np.eye(n), -(V.T @ F))
        assert np.array_equal(d, ref)
        assert np.array_equal(V, V0) and np.array_equal(F, F0)

    @pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
    @pytest.mark.parametrize("layout", ["C", "F", "row_strided", "transposed"])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 17, 50, 129, 400])
    def test_bit_identical_to_scipy_cholesky_step(self, rng, n, layout, scale):
        base = scale * rng.standard_normal((2 * n, n))
        V = {"C": base[:n].copy(), "F": np.asfortranarray(base[:n]),
             "row_strided": base[::2], "transposed": base[:n].T}[layout]
        F = scale * rng.standard_normal(n)
        a = float(rng.uniform(0.01, 10))
        # The factorization reads M.T for M, which needs V.T @ V exactly symmetric.
        assert np.array_equal(V.T @ V, (V.T @ V).T)
        assert np.array_equal(lm_step(V, F, a), reference_lm_step(V, F, a))

    def test_zero_jacobian_without_damping_is_not_positive_definite(self):
        with pytest.raises(NotPositiveDefiniteError):
            lm_step(np.zeros((3, 3)), np.ones(3), 0.0)

    def test_replay_determinism(self, rng):
        V = rng.standard_normal((5, 5))
        F = rng.standard_normal(5)
        d1 = lm_step(V, F, 0.5)
        d2 = lm_step(V, F, 0.5)
        assert np.abs(d1 - d2).max() <= 1e-10


def linear_system(A, xstar):
    return SemismoothSystem(residual=lambda x: A @ (x - xstar), jacobian=lambda x: A)


class TestLmSolve:
    def test_scalar_linear_converges(self):
        sys_ = SemismoothSystem(
            residual=lambda x: 2.0 * (x - 3.0), jacobian=lambda x: np.array([[2.0]])
        )
        res = lm_solve(sys_, np.zeros(1), LmConfig(eps=1e-8))
        assert res.status is LmStatus.CONVERGED
        assert res.iterations <= 10
        assert abs(res.x[0] - 3.0) <= 1e-8

    def test_zero_iterations_when_already_solved(self):
        sys_ = SemismoothSystem(
            residual=lambda x: np.zeros(1), jacobian=lambda x: np.eye(1)
        )
        res = lm_solve(sys_, np.array([7.0]))
        assert res.status is LmStatus.CONVERGED
        assert res.iterations == 0 and res.final_residual == 0.0

    def test_accepted_steps_strictly_decrease(self, rng):
        A = rng.standard_normal((5, 5))
        A = A.T @ A + np.eye(5)
        res = lm_solve(linear_system(A, rng.standard_normal(5)), 10 * np.ones(5))
        assert res.status is LmStatus.CONVERGED
        norms = [s.residual_before for s in res.steps] + [res.final_residual]
        assert all(b < a for a, b in zip(norms, norms[1:]))
        for step in res.steps:
            assert step.residual_after < step.residual_before

    def test_alpha_bookkeeping(self, rng):
        A = rng.standard_normal((4, 4))
        A = A.T @ A + 0.1 * np.eye(4)
        cfg = LmConfig(eps=1e-10)
        res = lm_solve(linear_system(A, rng.standard_normal(4)), 20 * np.ones(4), cfg)
        for step in res.steps:
            if step.resolves == 0:
                expected = max(cfg.decrease_factor * step.alpha_in, cfg.alpha_floor)
            else:
                expected = step.alpha_in
                for _ in range(step.resolves):
                    expected = expected * cfg.increase_factor
            assert step.alpha_out == expected

    def test_superlinear_contraction_on_quadratic(self, rng):
        A = rng.standard_normal((4, 4))
        A = A.T @ A + np.eye(4)
        xstar = rng.standard_normal(4)
        res = lm_solve(linear_system(A, xstar), xstar + 50 * np.ones(4), LmConfig(eps=1e-10))
        assert res.status is LmStatus.CONVERGED
        norms = [s.residual_before for s in res.steps] + [res.final_residual]
        ratios = [b / a for a, b in zip(norms, norms[1:])]
        assert len(ratios) >= 3
        assert ratios[-1] < ratios[-2] < ratios[-3]
        assert ratios[-1] < 1e-4

    def test_safeguard_on_flat_residual(self):
        # constant residual, zero Jacobian: no step can make progress
        sys_ = SemismoothSystem(
            residual=lambda x: np.ones(1), jacobian=lambda x: np.zeros((1, 1))
        )
        res = lm_solve(sys_, np.zeros(1))
        assert res.status is LmStatus.SAFEGUARD_STOP
        assert res.iterations == 0
        assert res.final_residual == 1.0

    def test_safeguard_on_step_shrink(self):
        # ||F|| is minimal at the start and the (unit) Jacobian points
        # nowhere useful: every damping level fails, the step shrinks below
        # eps/||V||_F, and the re-solve loop must cut off.
        sys_ = SemismoothSystem(
            residual=lambda x: np.array([x[0] ** 2 + 1.0]),
            jacobian=lambda x: np.array([[1.0]]),
        )
        res = lm_solve(sys_, np.zeros(1), LmConfig(eps=1e-8, max_iter=100))
        assert res.status is LmStatus.SAFEGUARD_STOP
        assert res.iterations == 0
        assert res.final_residual == 1.0

    def test_retry_cap_reported_as_safeguard(self):
        # deliberately wrong Jacobian at the minimizer of ||F||, plus an eps
        # so small the step-size test never fires: the retry cap must stop it
        sys_ = SemismoothSystem(
            residual=lambda x: np.array([x[0] ** 2 + 1.0]),
            jacobian=lambda x: np.array([[1.0]]),
        )
        cfg = LmConfig(eps=1e-300, max_inner_tries=5)
        res = lm_solve(sys_, np.zeros(1), cfg)
        assert res.status is LmStatus.SAFEGUARD_STOP

    def test_max_iter(self):
        # slow crawl: force tiny steps by a huge fixed damping via max_iter=2
        sys_ = SemismoothSystem(
            residual=lambda x: 2.0 * (x - 3.0), jacobian=lambda x: np.array([[2.0]])
        )
        res = lm_solve(sys_, np.zeros(1), LmConfig(eps=1e-300, max_iter=2))
        assert res.status is LmStatus.MAX_ITER
        assert res.iterations == 2

    def test_failed_trial_point_is_rejected(self):
        # F = log x exists only for x > 0, and the undamped Newton step from
        # x = 5 lands below 0
        def residual(x):
            if x[0] <= 0.0:
                raise EvaluationError("outside the domain")
            return np.log(x)

        sys_ = SemismoothSystem(residual=residual, jacobian=lambda x: np.diag(1.0 / x))
        res = lm_solve(sys_, np.array([5.0]))
        assert res.status is LmStatus.CONVERGED
        assert any(step.resolves for step in res.steps)
        assert abs(res.x[0] - 1.0) <= 1e-8

    def test_failed_start_point_raises(self):
        def residual(x):
            raise EvaluationError("outside the domain")

        sys_ = SemismoothSystem(residual=residual, jacobian=lambda x: np.eye(1))
        with pytest.raises(EvaluationError):
            lm_solve(sys_, np.zeros(1))

    def test_non_finite_start_residual_raises(self):
        sys_ = SemismoothSystem(
            residual=lambda x: np.array([np.inf, 1.0]) + x, jacobian=lambda x: np.eye(2)
        )
        with pytest.raises(EvaluationError):
            lm_solve(sys_, np.zeros(2))

    def test_failed_jacobian_stops_at_current_iterate(self):
        # F = x - 1 from x = 3: the first step lands at 7/3, where V cannot be evaluated
        def jacobian(x):
            if x[0] < 2.5:
                raise EvaluationError("no derivative here")
            return np.eye(1)

        sys_ = SemismoothSystem(residual=lambda x: x - 1.0, jacobian=jacobian)
        res = lm_solve(sys_, np.array([3.0]))
        assert res.status is LmStatus.SAFEGUARD_STOP
        assert res.iterations == 1 and len(res.steps) == 1
        assert res.x[0] < 2.5
        assert res.final_residual == res.steps[0].residual_after == abs(res.x[0] - 1.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LmConfig(decrease_factor=1.5)
        with pytest.raises(ValueError):
            LmConfig(eps=0.0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"alpha0": np.nan},
            {"alpha0": np.inf},
            {"increase_factor": np.inf},
            {"alpha_floor": np.nan},
            {"alpha_floor": np.inf},
            {"alpha_floor": -1e-16},
            {"max_iter": -1},
            {"max_inner_tries": -1},
        ],
    )
    def test_non_finite_or_negative_config_rejected(self, bad):
        with pytest.raises(ValueError):
            LmConfig(**bad)

    def test_config_edge_values_accepted(self):
        A = np.array([[2.0, 0.3], [0.1, 1.0]])
        sys_ = linear_system(A, np.array([1.0, -2.0]))
        assert lm_solve(sys_, np.zeros(2)).status is LmStatus.CONVERGED
        res = lm_solve(sys_, np.zeros(2), LmConfig(max_iter=0, alpha_floor=0.0))
        assert res.status is LmStatus.MAX_ITER and res.iterations == 0
