"""Acceptance gate: one test per criterion, every tolerance pinned.

Each test prints a single ``criterion NN PASS`` line once its assertions
hold (visible with ``pytest -s`` or in captured output on failure).
Criteria 4-7 stash their solver reports so the invariant sweep (criterion
9) can audit exactly the traces that produced the headline results.
"""

import time

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
from gnepalm.cli import RunConfig, main, run
from gnepalm.diagnostics import (
    EmfcqStatus,
    PointClass,
    classify_point,
    emfcq_check,
    feasibility_gnep_residual,
    kkt_residual,
    positive_linear_independence,
)
from gnepalm.model import (
    EvaluationError,
    GnepProblem,
    MultiplierSet,
    ObjectiveBundle,
    PlayerSpec,
    ProblemError,
    validate_problem,
)
from gnepalm.outer import (
    ConfigError,
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
from gnepalm.problems import OracleVerdict, best_response_check, box_oracle
from gnepalm.subsolver import (
    LmConfig,
    LmStatus,
    SemismoothSystem,
    lm_solve,
    lm_step,
    spd_solve,
)

# Reports stashed by criteria 4-7 for the invariant sweep in criterion 9;
# entries are (label, report, gamma, u_max).
_SOLVER_RUNS: list[tuple[str, object, float, float]] = []


def _stash(label, report, gamma, u_max):
    _SOLVER_RUNS.append((label, report, gamma, u_max))


def _announce(num, text):
    print(f"criterion {num:02d} PASS: {text}")


class Clock:
    def __init__(self, limit):
        self.limit = limit

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        if exc[0] is None:
            assert self.elapsed < self.limit, (
                f"runtime {self.elapsed:.2f}s exceeds the {self.limit:.0f}s budget"
            )


def test_criterion_01_formula_unit_suite(duopoly, infeasible):
    checks = 0

    def ok(condition):
        nonlocal checks
        assert condition
        checks += 1

    with Clock(1.0):
        # --- model: block access and validation
        obj1 = ObjectiveBundle(value=lambda x: x[0] ** 2, grad=lambda x: np.array([2 * x[0]]))
        obj2 = ObjectiveBundle(value=lambda x: x[1] ** 2 + x[2] ** 2, grad=lambda x: 2 * x[1:3])
        two = GnepProblem([PlayerSpec(1, obj1), PlayerSpec(2, obj2)])
        x_abc = np.array([1.0, 2.0, 3.0])
        ok(np.array_equal(two.block_of(x_abc, 1), [2.0, 3.0]))
        ok(np.array_equal(two.block_of(x_abc, 0), [1.0]))
        with pytest.raises(ProblemError):
            two.block_of(x_abc, 2)
        ok(True)
        quad = GnepProblem([PlayerSpec(1, obj1)])
        ok(validate_problem(quad, [np.array([1.0])], fd_tol=1e-6).max_rel_error <= 1e-6)
        from gnepalm.model import ConstraintBundle

        bad = GnepProblem([PlayerSpec(1, obj1, g=ConstraintBundle(
            count=2, value=lambda x: np.zeros(3), grad=lambda x: np.zeros((1, 2))))])
        with pytest.raises(ProblemError):
            bad.g_val(0, np.zeros(1))
        ok(True)
        nonfinite = GnepProblem([PlayerSpec(1, ObjectiveBundle(
            value=lambda x: np.inf, grad=lambda x: np.zeros(1)))])
        with pytest.raises(EvaluationError):
            nonfinite.theta(0, np.zeros(1))
        ok(True)

        # --- augmented Lagrangian values
        clamped = single_player(theta=lambda x: 5.0, grad=lambda x: 0.0,
                                g=lambda x: -3.0, g_grad=lambda x: 0.0)
        ok(al_value(clamped, 0, np.zeros(1), make_state(clamped, 0.0, 2.0)) == 5.0)
        shifted = single_player(theta=lambda x: 5.0, grad=lambda x: 0.0,
                                g=lambda x: 1.0, g_grad=lambda x: 0.0)
        ok(al_value(shifted, 0, np.zeros(1), make_state(shifted, 2.0, 2.0)) == 9.0)
        zero = single_player(theta=lambda x: 0.0, grad=lambda x: 0.0,
                             g=lambda x: 0.0, g_grad=lambda x: 0.0)
        ok(al_value(zero, 0, np.zeros(1), make_state(zero, 0.0, 3.0)) == 0.0)

        # --- shifted multiplier
        ok(np.array_equal(shifted_multiplier(np.array([-1.0]), np.array([2.0]), 4.0), [0.0]))
        ok(np.array_equal(shifted_multiplier(np.array([3.0]), np.array([0.0]), 1.0), [3.0]))
        ok(np.allclose(shifted_multiplier(np.array([-0.05]), np.array([1.0]), 10.0), [0.5]))

        # --- augmented Lagrangian gradient
        faraway = single_player(theta=lambda x: (x - 3) ** 2, grad=lambda x: 2 * (x - 3),
                                g=lambda x: x - 100.0, g_grad=lambda x: 1.0)
        st = make_state(faraway, 0.0, 1.0)
        ok(np.array_equal(al_gradient_block(faraway, 0, np.array([1.0]), st),
                          faraway.theta_grad(0, np.array([1.0]))))
        lifted = single_player(theta=lambda x: x, grad=lambda x: 1.0,
                               g=lambda x: x ** 2 + 1.0, g_grad=lambda x: 2 * x)
        ok(np.array_equal(
            al_gradient_block(lifted, 0, np.zeros(1), make_state(lifted, 0.0, 1.0)), [1.0]))

        # --- stacked residual map
        free = single_player(theta=lambda x: x ** 2, grad=lambda x: 2 * x)
        st_free = PenaltyState(u=[np.zeros(0)], rho=[1.0], u_max=1e6)
        ok(np.array_equal(assemble_F(free, np.array([1.0]), st_free), [2.0]))
        ok(np.array_equal(assemble_F(free, np.zeros(1), st_free), [0.0]))
        st_duo = make_state(duopoly, 0.7, 3.0)
        same = True
        for xr in np.linspace(-2, 2, 10):
            x = np.array([xr, -xr])
            F = assemble_F(duopoly, x, st_duo)
            for nu in range(2):
                same &= np.array_equal(F[duopoly.block_slice(nu)],
                                       al_gradient_block(duopoly, nu, x, st_duo))
        ok(same)

        # --- generalized Jacobian
        st_in = make_state(duopoly, 0.0, 1.0)
        ok(np.array_equal(generalized_jacobian(duopoly, np.array([-5.0, -5.0]), st_in),
                          [[2.0, 0.0], [0.0, 2.0]]))
        rank1 = single_player(theta=lambda x: 0.0, grad=lambda x: 0.0, hess=lambda x: 0.0,
                              g=lambda x: x, g_grad=lambda x: 1.0, g_hess=lambda x: 0.0)
        ok(np.array_equal(
            generalized_jacobian(rank1, np.zeros(1), make_state(rank1, 1.0, 2.0)), [[2.0]]))

        # --- shared penalty term
        st_sh = make_state(duopoly, 0.0, 1.0, shared=True)
        ok(shared_penalty_term(duopoly, np.array([0.5, 0.5]), st_sh) == 0.0)
        st_sh2 = make_state(duopoly, 0.0, 2.0, shared=True)
        ok(shared_penalty_term(duopoly, np.array([1.0, 1.0]), st_sh2) == 1.0)
        decomposed = True
        for xr in np.linspace(-1, 1, 5):
            x = np.array([xr, 0.3])
            P = shared_penalty_term(duopoly, x, st_sh2)
            for nu in range(2):
                decomposed &= al_value(duopoly, nu, x, st_sh2) == duopoly.theta(nu, x) + P
        ok(decomposed)

        # --- initial multipliers
        flat = single_player(theta=lambda x: 0.0, grad=lambda x: 0.0,
                             g=lambda x: x, g_grad=lambda x: 1.0)
        ok(np.array_equal(initial_multipliers(flat, np.zeros(1)).lam[0], [0.0]))
        slope = single_player(theta=lambda x: -2.0 * x, grad=lambda x: -2.0,
                              g=lambda x: x, g_grad=lambda x: 1.0)
        ok(np.allclose(initial_multipliers(slope, np.zeros(1)).lam[0], [2.0]))
        inactive = single_player(theta=lambda x: -2.0 * x, grad=lambda x: -2.0,
                                 g=lambda x: x - 5.0, g_grad=lambda x: 1.0)
        ok(np.array_equal(initial_multipliers(inactive, np.zeros(1)).lam[0], [0.0]))

        # --- nonnegative least squares
        ok(np.array_equal(nnls(np.eye(2), np.array([1.0, -1.0])), [1.0, 0.0]))
        ok(np.array_equal(nnls(np.eye(3), np.zeros(3)), np.zeros(3)))

        # --- multiplier update
        st_v = make_state(duopoly, 0.0, 1.0, shared=True)
        ok(len(update_multipliers(duopoly, np.ones(2), st_v)) == 1)
        st_q = make_state(duopoly, 0.0, 7.0, u_max=0.0)
        x_q = np.array([1.0, 0.5])
        ok(np.array_equal(update_multipliers(duopoly, x_q, st_q)[0],
                          np.maximum(0.0, 7.0 * duopoly.g_val(0, x_q))))
        st_u = make_state(duopoly, 0.4, 3.0)
        ok(np.array_equal(update_multipliers(duopoly, np.array([0.5, 0.5]), st_u)[0], [0.4]))

        # --- penalty update
        ok(np.array_equal(update_penalty([0.05], [1.0], 0.1, 10.0, [1.0]), [1.0]))
        ok(np.array_equal(update_penalty([0.5], [1.0], 0.1, 10.0, [1.0]), [10.0]))
        ok(np.array_equal(update_penalty([0.0], [0.0], 0.1, 10.0, [3.0]), [3.0]))

        # --- safeguard update
        ok(np.array_equal(update_safeguard([np.array([1e9])], 1e6)[0], [1e6]))
        ok(np.array_equal(update_safeguard([np.array([0.3])], 1e6)[0], [0.3]))
        ok(np.array_equal(update_safeguard([np.array([5.0])], 0.0)[0], [0.0]))

        # --- stopping residuals
        still = single_player(theta=lambda x: 0.0, grad=lambda x: 0.0,
                              g=lambda x: x - 1.0, g_grad=lambda x: 1.0)
        ok(stopping_residuals(still, np.zeros(1), [np.zeros(1)]) == (0.0, 0.0, 0.0))
        bench = single_player(theta=lambda x: 0.1 * x, grad=lambda x: 0.1,
                              g=lambda x: 0.3, g_grad=lambda x: 0.0)
        r = stopping_residuals(bench, np.zeros(1), [np.array([2.0])])
        ok(r[0] == 0.3 and r[1] == 0.1 and abs(r[2] - 0.6) < 1e-15)

        # --- outer loop contracts
        parabola = single_player(theta=lambda x: (x - 3.0) ** 2,
                                 grad=lambda x: 2.0 * (x - 3.0), hess=lambda x: 2.0)
        rep = solve(parabola, np.zeros(1))
        ok(rep.status is Status.SOLVED_KKT and rep.outer_iterations == 1
           and abs(rep.x[0] - 3.0) <= 1e-8)
        with pytest.raises(ConfigError):
            solve_variational(problems.nonshared2(), np.zeros(2),
                              OuterConfig())
        ok(True)

        # --- subsolver formulas
        ok(np.allclose(lm_step(np.array([[1.0]]), np.array([1.0]), 1.0), [-0.5], rtol=1e-14))
        ok(np.array_equal(lm_step(np.eye(2), np.zeros(2), 1.0), np.zeros(2)))
        ok(np.allclose(spd_solve(2.0 * np.eye(2), np.array([4.0, 6.0])), [2.0, 3.0],
                       rtol=1e-14))
        rhs = np.array([0.3, -0.7])
        ok(np.allclose(spd_solve(np.eye(2), rhs), rhs, rtol=1e-14))
        resolved = lm_solve(SemismoothSystem(residual=lambda x: np.zeros(1),
                                             jacobian=lambda x: np.eye(1)),
                            np.array([4.0]))
        ok(resolved.status is LmStatus.CONVERGED and resolved.iterations == 0)

        # --- diagnostics formulas
        calm = single_player(theta=lambda x: 0.0, grad=lambda x: 0.0,
                             g=lambda x: -2.0, g_grad=lambda x: 0.0)
        ok(kkt_residual(calm, np.zeros(1),
                        MultiplierSet(lam=[np.zeros(1)])) == [(0.0, 0.0)])
        edge = single_player(theta=lambda x: 0.0, grad=lambda x: 0.0,
                             g=lambda x: 0.0, g_grad=lambda x: 0.0)
        ok(kkt_residual(edge, np.zeros(1),
                        MultiplierSet(lam=[np.array([-1.0])]))[0][1] == 1.0)
        feas_x = np.array([0.2, 0.2])
        ok(np.array_equal(feasibility_gnep_residual(duopoly, feas_x), np.zeros(2)))
        ok(feasibility_gnep_residual(infeasible, np.zeros(1))[0] == 0.0)
        ok(np.allclose(feasibility_gnep_residual(infeasible, np.array([1.0])), [8.0]))
        ok(not positive_linear_independence(np.array([[1.0, -1.0], [0.0, 0.0]])).independent)
        single_col = positive_linear_independence(np.array([[1.0], [0.0]]))
        ok(single_col.independent and abs(single_col.sigma - 1.0) < 1e-9)
        ortho = positive_linear_independence(np.eye(2))
        ok(ortho.independent and abs(ortho.sigma - 1 / np.sqrt(2)) < 1e-9)
        ok(emfcq_check(duopoly, 0, np.array([-1.0, -1.0])).status is EmfcqStatus.HOLDS)
        zeros_ms = MultiplierSet.zeros(infeasible)
        ok(classify_point(infeasible, np.zeros(1), zeros_ms)
           is PointClass.INFEASIBLE_STATIONARY)
        ok(classify_point(infeasible, np.array([1.0]), zeros_ms) is PointClass.NEITHER)

        # --- oracle and harness contracts
        out = best_response_check(duopoly, np.array([0.9, 0.9]), box_oracle(duopoly, 0.0, 1.0))
        ok(out.verdict is OracleVerdict.NOT_APPLICABLE)
        ok(main(["--problem", "duopoly_shared", "--x0", "0,0,0"]) == 1)
        from gnepalm.plugin import PluginError, parse_problem_text

        with pytest.raises(PluginError):
            parse_problem_text("players 1\ndims 2\nplayer 1\ntheta 1 (2 x)\n")
        ok(True)
        with pytest.raises(PluginError):
            parse_problem_text("players 2\ndims 1 1\nshared\n"
                               "player 1\ng 1 (1 0)\nplayer 2\ng 1 (0 1)\n")
        ok(True)

    assert checks >= 30
    _announce(1, f"{checks} formula-level assertions hold exactly as stated")


def test_criterion_02_gradient_audit(rng):
    with Clock(5.0):
        for prob in problems.catalog():
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
                        fd[i] = (al_value(prob, nu, xp, state)
                                 - al_value(prob, nu, xm, state)) / (2 * h)
                    err = np.max(np.abs(analytic - fd) / (1.0 + np.abs(analytic)))
                    assert err <= 1e-5, (prob.name, nu, err)
    _announce(2, "value/gradient agreement <= 1e-5 on all catalog problems")


def test_criterion_03_jacobian_audit(rng):
    with Clock(5.0):
        t = 1e-6
        for prob in problems.catalog():
            state = make_state(prob, u_value=0.4, rho=2.0)
            for _ in range(5):
                x = random_nonkink_point(prob, state, rng, scale=1.5)
                V = generalized_jacobian(prob, x, state)
                F0 = assemble_F(prob, x, state)
                for j in range(prob.n):
                    e = np.zeros(prob.n)
                    e[j] = 1.0
                    fd = (assemble_F(prob, x + t * e, state) - F0) / t
                    assert np.abs(fd - V @ e).max() <= 1e-4, (prob.name, j)
    _announce(3, "Jacobian/directional-difference agreement <= 1e-4")


@pytest.mark.parametrize("start", [(0.0, 0.0), (1.0, 1.0), (10.0, 10.0)])
def test_criterion_04_variational_convergence(duopoly, start):
    cfg = OuterConfig()
    with Clock(1.0):
        report = solve_variational(duopoly, np.array(start), cfg)
    assert report.status is Status.SOLVED_KKT
    assert np.abs(report.x - np.array([0.75, 0.25])).max() <= 1e-6
    assert abs(report.multipliers.lam[0][0] - 0.5) <= 1e-6
    assert report.multipliers.lam[0] is report.multipliers.lam[1]
    assert max(report.residuals) <= 1e-8
    assert report.outer_iterations <= 30
    assert report.rho_max <= 1e4
    _stash(f"variational-{start}", report, gamma=10.0, u_max=cfg.u_max)
    _announce(4, f"variational solve from {start}: x -> (0.75, 0.25), lam -> 0.5")


def test_criterion_05_general_mode_equilibrium(duopoly):
    # eps tightened below the oracle's 1e-9 feasibility cutoff so the solved
    # point is admissible for the grid check; every stated bound unchanged
    cfg = OuterConfig(eps=1e-9)
    with Clock(2.0):
        report = solve(duopoly, np.zeros(2), cfg)
        assert report.status is Status.SOLVED_KKT
        assert abs(report.x.sum() - 1.0) <= 1e-6
        assert 0.5 - 1e-6 <= report.x[0] <= 1.0 + 1e-6
        verdict = best_response_check(
            duopoly, np.clip(report.x, 0.0, 1.0), box_oracle(duopoly, 0.0, 1.0)
        )
        assert verdict.verdict is OracleVerdict.EQUILIBRIUM
    _stash("general-duopoly", report, gamma=10.0, u_max=cfg.u_max)
    _announce(5, "general-mode point lies on the equilibrium segment and is "
                 "unimprovable on the grid")


def test_criterion_06_infeasible_detection(infeasible):
    cfg = OuterConfig()
    with Clock(2.0):
        report = solve(infeasible, np.zeros(1), cfg)
    assert report.status is Status.INFEASIBLE_STATIONARY
    assert abs(report.x[0]) <= 1e-4
    assert feasibility_gnep_residual(infeasible, report.x)[0] <= 1e-6
    _stash("infeasible", report, gamma=10.0, u_max=cfg.u_max)
    _announce(6, "infeasible game stops at the violation-stationary point x = 0")


@pytest.mark.parametrize("mode", ["variational", "general"])
def test_criterion_07_quadratic_penalty_reduction(duopoly, mode):
    with Clock(5.0):
        if mode == "variational":
            cfg = OuterConfig(u_max=0.0, eps=1e-6)
            report = solve_variational(duopoly, np.zeros(2), cfg)
        else:
            cfg = OuterConfig(u_max=0.0, eps=1e-6)
            report = solve(duopoly, np.zeros(2), cfg)
    assert report.status is Status.SOLVED_KKT
    assert max(report.residuals) <= 1e-6
    for rec in report.trace:
        for u in rec.u:
            assert (u == 0.0).all()
        for nu in range(duopoly.num_players):
            g = duopoly.g_val(nu, rec.x)
            rho_nu = rec.rho[0] if report.shared else rec.rho[nu]
            assert np.array_equal(rec.multipliers.lam[nu], np.maximum(0.0, rho_nu * g))
    _stash(f"quadpenalty-{mode}", report, gamma=10.0, u_max=0.0)
    _announce(7, f"u_max=0 reduces to a pure penalty method ({mode}), bit-exactly")


def test_criterion_08_cq_fixtures():
    with Clock(1.0):
        a = problems.example24a()
        origin = np.zeros(2)
        assert emfcq_check(a, 0, origin).status is EmfcqStatus.HOLDS
        assert emfcq_check(a, 1, origin).status is EmfcqStatus.FAILS
        b = problems.example24b()
        ones = np.ones(2)
        assert emfcq_check(b, 0, ones).status is EmfcqStatus.HOLDS
        assert emfcq_check(b, 1, ones).status is EmfcqStatus.HOLDS
        concatenated = np.hstack([b.g_grad(0, ones), b.g_grad(1, ones)])
        assert not positive_linear_independence(concatenated).independent
    _announce(8, "player-wise and concatenated constraint-qualification "
                 "verdicts match the fixtures")


def _collected_runs(duopoly, infeasible):
    # normally filled by criteria 4-7; rebuilt when the sweep runs alone
    if len(_SOLVER_RUNS) < 7:
        _SOLVER_RUNS.clear()
        for start in ((0.0, 0.0), (1.0, 1.0), (10.0, 10.0)):
            cfg = OuterConfig()
            _stash(f"variational-{start}",
                   solve_variational(duopoly, np.array(start), cfg), 10.0, cfg.u_max)
        cfg5 = OuterConfig(eps=1e-9)
        _stash("general-duopoly", solve(duopoly, np.zeros(2), cfg5), 10.0, cfg5.u_max)
        cfg6 = OuterConfig()
        _stash("infeasible", solve(infeasible, np.zeros(1), cfg6), 10.0, cfg6.u_max)
        _stash("quadpenalty-variational",
               solve_variational(duopoly, np.zeros(2),
                                 OuterConfig(u_max=0.0, eps=1e-6)),
               10.0, 0.0)
        _stash("quadpenalty-general",
               solve(duopoly, np.zeros(2), OuterConfig(u_max=0.0, eps=1e-6)), 10.0, 0.0)
    return _SOLVER_RUNS


def test_criterion_09_invariant_sweep(duopoly, infeasible):
    runs = _collected_runs(duopoly, infeasible)
    lm_cfg = LmConfig()
    for label, report, gamma, u_max in runs:
        prev_rho = None
        for rec in report.trace:
            if prev_rho is not None:
                ratio_ok = (rec.rho == prev_rho) | (rec.rho == gamma * prev_rho)
                assert ratio_ok.all(), label
                assert (rec.rho >= prev_rho).all(), label
            prev_rho = rec.rho
            for u in rec.u:
                assert (u >= 0.0).all() and (u <= u_max).all(), label
            for lam in rec.multipliers.lam:
                assert (lam >= 0.0).all(), label
            norms = [s.residual_before for s in rec.inner.steps]
            norms.append(rec.inner.final_residual)
            assert all(b < a for a, b in zip(norms, norms[1:])), label
            for step in rec.inner.steps:
                if step.resolves == 0:
                    expected = max(lm_cfg.decrease_factor * step.alpha_in,
                                   lm_cfg.alpha_floor)
                else:
                    expected = step.alpha_in
                    for _ in range(step.resolves):
                        expected = expected * lm_cfg.increase_factor
                assert step.alpha_out == expected, label
    _announce(9, f"penalty/safeguard/step invariants hold over "
                 f"{len(runs)} recorded traces")


def test_criterion_10_determinism(tmp_path):
    with Clock(2.0):
        outputs = []
        for tag in ("first", "second"):
            report = tmp_path / f"{tag}.report.txt"
            trace = tmp_path / f"{tag}.trace.jsonl"
            cfg = RunConfig(problem="duopoly_shared", x0="0", mode="variational",
                            report=str(report), trace=str(trace), seed=3)
            assert run(cfg) == 0
            outputs.append((report.read_bytes(), trace.read_bytes()))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]
    _announce(10, "identical configs reproduce byte-identical report and trace")


def test_criterion_11_nnls_oracle():
    rng = np.random.default_rng(11)
    with Clock(5.0):
        for _ in range(100):
            m = int(rng.integers(3, 9))
            n = int(rng.integers(2, 7))
            A = rng.standard_normal((m, n))
            b = rng.standard_normal(m)
            w = nnls(A, b)
            grad = A.T @ (A @ w - b)
            assert (w >= 0.0).all()
            assert (grad >= -1e-10).all()
            assert abs(w @ grad) <= 1e-10
            best = np.linalg.norm(A @ w - b)
            trials = rng.uniform(0.0, 1.0 + w.max(), size=(1000, n))
            trial_objs = np.linalg.norm(trials @ A.T - b, axis=1)
            assert best <= trial_objs.min() + 1e-12
    _announce(11, "nonnegative least-squares output passes its optimality "
                  "conditions and beats random sampling on 100 instances")
