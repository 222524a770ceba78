"""Property tests over generated games and generated problem files."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gnepalm.diagnostics import PointClass, diagnose
from gnepalm.model import ConstraintBundle, GnepProblem, ObjectiveBundle, PlayerSpec
from gnepalm.outer import OuterConfig, Status, solve, solve_variational
from gnepalm.plugin import PluginError, parse_problem_text
from gnepalm.problems import OracleConfig, OracleVerdict, best_response_check

# Fixed example order and no example database, so every run checks the same cases.
PROPERTY = settings(derandomize=True, deadline=None, database=None)


def monotone_game(N, d, seed, shift, constraint):
    """Strongly monotone quadratic game whose players all share ``constraint``.

    Player ``nu``'s gradient is ``M[rows] @ x + c[rows]`` with ``M`` an SPD
    matrix plus a skew part that vanishes on the diagonal blocks, so each
    own-block Hessian is symmetric and the game need not be a potential game.
    """
    rng = np.random.default_rng(seed)
    n = N * d
    B = rng.standard_normal((n, n))
    S = rng.standard_normal((n, n))
    K = S - S.T
    for nu in range(N):
        K[nu * d:(nu + 1) * d, nu * d:(nu + 1) * d] = 0.0
    M = B.T @ B / n + np.eye(n) + K
    c = rng.standard_normal(n) - shift
    players = []
    for nu in range(N):
        rows = slice(nu * d, (nu + 1) * d)
        objective = ObjectiveBundle(
            value=lambda x, rows=rows: float(
                x[rows] @ (M[rows] @ x - 0.5 * M[rows, rows] @ x[rows] + c[rows])
            ),
            grad=lambda x, rows=rows: M[rows] @ x + c[rows],
            hess=lambda x, rows=rows: M[rows],
        )
        players.append(PlayerSpec(d, objective, g=constraint(n, d)))
    return GnepProblem(players, shared_constraints=True)


def linear_constraints(A, b):
    """Bundle of ``A.T @ x - b <= 0`` for an ``(n, count)`` matrix ``A``."""
    return lambda n, d: ConstraintBundle(
        count=b.size,
        value=lambda x: A.T @ x - b,
        grad=lambda x: A,
        hess=lambda x: np.zeros((b.size, d, n)),
    )


sizes = st.tuples(st.integers(1, 4), st.integers(1, 3))
seeds = st.integers(0, 2**32 - 1)


@settings(PROPERTY, max_examples=60)
@given(sizes, seeds, st.floats(0.0, 3.0))
def test_monotone_budget_games_are_solved(size, seed, shift):
    N, d = size
    n = N * d
    budget = linear_constraints(np.ones((n, 1)), np.array([1.0]))
    prob = monotone_game(N, d, seed, shift, budget)
    for method in (solve, solve_variational):
        report = method(prob, np.zeros(n))
        assert report.status is Status.SOLVED_KKT
        verdict = diagnose(prob, report.x, report.multipliers)
        assert verdict.classification is PointClass.FEASIBLE_KKT


@settings(PROPERTY, max_examples=12)
@given(st.tuples(st.integers(1, 4), st.integers(1, 2)), seeds, st.floats(0.0, 3.0))
def test_solved_points_pass_the_best_response_oracle(size, seed, shift):
    N, d = size
    n = N * d
    budget = linear_constraints(np.ones((n, 1)), np.array([1.0]))
    prob = monotone_game(N, d, seed, shift, budget)
    cfg = OuterConfig()
    for method in (solve, solve_variational):
        report = method(prob, np.zeros(n), cfg)
        assert report.status is Status.SOLVED_KKT
        # a grid over a box of +-1 around each player's block
        box = tuple(
            tuple((v - 1.0, v + 1.0) for v in report.x[prob.block_slice(nu)]) for nu in range(N)
        )
        oracle = OracleConfig(bounds=box, resolution=41, feas_tol=cfg.eps)
        assert best_response_check(prob, report.x, oracle).verdict is OracleVerdict.EQUILIBRIUM


@settings(PROPERTY, max_examples=10)
@given(sizes, seeds, st.floats(0.01, 2.0))
def test_contradictory_constraints_end_with_a_status(size, seed, gap):
    # a.x <= b and a.x >= b + gap cannot both hold.
    N, d = size
    n = N * d
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(n)
    a /= np.linalg.norm(a)
    b = rng.standard_normal()
    pair = linear_constraints(np.column_stack([a, -a]), np.array([b, -b - gap]))
    prob = monotone_game(N, d, seed, 0.0, pair)
    for method in (solve, solve_variational):
        report = method(prob, np.zeros(n))
        assert isinstance(report.status, Status)


WORDS = ["name", "players", "dims", "shared", "x0", "player", "theta", "g", "h", "bogus", "#"]
ATOMS = ["0", "1", "2", "-1", "--2", "+1", "1_0", "²", "¹", "٣", "0.5", "-3e2", "nan",
         "(", ")", "x", "é", "9" * 5000]
COUNTS = st.sampled_from(["1", "2", "0", "-1", "²", "٣", "x"])
lines = st.builds(
    lambda word, rest: " ".join([word, *rest]),
    st.sampled_from(WORDS),
    st.lists(st.sampled_from(ATOMS), max_size=6),
)


@st.composite
def gnep_texts(draw):
    # A header that is often well formed, so the fuzzed lines reach the sections.
    head = [f"players {draw(COUNTS)}", "dims " + " ".join(draw(st.lists(COUNTS, max_size=3)))]
    return "\n".join(head + draw(st.lists(lines, max_size=10)))


@settings(PROPERTY, max_examples=100)
@given(st.one_of(gnep_texts(), st.text(max_size=200)))
def test_fuzzed_problem_text_raises_only_plugin_error(text):
    try:
        parse_problem_text(text)
    except PluginError:
        pass
