import numpy as np
import pytest

from gnepalm import problems
from gnepalm.model import validate_problem
from gnepalm.outer import OuterConfig, Status, solve_variational
from gnepalm.plugin import (
    Monomial,
    PluginError,
    Polynomial,
    load_problem_plugin,
    parse_problem_text,
)

DUOPOLY_FILE = """\
# duopoly: two quadratic players on a shared budget line
name duopoly_file
players 2
dims 1 1
shared
x0 origin 0 0
x0 ones 1 1

player 1
theta 1 (2 0)  -2 (1 0)  1 (0 0)      # (x1 - 1)^2
g 1 (1 0)  1 (0 1)  -1 (0 0)          # x1 + x2 - 1

player 2
theta 1 (0 2)  -1 (0 1)  0.25 (0 0)   # (x2 - 1/2)^2
g 1 (1 0)  1 (0 1)  -1 (0 0)
"""


class TestPolynomial:
    def test_value_grad_hess(self):
        # p = x0^2 * x1 + 3 x1
        p = Polynomial([Monomial(1.0, (2, 1)), Monomial(3.0, (0, 1))], n=2)
        x = np.array([2.0, 5.0])
        assert p.value(x) == 4 * 5 + 15
        np.testing.assert_array_equal(p.grad(x), [2 * 2 * 5, 4 + 3])
        np.testing.assert_array_equal(p.hess(x), [[10.0, 4.0], [4.0, 0.0]])

    def test_hess_matches_finite_differences(self, rng):
        p = Polynomial(
            [Monomial(1.5, (3, 0, 1)), Monomial(-2.0, (1, 2, 0)), Monomial(0.7, (0, 0, 2))],
            n=3,
        )
        x = rng.standard_normal(3)
        h = 1e-6
        fd = np.empty((3, 3))
        for j in range(3):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd[:, j] = (p.grad(xp) - p.grad(xm)) / (2 * h)
        np.testing.assert_allclose(p.hess(x), fd, atol=1e-4)

    def test_canonical_merges_terms(self):
        a = Polynomial([Monomial(1.0, (1, 0)), Monomial(2.0, (1, 0))], n=2)
        b = Polynomial([Monomial(3.0, (1, 0))], n=2)
        assert a.canonical() == b.canonical()


class TestParsing:
    def test_duopoly_file_matches_catalog(self, rng):
        loaded = parse_problem_text(DUOPOLY_FILE, source="inline")
        reference = problems.duopoly_shared()
        assert loaded.shared_constraints
        assert loaded.n == 2
        for _ in range(10):
            x = rng.standard_normal(2)
            for nu in range(2):
                assert loaded.theta(nu, x) == pytest.approx(reference.theta(nu, x))
                np.testing.assert_allclose(
                    loaded.g_val(nu, x), reference.g_val(nu, x), atol=1e-12
                )
                np.testing.assert_allclose(
                    loaded.theta_grad(nu, x), reference.theta_grad(nu, x), atol=1e-12
                )
                np.testing.assert_allclose(
                    loaded.g_grad(nu, x), reference.g_grad(nu, x), atol=1e-12
                )

    def test_loaded_problem_solves(self):
        loaded = parse_problem_text(DUOPOLY_FILE)
        report = solve_variational(
            loaded, loaded.x0_presets["origin"], OuterConfig()
        )
        assert report.status is Status.SOLVED_KKT
        np.testing.assert_allclose(report.x, [0.75, 0.25], atol=1e-6)

    def test_exact_derivatives_validate(self, rng):
        loaded = parse_problem_text(DUOPOLY_FILE)
        points = [rng.standard_normal(2) for _ in range(5)]
        assert validate_problem(loaded, points, fd_tol=1e-6).passed

    def test_load_from_disk(self, tmp_path):
        path = tmp_path / "duo.gnep"
        path.write_text(DUOPOLY_FILE)
        prob = load_problem_plugin(path)
        assert prob.name == "duopoly_file"
        assert set(prob.x0_presets) == {"origin", "ones"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(PluginError, match="cannot read"):
            load_problem_plugin(tmp_path / "absent.gnep")


class TestParseErrors:
    def test_malformed_exponent_tuple_names_line(self):
        text = "players 1\ndims 2\nplayer 1\ntheta 1 (2 x)\n"
        with pytest.raises(PluginError, match="line 4"):
            parse_problem_text(text, source="bad.gnep")

    def test_wrong_exponent_arity(self):
        text = "players 1\ndims 2\nplayer 1\ntheta 1 (2)\n"
        with pytest.raises(PluginError, match="expected 2"):
            parse_problem_text(text)

    def test_unterminated_tuple(self):
        text = "players 1\ndims 1\nplayer 1\ntheta 1 (2\n"
        with pytest.raises(PluginError, match="unterminated"):
            parse_problem_text(text)

    def test_negative_exponent(self):
        text = "players 1\ndims 1\nplayer 1\ntheta 1 (-2)\n"
        with pytest.raises(PluginError, match="nonnegative"):
            parse_problem_text(text)

    @pytest.mark.parametrize("text", [
        "players \u00b2\n",
        "players 1\ndims 1\nplayer \u00b9\n",
        "players 1\ndims 1\nplayer 1\ntheta 1 (\u00b2)\n",
    ])
    def test_superscript_digits_rejected(self, text):
        # str.isdigit() accepts superscripts, int() does not
        with pytest.raises(PluginError):
            parse_problem_text(text)

    def test_shared_mismatch_rejected(self):
        text = (
            "players 2\ndims 1 1\nshared\n"
            "player 1\ng 1 (1 0)\n"
            "player 2\ng 1 (0 1)\n"
        )
        with pytest.raises(PluginError, match="shared"):
            parse_problem_text(text)

    def test_shared_reordered_terms_accepted(self):
        text = (
            "players 2\ndims 1 1\nshared\n"
            "player 1\ng 1 (1 0)  2 (0 1)\n"
            "player 2\ng 2 (0 1)  1 (1 0)\n"
        )
        prob = parse_problem_text(text)
        assert prob.shared_constraints

    def test_unknown_directive(self):
        with pytest.raises(PluginError, match="unknown directive"):
            parse_problem_text("players 1\ndims 1\nfoo bar\n")

    def test_missing_header(self):
        with pytest.raises(PluginError, match="players and dims"):
            parse_problem_text("player 1\n")
        with pytest.raises(PluginError, match="players/dims"):
            parse_problem_text("# empty file\n")

    def test_x0_wrong_length(self):
        with pytest.raises(PluginError, match="needs 2 values"):
            parse_problem_text("players 2\ndims 1 1\nx0 start 0\n")

    def test_constraint_outside_section(self):
        with pytest.raises(PluginError, match="player section"):
            parse_problem_text("players 1\ndims 1\ng 1 (1)\n")

    def test_kept_constraint_line_rejected(self):
        text = "players 1\ndims 1\nplayer 1\ntheta 1 (2)\nh 1 (1)  -1 (0)\n"
        with pytest.raises(PluginError, match="line 5: .*as a 'g' line"):
            parse_problem_text(text, source="kept.gnep")

    def test_duplicate_theta(self):
        text = "players 1\ndims 1\nplayer 1\ntheta 1 (1)\ntheta 1 (2)\n"
        with pytest.raises(PluginError, match="duplicate theta"):
            parse_problem_text(text)


def test_omitted_theta_is_zero_objective():
    text = "players 1\ndims 1\nplayer 1\ng 1 (1)\n"
    prob = parse_problem_text(text)
    assert prob.theta(0, np.array([3.0])) == 0.0
    np.testing.assert_array_equal(prob.theta_grad(0, np.array([3.0])), [0.0])
