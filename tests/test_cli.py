import json

import numpy as np
import pytest

from gnepalm.cli import (
    RunConfig,
    UsageError,
    load_run_config,
    main,
    make_run_config,
    parse_x0,
    resolve_problem,
    run,
)
from gnepalm import problems

DUOPOLY_FILE = """\
name duopoly_file
players 2
dims 1 1
shared
x0 origin 0 0

player 1
theta 1 (2 0)  -2 (1 0)  1 (0 0)
g 1 (1 0)  1 (0 1)  -1 (0 0)

player 2
theta 1 (0 2)  -1 (0 1)  0.25 (0 0)
g 1 (1 0)  1 (0 1)  -1 (0 0)
"""

# x1 + x2 <= 0 and x1 + x2 >= 1 cannot both hold
CONTRADICTORY_FILE = """\
name contradictory
players 1
dims 2

player 1
theta 1 (2 0)  1 (0 2)
g 1 (1 0)  1 (0 1)
g 1 (0 0)  -1 (1 0)  -1 (0 1)
"""


def read_table_row(report_path):
    lines = report_path.read_text().splitlines()
    header_idx = next(i for i, l in enumerate(lines) if l.startswith("example"))
    header = lines[header_idx].split()
    row = lines[header_idx + 1].split()
    return dict(zip(header, row))


class TestRun:
    def test_variational_duopoly_exit_zero(self, tmp_path):
        report = tmp_path / "rep.txt"
        trace = tmp_path / "tr.jsonl"
        cfg = RunConfig(
            problem="duopoly_shared", x0="0", mode="variational",
            report=str(report), trace=str(trace),
        )
        assert run(cfg) == 0
        row = read_table_row(report)
        assert row["example"] == "duopoly_shared"
        assert row["N"] == "2" and row["n"] == "2"
        assert int(row["k"]) <= 30
        for col in ("R_f", "R_o", "R_c"):
            assert float(row[col]) <= 1e-8
        assert "status: SolvedKKT" in report.read_text()

    def test_infeasible_exit_two(self, tmp_path):
        report = tmp_path / "rep.txt"
        cfg = RunConfig(problem="infeasible_single", x0="0", report=str(report))
        assert run(cfg) == 2
        text = report.read_text()
        assert "status: InfeasibleStationary" in text
        x_line = next(l for l in text.splitlines() if l.startswith("x:"))
        x = json.loads(x_line.split(":", 1)[1])
        assert abs(x[0]) <= 1e-4

    def test_wrong_x0_length_exit_one_no_report(self, tmp_path):
        report = tmp_path / "rep.txt"
        code = main(["--problem", "duopoly_shared", "--x0", "0,0,0",
                     "--report", str(report)])
        assert code == 1
        assert not report.exists()

    def test_table_rederives_from_trace(self, tmp_path):
        report = tmp_path / "rep.txt"
        trace = tmp_path / "tr.jsonl"
        cfg = RunConfig(
            problem="duopoly_shared", x0="0", mode="variational",
            report=str(report), trace=str(trace),
        )
        run(cfg)
        records = [json.loads(line) for line in trace.read_text().splitlines()]
        row = read_table_row(report)
        assert int(row["k"]) == records[-1]["k"]
        assert int(row["i_total"]) == sum(r["inner_iters"] for r in records)
        last = records[-1]["residuals"]
        assert row["R_f"] == f"{last['r_f']:.1e}"
        assert row["R_o"] == f"{last['r_o']:.1e}"
        assert row["R_c"] == f"{last['r_c']:.1e}"
        rho_max = max(max(r["rho"]) for r in records)
        assert row["rho_max"] == f"{rho_max:g}"

    @pytest.mark.parametrize("mode", ["general", "variational"])
    def test_classification_uses_run_eps(self, tmp_path, mode):
        # solved to eps = 1e-4, the point is classified against that eps too
        report = tmp_path / "rep.txt"
        code = main(["--problem", "quad3", "--x0", "tens", "--eps", "1e-4",
                     "--mode", mode, "--report", str(report)])
        text = report.read_text()
        assert code == 0
        assert "status: SolvedKKT" in text
        assert "classification: FeasibleKKT" in text

    def test_byte_identical_replay(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            report = tmp_path / f"rep_{tag}.txt"
            trace = tmp_path / f"tr_{tag}.jsonl"
            cfg = RunConfig(
                problem="duopoly_shared", x0="0", mode="variational",
                report=str(report), trace=str(trace), seed=7,
            )
            assert run(cfg) == 0
            paths.append((report, trace))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_budget_exhaustion_exit_four(self, tmp_path):
        report = tmp_path / "rep.txt"
        code = main(["--problem", "duopoly_shared", "--x0", "0",
                     "--max-outer", "2", "--report", str(report)])
        assert code == 4
        assert "status: MaxOuterIterations" in report.read_text()

    def test_plugin_problem_via_cli(self, tmp_path):
        plugin = tmp_path / "duo.gnep"
        plugin.write_text(DUOPOLY_FILE)
        report = tmp_path / "rep.txt"
        code = main([
            "--problem", str(plugin), "--x0", "origin",
            "--mode", "variational", "--report", str(report),
        ])
        assert code == 0
        assert "duopoly_file" in report.read_text()

    def test_failed_factorization_exit_two(self, tmp_path):
        plugin = tmp_path / "contradictory.gnep"
        plugin.write_text(CONTRADICTORY_FILE)
        report = tmp_path / "rep.txt"
        code = main(["--problem", str(plugin), "--x0", "0", "--report", str(report)])
        assert code == 2
        assert "status: InfeasibleStationary" in report.read_text()


class TestConfigHandling:
    def test_x0_forms(self):
        prob = problems.duopoly_shared()
        np.testing.assert_array_equal(parse_x0("0", prob), [0.0, 0.0])
        np.testing.assert_array_equal(parse_x0("0.5,1.5", prob), [0.5, 1.5])
        np.testing.assert_array_equal(parse_x0("tens", prob), [10.0, 10.0])
        with pytest.raises(UsageError):
            parse_x0("nope", prob)
        with pytest.raises(UsageError):
            parse_x0("1,2,3", prob)

    def test_config_file_roundtrip(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "problem = duopoly_shared\n"
            "mode = variational\n"
            "x0 = 0\n"
            "eps = 1e-8\n"
            "max_outer = 50\n"
        )
        raw = load_run_config(cfg_file)
        cfg = make_run_config(raw)
        assert cfg.problem == "duopoly_shared"
        assert cfg.max_outer == 50
        assert cfg.eps == 1e-8

    def test_unknown_key_rejected(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("problem = duopoly_shared\nbogus = 1\n")
        with pytest.raises(UsageError, match="unknown key"):
            load_run_config(cfg_file)
        assert main([str(cfg_file)]) == 1

    def test_missing_problem_rejected(self):
        with pytest.raises(UsageError, match="problem"):
            make_run_config({})

    def test_cli_overrides_config_file(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("problem = duopoly_shared\nmode = general\nx0 = 0\n")
        report = tmp_path / "rep.txt"
        code = main([str(cfg_file), "--mode", "variational",
                     "--report", str(report)])
        assert code == 0
        assert "mode: variational" in report.read_text()

    def test_unknown_catalog_name(self):
        assert main(["--problem", "not_a_problem"]) == 1

    def test_resolve_plugin_by_suffix(self, tmp_path):
        plugin = tmp_path / "duo.gnep"
        plugin.write_text(DUOPOLY_FILE)
        prob = resolve_problem(str(plugin))
        assert prob.name == "duopoly_file"

    def test_variational_on_nonshared_is_config_error(self):
        assert main(["--problem", "nonshared2", "--mode", "variational"]) == 1


class TestBatch:
    def test_batch_directory(self, tmp_path):
        (tmp_path / "a.cfg").write_text(
            "problem = duopoly_shared\nmode = variational\nx0 = 0\n"
        )
        (tmp_path / "b.cfg").write_text("problem = infeasible_single\nx0 = 0\n")
        code = main(["--batch", str(tmp_path)])
        assert code == 2  # worst of {0, 2}
        assert (tmp_path / "a.report.txt").exists()
        assert (tmp_path / "a.trace.jsonl").exists()
        assert (tmp_path / "b.report.txt").exists()
        assert "InfeasibleStationary" in (tmp_path / "b.report.txt").read_text()

    def test_failing_configs_are_isolated(self, tmp_path, capsys):
        (tmp_path / "a.cfg").write_text("problem = duopoly_shared\nx0 = 0\n")
        (tmp_path / "b.cfg").write_text("problem = no_such_game\n")
        (tmp_path / "c.cfg").write_text("problem = duopoly_shared\nx0 = 1,2,3\n")
        (tmp_path / "d.cfg").write_text(
            f"problem = duopoly_shared\nreport = {tmp_path / 'missing' / 'd.txt'}\n"
        )
        (tmp_path / "e.cfg").write_text("problem = infeasible_single\n")
        code = main(["--batch", str(tmp_path)])
        assert code == 2  # worst of {0, 1, 1, 1, 2}
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "a.cfg: exit 0"
        assert lines[1].startswith("b.cfg: error: unknown catalog problem")
        assert lines[2].startswith("c.cfg: error: x0 has 3 entries")
        assert lines[3].startswith("d.cfg: error: ")
        assert lines[4] == "e.cfg: exit 2"
        assert len(lines) == 5
        assert "SolvedKKT" in (tmp_path / "a.report.txt").read_text()

    def test_unicode_digit_in_problem_file_is_isolated(self, tmp_path, capsys):
        (tmp_path / "bad.gnep").write_text("players \u00b2\n")
        (tmp_path / "a.cfg").write_text(f"problem = {tmp_path / 'bad.gnep'}\n")
        (tmp_path / "b.cfg").write_text("problem = duopoly_shared\nx0 = 0\n")
        code = main(["--batch", str(tmp_path)])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("a.cfg: error: ")
        assert "players takes one positive integer" in lines[0]
        assert lines[1:] == ["b.cfg: exit 0"]

    def test_empty_batch_dir(self, tmp_path):
        assert main(["--batch", str(tmp_path)]) == 1
