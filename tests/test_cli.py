import csv
import dataclasses
import json
import logging
import os
import sys
import threading
import time

import numpy as np
import pytest

import helpers
from aprfm import cli, problems, solve
from aprfm.method import Method


def tiny_config(**overrides):
    base = dict(problem="ex1", method="aprfm", epsilon=0.5, j=6,
                nx=8, nv=16, seed=1, out="run")
    base.update(overrides)
    return cli.RunConfig(**base)


def four_cells():
    """ex1 aprfm cells; on a 2-core OpenBLAS box the errors of the j = 64
    ones move with the BLAS thread count (at nx = 32, nv = 64 none do)."""
    return [tiny_config(epsilon=eps, j=j, nx=64, nv=128)
            for eps in (1e-2, 1e-8) for j in (16, 64)]


def cpus(monkeypatch, count):
    """Let the process appear to run on ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


def no_run(*args, **kwargs):
    pytest.fail("the pipeline ran")


def stand_in_run(record):
    """A ``cli.run`` stand-in that calls ``record(config)`` and reports an
    error of 1."""
    def fake_run(config, reference_cache=None):
        record(config)
        return cli.RunResult(report={"error": 1.0}, field_columns=(),
                             field_rows=None)
    return fake_run


class TestRun:
    def test_report_contents(self, tmp_path):
        config = tiny_config(out=str(tmp_path / "run"))
        result = cli.run(config)
        cli.write_run_outputs(result, config.out)
        report = json.loads((tmp_path / "run.json").read_text())
        assert report["error"] > 0
        assert report["error_kind"] == "f-phase"
        assert report["Z"] == 12
        # a macro row per spatial node, a micro row per interior point
        assert report["N"] == (report["config"]["nx"] + report["N_int"]
                               + report["N_bdy"])
        # defaults are fully expanded in the echoed config
        assert report["config"]["jrho"] == 6
        assert report["config"]["nq"] == 16
        assert report["config"]["b_range"] == 1.0
        assert report["lambda_stats"]["max"] >= report["lambda_stats"]["min"]
        # the smallest retained singular values, largest first, and the
        # condition estimate is the largest over the smallest of them
        tail = report["singular_tail"]
        assert len(tail) == min(8, report["rank"])
        assert tail == sorted(tail, reverse=True) and tail[-1] > 0
        assert report["condition_estimate"] * tail[-1] >= tail[0]
        # disjoint stages of the run
        timings = report["timings"]
        stages = [timings.pop(name) for name in ("assembly", "solve",
                                                  "evaluation", "reference")]
        assert list(timings) == ["total"]
        assert min(stages) >= 0
        assert sum(stages) <= timings["total"] * (1 + 1e-9)
        assert report["peak_rss_mb"] > 0
        csv_lines = (tmp_path / "run.csv").read_text().splitlines()
        assert csv_lines[0] == "x,v,f_approx,f_ref"
        assert len(csv_lines) == 1 + 128 * 256
        # the reference entry names how the reference was made and what
        # it took: the 1D oracle is one direct solve, with no tolerance,
        # the 2D one GMRES, with its sweeps and final relative residual
        assert report["reference"] == {"kind": "exact"}
        oracle = cli.run(tiny_config(problem="ex2")).report["reference"]
        assert oracle == {"kind": "fdm", "resolution": (512,),
                          "solver": "direct", "sweeps": 1}
        oracle = cli.run(tiny_config(problem="ex5", epsilon=1.0, nx1=8,
                                     nx2=8, nv=8)).report["reference"]
        residual = oracle.pop("gmres_residual")
        sweeps = oracle.pop("sweeps")
        assert oracle == {"kind": "fdm", "resolution": (128, 128),
                          "solver": "gmres", "sweep_tol": 1e-10}
        assert 0.0 < residual <= 1e-10
        assert isinstance(sweeps, int) and sweeps > 1

    def test_rerun_is_byte_identical(self, tmp_path):
        config_a = tiny_config(out=str(tmp_path / "a"))
        cli.write_run_outputs(cli.run(config_a), config_a.out)
        config_b = tiny_config(out=str(tmp_path / "b"))
        cli.write_run_outputs(cli.run(config_b), config_b.out)
        assert (tmp_path / "a.csv").read_bytes() == \
            (tmp_path / "b.csv").read_bytes()

    def test_2d_reports_density_error(self, tmp_path):
        config = tiny_config(problem="ex4", epsilon=1.0, j=6, nx1=8, nx2=8,
                             nv=8, out=str(tmp_path / "sq"))
        result = cli.run(config)
        assert result.report["error_kind"] == "rho-spatial"
        assert result.report["f_error"] is not None
        cli.write_run_outputs(result, config.out)
        header = (tmp_path / "sq.csv").read_text().splitlines()[0]
        assert header == "x1,x2,rho_approx,rho_ref"

    def test_2d_f_dump_beside_the_density_dump(self, tmp_path):
        config = tiny_config(problem="ex4", epsilon=1.0, j=4, nx1=8, nx2=8,
                             nv=8, out=str(tmp_path / "sq"))
        result = cli.run(config)
        np.testing.assert_allclose(result.f_rows[:, 4],
                                   np.exp(-result.f_rows[:, 0]
                                          - result.f_rows[:, 1]),
                                   rtol=1e-15)
        cli.write_run_outputs(result, config.out)
        lines = (tmp_path / "sq_f.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,v,f_approx,f_ref"
        assert len(lines) == 1 + 64 * 64 * 32
        np.testing.assert_allclose(
            np.loadtxt(lines[1:], delimiter=","), result.f_rows, rtol=5e-7)

    def test_annulus_dump_omits_hole(self, tmp_path):
        config = tiny_config(problem="ex6", epsilon=1.0, j=4, nx1=8, nx2=8,
                             nv=8, mv=1, out=str(tmp_path / "hr"))
        result = cli.run(config)
        cli.write_run_outputs(result, config.out)
        rows = np.loadtxt(tmp_path / "hr.csv", delimiter=",", skiprows=1)
        assert rows.shape == (3612, 4)
        assert np.all(np.max(np.abs(rows[:, :2]), axis=1) >= 1 / 3)
        assert (tmp_path / "hr_f.csv").exists()
        # the bytes the sweep tables' writer gives the same rows
        cli.write_csv(tmp_path / "table.csv", result.field_columns,
                      result.field_rows)
        assert (tmp_path / "hr.csv").read_bytes() == \
            (tmp_path / "table.csv").read_bytes()

    @pytest.mark.parametrize("problem", ["ex1", "ex5"])
    def test_no_f_dump_beside_the_field_dump(self, tmp_path, problem):
        # in 1D the field dump is f; ex5 has no exact f to dump against
        config = tiny_config(problem=problem, epsilon=1.0, j=4, nx1=8,
                             nx2=8, nv=8, out=str(tmp_path / "x"))
        cli.write_run_outputs(cli.run(config), config.out)
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            "x.csv", "x.json"]

    @pytest.mark.parametrize("problem", ["ex4", "ex6"])
    def test_2d_exact_density_never_reaches_the_oracle(self, monkeypatch,
                                                       problem):
        # the 2D oracle serves ex5 alone: runs on problems with an exact
        # density are scored against it
        def refuse(*args, **kwargs):
            pytest.fail("the 2D oracle ran")

        monkeypatch.setattr(cli, "fdm_density", refuse)
        config = tiny_config(problem=problem, epsilon=1.0, j=4, nx1=8,
                             nx2=8, nv=8)
        assert cli.run(config).report["reference"] == {"kind": "exact"}

    def test_mixed_scale_reference_is_cached(self, monkeypatch):
        calls = []

        def counting_oracle(*args, **kwargs):
            calls.append(args[0].id)
            return fdm_reference(*args, **kwargs)

        fdm_reference = cli.fdm_reference
        monkeypatch.setattr(cli, "fdm_reference", counting_oracle)
        cache = {}
        for seed in (1, 2):
            cli.run(tiny_config(problem="ex3", epsilon="profile", seed=seed),
                    reference_cache=cache)
        assert calls == ["ex3"]

    @pytest.mark.parametrize("config,helper_error", [
        (dict(method="aprfm", jrho=8, jg=8, nx=16, nv=32),
         lambda spec: helpers.aprfm_f_error(
             spec, 8, 8, (16,), 32, helpers.exact_field_for(spec), seed=3)),
        (dict(method="rfm", j=16, nx=16, nv=32),
         lambda spec: helpers.rfm_f_error(spec, 16, (16,), 32, seed=3)),
        (dict(problem="ex4", method="aprfm", epsilon=1.0, j=8, mv=2,
              nx1=8, nx2=8, nv=8),
         lambda spec: helpers.aprfm_rho_error(
             spec, 8, 8, (8, 8), 8, helpers.exact_rho_field(spec),
             m_velocity=2, seed=3)),
    ], ids=["ex1-aprfm", "ex1-rfm", "ex4-aprfm"])
    def test_shipped_path_is_tested_path(self, config, helper_error):
        config = tiny_config(seed=3, **config)
        spec = problems.catalog(config.problem, config.epsilon)
        assert cli.run(config).report["error"] == helper_error(spec)

    def test_seed_changes_error(self):
        a = cli.run(tiny_config(seed=1)).report["error"]
        b = cli.run(tiny_config(seed=2)).report["error"]
        assert a != b

    @pytest.mark.parametrize("settings", [
        dict(method="rfm", mx=2, mv=2), dict(method="aprfm", mx=4),
        # one spatial box, two velocity boxes: the velocity groups' factors
        dict(problem="ex6", epsilon=1.0, method="aprfm", jrho=16, jg=16,
             mv=2, nx1=16, nx2=16, nv=16),
        # four spatial boxes at Z 640: a merge whose roundoff depends on
        # the BLAS thread count
        dict(problem="ex4", epsilon=1.0, method="aprfm", jrho=32, jg=64,
             mx1=2, mx2=2, mv=2, nx1=16, nx2=16, nv=16)],
        ids=["rfm-mx2-mv2", "aprfm-mx4", "ex6-mv2", "ex4-2x2-z640"])
    def test_lone_run_replays_bitwise_on_one_blas_thread(self, settings):
        # folded on a helper thread and merged at one BLAS thread, solved
        # at two, against everything on one thread
        config = cli.RunConfig(**{"problem": "ex1", "epsilon": 1e-2,
                                  **settings})
        with helpers.blas_threads(2):
            lone = cli.run(config)
            with solve._one_blas_thread() as taken:
                assert taken == 1
                replayed = cli.run(config)
        for key in ("error", "residual_norm", "rank"):
            assert lone.report[key] == replayed.report[key]
        assert np.array_equal(lone.field_rows, replayed.field_rows)


class TestMain:
    def test_run_exit_zero(self, tmp_path, capsys):
        out = str(tmp_path / "cli_run")
        code = cli.main(["run", "--problem", "ex1", "--method", "aprfm",
                         "--epsilon", "0.5", "--j", "6", "--nx", "8",
                         "--nv", "16", "--out", out])
        assert code == 0
        assert (tmp_path / "cli_run.json").exists()
        assert (tmp_path / "cli_run.csv").exists()
        assert "error=" in capsys.readouterr().out

    def test_invalid_config_exit_two(self, capsys):
        code = cli.main(["run", "--problem", "ex9"])
        assert code == 2
        assert "invalid-config" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["inf", "nan"])
    def test_non_finite_epsilon_exit_two(self, tmp_path, capsys, epsilon):
        code = cli.main(["run", "--problem", "ex1", "--epsilon", epsilon,
                         "--j", "4", "--nx", "8", "--nv", "16",
                         "--out", str(tmp_path / "x")])
        assert code == 2
        assert "invalid-config" in capsys.readouterr().err

    @pytest.mark.parametrize("b_range", ["inf", "nan", "1e308"])
    def test_unusable_weight_range_exit_two(self, tmp_path, capsys,
                                            monkeypatch, b_range):
        # 1e308 is finite, but the interval [-1e308, 1e308] is not
        monkeypatch.setattr(cli, "solve", no_run)
        code = cli.main(["run", "--problem", "ex1", "--b-range", b_range,
                         "--out", str(tmp_path / "x")])
        assert code == 2
        assert "invalid-config" in capsys.readouterr().err

    @pytest.mark.parametrize("method, bits", [("rfm", 63), ("aprfm", 62)])
    def test_seed_beyond_weight_streams_exit_two(self, tmp_path, capsys,
                                                 monkeypatch, method, bits):
        # weight streams take seeds below 2**63, and aprfm's g model is
        # drawn from seed 2s + 1; the largest seed below the bound builds
        spec = problems.catalog("ex1", 0.5)
        Method.build(spec, helpers.run_config(spec, method,
                                              seed=2 ** bits - 1, j=2))
        monkeypatch.setattr(cli, "solve", no_run)
        code = cli.main(["run", "--problem", "ex1", "--method", method,
                         "--seed", str(2 ** bits),
                         "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid-config" in err and f"[0, 2**{bits})" in err

    @pytest.mark.parametrize("command", [["run"], ["sweep", "--table", "T1"]],
                             ids=["run", "sweep"])
    def test_missing_output_directory_exit_two(self, tmp_path, capsys,
                                               monkeypatch, command):
        monkeypatch.setattr(cli, "solve", no_run)
        code = cli.main(command + ["--out", str(tmp_path / "missing" / "x")])
        assert code == 2
        assert "invalid-config" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--j", "0"],
                                      ["--jrho", "0", "--jg", "4"],
                                      ["--jrho", "4", "--jg", "0"]],
                             ids=["j", "jrho", "jg"])
    def test_feature_count_below_one_exit_two(self, tmp_path, capsys, flag):
        code = cli.main(["run", "--problem", "ex1", "--epsilon", "0.5",
                         "--nx", "8", "--nv", "16",
                         "--out", str(tmp_path / "x")] + flag)
        assert code == 2
        assert "invalid-config" in capsys.readouterr().err

    @pytest.mark.parametrize("table, flag", [
        ("T1", ["--activation", "relu"]), ("T4", ["--nq", "1"]),
        ("T4", ["--rank-tol", "1"])], ids=["activation", "nq", "rank-tol"])
    def test_bad_setting_stops_a_sweep_before_any_run(self, tmp_path, capsys,
                                                      monkeypatch, table,
                                                      flag):
        calls = []
        monkeypatch.setattr(cli, "run", stand_in_run(calls.append))
        out = tmp_path / "table"
        code = cli.main(["sweep", "--table", table, "--seeds", "1",
                         "--out", str(out)] + flag)
        assert code == 2
        assert "invalid-config" in capsys.readouterr().err
        assert calls == []
        assert not (tmp_path / "table_cells.csv").exists()

    @pytest.mark.parametrize("setting, value", [
        ("epsilon", 0.0), ("epsilon", -1.0), ("epsilon", "profile"),
        ("nv", 1), ("nx", 1), ("nx2", 1)],
        ids=["eps-zero", "eps-negative", "profile", "nv", "nx", "nx2"])
    def test_bad_cell_stops_a_library_sweep_before_any_run(
            self, tmp_path, monkeypatch, setting, value):
        # settings that run would reject at once: checked with the others
        calls = []
        monkeypatch.setattr(cli, "run", stand_in_run(calls.append))
        with pytest.raises(ValueError):
            cli.sweep([tiny_config(**{setting: value})],
                      cli.RunConfig(seeds=1), out=str(tmp_path / "table"))
        assert calls == []
        assert not (tmp_path / "table_cells.csv").exists()

    def test_oracle_below_its_eps_range_exit_two(self, tmp_path, capsys):
        code = cli.main(["run", "--problem", "ex5", "--method", "aprfm",
                         "--epsilon", "1e-3", "--j", "4", "--nx1", "8",
                         "--nx2", "8", "--nv", "8",
                         "--out", str(tmp_path / "x")])
        assert code == 2
        assert "unsupported-problem" in capsys.readouterr().err

    def test_oracle_refusal_comes_before_the_solve(self, tmp_path, capsys,
                                                   monkeypatch):
        # at default sizes: the check must not wait for the solve
        monkeypatch.setattr(cli, "solve", no_run)
        code = cli.main(["run", "--problem", "ex5", "--method", "aprfm",
                         "--epsilon", "1e-3", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "unsupported-problem" in capsys.readouterr().err

    def test_numerical_failure_exit_three(self, tmp_path, capsys,
                                          monkeypatch):
        # an oracle allowed a single sweep cannot converge
        fdm_density = cli.fdm_density
        monkeypatch.setattr(cli, "fdm_density",
                            lambda spec: fdm_density(spec, max_iters=1))
        code = cli.main(["run", "--problem", "ex5", "--method", "aprfm",
                         "--epsilon", "1", "--j", "4", "--nx1", "8",
                         "--nx2", "8", "--nv", "8",
                         "--out", str(tmp_path / "x")])
        assert code == 3
        assert "no-convergence" in capsys.readouterr().err

    def test_failing_sweep_cell_keeps_the_others(self, tmp_path, capsys,
                                                 monkeypatch):
        # the middle cell's oracle is allowed a single sweep
        fdm_density = cli.fdm_density
        monkeypatch.setattr(cli, "fdm_density",
                            lambda spec: fdm_density(spec, max_iters=1))
        monkeypatch.setitem(cli.TABLES, "TX", (
            dict(method="aprfm", j=4, nx1=8, nx2=8, nv=8), [1.0], "problem",
            ("problem",), ["ex4", "ex5", "ex6"]))
        out = tmp_path / "tx"
        code = cli.main(["sweep", "--table", "TX", "--seeds", "1",
                         "--out", str(out)])
        assert code == 3
        assert "no-convergence" in capsys.readouterr().err
        lines = (tmp_path / "tx_cells.csv").read_text().splitlines()
        assert lines[0] == "epsilon,problem,seed,error"
        fields = [line.split(",") for line in lines[1:]]
        assert [f[1] for f in fields] == ["ex4", "ex5", "ex6"]
        assert fields[1][3] == "no-convergence"
        assert 0 < float(fields[0][3]) < 1 and 0 < float(fields[2][3]) < 1
        means = json.loads((tmp_path / "tx.json").read_text())["mean_errors"]
        assert means[1] is None and means[0] > 0 and means[2] > 0

    def test_verbose_logs_at_info(self, tmp_path):
        logger = logging.getLogger("aprfm")
        level = logger.level
        try:
            assert cli.main(["run", "--problem", "ex1", "--epsilon", "0.5",
                             "--j", "4", "--nx", "8", "--nv", "16", "-v",
                             "--out", str(tmp_path / "x")]) == 0
            assert logger.level == logging.INFO
        finally:
            logger.setLevel(level)

    def test_non_finite_field_exit_three(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.setattr(Method, "f_values",
                            lambda self, coeffs, xs, vs:
                            np.full(len(xs) * len(vs), np.nan))
        code = cli.main(["run", "--problem", "ex1", "--epsilon", "0.5",
                         "--j", "6", "--nx", "8", "--nv", "16",
                         "--out", str(tmp_path / "x")])
        assert code == 3
        assert "invalid-input" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("problem = ex1\nmethod = aprfm\nepsilon = 0.5\n"
                       "j = 4  # tiny\nnx = 8\nnv = 16\n")
        out = str(tmp_path / "from_file")
        code = cli.main(["run", "--config", str(cfg), "--j", "6",
                         "--out", out])
        assert code == 0
        report = json.loads((tmp_path / "from_file.json").read_text())
        assert report["config"]["j"] == 6  # flag wins
        assert report["config"]["problem"] == "ex1"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("problme = ex1\n")
        assert cli.main(["run", "--config", str(cfg)]) == 2

    def test_window_option_is_gone(self, tmp_path, capsys, monkeypatch):
        # phi_b is the only window: neither a flag nor a key selects it
        monkeypatch.setattr(cli, "solve", no_run)
        out = ["--out", str(tmp_path / "x")]
        assert cli.main(["run", "--pou", "phi_b"] + out) == 2
        assert capsys.readouterr().err == \
            "invalid-config: unrecognized arguments: --pou phi_b\n"
        cfg = tmp_path / "run.cfg"
        cfg.write_text("pou = phi_b\n")
        assert cli.main(["run", "--config", str(cfg)] + out) == 2
        assert "unknown key 'pou'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,message", [
        (["run", "--mx3", "2"], "unrecognized arguments: --mx3 2"),
        (["sweep", "--table", "T9"], "argument --table: invalid choice"),
        (["sweep"], "the following arguments are required: --table"),
        (["plotdata", "--kind", "heatmap-f"],
         "argument command: invalid choice"),
    ], ids=["unknown-flag", "invalid-table", "missing-table",
            "retired-subcommand"])
    def test_usage_error_exit_two(self, capsys, monkeypatch, argv, message):
        monkeypatch.setattr(cli, "sweep", no_run)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("invalid-config: " + message)
        assert "usage:" not in err

    def test_help_exit_zero(self, capsys):
        with pytest.raises(SystemExit) as exited:
            cli.main(["run", "--help"])
        assert exited.value.code == 0
        assert "--problem" in capsys.readouterr().out

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_unparsable_value_exit_two(self, tmp_path, capsys, monkeypatch,
                                       source):
        monkeypatch.setattr(cli, "run", no_run)
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("j = abc\n")
        argv = (["--j", "abc"] if source == "flag"
                else ["--config", str(cfg)])
        assert cli.main(["run"] + argv) == 2
        assert "invalid-config" in capsys.readouterr().err


@pytest.mark.parametrize("setting, accepted", [
    ("activation", "sine-pi"), ("nq", 2), ("nq", 128), ("rank_tol", 1e-300),
    ("nv", 2), ("nx", 2), ("nx1", 2), ("nx2", 2), ("epsilon", 1e-300)])
def test_setting_at_its_bound_accepted(setting, accepted):
    cli.RunConfig(**{setting: accepted}).validate()


@pytest.mark.parametrize("setting, rejected", [
    ("activation", "relu"), ("nq", 1), ("nq", 129), ("rank_tol", 0.0),
    ("rank_tol", 1.0), ("rank_tol", float("nan")), ("nv", 1), ("nx", 1),
    ("nx1", 1), ("nx2", 1), ("epsilon", 0.0), ("epsilon", float("inf")),
    ("epsilon", "profile")])
def test_setting_out_of_range_rejected(setting, rejected):
    with pytest.raises(ValueError):
        cli.RunConfig(**{setting: rejected}).validate()


class TestSweep:
    def test_table_definitions(self):
        base = cli.RunConfig()
        for table, n_cells in [("T1", 20), ("T2", 16), ("T3", 20),
                               ("T4", 20), ("T5", 16), ("T6", 8)]:
            cells, labels, _, rows, _, cols = cli._table_cells(table, base)
            assert len(cells) == n_cells
            assert len(cells) == len(rows) * len(cols) == len(labels)
        cells, labels, *_ = cli._table_cells("T6", base)
        assert labels[1] == "(1,1,2)" and cells[1].mv == 2
        assert cli._table_cells("T4", base)[1][:2] == [8, 16]

    def test_last_seed_beyond_weight_streams_rejected(self, monkeypatch):
        # the base seed is valid for aprfm, the sweep's second one is not
        monkeypatch.setattr(cli, "solve", no_run)
        with pytest.raises(ValueError, match=r"\[0, 2\*\*62\)"):
            cli.sweep("T4", cli.RunConfig(seed=2 ** 62 - 1, seeds=2))

    def test_custom_grid(self, tmp_path):
        base = cli.RunConfig(seeds=2, seed=5)
        cells = [tiny_config(epsilon=0.5), tiny_config(epsilon=0.25)]
        out = str(tmp_path / "mini")
        rows = cli.sweep(cells, base, out=out)
        assert len(rows) == 2
        cell_lines = (tmp_path / "mini_cells.csv").read_text().splitlines()
        assert cell_lines[0] == "cell,epsilon,seed,error"
        # a row per (cell, seed), in table order
        assert [line.split(",")[:3] for line in cell_lines[1:]] == [
            ["0", "5.000000e-01", "5"], ["0", "5.000000e-01", "6"],
            ["1", "2.500000e-01", "5"], ["1", "2.500000e-01", "6"]]
        report = json.loads((tmp_path / "mini.json").read_text())
        assert report["seeds"] == 2 and report["table"] == "custom"

    def test_reported_cell_replays_its_first_seed(self, tmp_path):
        base = cli.RunConfig(seeds=2, seed=5)
        out = str(tmp_path / "replay")
        cli.sweep([tiny_config(epsilon=0.5, seed=9)], base, out=out)
        cell = json.loads((tmp_path / "replay.json").read_text())["cells"][0]
        assert cell["seed"] == 5
        lines = (tmp_path / "replay_cells.csv").read_text().splitlines()
        assert lines[1].split(",")[2] == "5"
        seed0_error = float(lines[1].split(",")[3])
        replayed = cli.run(cli.RunConfig(**cell)).report["error"]
        assert replayed == pytest.approx(seed0_error, rel=1e-6)

    def test_threaded_sweep_solves_each_oracle_once(self, monkeypatch):
        calls = []

        def slow_coarse_oracle(spec, **kwargs):
            calls.append(spec.id)
            time.sleep(0.3)  # keep the first solve running while others ask
            return fdm_density(spec, resolution=(16, 16))

        fdm_density = cli.fdm_density
        monkeypatch.setattr(cli, "fdm_density", slow_coarse_oracle)
        cpus(monkeypatch, 4)  # more threads than cores
        cells = [tiny_config(problem="ex5", epsilon=1.0, j=j, nx1=8, nx2=8,
                             nv=8) for j in (3, 4, 5, 6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cli.sweep(cells, cli.RunConfig(seeds=1))
        finally:
            sys.setswitchinterval(interval)
        assert calls == ["ex5"]

    def test_errors_do_not_depend_on_worker_count(self, monkeypatch):
        means = {}
        for threads in (1, 2):
            cpus(monkeypatch, threads)
            means[threads] = [mean for _, mean in
                              cli.sweep(four_cells(), cli.RunConfig(seeds=1))]
        assert means[1] == means[2]

    def test_cell_replays_bitwise_on_one_blas_thread(self, tmp_path):
        out = tmp_path / "replay"
        cli.sweep(four_cells(), cli.RunConfig(seeds=1), out=str(out))
        report = json.loads((tmp_path / "replay.json").read_text())
        with solve._one_blas_thread() as taken:
            assert taken is not None
            replayed = cli.run(cli.RunConfig(**report["cells"][1]))
        assert replayed.report["error"] == report["mean_errors"][1]

    def test_partitioned_cells_replay_bitwise_on_one_blas_thread(
            self, tmp_path):
        # T3's cells with two and four spatial boxes, whose rows are folded
        # into one factor per set of boxes they touch
        cells, labels, *_ = cli._table_cells("T3", cli.RunConfig())
        cells = [cell for cell, label in zip(cells, labels)
                 if cell.epsilon == 1e-2 and cell.mx > 1]
        assert [cell.mx for cell in cells] == [2, 4]
        cli.sweep(cells, cli.RunConfig(seeds=1), out=str(tmp_path / "t3"))
        report = json.loads((tmp_path / "t3.json").read_text())
        with solve._one_blas_thread() as taken:
            assert taken is not None
            replayed = [cli.run(cli.RunConfig(**cell)).report["error"]
                        for cell in report["cells"]]
        assert replayed == report["mean_errors"]

    def test_cells_start_largest_first_and_report_in_table_order(
            self, tmp_path, monkeypatch):
        cpus(monkeypatch, 1)  # one worker runs the cells as submitted
        started = []

        def fake_run(config, reference_cache=None):
            started.append((config.j, config.nv))
            return cli.RunResult(report={"error": float(config.j)},
                                 field_columns=(), field_rows=None)

        monkeypatch.setattr(cli, "run", fake_run)
        cells = [tiny_config(j=j, nv=nv)
                 for j, nv in ((4, 16), (8, 16), (6, 16), (4, 64))]
        rows = cli.sweep(cells, cli.RunConfig(seeds=1),
                         out=str(tmp_path / "order"))
        # N Z^2 = nx nv (2 j)^2: 8192, 32768, 18432, 32768 (a tie, kept in
        # table order)
        assert [cli._cost(cell) for cell in cells] == [8192, 32768, 18432,
                                                       32768]
        assert started == [(8, 16), (4, 64), (6, 16), (4, 16)]
        assert rows == [[0, 4.0], [1, 8.0], [2, 6.0], [3, 4.0]]
        lines = (tmp_path / "order_cells.csv").read_text().splitlines()
        assert [line.split(",")[3] for line in lines[1:]] == [
            "4.000000e+00", "8.000000e+00", "6.000000e+00", "4.000000e+00"]

    def test_blas_threads_one_inside_and_restored_after(self, monkeypatch):
        controls = solve._blas_thread_controls()
        assert controls is not None

        def counts():
            return [get() for get, _ in controls]

        original = counts()
        seen = []

        def record(config):
            seen.append(counts())
            if config.j == 5:
                raise RuntimeError("stand-in failure")

        monkeypatch.setattr(cli, "run", stand_in_run(record))
        try:
            for _, put in controls:
                put(2)
            before = counts()
            cli.sweep([tiny_config(j=4)], cli.RunConfig(seeds=1))
            assert counts() == before
            with pytest.raises(RuntimeError):
                cli.sweep([tiny_config(j=j) for j in (4, 5)],
                          cli.RunConfig(seeds=1))
            assert counts() == before
        finally:
            for (_, put), count in zip(controls, original):
                put(count)
        assert seen == [[1, 1]] * 3

    @pytest.mark.parametrize("lookup, expected", [
        (solve._blas_thread_controls, 4), (lambda: None, 1)],
        ids=["concurrent", "serial-without-blas-control"])
    def test_worker_count(self, monkeypatch, lookup, expected):
        monkeypatch.setattr(solve, "_blas_thread_controls", lookup)
        cpus(monkeypatch, 4)
        lock = threading.Lock()
        active, most = [0], [0]

        def record(config):
            with lock:
                active[0] += 1
                most[0] = max(most[0], active[0])
            time.sleep(0.2)  # keep every worker busy while the others start
            with lock:
                active[0] -= 1

        monkeypatch.setattr(cli, "run", stand_in_run(record))
        cli.sweep([tiny_config(j=j) for j in range(3, 9)],
                  cli.RunConfig(seeds=1))
        assert most[0] == expected

    def test_logs_each_run(self, caplog):
        caplog.set_level(logging.INFO, logger="aprfm")
        cli.sweep([tiny_config(epsilon=0.5), tiny_config(epsilon=0.25)],
                  cli.RunConfig(seeds=2, seed=5))
        messages = sorted(r.getMessage() for r in caplog.records
                          if r.name == "aprfm.cli")
        assert len(messages) == 4
        assert [m.split(":")[0] for m in messages] == [
            f"cell={cell} epsilon={eps} seed {seed}"
            for cell, eps in ((0, 0.5), (1, 0.25)) for seed in (5, 6)]

    def test_j_ladder_cells_have_distinct_keys(self, tmp_path, caplog):
        # an error-against-dofs ladder is a sweep over a cell list, whose
        # cells differ in j alone
        caplog.set_level(logging.INFO, logger="aprfm")
        ladder = (4, 8, 16)
        out = str(tmp_path / "dof")
        rows = cli.sweep([dataclasses.replace(tiny_config(epsilon=1.0), j=j)
                          for j in ladder], cli.RunConfig(seeds=1), out=out)
        assert [row[0] for row in rows] == [0, 1, 2]
        lines = (tmp_path / "dof_cells.csv").read_text().splitlines()
        assert [line.split(",")[:3] for line in lines[1:]] == [
            [str(i), "1.000000e+00", "0"] for i in range(3)]
        messages = sorted(r.getMessage().split(":")[0]
                          for r in caplog.records if r.name == "aprfm.cli")
        assert messages == [f"cell={i} epsilon=1.0 seed 0" for i in range(3)]
        cells = json.loads((tmp_path / "dof.json").read_text())["cells"]
        assert [cell["j"] for cell in cells] == list(ladder)

    def test_labels_with_commas_stay_one_field(self, tmp_path):
        path = tmp_path / "t6.csv"
        cli.write_csv(path, ["epsilon", "(Mx1,Mx2,Mv)"], [[1.0, "(1,1,2)"]])
        with open(path, newline="") as handle:
            assert list(csv.reader(handle)) == [
                ["epsilon", "(Mx1,Mx2,Mv)"], ["1.000000e+00", "(1,1,2)"]]

    def test_cell_errors_are_seed_averaged(self, tmp_path):
        base = cli.RunConfig(seeds=2, seed=5)
        cells = [tiny_config(epsilon=0.5)]
        rows = cli.sweep(cells, base, out=str(tmp_path / "avg"))
        lines = (tmp_path / "avg_cells.csv").read_text().splitlines()
        e0, e1 = (float(line.split(",")[3]) for line in lines[1:])
        assert rows[0][1] == pytest.approx((e0 + e1) / 2, rel=1e-6)
