import json
import sys
import time

import numpy as np
import pytest

import helpers
from aprfm import cli, problems


def tiny_config(**overrides):
    base = dict(problem="ex1", method="aprfm", epsilon=0.5, j=6,
                nx=8, nv=16, seed=1, out="run")
    base.update(overrides)
    return cli.RunConfig(**base)


class TestRun:
    def test_report_contents(self, tmp_path):
        config = tiny_config(out=str(tmp_path / "run"))
        result = cli.run(config)
        cli.write_run_outputs(result, config.out)
        report = json.loads((tmp_path / "run.json").read_text())
        assert report["error"] > 0
        assert report["error_kind"] == "f-phase"
        assert report["Z"] == 12
        assert report["N"] == report["N_int"] * 2 + report["N_bdy"]
        # defaults are fully expanded in the echoed config
        assert report["config"]["jrho"] == 6
        assert report["config"]["nq"] == 16
        assert report["config"]["b_range"] == 1.0
        assert report["lambda_stats"]["max"] >= report["lambda_stats"]["min"]
        csv_lines = (tmp_path / "run.csv").read_text().splitlines()
        assert csv_lines[0] == "x,v,f_approx,f_ref"
        assert len(csv_lines) == 1 + 128 * 256

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

    def test_numerical_failure_exit_three(self, tmp_path, capsys,
                                          monkeypatch):
        monkeypatch.setattr(cli, "FDM_MAX_ITERS", 1)
        code = cli.main(["run", "--problem", "ex5", "--method", "aprfm",
                         "--epsilon", "1", "--j", "4", "--nx1", "8",
                         "--nx2", "8", "--nv", "8",
                         "--out", str(tmp_path / "x")])
        assert code == 3
        assert "no-convergence" in capsys.readouterr().err

    def test_node_on_window_joint_exit_two(self, tmp_path, capsys):
        code = cli.main(["run", "--problem", "ex1", "--epsilon", "1",
                         "--j", "4", "--nx", str(2 ** 18), "--nv", "2",
                         "--out", str(tmp_path / "x")])
        assert code == 2
        assert "node-on-joint" in capsys.readouterr().err

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


class TestSweep:
    def test_table_definitions(self):
        base = cli.RunConfig()
        for table, n_cells in [("T1", 20), ("T2", 16), ("T3", 20),
                               ("T4", 20), ("T5", 16), ("T6", 8)]:
            cells, _, rows, _, cols = cli._table_cells(table, base)
            assert len(cells) == n_cells
            assert len(cells) == len(rows) * len(cols)

    def test_custom_grid(self, tmp_path):
        base = cli.RunConfig(seeds=2, seed=5)
        cells = [tiny_config(epsilon=0.5), tiny_config(epsilon=0.25)]
        out = str(tmp_path / "mini")
        rows = cli.sweep(cells, base, out=out)
        assert len(rows) == 2
        cell_lines = (tmp_path / "mini_cells.csv").read_text().splitlines()
        assert cell_lines[0] == \
            "problem/method,epsilon,mean_error,error_seed0,error_seed1"
        assert len(cell_lines) == 3
        report = json.loads((tmp_path / "mini.json").read_text())
        assert report["seeds"] == 2 and report["table"] == "custom"

    def test_reported_cell_replays_its_first_seed(self, tmp_path):
        base = cli.RunConfig(seeds=2, seed=5)
        out = str(tmp_path / "replay")
        cli.sweep([tiny_config(epsilon=0.5, seed=9)], base, out=out)
        cell = json.loads((tmp_path / "replay.json").read_text())["cells"][0]
        assert cell["seed"] == 5
        lines = (tmp_path / "replay_cells.csv").read_text().splitlines()
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
        monkeypatch.setenv("APRFM_THREADS", "4")  # more threads than cores
        cells = [tiny_config(problem="ex5", epsilon=1.0, j=j, nx1=8, nx2=8,
                             nv=8) for j in (3, 4, 5, 6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            cli.sweep(cells, cli.RunConfig(seeds=1))
        finally:
            sys.setswitchinterval(interval)
        assert calls == ["ex5"]

    def test_cell_errors_are_seed_averaged(self, tmp_path):
        base = cli.RunConfig(seeds=2, seed=5)
        cells = [tiny_config(epsilon=0.5)]
        rows = cli.sweep(cells, base, out=str(tmp_path / "avg"))
        lines = (tmp_path / "avg_cells.csv").read_text().splitlines()
        _, _, mean, e0, e1 = lines[1].split(",")
        assert float(mean) == pytest.approx((float(e0) + float(e1)) / 2,
                                            rel=1e-6)


class TestPlotData:
    def test_error_vs_dof_monotone(self, tmp_path):
        config = tiny_config(method="aprfm", epsilon=1.0, nx=16, nv=32)
        rows = cli.emit_plot_data(config, "error-vs-dof",
                                  str(tmp_path / "dof"))
        assert len(rows) == 5
        zs = [r[0] for r in rows]
        assert zs == sorted(zs)
        lines = (tmp_path / "dof.csv").read_text().splitlines()
        assert lines[0] == "Z,error"

    def test_heatmap_f_row_count(self, tmp_path):
        config = tiny_config()
        rows = cli.emit_plot_data(config, "heatmap-f", str(tmp_path / "hf"))
        assert len(rows) == 128 * 256

    def test_heatmap_rho_annulus_omits_hole(self, tmp_path):
        config = tiny_config(problem="ex6", epsilon=1.0, j=4, nx1=8, nx2=8,
                             nv=8, mv=1)
        rows = cli.emit_plot_data(config, "heatmap-rho",
                                  str(tmp_path / "hr"))
        assert len(rows) == 3612
        coords = np.array([[r[0], r[1]] for r in np.asarray(rows)])
        assert np.all(np.max(np.abs(coords), axis=1) >= 1 / 3)

    def test_heatmap_rho_rejected_in_1d(self, tmp_path):
        with pytest.raises(ValueError):
            cli.emit_plot_data(tiny_config(), "heatmap-rho",
                               str(tmp_path / "bad"))
