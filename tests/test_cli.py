import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tropfit
from tropfit.cli import (
    example1_dataset,
    example2_dataset,
    example3_dataset,
    logsumexp_rows,
    main,
    run_bench,
)
from tropfit import io_formats
from tropfit.io_formats import (
    load_dataset,
    load_vector,
    write_matrix,
    write_model,
    write_plot_data,
    write_vector,
)
from tropfit.regression import evaluate, grid_slopes

MATRIX = "0,5,2\n4,1,0\n0,1,0\n"
VECTOR = "3\n1\n0\n"


@pytest.fixture
def worked_files(tmp_path):
    a = tmp_path / "A.csv"
    b = tmp_path / "b.csv"
    a.write_text(MATRIX)
    b.write_text(VECTOR)
    return a, b


class TestSolve:
    def test_writes_solution_and_report(self, worked_files, tmp_path, capsys):
        a, b = worked_files
        out = tmp_path / "run"
        rc = main(["solve", str(a), str(b), "--p", "1", "--theta", "1", "--out", str(out)])
        assert rc == 0
        assert np.array_equal(load_vector(out / "solution.csv"), [-3.0, -np.inf, 0.0])
        report = json.loads((out / "report.json").read_text())
        assert report["support"] == [2, 0]
        assert report["infeasible"] is False
        # the values that decide the outputs, and no seed or output directory
        assert report["config"] == {
            "command": "solve", "matrix": str(a), "vector": str(b), "p": 1.0, "theta": 1.0, "estimator": "sgle"
        }
        assert "support [2, 0]" in capsys.readouterr().out

    def test_epsilon_flag(self, worked_files, tmp_path):
        a, b = worked_files
        out = tmp_path / "run"
        # epsilon = 1, p = 2 means theta = 1: stops at {2, 0} with e = (1,0,0)
        assert main(["solve", str(a), str(b), "--p", "2", "--epsilon", "1", "--out", str(out)]) == 0
        assert json.loads((out / "report.json").read_text())["support"] == [2, 0]
        out2 = tmp_path / "run2"
        assert main(["solve", str(a), str(b), "--p", "2", "--theta", "1", "--out", str(out2)]) == 0
        assert json.loads((out2 / "report.json").read_text())["support"] == [2, 0]

    def test_huge_theta_empty_support(self, worked_files, tmp_path):
        a, b = worked_files
        out = tmp_path / "run"
        assert main(["solve", str(a), str(b), "--p", "1", "--theta", "1e9", "--out", str(out)]) == 0
        assert np.isneginf(load_vector(out / "solution.csv")).all()

    def test_an_epsilon_whose_budget_is_above_every_float(self, worked_files, tmp_path):
        # 1e300 ** (1 / 0.5) is no float: the budget is the largest one
        a, b = worked_files
        out = tmp_path / "run"
        with pytest.warns(UserWarning, match="quasi-norm"):
            rc = main(["solve", str(a), str(b), "--p", "0.5", "--epsilon", "1e300", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["support"], report["config"]["theta"]) == ([], sys.float_info.max)

    @pytest.mark.parametrize("command", ["solve", "fit", "sweep"])
    def test_norm_inf_greedy(self, worked_files, tmp_path, command):
        # --p inf is the one spelling of the guarantee-free l-infinity greedy
        a, b = worked_files
        out = tmp_path / "run"
        if command == "solve":
            argv = ["solve", str(a), str(b)]
        else:
            main(["gen-example", "1", "--out", str(tmp_path)])
            argv = [command, str(tmp_path / "example1.csv"), "--grid-lo", "-20", "--grid-hi", "20", "--grid-step", "1"]
        with pytest.warns(UserWarning, match="no approximation guarantee"):
            rc = main([*argv, "--p", "inf", "--theta", "0.5", "--out", str(out)])
        assert rc == 0
        if command == "solve":
            assert json.loads((out / "report.json").read_text())["support"] == [2]

    def test_infeasible_exit_code(self, tmp_path, capsys):
        a = tmp_path / "A.csv"
        b = tmp_path / "b.csv"
        a.write_text("0\n0\n")
        b.write_text("0\n5\n")
        rc = main(["solve", str(a), str(b), "--p", "2", "--theta", "1", "--out", str(tmp_path)])
        assert rc == 2
        assert json.loads((tmp_path / "report.json").read_text())["infeasible"] is True
        # main alone prints the message, once
        assert capsys.readouterr() == ("", "infeasible: full support error 5 exceeds budget 1\n")

    def test_infeasible_report_records_full_support_error(self, tmp_path):
        a = tmp_path / "A.csv"
        b = tmp_path / "b.csv"
        a.write_text("0\n0\n")
        b.write_text("0\n1\n")
        rc = main(["solve", str(a), str(b), "--theta", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert json.loads((tmp_path / "report.json").read_text())["full_support_error"] == 1.0

    def test_shape_mismatch_exit_code(self, tmp_path, capsys):
        a = tmp_path / "A.csv"
        b = tmp_path / "b.csv"
        a.write_text(MATRIX)
        b.write_text("1\n2\n")
        rc = main(["solve", str(a), str(b), "--p", "1", "--theta", "1", "--out", str(tmp_path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_overflowing_residual_is_an_error_line(self, tmp_path, capsys):
        # b_0 - A_00 = -2e308 is not a float, though every entry is finite
        a = tmp_path / "A.csv"
        b = tmp_path / "b.csv"
        a.write_text("1e308,0\n1e308,-1\n")
        b.write_text("-1e308\n-1e308\n")
        rc = main(["solve", str(a), str(b), "--p", "2", "--theta", "1", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()

    def test_an_add_that_overflows_in_the_build_still_solves(self, tmp_path):
        # xhat = [-1e308], so A_00 + xhat_0 overflows where e0_00 = 1e308
        a = tmp_path / "A.csv"
        b = tmp_path / "b.csv"
        a.write_text("-1e308\n1e308\n")
        b.write_text("-1e308\n0\n")
        out = tmp_path / "out"
        rc = main(["solve", str(a), str(b), "--p", "1", "--theta", "1e308", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["infeasible"] is False
        assert report["error_p"] == 1e308

    def test_missing_file_exit_code(self, tmp_path, capsys):
        rc = main(["solve", "nope.csv", "also-nope.csv", "--p", "1", "--theta", "1", "--out", str(tmp_path)])
        assert rc == 1

    def test_the_right_hand_side_is_read_first(self, tmp_path, capsys):
        # with both files bad, b's error is the one printed
        a = tmp_path / "A.csv"
        b = tmp_path / "b.csv"
        a.write_text("0,x\n")
        b.write_text("1\ny\n")
        rc = main(["solve", str(a), str(b), "--p", "1", "--theta", "1", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert capsys.readouterr().err == "error: cannot parse cell 'y' at row 2 col 1\n"

    def test_a_solve_read_in_ranges_writes_the_same_files(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(3)
        A = rng.normal(0.0, 2.0, (60, 1000))
        b = (A + rng.normal(0.0, 1.0, 1000)).max(axis=1)
        a_path, b_path = tmp_path / "A.csv", tmp_path / "b.csv"
        a_path.write_text(write_matrix(A))
        b_path.write_text(write_vector(b))
        out = tmp_path / "out"
        argv = ["solve", str(a_path), str(b_path), "--p", "150", "--theta", "5", "--out", str(out)]
        names = ["solution.csv", "report.json"]
        assert main(argv) == 0
        serial = [(out / name).read_bytes() for name in names]
        started = []

        class Recorded(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                started.append(self)

        monkeypatch.setattr(subprocess, "Popen", Recorded)
        monkeypatch.setattr(io_formats, "_RANGE_BYTES", 4096)
        monkeypatch.setattr(io_formats, "_usable_cpus", lambda: 4)
        assert main(argv) == 0
        assert [(out / name).read_bytes() for name in names] == serial
        assert len(started) == 3  # A's ranges; b is smaller than two
        assert all(helper.returncode == 0 for helper in started)


class TestFitAndSweep:
    def test_fit_writes_model_and_plot(self, tmp_path, read_model):
        data = tmp_path / "d.csv"
        rc = main(["gen-example", "1", "--out", str(tmp_path)])
        assert rc == 0
        out = tmp_path / "fit"
        rc = main(
            [
                "fit",
                str(tmp_path / "example1.csv"),
                "--grid-lo",
                "-20",
                "--grid-hi",
                "20",
                "--grid-step",
                "0.125",
                "--p",
                "1",
                "--theta",
                "0.5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        model = read_model((out / "model.json").read_text())
        assert model.support_size == 11
        plot_rows = (out / "fit_plot.csv").read_text().strip().splitlines()
        assert plot_rows[0].startswith("# config:")
        assert len(plot_rows) == 101  # config comment + one row per point
        assert "# config:" in (out / "fit.csv").read_text()

    def test_fit_model_round_trips_score(self, tmp_path, read_model):
        from tropfit.regression import score

        main(["gen-example", "1", "--out", str(tmp_path)])
        out = tmp_path / "fit"
        main(
            [
                "fit", str(tmp_path / "example1.csv"),
                "--grid-lo", "-20", "--grid-hi", "20", "--grid-step", "0.125",
                "--p", "2", "--theta", "1", "--out", str(out),
            ]
        )
        model = read_model((out / "model.json").read_text())
        data = load_dataset(tmp_path / "example1.csv")
        rescored = score(model, data)
        assert rescored.rms == model.rms
        assert rescored.max_abs == model.max_abs

    def test_fit_on_explicit_slopes_writes_the_grid_fits_model(self, tmp_path):
        main(["gen-example", "1", "--out", str(tmp_path)])
        data = str(tmp_path / "example1.csv")
        slopes = tmp_path / "slopes.csv"
        slopes.write_text(write_matrix(grid_slopes([-20], [20], 0.5).slopes))
        problem = ["--p", "1", "--theta", "0.5"]
        assert main(["fit", data, "--slopes", str(slopes), *problem, "--out", str(tmp_path / "explicit")]) == 0
        grid = ["--grid-lo", "-20", "--grid-hi", "20", "--grid-step", "0.5"]
        assert main(["fit", data, *grid, *problem, "--out", str(tmp_path / "grid")]) == 0
        model = (tmp_path / "explicit" / "model.json").read_bytes()
        assert model == (tmp_path / "grid" / "model.json").read_bytes()
        assert json.loads(model)["support"] == 11

    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_the_config_records_the_slope_source(self, tmp_path, command):
        main(["gen-example", "1", "--out", str(tmp_path)])
        data = str(tmp_path / "example1.csv")
        slopes = tmp_path / "slopes.csv"
        slopes.write_text(write_matrix(grid_slopes([-20], [20], 0.5).slopes))
        sources = {
            "grid": (
                ["--grid-lo", "-20", "--grid-hi", "20", "--grid-step", "0.5"],
                {"slope_count": 81, "grid_lo": [-20.0], "grid_hi": [20.0], "grid_step": 0.5},
            ),
            "explicit": (["--slopes", str(slopes)], {"slope_count": 81, "slopes": str(slopes)}),
            "gradients": (["--gradient-slopes", "--neighbors", "7"], {"neighbors": 7}),
        }
        table = "fit.csv" if command == "fit" else "sweep.csv"
        for origin, (flags, recorded) in sources.items():
            out = tmp_path / origin
            assert main([command, data, *flags, "--p", "1", "--theta", "1", "--out", str(out)]) == 0
            config = json.loads((out / table).read_text().splitlines()[0].removeprefix("# config: "))
            assert config["slope_origin"] == origin
            assert {key: config[key] for key in recorded} == recorded

    def test_two_grids_give_two_config_lines(self, tmp_path):
        main(["gen-example", "1", "--out", str(tmp_path)])
        out = tmp_path / "fit"
        runs = []
        for lo, hi in (("-20", "20"), ("-10", "30")):
            argv = ["fit", str(tmp_path / "example1.csv"), "--grid-lo", lo, "--grid-hi", hi, "--grid-step", "0.5"]
            assert main([*argv, "--p", "1", "--theta", "0.5", "--out", str(out)]) == 0
            runs.append(((out / "fit.csv").read_text().splitlines()[0], (out / "model.json").read_bytes()))
        (config, model), (other_config, other_model) = runs
        assert model != other_model
        assert config != other_config

    def test_slope_sources_mutually_exclusive(self, tmp_path, capsys):
        main(["gen-example", "1", "--out", str(tmp_path)])
        rc = main(
            [
                "fit", str(tmp_path / "example1.csv"),
                "--gradient-slopes", "--grid-step", "1",
                "--grid-lo", "0", "--grid-hi", "1",
                "--p", "1", "--theta", "1", "--out", str(tmp_path),
            ]
        )
        assert rc == 1
        assert "slope source" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--grid-step", "1", "--grid-lo", "-2", "--grid-hi", "2", "--neighbors", "4"], "--neighbors"),
            (["--gradient-slopes", "--grid-lo", "-2"], "--grid-lo"),
            (["--gradient-slopes", "--grid-hi", "2"], "--grid-hi"),
            (["--grid-step", "0.5"], "--grid-step requires --grid-lo and --grid-hi"),
            (["--gradient-slopes", "--neighbors", "1"], "need at least 2 neighbors to fit an affine function"),
        ],
    )
    @pytest.mark.parametrize("command", ["fit", "sweep"])
    def test_flags_of_an_unchosen_slope_source_are_refused(self, tmp_path, capsys, command, flags, message):
        main(["gen-example", "1", "--out", str(tmp_path)])
        capsys.readouterr()
        out = tmp_path / "out"
        rc = main([command, str(tmp_path / "example1.csv"), *flags, "--p", "1", "--theta", "1", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert not out.exists()

    def test_sweep_table(self, tmp_path):
        main(["gen-example", "1", "--out", str(tmp_path)])
        out = tmp_path / "sweep"
        rc = main(
            [
                "sweep", str(tmp_path / "example1.csv"),
                "--grid-lo", "-20", "--grid-hi", "20", "--grid-step", "0.125",
                "--p", "1,2", "--theta", "0.15,1", "--out", str(out),
            ]
        )
        assert rc == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0].startswith("# config:")
        assert lines[1] == "p,theta,rms,max_abs,support,infeasible"
        assert len(lines) == 6
        supports = [int(line.split(",")[4]) for line in lines[2:]]
        assert supports == [15, 8, 10, 5]
        assert (out / "model_p1_theta0.15.json").exists()
        assert (out / "plot_p2_theta1.csv").exists()

    def test_sweep_matches_one_fit_per_budget(self, tmp_path):
        # the sweep runs one greedy per p; each of its budgets must give what
        # a fit of its own gives, whatever order the budgets come in
        main(["gen-example", "1", "--out", str(tmp_path)])
        data = str(tmp_path / "example1.csv")
        grid = ["--grid-lo", "-20", "--grid-hi", "20", "--grid-step", "0.125"]
        thetas = ["0.5", "0", "0.15", "1", "0.25"]
        sweep = tmp_path / "sweep"
        argv = ["sweep", data, *grid, "--p", "1,2", "--theta", ",".join(thetas), "--out", str(sweep)]
        assert main(argv) == 0
        rows = (sweep / "sweep.csv").read_text().strip().splitlines()[2:]
        assert len(rows) == 2 * len(thetas)
        cells = [(p, theta) for p in ("1", "2") for theta in thetas]
        for (p, theta), row in zip(cells, rows):
            out = tmp_path / f"fit_p{p}_theta{theta}"
            rc = main(["fit", data, *grid, "--p", p, "--theta", theta, "--out", str(out)])
            tag = f"p{p}_theta{theta}"
            if row.endswith(",True"):
                assert rc == 2
                assert not (sweep / f"model_{tag}.json").exists()
                continue
            assert rc == 0
            assert (sweep / f"model_{tag}.json").read_bytes() == (out / "model.json").read_bytes()
            fit_row = (out / "fit.csv").read_text().strip().splitlines()[2]
            assert row == fit_row + ",False"
        assert sum(row.endswith(",True") for row in rows) == 2  # theta = 0 at both orders

    def test_sweep_values_with_one_short_name_keep_their_own_files(self, tmp_path, capsys):
        main(["gen-example", "1", "--out", str(tmp_path)])
        capsys.readouterr()

        def sweep(ps, thetas, out):
            grid = ["--grid-lo", "-20", "--grid-hi", "20", "--grid-step", "0.125"]
            argv = ["sweep", str(tmp_path / "example1.csv"), *grid, "--p", ps, "--theta", thetas]
            assert main([*argv, "--out", str(out)]) == 0
            return sorted(path.name for path in out.glob("model_*.json")), capsys.readouterr().out

        models, printed = sweep("1", "0.15,0.1500001", tmp_path / "budgets")
        assert models == ["model_p1_theta0.15.json", "model_p1_theta0.1500001.json"]
        for theta in (0.15, 0.1500001):
            doc = json.loads((tmp_path / "budgets" / f"model_p1_theta{theta!r}.json").read_text())
            assert doc["theta"] == theta
            assert f"p=1 budget={theta!r} " in printed
        models, printed = sweep("1,1.0000001", "0.5", tmp_path / "orders")
        assert models == ["model_p1.0000001_theta0.5.json", "model_p1.0_theta0.5.json"]
        for p in (1.0, 1.0000001):
            assert json.loads((tmp_path / "orders" / f"model_p{p!r}_theta0.5.json").read_text())["p"] == p
            assert f"p={p!r} budget=0.5 " in printed


    def test_sweep_config_echo_with_infinite_lists_is_json(self, tmp_path):
        main(["gen-example", "1", "--out", str(tmp_path)])
        out = tmp_path / "sweep"
        argv = [
            "sweep", str(tmp_path / "example1.csv"),
            "--grid-lo", "-20", "--grid-hi", "20", "--grid-step", "0.5",
            "--p", "inf,1", "--theta", "inf,0.5", "--out", str(out),
        ]
        with pytest.warns(UserWarning, match="no approximation guarantee"):
            assert main(argv) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        first = (out / "sweep.csv").read_text().splitlines()[0]
        config = json.loads(first.removeprefix("# config: "), parse_constant=refuse)
        assert config["p_list"] == ["inf", 1.0]
        assert config["budgets"] == ["inf", 0.5]
        assert (out / "plot_p1_theta0.5.csv").read_text().splitlines()[0] == first

    def test_support_zero_fit_writes_empty_error_cells(self, tmp_path):
        # a budget the empty support meets: no region to score, so the tables
        # hold empty cells where model.json holds null
        main(["gen-example", "1", "--out", str(tmp_path)])
        data = str(tmp_path / "example1.csv")
        argv = [data, "--grid-lo", "-20", "--grid-hi", "20", "--grid-step", "1", "--p", "1", "--theta", "1e9"]
        assert main(["fit", *argv, "--out", str(tmp_path / "fit")]) == 0
        assert main(["sweep", *argv, "--out", str(tmp_path / "sweep")]) == 0
        assert (tmp_path / "fit" / "fit.csv").read_text().splitlines()[2] == "1.0,1000000000.0,,,0"
        assert (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[2] == "1.0,1000000000.0,,,0,False"
        for model in (tmp_path / "fit" / "model.json", tmp_path / "sweep" / "model_p1_theta1e+09.json"):
            doc = json.loads(model.read_text())
            assert (doc["errors"], doc["support"]) == ({"rms": None, "max_abs": None}, 0)


    @pytest.mark.parametrize(
        "which, flags",
        [
            ("1", ["--grid-lo", "-20", "--grid-hi", "20", "--grid-step", "0.5", "--p", "1,2", "--theta", "0.15,1,1e9"]),
            ("2", ["--grid-lo", "-4", "--grid-hi", "4", "--grid-step", "0.5", "--p", "2", "--theta", "15,20,25"]),
            ("3", ["--gradient-slopes", "--neighbors", "7", "--p", "2", "--epsilon", "1331,665.5,83.1875"]),
        ],
    )
    def test_sweep_files_equal_the_one_shot_writers(self, tmp_path, read_model, which, flags):
        main(["gen-example", which, "--out", str(tmp_path)])
        data_path = tmp_path / f"example{which}.csv"
        out = tmp_path / "sweep"
        assert main(["sweep", str(data_path), *flags, "--out", str(out), "--estimator", "smmae"]) == 0
        data = load_dataset(data_path)
        echo = (out / "sweep.csv").read_text().splitlines()[0].removeprefix("# ")
        models = sorted(out.glob("model_*.json"))
        assert len(models) >= 3
        for path in models:
            model = read_model(path.read_text())
            assert path.read_text() == write_model(model)
            plot = out / path.name.replace("model_", "plot_").replace(".json", ".csv")
            if model.support_size:
                assert plot.read_text() == write_plot_data(data, evaluate(model, data.x), echo)
            else:
                assert not plot.exists()


def test_every_file_written_is_lf_only_and_strict_json(worked_files, tmp_path):
    a, b = worked_files
    out = tmp_path / "out"
    grid = ["--grid-lo", "-20", "--grid-hi", "20", "--grid-step", "0.5"]
    assert main(["gen-example", "1", "--out", str(out / "data")]) == 0
    data = str(out / "data" / "example1.csv")
    assert main(["fit", data, *grid, "--p", "1", "--theta", "0.5", "--out", str(out / "fit")]) == 0
    assert main(["sweep", data, *grid, "--p", "1", "--theta", "0,0.5", "--out", str(out / "sweep")]) == 0
    assert ",,,True\n" in (out / "sweep" / "sweep.csv").read_text()  # theta = 0 is infeasible
    with pytest.warns(UserWarning, match="no approximation guarantee"):
        argv = ["sweep", data, *grid, "--p", "inf,1", "--theta", "inf,0.5", "--out", str(out / "sweep_inf")]
        assert main(argv) == 0
    assert main(["solve", str(a), str(b), "--p", "1", "--theta", "1", "--out", str(out / "solve")]) == 0
    (tmp_path / "A0.csv").write_text("0\n0\n")
    (tmp_path / "b0.csv").write_text("0\n5\n")
    argv = ["solve", str(tmp_path / "A0.csv"), str(tmp_path / "b0.csv"), "--p", "2", "--theta", "1"]
    assert main([*argv, "--out", str(out / "infeasible")]) == 2
    argv = ["bench", "--trials", "2", "--size", "5", "--delta", "inf", "--out", str(out / "bench")]
    assert main(argv) == 0

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    written = sorted(path for path in out.rglob("*") if path.is_file())
    names = {path.name for path in written}
    assert {"example1.csv", "model.json", "fit_plot.csv", "fit.csv", "sweep.csv", "solution.csv", "report.json",
            "bench.csv", "bench_summary.json"} <= names
    for path in written:
        raw = path.read_bytes()
        assert b"\r" not in raw, path
        text = raw.decode()
        if path.suffix == ".json":
            json.loads(text, parse_constant=refuse)
        for line in text.splitlines():
            if line.startswith("# config: "):
                json.loads(line.removeprefix("# config: "), parse_constant=refuse)


class TestGenerators:
    def test_example1_shape_and_values(self):
        d = example1_dataset()
        assert len(d) == 100 and d.dim == 1
        assert d.x[0, 0] == -2.0 and d.x[-1, 0] == 2.0
        x = d.x[:, 0]
        expect = np.maximum.reduce([-6 * x - 6, x / 2, x**5 / 5 + x / 2])
        assert np.array_equal(d.f, expect)

    def test_example2_seeded(self):
        a = example2_dataset(3)
        b = example2_dataset(3)
        c = example2_dataset(4)
        assert np.array_equal(a.x, b.x) and np.array_equal(a.f, b.f)
        assert not np.array_equal(a.f, c.f)
        assert len(a) == 500 and a.dim == 2

    def test_example3_grid(self):
        d = example3_dataset()
        assert len(d) == 11**3 and d.dim == 3
        i = np.nonzero((d.x == 0).all(axis=1))[0][0]
        assert d.f[i] == pytest.approx(math.log(3.0))

    def test_example3_targets_match_scipy_logsumexp_bit_for_bit(self):
        from scipy.special import logsumexp

        x = example3_dataset().x
        assert logsumexp_rows(x).tobytes() == logsumexp(x, axis=1).tobytes()

    def test_gen_example_writes(self, tmp_path):
        assert main(["gen-example", "2", "--seed", "9", "--out", str(tmp_path)]) == 0
        d = load_dataset(tmp_path / "example2.csv")
        assert np.array_equal(d.f, example2_dataset(9).f)
        assert main(["gen-example", "2", "--seed", "10", "--out", str(tmp_path / "10")]) == 0
        assert not np.array_equal(load_dataset(tmp_path / "10" / "example2.csv").f, d.f)


class TestBench:
    def test_small_deterministic_replay(self, tmp_path):
        r1 = run_bench(trials=4, m=40, n=40, delta=2.5, p=150.0, seed=11)
        r2 = run_bench(trials=4, m=40, n=40, delta=2.5, p=150.0, seed=11)
        assert [row.__dict__ for row in r1.rows] == [row.__dict__ for row in r2.rows]

    def test_threads_do_not_change_output(self, monkeypatch):
        # the pool has one worker per usable CPU
        rows = []
        for cpus in (1, 3):
            monkeypatch.setattr(io_formats, "_usable_cpus", lambda: cpus)
            rows.append([row.__dict__ for row in run_bench(trials=6, m=30, n=30, delta=2.5, p=150.0, seed=5).rows])
        assert rows[0] == rows[1]
        with pytest.raises(TypeError):
            run_bench(trials=6, m=30, n=30, delta=2.5, p=150.0, seed=5, threads=1)

    def test_heuristic_rows_respect_bound(self):
        report = run_bench(trials=10, m=50, n=50, delta=2.5, p=150.0, seed=2)
        for row in report.rows:
            if not row.infeasible:
                assert row.heuristic_error_inf <= 2.5

    def test_cli_bench_writes_outputs(self, tmp_path):
        rc = main(
            ["bench", "--trials", "3", "--size", "30", "--seed", "1", "--out", str(tmp_path)]
        )
        assert rc == 0
        lines = (tmp_path / "bench.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # config + header + 3 trials
        summary = json.loads((tmp_path / "bench_summary.json").read_text())
        assert summary["trials"] == 3
        # the seed first after the command; no thread count or output directory
        assert summary["config"] == {
            "command": "bench", "seed": 1, "trials": 3, "rows": 30, "cols": 30, "delta": 2.5, "p": 150.0
        }

    @pytest.mark.parametrize("name, value", [("trials", -2)])
    def test_bad_counts_are_rejected(self, tmp_path, capsys, name, value):
        rc = main(["bench", "--size", "5", f"--{name}", str(value), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        with pytest.raises(ValueError, match=name):
            run_bench(m=5, n=5, delta=2.5, p=150.0, seed=0, **{name: value})

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "A.csv", "b.csv", "--theta", "1"],
            ["fit", "data.csv", "--grid-step", "1", "--theta", "1"],
            ["sweep", "data.csv", "--p", "1", "--theta", "1"],
            ["repro"],
            ["gen-example", "1"],
        ],
    )
    def test_threads_is_refused_outside_bench(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--threads=2", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads=2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["solve", "A.csv", "b.csv", "--theta", "1"], "--norm-inf-greedy"),
            (["bench"], "--paper-scale"),
            # a seed only where a command draws at random: bench and gen-example
            (["solve", "A.csv", "b.csv", "--theta", "1"], "--seed=1"),
            (["fit", "data.csv", "--grid-step", "1", "--theta", "1"], "--seed=1"),
            (["sweep", "data.csv", "--p", "1", "--theta", "1"], "--seed=1"),
            (["repro"], "--seed=1"),
            # bench sizes its pool from the usable CPUs
            (["bench"], "--threads=2"),
        ],
    )
    def test_removed_aliases_are_refused(self, tmp_path, capsys, argv, flag):
        # --p inf and --size 1000 are the one spelling of each
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve", "fit", "sweep", "bench", "repro", "gen-example"])
def test_every_subcommand_help_exits_zero(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: tropfit {command}")


def test_command_failing_before_its_first_write_leaves_no_out_directory(worked_files, tmp_path, capsys):
    _, b = worked_files
    bench_out, solve_out = tmp_path / "X" / "bench", tmp_path / "Y" / "solve"
    assert main(["bench", "--trials", "-2", "--size", "5", "--out", str(bench_out)]) == 1
    argv = ["solve", str(tmp_path / "missing.csv"), str(b), "--p", "1", "--theta", "1", "--out", str(solve_out)]
    assert main(argv) == 1
    main(["gen-example", "1", "--out", str(tmp_path)])
    grid = ["--grid-lo", "-2", "--grid-hi", "2", "--grid-step", "1"]
    argv = ["sweep", str(tmp_path / "example1.csv"), *grid, "--p", "1", "--theta", ",", "--out", str(tmp_path / "Z")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 3
    assert "error: sweep needs at least one norm order and one budget" in err
    assert not any((tmp_path / name).exists() for name in "XYZ")


GRID = ["--grid-lo", "-20", "--grid-hi", "20", "--grid-step", "0.125"]


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{A}", "{b}", "--p", "1", "--theta", "1"],
        ["solve", "{A0}", "{b0}", "--p", "2", "--theta", "1"],  # infeasible: a report, exit 2
        ["fit", "{data}", *GRID, "--p", "1", "--theta", "0.5"],
        ["sweep", "{data}", *GRID, "--p", "1,2", "--theta", "0.15,1"],
        ["gen-example", "2", "--seed", "3"],
        ["bench", "--trials", "3", "--size", "30"],
    ],
    ids=["solve", "solve-infeasible", "fit", "sweep", "gen-example", "bench"],
)
def test_a_command_writes_the_same_bytes_in_any_directory(worked_files, tmp_path, monkeypatch, argv):
    # nothing in the replay record names the output directory, and bench's
    # trials are the same on any number of usable CPUs
    a, b = worked_files
    (tmp_path / "A0.csv").write_text("0\n0\n")
    (tmp_path / "b0.csv").write_text("0\n5\n")
    main(["gen-example", "1", "--out", str(tmp_path)])
    paths = {"A": a, "b": b, "A0": tmp_path / "A0.csv", "b0": tmp_path / "b0.csv", "data": tmp_path / "example1.csv"}
    written = []
    for run, cpus in (("one", 1), ("other", 3)):
        monkeypatch.setattr(io_formats, "_usable_cpus", lambda: cpus)
        out = tmp_path / run / "out"
        filled = [tok.format(**paths) for tok in argv]
        assert main([*filled, "--out", str(out)]) in (0, 2)
        files = sorted(path.relative_to(out) for path in out.rglob("*") if path.is_file())
        # bench_summary.json holds the run's wall time
        written.append({name: (out / name).read_bytes() for name in files if name.name != "bench_summary.json"})
    assert written[0] and written[0] == written[1]


class TestRepro:
    def test_full_harness_passes(self, tmp_path):
        # every check end to end, the three examples through the CLI's fit path
        assert main(["repro", "--out", str(tmp_path)]) == 0
        results = json.loads((tmp_path / "repro.json").read_text())["results"]
        assert len(results) == 4
        assert all(r["pass"] for r in results), results

    def test_worked_example_check_passes(self, tmp_path):
        # one check alone; test_full_harness_passes runs all four
        from tropfit.cli import _check_worked_example

        ok, detail = _check_worked_example()
        assert ok, detail

    @pytest.mark.parametrize(
        "seeds, passed, detail",
        [((0,), False, "no feasible noise draw among candidate seeds"), ((0, 5), True, "seed=5:")],
    )
    def test_example2_check_takes_the_first_feasible_draw(self, monkeypatch, seeds, passed, detail):
        # seed 0's full support misses the budget
        import tropfit.cli as cli

        monkeypatch.setattr(cli, "EXAMPLE2_SEEDS", seeds)
        ok, text = cli._check_example2()
        assert ok is passed and text.startswith(detail)

    def test_a_check_that_raises_fails_the_harness(self, tmp_path, monkeypatch, capsys):
        import tropfit.cli as cli

        def broken():
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "REPRO_CHECKS", [("broken", broken), ("worked-example", cli._check_worked_example)])
        assert main(["repro", "--out", str(tmp_path)]) == 1
        assert "FAIL  broken" in capsys.readouterr().out
        doc = json.loads((tmp_path / "repro.json").read_text())
        assert [(r["check"], r["pass"]) for r in doc["results"]] == [("broken", False), ("worked-example", True)]
        assert doc["results"][0]["detail"] == "error: boom"
        assert doc["config"] == {"command": "repro"}

    def test_tampered_expectations_flagged(self, monkeypatch):
        # negative control: a drifted support count must turn the check red
        import tropfit.cli as cli

        tampered = dict(cli.EXAMPLE1_P1)
        tampered[0.15] = (0.0038, 18)  # reference value is 15; +/-1 is allowed
        monkeypatch.setattr(cli, "EXAMPLE1_P1", tampered)
        ok, detail = cli._check_example1()
        assert not ok, detail


def test_cli_import_loads_no_scipy():
    # a fresh interpreter on the tropfit under test; no command loads scipy,
    # and concurrent.futures loads only for bench's pool
    src = str(Path(tropfit.__file__).resolve().parents[1])
    code = (
        "import sys, tropfit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m.startswith('concurrent.futures')))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
