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
from tropfit.io_formats import load_dataset, load_model, load_vector, parse_report

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
        report = parse_report((out / "report.json").read_text())
        assert report["support"] == [2, 0]
        assert report["infeasible"] is False
        assert report["config"]["seed"] == 0
        assert "support [2, 0]" in capsys.readouterr().out

    def test_epsilon_flag(self, worked_files, tmp_path):
        a, b = worked_files
        out = tmp_path / "run"
        # epsilon = 1, p = 2 means theta = 1: stops at {2, 0} with e = (1,0,0)
        assert main(["solve", str(a), str(b), "--p", "2", "--epsilon", "1", "--out", str(out)]) == 0
        assert parse_report((out / "report.json").read_text())["support"] == [2, 0]
        out2 = tmp_path / "run2"
        assert main(["solve", str(a), str(b), "--p", "2", "--theta", "1", "--out", str(out2)]) == 0
        assert parse_report((out2 / "report.json").read_text())["support"] == [2, 0]

    def test_huge_theta_empty_support(self, worked_files, tmp_path):
        a, b = worked_files
        out = tmp_path / "run"
        assert main(["solve", str(a), str(b), "--p", "1", "--theta", "1e9", "--out", str(out)]) == 0
        assert np.isneginf(load_vector(out / "solution.csv")).all()

    def test_norm_inf_greedy(self, worked_files, tmp_path):
        a, b = worked_files
        out = tmp_path / "run"
        with pytest.warns(UserWarning, match="no approximation guarantee"):
            rc = main(
                ["solve", str(a), str(b), "--norm-inf-greedy", "--theta", "0.5", "--out", str(out)]
            )
        assert rc == 0
        assert parse_report((out / "report.json").read_text())["support"] == [2]

    def test_infeasible_exit_code(self, tmp_path, capsys):
        a = tmp_path / "A.csv"
        b = tmp_path / "b.csv"
        a.write_text("0\n0\n")
        b.write_text("0\n5\n")
        rc = main(["solve", str(a), str(b), "--p", "2", "--theta", "1", "--out", str(tmp_path)])
        assert rc == 2
        assert parse_report((tmp_path / "report.json").read_text())["infeasible"] is True
        assert "infeasible" in capsys.readouterr().err

    def test_infeasible_report_records_full_support_error(self, tmp_path):
        a = tmp_path / "A.csv"
        b = tmp_path / "b.csv"
        a.write_text("0\n0\n")
        b.write_text("0\n1\n")
        rc = main(["solve", str(a), str(b), "--theta", "0", "--out", str(tmp_path)])
        assert rc == 2
        assert parse_report((tmp_path / "report.json").read_text())["full_support_error"] == 1.0

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
        report = parse_report((out / "report.json").read_text())
        assert report["infeasible"] is False
        assert report["error_p"] == 1e308

    def test_missing_file_exit_code(self, tmp_path, capsys):
        rc = main(["solve", "nope.csv", "also-nope.csv", "--p", "1", "--theta", "1", "--out", str(tmp_path)])
        assert rc == 1


class TestFitAndSweep:
    def test_fit_writes_model_and_plot(self, tmp_path):
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
        model = load_model(out / "model.json")
        assert model.support_size == 11
        plot_rows = (out / "fit_plot.csv").read_text().strip().splitlines()
        assert plot_rows[0].startswith("# config:")
        assert len(plot_rows) == 101  # config comment + one row per point
        assert "# config:" in (out / "fit.csv").read_text()

    def test_fit_model_round_trips_score(self, tmp_path):
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
        model = load_model(out / "model.json")
        data = load_dataset(tmp_path / "example1.csv")
        rescored = score(model, data)
        assert rescored.rms == model.rms
        assert rescored.max_abs == model.max_abs

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


class TestBench:
    def test_small_deterministic_replay(self, tmp_path):
        r1 = run_bench(trials=4, m=40, n=40, delta=2.5, p=150.0, seed=11)
        r2 = run_bench(trials=4, m=40, n=40, delta=2.5, p=150.0, seed=11)
        assert [row.__dict__ for row in r1.rows] == [row.__dict__ for row in r2.rows]

    def test_threads_do_not_change_output(self):
        seq = run_bench(trials=6, m=30, n=30, delta=2.5, p=150.0, seed=5, threads=1)
        par = run_bench(trials=6, m=30, n=30, delta=2.5, p=150.0, seed=5, threads=3)
        assert [row.__dict__ for row in seq.rows] == [row.__dict__ for row in par.rows]

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
        assert summary["config"]["seed"] == 1

    @pytest.mark.parametrize("name, value", [("trials", -2), ("threads", 0), ("threads", -3)])
    def test_bad_counts_are_rejected(self, tmp_path, capsys, name, value):
        rc = main(["bench", "--size", "5", f"--{name}", str(value), "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        kwargs = {"trials": 2, "threads": 1, name: value}
        with pytest.raises(ValueError, match=name):
            run_bench(m=5, n=5, delta=2.5, p=150.0, seed=0, **kwargs)


def test_command_failing_before_its_first_write_leaves_no_out_directory(worked_files, tmp_path, capsys):
    _, b = worked_files
    bench_out, solve_out = tmp_path / "X" / "bench", tmp_path / "Y" / "solve"
    assert main(["bench", "--trials", "-2", "--size", "5", "--out", str(bench_out)]) == 1
    argv = ["solve", str(tmp_path / "missing.csv"), str(b), "--p", "1", "--theta", "1", "--out", str(solve_out)]
    assert main(argv) == 1
    assert capsys.readouterr().err.count("error:") == 2
    assert not (tmp_path / "X").exists() and not (tmp_path / "Y").exists()


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

    def test_tampered_expectations_flagged(self, monkeypatch):
        # negative control: a drifted support count must turn the check red
        import tropfit.cli as cli

        tampered = dict(cli.EXAMPLE1_P1)
        tampered[0.15] = (0.0038, 18)  # reference value is 15; +/-1 is allowed
        monkeypatch.setattr(cli, "EXAMPLE1_P1", tampered)
        ok, detail = cli._check_example1()
        assert not ok, detail


def test_cli_import_loads_no_scipy():
    # a fresh interpreter on the tropfit under test; scipy loads only for --gradient-slopes
    src = str(Path(tropfit.__file__).resolve().parents[1])
    code = "import sys, tropfit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"
