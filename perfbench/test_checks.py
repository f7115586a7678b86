"""The benchmark's output checks accept real tropfit outputs and reject broken ones.

Run from the repository root: python3 -m pytest perfbench/test_checks.py
"""

import contextlib
import io
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import bench_checks as checks

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tropfit.cli import main as tropfit_main  # noqa: E402
from tropfit.solver import FitProblem, greedy_sparse_solve  # noqa: E402


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert tropfit_main(argv) == 0


def feasible_instance(size, p, theta, seed=0):
    rng = np.random.default_rng(seed)
    while True:
        A = rng.normal(0.0, 2.0, size=(size, size))
        b = rng.normal(0.0, 1.0, size=size)
        if checks.full_support_feasible(A, b, p, theta):
            return A, b


def test_solve_check_rejects_a_coordinate_above_the_principal_solution(tmp_path):
    p, theta = 150.0, 5.0
    A, b = feasible_instance(200, p, theta)
    np.savetxt(tmp_path / "A.csv", A, fmt="%.17g", delimiter=",")
    np.savetxt(tmp_path / "b.csv", b, fmt="%.17g")
    run_cli(["solve", str(tmp_path / "A.csv"), str(tmp_path / "b.csv"), "--p", "150", "--theta", "5",
             "--out", str(tmp_path)])
    x = checks.read_vector_csv(tmp_path / "solution.csv")
    report = json.loads((tmp_path / "report.json").read_text())
    assert checks.check_cli_solve(A, b, p, theta, x, report) == len(report["support"]) > 1

    raised = x.copy()
    raised[report["support"][0]] += 1e-6
    with pytest.raises(checks.CheckFailed, match="differs from min_i"):
        checks.check_cli_solve(A, b, p, theta, raised, report)


def test_sweep_check_rejects_a_perturbed_intercept(tmp_path):
    run_cli(["gen-example", "1", "--out", str(tmp_path)])
    out = tmp_path / "sweep"
    run_cli(["sweep", str(tmp_path / "example1.csv"), "--grid-lo", "-20", "--grid-hi", "20",
             "--grid-step", "0.125", "--p", "1", "--theta", "0.5,0.25", "--out", str(out)])
    X, f = checks.read_dataset_csv(tmp_path / "example1.csv")
    records = checks.check_sweep(out, X, f, "sgle")
    checks.check_supports_grow(records, "example 1")

    model = out / "model_p1_theta0.25.json"
    doc = json.loads(model.read_text())
    k = next(k for k, v in enumerate(doc["intercepts"]) if v != "-inf")
    doc["intercepts"][k] -= 1e-3
    model.write_text(json.dumps(doc))
    with pytest.raises(checks.CheckFailed, match="table rms/max_abs"):
        checks.check_sweep(out, X, f, "sgle")


def test_bench_check_rejects_an_smmae_solution_that_was_not_shifted():
    delta = 2.5
    A, b = feasible_instance(200, 150.0, 2.0 * delta, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        sgle = greedy_sparse_solve(FitProblem(A, b, p=150.0, theta=2.0 * delta))
        smmae = greedy_sparse_solve(FitProblem(A, b, p=150.0, theta=2.0 * delta, estimator="smmae"))
        linf = greedy_sparse_solve(FitProblem(A, b, p=math.inf, theta=delta))
    checks.check_bench_trial(A, b, delta, smmae.x, linf.x)
    with pytest.raises(checks.CheckFailed, match="not symmetric"):
        checks.check_bench_trial(A, b, delta, sgle.x, linf.x)


def test_tracer_restores_the_program_and_self_times_add_up():
    import bench_trace
    import tropfit.regression
    import tropfit.solver

    originals = (tropfit.solver.greedy_sparse_solve, tropfit.regression.greedy_sparse_solve,
                 tropfit.solver.pnorm, vars(tropfit.solver.GreedyState)["select_best"])
    rec = bench_trace.Recorder()
    tracer = bench_trace.Tracer(rec)
    A, b = feasible_instance(50, 2.0, 3.0)
    rec.op = 0
    tracer.install()
    try:
        with rec.span(bench_trace.OP):
            solution = tropfit.solver.greedy_sparse_solve(FitProblem(A, b, p=2.0, theta=3.0, estimator="smmae"))
    finally:
        tracer.remove()
    assert originals == (tropfit.solver.greedy_sparse_solve, tropfit.regression.greedy_sparse_solve,
                         tropfit.solver.pnorm, vars(tropfit.solver.GreedyState)["select_best"])
    metrics = bench_trace.layer_metrics(rec, [rec.last_root])
    assert metrics["solver.greedy_states"] == 1
    assert metrics["solver.iterations"] == len(solution.support) > 0
    assert metrics["solver.pnorm_calls"] >= metrics["solver.iterations"]
    assert metrics["solver.smmae_lift_s"] > 0.0
    total = sum(metrics[k] for k in bench_trace.SELF_TIME_METRICS)
    assert total == pytest.approx(metrics["trace.op_s"], rel=1e-9)


def test_row_blocked_sweeps_match_the_whole_matrix():
    rng = np.random.default_rng(2)
    m = 2 * checks.ROW_BLOCK + 5
    X = rng.normal(size=(m, 2))
    slopes = rng.normal(size=(40, 2))
    design = checks.GridDesign(X, slopes)
    A = X @ slopes.T
    b = rng.normal(size=m)
    assert np.allclose(np.vstack([design[rows] for rows in checks.row_blocks(m)]), A, rtol=1e-15, atol=0.0)

    xhat = checks.principal_solution(A, b)
    assert np.array_equal(xhat, (b[:, np.newaxis] - A).min(axis=0))
    singleton_max = np.maximum(b[:, np.newaxis] - (A + xhat), 0.0).max(axis=1)
    assert np.array_equal(checks.support_error(A, b, xhat, []), singleton_max)
    full = np.maximum(b - (A + xhat).max(axis=1), 0.0)
    for p in (1.0, 2.0, 150.0):
        theta = checks.pnorm(full, p)
        assert checks.full_support_feasible(A, b, p, theta * 1.01)
        assert not checks.full_support_feasible(A, b, p, theta * 0.99)
