"""Command-line front door: solve, fit, sweep, bench, repro, gen-example.

Outputs land in --out (default: current directory), which is created
when the first file is written, so a command that fails before writing
leaves no directory behind.  Every table and report embeds a replay record
of what decides its outputs: the command, its inputs and options, and the
seed of bench and gen-example, the only commands that draw at random.  It
leaves out --out, which changes no value, so a command writes the same
bytes into any directory, and bench on any number of usable CPUs.
io_formats writes every file.  Exit codes: 0 ok, 2 infeasible, 1 error.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import io_formats
from .regression import (
    Dataset,
    PwlModel,
    Score,
    SlopeSet,
    evaluate,
    fit,
    fit_path,
    gradient_slopes,
    grid_slopes,
)
from .solver import (
    FitProblem,
    GreedyPath,
    GreedyState,
    Infeasible,
    greedy_sparse_solve,
    submodularity_ratio,
)
from .tropical import ShapeError, principal_solution

PAPER_SCALE = 1000
DESK_SCALE = 200


# ---------------------------------------------------------------------------
# example data generators (synthetic-data policy lives here, not the library)


def example1_dataset(points: int = 100) -> Dataset:
    """Noiseless 1-D convex curve on [-2, 2]: max(-6x-6, x/2, x^5/5 + x/2)."""
    x = np.linspace(-2.0, 2.0, points)
    f = np.maximum.reduce([-6.0 * x - 6.0, x / 2.0, x**5 / 5.0 + x / 2.0])
    return Dataset(x, f)


def example2_dataset(seed: int, points: int = 500) -> Dataset:
    """Noisy paraboloid: z = x^2 + y^2 + N(0, 0.25^2), (x, y) ~ Unif[-1, 1]^2."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(-1.0, 1.0, size=(points, 2))
    z = (xy**2).sum(axis=1) + rng.normal(0.0, 0.25, size=points)
    return Dataset(xy, z)


def logsumexp_rows(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(row))) of each row of a finite 2-D array.

    The arithmetic of scipy.special.logsumexp (scipy 1.17), so the example-3
    targets stay bit-identical without loading scipy: the entries tied at the
    row max are taken out of the sum and counted, m of them, and the result
    is log1p(s / m) + log(m) + max with s the sum of exp(x - max) over the
    rest.  The plain max + log(sum(exp(x - max))) differs in the last bit.
    """
    top = x.max(axis=1, keepdims=True)
    tied = x == top
    m = tied.sum(axis=1, keepdims=True, dtype=x.dtype)
    s = np.exp(np.where(tied, -np.inf, x) - top).sum(axis=1, keepdims=True)
    return (np.log1p(s / m) + np.log(m) + top)[:, 0]


def example3_dataset() -> Dataset:
    """log(exp(x1)+exp(x2)+exp(x3)) on the integer grid {-5..5}^3."""
    v = np.arange(-5.0, 6.0)
    g = np.meshgrid(v, v, v, indexing="ij")
    pts = np.column_stack([a.ravel() for a in g])
    return Dataset(pts, logsumexp_rows(pts))


# ---------------------------------------------------------------------------
# shared plumbing


def _config(args: argparse.Namespace, **options) -> dict:
    """Replay record embedded in every output file: the values that decide its outputs."""
    return {"command": args.command, **options}


def _write_table(path: Path, header: list[str], rows: list[list], config: dict) -> None:
    io_formats.save_text(path, io_formats.write_table(header, rows, io_formats.config_echo(config)))


def _fit_writer(data: Dataset, slopes: SlopeSet, config: dict):
    """A writer of models fitted on (data, slopes): each model's file, and its
    per-point plot file when it has pieces.

    The text the models share, their slopes, the points and the config
    comment, is rendered once, here."""
    model_text = io_formats.ModelRenderer(slopes.slopes)
    plot_text = io_formats.PlotRenderer(data, io_formats.config_echo(config))

    def write(model_path: Path, plot_path: Path, model: PwlModel) -> None:
        io_formats.save_text(model_path, model_text(model))
        if model.support_size:
            io_formats.save_text(plot_path, plot_text(evaluate(model, data.x)))

    return write


def _problem_from_args(args: argparse.Namespace, A=None, b=None) -> FitProblem:
    return FitProblem(A, b, p=args.p, theta=args.theta, epsilon=args.epsilon, estimator=args.estimator)


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _slope_set(args: argparse.Namespace, data: Dataset) -> tuple[SlopeSet, dict]:
    """The slopes that the flags choose, and the replay record of their
    source: its origin and its flags' parsed values."""
    chosen = [
        name
        for name, on in (
            ("--grid-step", args.grid_step is not None),
            ("--slopes", args.slopes is not None),
            ("--gradient-slopes", args.gradient_slopes),
        )
        if on
    ]
    if len(chosen) != 1:
        raise ValueError(f"exactly one slope source required, got {chosen or 'none'}")
    if args.neighbors is not None and not args.gradient_slopes:
        raise ValueError("--neighbors requires --gradient-slopes")
    if args.grid_step is None and (args.grid_lo is not None or args.grid_hi is not None):
        raise ValueError("--grid-lo and --grid-hi require --grid-step")
    if args.grid_step is not None:
        lo = _parse_float_list(args.grid_lo) if args.grid_lo else None
        hi = _parse_float_list(args.grid_hi) if args.grid_hi else None
        if lo is None or hi is None:
            raise ValueError("--grid-step requires --grid-lo and --grid-hi")
        if len(lo) == 1:
            lo = lo * data.dim
        if len(hi) == 1:
            hi = hi * data.dim
        slopes = grid_slopes(lo, hi, args.grid_step)
        source = {"grid_lo": lo, "grid_hi": hi, "grid_step": args.grid_step}
    elif args.slopes is not None:
        slopes = SlopeSet(io_formats.load_matrix(args.slopes), origin="explicit")
        source = {"slopes": args.slopes}
    else:
        slopes = gradient_slopes(data, args.neighbors)
        source = {"neighbors": args.neighbors}
    return slopes, {"slope_count": slopes.size, "slope_origin": slopes.origin, **source}


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args: argparse.Namespace) -> int:
    out = Path(args.out)
    # b first: a bad right-hand side fails before A's parse, not after it
    b = io_formats.load_vector(args.vector)
    A = io_formats.load_matrix(args.matrix)
    problem = _problem_from_args(args, A, b)
    config = _config(
        args,
        matrix=args.matrix,
        vector=args.vector,
        p=problem.p,
        theta=problem.budget,
        estimator=args.estimator,
    )
    try:
        solution = greedy_sparse_solve(problem)
    except Infeasible as exc:
        io_formats.save_text(out / "report.json", io_formats.write_report(None, config, exc.full_support_error))
        raise
    io_formats.save_text(out / "solution.csv", io_formats.write_vector(solution.x))
    io_formats.save_text(out / "report.json", io_formats.write_report(solution, config))
    print(
        f"support {list(solution.support)}  error_p {solution.error_p:.6g}  "
        f"error_inf {solution.error_inf:.6g}"
    )
    return 0


def _scored(model: PwlModel | Infeasible) -> Score:
    """A fitted model's score; an Infeasible from fit_path is raised.

    A model with every region pruned scores NaN errors for the console;
    tables write the model's own None errors, as empty cells."""
    if isinstance(model, Infeasible):
        raise model
    if model.support_size == 0:
        return Score(rms=math.nan, max_abs=math.nan, support=0)
    return Score(rms=model.rms, max_abs=model.max_abs, support=model.support_size)


def cmd_fit(args: argparse.Namespace) -> int:
    out = Path(args.out)
    data = io_formats.load_dataset(args.dataset)
    slopes, source = _slope_set(args, data)
    problem = _problem_from_args(args)
    config = _config(
        args,
        dataset=args.dataset,
        p=problem.p,
        theta=problem.budget,
        estimator=args.estimator,
        **source,
    )
    model = fit(data, slopes, problem)
    s = _scored(model)
    _fit_writer(data, slopes, config)(out / "model.json", out / "fit_plot.csv", model)
    _write_table(
        out / "fit.csv",
        ["p", "theta", "rms", "max_abs", "support"],
        [[problem.p, problem.budget, model.rms, model.max_abs, s.support]],
        config,
    )
    print(f"regions {s.support}  rms {s.rms:.6g}  max_abs {s.max_abs:.6g}")
    return 0


def _labeler(values: list[float]):
    """Names for file tags: a value's :g form, unless another of ``values``
    shares that form, and then its repr, so no two values share a name."""
    shared = Counter(f"{val:g}" for val in set(values))
    return lambda val: repr(val) if shared[f"{val:g}"] > 1 else f"{val:g}"


def cmd_sweep(args: argparse.Namespace) -> int:
    out = Path(args.out)
    data = io_formats.load_dataset(args.dataset)
    slopes, source = _slope_set(args, data)
    ps = _parse_float_list(args.p_list)
    kind = "theta" if args.theta_list is not None else "epsilon"
    budgets = _parse_float_list(args.theta_list if kind == "theta" else args.epsilon_list)
    if not ps or not budgets:
        raise ValueError("sweep needs at least one norm order and one budget")
    config = _config(
        args,
        dataset=args.dataset,
        p_list=ps,
        budgets=budgets,
        budget_kind=kind,
        estimator=args.estimator,
        **source,
    )
    # p-major, so fit_path runs one greedy per norm order for all its budgets
    cells = [(p, val) for p in ps for val in budgets]
    problems = [FitProblem(p=p, estimator=args.estimator, **{kind: val}) for p, val in cells]
    p_label, label = _labeler(ps), _labeler(budgets)
    write_fit = _fit_writer(data, slopes, config)
    rows, lines = [], []
    for (p, val), model in zip(cells, fit_path(data, slopes, problems)):
        where = f"p={p_label(p)} budget={label(val)}  "
        if isinstance(model, Infeasible):
            rows.append([p, val, None, None, None, True])
            lines.append(where + "infeasible")
            continue
        s = _scored(model)
        rows.append([p, val, model.rms, model.max_abs, s.support, False])
        lines.append(where + f"rms={s.rms:.4f} max_abs={s.max_abs:.4f} supp={s.support}")
        tag = f"p{p_label(p)}_{kind}{label(val)}"
        write_fit(out / f"model_{tag}.json", out / f"plot_{tag}.csv", model)
    _write_table(
        out / "sweep.csv",
        ["p", kind, "rms", "max_abs", "support", "infeasible"],
        rows,
        config,
    )
    print("\n".join(lines))
    return 0


@dataclass
class BenchRow:
    trial: int
    heuristic_support: int | None
    heuristic_error_inf: float | None
    greedy_support: int | None
    greedy_error_inf: float | None
    infeasible: bool


@dataclass
class BenchReport:
    rows: list[BenchRow]
    median_heuristic: float | None
    median_greedy: float | None
    bound: float
    feasible_trials: int


def _bench_trial(seed, m: int, n: int, delta: float, p: float) -> BenchRow:
    rng = np.random.default_rng(seed)
    A = rng.normal(0.0, 2.0, size=(m, n))
    b = rng.normal(0.0, 1.0, size=m)
    trial = int(seed.spawn_key[-1])
    state = GreedyState(A, b)  # both arms run on one instance build
    try:
        heur = GreedyPath(state, p).solve(FitProblem(p=p, theta=2.0 * delta, estimator="smmae"))
        grd = GreedyPath(state, math.inf).solve(FitProblem(p=math.inf, theta=delta))
    except Infeasible:
        return BenchRow(trial, None, None, None, None, True)
    return BenchRow(
        trial,
        len(heur.support),
        heur.error_inf,
        len(grd.support),
        grd.error_inf,
        False,
    )


def run_bench(trials: int, m: int, n: int, delta: float, p: float, seed: int) -> BenchReport:
    """Random-instance comparison: SMMAE heuristic vs the guarantee-free
    l-infinity greedy, both targeting max-abs error <= delta.

    Trials run in a thread pool of one worker per usable CPU, at most 8.
    Their seeds spawn deterministically from the master seed, so the report
    is identical at any CPU count.  Trials whose full support cannot meet
    the budget are recorded as infeasible and excluded from the medians.
    Every feasible heuristic row is hard-checked against the guaranteed bound.
    """
    # imported here, so that the other commands start without it: a few ms
    from concurrent.futures import ThreadPoolExecutor

    if trials < 0:
        raise ValueError(f"need trials >= 0, got trials={trials}")
    children = np.random.SeedSequence(seed).spawn(trials)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the l-infinity greedy warns by design
        with ThreadPoolExecutor(max_workers=io_formats._usable_cpus()) as pool:
            rows = list(pool.map(lambda s: _bench_trial(s, m, n, delta, p), children))
    feasible = [r for r in rows if not r.infeasible]
    for row in feasible:
        if row.heuristic_error_inf > delta:
            raise RuntimeError(
                f"heuristic trial {row.trial} violates the guaranteed bound: "
                f"{row.heuristic_error_inf} > {delta}"
            )
    return BenchReport(
        rows=rows,
        median_heuristic=float(np.median([r.heuristic_support for r in feasible])) if feasible else None,
        median_greedy=float(np.median([r.greedy_support for r in feasible])) if feasible else None,
        bound=delta,
        feasible_trials=len(feasible),
    )


def cmd_bench(args: argparse.Namespace) -> int:
    out = Path(args.out)
    m = n = args.size
    config = _config(args, seed=args.seed, trials=args.trials, rows=m, cols=n, delta=args.delta, p=args.p)
    t0 = time.perf_counter()
    report = run_bench(args.trials, m, n, args.delta, args.p, args.seed)
    elapsed = time.perf_counter() - t0
    _write_table(
        out / "bench.csv",
        ["trial", "heuristic_support", "heuristic_error_inf", "greedy_support", "greedy_error_inf", "infeasible"],
        [
            [r.trial, r.heuristic_support, r.heuristic_error_inf, r.greedy_support, r.greedy_error_inf, r.infeasible]
            for r in report.rows
        ],
        config,
    )
    summary = {
        "median_heuristic": report.median_heuristic,
        "median_greedy": report.median_greedy,
        "bound": report.bound,
        "feasible_trials": report.feasible_trials,
        "trials": args.trials,
        "elapsed_seconds": elapsed,
        "config": config,
    }
    io_formats.save_text(out / "bench_summary.json", io_formats.write_json(summary))
    print(
        f"{m}x{n}, {report.feasible_trials}/{args.trials} feasible: "
        f"median support heuristic {report.median_heuristic} vs greedy {report.median_greedy} "
        f"({elapsed:.1f}s)"
    )
    if m < PAPER_SCALE:
        print(f"note: support medians depend on instance size; paper-scale values need --size {PAPER_SCALE}")
    return 0


def cmd_gen_example(args: argparse.Namespace) -> int:
    if args.which == 1:
        data = example1_dataset()
    elif args.which == 2:
        data = example2_dataset(args.seed)
    else:
        data = example3_dataset()
    path = Path(args.out) / f"example{args.which}.csv"
    echo = io_formats.config_echo(_config(args, seed=args.seed, which=args.which))
    io_formats.save_text(path, io_formats.write_dataset(data, comment=echo))
    print(path)
    return 0


# ---------------------------------------------------------------------------
# reproduction harness


EXAMPLE1_P1 = {
    # theta: (rms, support) reference values for the p = 1 sweep
    0.15: (0.0038, 15),
    0.25: (0.0057, 13),
    0.5: (0.0120, 11),
    1.0: (0.0202, 8),
}
EXAMPLE2_SEEDS = (5, 8, 21, 24, 25)  # noise draws for which theta = 10^(8/150) is feasible


def _check_worked_example() -> tuple[bool, str]:
    A = np.array([[0.0, 5.0, 2.0], [4.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    b = np.array([3.0, 1.0, 0.0])
    tol = 1e-12
    xhat = principal_solution(A, b)
    ok = bool(np.abs(xhat - [-3.0, -2.0, 0.0]).max() <= tol)
    state = GreedyState(A, b)
    expected = {(2,): 0.5, (0, 2): 0.5, (1, 2): 0.5, (0, 1, 2): 0.0}
    for T, val in expected.items():
        ok &= abs(state.error_norm_of(T, math.inf) - val) <= tol
    ratio = submodularity_ratio(A, b, math.inf, [2], [0, 1])
    ok &= abs(ratio) <= tol
    return ok, f"xhat={xhat.tolist()} ratio={ratio}"


def _check_example1() -> tuple[bool, str]:
    data = example1_dataset()
    slopes = grid_slopes([-20.0], [20.0], 0.125)
    notes = []
    ok = True
    problems = [
        FitProblem(p=1, theta=theta, estimator=estimator)
        for theta in EXAMPLE1_P1
        for estimator in ("sgle", "smmae")
    ]
    models = fit_path(data, slopes, problems)  # one greedy run at p = 1
    for theta, (rms, supp) in EXAMPLE1_P1.items():
        s = _scored(next(models))
        sm = _scored(next(models))
        ok &= abs(s.support - supp) <= 1
        ok &= abs(s.rms - rms) <= 0.10 * rms
        # model re-evaluation rounds independently of the solver, hence the slack
        ok &= abs(sm.max_abs - 0.5 * s.max_abs) <= 1e-12
        notes.append(f"theta={theta}: supp={s.support}/{supp} rms={s.rms:.4f}/{rms}")
    return ok, "; ".join(notes)


def _check_example2() -> tuple[bool, str]:
    slopes = grid_slopes([-10.0, -10.0], [10.0, 10.0], 0.25)
    bound = 10 ** (8 / 150) / 2
    problems = [FitProblem(p=150, epsilon=1e8, estimator=e) for e in ("sgle", "smmae")]
    for seed in EXAMPLE2_SEEDS:
        data = example2_dataset(seed)
        sgle, smmae = fit_path(data, slopes, problems)
        if isinstance(sgle, Infeasible):
            continue
        s, sm = _scored(sgle), _scored(smmae)
        residuals = data.f - evaluate(sgle, data.x)
        ok = (
            sm.max_abs <= bound
            and sm.rms < s.rms
            and bool((residuals >= -1e-12).all())
            and abs(sm.max_abs - 0.5 * s.max_abs) <= 1e-12
        )
        return ok, (
            f"seed={seed}: SMMAE max_abs={sm.max_abs:.4f} <= {bound:.4f}, "
            f"rms {sm.rms:.4f} < {s.rms:.4f}"
        )
    return False, "no feasible noise draw among candidate seeds"


def _check_example3() -> tuple[bool, str]:
    data = example3_dataset()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        slopes = gradient_slopes(data)
    supports = []

    def halvings():
        # fit_path reads this lazily: each next budget is drawn after the last fit
        eps = 1331.0
        yield FitProblem(p=2, epsilon=eps)
        while supports[-1] < 21 and eps > 1e-6:
            eps /= 2.0
            yield FitProblem(p=2, epsilon=eps)

    fits = fit_path(data, slopes, halvings())  # one greedy run at p = 2
    s = _scored(next(fits))
    ok = s.rms < 1.0 and s.support <= 6
    supports.append(s.support)
    for model in fits:
        supports.append(_scored(model).support)
    ok &= all(a <= b for a, b in zip(supports, supports[1:]))
    return ok, f"K={s.support} rms={s.rms:.4f}; K sweep {supports}"


REPRO_CHECKS = [
    ("worked-example", _check_worked_example),
    ("example-1-sweep", _check_example1),
    ("example-2-properties", _check_example2),
    ("example-3-curve", _check_example3),
]


def cmd_repro(args: argparse.Namespace) -> int:
    results = []
    failed = 0
    for name, check in REPRO_CHECKS:
        t0 = time.perf_counter()
        try:
            ok, detail = check()
        except Exception as exc:  # a crash is a failure, not an abort
            ok, detail = False, f"error: {exc}"
        elapsed = time.perf_counter() - t0
        failed += not ok
        results.append({"check": name, "pass": bool(ok), "detail": detail, "seconds": elapsed})
        print(f"{'PASS' if ok else 'FAIL'}  {name}  ({elapsed:.2f}s)  {detail}")
    summary = io_formats.write_json({"results": results, "config": _config(args)})
    io_formats.save_text(Path(args.out) / "repro.json", summary)
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=".", help="output directory")


def _add_problem_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--p", type=float, default=1.0, help="norm order (>= 1; < 1 experimental; inf: l-infinity greedy, no guarantee)"
    )
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", type=float, help="norm-domain error budget")
    group.add_argument("--epsilon", type=float, help="p-th-power error budget (theta = epsilon^(1/p))")
    sub.add_argument("--estimator", choices=["sgle", "smmae"], default="sgle")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tropfit",
        description="sparse max-plus solving and piecewise-linear convex fitting",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="sparse-solve a max-plus equation from CSV files")
    solve.add_argument("matrix", help="matrix CSV")
    solve.add_argument("vector", help="right-hand-side vector CSV")
    _add_problem_flags(solve)
    _add_common(solve)
    solve.set_defaults(func=cmd_solve)

    def add_slope_flags(sub):
        sub.add_argument("--grid-lo", help="comma-separated grid lower corner (scalar broadcasts)")
        sub.add_argument("--grid-hi", help="comma-separated grid upper corner")
        sub.add_argument("--grid-step", type=float, help="grid slope spacing")
        sub.add_argument("--slopes", help="explicit slope matrix CSV")
        sub.add_argument("--gradient-slopes", action="store_true", help="slopes from local gradients")
        sub.add_argument("--neighbors", type=int, default=None, help="neighborhood size for gradients")

    fit_p = subs.add_parser("fit", help="fit a piecewise-linear convex model to a dataset")
    fit_p.add_argument("dataset", help="dataset CSV (features..., target)")
    add_slope_flags(fit_p)
    _add_problem_flags(fit_p)
    _add_common(fit_p)
    fit_p.set_defaults(func=cmd_fit)

    sweep = subs.add_parser("sweep", help="fit over a list of (p, budget) pairs and tabulate")
    sweep.add_argument("dataset")
    add_slope_flags(sweep)
    sweep.add_argument("--p", dest="p_list", required=True, help="comma-separated norm orders")
    group = sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--theta", dest="theta_list", help="comma-separated theta budgets")
    group.add_argument("--epsilon", dest="epsilon_list", help="comma-separated epsilon budgets")
    sweep.add_argument("--estimator", choices=["sgle", "smmae"], default="sgle")
    _add_common(sweep)
    sweep.set_defaults(func=cmd_sweep)

    bench = subs.add_parser("bench", help="random-instance heuristic vs l-infinity greedy")
    bench.add_argument("--trials", type=int, default=100)
    bench.add_argument("--size", type=int, default=DESK_SCALE, help=f"square instance size (paper: {PAPER_SCALE})")
    bench.add_argument("--delta", type=float, default=2.5, help="target max-abs error")
    bench.add_argument("--p", type=float, default=150.0, help="norm order for the heuristic arm")
    bench.add_argument("--seed", type=int, default=0, help="master seed of the trial instances")
    _add_common(bench)
    bench.set_defaults(func=cmd_bench)

    repro = subs.add_parser("repro", help="re-run the reference examples and verify known values")
    _add_common(repro)
    repro.set_defaults(func=cmd_repro)

    gen = subs.add_parser("gen-example", help="write a synthetic example dataset")
    gen.add_argument("which", type=int, choices=[1, 2, 3])
    gen.add_argument("--seed", type=int, default=0, help="seed of example 2's points and noise")
    _add_common(gen)
    gen.set_defaults(func=cmd_gen_example)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Infeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (io_formats.ParseError, ShapeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
