"""Closed-loop benchmark of tropfit, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload {solve-cli,fit-sweep,bench-paper} \
        --seed N --seconds S --trace {0,1}

One client runs operations back to back for S seconds, and at least a
workload's minimum count; every output is checked by bench_checks right
after its operation, outside the timed region.  The last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the end-to-end metrics with --trace 0, the per-layer metrics
of a traced run with --trace 1.  Inputs are made from --seed; tropfit is
taken from src/ of the checkout this script sits in.  See README.md here.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
import warnings
from pathlib import Path

import numpy as np

import bench_checks as checks
import bench_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
IMPORT_PROBES = 3
CHILD_TIMEOUT_S = 150.0
PAPER_SIZE = 1000
DELTA = 2.5  # bench --delta default: target max-abs error of both bench arms
PAPER_P = 150.0  # bench --p default: norm order of the SMMAE arm

# Workloads draw their inputs from SeedSequence([seed, STREAM, ...]) so
# that one seed gives different instances to different workloads.
STREAM = {"solve-cli": 1, "fit-sweep": 2, "bench-paper": 3}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_tropfit():
    """Import tropfit from this checkout's src/, refusing any other copy."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tropfit
    import tropfit.cli

    if not Path(tropfit.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported tropfit from {tropfit.__file__}, not from {SRC}")
    return tropfit


def quiet_main(cli, argv: list[str]) -> int:
    """tropfit.cli.main with its table printout and warnings kept out of our stdout."""
    with contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return cli.main(argv)


def paper_instance(seed: int, stream: int, index: int, vectors: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """A 1000x1000 instance drawn as `tropfit bench` draws a trial.

    A ~ N(0, 2^2) and b ~ N(0, 1); further right-hand sides continue the
    same generator.  A right-hand side whose full support misses the
    budget (p, theta) = (150, 2 delta) is drawn again: there the program
    rightly refuses, as `tropfit bench` marks such trials infeasible.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream, index]))
    A = rng.normal(0.0, 2.0, size=(PAPER_SIZE, PAPER_SIZE))
    bs = []
    while len(bs) < vectors:
        b = rng.normal(0.0, 1.0, size=PAPER_SIZE)
        if checks.full_support_feasible(A, b, PAPER_P, 2.0 * DELTA):
            bs.append(b)
    return A, bs


class OpFailed(Exception):
    """The program refused or crashed on an operation."""


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Inputs, one operation and its output check.

    Operation i runs input `i % cycle` (every input is new when cycle is
    0).  `select` makes untimed choices of inputs and `prepare` is the
    set-up a fresh process needs before its first operation; both run in
    fresh interpreters, `prepare` to time set-up and `select` to keep its
    arrays out of the measured process's peak memory.  `load` gives the
    benchmark its own copy of the inputs, `op_input` hands the input with a
    given key to an operation outside the timed region, `run_op` is the
    timed operation and `check` verifies its outputs and returns the mean
    support size of the solutions it produced.
    """

    name = ""
    cycle = 0
    min_ops = 1
    in_process = True

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.stream = STREAM[self.name]

    def input_key(self, i: int) -> int:
        return i % self.cycle if self.cycle else i

    def select(self) -> None:
        """Untimed choices made before set-up (default: none)."""

    def prepare(self) -> None:
        raise NotImplementedError

    def load(self) -> None:
        raise NotImplementedError

    def op_input(self, key: int):
        return key

    def run_op(self, i: int, inp, rec):
        raise NotImplementedError

    def check(self, i: int, inp, result) -> float:
        raise NotImplementedError

    def fingerprint(self, result):
        """What must repeat exactly when an input is run again."""
        return None

    def peak_rss_kb(self) -> int:
        """Peak resident memory of the process that did the work."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class SolveCli(Workload):
    """`tropfit solve A.csv b.csv --p 150 --theta 5`, one fresh process per operation."""

    name = "solve-cli"
    in_process = False
    MATRICES, VECTORS = 2, 4
    cycle = min_ops = MATRICES * VECTORS
    P, THETA = PAPER_P, 2.0 * DELTA

    def instances(self):
        return [paper_instance(self.seed, self.stream, a, self.VECTORS) for a in range(self.MATRICES)]

    def prepare(self) -> None:
        # explicit 17 significant digits: numpy 2's repr writes np.float64(...)
        for a, (A, bs) in enumerate(self.instances()):
            np.savetxt(self.work / f"A{a}.csv", A, fmt="%.17g", delimiter=",")
            for v, b in enumerate(bs):
                np.savetxt(self.work / f"b{a}_{v}.csv", b, fmt="%.17g")

    def load(self) -> None:
        self.matrices = self.instances()
        self.child_rss_kb = 0

    def run_op(self, i: int, key: int, rec):
        a, v = divmod(key, self.VECTORS)
        out = self.work / "ops" / f"op{i}"
        out.mkdir(parents=True)
        argv = ["solve", str(self.work / f"A{a}.csv"), str(self.work / f"b{a}_{v}.csv"),
                "--p", f"{self.P:g}", "--theta", f"{self.THETA:g}", "--out", str(out)]
        spans = out / "spans.json"
        if rec is None:
            cmd = [sys.executable, "-m", "tropfit", *argv]
        else:
            cmd = [sys.executable, str(HERE / "bench_traced_cli.py"), str(spans), *argv]
        env = child_env()
        with open(out / "log.txt", "wb") as log, (rec.span(bench_trace.PROCESS) if rec else contextlib.nullcontext()):
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT, env=env)
            watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            last = (out / "log.txt").read_text(errors="replace").strip().splitlines()[-1:]
            raise OpFailed(f"exit code {proc.returncode}: {' '.join(last)}")
        if rec:
            rec.adopt(spans, rec.last_root)
        return out

    def check(self, i: int, key: int, out: Path) -> float:
        a, v = divmod(key, self.VECTORS)
        A, bs = self.matrices[a]
        x = checks.read_vector_csv(out / "solution.csv")
        report = json.loads((out / "report.json").read_text())
        return checks.check_cli_solve(A, bs[v], self.P, self.THETA, x, report)

    def fingerprint(self, out: Path):
        return (out / "solution.csv").read_bytes()

    def peak_rss_kb(self) -> int:
        return self.child_rss_kb


class FitSweep(Workload):
    """The paper's three fitting examples through `tropfit sweep`, in process."""

    name = "fit-sweep"
    EX2_DRAWS = 3
    cycle = min_ops = EX2_DRAWS
    EX1 = ["--grid-lo", "-20", "--grid-hi", "20", "--grid-step", "0.125", "--p", "1,2", "--theta", "0.15,0.25,0.5,1"]
    # example 2: the 81x81 slope grid over [-10, 10]^2 at (p, epsilon) = (150, 1e8);
    # the sweep's flags and the feasibility screen in `select` both come from here
    EX2_LO, EX2_HI, EX2_STEP, EX2_P, EX2_EPSILON = -10.0, 10.0, 0.25, 150.0, 1e8
    EX2 = ["--grid-lo", repr(EX2_LO), "--grid-hi", repr(EX2_HI), "--grid-step", repr(EX2_STEP),
           "--p", repr(EX2_P), "--epsilon", repr(EX2_EPSILON)]
    EX3_EPSILONS = [1331.0 / 2.0**k for k in range(11)]
    EX3 = ["--gradient-slopes", "--p", "2", "--epsilon", ",".join(repr(e) for e in EX3_EPSILONS)]

    def select(self) -> None:
        """Pick noise draws of example 2 whose full support meets its budget.

        Only some draws admit a fit at (p, epsilon) = (EX2_P, EX2_EPSILON)
        at all; feasibility is decided by numpy on the dataset gen-example
        writes, over the grid that `tropfit.regression.grid_slopes` makes
        from EX2's flags.
        """
        cli = import_tropfit().cli
        count = math.floor((self.EX2_HI - self.EX2_LO) / self.EX2_STEP + 1e-9) + 1
        axis = self.EX2_LO + self.EX2_STEP * np.arange(count)
        theta = checks.theta_of("epsilon", self.EX2_EPSILON, self.EX2_P)
        rng = np.random.default_rng([self.seed, self.stream])
        scratch = self.work / "select"
        draws = []
        for _ in range(200):
            s = int(rng.integers(0, 2**31 - 1))
            if quiet_main(cli, ["gen-example", "2", "--seed", str(s), "--out", str(scratch)]) != 0:
                raise RuntimeError("gen-example 2 failed")
            X, f = checks.read_dataset_csv(scratch / "example2.csv")
            if checks.grid_fit_feasible(X, f, axis, self.EX2_P, theta):
                draws.append(s)
                if len(draws) == self.EX2_DRAWS:
                    break
        else:
            raise RuntimeError("too few feasible example-2 draws")
        shutil.rmtree(scratch)
        (self.work / "draws.json").write_text(json.dumps(draws))

    def draws(self) -> list[int]:
        return json.loads((self.work / "draws.json").read_text())

    def prepare(self) -> None:
        cli = import_tropfit().cli
        data = self.work / "data"
        jobs = [["1", "--out", str(data)], ["3", "--out", str(data)]]
        jobs += [["2", "--seed", str(s), "--out", str(data / f"ex2-{s}")] for s in self.draws()]
        for job in jobs:
            if quiet_main(cli, ["gen-example", *job]) != 0:
                raise RuntimeError(f"gen-example {job} failed")

    def load(self) -> None:
        self.cli = import_tropfit().cli
        data = self.work / "data"
        self.ex2 = [data / f"ex2-{s}" / "example2.csv" for s in self.draws()]
        self.datasets = {p: checks.read_dataset_csv(p) for p in [data / "example1.csv", data / "example3.csv", *self.ex2]}

    def op_input(self, key: int) -> list[tuple[str, Path, list[str]]]:
        data = self.work / "data"
        ex2 = self.ex2[key]
        return [
            ("ex1", data / "example1.csv", self.EX1),
            ("ex2-sgle", ex2, self.EX2),
            ("ex2-smmae", ex2, [*self.EX2, "--estimator", "smmae"]),
            ("ex3", data / "example3.csv", self.EX3),
        ]

    def run_op(self, i: int, sweeps, rec):
        out = self.work / "ops" / f"op{i}"
        for key, dataset, flags in sweeps:
            code = quiet_main(self.cli, ["sweep", str(dataset), *flags, "--out", str(out / key)])
            if code != 0:
                raise OpFailed(f"sweep {key} exited with {code}")
        return out

    def check(self, i: int, sweeps, out: Path) -> float:
        records = {}
        for key, dataset, _ in sweeps:
            X, f = self.datasets[dataset]
            records[key] = checks.check_sweep(out / key, X, f, "smmae" if key.endswith("smmae") else "sgle")
        for p in (1.0, 2.0):
            loosest_first = sorted((r for r in records["ex1"] if r["p"] == p), key=lambda r: -r["budget"])
            checks.check_supports_grow(loosest_first, f"example 1 p={p:g}")
        checks.check_supports_grow(records["ex3"], "example 3")
        checks.check_smmae_halves(records["ex2-sgle"], records["ex2-smmae"], "example 2")
        checks.check_example1_reference(records["ex1"])
        supports = [r["support"] for rs in records.values() for r in rs]
        return sum(supports) / len(supports)

    def fingerprint(self, out: Path):
        return tuple((out / key / "sweep.csv").read_text().split("\n", 1)[1] for key in ("ex1", "ex2-sgle", "ex2-smmae", "ex3"))


class BenchPaper(Workload):
    """One paper-scale `tropfit bench` trial per operation, single-threaded.

    Each operation draws a new instance, outside the timed region, so a
    run averages over many instances; 40 operations at least, enough for a
    tail percentile.
    """

    name = "bench-paper"
    min_ops = 40

    def prepare(self) -> None:
        import_tropfit()

    def load(self) -> None:
        self.solver = import_tropfit().solver

    def op_input(self, key: int):
        A, (b,) = paper_instance(self.seed, self.stream, key, 1)
        return A, b

    def run_op(self, i: int, inp, rec):
        # the arms `tropfit bench` runs: SMMAE at theta = 2 delta, then the
        # l-infinity greedy at theta = delta (which warns by design)
        A, b = inp
        solver = self.solver
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            heuristic = solver.greedy_sparse_solve(solver.FitProblem(A, b, p=PAPER_P, theta=2.0 * DELTA, estimator="smmae"))
            greedy = solver.greedy_sparse_solve(solver.FitProblem(A, b, p=math.inf, theta=DELTA))
        return heuristic.x, greedy.x

    def check(self, i: int, inp, result) -> float:
        heuristic_x, greedy_x = result
        checks.check_bench_trial(*inp, DELTA, heuristic_x, greedy_x)
        return (len(checks.finite_support(heuristic_x)) + len(checks.finite_support(greedy_x))) / 2

    def fingerprint(self, result):
        return tuple(x.tobytes() for x in result)


WORKLOADS = {w.name: w for w in (SolveCli, FitSweep, BenchPaper)}


# ---------------------------------------------------------------------------
# measurement


def run_step(workload: str, seed: int, step: str) -> None:
    """Run a workload's `select` or `prepare` in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--step", step]
    subprocess.run(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, env=child_env(),
                   check=True, timeout=CHILD_TIMEOUT_S)


def time_setup(workload: str, seed: int, repeats: int) -> list[float]:
    """Wall time of `prepare` in a fresh interpreter, `repeats` times."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_step(workload, seed, "prepare")
        times.append(time.perf_counter() - t0)
    return times


def probe_import() -> tuple[float, int]:
    """Median `import tropfit` time in fresh interpreters, and the scipy modules it loads."""
    code = (
        "import sys, time\nt = time.perf_counter()\nimport tropfit\nt = time.perf_counter() - t\n"
        "print(t, sum(1 for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    runs = []
    for _ in range(IMPORT_PROBES):
        out = subprocess.run([sys.executable, "-c", code], stdin=subprocess.DEVNULL, env=child_env(),
                             capture_output=True, text=True, check=True, timeout=CHILD_TIMEOUT_S).stdout.split()
        runs.append((float(out[0]), int(out[1])))
    return statistics.median(t for t, _ in runs), runs[-1][1]


def run_loop(wl: Workload, seconds: float, rec) -> list[dict]:
    """Closed loop, one client: operations back to back until `seconds` have
    passed and `min_ops` have run, each checked as soon as it ends.

    With a recorder, operations alternate traced and untraced, and every
    input is run both ways so that the tracing overhead compares like with
    like: with a cycle of inputs the inputs traced swap each round, over two
    rounds at least; without one each input runs twice in a row, in
    alternating order.  An input is released before the next one is made,
    so the benchmark holds one at a time.
    """
    tracer = bench_trace.Tracer(rec) if rec is not None and wl.in_process else None
    paired = rec is not None and not wl.cycle
    min_ops = wl.min_ops if rec is None else max(wl.min_ops, 2 * wl.cycle)
    ops = []
    replay = {}
    inp = held = None
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds or (paired and i % 2):
        key = i // 2 if paired else wl.input_key(i)
        turn = i % 2 if paired else i // wl.cycle if wl.cycle else 0
        traced = rec is not None and (key + turn) % 2 == 0
        op = {"i": i, "input": key, "traced": traced, "error": None, "problem": None}
        if key != held:
            inp = None
            inp = wl.op_input(key)
            held = key
        if traced:
            rec.op = i
            if tracer:
                tracer.install()
        result = None
        t0 = time.perf_counter()
        try:
            if tracer and traced:
                with rec.span(bench_trace.OP):
                    result = wl.run_op(i, inp, None)
            else:
                result = wl.run_op(i, inp, rec if traced else None)
        except Exception as exc:  # a failed operation is counted, not fatal
            op["error"] = f"{type(exc).__name__}: {exc}"
        finally:
            op["seconds"] = time.perf_counter() - t0
            if tracer and traced:
                tracer.remove()
        if traced:
            op["root"] = rec.last_root
        if not op["error"]:
            try:
                op["support"] = wl.check(i, inp, result)
                mark = wl.fingerprint(result)
                checks.require(replay.setdefault(key, mark) == mark, f"input {key} replayed differently")
            except (checks.CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
                op["problem"] = f"{type(exc).__name__}: {exc}"
        result = None
        ops.append(op)
        i += 1
    return ops


def tracing_overhead(ops: list[dict]) -> float:
    """Median, over the inputs run both ways, of the traced minus the
    untraced operation time on that input (medians where an input ran
    more than once each way)."""
    times = {}
    for op in ops:
        times.setdefault(op["input"], ([], []))[op["traced"]].append(op["seconds"])
    return statistics.median(statistics.median(traced) - statistics.median(plain)
                             for plain, traced in times.values() if plain and traced)


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it; needs 40 samples."""
    if len(values) < 40:
        return None
    ordered = sorted(values)
    k = len(ordered) - 11
    return ordered[k], 100.0 * (k + 1) / len(ordered)


END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "peak_rss_mb": "MB", "support_mean": "count",
}
PER_LAYER = {
    "import.tropfit_s": "s", "import.scipy_modules": "count",
    "process.self_s": "s", "cli.import_s": "s", "cli.self_s": "s",
    "io_formats.parse_s": "s", "io_formats.parse_mb_per_s": "MB/s",
    "io_formats.write_s": "s", "io_formats.save_s": "s", "io_formats.write_mb_per_s": "MB/s",
    "tropical.principal_solution_s": "s",
    "solver.greedy_state_s": "s", "solver.greedy_states": "count",
    "solver.select_best_s": "s", "solver.pnorm_calls": "count", "solver.pnorm_per_iteration": "ratio",
    "solver.iterations": "count", "solver.solve_s": "s", "solver.smmae_lift_s": "s",
    "regression.slopes_s": "s", "regression.design_s": "s", "regression.fit_s": "s",
    "regression.score_s": "s", "regression.score_per_fit": "ratio",
    "trace.op_s": "s", "trace.overhead_s": "s",
}


def benchmark(args) -> int:
    wl_cls = WORKLOADS[args.workload]
    work = OUT / "work" / args.workload
    if args.step:
        getattr(wl_cls(args.seed, work), args.step)()
        return 0
    if not (SRC / "tropfit" / "__init__.py").is_file():
        print(f"perfbench: no tropfit sources at {SRC}", file=sys.stderr)
        return 2
    import_tropfit()  # fails early on a broken checkout, and leaves bytecode compiled
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = wl_cls(args.seed, work)
    run_step(args.workload, args.seed, "select")
    setup = time_setup(args.workload, args.seed, 1 if args.trace else SETUP_REPEATS)
    wl.load()
    rec = bench_trace.Recorder() if args.trace else None
    ops = run_loop(wl, args.seconds, rec)

    failed = [op for op in ops if op["error"]]
    done = [op for op in ops if not op["error"]]
    problems = [f"op {op['i']}: {op['problem']}" for op in done if op["problem"]]
    for message in problems + [f"op {op['i']} failed: {op['error']}" for op in failed]:
        print(f"perfbench: {message}", file=sys.stderr)
    correct = not problems
    plain = [op["seconds"] for op in done if not op["traced"]]
    lines = [f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
             f"{len(ops)} ops attempted, {len(failed)} failed, {len(done) - len(problems)} passed checks"]
    if args.trace:
        traced = [op for op in done if op["traced"]]
        metrics = bench_trace.layer_metrics(rec, [op["root"] for op in traced])
        total = sum(metrics[k] for k in bench_trace.SELF_TIME_METRICS)
        correct &= abs(total - metrics["trace.op_s"]) <= 1e-6 * max(1.0, metrics["trace.op_s"])
        lines.append(f"self times sum to {total:.6f} s per traced op; traced op mean {metrics['trace.op_s']:.6f} s")
        metrics["import.tropfit_s"], metrics["import.scipy_modules"] = probe_import()
        metrics["trace.overhead_s"] = tracing_overhead(done)
        units = PER_LAYER
        with open(OUT / f"trace-{wl.name}-seed{args.seed}.json", "w") as fh:
            json.dump({"columns": ["name", "start", "end", "parent", "op", "bytes"], "spans": rec.spans,
                       "pnorm_calls": rec.pnorm_calls}, fh)
    else:
        by_input = {}
        for op in done:
            by_input.setdefault(op["input"], op.get("support", 0.0))
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": len(plain) / sum(plain),
            "op_p50_s": statistics.median(plain),
            "peak_rss_mb": wl.peak_rss_kb() / 1024.0,
            "support_mean": sum(by_input.values()) / len(by_input),
        }
        units = END_TO_END
        lines.append(f"setup_s samples {[round(s, 4) for s in setup]}")
        slow = tail(plain)
        if slow:
            lines.append(f"op_tail_s {slow[0]:.6g} s  (p{slow[1]:.0f} of {len(plain)} ops)")
        else:
            lines.append(f"op_tail_s not reported: {len(plain)} ops < 40")
    for name, unit in units.items():
        lines.append(f"{name:32s} {metrics[name]:14.6g} {unit}")
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "setup_s_samples": setup, "ops": [{k: v for k, v in op.items() if k != "root"} for op in ops],
              "metrics": metrics}
    (OUT / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("\n".join(lines))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--step", choices=["select", "prepare"], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        return benchmark(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
