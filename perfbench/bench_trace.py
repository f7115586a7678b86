"""Span tracing of tropfit's layers, installed from outside the program.

`install` replaces the layer functions listed in LAYER_FUNCTIONS with
wrappers, in every tropfit module namespace where a caller looks them up
(for example `tropfit.regression.greedy_sparse_solve` as well as
`tropfit.solver.greedy_sparse_solve`), and wraps two GreedyState methods
on the class.  Each call records a span (name, start, end, parent span,
operation id) in memory; `solver.pnorm` is only counted, since the greedy
calls it once per candidate.  Functions not listed run inside the span of
their nearest listed caller, so their time is that caller's self time.

A layer's self time is its span's duration minus its child spans'
durations; summed over all spans of an operation, self times add up to the
operation's duration exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

LAYER_FUNCTIONS = {
    "tropical": ("principal_solution",),
    "solver": ("greedy_sparse_solve", "smmae_lift"),
    "regression": ("grid_slopes", "gradient_slopes", "build_design_matrix", "fit", "score", "evaluate"),
    "io_formats": (
        "load_matrix", "load_vector", "load_dataset",
        "parse_matrix", "parse_vector", "parse_dataset",
        "write_matrix", "write_vector", "write_dataset", "write_model", "write_report", "write_plot_data",
        "save_text",
    ),
}
GREEDY_STATE_METHODS = ("__init__", "select_best")
NAMESPACES = ("tropfit", "tropfit.tropical", "tropfit.solver", "tropfit.regression", "tropfit.io_formats", "tropfit.cli")

# Root spans the benchmark itself opens.  OP is an in-process operation and
# CLI_MAIN the `tropfit.cli.main` call inside a traced CLI process: what no
# layer span covers in them is CLI work (argparse, config, tables).
# PROCESS is a CLI operation seen from the benchmark, whose uncovered time
# is interpreter start-up and exit; IMPORT is `import tropfit` in that process.
OP, CLI_MAIN, PROCESS, IMPORT = "op", "cli.main", "process", "import"

SELF_TIME_METRICS = (
    "process.self_s", "cli.import_s", "cli.self_s",
    "io_formats.parse_s", "io_formats.write_s", "io_formats.save_s",
    "tropical.principal_solution_s",
    "solver.greedy_state_s", "solver.select_best_s", "solver.solve_s", "solver.smmae_lift_s",
    "regression.slopes_s", "regression.design_s", "regression.fit_s", "regression.score_s",
)


def self_time_metric(name: str) -> str:
    """The per-layer metric a span's self time counts toward."""
    fixed = {
        OP: "cli.self_s", CLI_MAIN: "cli.self_s", PROCESS: "process.self_s", IMPORT: "cli.import_s",
        "tropical.principal_solution": "tropical.principal_solution_s",
        "solver.GreedyState.__init__": "solver.greedy_state_s",
        "solver.GreedyState.select_best": "solver.select_best_s",
        "solver.greedy_sparse_solve": "solver.solve_s",
        "solver.smmae_lift": "solver.smmae_lift_s",
        "regression.grid_slopes": "regression.slopes_s",
        "regression.gradient_slopes": "regression.slopes_s",
        "regression.build_design_matrix": "regression.design_s",
        "regression.fit": "regression.fit_s",
        "regression.score": "regression.score_s",
        "regression.evaluate": "regression.score_s",
        "io_formats.save_text": "io_formats.save_s",
    }
    if name in fixed:
        return fixed[name]
    func = name.removeprefix("io_formats.")
    if func.startswith(("parse_", "load_")):
        return "io_formats.parse_s"
    if func.startswith("write_"):
        return "io_formats.write_s"
    raise KeyError(f"no metric for span {name!r}")


class Recorder:
    """Spans and counters of one process, kept in memory until dumped.

    A span is [name, start, end, parent index or None, operation id, bytes],
    where bytes is the text size a parser read or a serializer produced.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = None
        self.last_root = None
        self.pnorm_calls = 0

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op, 0])
        index = len(self.spans) - 1
        if parent is None:
            self.last_root = index
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.begin(name)
        try:
            yield index
        finally:
            self.end(index)

    def parent_name(self, index: int):
        parent = self.spans[index][3]
        return None if parent is None else self.spans[parent][0]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "pnorm_calls": self.pnorm_calls}, fh)

    def adopt(self, path, parent: int) -> None:
        """Append the spans a traced child process dumped, under span `parent`."""
        with open(path) as fh:
            doc = json.load(fh)
        base = len(self.spans)
        op = self.spans[parent][4]
        for name, start, end, up, _, nbytes in doc["spans"]:
            self.spans.append([name, start, end, parent if up is None else base + up, op, nbytes])
        self.pnorm_calls += doc["pnorm_calls"]


def _wrap(rec: Recorder, name: str, fn):
    counts_parse = ".parse_" in name
    counts_write = ".write_" in name

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        index = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(index)
        if counts_parse and args and isinstance(args[0], str) and not (rec.parent_name(index) or "").startswith("io_formats.parse_"):
            rec.spans[index][5] = len(args[0])
        elif counts_write and isinstance(out, str):
            rec.spans[index][5] = len(out)
        return out

    return traced


def _counted(rec: Recorder, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        rec.pnorm_calls += 1
        return fn(*args, **kwargs)

    return counted


class Tracer:
    """Installs and removes the wrappers; the originals are restored exactly."""

    def __init__(self, rec: Recorder):
        solver = importlib.import_module("tropfit.solver")
        wrappers = {id(solver.pnorm): (solver.pnorm, _counted(rec, solver.pnorm))}
        for short, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"tropfit.{short}")
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = (fn, _wrap(rec, f"{short}.{fname}", fn))
        self.patches = []  # (owner, attribute, original, wrapper)
        for module in map(importlib.import_module, NAMESPACES):
            for attr, value in vars(module).items():
                original, wrapper = wrappers.get(id(value), (None, None))
                if original is value:
                    self.patches.append((module, attr, value, wrapper))
        for meth in GREEDY_STATE_METHODS:
            fn = vars(solver.GreedyState)[meth]
            self.patches.append((solver.GreedyState, meth, fn, _wrap(rec, f"solver.GreedyState.{meth}", fn)))

    def install(self) -> None:
        for owner, attr, _, wrapper in self.patches:
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original, _ in self.patches:
            setattr(owner, attr, original)


def layer_metrics(rec: Recorder, ops: list[int]) -> dict[str, float]:
    """Per-operation means of every layer's self time and count over `ops`.

    `ops` are the indices of the operations' root spans.  The returned
    `trace.op_s` is the mean root duration, which the self-time metrics sum to.
    """
    spans = rec.spans
    chosen = {spans[i][4] for i in ops}
    child_time = defaultdict(float)
    for name, start, end, parent, op, _ in spans:
        if parent is not None and op in chosen:
            child_time[parent] += end - start
    self_time = dict.fromkeys(SELF_TIME_METRICS, 0.0)
    calls = Counter()
    parse_bytes = write_bytes = 0
    for i, (name, start, end, parent, op, nbytes) in enumerate(spans):
        if op not in chosen:
            continue
        self_time[self_time_metric(name)] += end - start - child_time[i]
        calls[name] += 1
        if ".parse_" in name:
            parse_bytes += nbytes
        elif ".write_" in name:
            write_bytes += nbytes
    n = len(ops)
    metrics = {k: v / n for k, v in self_time.items()}
    iterations = calls["solver.GreedyState.select_best"]
    fits = calls["regression.fit"]
    metrics.update({
        "io_formats.parse_mb_per_s": _rate(parse_bytes, self_time["io_formats.parse_s"]),
        "io_formats.write_mb_per_s": _rate(write_bytes, self_time["io_formats.write_s"]),
        "solver.greedy_states": calls["solver.GreedyState.__init__"] / n,
        "solver.iterations": iterations / n,
        "solver.pnorm_calls": rec.pnorm_calls / n,
        "solver.pnorm_per_iteration": rec.pnorm_calls / iterations if iterations else 0.0,
        "regression.score_per_fit": calls["regression.score"] / fits if fits else 0.0,
        "trace.op_s": sum(spans[i][2] - spans[i][1] for i in ops) / n,
    })
    return metrics


def _rate(nbytes: int, seconds: float) -> float:
    return nbytes / 1e6 / seconds if seconds > 0 else 0.0
