"""Output checks for the benchmark, computed with numpy alone.

Nothing here imports tropfit: every expected value is recomputed from the
benchmark's own copy of the inputs, or is a property the method must have
(lateness, the SMMAE halving, greedy stopping), so a fault in the program
cannot hide behind the same fault in its checker.  Each check raises
CheckFailed with the reason.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np

# Relative slack for comparing two independently rounded evaluations of
# the same quantity (norms, scores); far above float64 rounding, far below
# any real change of a support or a model.
REL_TOL = 1e-9
ABS_TOL = 1e-9

# Paper reference for example 1 at p = 1: theta -> (support, rms).  The
# acceptance suite holds the same table; a fit must land within one
# region and 10% rms of it.
EXAMPLE1_P1 = {0.15: (15, 0.0038), 0.25: (13, 0.0057), 0.5: (11, 0.0120), 1.0: (8, 0.0202)}


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def pnorm(v, p: float) -> float:
    """lp norm of |v| with max-scaling, so p = 150 does not overflow."""
    a = np.abs(np.asarray(v, dtype=np.float64))
    m = float(a.max()) if a.size else 0.0
    if m == 0.0 or math.isinf(m) or math.isinf(p):
        return m
    return m * float(np.sum((a / m) ** p)) ** (1.0 / p)


def theta_of(kind: str, value: float, p: float) -> float:
    """Norm-domain budget from a sweep's `theta` or `epsilon` column."""
    if kind == "theta" or math.isinf(p):
        return value
    return math.exp(math.log(value) / p)


# The checks visit an m x n matrix ROW_BLOCK rows at a time.  On the
# in-process workloads the benchmark shares its process with tropfit, and
# peak_rss_mb reads that process's high-water mark; blocks keep the
# benchmark's own arrays far below the program's m x n working set.
ROW_BLOCK = 64


def row_blocks(m: int):
    for start in range(0, m, ROW_BLOCK):
        yield slice(start, min(start + ROW_BLOCK, m))


class GridDesign:
    """The design matrix X @ slopes.T of a slope grid, made a block of rows
    at a time: `design[rows]` is rows `rows` of it, as for an array."""

    def __init__(self, X: np.ndarray, slopes: np.ndarray):
        self.X, self.slopes = X, slopes
        self.shape = (X.shape[0], slopes.shape[0])

    def __getitem__(self, rows: slice) -> np.ndarray:
        return self.X[rows] @ self.slopes.T


def principal_solution(A, b: np.ndarray) -> np.ndarray:
    """Greatest x with max_j (A_ij + x_j) <= b_i: x_j = min_i (b_i - A_ij)."""
    xhat = np.full(A.shape[1], np.inf)
    for rows in row_blocks(A.shape[0]):
        np.minimum(xhat, (b[rows, np.newaxis] - A[rows]).min(axis=0), out=xhat)
    return xhat


def row_reduce(A, xhat: np.ndarray, reduce) -> np.ndarray:
    """reduce_j (A_ij + xhat_j) for every row i."""
    out = np.empty(A.shape[0])
    for rows in row_blocks(A.shape[0]):
        out[rows] = reduce(A[rows] + xhat, axis=1)
    return out


def support_error(A: np.ndarray, b: np.ndarray, xhat: np.ndarray, cols) -> np.ndarray:
    """Error vector e(T) of the principal solution restricted to `cols`.

    For the empty set this is the set-search convention: the elementwise
    max over the singleton errors, max(b_i - min_j (A_ij + xhat_j), 0).
    """
    cols = np.asarray(list(cols), dtype=np.intp)
    if cols.size == 0:
        return np.maximum(b - row_reduce(A, xhat, np.min), 0.0)
    return np.maximum(b - (A[:, cols] + xhat[cols]).max(axis=1), 0.0)


def maxplus_residual(A: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """b - A (max-plus) x over the finite coordinates of x."""
    cols = np.flatnonzero(~np.isneginf(x))
    require(cols.size > 0, "solution has an empty support")
    return b - (A[:, cols] + x[cols]).max(axis=1)


def finite_support(x: np.ndarray) -> set[int]:
    require(not np.isnan(x).any() and not np.isposinf(x).any(), "solution holds NaN or +inf")
    return {int(j) for j in np.flatnonzero(~np.isneginf(x))}


def close(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * max(abs(a), abs(b))


# ---------------------------------------------------------------------------
# solve-cli


def read_vector_csv(path: Path) -> np.ndarray:
    """One value per line, `-inf` allowed; parsed with float() alone."""
    return np.array([float(line) for line in path.read_text().split()], dtype=np.float64)


def check_cli_solve(A: np.ndarray, b: np.ndarray, p: float, theta: float, x: np.ndarray, report: dict) -> int:
    """Check one `tropfit solve` result; returns its support size."""
    order = [int(j) for j in report["support"]]
    require(len(set(order)) == len(order), "report support repeats a column")
    require(finite_support(x) == set(order), "finite coordinates of solution.csv differ from the report's support")
    require(report["infeasible"] is False and report["iterations"] == len(order), "report flags or iteration count are off")
    xhat = principal_solution(A, b)
    require(np.array_equal(x[order], xhat[order]), "a finite coordinate differs from min_i (b_i - A_ij)")
    residual = maxplus_residual(A, b, x)
    require(residual.min() >= -ABS_TOL, f"lateness broken: A (max-plus) x exceeds b by {-residual.min():.3g}")
    err = pnorm(residual, p)
    require(err <= theta * (1.0 + REL_TOL), f"error {err!r} exceeds the budget {theta!r}")
    require(close(err, float(report["error_p"])), f"error {err!r} differs from the report's {report['error_p']!r}")
    before = pnorm(support_error(A, b, xhat, order[:-1]), p)
    require(before > theta * (1.0 - REL_TOL), "the support without its last pick already meets the budget")
    return len(order)


# ---------------------------------------------------------------------------
# fit-sweep


def read_dataset_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Features and target of a dataset CSV (`#` lines are comments)."""
    arr = np.loadtxt(path, delimiter=",", comments="#", ndmin=2)
    return arr[:, :-1], arr[:, -1]


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CLI table, whose first line is `# config: {...}`."""
    lines = path.read_text().splitlines()
    require(lines and lines[0].startswith("# config: "), f"{path.name} lacks its config line")
    json.loads(lines[0][len("# config: "):])
    header, *rows = list(csv.reader(lines[1:]))
    return header, rows


def model_values(doc: dict, X: np.ndarray) -> np.ndarray:
    """max_k (a_k . x + b_k) over the finite intercepts of a model document."""
    slopes = np.asarray(doc["slopes"], dtype=np.float64).reshape(len(doc["intercepts"]), -1)
    intercepts = np.array([float(v) for v in doc["intercepts"]], dtype=np.float64)
    live = ~np.isneginf(intercepts)
    require(live.any(), "model has no finite intercept")
    return (X @ slopes[live].T + intercepts[live]).max(axis=1)


def check_sweep(out: Path, X: np.ndarray, f: np.ndarray, estimator: str) -> list[dict]:
    """Check one `tropfit sweep` output directory against the dataset.

    Returns one record per row, in table order, with the recomputed scores.
    """
    header, rows = read_table(out / "sweep.csv")
    kind = header[1]
    require(header == ["p", kind, "rms", "max_abs", "support", "infeasible"] and kind in ("theta", "epsilon"),
            f"unexpected sweep header {header}")
    records = []
    for row in rows:
        p, budget = float(row[0]), float(row[1])
        require(row[5] == "False", f"p={p:g} {kind}={budget:g} reported infeasible")
        doc = json.loads((out / f"model_p{p:g}_{kind}{budget:g}.json").read_text())
        values = model_values(doc, X)
        residual = f - values
        rms = float(np.sqrt(np.mean(residual**2)))
        max_abs = float(np.abs(residual).max())
        support = sum(1 for v in doc["intercepts"] if float(v) != -math.inf)
        where = f"p={p:g} {kind}={budget:g}"
        require(close(rms, float(row[2])) and close(max_abs, float(row[3])),
                f"{where}: table rms/max_abs {row[2]}/{row[3]} but the model gives {rms!r}/{max_abs!r}")
        require(support == int(row[4]) == doc["support"], f"{where}: support counts disagree")
        require(doc["estimator"] == estimator, f"{where}: model estimator {doc['estimator']!r}")
        if estimator == "sgle":
            require(residual.min() >= -ABS_TOL, f"{where}: SGLE model exceeds the data by {-residual.min():.3g}")
            theta = theta_of(kind, budget, p)
            err = pnorm(residual, p)
            require(err <= theta * (1.0 + REL_TOL), f"{where}: error {err!r} exceeds the budget {theta!r}")
        records.append({"p": p, "budget": budget, "rms": rms, "max_abs": max_abs, "support": support})
    return records


def check_supports_grow(records: list[dict], what: str) -> None:
    """Along a list of budgets ordered loosest first, supports never shrink."""
    supports = [r["support"] for r in records]
    require(all(a <= b for a, b in zip(supports, supports[1:])), f"{what}: supports shrink as the budget tightens {supports}")


def check_smmae_halves(sgle: list[dict], smmae: list[dict], what: str) -> None:
    require(len(sgle) == len(smmae), f"{what}: estimators swept different budgets")
    for s, h in zip(sgle, smmae):
        require(s["support"] == h["support"], f"{what}: SMMAE support differs from SGLE")
        require(abs(h["max_abs"] - 0.5 * s["max_abs"]) <= ABS_TOL,
                f"{what}: SMMAE max_abs {h['max_abs']!r} is not half of {s['max_abs']!r}")


def check_example1_reference(records: list[dict]) -> None:
    seen = 0
    for r in records:
        if r["p"] == 1.0 and r["budget"] in EXAMPLE1_P1:
            support, rms = EXAMPLE1_P1[r["budget"]]
            require(abs(r["support"] - support) <= 1 and abs(r["rms"] - rms) <= 0.10 * rms,
                    f"example 1 theta={r['budget']}: support {r['support']} rms {r['rms']:.4f}, paper {support} / {rms}")
            seen += 1
    require(seen == len(EXAMPLE1_P1), "example 1 sweep lacks a reference budget")


def full_support_feasible(A, b: np.ndarray, p: float, theta: float) -> bool:
    """Whether the full support meets the budget theta, with room to spare.

    Row i of the full-support error is max(b_i - max_j (A_ij + xhat_j), 0).
    Instances within a relative 1e-6 of the budget are refused, so that
    rounding cannot make the program call infeasible an instance chosen
    here as feasible.
    """
    full = np.maximum(b - row_reduce(A, principal_solution(A, b), np.max), 0.0)
    return pnorm(full, p) <= theta * (1.0 - 1e-6)


def grid_fit_feasible(X: np.ndarray, f: np.ndarray, axis: np.ndarray, p: float, theta: float) -> bool:
    """Whether a fit of (X, f) on the slope grid axis^d, d the columns of X,
    can meet the norm-domain budget theta at order p."""
    slopes = np.array(list(itertools.product(axis, repeat=X.shape[1])))
    return full_support_feasible(GridDesign(X, slopes), f, p, theta)


# ---------------------------------------------------------------------------
# bench-paper


def check_bench_trial(A: np.ndarray, b: np.ndarray, delta: float, heuristic_x: np.ndarray, greedy_x: np.ndarray) -> None:
    """SMMAE arm (p = 150, theta = 2 delta) and l-infinity greedy arm (theta = delta)."""
    require(finite_support(heuristic_x) and finite_support(greedy_x), "a bench arm returned an empty support")
    r = maxplus_residual(A, b, heuristic_x)
    scale = ABS_TOL * max(1.0, float(np.abs(b).max()))
    require(abs(r.max() + r.min()) <= scale, f"SMMAE residuals are not symmetric: max {r.max()!r}, min {r.min()!r}")
    require(np.abs(r).max() <= delta + scale, f"SMMAE max error {np.abs(r).max()!r} exceeds delta {delta}")
    g = maxplus_residual(A, b, greedy_x)
    require(g.min() >= -scale, f"l-infinity greedy overshoots b by {-g.min():.3g}")
    require(0.5 * g.max() <= delta + scale, f"l-infinity greedy misses its budget: half max error {0.5 * g.max()!r}")
