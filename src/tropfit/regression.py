"""Piecewise-linear fitting of convex multivariate functions.

A convex function sampled at points (x_i, f_i) is approximated by
p(x) = max_k (a_k . x + b_k) over a candidate slope set {a_k}.  Choosing
the intercepts is a max-plus equation in which the design matrix holds
the slope/point inner products; a sparse solve prunes intercepts to
-inf, so the number of affine regions is kept near the minimum needed
for the requested error budget.  A fit never builds the m×K design
matrix: its instance is built from the points and the slopes a block of
columns at a time.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace

import numpy as np

from .solver import SGLE, SMMAE, FitProblem, GreedyPath, GreedyState, Infeasible, _block_spans
from .solver import greedy_sparse_solve  # noqa: F401  (perfbench's tracer test reads it here)
from .tropical import ShapeError

__all__ = [
    "Dataset",
    "SlopeSet",
    "PwlModel",
    "Score",
    "build_design_matrix",
    "grid_slopes",
    "gradient_slopes",
    "fit",
    "fit_path",
    "evaluate",
    "score",
]

GRID_CAP = 100_000  # grid_slopes refuses larger grids


@dataclass(frozen=True)
class Dataset:
    """Sample points x (m rows, n columns) with target values f (length m)."""

    x: np.ndarray
    f: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=np.float64)
        if x.ndim == 1:
            x = x[:, np.newaxis]
        f = np.asarray(self.f, dtype=np.float64)
        if x.ndim != 2 or f.ndim != 1 or x.shape[0] != f.shape[0] or x.shape[0] < 1:
            raise ShapeError(f"inconsistent dataset shapes {x.shape} / {f.shape}")
        if not (np.isfinite(x).all() and np.isfinite(f).all()):
            raise ValueError("dataset values must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "f", f)

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class SlopeSet:
    """Candidate slope vectors, one per prospective affine region.

    Duplicate slopes collapse to identical design-matrix columns and only
    waste greedy iterations, so construction drops exact duplicates (first
    occurrence wins, keeping column order stable) and warns when anything is
    dropped.  ``origin`` is a label for the replay record.
    """

    slopes: np.ndarray
    origin: str = "explicit"

    def __post_init__(self):
        s = np.asarray(self.slopes, dtype=np.float64)
        if s.ndim == 1:
            s = s[:, np.newaxis]
        if s.ndim != 2 or s.shape[0] < 1:
            raise ShapeError(f"expected K x n slope array, got shape {s.shape}")
        if not np.isfinite(s).all():
            raise ValueError("slopes must be finite")
        # unique compares rows by their bytes, so + 0.0 folds -0.0 into
        # 0.0; it returns each row's first index, sorted back into order
        keep = np.sort(np.unique(s + 0.0, axis=0, return_index=True)[1])
        if keep.size < s.shape[0]:
            warnings.warn(
                f"dropped {s.shape[0] - keep.size} duplicate slope vector(s)",
                stacklevel=2,
            )
            s = s[keep]
        object.__setattr__(self, "slopes", s)

    @property
    def size(self) -> int:
        return self.slopes.shape[0]

    @property
    def dim(self) -> int:
        return self.slopes.shape[1]


@dataclass(frozen=True)
class PwlModel:
    """Max-of-affine model: p(x) = max over finite-intercept k of a_k.x + b_k.

    Finite slopes, no NaN intercept and a known estimator: every model can be written."""

    slopes: np.ndarray
    intercepts: np.ndarray
    p: float
    theta: float
    estimator: str
    rms: float | None = None
    max_abs: float | None = None

    def __post_init__(self):
        s = np.asarray(self.slopes, dtype=np.float64)
        if s.ndim == 1:
            s = s[:, np.newaxis]
        c = np.asarray(self.intercepts, dtype=np.float64)
        if s.ndim != 2 or c.ndim != 1 or s.shape[0] != c.shape[0] or s.shape[0] < 1:
            raise ShapeError(f"inconsistent model shapes {s.shape} / {c.shape}")
        if not np.isfinite(s).all():
            raise ValueError("slopes must be finite")
        if np.isnan(c).any():
            raise ValueError("intercepts must not be NaN")
        if self.estimator not in (SGLE, SMMAE):
            raise ValueError(f"unknown estimator {self.estimator!r}")
        object.__setattr__(self, "slopes", s)
        object.__setattr__(self, "intercepts", c)
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "theta", float(self.theta))

    @property
    def dim(self) -> int:
        return self.slopes.shape[1]

    @property
    def support_size(self) -> int:
        return int((~np.isneginf(self.intercepts)).sum())


@dataclass(frozen=True)
class Score:
    rms: float
    max_abs: float
    support: int


class _Design:
    """The design matrix A_ik = a_k . x_i of a fit, one block of columns at a time.

    GreedyState asks for the blocks in turn, so a fit never holds the whole
    m×K matrix.  A block is a BLAS product of its own: on OpenBLAS's AVX-512
    kernels a product's last (width mod 8) columns can round otherwise than
    the same columns of a product of another size, so a block may differ
    from x @ slopes.T in the last bit.  The design matrix is defined as its
    blocks, and build_design_matrix puts them side by side.
    """

    def __init__(self, data: Dataset, slopes: SlopeSet):
        if slopes.dim != data.dim:
            raise ShapeError(f"slope dimension {slopes.dim} != data dimension {data.dim}")
        self.points, self.slopes = data.x, slopes.slopes
        self.shape = (len(data), slopes.size)

    def column_block(self, lo: int, hi: int) -> np.ndarray:
        """Columns lo:hi of the design matrix; ValueError if an entry is not a finite float."""
        with np.errstate(over="ignore", invalid="ignore"):
            block = self.points @ self.slopes[lo:hi].T
        if not np.isfinite(block).all():
            raise ValueError("a design entry a_k . x_i overflows a float; rescale x or the slopes")
        return block


def build_design_matrix(data: Dataset, slopes: SlopeSet) -> np.ndarray:
    """Design matrix with entry (i, k) = a_k . x_i; right-hand side is data.f.

    Raises ValueError if an entry overflows a float.  fit_path does not
    call it: it reads the same blocks one at a time, so a fit on this matrix
    and fit_path see the same bits.
    """
    design = _Design(data, slopes)
    A = np.empty(design.shape)
    for lo, hi in _block_spans(*design.shape):
        A[:, lo:hi] = design.column_block(lo, hi)
    return A


def grid_slopes(lo, hi, step: float) -> SlopeSet:
    """Cartesian grid of slopes: per-dimension arithmetic progressions.

    Refuses grids larger than GRID_CAP: the grid count grows as
    ((hi-lo)/step + 1)^n, so beyond a few dimensions candidate slopes
    should come from gradient_slopes instead.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=np.float64))
    hi = np.atleast_1d(np.asarray(hi, dtype=np.float64))
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ShapeError("lo and hi must be 1-D with the same length")
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("grid corners must be finite")
    if np.any(hi < lo):
        raise ValueError("hi must be >= lo in every dimension")
    if not (step > 0 and math.isfinite(step)):
        raise ValueError("step must be positive and finite")
    with np.errstate(over="ignore"):
        spans = np.floor((hi - lo) / step + 1e-9)
    # Python ints: an int64 product wraps (2^64 -> 0) and slips past the cap;
    # a span that overflows to inf is past any cap
    total = math.prod(int(c) + 1 for c in spans) if np.isfinite(spans).all() else math.inf
    if total > GRID_CAP:
        raise ValueError(
            f"slope grid of {total} candidates exceeds cap {GRID_CAP}; "
            "use gradient_slopes to stay tractable in higher dimensions"
        )
    axes = [lo[d] + step * np.arange(int(c) + 1) for d, c in enumerate(spans)]
    # "ij" indexing varies the last axis fastest, the order of itertools.product
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, lo.size)
    return SlopeSet(grid, origin="grid")


def gradient_slopes(data: Dataset, k_neighbors: int | None = None) -> SlopeSet:
    """Candidate slopes from local least-squares gradient estimates.

    For each sample, an affine function is fit to its k nearest points
    (k defaults to 2n+1, an overdetermined fit with minimal smoothing) and
    the fitted gradient becomes a candidate slope.  Rank-deficient
    neighborhoods are skipped with a warning.  Near-duplicate gradients,
    equal to 10 significant digits (relative tolerance ~1e-9), are merged
    into the first of them.
    """
    n = data.dim
    m = len(data)
    if k_neighbors is None:
        k_neighbors = 2 * n + 1
    if k_neighbors < n + 1:
        raise ValueError(f"need at least {n + 1} neighbors to fit an affine function")
    if m <= n:
        raise ValueError("need more samples than dimensions")
    k = min(k_neighbors, m)
    from scipy.spatial import cKDTree  # imported here: its only user, and slow to load

    tree = cKDTree(data.x)
    _, idx = tree.query(data.x, k=k)
    slopes = []
    skipped = 0
    design = np.empty((k, n + 1))
    design[:, n] = 1.0
    for i in range(m):
        nb = idx[i]
        design[:, :n] = data.x[nb]
        # lstsq's rank uses matrix_rank's threshold, from its one SVD
        coef, _, rank, _ = np.linalg.lstsq(design, data.f[nb], rcond=None)
        if rank < n + 1:
            skipped += 1
            continue
        slopes.append(coef[:n])
    if skipped:
        warnings.warn(f"skipped {skipped} rank-deficient neighborhood(s)", stacklevel=2)
    if not slopes:
        raise ValueError("no usable gradient estimates (all neighborhoods degenerate)")
    # neighboring local fits give near-duplicates, expected and merged silently
    first: dict[tuple, np.ndarray] = {}
    for row in slopes:
        first.setdefault(tuple(f"{v + 0.0:.10e}" for v in row), row)  # + 0.0: -0.0 is 0.0
    return SlopeSet(np.array(list(first.values())), origin="gradients")


def fit(data: Dataset, slopes: SlopeSet, problem: FitProblem) -> PwlModel:
    """Fit intercepts by sparse max-plus solving; Infeasible propagates.

    A budget loose enough to be met by the empty support yields a model with
    every region pruned; its error fields stay None since there is nothing
    to evaluate.
    """
    (model,) = fit_path(data, slopes, [problem])
    if isinstance(model, Infeasible):
        raise model
    return model


def fit_path(data: Dataset, slopes: SlopeSet, problems: Iterable[FitProblem]) -> Iterator[PwlModel | Infeasible]:
    """Fit each problem in turn on one instance, yielding its model or its Infeasible.

    One GreedyState serves all problems.  It is built from the points and
    the slopes a block of columns at a time, so the m×K design matrix is
    never held; a design entry that overflows a float raises ValueError.
    Consecutive problems of one norm order share one GreedyPath,
    so a p-major list of budgets costs one greedy run per norm order.
    Problems are read lazily, so the next budget may depend on the models
    already yielded.
    """
    state = GreedyState(_Design(data, slopes), data.f)
    path = None
    for problem in problems:
        if path is None or path.p != problem.p:
            path = GreedyPath(state, problem.p)
        try:
            solution = path.solve(problem)
        except Infeasible as exc:
            # without its traceback the exception holds no frame, and so no state
            yield exc.with_traceback(None)
            continue
        model = PwlModel(
            slopes=slopes.slopes,
            intercepts=solution.x,
            p=problem.p,
            theta=problem.budget,
            estimator=solution.estimator,
        )
        if solution.support:
            s = score(model, data)
            model = replace(model, rms=s.rms, max_abs=s.max_abs)
        yield model


def evaluate(model: PwlModel, x) -> np.ndarray | float:
    """Model value max_k (a_k . x + b_k) over finite-intercept regions only."""
    finite = ~np.isneginf(model.intercepts)
    if not finite.any():
        raise ValueError("model has no active region (all intercepts pruned)")
    pts = np.asarray(x, dtype=np.float64)
    if model.dim == 1 and pts.ndim == 1 and pts.size != 1:
        pts = pts[:, np.newaxis]  # a 1-D model reads a flat array as a column of points
    single = pts.ndim <= 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != model.dim:
        raise ShapeError(f"points of dimension {pts.shape[1]} for a {model.dim}-D model")
    vals = (pts @ model.slopes[finite].T + model.intercepts[finite]).max(axis=1)
    return float(vals[0]) if single else vals


def score(model: PwlModel, data: Dataset) -> Score:
    """Root-mean-squared and max-absolute residuals plus active region count."""
    residual = data.f - evaluate(model, data.x)
    return Score(
        rms=float(np.sqrt(np.mean(residual**2))),
        max_abs=float(np.abs(residual).max()),
        support=model.support_size,
    )
