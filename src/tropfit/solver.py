"""Sparse approximate solving of max-plus equations A (max-plus) x = b.

Support selection is a set-search over the error functions

    e(T)   = b - max_{j in T} (A_j + xhat_j)        (elementwise; T != empty)
    e({})  = elementwise max over the singleton error vectors

with xhat the principal solution.  A greedy cover loop shrinks the
lp error below a budget; because the p-th-power error is decreasing and
supermodular for finite p, the greedy support carries a logarithmic
approximation-ratio certificate.  The l-infinity variant of the greedy
is shipped for comparison only: its error function is not even
approximately supermodular, so it carries no guarantee.

``GreedyState(A, b)`` is the read-only instance, xhat and the singleton
error vectors, built once per (A, b); ``GreedyPath(GreedyState(A, b), p)``
is one greedy run over it, and the run's only record: its picks and the
error of each prefix, which the certificate reads.  Every budget, norm
order and estimator on an instance shares the one build.

All lp errors are computed as norms (theta-domain) via max-scaling,
which survives norm orders as high as p = 150 without overflow; the
greedy argmin and the budget test are invariant under the monotone
root map.  Certificate arithmetic, which needs raw p-th powers, runs
in log-domain.

The state stores the singleton errors column-major, so each candidate
column is contiguous.  Each greedy pick (GreedyState.select_best) is the
exact argmin over the free columns, but it evaluates few norms in full.
Two lower bounds on each candidate's norm rule columns out first: its
max entry, which min and max compute without rounding, and a p-th-power
sum over the 64 rows with the largest error, shrunk by a bound on its
rounding.  The norms that remain are evaluated in batches, bit for bit
as pnorm evaluates one.  No pick builds an m×n array.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .tropical import (
    ShapeError,
    as_matrix,
    as_vector,
    principal_solution,
    project_on_support,
)

__all__ = [
    "Infeasible",
    "FitProblem",
    "SparseSolution",
    "GreedyState",
    "GreedyPath",
    "pnorm",
    "greedy_sparse_solve",
    "smmae_lift",
    "brute_force_oracle",
    "submodularity_ratio",
    "submodularity_probe",
    "ProbeReport",
]

SGLE = "sgle"
SMMAE = "smmae"


_CHUNK = 64  # rows per bound chunk of select_best, and columns per full-bound chunk
_FIRST_BLOCK, _LAST_BLOCK = 16, 128  # exact-norm block sizes: doubling, then capped


class Infeasible(Exception):
    """Even the full support cannot meet the error budget."""

    def __init__(self, message: str, full_support_error: float | None = None):
        super().__init__(message)
        self.full_support_error = full_support_error


def pnorm(v, p: float) -> float:
    """Overflow-safe lp norm of ``|v|``; ``p`` may be ``math.inf``.

    Scales by the largest magnitude M and evaluates M * (sum (v/M)^p)^(1/p),
    so high orders like p = 150 never overflow for finite input.  It is the
    one-row case of _row_norms, so a pick's batched norms and this one agree
    bit for bit.
    """
    a = np.abs(np.asarray(v, dtype=np.float64))
    if a.size == 0:
        return 0.0
    return float(_row_norms(a.reshape(1, -1), p)[0])


def _power_terms(rows: np.ndarray, top: np.ndarray, p: float) -> np.ndarray:
    """pnorm's scaled terms (r/M)^p, in place, for rows whose max M is given.

    Rows whose max is 0 or +inf are zeroed instead, so no division warns;
    returns the mask of the rows that were scaled.
    """
    scaled = (top > 0.0) & (top < math.inf)
    rows[~scaled] = 0.0
    rows /= np.where(scaled, top, 1.0)[:, np.newaxis]
    rows **= p
    return scaled


def _row_norms(rows: np.ndarray, p: float) -> np.ndarray:
    """pnorm of every row of a C-contiguous block of non-negative rows.

    Overwrites ``rows``.  Each row's power sum runs along the contiguous
    axis, and the root is taken on a Python float: M * (sum (r/M)^p)^(1/p),
    or M itself for p = inf or M = +inf, and 0.0 for an all-zero row.
    """
    top = rows.max(axis=1)
    if math.isinf(p):
        return top
    _power_terms(rows, top, p)
    root = 1.0 / p
    sums = rows.sum(axis=1).tolist()
    return np.array([m * s**root if 0.0 < m < math.inf else (m if m else 0.0) for m, s in zip(top.tolist(), sums)])


def _candidates(columns: np.ndarray, cols, cur_error: np.ndarray) -> np.ndarray:
    """The candidate errors min(cur_error, e({j})) of ``cols``, one row each."""
    block = columns[cols]
    return np.minimum(block, cur_error, out=block)


def _norm_floors(rows: np.ndarray, cols: np.ndarray, p: float) -> np.ndarray:
    """Lower bounds on the pnorm of every row of a block of non-negative rows.

    Each bound is the row's max M, the norm itself for p = inf; for finite p
    it is raised to M * (sum over ``cols`` of (r/M)^p)^(1/p).  Those terms are
    bit for bit the exact norm's (same division, same power), so only the
    rounding of the two sums and of the roots can part the subset's sum
    from the full one: the sum is shrunk by a bound on both summations'
    error and the root by a few ulps, which keeps every bound at or below
    the norm that _row_norms gives.
    """
    top = rows.max(axis=1)
    if math.isinf(p):
        return top
    part = rows[:, cols]
    scaled = _power_terms(part, top, p)
    sums = part.sum(axis=1) * (1.0 - (rows.shape[1] + cols.size) * 2.0**-48)
    return np.maximum(top, np.where(scaled, top, 0.0) * sums ** (1.0 / p) * (1.0 - 2.0**-45))


def _theta_norm(v, p: float) -> float:
    """theta-domain error of an error vector: ||v||_p, or half its max for p = inf."""
    if math.isinf(p):
        return 0.5 * float(v.max())
    return pnorm(v, p)


def _log_diff_exp(la: float, lb: float) -> float:
    """log(exp(la) - exp(lb)) for la >= lb; -inf when the difference underflows."""
    if lb == -math.inf:
        return la
    if la == math.inf:
        return math.inf
    if lb >= la:
        return -math.inf
    d = -math.expm1(lb - la)
    if d <= 0.0:
        return -math.inf
    return la + math.log(d)


@dataclass(frozen=True)
class FitProblem:
    """One sparse-solve instance: equation data, norm order, budget, estimator.

    Exactly one of ``theta`` (norm-domain budget) / ``epsilon`` (p-th-power
    budget, theta = epsilon**(1/p)) must be given; theta is canonical
    internally.  ``p`` is a finite order >= 1 or ``math.inf`` for the
    comparison-only l-infinity greedy.  Orders 0 < p < 1 are accepted with a
    warning: they void the norm axioms and the supermodularity guarantee and
    are supported as an experimental quasi-norm mode only.
    """

    A: np.ndarray | None
    b: np.ndarray | None
    p: float
    theta: float | None = None
    epsilon: float | None = None
    estimator: str = SGLE

    def __post_init__(self):
        if self.estimator not in (SGLE, SMMAE):
            raise ValueError(f"estimator must be '{SGLE}' or '{SMMAE}', got {self.estimator!r}")
        if not self.p > 0:
            raise ValueError(f"norm order must be positive, got {self.p}")
        if self.p < 1.0:
            warnings.warn(
                f"norm order p={self.p} < 1 is a quasi-norm: no supermodularity "
                "guarantee applies (experimental)",
                stacklevel=2,
            )
        if (self.theta is None) == (self.epsilon is None):
            raise ValueError("exactly one of theta/epsilon must be given")
        raw = self.theta if self.theta is not None else self.epsilon
        if not raw >= 0:
            raise ValueError("error budget must be non-negative")
        if self.A is not None:
            object.__setattr__(self, "A", as_matrix(self.A))
        if self.b is not None:
            b = as_vector(self.b)
            if not np.isfinite(b).all():
                raise ValueError("right-hand side b must be finite")
            object.__setattr__(self, "b", b)
        if self.A is not None and self.b is not None and self.A.shape[0] != self.b.shape[0]:
            raise ShapeError(
                f"matrix has {self.A.shape[0]} rows, vector has length {self.b.shape[0]}"
            )

    @property
    def budget(self) -> float:
        """Norm-domain threshold theta (for p = inf, epsilon and theta coincide)."""
        if self.theta is not None:
            return float(self.theta)
        eps = float(self.epsilon)
        if math.isinf(self.p):
            return eps
        if eps == 0.0:
            return 0.0
        return math.exp(math.log(eps) / self.p)

    def with_data(self, A, b) -> "FitProblem":
        return replace(self, A=A, b=b)


@dataclass(frozen=True)
class SparseSolution:
    """Solution vector with its support, residual statistics and certificate.

    ``support`` lists the picked columns in greedy order.  ``residual`` is
    the error vector e(T) of the selected support (signed after an SMMAE
    shift).  For the degenerate empty support, e({}) is the singleton-max
    vector of the set-search formulation, which is what the budget test in
    the greedy loop sees; b - A(max-plus)x itself would be +inf there.  The
    run's per-pick errors live in its GreedyPath.
    """

    x: np.ndarray
    support: tuple[int, ...]
    residual: np.ndarray
    error_p: float
    error_inf: float
    p: float
    estimator: str
    ratio_bound: float | None = None


class GreedyState:
    """The read-only instance the greedy works on: xhat and the singleton errors.

    Precomputes the principal solution xhat and the per-singleton error
    vectors e({j}) = b - (A_j + xhat_j), the one m×n array it keeps.  It is
    stored column-major, so each e({j}) is contiguous, and the build never
    holds a second m×n array besides A.  Plain addition makes
    no NaN: b is finite, and the principal solution refuses +inf in A and
    clamps it out of xhat.  Every candidate error e(T ∪ {s}) =
    min(e(T), e({s})) costs O(m).  Nothing in it changes after the build,
    so one state serves every budget, norm order, run and estimator on
    (A, b); a run's progress lives in its GreedyPath.
    """

    def __init__(self, A, b):
        A = np.asarray(A, dtype=np.float64)
        b = np.asarray(b, dtype=np.float64)
        self.xhat = principal_solution(A, b)  # validates A and b
        self.m, self.n = A.shape
        # b - (A_j + xhat_j) in one column-major buffer, so each column is
        # contiguous; rounding can push a contribution a hair above b, and
        # the error vector is non-negative, so clamp
        columns = np.empty((self.n, self.m))
        np.add(A.T, self.xhat[:, np.newaxis], out=columns)
        np.subtract(b, columns, out=columns)
        np.maximum(columns, 0.0, out=columns)
        columns.flags.writeable = False
        self.e0 = columns.T
        self.delta = float(self.e0.max())  # the certificate's largest singleton error
        self.xhat.flags.writeable = False

    def error_vector_of(self, T) -> np.ndarray:
        """e(T) for an arbitrary support set; e(empty) is the singleton max."""
        idx = np.asarray(sorted(set(int(j) for j in T)), dtype=np.intp)
        if idx.size and (idx[0] < 0 or idx[-1] >= self.n):
            raise ShapeError(f"support indices out of range for {self.n} columns")
        if idx.size == 0:
            return self.e0.max(axis=1)
        return self.e0[:, idx].min(axis=1)

    def error_norm_of(self, T, p: float) -> float:
        """theta-domain error of a support: ||e(T)||_p, halved for p = inf."""
        return _theta_norm(self.error_vector_of(T), p)

    def full_support_norm(self, p: float) -> float:
        return _theta_norm(self.e0.min(axis=1), p)

    def select_best(self, cur_error: np.ndarray, in_support: np.ndarray, p: float) -> int:
        """Argmin over columns outside ``in_support`` of the error after adding
        each to a support whose error is ``cur_error``; lowest index on ties.

        Column j's candidate error is c_j = min(cur_error, e({j})).  Two
        lower bounds on its norm let the scan evaluate few norms in full:

        * The max bound.  The max of c_j over any set of rows is at most
          ||c_j||_p, in floating point too: pnorm's scaled sum holds the
          term 1.0, so its root is at least 1.  Min and max do not round,
          so this bound is exact.
        * The power-sum bound.  For finite p, M * (sum over the seed rows of
          (c_j/M)^p)^(1/p), with M the max of c_j.  Its terms are the exact
          norm's, bit for bit, so it sits below the norm up to the rounding
          of two sums and two roots; _norm_floors shrinks it by a bound on
          that rounding.

        A column is dropped only when a bound is strictly above a norm that
        has been evaluated, so it can neither win nor tie.  The scan runs
        in three steps:

        * Seed.  The max bound over the 64 rows with the largest current
          error picks one column, whose exact norm t is evaluated.  Only a
          row with cur_error > t can push a bound above t, so those hot
          rows are swept in 64-row chunks, and each drops every column
          whose bound exceeds t.
        * Survivors.  Their full max bounds, raised by the power-sum bound,
          come from their contiguous columns, 64 at a time.  For p = inf
          the full max is the norm, and the scan ends here.
        * Blocks.  Exact norms are evaluated in ascending-bound blocks of
          16, 32, 64 and then 128 columns, and the scan stops at a block
          whose smallest bound is above the best norm.

        No m×n array is built: the largest transient is n×64 or 128×m.
        """
        columns = self.e0.T  # n×m, C-contiguous: one row per candidate column
        order = np.argsort(-cur_error, kind="stable")
        seed = np.sort(order[:_CHUNK])
        part = columns[:, seed]
        np.minimum(part, cur_error[seed], out=part)
        bound = part.max(axis=1)
        del part
        free = np.flatnonzero(~in_support)
        s = int(free[np.argmin(bound[free])])
        t = float(_row_norms(_candidates(columns, [s], cur_error), p)[0])

        alive = free[bound[free] <= t]
        hot = order[_CHUNK : np.count_nonzero(cur_error > t)]
        for start in range(0, hot.size, _CHUNK):
            rows = np.sort(hot[start : start + _CHUNK])
            part = columns[alive[:, np.newaxis], rows]
            np.minimum(part, cur_error[rows], out=part)
            alive = alive[part.max(axis=1) <= t]

        floor = np.empty(alive.size)
        for start in range(0, alive.size, _CHUNK):
            chunk = alive[start : start + _CHUNK]
            floor[start : start + _CHUNK] = _norm_floors(_candidates(columns, chunk, cur_error), seed, p)
        if math.isinf(p):
            return int(alive[np.argmin(floor)])  # alive is ascending

        by_floor = np.argsort(floor, kind="stable")
        alive, floor = alive[by_floor], floor[by_floor]
        best, best_j = t, s
        start, size = 0, _FIRST_BLOCK
        while start < alive.size and floor[start] <= best:
            cols = alive[start : start + size]
            norms = _row_norms(_candidates(columns, cols, cur_error), p)
            low = norms.min()
            j = int(cols[norms == low].min())
            if low < best or (low == best and j < best_j):
                best, best_j = low, j
            start += size
            size = min(2 * size, _LAST_BLOCK)
        return best_j


def _certificate_from(m: int, delta: float, p: float, theta: float, prev_norm: float) -> float:
    """Greedy cover ratio bound 1 + log((m Delta^p - eps) / (E_p(T_{k-1}) - eps)).

    Evaluated in log-domain; +inf when the denominator difference underflows.
    """
    if delta <= 0.0 or prev_norm <= 0.0:
        return math.inf
    log_eps = -math.inf if theta == 0.0 else p * math.log(theta)
    log_num = _log_diff_exp(math.log(m) + p * math.log(delta), log_eps)
    log_den = _log_diff_exp(p * math.log(prev_norm), log_eps)
    if not (math.isfinite(log_num) and math.isfinite(log_den)):
        # denominator underflow, or infinite errors from -inf matrix entries:
        # nothing can be certified
        return math.inf
    return 1.0 + (log_num - log_den)


def _finalize(
    state: GreedyState,
    support: tuple[int, ...],
    problem: FitProblem,
    ratio_bound: float | None,
) -> SparseSolution:
    x = project_on_support(state.xhat, support)
    residual = state.error_vector_of(support)
    err_p = pnorm(residual, problem.p)
    solution = SparseSolution(
        x=x,
        support=support,
        residual=residual,
        error_p=err_p,
        error_inf=float(np.abs(residual).max()),
        p=problem.p,
        estimator=SGLE,
        ratio_bound=ratio_bound,
    )
    if problem.estimator == SMMAE:
        solution = smmae_lift(solution)
    return solution


def _infeasible(full: float, budget: float) -> Infeasible:
    return Infeasible(f"full support error {full:.6g} exceeds budget {budget:.6g}", full_support_error=full)


class GreedyPath:
    """One greedy run on an instance at norm order ``p``, serving every budget.

    The run owns its progress: the error vector of the support picked so
    far, the picks, and each prefix's error; the instance is the shared,
    read-only ``state``.  The greedy's pick never depends on the budget,
    which only decides when to stop, so the support at a budget is the
    shortest prefix of the run whose error meets it.  The run advances only
    as far as the tightest budget asked so far; budgets may come in any
    order, and each answer equals an independent solve at that budget.  For
    p = inf the variant is a comparison heuristic with no guarantee.

    The run is its own record: ``selected`` holds the picks in order, and
    ``errors`` the theta-domain error of each prefix, E(empty), E(T_1),
    E(T_2), ..., one longer than ``selected``.  A solution with k columns
    has support ``selected[:k]``; its budget test read ``errors[k]``, and
    its ratio certificate is computed from ``errors[k - 1]``.
    """

    def __init__(self, state: GreedyState, p: float):
        if math.isinf(p):
            warnings.warn(
                "the l-infinity greedy has no approximation guarantee and can be "
                "arbitrarily far from the sparsest support",
                stacklevel=2,
            )
        self.p = p
        self.state = state
        self.full_norm = state.full_support_norm(p)
        self.cur_error = state.error_vector_of([])
        self.selected: list[int] = []
        self._in_support = np.zeros(state.n, dtype=bool)
        self.errors = [_theta_norm(self.cur_error, p)]

    def solve(self, problem: FitProblem) -> SparseSolution:
        """The greedy solution at ``problem``'s budget and estimator (its data is ignored)."""
        p = self.p
        if problem.p != p:
            raise ValueError(f"problem has norm order {problem.p}, the path {p}")
        budget = problem.budget
        if self.full_norm > budget:
            raise _infeasible(self.full_norm, budget)
        state = self.state
        k = 0
        while self.errors[k] > budget and k < state.n:
            k += 1
            if k == len(self.errors):
                j = state.select_best(self.cur_error, self._in_support, p)
                self.cur_error = np.minimum(self.cur_error, state.e0[:, j])
                self.selected.append(j)
                self._in_support[j] = True
                # the error of the updated support, so the recorded error,
                # the budget test and the final error_p share one arithmetic path
                self.errors.append(_theta_norm(self.cur_error, p))
        support = tuple(self.selected[:k])
        bound = None
        if not math.isinf(p) and support:
            bound = _certificate_from(state.m, state.delta, p, budget, self.errors[k - 1])
        return _finalize(state, support, problem, bound)


def greedy_sparse_solve(problem: FitProblem) -> SparseSolution:
    """Greedy minimum-support cover of the lp error budget (Infeasible if none).

    Infeasible is raised exactly when the full support misses the budget.
    Otherwise the returned support satisfies the budget in theta-domain and
    the solution never overshoots b (lateness).  Ties in the greedy argmin
    go to the lowest column index, so identical inputs replay identically.
    For finite p a ratio certificate is attached; for p = inf the variant is
    a comparison heuristic with no guarantee.  Many budgets on one instance
    share one run through GreedyPath, and many runs one GreedyState.
    """
    if problem.A is None or problem.b is None:
        raise ValueError("problem carries no equation data; use with_data(A, b)")
    return GreedyPath(GreedyState(problem.A, problem.b), problem.p).solve(problem)


def smmae_lift(sgle: SparseSolution) -> SparseSolution:
    """Shift every finite coordinate up by half the max residual.

    The shifted vector is the minimum-max-absolute-error solution on the same
    support: its l-infinity error is exactly half the input's.  With an empty
    support there is nothing to shift and the solution is returned with only
    the estimator label changed.
    """
    if sgle.estimator != SGLE:
        raise ValueError("smmae_lift expects an SGLE solution")
    if not sgle.support:
        return replace(sgle, estimator=SMMAE)
    shift = 0.5 * sgle.error_inf
    x = sgle.x.copy()
    finite = ~np.isneginf(x)
    x[finite] += shift
    residual = sgle.residual - shift
    return replace(
        sgle,
        x=x,
        residual=residual,
        error_p=pnorm(residual, sgle.p),
        error_inf=float(np.abs(residual).max()),
        estimator=SMMAE,
    )


def brute_force_oracle(problem: FitProblem, max_columns: int = 20) -> SparseSolution:
    """Exact minimum-support solution by exhaustive support enumeration.

    Independent verifier for the greedy: walks supports in order of
    increasing cardinality (lexicographic within) and returns the first that
    meets the budget, which is optimal.  Infeasible is raised before any
    walk, by the greedy's rule: the full support misses the budget.
    Refuses n > ``max_columns``.
    """
    if problem.A is None or problem.b is None:
        raise ValueError("problem carries no equation data; use with_data(A, b)")
    state = GreedyState(problem.A, problem.b)
    if state.n > max_columns:
        raise ValueError(f"brute force refused: {state.n} columns > cap {max_columns}")
    p = problem.p
    budget = problem.budget
    full = state.full_support_norm(p)
    if full > budget:
        raise _infeasible(full, budget)
    # the full support meets the budget, so the walk ends by size n
    T = next(
        T
        for size in range(state.n + 1)
        for T in itertools.combinations(range(state.n), size)
        if state.error_norm_of(T, p) <= budget
    )
    return _finalize(state, T, problem, None)


def _log_power_drop(norm_hi: float, norm_lo: float, p: float) -> float:
    """log of E(small) - E(large) in p-th-power domain, from theta-domain norms."""
    if norm_hi <= 0.0:
        return -math.inf
    la = p * math.log(norm_hi)
    lb = -math.inf if norm_lo <= 0.0 else p * math.log(norm_lo)
    return _log_diff_exp(la, lb)


def submodularity_ratio(A, b, p: float, L, S) -> float:
    """Empirical submodularity ratio of the (negated) error function at (L, S).

    sum_{x in S} [E(L) - E(L ∪ {x})] over [E(L) - E(L ∪ S)], with E in
    p-th-power domain for finite p (log-domain arithmetic) and the halved
    max-error for p = inf.  Returns inf when the denominator vanishes.
    """
    return _submodularity_ratio(GreedyState(A, b), p, L, S)


def _submodularity_ratio(state: GreedyState, p: float, L, S) -> float:
    L = sorted(set(int(i) for i in L))
    S = sorted(set(int(i) for i in S))
    if set(L) & set(S) or not S:
        raise ValueError("S must be non-empty and disjoint from L")
    base = state.error_norm_of(L, p)
    if math.isinf(base):
        return math.nan  # an uncoverable row leaves every drop undefined
    if math.isinf(p):
        num = sum(base - state.error_norm_of(L + [x], p) for x in S)
        den = base - state.error_norm_of(L + S, p)
        return num / den if den > 0.0 else math.inf
    drops = [_log_power_drop(base, state.error_norm_of(L + [x], p), p) for x in S]
    finite = [d for d in drops if d > -math.inf]
    log_num = -math.inf
    if finite:
        top = max(finite)
        log_num = top + math.log(sum(math.exp(d - top) for d in finite))
    log_den = _log_power_drop(base, state.error_norm_of(L + S, p), p)
    if log_den == -math.inf:
        return math.inf
    return math.exp(log_num - log_den)


@dataclass
class ProbeReport:
    """Outcome of randomized supermodularity / monotonicity sampling."""

    p: float
    trials: int
    supermodular_violations: int = 0
    monotonicity_violations: int = 0
    worst_margin: float = 0.0
    min_ratio: float | None = None
    ratio_samples: int = 0


_REL_TOL = 1e-9
_LOG_NOISE_FLOOR = math.log(1e-12)


def submodularity_probe(A, b, p: float, trials: int, rng=None) -> ProbeReport:
    """Sample (C ⊆ B, k ∉ B) triples and check the supermodular inequality.

    For finite p the inequality E(C ∪ {k}) - E(C) <= E(B ∪ {k}) - E(B) and
    monotonicity E(B) <= E(C) are checked in p-th-power domain (log-domain
    comparison, relative slack 1e-9); violations are counted.  For p = inf
    the probe instead estimates the submodularity ratio: it samples disjoint
    (L, S) pairs and reports the minimum ratio observed.
    """
    rng = np.random.default_rng(rng)
    state = GreedyState(A, b)
    n = state.n
    report = ProbeReport(p=p, trials=trials)
    if math.isinf(p):
        report.min_ratio = math.inf
        for _ in range(trials):
            perm = rng.permutation(n)
            ls = int(rng.integers(0, n))  # |L| in [0, n-1]
            ss = int(rng.integers(1, n - ls + 1))
            L, S = perm[:ls], perm[ls : ls + ss]
            base = state.error_norm_of(L, p)
            joint = state.error_norm_of(np.concatenate([L, S]), p)
            if not base - joint > 0.0:
                continue
            ratio = _submodularity_ratio(state, p, L, S)
            report.ratio_samples += 1
            if ratio < report.min_ratio:
                report.min_ratio = ratio
        return report
    for _ in range(trials):
        perm = rng.permutation(n)
        bs = int(rng.integers(0, n))  # |B| in [0, n-1], leaving room for k
        B = sorted(int(i) for i in perm[:bs])
        k = int(perm[bs])
        C = sorted(int(i) for i in rng.permutation(B)[: int(rng.integers(0, bs + 1))]) if bs else []
        nC = state.error_norm_of(C, p)
        nCk = state.error_norm_of(C + [k], p)
        nB = state.error_norm_of(B, p)
        nBk = state.error_norm_of(sorted(B + [k]), p)
        if nB > nC * (1.0 + _REL_TOL) or nCk > nC * (1.0 + _REL_TOL) or nBk > nB * (1.0 + _REL_TOL):
            report.monotonicity_violations += 1
        drop_c = _log_power_drop(nC, nCk, p)
        drop_b = _log_power_drop(nB, nBk, p)
        # supermodularity: the marginal drop shrinks as the context grows.
        # Drops below ~1e-12 of the error scale are cancellation noise (the
        # theta-domain norm cannot resolve finer p-th-power differences), so
        # the slack is taken relative to E(C), the largest value involved.
        floor = -math.inf if nC <= 0.0 else p * math.log(nC) + _LOG_NOISE_FLOOR
        if drop_b > np.logaddexp(drop_c, floor):
            report.supermodular_violations += 1
            report.worst_margin = max(report.worst_margin, drop_b - drop_c)
    return report
