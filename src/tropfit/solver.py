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
order, estimator and check on an instance (brute_force_oracle,
submodularity_ratio, submodularity_probe) shares the one build.  A may be
a design that hands out its columns a block at a time, as a fit's does:
the build then never holds the design matrix, only e0 and one block.

All lp errors are computed as norms (theta-domain) via max-scaling,
which survives norm orders as high as p = 150 without overflow; the
greedy argmin and the budget test are invariant under the monotone
root map.  Certificate arithmetic, which needs raw p-th powers, runs
in log-domain.

The state stores the singleton errors column-major, so each candidate
column is contiguous.  Each greedy pick (GreedyState.select_best) is the
exact argmin over the free columns, but it evaluates few norms in full.
Three lower bounds on each candidate's norm rule columns out first: its
max entry, which min and max compute without rounding; a p-th-power sum
over the 16 rows with the largest error; and, for finite p, the run's
stale gain, the column's drop at an earlier prefix, which supermodularity
makes an upper bound on its drop now (Minoux's accelerated greedy).  The
last two are shrunk by a bound on their rounding.  The pick is one pass
over blocks of columns in ascending order of a cheap bound, which stops at
a block whose first bound is above the best norm; a block's norms are
evaluated in a batch, bit for bit as pnorm evaluates one.  A run
carries its stale gains and its seed rows' block of e0 from one pick to
the next, at most 16×n + n floats; no pick builds an m×n array.
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import KW_ONLY, dataclass, replace

import numpy as np

from .tropical import ShapeError, principal_solution, project_on_support

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
BRUTE_FORCE_CAP = 20  # brute_force_oracle refuses more columns: it walks up to 2^n supports


_CHUNK = 16  # seed rows: the largest-error rows that select_best's cheap bounds read
_FIRST_BLOCK, _LAST_BLOCK = 16, 128  # exact-norm block sizes: doubling, then capped
_SUBNORMAL_ULP = 2.0**-1074  # the spacing of floats below 2^-1022
_BUILD_BLOCK = 2**15  # entries per column block of a design's instance build: about 256 KB


class Infeasible(Exception):
    """Even the full support cannot meet the error budget."""

    def __init__(self, message: str, full_support_error: float | None = None):
        super().__init__(message)
        self.full_support_error = full_support_error


def _check_norm_order(p: float) -> None:
    if not p > 0:  # NaN fails too; math.inf passes
        raise ValueError(f"norm order must be positive, got {p}")


def pnorm(v, p: float) -> float:
    """Overflow-safe lp norm of ``|v|``; ``p`` may be ``math.inf``.

    Scales by the largest magnitude M and evaluates M * (sum (v/M)^p)^(1/p),
    so high orders like p = 150 never overflow for finite input.  It is the
    one-row case of _row_norms, so a pick's batched norms and this one agree
    bit for bit.  Raises ValueError unless p > 0.
    """
    _check_norm_order(p)
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


class _PickMemo:
    """What one greedy run's picks learn for its next picks; at most 16×n + n floats.

    A memo belongs to one run on one GreedyState at one norm order: between
    two calls the support only grows, so cur_error only falls.

    * The seed block.  ``block`` holds the singleton errors e0[rows, :] of
      the last pick's 16 seed rows (_CHUNK), one C-contiguous row per seed
      row, so a pick gathers from e0 only the rows new to its seed.  The
      entries are copies of e0, so the bounds read from them do not change.
    * Stale gains (finite p).  In units of the run's ``scale`` S, the max
      error at the first pick where it is finite and positive, E(T) =
      sum_i (cur_i/S)^p, and column j's drop at prefix T is
      g_j(T) = E(T) − (||c_j(T)||/S)^p = sum_i max(cur_i^p − e0_ij^p, 0)/S^p.
      Each row's term only shrinks as cur_i falls, so g_j(T) >= g_j(T') for
      every later prefix T' and every p > 0, and
      ||c_j(T')|| >= S (E(T') − g_j(T))^(1/p).  ``gains`` holds, for each
      column whose exact norm was evaluated, an upper bound on its drop
      at that evaluation, and +inf for the others.

    The rounding argument (u = 2^-53; every power, numpy's or the root's,
    is taken as accurate to 16 ulps, 2^-48 relative, well above what libm's
    pow and numpy's vectorized power are accurate to): each term
    fl(fl(x/S)^p) is within (1 + u)^p (1 + 2^-48) − 1 <= 2pu + 2^-48 of
    (x/S)^p, or within beta_t = 2^(1−1022p) + 2^-1072 where the quotient or
    the power falls below the normal range; a sum of m non-negative terms
    adds 2mu relative in any order.  pnorm's sum has the same error and is
    at least 1, so its norm is within (1 + k1)^(1/p) (1 + 2^-48) (1 + u) of
    the real one, k1 = 2(p + m)u + 2^-48 + m beta_t, and raising it to the
    p-th power costs another p (2^-48 + u).  A norm below 2^-1022 is also
    off by up to half the subnormal spacing 2^-1074, and so is a floor.
    ``margin`` = (4p + m + 64) 2^-48 + 2m beta_t covers the relative errors
    with room for the few roundings of the bound's own evaluation, and
    ``slack`` = (m + 2) beta_t the underflowed terms.  So a gain is
    recorded as E(T) (1 + margin) + slack − ((N − 2^-1074)/S)^p (1 − margin),
    which is at least the real drop, and the floor is
    S (E(T') (1 − margin) − slack − g)^(1/p) (1 − margin)^(1/p) (1 − 2^-46)
    − 2^-1074, evaluated with S last, which is at most the norm pnorm gives
    at T'.  No gain is recorded and no floor taken for p = inf, where E is
    not finite, and where ``margin`` is not below 2^-10, so that these
    first-order bounds hold: p of 2^36 or more, or p below about 0.03 at
    m = 1000.
    """

    def __init__(self, p: float, n: int):
        self.p, self.n = p, n
        self.rows = np.empty(0, dtype=np.intp)
        self.block = np.empty((0, n))
        self.gains: np.ndarray | None = None  # set with the scale
        self.scale = self.margin = self.slack = self.shrink = 0.0

    def seed_bounds(self, e0: np.ndarray, seed: np.ndarray, cur_error: np.ndarray) -> np.ndarray:
        """Max of min(cur_error, e({j})) over the ``seed`` rows, for every column j."""
        if self.rows.size != seed.size:
            self.rows = np.sort(seed)
            self.block = np.ascontiguousarray(e0[self.rows])
        else:
            incoming = np.zeros(e0.shape[0], dtype=bool)
            incoming[seed] = True
            slots = np.flatnonzero(~incoming[self.rows])  # rows that left the seed
            if slots.size:
                incoming[self.rows] = False
                self.rows[slots] = np.flatnonzero(incoming)
                self.block[slots] = e0[self.rows[slots]]
        return np.minimum(self.block, cur_error[self.rows][:, np.newaxis]).max(axis=0)

    def power(self, cur_error: np.ndarray) -> float:
        """E(T) in units of the run's scale, or NaN where no gain can be used."""
        p = self.p
        if self.gains is None:
            top = float(cur_error.max())
            if math.isinf(p) or not 0.0 < top < math.inf:
                return math.nan
            m = cur_error.size
            tiny = 2.0 ** (1.0 - 1022.0 * p) + 2.0**-1072
            self.margin = (4.0 * p + m + 64.0) * 2.0**-48 + 2.0 * m * tiny
            if not self.margin < 2.0**-10:
                return math.nan
            self.scale, self.slack = top, (m + 2.0) * tiny
            self.shrink = (1.0 - self.margin) ** (1.0 / p) * (1.0 - 2.0**-46)
            self.gains = np.full(self.n, math.inf)
        terms = cur_error / self.scale
        terms **= p
        return float(terms.sum())

    def floors(self, power: float) -> np.ndarray | None:
        """Every column's stale-gain floor on its norm (0 where none is known), or None."""
        if not math.isfinite(power):
            return None
        rest = np.subtract(power * (1.0 - self.margin) - self.slack, self.gains)
        np.maximum(rest, 0.0, out=rest)
        rest **= 1.0 / self.p
        rest *= self.shrink
        rest *= self.scale
        rest -= _SUBNORMAL_ULP
        np.maximum(rest, 0.0, out=rest)
        rest[~np.isfinite(rest)] = 0.0
        return rest

    def learn(self, cols, norms: np.ndarray, power: float) -> None:
        """Record the drops of ``cols``, whose exact norms at this prefix are ``norms``."""
        if not math.isfinite(power):
            return
        lost = np.maximum(norms - _SUBNORMAL_ULP, 0.0)
        lost /= self.scale
        lost **= self.p
        gains = power * (1.0 + self.margin) + self.slack - lost * (1.0 - self.margin)
        gains[~np.isfinite(gains)] = math.inf
        self.gains[cols] = gains


def _theta_norm(v, p: float) -> float:
    """theta-domain error of an error vector: ||v||_p, or half its max for p = inf."""
    if p == math.inf:  # any other order goes through pnorm's check
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

    ``A`` and ``b`` are carried as given and checked by the one solve that
    reads them: greedy_sparse_solve builds a GreedyState, whose
    tropical.principal_solution raises for an invalid (A, b).  Everything
    else takes the GreedyState itself and ignores the data, so a problem for
    a GreedyPath, brute_force_oracle or a fit leaves them out:
    ``FitProblem(p=2, theta=1.0)``.  Every field after ``b`` is keyword-only.
    """

    A: np.ndarray | None = None
    b: np.ndarray | None = None
    _: KW_ONLY
    p: float
    theta: float | None = None
    epsilon: float | None = None
    estimator: str = SGLE

    def __post_init__(self):
        if self.estimator not in (SGLE, SMMAE):
            raise ValueError(f"estimator must be '{SGLE}' or '{SMMAE}', got {self.estimator!r}")
        _check_norm_order(self.p)
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
        try:
            return math.exp(math.log(eps) / self.p)
        except OverflowError:
            # eps**(1/p), for p < 1, is above every float: every finite error
            # meets this budget, and an infinite one, which inf would admit,
            # still misses it
            return sys.float_info.max


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


def _block_spans(m: int, n: int) -> list[tuple[int, int]]:
    """Column spans of about _BUILD_BLOCK entries of an m×n design, in order.

    No span is a single column unless n = 1: a one-column block is a
    matrix-vector product, which BLAS may round differently from the
    columns of a matrix product.
    """
    width = max(_BUILD_BLOCK // m, 2)
    edges = list(range(0, n, width)) + [n]
    if len(edges) > 2 and n - edges[-2] == 1:
        del edges[-2]
    return list(zip(edges[:-1], edges[1:]))


def _singleton_errors(a: np.ndarray, xhat: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    """max(b - (a_j + xhat_j), 0) into row j of ``out``, for every column j of ``a``.

    Rounding can push a contribution a hair above b, and the error vector
    is non-negative, so it is clamped.
    """
    with np.errstate(over="ignore"):  # an error above the largest float is +inf
        try:
            with np.errstate(over="raise"):
                np.add(a.T, xhat[:, np.newaxis], out=out)
            np.subtract(b, out, out=out)
        except FloatingPointError:
            # a_ij + xhat_j ran below -max for finite terms; those entries take
            # the order (b_i - a_ij) - xhat_j, whose first step cannot overflow
            np.add(a.T, xhat[:, np.newaxis], out=out)
            j, i = np.nonzero(np.isneginf(out) & np.isfinite(a.T) & np.isfinite(xhat)[:, np.newaxis])
            np.subtract(b, out, out=out)
            out[j, i] = (b[i] - a[i, j]) - xhat[j]
    np.maximum(out, 0.0, out=out)


class GreedyState:
    """The read-only instance the greedy works on: xhat and the singleton errors.

    Precomputes the principal solution xhat and the per-singleton error
    vectors e({j}) = b - (A_j + xhat_j), the one m×n array it keeps.  It is
    stored column-major, so each e({j}) is contiguous.  Plain addition makes
    no NaN: b is finite, and the principal solution refuses +inf in A and
    clamps it out of xhat.  Every candidate error e(T ∪ {s}) =
    min(e(T), e({s})) costs O(m).  The build also keeps three row
    reductions of e0 that every run reads: ``empty_error`` = e(empty), the
    row max; ``full_error``, the full support's error, the row min; and
    ``delta``, the certificate's largest singleton error.  Nothing in it
    changes after the build, so one state serves every budget, norm order,
    run and estimator on (A, b); a run's progress lives in its GreedyPath.

    ``A`` is a matrix, or a design: an object with a ``shape`` (m, n) and a
    ``column_block(lo, hi)`` method that returns columns lo:hi of the
    matrix, as regression's fits pass.  Every entry of xhat and e0 depends
    only on its own column, so the build is one loop over column blocks:
    each block's principal solution, its columns of e0 and its part of the
    row reductions are taken while the block is in cache, and then the
    block is let go.  A design comes in blocks of about _BUILD_BLOCK
    entries, so the build never holds its m×n matrix; a matrix is one
    block, whose xhat is taken before e0 is allocated, so besides A the
    build holds one m×n array at a time.
    """

    def __init__(self, A, b):
        if hasattr(A, "column_block"):
            spans, block = _block_spans(*A.shape), A.column_block
        else:
            A = np.asarray(A, dtype=np.float64)
            spans, block = [(0, None)], lambda lo, hi: A
        columns = None
        for lo, hi in spans:
            a = block(lo, hi)
            part = principal_solution(a, b)  # validates the block and b
            if columns is None:
                b = np.asarray(b, dtype=np.float64)
                self.m, self.n = A.shape
                xhat, columns = np.empty(self.n), np.empty((self.n, self.m))
            xhat[lo:hi] = part
            out = columns[lo:hi]  # this block's e0 columns, C-contiguous
            _singleton_errors(a, part, b, out)
            top, low = out.max(axis=0), out.min(axis=0)
            if lo == 0:
                empty, full = top, low
            else:
                np.maximum(empty, top, out=empty)
                np.minimum(full, low, out=full)
        for v in (xhat, columns, empty, full):
            v.flags.writeable = False
        self.xhat, self.e0 = xhat, columns.T
        self.empty_error, self.full_error = empty, full
        self.delta = float(empty.max())

    def error_vector_of(self, T) -> np.ndarray:
        """e(T) for an arbitrary support set; e(empty) is the singleton max."""
        idx = np.asarray(sorted(set(int(j) for j in T)), dtype=np.intp)
        if idx.size and (idx[0] < 0 or idx[-1] >= self.n):
            raise ShapeError(f"support indices out of range for {self.n} columns")
        if idx.size == 0:
            return self.empty_error.copy()
        return self.e0[:, idx].min(axis=1)

    def error_norm_of(self, T, p: float) -> float:
        """theta-domain error of a support: ||e(T)||_p, halved for p = inf."""
        return _theta_norm(self.error_vector_of(T), p)

    def full_support_norm(self, p: float) -> float:
        return _theta_norm(self.full_error, p)

    def select_best(
        self, cur_error: np.ndarray, in_support: np.ndarray, p: float, memo: _PickMemo | None = None
    ) -> int:
        """Argmin over columns outside ``in_support`` of the error after adding
        each to a support whose error is ``cur_error``; lowest index on ties.

        Column j's candidate error is c_j = min(cur_error, e({j})).  Three
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
        * The stale-gain bound.  For finite p, the p-th-power error is
          supermodular, so a column's drop E(T) − ||c_j(T)||^p, recorded
          when its exact norm was evaluated at an earlier prefix T of the
          same run, bounds its drop now from above (Minoux's accelerated
          greedy).  _PickMemo keeps the drops and shrinks the bound by a
          bound on its rounding.

        A column is dropped only when a bound is strictly above a norm that
        has been evaluated, so it can neither win nor tie, and the pick is
        the eager scan's whatever the memo holds.  The scan is one pass, as
        in Minoux's accelerated greedy and CELF's lazy evaluation (Leskovec
        et al. 2007).  The free columns are sorted, stably, by a cheap bound:
        the larger of the max bound over the 16 rows with the largest error
        and the stale-gain bound.  They are visited in blocks of 16, 32, 64
        and then 128, and the scan stops at a block whose first bound is
        above the best norm found.  Each block's candidate errors are
        gathered once; once a finite norm is known, the block's full max,
        power-sum and stale-gain bounds drop what they can before the exact
        norms of the rest are evaluated.  The best starts at +inf with
        column n, which loses every tie, so a block of +inf norms still
        picks its lowest index.  p = inf runs the same pass.

        ``memo`` carries the seed rows' block of e0 and the stale gains
        from one pick of a run to the next (GreedyPath keeps one per run),
        so a pick gathers only the seed rows that are new.  Without one,
        the pick starts from a fresh memo, which knows no gain.  No m×n
        array is built: the largest transient is 16×n or 128×m, and a memo
        holds at most 16×n + n floats.
        """
        if memo is None:
            memo = _PickMemo(p, self.n)
        elif (memo.p, memo.n) != (p, self.n):
            raise ValueError(f"memo of a run at norm order {memo.p} on {memo.n} columns, asked for {p} on {self.n}")
        columns = self.e0.T  # n×m, C-contiguous: one row per candidate column
        order = np.argsort(-cur_error, kind="stable")
        bound = memo.seed_bounds(self.e0, order[:_CHUNK], cur_error)
        seed = np.sort(memo.rows)
        power = memo.power(cur_error)
        stale = memo.floors(power)
        free = np.flatnonzero(~in_support)
        bound = bound[free]
        if stale is not None:
            np.maximum(bound, stale[free], out=bound)
        by_bound = np.argsort(bound, kind="stable")
        free, bound = free[by_bound], bound[by_bound]

        best, best_j = math.inf, self.n
        start, size = 0, _FIRST_BLOCK
        while start < free.size and bound[start] <= best:
            cols = free[start : start + size]
            cand = _candidates(columns, cols, cur_error)
            if best < math.inf:
                # the seed rows' max is at most the full max, so this adds the stale floor
                keep = np.maximum(_norm_floors(cand, seed, p), bound[start : start + size]) <= best
                cols, cand = cols[keep], cand[keep]
            if cols.size:
                norms = _row_norms(cand, p)
                memo.learn(cols, norms, power)
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
    log_den = _log_power_drop(prev_norm, theta, p)
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
    far, the picks, each prefix's error, and the memo its picks pass on to
    the next (stale gains and the seed block, see _PickMemo); the instance
    is the shared, read-only ``state``.  The greedy's pick never depends on
    the budget, which only decides when to stop, so the support at a budget
    is the shortest prefix of the run whose error meets it.  The run
    advances only as far as the tightest budget asked so far; budgets may
    come in any order, and each answer equals an independent solve at that
    budget.  For p = inf the variant is a comparison heuristic with no
    guarantee.

    The run is its own record: ``selected`` holds the picks in order, and
    ``errors`` the theta-domain error of each prefix, E(empty), E(T_1),
    E(T_2), ..., one longer than ``selected``.  A solution with k columns
    has support ``selected[:k]``; its budget test read ``errors[k]``, and
    its ratio certificate is computed from ``errors[k - 1]``.
    """

    def __init__(self, state: GreedyState, p: float):
        self.full_norm = state.full_support_norm(p)  # raises first for an invalid p
        if math.isinf(p):
            warnings.warn(
                "the l-infinity greedy has no approximation guarantee and can be "
                "arbitrarily far from the sparsest support",
                stacklevel=2,
            )
        self.p = p
        self.state = state
        self.cur_error = state.empty_error  # read-only: each pick binds a new vector
        self.selected: list[int] = []
        self._in_support = np.zeros(state.n, dtype=bool)
        self._memo = _PickMemo(p, state.n)
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
                j = state.select_best(self.cur_error, self._in_support, p, self._memo)
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
    Otherwise the returned support satisfies the budget in theta-domain and,
    in exact arithmetic, the solution never overshoots b (lateness); in
    floats A ⊞ x can exceed b_i by one rounding.  Ties in the greedy argmin
    go to the lowest column index, so identical inputs replay identically.
    For finite p a ratio certificate is attached; for p = inf the variant is
    a comparison heuristic with no guarantee.  Many budgets on one instance
    share one run through GreedyPath, and many runs one GreedyState.
    """
    return GreedyPath(GreedyState(problem.A, problem.b), problem.p).solve(problem)


def smmae_lift(sgle: SparseSolution) -> SparseSolution:
    """Shift every finite coordinate up by h = fl(e / 2), half the max residual e.

    The shifted vector is the minimum-max-absolute-error solution on the same
    support: its l-infinity error is exactly e / 2 wherever e / 2 is a float.
    At an odd number of 2^-1074 units no float is e / 2, and the error is
    max(h, e - h), one unit above fl(e / 2) or at it.  The reported residual
    and errors are those of sgle.residual - h, the shift in exact arithmetic,
    not recomputed from x: where |x_j| is far above h, x_j + h rounds back to
    x_j.  So A = [[20, -inf], [-inf, 20]], b = [1e-300, 1e-300] reports
    error_inf 5e-301 for an x, [-20, -20] as before, that leaves 1e-300.
    With an empty support there is nothing to shift and the solution is
    returned with only the estimator label changed.
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


def brute_force_oracle(state: GreedyState, problem: FitProblem) -> SparseSolution:
    """Exact minimum-support solution on ``state`` by exhaustive support enumeration.

    Independent verifier for the greedy: walks supports in order of
    increasing cardinality (lexicographic within) and returns the first that
    meets ``problem``'s budget, which is optimal.  Like GreedyPath.solve, it
    reads the problem's norm order, budget and estimator and ignores its
    data.  Infeasible is raised before any walk, by the greedy's rule: the
    full support misses the budget.  Refuses n > BRUTE_FORCE_CAP.
    """
    if state.n > BRUTE_FORCE_CAP:
        raise ValueError(f"brute force refused: {state.n} columns > cap {BRUTE_FORCE_CAP}")
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


def submodularity_ratio(state: GreedyState, p: float, L, S) -> float:
    """Empirical submodularity ratio of the (negated) error function at (L, S).

    sum_{x in S} [E(L) - E(L ∪ {x})] over [E(L) - E(L ∪ S)] on ``state``,
    with E in p-th-power domain for finite p (log-domain arithmetic) and the
    halved max-error for p = inf.  Returns inf when the denominator vanishes.
    """
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


def submodularity_probe(state: GreedyState, p: float, trials: int, rng=None) -> ProbeReport:
    """Sample (C ⊆ B, k ∉ B) triples on ``state`` and check the supermodular inequality.

    For finite p the inequality E(C ∪ {k}) - E(C) <= E(B ∪ {k}) - E(B) and
    monotonicity E(B) <= E(C) are checked in p-th-power domain (log-domain
    comparison, relative slack 1e-9); violations are counted.  For p = inf
    the probe instead estimates the submodularity ratio: it samples disjoint
    (L, S) pairs and reports the minimum ratio observed.  An order that is
    not positive, or trials < 0, raises ValueError before any draw.
    """
    _check_norm_order(p)
    if trials < 0:
        raise ValueError(f"need trials >= 0, got trials={trials}")
    rng = np.random.default_rng(rng)
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
            ratio = submodularity_ratio(state, p, L, S)
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
