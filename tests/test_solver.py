import math
import sys
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tropfit import solver
from tropfit.solver import (
    FitProblem,
    GreedyPath,
    GreedyState,
    Infeasible,
    _certificate_from,
    _finalize,
    _norm_floors,
    _PickMemo,
    _row_norms,
    brute_force_oracle,
    greedy_sparse_solve,
    pnorm,
    smmae_lift,
    submodularity_probe,
    submodularity_ratio,
)
from tropfit.tropical import (
    maxplus_product,
    principal_solution,
    project_on_support,
)

from test_tropical import reference_maxplus_add, reference_minplus_product

NEG = -np.inf
A_REF = np.array([[0.0, 5.0, 2.0], [4.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
B_REF = np.array([3.0, 1.0, 0.0])


def random_instance(rng, max_side=10):
    m = int(rng.integers(1, max_side + 1))
    n = int(rng.integers(1, max_side + 1))
    return rng.normal(0, 3, (m, n)), rng.normal(0, 1, m)


def reference_pnorm(v, p):
    # plain-arithmetic oracle, independent of the scaled implementation
    v = np.abs(np.asarray(v, dtype=float))
    if math.isinf(p):
        return v.max()
    return float(np.sum(v**p) ** (1.0 / p))


class TestPnorm:
    def test_examples(self):
        assert pnorm([3.0, 4.0, 0.0], 2) == 5.0
        assert pnorm([1.0, 1.0, 0.0], 1) == 2.0
        assert pnorm([-2.0, 1.0], math.inf) == 2.0
        assert pnorm([0.0, 0.0], 7) == 0.0
        assert pnorm([1.0, np.inf], 3) == np.inf
        assert pnorm([], 2) == 0.0

    def test_matches_reference(self):
        rng = np.random.default_rng(3)
        for p in (1, 2, 5, 11.5):
            for _ in range(25):
                v = rng.uniform(0, 10, size=rng.integers(1, 12))
                assert pnorm(v, p) == pytest.approx(reference_pnorm(v, p), rel=1e-12)

    def test_high_order_does_not_overflow(self):
        v = np.full(1000, 300.0)
        got = pnorm(v, 150)
        # 300 * 1000^(1/150); the naive power sum would be ~1e371
        assert got == pytest.approx(300.0 * 1000 ** (1 / 150), rel=1e-12)
        assert np.isfinite(got)


@pytest.mark.parametrize("p", [0.0, -1.0, -math.inf, math.nan], ids=["0", "-1", "-inf", "nan"])
@pytest.mark.parametrize(
    "call",
    [
        lambda p: pnorm([1.0, 2.0], p),
        lambda p: GreedyPath(GreedyState(A_REF, B_REF), p),
        lambda p: GreedyState(A_REF, B_REF).error_norm_of([0], p),
        lambda p: GreedyState(A_REF, B_REF).full_support_norm(p),
        lambda p: submodularity_ratio(GreedyState(A_REF, B_REF), p, [], [0, 1]),
        lambda p: submodularity_probe(GreedyState(A_REF, B_REF), p, trials=5, rng=0),
        lambda p: submodularity_probe(GreedyState(A_REF, B_REF), p, trials=0),
        lambda p: FitProblem(p=p, theta=1.0),
    ],
    ids=["pnorm", "GreedyPath", "error_norm_of", "full_support_norm", "ratio", "probe", "probe-no-trials", "FitProblem"],
)
def test_every_entry_point_refuses_an_order_that_is_not_positive(call, p):
    # refused before any arithmetic, so with no warning either
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="norm order must be positive"):
            call(p)


class TestErrorFunctions:
    def test_singletons(self):
        state = GreedyState(A_REF, B_REF)
        assert np.array_equal(state.error_vector_of([2]), [1.0, 1.0, 0.0])
        assert np.array_equal(state.error_vector_of([0]), [6.0, 0.0, 3.0])
        assert np.array_equal(state.error_vector_of([1]), [0.0, 2.0, 1.0])

    def test_full_support_is_zero_here(self):
        assert np.array_equal(GreedyState(A_REF, B_REF).error_vector_of([0, 1, 2]), [0.0, 0.0, 0.0])

    def test_empty_is_singleton_max(self):
        assert np.array_equal(GreedyState(A_REF, B_REF).error_vector_of([]), [6.0, 2.0, 3.0])

    def test_always_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            A, b = random_instance(rng, 6)
            T = [int(j) for j in rng.permutation(A.shape[1])[: rng.integers(0, A.shape[1] + 1)]]
            assert (GreedyState(A, b).error_vector_of(T) >= 0).all()

    def test_error_p_values(self):
        state = GreedyState(A_REF, B_REF)
        assert state.error_norm_of([2], 1) == 2.0
        assert state.error_norm_of([0, 1, 2], 5) == 0.0

    def test_error_inf_values(self):
        state = GreedyState(A_REF, B_REF)
        assert state.error_norm_of([2], math.inf) == 0.5
        assert state.error_norm_of([0, 2], math.inf) == 0.5
        assert state.error_norm_of([1, 2], math.inf) == 0.5
        assert state.error_norm_of([0, 1, 2], math.inf) == 0.0

    def test_state_cur_stays_below_b(self):
        rng = np.random.default_rng(11)
        A, b = random_instance(rng, 8)
        state = GreedyState(A, b)
        tol = 1e-9
        order = [int(j) for j in rng.permutation(A.shape[1])]
        for k in range(1, len(order) + 1):
            x = project_on_support(state.xhat, order[:k])
            assert (maxplus_product(A, x) <= b + tol).all()

    def test_state_keeps_one_m_by_n_array(self):
        rng = np.random.default_rng(37)
        A, b = rng.normal(0, 2, (200, 300)), rng.normal(0, 1, 200)
        state = GreedyState(A, b)
        matrices = [k for k, v in vars(state).items() if isinstance(v, np.ndarray) and v.ndim == 2]
        assert matrices == ["e0"]
        assert state.e0.shape == (200, 300)


class TestGreedy:
    def test_linf_path_on_worked_instance(self):
        with pytest.warns(UserWarning, match="no approximation guarantee"):
            path = GreedyPath(GreedyState(A_REF, B_REF), math.inf)
        sol = path.solve(FitProblem(None, None, p=math.inf, theta=0.0))
        # {3} first, then the 0.5-vs-0.5 tie resolved to the lower index
        assert sol.support == (2, 0, 1)
        assert path.selected == [2, 0, 1]
        assert path.errors == [3.0, 0.5, 0.5, 0.0]
        assert sol.error_inf == 0.0

    def test_linf_path_when_no_single_column_closes_an_infinite_row(self):
        # after the first pick every remaining candidate still leaves a +inf
        # row; the l-infinity argmin must then go to the lowest unselected
        # column, as the finite-p argmin does, not back to a selected one
        A = np.where(np.eye(3) == 1.0, 0.0, NEG)
        b = np.zeros(3)
        for p in (math.inf, 2.0):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                path = GreedyPath(GreedyState(A, b), p)
            sol = path.solve(FitProblem(None, None, p=p, theta=0.0))
            assert sol.support == (0, 1, 2)
            assert path.errors[1:] == [math.inf, math.inf, 0.0]

    def test_l1_path_on_worked_instance(self):
        path = GreedyPath(GreedyState(A_REF, B_REF), 1)
        sol = path.solve(FitProblem(None, None, p=1, theta=1.0))
        assert sol.support == (2, 0)
        assert sol.error_p == 1.0
        assert path.errors == [pnorm([6.0, 2.0, 3.0], 1), 2.0, 1.0]
        assert path.selected == [2, 0]
        assert np.array_equal(sol.x, [-3.0, NEG, 0.0])

    def test_budget_already_met_by_empty_set(self):
        sol = greedy_sparse_solve(FitProblem(A_REF, B_REF, p=1, theta=100.0))
        assert sol.support == ()
        assert np.isneginf(sol.x).all()
        assert sol.ratio_bound is None

    def test_infeasible_distinct(self):
        A = np.array([[0.0], [0.0]])
        b = np.array([0.0, 5.0])
        with pytest.raises(Infeasible) as exc:
            greedy_sparse_solve(FitProblem(A, b, p=2, theta=1.0))
        assert exc.value.full_support_error == pytest.approx(5.0)
        # a row that no column covers misses even a budget above every float
        A = np.array([[1.0, NEG], [NEG, NEG]])
        with pytest.warns(UserWarning, match="quasi-norm"), pytest.raises(Infeasible) as exc:
            greedy_sparse_solve(FitProblem(A, b, p=0.5, epsilon=1e300))
        assert exc.value.full_support_error == math.inf

    def test_epsilon_budget_equivalent(self):
        a = greedy_sparse_solve(FitProblem(A_REF, B_REF, p=2, theta=3.0))
        b = greedy_sparse_solve(FitProblem(A_REF, B_REF, p=2, epsilon=9.0))
        assert a.support == b.support

    def test_lateness_and_budget(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            A, b = random_instance(rng)
            state = GreedyState(A, b)
            full = state.full_support_norm(2)
            empty = state.error_norm_of([], 2)
            theta = full + rng.uniform(0, 1.2) * max(empty - full, 1e-9)
            sol = greedy_sparse_solve(FitProblem(A, b, p=2, theta=theta))
            assert sol.error_p <= theta
            if sol.support:
                assert (maxplus_product(A, sol.x) <= b + 1e-9).all()
                assert (sol.residual >= 0).all()

    def test_deterministic_replay(self):
        rng = np.random.default_rng(13)
        A, b = random_instance(rng)
        prob = FitProblem(A, b, p=5, theta=GreedyState(A, b).full_support_norm(5) * 1.5)
        p1, p2 = GreedyPath(GreedyState(A, b), 5), GreedyPath(GreedyState(A, b), 5)
        s1, s2 = p1.solve(prob), p2.solve(prob)
        assert s1.support == s2.support
        assert (p1.selected, bits(p1.errors)) == (p2.selected, bits(p2.errors))
        assert np.array_equal(s1.x, s2.x)


class TestRatioCertificate:
    def test_worked_instance_value(self):
        sol = greedy_sparse_solve(FitProblem(A_REF, B_REF, p=1, theta=1.0))
        # Delta = 6, m = 3, E_1(T_1) = 2, eps = 1: 1 + log((18-1)/(2-1))
        assert sol.ratio_bound == pytest.approx(1 + math.log(17), rel=1e-12)

    def test_single_iteration_uses_initial_error(self):
        sol = greedy_sparse_solve(FitProblem(A_REF, B_REF, p=1, theta=2.0))
        assert sol.support == (2,)
        expected = 1 + math.log((3 * 6.0 - 2.0) / (pnorm([6, 2, 3], 1) - 2.0))
        assert sol.ratio_bound == pytest.approx(expected, rel=1e-12)

    def test_absent_without_iterations(self):
        sol = greedy_sparse_solve(FitProblem(A_REF, B_REF, p=1, theta=1000.0))
        assert sol.ratio_bound is None

    def test_at_least_one(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            A, b = random_instance(rng, 8)
            state = GreedyState(A, b)
            theta = state.full_support_norm(2) + 0.1
            sol = greedy_sparse_solve(FitProblem(A, b, p=2, theta=theta))
            if sol.ratio_bound is not None:
                assert sol.ratio_bound >= 1.0

    def test_matches_plain_arithmetic_on_random_instances(self):
        # the run's prefix errors against errors recomputed from the support, and the
        # log-domain bound against 1 + log((m Delta^p - eps) / (E(T_{k-1}) - eps))
        # in plain arithmetic, eps = theta^p
        rng = np.random.default_rng(41)
        certified = 0
        for _ in range(256):
            A, b = random_instance(rng)
            p = float(rng.choice([1.0, 2.0]))
            state = GreedyState(A, b)
            full, empty = state.full_support_norm(p), state.error_norm_of([], p)
            theta = full + rng.uniform(0, 1) * (empty - full)
            path = GreedyPath(state, p)
            sol = path.solve(FitProblem(A, b, p=p, theta=theta))
            assert tuple(path.selected) == sol.support
            assert path.errors == [state.error_norm_of(sol.support[:k], p) for k in range(len(sol.support) + 1)]
            if not sol.support:
                assert sol.ratio_bound is None
                continue
            delta = state.error_vector_of([]).max()
            prev = state.error_norm_of(sol.support[:-1], p)
            num = state.m * delta**p - theta**p
            den = prev**p - theta**p
            if den > 0.0:
                expected = 1.0 + math.log(num / den)
                assert sol.ratio_bound == pytest.approx(expected, rel=1e-12)
                certified += 1
            else:
                assert sol.ratio_bound == math.inf
        assert certified > 100

    def test_bottom_entries_give_inf_sentinel_not_nan(self):
        # a -inf entry makes Delta (and intermediate errors) infinite; the
        # certificate degrades to +inf, never NaN
        A = np.array([[0.0, NEG], [NEG, 0.0], [1.0, 1.0]])
        b = np.array([2.0, 3.0, 4.0])
        sol = greedy_sparse_solve(FitProblem(A, b, p=150, theta=3.0))
        assert sol.support == (0, 1)
        assert sol.ratio_bound == math.inf


class TestSmmae:
    def test_hand_example(self):
        sol = greedy_sparse_solve(FitProblem(A_REF, B_REF, p=1, theta=2.0))
        assert sol.support == (2,)
        lifted = smmae_lift(sol)
        assert np.array_equal(lifted.x, [NEG, NEG, 0.5])
        assert lifted.error_inf == 0.5
        assert np.array_equal(lifted.residual, [0.5, 0.5, -0.5])

    def test_halving_is_exact(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            A, b = random_instance(rng)
            state = GreedyState(A, b)
            theta = state.full_support_norm(3) * 1.2 + 1e-6
            sol = greedy_sparse_solve(FitProblem(A, b, p=3, theta=theta))
            if not sol.support:
                continue
            lifted = smmae_lift(sol)
            assert lifted.error_inf == 0.5 * sol.error_inf
            assert lifted.support == sol.support

    def test_exact_solution_unchanged(self):
        with pytest.warns(UserWarning):
            sol = greedy_sparse_solve(FitProblem(A_REF, B_REF, p=math.inf, theta=0.0))
        lifted = smmae_lift(sol)
        assert np.array_equal(lifted.x, sol.x)

    def test_estimator_flag_via_problem(self):
        direct = greedy_sparse_solve(FitProblem(A_REF, B_REF, p=1, theta=2.0, estimator="smmae"))
        manual = smmae_lift(greedy_sparse_solve(FitProblem(A_REF, B_REF, p=1, theta=2.0)))
        assert np.array_equal(direct.x, manual.x)
        assert direct.estimator == "smmae"

    def test_empty_support_relabel_only(self):
        sol = greedy_sparse_solve(FitProblem(A_REF, B_REF, p=1, theta=1000.0))
        lifted = smmae_lift(sol)
        assert lifted.estimator == "smmae"
        assert np.isneginf(lifted.x).all()

    def test_rejects_double_lift(self):
        sol = greedy_sparse_solve(FitProblem(A_REF, B_REF, p=1, theta=2.0, estimator="smmae"))
        with pytest.raises(ValueError):
            smmae_lift(sol)


class TestBruteForceOracle:
    def test_linf_tight_budget_needs_all(self):
        sol = brute_force_oracle(GreedyState(A_REF, B_REF), FitProblem(p=math.inf, theta=0.4))
        assert sol.support == (0, 1, 2)

    def test_linf_half_budget_singleton(self):
        sol = brute_force_oracle(GreedyState(A_REF, B_REF), FitProblem(p=math.inf, theta=0.5))
        assert sol.support == (2,)

    def test_huge_budget_empty(self):
        sol = brute_force_oracle(GreedyState(A_REF, B_REF), FitProblem(p=1, theta=1e9))
        assert sol.support == ()

    def test_linf_smmae_shift_applied(self):
        sol = brute_force_oracle(GreedyState(A_REF, B_REF), FitProblem(p=math.inf, theta=0.5, estimator="smmae"))
        assert sol.support == (2,)
        assert sol.error_inf == 0.5  # half the unshifted max error of 1

    def test_refuses_large_instances(self):
        A = np.zeros((2, 21))
        with pytest.raises(ValueError, match="refused"):
            brute_force_oracle(GreedyState(A, np.zeros(2)), FitProblem(p=1, theta=1.0))

    def test_infeasible(self):
        A = np.array([[0.0], [0.0]])
        with pytest.raises(Infeasible):
            brute_force_oracle(GreedyState(A, np.array([0.0, 5.0])), FitProblem(p=1, theta=1.0))

    def test_infeasible_at_the_cap_raises_before_any_search(self, monkeypatch):
        A = np.zeros((2, 20))
        b = np.array([0.0, 5.0])
        state = GreedyState(A, b)
        calls = []
        search = GreedyState.error_norm_of
        monkeypatch.setattr(
            GreedyState, "error_norm_of", lambda self, T, p: calls.append(T) or search(self, T, p)
        )
        with pytest.raises(Infeasible) as info:
            brute_force_oracle(state, FitProblem(p=1, theta=1.0))
        assert info.value.full_support_error == state.full_support_norm(1)
        assert calls == []

    def test_never_beaten_by_greedy(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            A, b = random_instance(rng, 7)
            state = GreedyState(A, b)
            theta = state.full_support_norm(1) + rng.uniform(0, 2)
            prob = FitProblem(A, b, p=1, theta=theta)
            assert len(brute_force_oracle(state, prob).support) <= len(greedy_sparse_solve(prob).support)


class TestProjectionOptimality:
    def test_projection_is_best_on_support(self):
        # any lateness-feasible x with support T has lp error >= the projection's
        rng = np.random.default_rng(29)
        for _ in range(40):
            A, b = random_instance(rng, 6)
            n = A.shape[1]
            state = GreedyState(A, b)
            T = sorted(int(j) for j in rng.permutation(n)[: rng.integers(1, n + 1)])
            proj_err = state.error_norm_of(T, 2)
            for _ in range(4):
                x = np.full(n, NEG)
                x[T] = state.xhat[T] - rng.uniform(0, 2, size=len(T))
                err = reference_pnorm(np.maximum(b - maxplus_product(A, x), 0), 2)
                assert proj_err <= err + 1e-9

    def test_shifted_projection_is_linf_optimal(self):
        # any finite-on-T z has max-abs error >= the halved projection error
        rng = np.random.default_rng(31)
        for _ in range(40):
            A, b = random_instance(rng, 6)
            n = A.shape[1]
            state = GreedyState(A, b)
            T = sorted(int(j) for j in rng.permutation(n)[: rng.integers(1, n + 1)])
            best = state.error_norm_of(T, math.inf)
            for _ in range(4):
                z = np.full(n, NEG)
                z[T] = state.xhat[T] + rng.normal(0, 1, size=len(T))
                err = np.abs(b - maxplus_product(A, z)).max()
                assert err >= best - 1e-9


class TestSubmodularity:
    def test_ratio_zero_on_worked_instance(self):
        assert submodularity_ratio(GreedyState(A_REF, B_REF), math.inf, [2], [0, 1]) == 0.0

    def test_ratio_validates_sets(self):
        state = GreedyState(A_REF, B_REF)
        with pytest.raises(ValueError):
            submodularity_ratio(state, 1, [0], [0, 1])
        with pytest.raises(ValueError):
            submodularity_ratio(state, 1, [0], [])

    def test_ratio_is_nan_with_an_uncoverable_row(self):
        # no column covers row 0, so E(L) is infinite and every drop is undefined
        A = np.array([[-np.inf, -np.inf], [0.0, 1.0]])
        assert math.isnan(submodularity_ratio(GreedyState(A, np.array([0.0, 1.0])), 2, [], [0, 1]))

    def test_finite_p_ratio_at_least_one(self):
        # supermodular E_p: every sampled ratio of -E_p is >= 1 (up to rounding)
        rng = np.random.default_rng(37)
        for p in (1, 2, 5):
            for _ in range(10):
                A, b = random_instance(rng, 5)
                n = A.shape[1]
                if n < 2:
                    continue
                perm = rng.permutation(n)
                L, S = [int(perm[0])], [int(j) for j in perm[1 : 1 + rng.integers(1, n)]]
                ratio = submodularity_ratio(GreedyState(A, b), p, L, S)
                assert ratio >= 1.0 - 1e-9

    def test_probe_clean_for_finite_p(self):
        rng = np.random.default_rng(41)
        for p in (1, 2, 5, 150):
            A, b = random_instance(rng, 6)
            report = submodularity_probe(GreedyState(A, b), p, trials=200, rng=rng)
            assert report.supermodular_violations == 0
            assert report.monotonicity_violations == 0

    def test_probe_inf_finds_zero_ratio(self):
        report = submodularity_probe(GreedyState(A_REF, B_REF), math.inf, trials=400, rng=1)
        assert report.min_ratio == 0.0

    def test_probe_singleton_universe(self):
        report = submodularity_probe(GreedyState(np.array([[1.0]]), np.array([2.0])), 2, trials=20, rng=0)
        assert report.supermodular_violations == 0

    def test_probe_refuses_negative_trials(self):
        with pytest.raises(ValueError, match=r"^need trials >= 0, got trials=-1$"):
            submodularity_probe(GreedyState(A_REF, B_REF), 2, trials=-1)


class TestFitProblem:
    def test_requires_exactly_one_budget(self):
        with pytest.raises(ValueError):
            FitProblem(A_REF, B_REF, p=1)
        with pytest.raises(ValueError):
            FitProblem(A_REF, B_REF, p=1, theta=1.0, epsilon=1.0)

    def test_epsilon_to_theta(self):
        assert FitProblem(None, None, p=2, epsilon=9.0).budget == pytest.approx(3.0)
        assert FitProblem(None, None, p=150, epsilon=1e8).budget == pytest.approx(10 ** (8 / 150))
        assert FitProblem(None, None, p=math.inf, epsilon=2.5).budget == 2.5
        assert FitProblem(None, None, p=3, epsilon=0.0).budget == 0.0
        # eps**(1/p) is above every float for p < 1: the largest float, which
        # every finite error meets and an infinite one does not
        with pytest.warns(UserWarning, match="quasi-norm"):
            assert FitProblem(None, None, p=0.5, epsilon=1e300).budget == sys.float_info.max
            assert FitProblem(None, None, p=0.5, epsilon=math.inf).budget == math.inf

    def test_budget_only_problem_needs_no_data(self):
        # a problem for a GreedyPath, brute_force_oracle or a fit leaves out A and b
        short = FitProblem(p=2, epsilon=9.0, estimator="smmae")
        assert short == FitProblem(None, None, p=2, epsilon=9.0, estimator="smmae")
        assert (short.A, short.b, short.budget) == (None, None, pytest.approx(3.0))
        with pytest.raises(TypeError):
            FitProblem(A_REF, B_REF, 1, 1.0)  # every field after b is keyword-only

    def test_quasi_norm_warns(self):
        with pytest.warns(UserWarning, match="quasi-norm"):
            FitProblem(None, None, p=0.3, theta=1.0)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            FitProblem(None, None, p=0, theta=1.0)
        with pytest.raises(ValueError):
            FitProblem(None, None, p=1, theta=-1.0)
        with pytest.raises(ValueError):
            FitProblem(A_REF, B_REF, p=1, theta=1.0, estimator="other")
        # the data is checked by the solve that reads it, through GreedyState
        bad_data = FitProblem(A_REF, np.array([1.0, NEG, 0.0]), p=1, theta=1.0)
        no_data = FitProblem(None, None, p=1, theta=1.0)
        for problem in (bad_data, no_data):
            with pytest.raises(ValueError):
                greedy_sparse_solve(problem)
            with pytest.raises(ValueError):
                GreedyState(problem.A, problem.b)


def eager_best_column(state, cur_error, in_support, p):
    """The plain eager scan: the exact norm of every free candidate, then the
    lowest index at the minimum; no bound, no pruning."""
    free = np.flatnonzero(~in_support)
    candidates = [np.minimum(cur_error, state.e0[:, j]) for j in free]
    scores = [float(c.max()) if math.isinf(p) else pnorm(c, p) for c in candidates]
    return int(free[scores.index(min(scores))])


def reference_greedy_solve(problem):
    """The greedy as a single-budget loop on a fresh state, the reference GreedyPath must equal.

    Returns the solution and the run's prefix errors E(empty), E(T_1), ..., E(T_k).
    """
    p, budget = problem.p, problem.budget
    state = GreedyState(problem.A, problem.b)
    full = state.full_support_norm(p)
    if full > budget:
        raise Infeasible("full support misses the budget", full_support_error=full)

    def norm(v):
        return 0.5 * float(v.max()) if math.isinf(p) else pnorm(v, p)

    cur_error = state.e0.max(axis=1)
    in_support = np.zeros(state.n, dtype=bool)
    selected = []
    errors = [norm(cur_error)]
    while errors[-1] > budget and len(selected) < state.n:
        j = eager_best_column(state, cur_error, in_support, p)
        cur_error = np.minimum(cur_error, state.e0[:, j])
        in_support[j] = True
        selected.append(j)
        errors.append(norm(cur_error))
    support = tuple(selected)
    bound = None
    if not math.isinf(p) and support:
        bound = _certificate_from(state.m, float(state.e0.max()), p, budget, errors[-2])
    return _finalize(state, support, problem, bound), errors


def path_solve(path, problem):
    """``path.solve`` with the run's prefix errors up to its support, as reference_greedy_solve returns them."""
    sol = path.solve(problem)
    k = len(sol.support)
    assert tuple(path.selected[:k]) == sol.support
    return sol, path.errors[: k + 1]


def bits(v):
    return None if v is None else np.asarray(v, dtype=np.float64).tobytes()


def run_bits(run):
    """A solution and its run's prefix errors, bit for bit."""
    sol, errors = run
    return (
        bits(sol.x),
        sol.support,
        bits(sol.residual),
        bits(sol.error_p),
        bits(sol.error_inf),
        bits(sol.ratio_bound),
        bits(errors),
        sol.estimator,
    )


def outcome(solve, *args):
    try:
        return solve(*args)
    except Infeasible as exc:
        return exc


@st.composite
def path_instances(draw):
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    finite = st.floats(-20, 20)
    # about one entry in four is -inf
    A = draw(arrays(np.float64, (m, n), elements=st.one_of(finite, finite, finite, st.just(-np.inf))))
    b = draw(arrays(np.float64, m, elements=st.floats(-10, 10)))
    return A, b, draw(st.sampled_from([1.0, 2.0, 5.0, 150.0, math.inf]))


def assert_lift_attains_the_halving(sgle, smmae):
    """The SMMAE's max error is the one a shift by h = fl(e / 2) attains.

    With the SGLE residual in [lo, e], that is max(e - h, h - lo).  Where
    the residual touches 0, as it does in exact arithmetic, it is
    max(h, e - h): e / 2 wherever e / 2 is exact, and the larger part of e
    at an odd number of 2^-1074 units, where no float is e / 2; there no
    neighbouring float shift does better.
    """
    e, h = sgle.error_inf, 0.5 * sgle.error_inf
    lo = float(sgle.residual.min())
    assert smmae.error_inf == max(e - h, h - lo)
    if lo == 0.0:
        for shift in (np.nextafter(h, -np.inf), np.nextafter(h, np.inf)):
            assert float(np.abs(sgle.residual - shift).max()) >= smmae.error_inf


# Instances whose SGLE max error at p = 1 is an odd number of 2^-1074 units,
# where no float is half of it; the hypothesis search found the first two.
SUBNORMAL_HALVING_INSTANCES = [
    (np.array([[NEG, 0.0], [0.0, 0.0]]), np.array([5e-324, 0.0])),
    (np.array([[NEG, -5e-324], [0.0, 0.0]]), np.array([0.0, 0.0])),
    # the residual stays above 0: fl(1 + fl(b_i - 1)) = 0 on both rows
    (np.array([[1.0, NEG], [NEG, 1.0]]), np.array([1.5e-323, 1.5e-323])),
]


class TestGreedyPath:
    @pytest.mark.parametrize("A, b", SUBNORMAL_HALVING_INSTANCES)
    def test_subnormal_halving(self, A, b):
        full = GreedyState(A, b).full_support_norm(1.0)
        sgle = greedy_sparse_solve(FitProblem(A, b, p=1.0, theta=full))
        assert sgle.support and sgle.error_inf % 2.0**-1073 == 2.0**-1074
        assert_lift_attains_the_halving(sgle, smmae_lift(sgle))

    @settings(max_examples=150, deadline=None)
    @given(path_instances(), st.data())
    def test_every_budget_equals_an_independent_solve(self, instance, data):
        A, b, p = instance
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the l-infinity greedy warns by design
            state = GreedyState(A, b)
            full, top = state.full_support_norm(p), state.error_norm_of([], p)
            # the errors of the run down to the tightest feasible budget, so
            # some budgets sit exactly on a step of the path
            budgets = [top]
            if math.isfinite(full):
                _, errors = reference_greedy_solve(FitProblem(A, b, p=p, theta=full))
                budgets += errors[1:]
            scale = top if 0.0 < top < math.inf else 10.0
            budgets = [e for e in budgets if math.isfinite(e)] + [0.0, 1e9]
            budgets += [f * scale for f in data.draw(st.lists(st.floats(0, 1.5), max_size=6))]
            path = GreedyPath(state, p)
            for theta in data.draw(st.permutations(budgets)):
                sgle = None
                for estimator in ("sgle", "smmae"):
                    problem = FitProblem(A, b, p=p, theta=theta, estimator=estimator)
                    got = outcome(path_solve, path, problem)
                    want = outcome(reference_greedy_solve, problem)
                    if isinstance(want, Infeasible):
                        assert isinstance(got, Infeasible)
                        assert bits(got.full_support_error) == bits(want.full_support_error)
                        continue
                    assert run_bits(got) == run_bits(want)
                    sol = got[0]
                    if estimator == "sgle":
                        # lateness: the SGLE solution never overshoots b
                        assert (maxplus_product(A, sol.x) <= b + 1e-9).all()
                        sgle = sol
                    elif sol.support and math.isfinite(sgle.error_inf):
                        assert_lift_attains_the_halving(sgle, sol)

    @settings(max_examples=100, deadline=None)
    @given(path_instances(), st.data())
    def test_one_state_serves_interleaved_runs(self, instance, data):
        A, b, _ = instance
        norm_orders = (1.0, 2.0, 5.0, 150.0, math.inf)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the l-infinity greedy warns by design
            state = GreedyState(A, b)
            e0, xhat = state.e0.tobytes(), state.xhat.tobytes()
            paths = {p: GreedyPath(state, p) for p in norm_orders}
            asks = []
            for p in norm_orders:
                full, top = state.full_support_norm(p), state.error_norm_of([], p)
                scale = top if 0.0 < top < math.inf else 10.0
                fractions = data.draw(st.lists(st.floats(0, 1.5), min_size=1, max_size=4))
                asks += [(p, f * scale) for f in fractions] + [(p, full)] * math.isfinite(full)
            for p, theta in data.draw(st.permutations(asks)):
                problem = FitProblem(A, b, p=p, theta=theta)
                got = outcome(path_solve, paths[p], problem)
                want = outcome(reference_greedy_solve, problem)
                if isinstance(want, Infeasible):
                    assert isinstance(got, Infeasible)
                    assert bits(got.full_support_error) == bits(want.full_support_error)
                else:
                    assert run_bits(got) == run_bits(want)
        assert (state.e0.tobytes(), state.xhat.tobytes()) == (e0, xhat)
        for shared in (state.e0, state.xhat):
            with pytest.raises(ValueError, match="read-only"):
                shared[...] = 0.0
        for path in paths.values():
            assert not [k for k, v in vars(path).items() if isinstance(v, np.ndarray) and v.ndim == 2]

    def test_rejects_another_norm_order(self):
        path = GreedyPath(GreedyState(A_REF, B_REF), 1.0)
        with pytest.raises(ValueError, match="norm order"):
            path.solve(FitProblem(None, None, p=2.0, theta=1.0))


# values where a shortcut through plain IEEE arithmetic could part from the
# semiring helpers: signed zeros, overflow, subnormals, the max-plus bottom
EDGE_VALUES = [0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0]


@st.composite
def edge_instances(draw, max_side=12):
    m, n = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    finite = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=False, allow_infinity=False))
    A = draw(arrays(np.float64, (m, n), elements=st.one_of(finite, finite, st.just(-np.inf))))
    A[:, draw(arrays(np.bool_, n))] = -np.inf  # whole bottom columns
    b = draw(arrays(np.float64, m, elements=finite))
    return A, b


def assert_build_equals_semiring_reference(A, b):
    try:
        with np.errstate(over="raise"):
            xhat = reference_minplus_product((-A).T, b)
    except FloatingPointError:
        # a finite b_i - A_ij overflows: both builds refuse the instance
        for build in (principal_solution, GreedyState):
            with pytest.raises(ValueError, match="overflows"):
                build(A, b)
        return
    xhat[np.isposinf(xhat)] = -np.inf
    got = principal_solution(A, b)
    with np.errstate(over="ignore"):
        summed = reference_maxplus_add(A, xhat[np.newaxis, :])
        e0 = np.maximum(b[:, np.newaxis] - summed, 0)
    # where A_ij + xhat_j of two finite terms overflows, the build takes
    # (b_i - A_ij) - xhat_j instead; every other entry is the reference's
    overflowed = np.isneginf(summed) & np.isfinite(A) & np.isfinite(xhat)[np.newaxis, :]
    state = GreedyState(A, b)
    assert got.tobytes() == xhat.tobytes()
    assert state.xhat.tobytes() == xhat.tobytes()
    assert state.e0[~overflowed].tobytes() == e0[~overflowed].tobytes()
    for i, j in zip(*np.nonzero(overflowed)):
        exact = Fraction(b[i]) - Fraction(A[i, j]) - Fraction(xhat[j])
        err = state.e0[i, j]
        if math.isinf(err):
            # the rounding of b_i - A_ij can at most bring the exact value down to max
            assert exact >= Fraction(sys.float_info.max)
        else:
            # two roundings: b_i - A_ij, then the subtraction of xhat_j
            assert abs(Fraction(err) - exact) <= Fraction(2.0**-53) * (abs(Fraction(b[i]) - Fraction(A[i, j])) + Fraction(err))
    assert np.isneginf(state.xhat[np.isneginf(A).all(axis=0)]).all()  # bottom columns are clamped


class TestInstanceBuild:
    """The build's plain arithmetic against the semiring helpers it replaces."""

    @settings(max_examples=400, deadline=None)
    @given(edge_instances())
    def test_equals_semiring_reference(self, instance):
        assert_build_equals_semiring_reference(*instance)

    def test_equals_semiring_reference_on_signed_zeros(self):
        rng = np.random.default_rng(3)
        A = rng.choice([0.0, -0.0, -np.inf], size=(300, 400))
        A[:, 7] = -np.inf
        assert_build_equals_semiring_reference(A, rng.choice([0.0, -0.0], size=300))

    def test_an_add_that_overflows_keeps_the_error(self):
        # xhat = [-1e308], and A_00 + xhat_0 overflows where e0_00 = 1e308
        A, b = np.array([[-1e308], [1e308]]), np.array([-1e308, 0.0])
        assert_build_equals_semiring_reference(A, b)
        state = GreedyState(A, b)
        assert state.e0.tolist() == [[1e308], [0.0]]
        assert greedy_sparse_solve(FitProblem(A, b, p=1.0, theta=1e308)).error_p == 1e308

    def test_build_peak_is_one_matrix(self):
        rng = np.random.default_rng(0)
        m, n = 400, 500
        A, b = rng.normal(size=(m, n)), rng.normal(size=m)
        tracemalloc.start()
        try:
            GreedyState(A, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # e0 is the one m×n array the state keeps; numpy's reduction buffers
        # are fixed-size, so the slack is O(m + n)
        assert peak <= A.nbytes + 64 * (m + n) + 2**17


class ColumnBlocks:
    """A matrix as a design: GreedyState reads it a block of columns at a time."""

    def __init__(self, A):
        self.A, self.shape = A, A.shape

    def column_block(self, lo, hi):
        return np.ascontiguousarray(self.A[:, lo:hi])


class TestBlockedBuild:
    """A build over column blocks against the build of the whole matrix at once."""

    @settings(max_examples=300, deadline=None)
    @given(edge_instances(), st.integers(1, 40))
    def test_equals_the_one_block_build(self, instance, block):
        A, b = instance
        with mock.patch.object(solver, "_BUILD_BLOCK", block):
            try:
                whole = GreedyState(A, b)
            except ValueError:
                with pytest.raises(ValueError, match="overflows"):
                    GreedyState(ColumnBlocks(A), b)
                return
            blocked = GreedyState(ColumnBlocks(A), b)
        for name in ("xhat", "e0", "empty_error", "full_error"):
            assert getattr(blocked, name).tobytes() == getattr(whole, name).tobytes(), name
        assert bits(blocked.delta) == bits(whole.delta)
        # the row reductions the build keeps are e0's, signed zeros included
        assert whole.empty_error.tobytes() == whole.e0.max(axis=1).tobytes()
        assert whole.full_error.tobytes() == whole.e0.min(axis=1).tobytes()
        assert bits(whole.delta) == bits(float(whole.e0.max()))

    def test_row_reductions_are_read_only(self):
        state = GreedyState(A_REF, B_REF)
        for v in (state.empty_error, state.full_error):
            assert not v.flags.writeable
        assert state.error_vector_of([]).flags.writeable  # a copy


# zeros, subnormals and the least normal: where a scaled norm could lose bits
TINY_VALUES = [v for v in EDGE_VALUES if abs(v) < 1e-300]


@st.composite
def kernel_instances(draw):
    """Instances large enough for select_best's row chunks and its later blocks."""
    m, n = draw(st.integers(1, 200)), draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(0.0, draw(st.sampled_from([0.5, 2.0, 8.0])), (m, n))
    if draw(st.booleans()):
        A = np.round(A)  # ties between candidates
    A[rng.random((m, n)) < draw(st.sampled_from([0.0, 0.02, 0.25]))] = -np.inf
    b = rng.normal(0.0, 1.0, m)
    if draw(st.booleans()):
        b = np.round(b)
    tiny = rng.random(m) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    b[tiny] = rng.choice(TINY_VALUES, size=int(tiny.sum()))
    return A, b


@st.composite
def nonnegative_rows(draw):
    """Blocks of error rows: wide magnitudes, -0.0, all-zero rows, +inf and subnormals."""
    k, m = draw(st.integers(1, 8)), draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.random((k, m)) ** draw(st.sampled_from([1.0, 8.0, 60.0]))
    rows *= draw(st.sampled_from([1.0, 1e-300, 1e-310, 1e300]))
    specials = draw(st.lists(st.sampled_from([0.0, -0.0, np.inf, 5e-324, 2.2250738585072014e-308]), min_size=1))
    mask = rng.random((k, m)) < draw(st.sampled_from([0.0, 0.1, 0.9, 1.0]))
    rows[mask] = rng.choice(specials, size=int(mask.sum()))
    return rows


@st.composite
def stale_gain_runs(draw):
    """Singleton errors with subnormal, 1e300 and +inf entries and all-zero rows,
    and the picks of a run on them; a repeated pick keeps the prefix as it is."""
    m, n = draw(st.integers(1, 150)), draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    E = rng.random((m, n)) ** draw(st.sampled_from([1.0, 8.0, 60.0]))
    E *= draw(st.sampled_from([1.0, 1e-300, 1e-310, 1e300]))
    specials = draw(st.lists(st.sampled_from([0.0, np.inf, 1e300, 5e-324, 2.2250738585072014e-308]), min_size=1))
    mask = rng.random((m, n)) < draw(st.sampled_from([0.0, 0.1, 0.5]))
    E[mask] = rng.choice(specials, size=int(mask.sum()))
    E[rng.random(m) < draw(st.sampled_from([0.0, 0.2]))] = 0.0
    return E, draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))


def scalar_pnorm(v, p):
    """pnorm as a formula on one vector: the reference its batched form must equal bit for bit."""
    a = np.abs(np.asarray(v, dtype=np.float64))
    if a.size == 0:
        return 0.0
    m = float(a.max())
    if m == 0.0:
        return 0.0
    if math.isinf(m) or math.isinf(p):
        return m
    return m * float(np.sum((a / m) ** p)) ** (1.0 / p)


class TestSelectBest:
    """The pruned kernel against the plain eager scan and the scalar pnorm."""

    @settings(max_examples=30, deadline=None)
    @given(kernel_instances(), st.data())
    def test_every_solve_equals_the_eager_scan(self, instance, data):
        A, b = instance
        state = GreedyState(A, b)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the l-infinity greedy warns by design
            for p in (0.5, 1.0, 2.0, 5.0, 150.0, math.inf):
                full = state.full_support_norm(p)
                budgets = [full]
                if math.isfinite(full):
                    # stop the eager reference within 25 picks of the path
                    path = GreedyPath(state, p)
                    path.solve(FitProblem(A, b, p=p, theta=full))
                    steps = path.errors[1:]
                    k = data.draw(st.integers(1, 25))
                    budgets = [steps[min(k, len(steps)) - 1]] if steps else budgets
                for theta in budgets:
                    problem = FitProblem(A, b, p=p, theta=theta)
                    got = outcome(path_solve, GreedyPath(state, p), problem)
                    want = outcome(reference_greedy_solve, problem)
                    if isinstance(want, Infeasible):
                        assert isinstance(got, Infeasible)
                        assert bits(got.full_support_error) == bits(want.full_support_error)
                    else:
                        assert run_bits(got) == run_bits(want)

    @settings(max_examples=200, deadline=None)
    @given(nonnegative_rows(), st.sampled_from([0.5, 1.0, 1.5, 2.0, 5.0, 150.0]))
    def test_block_norm_is_pnorm_bit_for_bit(self, rows, p):
        want = bits([scalar_pnorm(row, p) for row in rows])
        assert bits(_row_norms(rows.copy(), p)) == want
        assert bits([pnorm(row, p) for row in rows]) == want

    @settings(max_examples=200, deadline=None)
    @given(nonnegative_rows(), st.sampled_from([0.5, 1.0, 1.5, 2.0, 5.0, 150.0, math.inf]), st.data())
    def test_norm_floors_never_exceed_the_norm(self, rows, p, data):
        m = rows.shape[1]
        # every column is the tightest case: the same terms as the exact sum
        cols = np.arange(m) if data.draw(st.booleans()) else np.flatnonzero(data.draw(arrays(np.bool_, m)))
        floors = _norm_floors(rows, cols, p)
        exact = _row_norms(rows.copy(), p)
        assert (floors <= exact).all()
        assert (floors >= rows.max(axis=1)).all()

    @settings(max_examples=200, deadline=None)
    @given(stale_gain_runs(), st.sampled_from([0.5, 1.0, 2.0, 5.0, 150.0]), st.data())
    def test_stale_gain_floor_never_exceeds_a_later_norm(self, run, p, data):
        E, picks = run
        n = E.shape[1]
        memo = _PickMemo(p, n)
        cur_error = E.max(axis=1)
        for j in [None, *picks]:
            if j is not None:
                cur_error = np.minimum(cur_error, E[:, j])
            # every column's norm at this prefix, as select_best evaluates it
            exact = _row_norms(np.ascontiguousarray(np.minimum(E, cur_error[:, np.newaxis]).T), p)
            power = memo.power(cur_error)
            floors = memo.floors(power)
            if floors is not None:
                assert (floors >= 0.0).all() and (floors <= exact).all()
            learnt = np.flatnonzero(data.draw(arrays(np.bool_, n)))
            memo.learn(learnt, exact[learnt], power)

    @pytest.mark.parametrize("case", ["max outside the seed rows", "block start", "every norm infinite"])
    def test_a_tie_at_the_bound_is_kept(self, case):
        # with b = 0 and a zero in every column, e({j}) is column j of E
        want = 0
        if case == "max outside the seed rows":
            # 70 rows above the tie, so rows 64-69 lie outside a seed of up to 64 rows;
            # columns 0 and 1 tie at 5 with their max there, and column 1
            # has the lower seed bound
            E = np.zeros((72, 3))
            E[:70, 2], E[:64, 0], E[:64, 1] = 10.0, 3.0, 1.0
            E[64, 0] = E[65, 1] = 5.0
            p = math.inf
        elif case == "block start":
            # at p = 1 all 17 columns tie at 6; columns 1-16 (3 + 3, bound
            # below 6) fill the first block, so column 0 (bound 6) starts the next
            E = np.zeros((34, 17))
            E[0, 0] = 6.0
            for j in range(1, 17):
                E[2 * j - 1 : 2 * j + 1, j] = 3.0
            p = 1.0
        else:
            # row 0 is covered by no column, so all 60 norms are +inf and the
            # scan runs through blocks of 16, 32 and 12 with nothing below the best
            E = np.random.default_rng(5).random((70, 60))
            E[0], E[1] = np.inf, 0.0
            p, want = 2.0, 1
        state = GreedyState(-E, np.zeros(E.shape[0]))
        assert state.e0.tobytes() == E.tobytes()
        in_support = np.zeros(E.shape[1], dtype=bool)
        in_support[:want] = True
        cur_error = state.error_vector_of(np.flatnonzero(in_support))
        assert state.select_best(cur_error, in_support, p) == want
        for q in (1.0, 2.0, 150.0, math.inf):
            assert state.select_best(cur_error, in_support, q) == eager_best_column(state, cur_error, in_support, q)

    @pytest.mark.parametrize("chunk", [1, 16, 64])
    def test_a_tie_just_outside_the_seed_is_kept(self, chunk):
        # rows 0..chunk+1 carry the largest error, so the seed is rows
        # 0..chunk-1; columns 0 and 1 have their max, 5, at row chunk, the
        # first row outside it, and column 1 has the lower seed bound
        with mock.patch.object(solver, "_CHUNK", chunk):
            c = solver._CHUNK
            E = np.zeros((c + 4, 3))
            E[: c + 2, 2], E[:c, 0], E[:c, 1] = 10.0, 3.0, 1.0
            E[c, 0] = E[c, 1] = 5.0
            state = GreedyState(-E, np.zeros(E.shape[0]))
            in_support = np.zeros(3, dtype=bool)
            cur_error = state.error_vector_of([])
            assert state.select_best(cur_error, in_support, math.inf) == 0
            for q in (0.5, 1.0, 2.0, 150.0, math.inf):
                assert state.select_best(cur_error, in_support, q) == eager_best_column(state, cur_error, in_support, q)

    @settings(max_examples=25, deadline=None)
    @given(kernel_instances(), st.integers(1, 6))
    @pytest.mark.parametrize("chunk", ["1", "16", "64", "m + 1"])
    def test_every_seed_size_picks_as_the_eager_scan(self, chunk, instance, picks):
        A, b = instance
        state = GreedyState(A, b)
        size = state.m + 1 if chunk == "m + 1" else int(chunk)
        with mock.patch.object(solver, "_CHUNK", size):
            # 0.01 and 2^40 are past the stale-gain cutoff: their memos record no gain
            for p in (0.01, 0.5, 1.0, 2.0, 150.0, 2.0**40, math.inf):
                memo = _PickMemo(p, state.n)
                cur_error = state.empty_error
                in_support = np.zeros(state.n, dtype=bool)
                for _ in range(min(picks, state.n)):
                    j = state.select_best(cur_error, in_support, p, memo)
                    assert j == eager_best_column(state, cur_error, in_support, p), (size, p)
                    cur_error = np.minimum(cur_error, state.e0[:, j])
                    in_support[j] = True

    def test_a_memo_of_another_norm_order_is_refused(self):
        state = GreedyState(A_REF, B_REF)
        with pytest.raises(ValueError, match="memo of a run at norm order 2.0 on 3 columns, asked for 1.0"):
            state.select_best(state.empty_error, np.zeros(state.n, dtype=bool), 1.0, _PickMemo(2.0, state.n))

    def test_select_best_holds_no_m_by_n_transient(self):
        rng = np.random.default_rng(4)
        A, b = rng.normal(0.0, 2.0, (1000, 1000)), rng.normal(0.0, 1.0, 1000)
        state = GreedyState(A, b)
        assert state.e0.T.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            state.e0[0, 0] = 0.0
        for p in (1.0, 2.0, 150.0, math.inf):
            cur_error = state.error_vector_of([])
            in_support = np.zeros(state.n, dtype=bool)
            memo = _PickMemo(p, state.n)
            peaks = []
            tracemalloc.start()
            try:
                for _ in range(8):
                    tracemalloc.reset_peak()
                    base = tracemalloc.get_traced_memory()[0]
                    j = state.select_best(cur_error, in_support, p, memo)
                    peaks.append(tracemalloc.get_traced_memory()[1] - base)
                    assert j == state.select_best(cur_error, in_support, p)  # a fresh memo picks the same
                    cur_error = np.minimum(cur_error, state.e0[:, j])
                    in_support[j] = True
            finally:
                tracemalloc.stop()
            assert max(peaks) <= A.nbytes / 2, (p, max(peaks) / A.nbytes)
            # what the run keeps between picks: the seed block, the gains and the seed's row indices
            kept = [v for v in vars(memo).values() if isinstance(v, np.ndarray)]
            assert sum(v.size for v in kept if v.dtype == np.float64) <= (solver._CHUNK + 1) * state.n
            assert sum(v.size for v in kept if v.dtype != np.float64) <= solver._CHUNK
            assert memo.block.flags.c_contiguous
