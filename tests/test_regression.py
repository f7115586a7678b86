import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tropfit.regression import (
    Dataset,
    PwlModel,
    SlopeSet,
    build_design_matrix,
    evaluate,
    fit,
    gradient_slopes,
    grid_slopes,
    score,
)
from tropfit.solver import FitProblem, Infeasible
from tropfit.tropical import ShapeError

NEG = -np.inf


def line_data(slope=1.0, intercept=0.0, points=20):
    x = np.linspace(-3, 3, points)
    return Dataset(x, slope * x + intercept)


class TestDataset:
    def test_one_dimensional_promoted(self):
        d = Dataset([1.0, 2.0], [3.0, 4.0])
        assert d.x.shape == (2, 1)
        assert d.dim == 1 and len(d) == 2

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset([1.0, np.inf], [0.0, 0.0])

    def test_rejects_mismatch(self):
        with pytest.raises(ShapeError):
            Dataset(np.zeros((3, 2)), np.zeros(2))


class TestSlopeSet:
    def test_duplicate_collapse_warns(self):
        with pytest.warns(UserWarning, match="duplicate"):
            s = SlopeSet(np.array([[1.0], [2.0], [1.0]]))
        assert s.size == 2
        assert np.array_equal(s.slopes[:, 0], [1.0, 2.0])  # first occurrence order

    def test_gradient_tolerant_dedup(self):
        with pytest.warns(UserWarning, match="duplicate"):
            s = SlopeSet(np.array([[1.0], [1.0 + 1e-13]]), origin="gradients")
        assert s.size == 1

    def test_exact_dedup_keeps_close_grid_values(self):
        s = SlopeSet(np.array([[1.0], [1.0 + 1e-13]]), origin="grid")
        assert s.size == 2


class TestGridSlopes:
    def test_degenerate_interval(self):
        s = grid_slopes([0.0], [0.0], 0.5)
        assert s.size == 1 and s.slopes[0, 0] == 0.0

    def test_example_counts(self):
        assert grid_slopes([-20.0], [20.0], 0.125).size == 321
        assert grid_slopes([-10.0, -10.0], [10.0, 10.0], 0.25).size == 81**2

    def test_cap_refused_with_suggestion(self):
        with pytest.raises(ValueError, match="gradient_slopes"):
            grid_slopes([-10.0] * 4, [10.0] * 4, 0.25)

    def test_bad_step(self):
        with pytest.raises(ValueError):
            grid_slopes([0.0], [1.0], 0.0)

    @pytest.mark.parametrize(
        "lo, hi, step",
        [([0.0] * 64, [1.0] * 64, 1.0), ([0.0] * 40, [2.0] * 40, 1.0), ([0.0], [1.0], 1e-320), ([-1e308], [1e308], 1.0)],
        ids=["64-1.0", "40-2.0", "tiny-step", "huge-span"],
    )
    def test_cap_holds_where_int64_count_wraps(self, monkeypatch, lo, hi, step):
        # 2^64 wraps to 0 and 3^40 to a negative count in int64; the last two
        # counts overflow float, which is past any cap
        def no_grid(*axes):
            raise AssertionError("grid built past the cap")

        monkeypatch.setattr(itertools, "product", no_grid)
        with pytest.raises(ValueError, match="exceeds cap"):
            grid_slopes(lo, hi, step)

    def test_nonfinite_corner_refused(self):
        with pytest.raises(ValueError, match="finite"):
            grid_slopes([0.0], [math.inf], 1.0)


def matrix_rank_gradient_slopes(data, k):
    """gradient_slopes with a separate matrix_rank test before each lstsq:
    the reference that the one-SVD form must equal."""
    from scipy.spatial import cKDTree

    n = data.dim
    _, idx = cKDTree(data.x).query(data.x, k=k)
    slopes, skipped = [], 0
    design = np.empty((k, n + 1))
    design[:, n] = 1.0
    for nb in idx:
        design[:, :n] = data.x[nb]
        if np.linalg.matrix_rank(design) < n + 1:
            skipped += 1
            continue
        coef, *_ = np.linalg.lstsq(design, data.f[nb], rcond=None)
        slopes.append(coef[:n])
    if skipped:
        warnings.warn(f"skipped {skipped} rank-deficient neighborhood(s)", stacklevel=2)
    if not slopes:
        raise ValueError("no usable gradient estimates (all neighborhoods degenerate)")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return SlopeSet(np.array(slopes), origin="gradients")


@st.composite
def degenerate_datasets(draw):
    """Small datasets with duplicated, collinear or rounded points, and a neighborhood size."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n + 1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(0.0, draw(st.sampled_from([1e-3, 1.0, 1e3])), (m, n))
    kind = draw(st.sampled_from(["duplicated", "collinear", "rounded", "general"]))
    if kind == "duplicated":
        x[rng.integers(0, m, m // 2 + 1)] = x[0]
    elif kind == "collinear":
        x = np.outer(rng.normal(size=m), rng.normal(size=n)) + rng.normal(size=n)
    elif kind == "rounded":
        x = np.round(x)
    return Dataset(x, rng.normal(size=m)), min(draw(st.integers(n + 1, 2 * n + 3)), m)


def slopes_outcome(make, data, k):
    """The slopes' bits, or the error, with the warnings raised on the way."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = make(data, k).slopes.tobytes()
        except ValueError as exc:
            result = str(exc)
    return result, [str(w.message) for w in caught]


class TestGradientSlopes:
    def test_recovers_affine_exactly(self):
        d = line_data(2.0, 1.0)
        s = gradient_slopes(d, k_neighbors=4)
        assert s.size == 1
        assert s.slopes[0, 0] == pytest.approx(2.0, abs=1e-9)

    def test_symmetric_quadratic_center(self):
        x = np.linspace(-1, 1, 21)  # includes 0 with symmetric neighbors
        d = Dataset(x, x**2)
        s = gradient_slopes(d, k_neighbors=3)
        assert np.abs(s.slopes).min() <= 1e-9

    def test_log_sum_exp_gradients_in_simplex(self):
        # on a regular grid the estimates track the softmax gradient, whose
        # components are non-negative and sum to one
        import itertools

        from scipy.special import logsumexp

        v = np.arange(-3.0, 4.0)
        pts = np.array(list(itertools.product(v, v, v)))
        d = Dataset(pts, logsumexp(pts, axis=1))
        s = gradient_slopes(d)
        deviation = np.abs(s.slopes.sum(axis=1) - 1.0)
        # asymmetric boundary neighborhoods overshoot; interior fits are tight
        assert (s.slopes >= -0.1).all()
        assert deviation.max() <= 0.3
        assert np.median(deviation) <= 0.02

    def test_degenerate_neighborhood_skipped(self):
        # duplicated x locations make every neighborhood rank-deficient
        x = np.array([[0.0], [0.0], [0.0], [1.0]])
        d = Dataset(x, np.array([0.0, 0.0, 0.0, 1.0]))
        with pytest.warns(UserWarning, match="rank-deficient"):
            s = gradient_slopes(d, k_neighbors=2)
        assert s.size >= 1

    def test_requires_enough_points(self):
        with pytest.raises(ValueError):
            gradient_slopes(Dataset(np.zeros((2, 3)), np.zeros(2)))

    @settings(max_examples=200, deadline=None)
    @given(degenerate_datasets())
    def test_one_svd_equals_the_matrix_rank_reference(self, case):
        data, k = case
        assert slopes_outcome(gradient_slopes, data, k) == slopes_outcome(matrix_rank_gradient_slopes, data, k)


class TestDesignMatrix:
    def test_hand_example(self):
        d = Dataset([-2.0, 0.0, 2.0], [0.0, 0.0, 0.0])
        s = SlopeSet(np.array([[-1.0], [1.0]]))
        assert np.array_equal(build_design_matrix(d, s), [[2, -2], [0, 0], [-2, 2]])

    def test_single_point_single_slope(self):
        d = Dataset(np.array([[3.0, 1.0]]), [0.0])
        s = SlopeSet(np.array([[2.0, -1.0]]))
        assert np.array_equal(build_design_matrix(d, s), [[5.0]])

    def test_example1_first_row(self):
        x = np.linspace(-2, 2, 100)
        d = Dataset(x, np.zeros(100))
        s = grid_slopes([-20.0], [20.0], 0.125)
        A = build_design_matrix(d, s)
        assert A.shape == (100, 321)
        assert A[0, 0] == -20 * x[0] and A[0, 1] == -19.875 * x[0]

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            build_design_matrix(line_data(), SlopeSet(np.eye(2, 3)))


class TestFitEvaluateScore:
    def test_line_fits_exactly_with_one_region(self):
        d = line_data(1.0, 0.0)
        s = SlopeSet(np.array([[0.0], [1.0], [2.0]]))
        m = fit(d, s, FitProblem(None, None, p=2, theta=0.0))
        assert m.support_size == 1
        assert score(m, d).rms == 0.0
        assert score(m, d).max_abs == 0.0

    def test_abs_model_evaluation(self):
        m = PwlModel(np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]), p=1, theta=0.0, estimator="sgle")
        assert evaluate(m, [3.0]) == 3.0
        assert evaluate(m, [-2.5]) == 2.5
        assert np.array_equal(evaluate(m, [[1.0], [-1.0]]), [1.0, 1.0])

    def test_flat_array_is_a_column_for_a_1d_model(self):
        m = PwlModel(np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]), p=1, theta=0.0, estimator="sgle")
        x = np.linspace(-1, 1, 5)
        assert np.array_equal(evaluate(m, x), np.abs(x))
        assert np.array_equal(evaluate(m, x), evaluate(m, x[:, np.newaxis]))
        m2 = PwlModel(np.array([[1.0, 0.0]]), np.array([0.0]), p=1, theta=0.0, estimator="sgle")
        assert evaluate(m2, [3.0, 5.0]) == 3.0

    def test_pruned_region_never_wins(self):
        m = PwlModel(np.array([[1.0], [10.0]]), np.array([0.0, NEG]), p=1, theta=0.0, estimator="sgle")
        assert evaluate(m, [5.0]) == 5.0

    def test_all_pruned_errors(self):
        m = PwlModel(np.array([[1.0]]), np.array([NEG]), p=1, theta=0.0, estimator="sgle")
        with pytest.raises(ValueError, match="no active region"):
            evaluate(m, [0.0])

    @pytest.mark.parametrize("width", [1, 2])
    def test_model_without_pieces_is_refused(self, width):
        # as SlopeSet refuses an empty slope array; write_model would write it
        # as "slopes": [], which reads back as a 1-D model
        with pytest.raises(ShapeError):
            PwlModel(np.zeros((0, width)), np.zeros(0), p=1, theta=0.0, estimator="sgle")

    @pytest.mark.parametrize(
        "slopes, intercepts, estimator, match",
        [
            ([[np.inf]], [0.0], "sgle", "slopes must be finite"),
            ([[1.0]], [np.nan], "sgle", "NaN"),
            ([[1.0]], [0.0], "bogus", "estimator"),
        ],
        ids=["inf-slope", "nan-intercept", "unknown-estimator"],
    )
    def test_model_that_cannot_be_written_and_read_back_is_refused(self, slopes, intercepts, estimator, match):
        with pytest.raises(ValueError, match=match):
            PwlModel(np.array(slopes), np.array(intercepts), p=1, theta=0.0, estimator=estimator)

    def test_constant_model_rms(self):
        d = line_data(0.0, 0.0, points=5)
        m = PwlModel(np.array([[0.0]]), np.array([2.0]), p=1, theta=0.0, estimator="sgle")
        assert score(m, d).rms == pytest.approx(2.0)

    def test_score_matches_solver_error(self):
        d = line_data(1.0, 0.5, points=40)
        dd = Dataset(d.x, d.f + 0.05 * d.x[:, 0] ** 2)
        s = SlopeSet(np.array([[0.5], [1.0], [1.5]]))
        m = fit(dd, s, FitProblem(None, None, p=2, theta=1.0))
        from tropfit.regression import build_design_matrix
        from tropfit.solver import greedy_sparse_solve

        sol = greedy_sparse_solve(FitProblem(build_design_matrix(dd, s), dd.f, p=2, theta=1.0))
        assert score(m, dd).max_abs == sol.error_inf

    def test_loose_budget_prunes_everything(self):
        d = line_data(1.0)
        s = SlopeSet(np.array([[0.0], [1.0]]))
        m = fit(d, s, FitProblem(None, None, p=1, theta=1e9))
        assert m.support_size == 0
        assert m.rms is None and m.max_abs is None
        with pytest.raises(ValueError, match="no active region"):
            evaluate(m, [0.0])

    def test_infeasible_propagates(self):
        d = line_data(1.0)
        s = SlopeSet(np.array([[0.0]]))  # constant models cannot be within 0.01 of a line
        with pytest.raises(Infeasible):
            fit(d, s, FitProblem(None, None, p=2, theta=0.01))


class TestModelProperties:
    def _noisy_fit(self, estimator="sgle"):
        rng = np.random.default_rng(4)
        x = rng.uniform(-2, 2, size=(60, 2))
        f = (x**2).sum(axis=1)
        d = Dataset(x, f)
        s = grid_slopes([-4.0, -4.0], [4.0, 4.0], 0.5)
        return d, fit(d, s, FitProblem(None, None, p=2, theta=1.0, estimator=estimator))

    def test_sgle_underestimates_training_data(self):
        d, m = self._noisy_fit()
        assert (evaluate(m, d.x) <= d.f + 1e-9).all()

    def test_convexity_of_model(self):
        d, m = self._noisy_fit()
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b2 = rng.uniform(-3, 3, size=(2, 2))
            lam = rng.uniform()
            mid = evaluate(m, lam * a + (1 - lam) * b2)
            assert mid <= lam * evaluate(m, a) + (1 - lam) * evaluate(m, b2) + 1e-9

    def test_smmae_halves_max_error(self):
        d, sgle = self._noisy_fit("sgle")
        _, smmae = self._noisy_fit("smmae")
        assert smmae.max_abs == pytest.approx(0.5 * sgle.max_abs, abs=1e-12)
        assert smmae.support_size == sgle.support_size

    def test_monotone_budget_support_growth(self):
        d = line_data(points=30)
        dd = Dataset(d.x, d.f + 0.1 * d.x[:, 0] ** 2)
        s = grid_slopes([-3.0], [3.0], 0.25)
        thetas = [3.0, 2.0, 1.0, 0.75, 0.5, 0.4, 0.35]  # all above the full-support error
        sizes = [
            fit(dd, s, FitProblem(None, None, p=1, theta=t)).support_size for t in thetas
        ]
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
