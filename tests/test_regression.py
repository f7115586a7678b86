import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tropfit
from tropfit import regression, solver
from tropfit.cli import example1_dataset, example2_dataset, example3_dataset
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
    _Design,
)
from tropfit.solver import FitProblem, GreedyState, Infeasible
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

    def test_exact_dedup_keeps_close_grid_values(self):
        # the origin is a label: every slope set drops exact duplicates only
        for origin in ("explicit", "grid", "gradients"):
            assert SlopeSet(np.array([[1.0], [1.0 + 1e-13]]), origin=origin).size == 2

    def test_a_flat_array_is_a_column(self):
        assert np.array_equal(SlopeSet(np.array([1.0, -2.0])).slopes, [[1.0], [-2.0]])


ABS_MODEL = PwlModel(np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]), p=1, theta=0.0, estimator="sgle")


@pytest.mark.parametrize(
    "call, error, match",
    [
        (lambda: SlopeSet(np.zeros((2, 2, 2))), ShapeError, "K x n slope array"),
        (lambda: SlopeSet(np.zeros((0, 2))), ShapeError, "K x n slope array"),
        (lambda: SlopeSet(np.array([[1.0], [np.inf]])), ValueError, "slopes must be finite"),
        (lambda: grid_slopes([0.0, 0.0], [1.0], 0.5), ShapeError, "same length"),
        (lambda: grid_slopes([0.0, 1.0], [1.0, 0.0], 0.5), ValueError, "hi must be >= lo"),
        (lambda: gradient_slopes(Dataset(np.eye(2), np.zeros(2))), ValueError, "more samples than dimensions"),
        (lambda: evaluate(ABS_MODEL, np.zeros((3, 2))), ShapeError, "points of dimension 2 for a 1-D model"),
        (
            lambda: GreedyState(np.zeros((2, 2)), np.zeros(2)).error_vector_of([2]),
            ShapeError,
            "support indices out of range for 2 columns",
        ),
    ],
    ids=[
        "3-d-slopes",
        "no-slopes",
        "inf-slope",
        "corner-lengths",
        "hi-below-lo",
        "m-equals-n",
        "point-dimension",
        "support-index",
    ],
)
def test_documented_refusals(call, error, match):
    with pytest.raises(error, match=match):
        call()


def reference_dedup(rows):
    """First occurrences under tuple keys, where -0.0 and 0.0 are one key."""
    seen, keep = set(), []
    for i, row in enumerate(rows):
        if tuple(row) not in seen:
            seen.add(tuple(row))
            keep.append(i)
    return keep


@st.composite
def slope_arrays(draw):
    """Slope rows with many repeats, signed zeros among them."""
    k, n = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    values = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e300, 5e-324]), min_size=1, max_size=4))
    return draw(arrays(np.float64, (k, n), elements=st.sampled_from(values)))


class TestSlopeSetDedup:
    @settings(max_examples=300, deadline=None)
    @given(slope_arrays(), st.sampled_from(["explicit", "grid", "gradients"]))
    def test_equals_the_tuple_key_reference(self, rows, origin):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = SlopeSet(rows, origin=origin).slopes
        assert got.tobytes() == rows[reference_dedup(rows)].tobytes()


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
        # an infinite step is refused before 0 * inf is computed
        for step in (0.0, math.inf):
            with pytest.raises(ValueError, match="step must be positive and finite"):
                grid_slopes([0.0], [1.0], step)

    @pytest.mark.parametrize(
        "lo, hi, step",
        [([0.0] * 64, [1.0] * 64, 1.0), ([0.0] * 40, [2.0] * 40, 1.0), ([0.0], [1.0], 1e-320), ([-1e308], [1e308], 1.0)],
        ids=["64-1.0", "40-2.0", "tiny-step", "huge-span"],
    )
    def test_cap_holds_where_int64_count_wraps(self, monkeypatch, lo, hi, step):
        # 2^64 wraps to 0 and 3^40 to a negative count in int64; the last two
        # counts overflow float, which is past any cap
        def no_grid(*axes, **kwargs):
            raise AssertionError("grid built past the cap")

        monkeypatch.setattr(np, "meshgrid", no_grid)
        with pytest.raises(ValueError, match="exceeds cap"):
            grid_slopes(lo, hi, step)

    def test_nonfinite_corner_refused(self):
        with pytest.raises(ValueError, match="finite"):
            grid_slopes([0.0], [math.inf], 1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_equals_the_product_grid_bit_for_bit(self, data):
        dims = data.draw(st.integers(1, 3))
        step = data.draw(st.sampled_from([0.1, 0.25, 1 / 3, 0.7, 1.0, 2.5]))
        lo, hi = [], []
        for _ in range(dims):
            start = data.draw(st.floats(-20, 20))
            lo.append(start)
            # some axes have lo == hi; others end off the step's lattice
            hi.append(start + data.draw(st.sampled_from([0.0, step * data.draw(st.integers(1, 10)), 1.3, 2.71])))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # an axis step below a ulp of lo repeats slopes
            got = grid_slopes(lo, hi, step)
            want = SlopeSet(reference_grid(lo, hi, step), origin="grid")
        assert got.slopes.tobytes() == want.slopes.tobytes()
        assert got.slopes.shape == want.slopes.shape


def reference_grid(lo, hi, step):
    """grid_slopes' first formula: one Python tuple per slope from itertools.product."""
    lo, hi = np.asarray(lo, dtype=np.float64), np.asarray(hi, dtype=np.float64)
    spans = np.floor((hi - lo) / step + 1e-9)
    axes = [lo[d] + step * np.arange(int(c) + 1) for d, c in enumerate(spans)]
    return np.array(list(itertools.product(*axes)), dtype=np.float64)


def merge_near_duplicates(rows):
    """The first of each group of rows equal to 10 significant digits, -0.0 and 0.0 alike."""
    first = {}
    for row in rows:
        first.setdefault(tuple(f"{v + 0.0:.10e}" for v in row), row)
    return np.array(list(first.values()))


def squared_distances(x):
    """The m×m squared distances, summed over coordinates in order; inf past the float range."""
    with np.errstate(over="ignore"):
        d2 = (x[:, None, 0] - x[None, :, 0]) ** 2
        for c in range(1, x.shape[1]):
            d2 += (x[:, None, c] - x[None, :, c]) ** 2
    return d2


def nearest_oracle(x, k):
    """Each point's k nearest points by sorting all of them by (distance, index)."""
    d2 = squared_distances(x)
    return np.array([sorted(range(len(x)), key=lambda j: (d2[i, j], j))[:k] for i in range(len(x))])


def matrix_rank_gradients(data, k):
    """The local gradients of gradient_slopes, unmerged, with a separate
    matrix_rank test before each lstsq, and the count of skipped neighborhoods."""
    n = data.dim
    idx = nearest_oracle(data.x, k)
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
    return slopes, skipped


def matrix_rank_gradient_slopes(data, k):
    """gradient_slopes from matrix_rank_gradients: the reference that the one-SVD form must equal."""
    slopes, skipped = matrix_rank_gradients(data, k)
    if skipped:
        warnings.warn(f"skipped {skipped} rank-deficient neighborhood(s)", stacklevel=2)
    if not slopes:
        raise ValueError("no usable gradient estimates (all neighborhoods degenerate)")
    return SlopeSet(merge_near_duplicates(slopes), origin="gradients")


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

    def test_near_duplicate_gradients_merge_into_one_slope(self):
        # the local fits of an affine function differ in their last bits
        rng = np.random.default_rng(0)
        x = rng.uniform(-1.0, 1.0, (200, 2))
        d = Dataset(x, 0.3 * x[:, 0] - 1.7 * x[:, 1] + 0.1)
        raw, skipped = matrix_rank_gradients(d, 5)
        assert skipped == 0 and len(np.unique(raw, axis=0)) > 100
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the merge leaves no duplicate for SlopeSet to warn of
            s = gradient_slopes(d)
        assert s.size == 1 and s.origin == "gradients"
        assert s.slopes.tobytes() == raw[0].tobytes()  # the first of them
        assert np.allclose(s.slopes, [[0.3, -1.7]], rtol=0, atol=1e-9)

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


@st.composite
def block_edge_points(draw):
    """Points of one to three coordinates, many of them tied, at a block edge
    of the neighbour search: one point, one block, one more, and k up to m."""
    q = regression._KNN_QUERIES
    n = draw(st.integers(1, 3))
    m = draw(st.sampled_from([1, 2, q - 1, q, q + 1, 2 * q, 2 * q + 1, 3 * q - 1]))
    k = draw(st.sampled_from(sorted({1, min(2 * n + 1, m), m})))
    grid = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 3.0])
    x = draw(arrays(np.float64, (m, n), elements=st.one_of(grid, grid, st.floats(-1e3, 1e3))))
    return x, k


def neighbour_distances(x, idx):
    """The distances from each point to the points of its row of idx."""
    d2 = np.zeros(idx.shape)
    for c in range(x.shape[1]):
        d2 += (x[idx, c] - x[:, None, c]) ** 2
    return np.sqrt(d2)


class TestNearest:
    """gradient_slopes' neighbour search against sorting every point by (distance, index)."""

    @settings(max_examples=200, deadline=None)
    @given(degenerate_datasets())
    def test_equals_the_oracle_on_degenerate_points(self, case):
        data, k = case
        assert np.array_equal(regression._nearest(data.x, k), nearest_oracle(data.x, k))

    @settings(max_examples=200, deadline=None)
    @given(block_edge_points())
    def test_equals_the_oracle_at_block_edges(self, case):
        x, k = case
        assert np.array_equal(regression._nearest(x, k), nearest_oracle(x, k))

    def test_equals_the_oracle_on_example3(self):
        x = example3_dataset().x
        assert np.array_equal(regression._nearest(x, 7), nearest_oracle(x, 7))

    @settings(max_examples=100, deadline=None)
    @given(degenerate_datasets())
    def test_distances_are_the_kd_trees(self, case):
        from scipy.spatial import cKDTree  # a reference for the tests only

        data, k = case
        got = neighbour_distances(data.x, regression._nearest(data.x, k))
        assert got.tobytes() == cKDTree(data.x).query(data.x, k=k)[0].tobytes()

    def test_distances_past_the_float_range_read_inf(self):
        # scipy's cKDTree gave such a neighbour the index m
        x = np.array([[-1e308, 0.0], [0.0, 1e308], [1e308, -1e308], [5.0, 5.0], [1e308, 1e308], [0.0, 0.0]])
        data = Dataset(x, np.arange(6.0))
        with np.errstate(over="ignore"):
            assert np.array_equal(regression._nearest(x, 4), nearest_oracle(x, 4))
        assert slopes_outcome(gradient_slopes, data, 4) == slopes_outcome(matrix_rank_gradient_slopes, data, 4)

    def test_distances_are_the_kd_trees_on_many_points(self):
        from scipy.spatial import cKDTree

        rng = np.random.default_rng(3)
        for x in (example3_dataset().x, rng.normal(size=(3000, 3)), np.round(rng.normal(0.0, 3.0, (800, 2)))):
            k = 2 * x.shape[1] + 1
            got = neighbour_distances(x, regression._nearest(x, k))
            assert got.tobytes() == cKDTree(x).query(x, k=k)[0].tobytes()

    def test_gradient_slopes_loads_no_scipy(self):
        # a fresh interpreter on the tropfit under test
        src = str(Path(tropfit.__file__).resolve().parents[1])
        code = (
            "import sys, warnings; warnings.simplefilter('ignore'); "
            "from tropfit.cli import example3_dataset; from tropfit.regression import gradient_slopes; "
            "gradient_slopes(example3_dataset()); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
        assert out.stdout.strip() == "[]"


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


def whole_build(data, slopes):
    return GreedyState(build_design_matrix(data, slopes), data.f)


def state_bytes(state):
    return [v.tobytes() for v in (state.xhat, state.e0, state.empty_error, state.full_error)] + [state.delta]


def block_width(m):
    return max(solver._BUILD_BLOCK // m, 2)


@st.composite
def fit_instances(draw):
    """Points and target values with signed zeros, and K distinct slopes at a
    block edge of the fit build: one slope, one block, one more, or a last
    block of one slope before it is merged."""
    m, dim = draw(st.integers(1, 60)), draw(st.integers(1, 4))
    width = block_width(m)
    K = draw(st.sampled_from([1, 2, width - 1, width, width + 1, 2 * width, 2 * width + 1, 3 * width - 1]))
    grid = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.25, 3.0])
    coords = st.one_of(grid, grid, st.floats(-1e3, 1e3))
    x = draw(arrays(np.float64, (m, dim), elements=coords))
    f = draw(arrays(np.float64, m, elements=coords))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    slopes = rng.choice([0.0, -0.0, 0.125, -0.5, 1.0, -3.0], size=(K, dim))
    if draw(st.booleans()):
        slopes += rng.normal(0.0, 2.0, size=(K, dim))
    slopes[:, 0] = 0.25 * np.arange(K) - 0.125 * K  # distinct rows, so no slope is dropped
    return Dataset(x, f), SlopeSet(slopes)


def papers_instance(example):
    """The points and slopes of one of the paper's three fits."""
    if example == 1:
        return example1_dataset(), grid_slopes([-20.0], [20.0], 0.125)
    if example == 2:
        return example2_dataset(5), grid_slopes([-10.0, -10.0], [10.0, 10.0], 0.25)
    data = example3_dataset()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return data, gradient_slopes(data)


class TestFitBuild:
    """The fit's blocked instance build against the build from the whole design matrix."""

    @settings(max_examples=150, deadline=None)
    @given(fit_instances())
    def test_equals_the_whole_matrix_build(self, instance):
        data, slopes = instance
        state = GreedyState(_Design(data, slopes), data.f)
        ref = whole_build(data, slopes)
        assert state_bytes(state) == state_bytes(ref)
        assert state.empty_error.tobytes() == ref.e0.max(axis=1).tobytes()
        assert state.full_error.tobytes() == ref.e0.min(axis=1).tobytes()
        assert state.delta == float(ref.e0.max())

    # OpenBLAS kernels that round each product: there the blocks are the whole
    # product x @ slopes.T, bit for bit; the AVX-512 kernels may round a
    # block's last columns otherwise
    without_fma = pytest.mark.skipif(
        os.environ.get("OPENBLAS_CORETYPE", "").lower() not in ("prescott", "nehalem", "sandybridge"),
        reason="needs an OpenBLAS kernel without FMA (OPENBLAS_CORETYPE=Prescott)",
    )

    @without_fma
    @settings(max_examples=150, deadline=None)
    @given(fit_instances())
    def test_blocks_are_the_whole_product_without_fma(self, instance):
        data, slopes = instance
        assert build_design_matrix(data, slopes).tobytes() == (data.x @ slopes.slopes.T).tobytes()

    @without_fma
    def test_example3_design_is_the_whole_product_without_fma(self):
        data, slopes = papers_instance(3)
        assert build_design_matrix(data, slopes).tobytes() == (data.x @ slopes.slopes.T).tobytes()

    @pytest.mark.parametrize("example", [1, 2, 3])
    def test_the_papers_designs_are_the_whole_product(self, example):
        # so the paper's fits read the same bits as from x @ slopes.T; example 3's
        # last block of 820 slopes rounds otherwise on AVX-512 kernels, so there
        # the whole product is checked without FMA only
        data, slopes = papers_instance(example)
        state = GreedyState(_Design(data, slopes), data.f)
        assert state_bytes(state) == state_bytes(whole_build(data, slopes))
        if example != 3:
            assert build_design_matrix(data, slopes).tobytes() == (data.x @ slopes.slopes.T).tobytes()

    def test_two_slope_blocks_of_many_points(self):
        # past 2^14 points a block holds two slopes, never one
        rng = np.random.default_rng(4)
        m = solver._BUILD_BLOCK // 2 + 1
        data = Dataset(rng.normal(size=(m, 2)), rng.normal(size=m))
        slopes = SlopeSet(rng.normal(size=(5, 2)))
        assert solver._block_spans(m, 5) == [(0, 2), (2, 5)]
        assert state_bytes(GreedyState(_Design(data, slopes), data.f)) == state_bytes(whole_build(data, slopes))

    def test_no_span_is_a_single_slope(self):
        for m, n in [(1, 1), (3, 2), (500, 6561), (500, 66), (500, 131), (2**15, 3), (2**16, 7)]:
            spans = solver._block_spans(m, n)
            assert spans[0][0] == 0 and spans[-1][1] == n
            assert all(hi == lo2 for (_, hi), (lo2, _) in zip(spans, spans[1:]))
            assert all(hi - lo > 1 for lo, hi in spans) or n == 1

    def test_peak_is_e0_and_a_few_blocks(self):
        rng = np.random.default_rng(0)
        m, K = 300, 2000
        data = Dataset(rng.normal(size=(m, 2)), rng.normal(size=m))
        slopes = SlopeSet(rng.normal(size=(K, 2)))
        tracemalloc.start()
        try:
            state = GreedyState(_Design(data, slopes), data.f)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the whole design matrix would take e0.nbytes more
        block = 8 * m * block_width(m)
        assert peak <= state.e0.nbytes + 4 * block + 64 * (m + K)

    @pytest.mark.parametrize(
        "x, slopes",
        [
            ([[1e300], [1.0], [2.0]], [[1e10], [1.0]]),  # +inf
            ([[1e300], [1.0], [2.0]], [[-1e10], [1.0]]),  # -inf, which would read as an absent entry
            # inf - inf: NaN where BLAS rounds each product, an infinity where it fuses them
            ([[1e300, 1e300], [1.0, 1.0], [2.0, 2.0]], [[1e10, -1e10], [1.0, 1.0]]),
        ],
    )
    def test_a_product_that_overflows_is_refused(self, x, slopes):
        data, slopes = Dataset(x, [0.0, 1.0, 2.0]), SlopeSet(np.array(slopes))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning escapes
            for build in (lambda: fit(data, slopes, FitProblem(None, None, p=1, theta=1.0)),
                          lambda: build_design_matrix(data, slopes)):
                with pytest.raises(ValueError, match="rescale x or the slopes") as info:
                    build()
                assert type(info.value) is ValueError


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

    def test_flat_slopes_are_a_column(self):
        m = PwlModel(np.array([1.0, -1.0]), np.array([0.0, 0.0]), p=1, theta=0.0, estimator="sgle")
        assert m.slopes.shape == (2, 1)
        assert np.array_equal(m.slopes, [[1.0], [-1.0]])

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
        # as "slopes": [], which holds no width
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
