import importlib
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import tropfit
from tropfit.tropical import (
    ShapeError,
    as_matrix,
    as_vector,
    maxplus_product,
    principal_solution,
    project_on_support,
)

NEG = -np.inf


# The semiring's two additions and the min-plus product, as the library
# first had them: the references the instance build and principal_solution
# are checked against.
def reference_maxplus_add(a, b):
    """Elementwise a + b with -inf absorbing: (-inf) + (+inf) = -inf."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    bottom = np.isneginf(a) | np.isneginf(b)
    with np.errstate(invalid="ignore"):
        return np.where(bottom, -np.inf, a + b)


def reference_minplus_add(a, b):
    """Elementwise a + b with +inf absorbing: (-inf) + (+inf) = +inf."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    top = np.isposinf(a) | np.isposinf(b)
    with np.errstate(invalid="ignore"):
        return np.where(top, np.inf, a + b)


def reference_minplus_product(A, x):
    """Min-plus matrix-vector product: result_i = min_k (A_ik + x_k), +inf absorbing."""
    A = as_matrix(A)
    x = as_vector(x)
    if A.shape[1] != x.shape[0]:
        raise ShapeError(f"matrix has {A.shape[1]} columns, vector has length {x.shape[0]}")
    return reference_minplus_add(A, x[np.newaxis, :]).min(axis=1)


def reference_support(x):
    """Indices where ``x`` is not -inf."""
    x = np.asarray(x, dtype=np.float64)
    return np.nonzero(~np.isneginf(x))[0]


def reference_principal_solution(A, b):
    """principal_solution with its checks as separate scans, one per property:
    a NaN scan of A, then b's, then a +inf scan of A, in the library's order."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ShapeError(f"expected a non-empty 2-D matrix, got shape {A.shape}")
    if np.isnan(A).any():
        raise ShapeError("matrix contains NaN; entries must be real or +/-inf")
    b = as_vector(b)
    if A.shape[0] != b.shape[0]:
        raise ShapeError(f"matrix has {A.shape[0]} rows, vector has length {b.shape[0]}")
    if not np.isfinite(b).all():
        raise ValueError("right-hand side must be finite for the principal solution")
    if np.isposinf(A).any():
        raise ValueError("matrix entries must lie in R ∪ {-inf}")
    try:
        with np.errstate(over="raise"):
            residuals = b[:, np.newaxis] - A
    except FloatingPointError:
        raise ValueError("b_i - A_ij overflows a float for some finite entries; rescale A and b") from None
    xhat = residuals.min(axis=0)
    xhat[np.isposinf(xhat)] = -np.inf
    return xhat


# the worked instance used throughout: A x = b with known principal solution
A_REF = np.array([[0.0, 5.0, 2.0], [4.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
B_REF = np.array([3.0, 1.0, 0.0])
XHAT_REF = np.array([-3.0, -2.0, 0.0])


def finite_matrices(max_side=5, lo=-50, hi=50):
    side = st.integers(1, max_side)
    return st.tuples(side, side).flatmap(
        lambda mn: arrays(
            np.float64,
            mn,
            elements=st.floats(lo, hi, allow_nan=False, allow_infinity=False),
        )
    )


class TestAdds:
    def test_maxplus_bottom_absorbs(self):
        assert reference_maxplus_add(NEG, 7.0) == NEG
        assert reference_maxplus_add(NEG, np.inf) == NEG
        assert reference_maxplus_add(np.inf, 3.0) == np.inf

    def test_minplus_top_absorbs(self):
        assert reference_minplus_add(np.inf, 7.0) == np.inf
        assert reference_minplus_add(NEG, np.inf) == np.inf
        assert reference_minplus_add(NEG, 3.0) == NEG

    def test_no_nan_escapes(self):
        grid = np.array([NEG, -1.0, 0.0, 2.0, np.inf])
        xs, ys = np.meshgrid(grid, grid)
        assert not np.isnan(reference_maxplus_add(xs, ys)).any()
        assert not np.isnan(reference_minplus_add(xs, ys)).any()


class TestProducts:
    def test_worked_instance(self):
        # A (max-plus) xhat reproduces b exactly on this instance
        assert np.array_equal(maxplus_product(A_REF, XHAT_REF), B_REF)

    def test_maxplus_identity(self):
        ident = np.full((3, 3), NEG)
        np.fill_diagonal(ident, 0.0)
        x = np.array([3.0, NEG, -1.5])
        assert np.array_equal(maxplus_product(ident, x), x)

    def test_all_terms_bottom(self):
        out = maxplus_product(np.array([[1.0, NEG]]), np.array([NEG, 7.0]))
        assert np.array_equal(out, [NEG])

    def test_bottom_absorbs_top(self):
        # (-inf) + (+inf) is -inf, not NaN, in the product's inline add
        out = maxplus_product(np.array([[NEG, 0.0], [NEG, NEG]]), np.array([np.inf, 1.0]))
        assert np.array_equal(out, [1.0, NEG])
        assert np.array_equal(out, reference_maxplus_add(np.array([[NEG, 0.0], [NEG, NEG]]), [np.inf, 1.0]).max(axis=1))

    def test_minplus_worked_instance(self):
        A = np.array([[0.0, -4.0, 0.0], [-5.0, -1.0, -1.0], [-2.0, 0.0, 0.0]])
        out = reference_minplus_product(A, np.array([3.0, 1.0, 0.0]))
        assert np.array_equal(out, [-3.0, -2.0, 0.0])

    def test_minplus_identity(self):
        ident = np.full((2, 2), np.inf)
        np.fill_diagonal(ident, 0.0)
        x = np.array([4.0, -2.0])
        assert np.array_equal(reference_minplus_product(ident, x), x)

    def test_minplus_row(self):
        assert np.array_equal(reference_minplus_product(np.array([[0.0, 0.0]]), np.array([2.0, 5.0])), [2.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            maxplus_product(A_REF, np.array([1.0, 2.0]))
        with pytest.raises(ShapeError):
            reference_minplus_product(A_REF, np.array([1.0, 2.0]))

    def test_rejects_nan(self):
        with pytest.raises(ShapeError):
            maxplus_product(np.array([[np.nan]]), np.array([1.0]))

    @settings(max_examples=50, deadline=None)
    @given(finite_matrices())
    def test_monotone_in_x(self, A):
        rng = np.random.default_rng(0)
        x = rng.normal(size=A.shape[1])
        y = x + rng.uniform(0, 3, size=A.shape[1])
        assert (maxplus_product(A, x) <= maxplus_product(A, y)).all()


# entries that make an operand invalid, alone or together: NaN, +inf, and
# (in b) -inf; and magnitudes whose b_i - A_ij overflows
ODD_ENTRIES = [np.nan, np.inf, NEG, 1e308, -1e308]


@st.composite
def operands(draw):
    """(A, b) pairs, mostly invalid: odd entries, all-(-inf) columns, rows
    that differ, and A or b of the wrong rank or empty."""
    values = st.sampled_from([0.0, -1.5, 2.0, 7.25, *ODD_ENTRIES])
    if draw(st.integers(0, 3)):
        shape = draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
    else:
        shape = draw(st.sampled_from([(), (0,), (3,), (0, 3), (3, 0), (2, 2, 2)]))
    A = draw(arrays(np.float64, shape, elements=values))
    if A.ndim == 2 and A.size and draw(st.booleans()):
        A[:, draw(st.integers(0, A.shape[1] - 1))] = NEG
    m = A.shape[0] if A.ndim else 1
    if draw(st.integers(0, 3)):
        b_shape = (m,)
    else:
        b_shape = draw(st.sampled_from([(m + 1,), (abs(m - 1),), (m, 1), ()]))
    return A, draw(arrays(np.float64, b_shape, elements=values))


def outcome(solve, A, b):
    """What ``solve`` gives: the bytes of its xhat, or its exception's type and message."""
    try:
        return solve(A, b).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


class TestPrincipalSolution:
    def test_worked_instance(self):
        assert np.array_equal(principal_solution(A_REF, B_REF), XHAT_REF)

    def test_one_by_one(self):
        xhat = principal_solution(np.array([[2.0]]), np.array([5.0]))
        assert np.array_equal(xhat, [3.0])
        assert np.array_equal(maxplus_product(np.array([[2.0]]), xhat), [5.0])

    def test_bottom_column_clamped(self):
        A = np.array([[2.0, NEG], [1.0, NEG]])
        xhat = principal_solution(A, np.array([5.0, 3.0]))
        assert xhat[1] == NEG  # residuation gives +inf here; clamped
        assert xhat[0] == 2.0

    def test_rejects_nonfinite_b(self):
        with pytest.raises(ValueError):
            principal_solution(A_REF, np.array([1.0, NEG, 0.0]))
        with pytest.raises(ValueError):
            principal_solution(A_REF, np.array([1.0, np.inf, 0.0]))

    def test_rejects_an_overflowing_residual(self):
        # b_0 - A_00 = -2e308 overflows; column 0 is finite, so its -inf would be wrong
        with pytest.raises(ValueError, match="overflows"):
            principal_solution(np.array([[1e308, 0.0], [1e308, -1.0]]), np.array([-1e308, -1e308]))
        # b - (-inf) = +inf is the bottom column's, not an overflow
        xhat = principal_solution(np.array([[NEG, 0.0]]), np.array([1e308]))
        assert xhat.tolist() == [NEG, 1e308]

    def test_rejects_top_in_matrix(self):
        with pytest.raises(ValueError):
            principal_solution(np.array([[np.inf]]), np.array([1.0]))

    @settings(max_examples=60, deadline=None)
    @given(finite_matrices())
    def test_residuation_adjunction(self, A):
        rng = np.random.default_rng(1)
        b = rng.normal(size=A.shape[0])
        xhat = principal_solution(A, b)
        tol = 1e-9
        assert (maxplus_product(A, xhat) <= b + tol).all()
        # any feasible candidate sits below xhat (greatest-solution property)
        for _ in range(5):
            x = xhat + rng.normal(0, 1, size=xhat.shape)
            if (maxplus_product(A, x) <= b).all():
                assert (x <= xhat + tol).all()


    @settings(max_examples=400, deadline=None)
    @given(operands())
    def test_checks_as_the_separate_scans(self, ab):
        A, b = ab
        assert outcome(principal_solution, A, b) == outcome(reference_principal_solution, A, b)

    def test_each_check_answers_in_order(self):
        # one instance breaking every later check too, so each case names the first
        bad_b = np.array([np.inf, 0.0])
        cases = [
            (np.array([1.0, np.nan]), bad_b, ShapeError, "2-D"),
            (np.array([[np.nan, np.inf]]), bad_b, ShapeError, "NaN"),
            (np.array([[np.inf, 0.0]]), np.array([np.nan]), ShapeError, "vector contains NaN"),
            (np.array([[np.inf, 0.0]]), bad_b, ShapeError, "rows"),
            (np.array([[np.inf, 0.0]]), np.array([NEG]), ValueError, "right-hand side"),
            (np.array([[np.inf, -1e308]]), np.array([1e308]), ValueError, "R ∪ {-inf}"),
            (np.array([[NEG, -1e308]]), np.array([1e308]), ValueError, "overflows"),
        ]
        for A, b, kind, words in cases:
            got = outcome(principal_solution, A, b)
            assert got[0] is kind and words in got[1], (A, b, got)
            assert got == outcome(reference_principal_solution, A, b)


class TestProjection:
    def test_restricts(self):
        out = project_on_support(XHAT_REF, [2])
        assert np.array_equal(out, [NEG, NEG, 0.0])

    def test_full_and_empty(self):
        assert np.array_equal(project_on_support(XHAT_REF, [0, 1, 2]), XHAT_REF)
        assert np.array_equal(project_on_support(XHAT_REF, []), [NEG, NEG, NEG])

    def test_out_of_range(self):
        with pytest.raises(ShapeError):
            project_on_support(XHAT_REF, [3])
        with pytest.raises(ShapeError):
            project_on_support(XHAT_REF, [-1])

    def test_support_intersection(self):
        v = np.array([1.0, NEG, 2.0, NEG])
        out = project_on_support(v, [0, 1, 3])
        assert set(reference_support(out)) == set(reference_support(v)) & {0, 1, 3}


def test_support_indices():
    assert reference_support(np.array([NEG, 0.0, NEG, -4.0])).tolist() == [1, 3]


def test_every_exported_name_resolves():
    # __main__ runs the CLI on import, and exports nothing
    names = ["tropfit"] + [f"tropfit.{m.name}" for m in pkgutil.iter_modules(tropfit.__path__)]
    names.remove("tropfit.__main__")
    exported = {name: importlib.import_module(name) for name in names}
    exported = {name: module for name, module in exported.items() if hasattr(module, "__all__")}
    assert {"tropfit", "tropfit.tropical", "tropfit.solver", "tropfit.regression", "tropfit.io_formats"} <= set(exported)
    for name, module in exported.items():
        assert [n for n in module.__all__ if not hasattr(module, n)] == [], name
