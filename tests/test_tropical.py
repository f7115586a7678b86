import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tropfit.tropical import (
    ShapeError,
    maxplus_add,
    maxplus_product,
    minplus_add,
    minplus_product,
    principal_solution,
    project_on_support,
    support,
)

NEG = -np.inf

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
        assert maxplus_add(NEG, 7.0) == NEG
        assert maxplus_add(NEG, np.inf) == NEG
        assert maxplus_add(np.inf, 3.0) == np.inf

    def test_minplus_top_absorbs(self):
        assert minplus_add(np.inf, 7.0) == np.inf
        assert minplus_add(NEG, np.inf) == np.inf
        assert minplus_add(NEG, 3.0) == NEG

    def test_no_nan_escapes(self):
        grid = np.array([NEG, -1.0, 0.0, 2.0, np.inf])
        xs, ys = np.meshgrid(grid, grid)
        assert not np.isnan(maxplus_add(xs, ys)).any()
        assert not np.isnan(minplus_add(xs, ys)).any()


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

    def test_minplus_worked_instance(self):
        A = np.array([[0.0, -4.0, 0.0], [-5.0, -1.0, -1.0], [-2.0, 0.0, 0.0]])
        out = minplus_product(A, np.array([3.0, 1.0, 0.0]))
        assert np.array_equal(out, [-3.0, -2.0, 0.0])

    def test_minplus_identity(self):
        ident = np.full((2, 2), np.inf)
        np.fill_diagonal(ident, 0.0)
        x = np.array([4.0, -2.0])
        assert np.array_equal(minplus_product(ident, x), x)

    def test_minplus_row(self):
        assert np.array_equal(minplus_product(np.array([[0.0, 0.0]]), np.array([2.0, 5.0])), [2.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            maxplus_product(A_REF, np.array([1.0, 2.0]))
        with pytest.raises(ShapeError):
            minplus_product(A_REF, np.array([1.0, 2.0]))

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
        assert set(support(out)) == set(support(v)) & {0, 1, 3}


def test_support_indices():
    assert support(np.array([NEG, 0.0, NEG, -4.0])).tolist() == [1, 3]
