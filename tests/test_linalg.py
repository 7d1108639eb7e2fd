import numpy as np
import pytest

from rlsol.errors import DimensionError, FactorizationError, InputError
from rlsol.linalg import as_array, as_matrix, as_vector, cholesky_lower, spd_solve


class TestSpdSolve:
    def test_scaled_identity(self):
        assert np.allclose(spd_solve(2 * np.eye(3), np.eye(3)), 0.5 * np.eye(3))

    def test_diagonal(self):
        x = spd_solve(np.diag([1.0, 4.0]), np.array([[1.0], [8.0]]))
        assert np.allclose(x, [[1.0], [2.0]])

    def test_random_spd_residual(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            m = rng.standard_normal((6, 6))
            a = m.T @ m + np.eye(6)
            b = rng.standard_normal((6, 2))
            x = spd_solve(a, b)
            assert np.linalg.norm(a @ x - b) <= 1e-10 * (1 + np.linalg.norm(b))

    @pytest.mark.parametrize(
        "a, pivot",
        [
            pytest.param(np.diag([-1.0, 1.0, 2.0]), 0, id="pivot0-diagonal"),
            pytest.param(np.diag([1.0, -1.0, 2.0]), 1, id="pivot1-diagonal"),
            # leading 2x2 minor is 1 - 4 < 0
            pytest.param(
                np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                1,
                id="pivot1-indefinite",
            ),
            # rank 2: the third column is the sum of the first two, and the
            # last pivot 2 - 1 - 1 is exactly zero
            pytest.param(
                np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 2.0]]),
                2,
                id="pivot2-singular",
            ),
        ],
    )
    def test_non_spd_reports_pivot(self, a, pivot):
        with pytest.raises(FactorizationError) as exc:
            spd_solve(a, np.eye(3))
        assert exc.value.pivot_index == pivot

    def test_asymmetric_rejected(self):
        a = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(InputError):
            spd_solve(a, np.eye(2))


class TestCholesky:
    def test_matches_numpy(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((5, 5))
        a = m.T @ m + np.eye(5)
        low = cholesky_lower(a)
        assert np.allclose(low, np.linalg.cholesky(a), atol=1e-10)
        assert not np.triu(low, 1).any()


def test_as_matrix_rejects_vectors():
    with pytest.raises(DimensionError):
        as_matrix(np.ones(3))


def test_as_matrix_rejects_non_finite():
    with pytest.raises(InputError):
        as_matrix(np.array([[np.nan, 0.0]]))


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_as_array_one_rule(ndim):
    good = np.ones((2,) * ndim, dtype=np.int64)
    out = as_array(good, "a", ndim)
    assert out.dtype == np.float64 and out.shape == good.shape
    with pytest.raises(DimensionError, match="a must be"):
        as_array(np.ones((2,) * (ndim + 1)), "a", ndim)
    with pytest.raises(DimensionError, match="positive dimensions"):
        as_array(np.ones((2,) * (ndim - 1) + (0,)), "a", ndim)
    bad = np.ones((2,) * ndim)
    bad.flat[1] = np.inf
    with pytest.raises(InputError, match="a contains non-finite entries"):
        as_array(bad, "a", ndim)


def test_as_vector_flattens_and_rejects_empty():
    assert as_vector(np.ones((2, 3)), "v").shape == (6,)
    with pytest.raises(DimensionError, match="positive dimensions"):
        as_vector(np.ones((2, 0)), "v")
