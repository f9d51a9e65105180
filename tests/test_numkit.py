"""Factored SPD solver, vector validation and Neumann-expansion tests."""

import numpy as np
import pytest

from coresel.numkit import (
    SOLVE_REL_TOLERANCE,
    CholeskySolver,
    SolveError,
    as_vector,
)


def random_spd(rng, n, eig_range=(0.5, 2.0)):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = rng.uniform(*eig_range, size=n)
    return (Q * eigs) @ Q.T


def hilbert(n):
    return 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)


class TestCholeskySolver:
    def test_diagonal_system(self):
        x = CholeskySolver(np.diag([2.0, 4.0])).solve([2.0, 4.0])
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-12)

    def test_damped_diagonal_closed_form(self):
        x = CholeskySolver(np.diag([2.0, 4.0]), damping=0.01).solve([2.0, 4.0])
        np.testing.assert_allclose(x, [2.0 / 2.01, 4.0 / 4.01], atol=1e-12)

    def test_zero_rhs_gives_exact_zero(self):
        x = CholeskySolver(np.diag([2.0, 4.0])).solve([0.0, 0.0])
        assert np.array_equal(x, [0.0, 0.0])

    def test_matches_dense_inverse_on_random_spd(self):
        rng = np.random.default_rng(7)
        for n in (1, 2, 10, 50, 130):  # 50 and 130 take the blocked inverse
            A = random_spd(rng, n, eig_range=(1e-3, 10.0))
            solver = CholeskySolver(A)
            inverse = np.linalg.inv(A)
            for _ in range(3):
                b = rng.normal(size=n)
                np.testing.assert_allclose(solver.solve(b), inverse @ b, rtol=1e-9, atol=1e-12)

    def test_solutions_meet_the_residual_tolerance(self):
        rng = np.random.default_rng(3)
        A = random_spd(rng, 12, eig_range=(1e-4, 10.0))
        b = rng.normal(size=12)
        x = CholeskySolver(A).solve(b)
        assert np.linalg.norm(A @ x - b) <= SOLVE_REL_TOLERANCE * np.linalg.norm(b)

    def test_residual_failure_names_the_residual(self):
        # the 13x13 Hilbert matrix (condition ~4e18) still factors in
        # float64, but no solution reaches the residual tolerance
        with pytest.raises(SolveError, match="residual .* exceeds"):
            CholeskySolver(hilbert(13)).solve(np.ones(13))

    def test_non_positive_definite_rejected(self):
        with pytest.raises(SolveError, match="not positive definite"):
            CholeskySolver(np.diag([1.0, 0.0]))
        with pytest.raises(SolveError, match="not positive definite"):
            CholeskySolver(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            CholeskySolver(np.diag([1.0, 2.0])).solve([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="square"):
            CholeskySolver(np.ones((2, 3)))

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        A = random_spd(rng, 8)
        b = rng.normal(size=8)
        assert np.array_equal(CholeskySolver(A).solve(b), CholeskySolver(A.copy()).solve(b))

    def test_matrix_is_read_only(self):
        solver = CholeskySolver(np.diag([2.0, 4.0]))
        with pytest.raises(ValueError):
            solver.matrix[0, 0] = 0.0


class TestSpdOperator:
    """The damped matrix ``A + damping*I`` that a solver factors and solves."""

    def test_rejects_negative_damping(self):
        with pytest.raises(ValueError, match="damping"):
            CholeskySolver(np.eye(2), damping=-1.0)

    def test_dense_materialization(self):
        rng = np.random.default_rng(2)
        A = random_spd(rng, 5)
        original = A.copy()
        np.testing.assert_allclose(CholeskySolver(A, damping=0.3).matrix,
                                   A + 0.3 * np.eye(5), atol=1e-14)
        assert np.array_equal(A, original)  # damped in a copy, not in place
        assert np.array_equal(CholeskySolver(A).matrix, A)

    def test_symmetry_probe(self):
        # x'(A y) == y'(A x) and x'(A^-1 y) == y'(A^-1 x) for random probes
        rng = np.random.default_rng(9)
        solver = CholeskySolver(random_spd(rng, 10), damping=0.01)
        for _ in range(20):
            x, y = rng.normal(size=10), rng.normal(size=10)
            scale = np.linalg.norm(x) * np.linalg.norm(y)
            assert abs(x @ solver.matrix @ y - y @ solver.matrix @ x) <= 1e-9 * scale
            assert abs(x @ solver.solve(y) - y @ solver.solve(x)) <= 1e-9 * scale


class TestAsVector:
    def test_rejects_wrong_shape_and_dimension(self):
        with pytest.raises(ValueError, match="1-D"):
            as_vector([[1.0, 2.0]])
        with pytest.raises(ValueError, match="dimension"):
            as_vector([1.0, 2.0], dim=3)

    def test_rejects_nan_and_inf(self):
        for bad in ([np.nan, 1.0], [1.0, np.inf], [-np.inf]):
            with pytest.raises(ValueError, match="NaN or Inf"):
                as_vector(bad)


class TestNeumannExpansion:
    def test_second_order_error_shrinks_quadratically(self):
        """Inverse-of-perturbed-matrix expansion: dropping the eps^2 tail
        leaves an error that falls by ~4x when eps halves."""
        rng = np.random.default_rng(42)
        for _ in range(20):
            A = random_spd(rng, 10)
            S = rng.normal(size=(10, 10))
            B = (S + S.T) / 2
            A_inv = np.linalg.inv(A)

            def expansion_error(eps):
                exact = np.linalg.inv(A + eps * B)
                approx = A_inv - eps * A_inv @ B @ A_inv
                return np.linalg.norm(exact - approx)

            eps = 1e-3
            ratio = expansion_error(eps) / expansion_error(eps / 2)
            assert 3.5 <= ratio <= 4.5
