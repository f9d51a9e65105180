"""Factored SPD solver, argument and vector validation tests."""

import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coresel.harness import OracleConfig, StreamSpec
from coresel.influence import CriterionConfig
from coresel.models import FitConfig, ModelSpec
from coresel.numkit import (
    _INVERSE_LEAF,
    SOLVE_REL_TOLERANCE,
    ArgumentError,
    CholeskySolver,
    SolveError,
    as_vector,
    check_int,
    check_real,
)


def random_spd(rng, n, eig_range=(0.5, 2.0)):
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    eigs = rng.uniform(*eig_range, size=n)
    return (Q * eigs) @ Q.T


def hilbert(n):
    return 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)


# the arguments each checked config class needs besides the one under test
CONFIG_BASE = {CriterionConfig: {"budget": 1}, OracleConfig: {}, FitConfig: {},
               ModelSpec: {"kind": "logistic"}, StreamSpec: {}}
INTEGER_FIELDS = [(cls, f.name) for cls in CONFIG_BASE for f in dataclasses.fields(cls)
                  if f.type is int]


class TestArgumentChecks:
    @pytest.mark.parametrize("call, argument, message", [
        (lambda: check_int("budget", 2.5, 1), "budget", "budget must be an integer, got 2.5"),
        (lambda: check_int("label", np.nan, 0), "label", "label must be an integer, got nan"),
        (lambda: check_int("seed", -1, 0), "seed", "seed must be nonnegative, got -1"),
        (lambda: check_int("num_tasks", 1, 2), "num_tasks", "num_tasks must be at least 2, got 1"),
        (lambda: check_real("nu", -1.0), "nu", "nu must be finite and nonnegative, got -1.0"),
        (lambda: check_real("nu", np.inf), "nu", "nu must be finite and nonnegative, got inf"),
        (lambda: check_real("eps", 0.0, positive=True), "eps",
         "eps must be finite and positive, got 0.0"),
        (lambda: check_real("eps", np.nan, positive=True), "eps",
         "eps must be finite and positive, got nan"),
    ])
    def test_bad_value_names_its_argument(self, call, argument, message):
        with pytest.raises(ArgumentError, match=re.escape(message)) as err:
            call()
        assert err.value.argument == argument and isinstance(err.value, ValueError)

    def test_valid_values_pass(self):
        check_int("seed", np.int64(0), 0)
        check_int("num_tasks", 2, 2)
        check_int("id", -3)
        check_real("damping", 0.0)
        check_real("eps", np.float64(1e-300), positive=True)

    @pytest.mark.parametrize("cls, field", INTEGER_FIELDS,
                             ids=[f"{cls.__name__}.{field}" for cls, field in INTEGER_FIELDS])
    @pytest.mark.parametrize("value", [2.5, np.nan])
    def test_integer_config_field_rejects_a_non_integer(self, cls, field, value):
        with pytest.raises(ArgumentError, match=f"{field} must be an integer") as err:
            cls(**{**CONFIG_BASE[cls], field: value})
        assert err.value.argument == field


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

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 80), seed=st.integers(0, 2**32 - 1),
           damping=st.just(0.0) | st.floats(1e-3, 10))
    def test_matches_dense_inverse_of_the_damped_matrix(self, n, seed, damping):
        """Sizes span the blocked inverse's leaf size. A damped matrix may be
        singular PSD; an undamped one is positive definite."""
        assert 2 * _INVERSE_LEAF < 80
        rng = np.random.default_rng(seed)
        Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigs = rng.uniform(0.1, 10.0, size=n)
        if damping > 0:
            eigs[rng.random(n) < 0.3] = 0.0
        A = (Q * eigs) @ Q.T
        b = rng.normal(size=n)
        expected = np.linalg.inv(A + damping * np.eye(n)) @ b
        x = CholeskySolver(A, damping).solve(b)
        assert np.linalg.norm(x - expected) <= 1e-8 * np.linalg.norm(expected)

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

    def test_indefinite_past_the_leading_leaf_rejected(self):
        # the blocked factorization factors the leading leaf, then Schur
        # complements: a matrix positive definite in its leading rows but
        # not as a whole fails in a later leaf, with the same error
        rng = np.random.default_rng(11)
        n = 3 * _INVERSE_LEAF
        A = random_spd(rng, n)
        v = np.zeros(n)
        v[_INVERSE_LEAF:] = rng.normal(size=n - _INVERSE_LEAF)
        A -= 4.0 * np.outer(v, v) / (v @ v)
        np.linalg.cholesky(A[:_INVERSE_LEAF, :_INVERSE_LEAF])
        assert np.linalg.eigvalsh(A).min() < 0
        with pytest.raises(SolveError, match="not positive definite"):
            CholeskySolver(A)

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

