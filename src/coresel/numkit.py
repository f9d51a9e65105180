"""Argument and vector validation, and residual-checked dense solves.

Every model here has at most a few hundred parameters, so the damped
Hessian of a selection round is materialized once and solved against
every right-hand side of the round in one LU factorization; each solution
is checked by its true residual.
"""

import math
import operator
from typing import Optional

import numpy as np

# Damping added to Hessians before inversion. Large enough to make PSD
# Hessians safely positive definite, small enough to keep the convex
# desk-scale oracles exact to test tolerances.
DEFAULT_DAMPING = 0.01
# Largest accepted true residual ||A x - b|| of a solve, relative to ||b||.
SOLVE_REL_TOLERANCE = 1e-8


class SolveError(RuntimeError):
    """A solve failed: the damped Hessian's smallest eigenvalue is not
    clear of round-off, or the true residual of a solution exceeds
    ``SOLVE_REL_TOLERANCE * ||b||``."""


class ArgumentError(ValueError):
    """An argument out of range; ``argument`` names the field or parameter."""

    def __init__(self, argument: str, message: str):
        super().__init__(message)
        self.argument = argument


def check_int(name: str, value, least: Optional[int] = None) -> None:
    """Raise :class:`ArgumentError` naming ``name`` unless ``value`` is an
    integer (anything ``operator.index`` accepts) of at least ``least``;
    with ``least`` None any integer passes."""
    try:
        operator.index(value)
    except TypeError:
        raise ArgumentError(name, f"{name} must be an integer, got {value}") from None
    if least is not None and value < least:
        bound = "nonnegative" if least == 0 else f"at least {least}"
        raise ArgumentError(name, f"{name} must be {bound}, got {value}")


def check_real(name: str, value, positive: bool = False) -> None:
    """Raise :class:`ArgumentError` naming ``name`` unless ``value`` is finite
    and nonnegative, or with ``positive`` finite and positive; NaN fails."""
    if not (0 < value < math.inf if positive else 0 <= value < math.inf):
        sign = "positive" if positive else "nonnegative"
        raise ArgumentError(name, f"{name} must be finite and {sign}, got {value}")


def as_vector(x, dim: Optional[int] = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, validating dimension if given."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"dimension mismatch: expected {dim}, got {v.shape[0]}")
    if not np.isfinite(v).all():
        raise ValueError("vector contains NaN or Inf entries")
    return v


def solve_checked(matrix: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.solve`` of ``matrix`` against ``rhs``, a vector or a
    ``(k, dim)`` stack of right-hand sides in its rows, all through one LU
    factorization; the solutions come back in the same layout.

    Raises :class:`SolveError` naming the residual unless every solution's
    true residual ``||matrix x - b||`` is at most
    ``SOLVE_REL_TOLERANCE * ||b||``.
    """
    x = np.linalg.solve(matrix, rhs.T).T
    residual = np.atleast_1d(np.linalg.norm(x @ matrix.T - rhs, axis=-1))
    bound = SOLVE_REL_TOLERANCE * np.atleast_1d(np.linalg.norm(rhs, axis=-1))
    for r, b in zip(residual, bound):
        if not r <= b:
            raise SolveError(f"solve residual {r:.3e} exceeds "
                             f"{SOLVE_REL_TOLERANCE:.0e} * ||b|| = {b:.3e}")
    return np.ascontiguousarray(x)
