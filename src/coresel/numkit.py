"""Argument and vector validation, and factored solves against one SPD matrix.

Every model here has at most a few hundred parameters, so the damped
Hessian of a selection round is materialized once and Cholesky-factored
once; each later solve against it costs two matrix-vector products plus a
check of the true residual.
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
# Triangular blocks up to this size are inverted by one LAPACK call;
# larger ones are split in two and joined by matrix products.
_INVERSE_LEAF = 32


class SolveError(RuntimeError):
    """A solve failed: the matrix is not positive definite, or the true
    residual of a solution exceeds ``SOLVE_REL_TOLERANCE * ||b||``."""


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


def matvec_by_fours(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``A @ x``, multiplied over the rows of ``A`` zero-padded to a
    multiple of 4.

    OpenBLAS rounds a row's dot product alike wherever the row sits in a
    matrix whose row count is a multiple of 4, and the last ``rows % 4``
    rows of any other matrix its own way. Padded, two equal rows get equal
    products wherever they sit; a row count that is already a multiple of
    4 gives the bits of ``A @ x``.
    """
    n = len(A)
    if n % 4:
        A = np.concatenate((A, np.zeros((-n % 4, A.shape[1]))))
    return (A @ x)[:n]


def _inverse_lower(lower: np.ndarray) -> np.ndarray:
    """Inverse of a lower-triangular matrix, by recursive 2x2 blocking.

    ``[[A, 0], [B, C]]^{-1} = [[A^{-1}, 0], [-C^{-1} B A^{-1}, C^{-1}]]``.
    numpy has no triangular inverse; a generic ``np.linalg.inv`` of the
    whole factor costs about 5x as much at 200 parameters.
    """
    n = lower.shape[0]
    if n <= _INVERSE_LEAF:
        return np.linalg.inv(lower)
    h = n // 2
    top = _inverse_lower(lower[:h, :h])
    bottom = _inverse_lower(lower[h:, h:])
    out = np.zeros_like(lower)
    out[:h, :h] = top
    out[h:, h:] = bottom
    out[h:, :h] = -(bottom @ (lower[h:, :h] @ top))
    return out


class CholeskySolver:
    """Repeated solves ``A x = b`` against one symmetric positive-definite
    ``A = matrix + damping*I``.

    Factors ``A = L L^T`` once and keeps ``L^{-1}``, so a solve is
    ``x = L^{-T} (L^{-1} b)``. Every solution's true residual is checked
    against :data:`SOLVE_REL_TOLERANCE`. Raises :class:`SolveError` at
    construction when ``A`` is not positive definite. ``matrix`` is a
    read-only copy of ``A``.
    """

    def __init__(self, matrix: np.ndarray, damping: float = 0.0):
        check_real("damping", damping)
        matrix = np.array(matrix, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1] or matrix.shape[0] < 1:
            raise ValueError(f"expected a nonempty square matrix, got shape {matrix.shape}")
        matrix[np.diag_indices(matrix.shape[0])] += damping
        try:
            lower = np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            raise SolveError("matrix is not positive definite") from None
        matrix.flags.writeable = False
        self.matrix = matrix
        self._inv_lower = _inverse_lower(lower)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def solve(self, b) -> np.ndarray:
        b = as_vector(b, dim=self.dim)
        x = self._inv_lower.T @ (self._inv_lower @ b)
        residual = float(np.linalg.norm(self.matrix @ x - b))
        bound = SOLVE_REL_TOLERANCE * float(np.linalg.norm(b))
        if not residual <= bound:
            raise SolveError(f"solve residual {residual:.3e} exceeds "
                             f"{SOLVE_REL_TOLERANCE:.0e} * ||b|| = {bound:.3e}")
        return x
