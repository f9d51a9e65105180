"""Influence scores, second-order interference, and the selection regularizer.

The machinery revolves around a frozen selection-time state (the
:class:`InfluenceContext`): model parameters, the candidate pool whose
summed gradient defines the outer objective, and the damped Hessian
``H + damping*I`` of a designated Hessian set, materialized and
Cholesky-factored once. Every solve of the round comes from that one
factor: the shared inverse-Hessian-vector product

    ihvp = (H + damping*I)^{-1} * sum_of_candidate_gradients

and one extra solve per future sample whose score a second-order
influence reads.

Scores follow the "more negative = more valuable to keep" convention: the
first-order influence of upweighting ``z`` on the summed candidate loss is
``-ihvp . grad(z)``, and a coreset should retain the lowest-scoring samples.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from . import models
from .numkit import DEFAULT_DAMPING, CholeskySolver, SolveError, as_vector

# When the regularizer norm is this close to zero its gradient direction is
# arbitrary; we define the Taylor gradient as zero there so selection falls
# back to raw influence scores.
DEGENERATE_NORM_FACTOR = 1e-12

# Internal mutation hook used by the validation suite's self-test; always 1.0
# in normal operation.
_JOINT_PERTURBATION_SIGN = 1.0


class SecondOrderCase(Enum):
    """Whether the earlier sample is re-optimized jointly with the next round.

    ``EXCLUDED``: the earlier sample only perturbs the outer gradient sum.
    ``JOINT``: it additionally perturbs the Hessian, contributing the
    curvature correction term.
    """

    EXCLUDED = "excluded"
    JOINT = "joint"


@dataclass(frozen=True)
class CriterionConfig:
    """Selection criterion knobs: budget, curvature mix ``mu``, reg weight ``nu``."""

    budget: int
    mu: float = 0.5
    nu: float = 0.01

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError("mu must lie in [0, 1]")
        if not 0 <= self.nu < math.inf:
            raise ValueError(f"nu must be finite and nonnegative, got {self.nu}")


@dataclass(frozen=True)
class SelectionWeights:
    """Binary keep/drop flags aligned with a context's candidate list."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 1 or not np.all((w == 0.0) | (w == 1.0)):
            raise ValueError("selection weights must be a 1-D array of 0/1 flags")
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class TaylorGradResult:
    grad_w: np.ndarray
    reg_value: float


class InfluenceContext:
    """Frozen selection-time state; build via :func:`build_context`.

    The stacked candidates' weights are read by ``grads``, ``grad_sum``,
    ``ihvp``, :meth:`scores` and :meth:`mu_terms`; :meth:`grad_of` and the
    per-sample influence functions read each ``Sample``'s own weight.
    Immutable after construction; methods only fill internal caches.
    """

    def __init__(self, model: models.ModelSpec, params: models.Params,
                 candidates: Sequence[models.Sample], solver: CholeskySolver,
                 grads: np.ndarray, batch: models.Batch):
        self.model = model
        self.params = params
        self.candidates = tuple(candidates)
        self._solver = solver
        self._batch = batch                     # the candidates, stacked
        self.grads = grads                      # (n, p) per-candidate gradients
        self.grad_sum = grads.sum(axis=0)
        self._mu_terms: dict[float, np.ndarray] = {}
        self._scores: Optional[np.ndarray] = None
        self.ihvp = solver.solve(self.grad_sum)

    @property
    def dim(self) -> int:
        return self.model.param_dim

    @property
    def damped_hessian(self) -> np.ndarray:
        """The factored matrix ``H + damping*I``, as a read-only view."""
        return self._solver.matrix

    def grad_of(self, z: models.Sample) -> np.ndarray:
        return models.grad(self.model, self.params, z)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the damped inverse Hessian to ``rhs``.

        Raises :class:`SolveError` naming the residual if the solution's
        true residual exceeds the solver tolerance.
        """
        return self._solver.solve(rhs)

    def scores(self) -> np.ndarray:
        """First-order influence of every candidate, in candidate order."""
        if self._scores is None:
            self._scores = -(self.grads @ self.ihvp)
        return self._scores

    def mu_terms(self, mu: float) -> np.ndarray:
        """Rows ``grad(z_i) - mu * H_{z_i} ihvp`` for every candidate."""
        if mu not in self._mu_terms:
            if mu == 0.0:
                U = self.grads.copy()
            else:
                hvps = models.hvp_matrix(self.model, self.params, self._batch, self.ihvp)
                U = self.grads - mu * hvps
            self._mu_terms[mu] = U
        return self._mu_terms[mu]

    def degenerate_threshold(self) -> float:
        return DEGENERATE_NORM_FACTOR * max(1, len(self.candidates))


def build_context(model: models.ModelSpec, params: models.Params,
                  candidates: Sequence[models.Sample],
                  hessian_set: Sequence[models.Sample],
                  damping: float = DEFAULT_DAMPING, *,
                  stacked: Optional[models.Batch] = None) -> InfluenceContext:
    """Assemble the shared selection-time state.

    Materializes the damped Hessian of ``hessian_set``, Cholesky-factors it
    once, and solves it against the candidate gradients summed in list
    order. The candidates are stacked once, or taken from ``stacked``: a
    caller's ``Batch`` of their rows in candidate order. Its weights
    replace the samples' own in the stacked quantities: the gradients,
    ``grad_sum``, ``ihvp``, the scores, ``mu_terms``, and the Hessian when
    ``hessian_set`` lists the candidates, which reuses the stack.
    ``grad_of`` and the per-sample influence functions still read each
    ``Sample``'s own weight. Raises
    :class:`SolveError` if the damped Hessian is not positive definite or
    the solve's true residual exceeds the tolerance.
    """
    candidates = tuple(candidates)
    hessian_set = tuple(hessian_set)
    if not candidates:
        raise ValueError("candidate list must be nonempty")
    if not hessian_set:
        raise ValueError("hessian_set must be nonempty")
    if stacked is None:
        stacked = models.stack_samples(model, candidates)
    elif len(stacked.y) != len(candidates):
        raise ValueError(f"stacked candidates have {len(stacked.y)} rows "
                         f"for {len(candidates)} candidates")
    # Sample compares by identity, so this is an element-wise `is` check
    hessian_batch = stacked if hessian_set == candidates else hessian_set
    try:
        solver = CholeskySolver(models.dense_hessian(model, params, hessian_batch),
                                damping=damping)
    except SolveError:
        raise SolveError(
            f"damped Hessian of the {len(hessian_set)}-sample Hessian set is not "
            f"positive definite (damping={damping}, l2_strength={model.l2_strength}); "
            f"raise either") from None
    grads = models.grad_matrix(model, params, stacked)
    return InfluenceContext(model, params, candidates, solver, grads, stacked)


def first_order_influence(ctx: InfluenceContext, z: models.Sample) -> float:
    """Influence of upweighting ``z`` on the summed candidate loss.

    More negative means keeping ``z`` helps the pool more.
    """
    return float(-(ctx.ihvp @ ctx.grad_of(z)))


def second_order_influence(ctx: InfluenceContext, z: models.Sample,
                           zp: models.Sample, case: SecondOrderCase) -> float:
    """Effect of upweighting ``z`` in one round on ``zp``'s score in the next.

    EXCLUDED: ``- grad(z) . Hinv grad(zp)``; JOINT additionally corrects for
    the Hessian perturbation: ``- (grad(z) - H_z ihvp) . Hinv grad(zp)``.
    """
    q = ctx.solve(ctx.grad_of(zp))
    g_z = ctx.grad_of(z)
    if case is SecondOrderCase.EXCLUDED:
        left = g_z
    elif case is SecondOrderCase.JOINT:
        hz_s = models.sample_hvp(ctx.model, ctx.params, z, ctx.ihvp)
        left = g_z - _JOINT_PERTURBATION_SIGN * hz_s
    else:
        raise ValueError(f"unknown second-order case: {case!r}")
    return float(-(left @ q))


def total_interference(ctx: InfluenceContext, discarded: Sequence[models.Sample],
                       zp: models.Sample, mu: float) -> float:
    """Summed interference of a discarded set with a future sample's score.

    Equals minus the sum of per-sample second-order influences with the two
    cases mixed by ``mu`` (0 = excluded only, 1 = joint only).
    """
    if not discarded:
        return 0.0
    q = ctx.solve(ctx.grad_of(zp))
    total = 0.0
    for z in discarded:
        term = ctx.grad_of(z)
        if mu != 0.0:
            term = term - mu * models.sample_hvp(ctx.model, ctx.params, z, ctx.ihvp)
        total += float(term @ q)
    return total


def _linearized_norm(ctx: InfluenceContext, a: np.ndarray, M: np.ndarray,
                     sign: Optional[float] = None):
    """``||a @ M||`` and, given ``sign``, its gradient in ``a`` times ``sign``.

    The gradient is ``sign * M @ (a @ M) / ||a @ M||``, defined as zero where
    the norm is at or below the context's degenerate threshold (there the
    direction is arbitrary, so selection falls back to the scores). Without
    ``sign`` no gradient is computed and None is returned in its place.
    """
    v = a @ M
    value = float(np.linalg.norm(v))
    if sign is None:
        return value, None
    if value <= ctx.degenerate_threshold():
        return value, np.zeros(len(a))
    return value, sign * (M @ (v / value))


def regularizer(ctx: InfluenceContext, w, mu: float) -> float:
    """Norm of the summed discarded-sample terms; small means low interference.

    ``||sum_i (1 - w_i) (grad(z_i) - mu * H_{z_i} ihvp)||`` at keep weights
    ``w``, binary flags or any real values (the relaxation the Taylor
    gradient is checked against by finite differences).
    """
    w = as_vector(w, dim=len(ctx.candidates))
    return _linearized_norm(ctx, 1.0 - w, ctx.mu_terms(mu))[0]


def regularizer_taylor_grad(ctx: InfluenceContext, w, mu: float) -> TaylorGradResult:
    """First-order expansion of the regularizer around keep weights ``w``.

    Returns the exact gradient ``grad_w[i] = -beta . (grad(z_i) - mu *
    H_{z_i} ihvp)``, with ``beta`` the unit direction of the discarded-term
    sum, and the regularizer value. Where the value is degenerate (below
    the zero-norm threshold) the direction is arbitrary, so the gradient is
    defined as zero.
    """
    w = as_vector(w, dim=len(ctx.candidates))
    value, grad_w = _linearized_norm(ctx, 1.0 - w, ctx.mu_terms(mu), -1.0)
    return TaylorGradResult(grad_w, value)


def gradient_matching_distance(ctx: InfluenceContext, weights: SelectionWeights) -> float:
    """Distance between the full-pool gradient and the kept-subset gradient.

    Computed literally as ``||sum_all - sum_kept||``; identical to the
    regularizer at ``mu = 0``.
    """
    kept = ctx.grads[weights.w == 1.0]
    kept_sum = kept.sum(axis=0) if len(kept) else np.zeros(ctx.dim)
    return float(np.linalg.norm(ctx.grad_sum - kept_sum))


def identical_hessian_form(ctx: InfluenceContext, weights: SelectionWeights,
                           mu: float, alpha: float) -> float:
    """Closed form of the regularizer when per-sample Hessians coincide.

    ``||(1 - alpha*mu) * sum_all - sum_kept||`` with
    ``alpha = discarded/kept`` when the context Hessian is built over the
    kept set. Shifting the matched target against the total gradient is what
    rewards gradient diversity.
    """
    kept = ctx.grads[weights.w == 1.0]
    kept_sum = kept.sum(axis=0) if len(kept) else np.zeros(ctx.dim)
    return float(np.linalg.norm((1.0 - alpha * mu) * ctx.grad_sum - kept_sum))
