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
from typing import Optional, Sequence

import numpy as np

from . import models
from .numkit import DEFAULT_DAMPING, CholeskySolver, SolveError, as_vector

# When the regularizer norm is this close to zero its gradient direction is
# arbitrary; we define the Taylor gradient as zero there so selection falls
# back to raw influence scores.
DEGENERATE_NORM_FACTOR = 1e-12


def _check_mu(mu: float) -> None:
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"mu must lie in [0, 1], got {mu}")


@dataclass(frozen=True)
class CriterionConfig:
    """Selection criterion knobs: budget, curvature mix ``mu``, reg weight ``nu``."""

    budget: int
    mu: float = 0.5
    nu: float = 0.01

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be at least 1")
        _check_mu(self.mu)
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

    ``batch`` holds the candidates, stacked with their ids; ``grads``,
    ``grad_sum``, ``ihvp``, :meth:`scores` and :meth:`mu_terms` read its
    weights. ``grads``, ``grad_sum`` and ``ihvp`` are read-only arrays;
    the only internal state filled later is the candidates' Hessian-vector
    products against ``ihvp``, built on the first :meth:`mu_terms` call
    with a nonzero ``mu`` from the candidates' class probabilities
    ``probs`` (None for ``quad1d``), which :func:`build_context` computed.
    """

    def __init__(self, model: models.ModelSpec, params: models.Params,
                 batch: models.Batch, solver: CholeskySolver, grads: np.ndarray,
                 probs: Optional[np.ndarray]):
        self.model = model
        self.params = params
        self.batch = batch
        self._solver = solver
        self._probs = probs
        self.grads = grads                      # (n, p) per-candidate gradients
        self.grad_sum = grads.sum(axis=0)
        self.ihvp = solver.solve(self.grad_sum)
        self._hvps: Optional[np.ndarray] = None
        for a in (self.grads, self.grad_sum, self.ihvp, probs):
            if a is not None:
                a.flags.writeable = False

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
        return -(self.grads @ self.ihvp)

    def mu_terms(self, mu: float) -> np.ndarray:
        """Rows ``grad(z_i) - mu * H_{z_i} ihvp`` for every candidate.

        At ``mu = 0`` this is ``grads`` itself (read-only, no copy).
        """
        _check_mu(mu)
        if mu == 0.0:
            return self.grads
        if self._hvps is None:
            self._hvps = models.hvp_matrix(self.model, self.params, self.batch, self.ihvp,
                                           probs=self._probs)
        return self.grads - mu * self._hvps

    def degenerate_threshold(self) -> float:
        return DEGENERATE_NORM_FACTOR * max(1, len(self.batch.ids))


def build_context(model: models.ModelSpec, params: models.Params,
                  candidates: models.Samples, hessian_set: models.Samples,
                  damping: float = DEFAULT_DAMPING) -> InfluenceContext:
    """Assemble the shared selection-time state.

    ``candidates`` and ``hessian_set`` are each a sample sequence or a
    :class:`~coresel.models.Batch`; a sequence is stacked once. Materializes
    the damped Hessian of ``hessian_set`` (reusing the candidates' stack and
    softmax when ``hessian_set is candidates``), Cholesky-factors it once,
    and solves it against the candidate gradients summed in candidate
    order. The candidates' softmax is computed once, here, for their
    gradients, their Hessian-vector products and, if it is theirs, the
    Hessian. Raises
    :class:`SolveError` if the damped Hessian is not positive definite or
    the solve's true residual exceeds the tolerance.
    """
    batch = models._as_batch(model, candidates)
    if len(batch.ids) == 0:
        raise ValueError("candidate list must be nonempty")
    shared = hessian_set is candidates
    hessian_batch = batch if shared else models._as_batch(model, hessian_set)
    if len(hessian_batch.ids) == 0:
        raise ValueError("hessian_set must be nonempty")
    probs = None if model.kind == "quad1d" else models._probs(model, params, batch.X)
    try:
        solver = CholeskySolver(
            models.dense_hessian(model, params, hessian_batch, probs=probs if shared else None),
            damping=damping)
    except SolveError:
        raise SolveError(
            f"damped Hessian of the {len(hessian_batch.ids)}-sample Hessian set is not "
            f"positive definite (damping={damping}, l2_strength={model.l2_strength}); "
            f"raise either") from None
    grads = models.grad_matrix(model, params, batch, probs=probs)
    return InfluenceContext(model, params, batch, solver, grads, probs)


def first_order_influence(ctx: InfluenceContext, z: models.Sample) -> float:
    """Influence of upweighting ``z`` on the summed candidate loss.

    More negative means keeping ``z`` helps the pool more.
    """
    return float(-(ctx.ihvp @ ctx.grad_of(z)))


def _interference_row(ctx: InfluenceContext, z: models.Sample, mu: float) -> np.ndarray:
    """``grad(z) - mu * H_z ihvp``; raises ValueError unless ``0 <= mu <= 1``."""
    _check_mu(mu)
    row = ctx.grad_of(z)
    if mu != 0.0:
        row = row - mu * models.sample_hvp(ctx.model, ctx.params, z, ctx.ihvp)
    return row


def second_order_influence(ctx: InfluenceContext, z: models.Sample,
                           zp: models.Sample, mu: float) -> float:
    """Effect of upweighting ``z`` in one round on ``zp``'s score in the next.

    ``- (grad(z) - mu * H_z ihvp) . Hinv grad(zp)``. ``mu = 0`` is the
    excluded case, where ``z`` only perturbs the outer gradient sum;
    ``mu = 1`` the joint case, where ``z`` is re-optimized with the next
    round and also perturbs the Hessian.
    """
    q = ctx.solve(ctx.grad_of(zp))
    return float(-(_interference_row(ctx, z, mu) @ q))


def total_interference(ctx: InfluenceContext, discarded: Sequence[models.Sample],
                       zp: models.Sample, mu: float) -> float:
    """Summed interference of a discarded set with a future sample's score.

    Equals minus the sum of :func:`second_order_influence` over the set.
    """
    if not discarded:
        return 0.0
    q = ctx.solve(ctx.grad_of(zp))
    total = 0.0
    for z in discarded:
        total += float(_interference_row(ctx, z, mu) @ q)
    return total


def _linearized_norm(ctx: InfluenceContext, a: np.ndarray, M: np.ndarray,
                     sign: Optional[float] = None):
    """``||a @ M||`` and, given ``sign``, its gradient in ``a`` times ``sign``.

    The gradient is ``sign * M @ (a @ M) / ||a @ M||``, defined as zero where
    the norm is at or below the context's degenerate threshold (there the
    direction is arbitrary, so selection falls back to the scores). Without
    ``sign`` no gradient is computed and None is returned in its place.
    Greedy selection calls it once per round, for ``final_criterion``; its
    drops read running sums of the same quantities.
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
    w = as_vector(w, dim=len(ctx.batch.ids))
    return _linearized_norm(ctx, 1.0 - w, ctx.mu_terms(mu))[0]


def regularizer_taylor_grad(ctx: InfluenceContext, w, mu: float) -> TaylorGradResult:
    """First-order expansion of the regularizer around keep weights ``w``.

    Returns the exact gradient ``grad_w[i] = -beta . (grad(z_i) - mu *
    H_{z_i} ihvp)``, with ``beta`` the unit direction of the discarded-term
    sum, and the regularizer value. Where the value is degenerate (below
    the zero-norm threshold) the direction is arbitrary, so the gradient is
    defined as zero.
    """
    w = as_vector(w, dim=len(ctx.batch.ids))
    value, grad_w = _linearized_norm(ctx, 1.0 - w, ctx.mu_terms(mu), -1.0)
    return TaylorGradResult(grad_w, value)


def _check_keep_length(ctx: InfluenceContext, k: int) -> None:
    """Reject keep flags whose length is not the context's candidate count."""
    n = len(ctx.batch.ids)
    if k != n:
        raise ValueError(f"keep mask has {k} entries but the context has {n} candidates")


def gradient_matching_distance(ctx: InfluenceContext, weights: SelectionWeights) -> float:
    """Distance between the full-pool gradient and the kept-subset gradient.

    ``||sum_all - sum_kept||``, the closed form below at ``alpha*mu = 0``;
    identical to the regularizer at ``mu = 0``.
    """
    return identical_hessian_form(ctx, weights, 0.0, 0.0)


def identical_hessian_form(ctx: InfluenceContext, weights: SelectionWeights,
                           mu: float, alpha: float) -> float:
    """Closed form of the regularizer when per-sample Hessians coincide.

    ``||(1 - alpha*mu) * sum_all - sum_kept||`` with
    ``alpha = discarded/kept`` when the context Hessian is built over the
    kept set. Shifting the matched target against the total gradient is what
    rewards gradient diversity.
    """
    _check_keep_length(ctx, len(weights.w))
    kept = ctx.grads[weights.w == 1.0]
    kept_sum = kept.sum(axis=0) if len(kept) else np.zeros(ctx.dim)
    return float(np.linalg.norm((1.0 - alpha * mu) * ctx.grad_sum - kept_sum))
