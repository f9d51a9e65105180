"""Influence scores, second-order interference, and the selection regularizer.

The machinery revolves around a frozen selection-time state (the
:class:`InfluenceContext`): model parameters, the candidate pool whose
summed gradient defines the outer objective, and the damped Hessian
``H + damping*I`` of a designated Hessian set, materialized and
Cholesky-factored once. Every solve of the round comes from that one
factor: the shared inverse-Hessian-vector product

    ihvp = (H + damping*I)^{-1} * sum_of_candidate_gradients

and one extra solve per distinct right-hand side, cached by sample id.

Scores follow the "more negative = more valuable to keep" convention: the
first-order influence of upweighting ``z`` on the summed candidate loss is
``-ihvp . grad(z)``, and a coreset should retain the lowest-scoring samples.
"""

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
        if self.nu < 0:
            raise ValueError("nu must be nonnegative")


@dataclass(frozen=True)
class SelectionWeights:
    """Binary keep/drop flags aligned with a context's candidate list."""

    w: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        if w.ndim != 1 or not np.all((w == 0.0) | (w == 1.0)):
            raise ValueError("selection weights must be a 1-D array of 0/1 flags")
        object.__setattr__(self, "w", w)

    @classmethod
    def all_ones(cls, n: int) -> "SelectionWeights":
        return cls(np.ones(n))


@dataclass(frozen=True)
class TaylorGradResult:
    beta: np.ndarray
    grad_w: np.ndarray
    reg_value: float


class InfluenceContext:
    """Frozen selection-time state; build via :func:`build_context`.

    Immutable after construction; methods only fill internal caches.
    """

    def __init__(self, model: models.ModelSpec, params: models.Params,
                 candidates: Sequence[models.Sample], hessian_set: Sequence[models.Sample],
                 damping: float, solver: CholeskySolver, grads: np.ndarray):
        self.model = model
        self.params = params
        self.candidates = tuple(candidates)
        self.hessian_set = tuple(hessian_set)
        self.damping = damping
        self._solver = solver
        self.grads = grads                      # (n, p) per-candidate gradients
        self.grad_sum = grads.sum(axis=0)
        self._rhs_cache: dict[int, np.ndarray] = {}
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

    def solve(self, rhs: np.ndarray, cache_key: Optional[int] = None) -> np.ndarray:
        """Apply the damped inverse Hessian to ``rhs``, caching by sample id.

        Raises :class:`SolveError` naming the residual if the solution's
        true residual exceeds the solver tolerance.
        """
        if cache_key is not None and cache_key in self._rhs_cache:
            return self._rhs_cache[cache_key]
        solution = self._solver.solve(rhs)
        if cache_key is not None:
            self._rhs_cache[cache_key] = solution
        return solution

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
                hvps = models.hvp_matrix(self.model, self.params, self.candidates, self.ihvp)
                U = self.grads - mu * hvps
            self._mu_terms[mu] = U
        return self._mu_terms[mu]

    def degenerate_threshold(self) -> float:
        return DEGENERATE_NORM_FACTOR * max(1, len(self.candidates))


def build_context(model: models.ModelSpec, params: models.Params,
                  candidates: Sequence[models.Sample],
                  hessian_set: Sequence[models.Sample],
                  damping: float = DEFAULT_DAMPING) -> InfluenceContext:
    """Assemble the shared selection-time state.

    Materializes the damped Hessian of ``hessian_set``, Cholesky-factors it
    once, and solves it against the candidate gradients summed in list
    order. Raises :class:`SolveError` if the damped Hessian is not positive
    definite or the solve's true residual exceeds the tolerance.
    """
    candidates = tuple(candidates)
    hessian_set = tuple(hessian_set)
    if not candidates:
        raise ValueError("candidate list must be nonempty")
    if not hessian_set:
        raise ValueError("hessian_set must be nonempty")
    try:
        solver = CholeskySolver(models.dense_hessian(model, params, hessian_set),
                                damping=damping)
    except SolveError:
        raise SolveError(
            f"damped Hessian of the {len(hessian_set)}-sample Hessian set is not "
            f"positive definite (damping={damping}, l2_strength={model.l2_strength}); "
            f"raise either") from None
    grads = models.grad_matrix(model, params, candidates)
    return InfluenceContext(model, params, candidates, hessian_set, damping, solver, grads)


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
    q = ctx.solve(ctx.grad_of(zp), cache_key=zp.id)
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
    q = ctx.solve(ctx.grad_of(zp), cache_key=zp.id)
    total = 0.0
    for z in discarded:
        term = ctx.grad_of(z)
        if mu != 0.0:
            term = term - mu * models.sample_hvp(ctx.model, ctx.params, z, ctx.ihvp)
        total += float(term @ q)
    return total


def relaxed_regularizer(ctx: InfluenceContext, w, mu: float) -> float:
    """Regularizer value at arbitrary real-valued keep weights.

    ``||sum_i (1 - w_i) (grad(z_i) - mu * H_{z_i} ihvp)||``. The binary-flag
    entry point is :func:`regularizer`; this relaxation exists so the Taylor
    gradient can be checked by finite differences.
    """
    w = as_vector(w, dim=len(ctx.candidates))
    U = ctx.mu_terms(mu)
    return float(np.linalg.norm((1.0 - w) @ U))


def regularizer(ctx: InfluenceContext, weights: SelectionWeights, mu: float) -> float:
    """Norm of the summed discarded-sample terms; small means low interference."""
    return relaxed_regularizer(ctx, weights.w, mu)


def regularizer_taylor_grad(ctx: InfluenceContext, weights: SelectionWeights,
                            mu: float) -> TaylorGradResult:
    """First-order expansion of the regularizer around the current weights.

    Returns the unit direction ``beta`` of the discarded-term sum, the exact
    gradient ``grad_w[i] = -beta . (grad(z_i) - mu * H_{z_i} ihvp)``, and the
    regularizer value. Where the value is degenerate (below the zero-norm
    threshold) the direction is arbitrary, so the gradient is defined as zero.
    """
    w = as_vector(weights.w, dim=len(ctx.candidates))
    U = ctx.mu_terms(mu)
    v = (1.0 - w) @ U
    r_value = float(np.linalg.norm(v))
    if r_value <= ctx.degenerate_threshold():
        zeros = np.zeros(len(ctx.candidates))
        return TaylorGradResult(np.zeros(ctx.dim), zeros, r_value)
    beta = v / r_value
    return TaylorGradResult(beta, -(U @ beta), r_value)


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
