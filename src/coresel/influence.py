"""Influence scores, second-order interference, and the selection regularizer.

The machinery revolves around a frozen selection-time state (the
:class:`InfluenceContext`): model parameters, the candidate pool whose
summed gradient defines the outer objective, and the damped Hessian
``H + damping*I`` of a designated Hessian set, materialized once. One LU
solve of it gives the round's shared inverse-Hessian-vector product

    ihvp = (H + damping*I)^{-1} * sum_of_candidate_gradients

together with, when one is given, the solve of the tau oracle's gradient
sum; a second-order influence solves once more per future sample it reads.

Scores follow the "more negative = more valuable to keep" convention: the
first-order influence of upweighting ``z`` on the summed candidate loss is
``-ihvp . grad(z)``, and a coreset should retain the lowest-scoring samples.
The context computes them, and greedy its regularizer rows, from factors
of the candidates' rows (:func:`~coresel.models.grad_dots`,
:func:`~coresel.models.mu_factors`), with no per-candidate gradient
matrix; :meth:`InfluenceContext.mu_terms` builds the dense rows for the
oracles (:func:`regularizer`, :func:`identical_hessian_form` and the
batched criterion of exhaustive selection).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import models
from .numkit import (
    DEFAULT_DAMPING,
    ArgumentError,
    SolveError,
    as_vector,
    check_int,
    check_real,
    solve_checked,
)


def _check_mu(mu: float) -> None:
    if not 0.0 <= mu <= 1.0:
        raise ArgumentError("mu", f"mu must lie in [0, 1], got {mu}")


@dataclass(frozen=True)
class CriterionConfig:
    """Selection criterion knobs: budget, curvature mix ``mu``, reg weight ``nu``."""

    budget: int
    mu: float = 0.5
    nu: float = 0.01

    def __post_init__(self):
        check_int("budget", self.budget, 1)
        _check_mu(self.mu)
        check_real("nu", self.nu)


class InfluenceContext:
    """Frozen selection-time state; build via :func:`build_context`.

    ``batch`` holds the candidates, stacked with their ids; ``grad_sum``,
    ``ihvp``, :meth:`scores`, :meth:`mu_terms` and :meth:`mu_factors` read
    its weights. ``probs`` is the candidates' softmax at ``params`` (None
    for quad1d). The context holds no per-candidate gradient row: the
    scores and greedy's rows come from the factored forms
    :func:`~coresel.models.grad_dots` and :func:`~coresel.models.
    mu_factors`, and :meth:`mu_terms` builds the dense rows on each call,
    for the oracles. ``oracle_ihvp`` is the damped inverse Hessian applied
    to the ``oracle_grad_sum`` given to :func:`build_context` (None without
    one). ``damped_hessian``, ``grad_sum``, ``ihvp``, ``oracle_ihvp`` and
    ``probs`` are read-only arrays, and nothing is written to the context
    after :func:`build_context`.
    """

    def __init__(self, model: models.ModelSpec, params: models.Params,
                 batch: models.Batch, damped_hessian: np.ndarray, probs: Optional[np.ndarray],
                 oracle_grad_sum: Optional[np.ndarray]):
        self.model = model
        self.params = params
        self.batch = batch
        self._damped_hessian = damped_hessian
        self.probs = probs
        self.grad_sum = models.grad_sum(model, params, batch, probs=probs)
        # a zero second row without an oracle: the method's solution gets
        # the same bits whether or not the oracle's is solved beside it
        rhs = np.zeros((2, model.param_dim))
        rhs[0] = self.grad_sum
        if oracle_grad_sum is not None:
            rhs[1] = as_vector(oracle_grad_sum, dim=model.param_dim)
        self.ihvp, oracle_ihvp = solve_checked(damped_hessian, rhs)
        self.oracle_ihvp = None if oracle_grad_sum is None else oracle_ihvp
        for a in (damped_hessian, self.grad_sum, self.ihvp, self.oracle_ihvp, probs):
            if a is not None:
                a.flags.writeable = False

    @property
    def dim(self) -> int:
        return self.model.param_dim

    @property
    def damped_hessian(self) -> np.ndarray:
        """The solved matrix ``H + damping*I``, as a read-only view."""
        return self._damped_hessian

    def grad_of(self, z: models.Sample) -> np.ndarray:
        return models.grad(self.model, self.params, z)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the damped inverse Hessian to ``rhs`` by a dense solve of
        the stored matrix, for the oracles.

        Raises :class:`SolveError` naming the residual if the solution's
        true residual exceeds the solver tolerance.
        """
        return solve_checked(self._damped_hessian, as_vector(rhs, dim=self.dim))

    def scores(self) -> np.ndarray:
        """First-order influence ``-grad(z_i) . ihvp`` of every candidate,
        in candidate order, from :func:`~coresel.models.grad_dots`: each
        score comes from its own row alone, so two copies of one sample
        score alike wherever they sit among the candidates."""
        return -models.grad_dots(self.model, self.params, self.batch, self.ihvp[None],
                                 probs=self.probs)[:, 0]

    def mu_terms(self, mu: float) -> np.ndarray:
        """Rows ``grad(z_i) - mu * H_{z_i} ihvp`` for every candidate, as
        the dense ``(n, param_dim)`` array of
        :func:`~coresel.models.grad_matrix` and, at ``mu != 0``,
        :func:`~coresel.models.hvp_matrix`, computed on each call: the
        oracle for the factored rows of :meth:`mu_factors`.
        """
        _check_mu(mu)
        grads = models.grad_matrix(self.model, self.params, self.batch, probs=self.probs)
        if mu == 0.0:
            return grads
        out = models.hvp_matrix(self.model, self.params, self.batch, self.ihvp,
                                probs=self.probs)
        out *= mu
        return np.subtract(grads, out, out=out)

    def mu_factors(self, mu: float):
        """The rows of :meth:`mu_terms` in factored form, ``(U, X, C)`` as
        :func:`~coresel.models.mu_factors` returns them, computed from the
        stored softmax of the candidates."""
        _check_mu(mu)
        return models.mu_factors(self.model, self.params, self.batch, self.ihvp, mu,
                                 probs=self.probs)


def build_context(model: models.ModelSpec, params: models.Params,
                  candidates: models.Samples, hessian_set: models.Samples,
                  damping: float = DEFAULT_DAMPING,
                  oracle_grad_sum: Optional[np.ndarray] = None) -> InfluenceContext:
    """Assemble the shared selection-time state.

    ``candidates`` and ``hessian_set`` are each a sample sequence or a
    :class:`~coresel.models.Batch`; a sequence is stacked once. Materializes
    the damped Hessian of ``hessian_set`` (reusing the candidates' stack and
    softmax when ``hessian_set is candidates``) and solves it, in one LU
    factorization, against the candidates' summed gradient
    (:func:`~coresel.models.grad_sum`) for ``ihvp`` and, if given, against
    ``oracle_grad_sum`` for ``oracle_ihvp``. The candidates' softmax is
    computed once, here, for their gradient sum, their scores, their
    factored rows and, if it is theirs, the Hessian.

    Positive definiteness is read from the Hessian's known floor, not from
    a factorization. Every weight is positive, so the data Hessian is a sum
    of positive semidefinite terms; each logistic term maps a shift shared
    by all classes, ``1_C (x) u``, to zero, because the softmax does not
    see it. The smallest eigenvalue of the damped Hessian is therefore
    exactly ``damping + l2_strength * w_sum`` for logistic, and the one
    eigenvalue of quad1d's is ``damping + w_sum``. Raises
    :class:`SolveError` naming damping and l2_strength unless that floor
    exceeds ``1e-12 * ||H + damping*I||_F``, a round-off bound, and
    :class:`SolveError` naming the residual if a solution's true residual
    exceeds the tolerance.
    """
    check_real("damping", damping)
    batch = models._as_batch(model, candidates)
    if len(batch.ids) == 0:
        raise ValueError("candidate list must be nonempty")
    models.check_unique_ids(batch.ids, "candidates")
    shared = hessian_set is candidates
    hessian_batch = batch if shared else models._as_batch(model, hessian_set)
    if len(hessian_batch.ids) == 0:
        raise ValueError("hessian_set must be nonempty")
    probs = None if model.kind == "quad1d" else models._probs(model, params, batch.X)
    damped = models.dense_hessian(model, params, hessian_batch,
                                  probs=probs if shared else None)
    damped.flat[::damped.shape[0] + 1] += damping
    curvature = 1.0 if model.kind == "quad1d" else model.l2_strength
    if not damping + curvature * hessian_batch.w_sum > 1e-12 * np.linalg.norm(damped):
        raise SolveError(
            f"damped Hessian of the {len(hessian_batch.ids)}-sample Hessian set is not "
            f"positive definite (damping={damping}, l2_strength={model.l2_strength}); "
            f"raise either")
    return InfluenceContext(model, params, batch, damped, probs, oracle_grad_sum)


def first_order_influence(ctx: InfluenceContext, z: models.Sample) -> float:
    """Influence of upweighting ``z`` on the summed candidate loss.

    More negative means keeping ``z`` helps the pool more.
    """
    return float(-(ctx.ihvp @ ctx.grad_of(z)))


def second_order_influence(ctx: InfluenceContext, z: models.Sample,
                           zp: models.Sample, mu: float) -> float:
    """Effect of upweighting ``z`` in one round on ``zp``'s score in the next.

    ``- (grad(z) - mu * H_z ihvp) . Hinv grad(zp)``. ``mu = 0`` is the
    excluded case, where ``z`` only perturbs the outer gradient sum;
    ``mu = 1`` the joint case, where ``z`` is re-optimized with the next
    round and also perturbs the Hessian.
    """
    _check_mu(mu)
    row = ctx.grad_of(z)
    if mu != 0.0:
        row = row - mu * models.sample_hvp(ctx.model, ctx.params, z, ctx.ihvp)
    return float(-(row @ ctx.solve(ctx.grad_of(zp))))


def regularizer(ctx: InfluenceContext, w, mu: float) -> float:
    """Norm of the summed discarded-sample terms; small means low interference.

    ``||sum_i (1 - w_i) (grad(z_i) - mu * H_{z_i} ihvp)||`` at keep weights
    ``w``, binary flags or any real values (the relaxation greedy's Taylor
    gradient is checked against by finite differences).
    """
    w = as_vector(w, dim=len(ctx.batch.ids))
    return float(np.linalg.norm((1.0 - w) @ ctx.mu_terms(mu)))


def _keep_masks(ctx: InfluenceContext, masks, ndim: int) -> np.ndarray:
    """``masks`` as a float ``ndim``-D array of 0/1 keep flags, one per
    candidate along the last axis; raises ValueError otherwise."""
    masks = np.asarray(masks, dtype=np.float64)
    if masks.ndim != ndim or not np.all((masks == 0.0) | (masks == 1.0)):
        raise ValueError(f"keep masks must be a {ndim}-D array of 0/1 flags")
    n = len(ctx.batch.ids)
    if masks.shape[-1] != n:
        raise ValueError(f"keep mask has {masks.shape[-1]} entries but the context "
                         f"has {n} candidates")
    return masks


def gradient_matching_distance(ctx: InfluenceContext, keep) -> float:
    """Distance between the full-pool gradient and the kept-subset gradient.

    ``||sum_all - sum_kept||`` for the 0/1 keep mask ``keep``, the closed
    form below at ``alpha*mu = 0``; identical to the regularizer at
    ``mu = 0``.
    """
    return identical_hessian_form(ctx, keep, 0.0, 0.0)


def identical_hessian_form(ctx: InfluenceContext, keep, mu: float, alpha: float) -> float:
    """Closed form of the regularizer when per-sample Hessians coincide.

    ``||(1 - alpha*mu) * sum_all - sum_kept||`` for the 0/1 keep mask
    ``keep``, with ``alpha = discarded/kept`` when the context Hessian is
    built over the kept set. Shifting the matched target against the total
    gradient is what rewards gradient diversity. Raises ValueError unless
    ``0 <= mu <= 1`` and ``alpha`` is finite and nonnegative.
    """
    _check_mu(mu)
    check_real("alpha", alpha)
    kept_sum = ctx.mu_terms(0.0)[_keep_masks(ctx, keep, 1) == 1.0].sum(axis=0)
    return float(np.linalg.norm((1.0 - alpha * mu) * ctx.grad_sum - kept_sum))
