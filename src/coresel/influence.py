"""The frozen selection-time state: influence scores and the regularizer's rows.

The machinery revolves around a frozen selection-time state (the
:class:`InfluenceContext`): model parameters, the candidate pool whose
summed gradient defines the outer objective, and the damped Hessian
``H + damping*I`` of a designated Hessian set, materialized once. One LU
solve of it gives the round's shared inverse-Hessian-vector product

    ihvp = (H + damping*I)^{-1} * sum_of_candidate_gradients

together with, when one is given, the solve of the tau oracle's gradient
sum.

Scores follow the "more negative = more valuable to keep" convention: the
first-order influence of upweighting ``z`` on the summed candidate loss is
``-ihvp . grad(z)``, and a coreset should retain the lowest-scoring samples.
The scores and greedy's regularizer rows share one row form, ``grad(z_i)
- mu * H_{z_i} ihvp``, in the factors of :func:`~coresel.models.
mu_factors`: the scores are :func:`~coresel.models.factored_dots` of its
``mu = 0`` rows with ``ihvp``, and no per-candidate gradient matrix is
built. Second-order influence, the regularizer at given keep weights and
its closed forms are oracles, in :mod:`~coresel.oracles`.
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
    ``ihvp``, :meth:`scores` and :meth:`mu_factors` read its weights.
    ``probs`` is the candidates' softmax at ``params`` (None for quad1d).
    The context holds no per-candidate gradient row: the scores and
    greedy's rows come from the factors of :meth:`mu_factors`.
    ``damped_hessian`` is the solved matrix ``H + damping*I``.
    ``oracle_ihvp`` is the damped inverse Hessian applied to the
    ``oracle_grad_sum`` given to :func:`build_context` (None without
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
        self.damped_hessian = damped_hessian
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

    def scores(self) -> np.ndarray:
        """First-order influence ``-grad(z_i) . ihvp`` of every candidate,
        in candidate order: :func:`~coresel.models.factored_dots` of the
        ``mu = 0`` factors. Each score comes from its own row alone, so two
        copies of one sample score alike wherever they sit among the
        candidates."""
        return -models.factored_dots(*self.mu_factors(0.0), self.batch.w, self.ihvp[None])[:, 0]

    def mu_factors(self, mu: float):
        """The rows ``grad(z_i) - mu * H_{z_i} ihvp`` of every candidate in
        factored form, ``(U, X, C)`` as
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
    :class:`SolveError` naming damping and l2_strength if the damped
    Hessian's norm is not finite, or unless that floor exceeds ``1e-12 *
    ||H + damping*I||_F``, a round-off bound, and :class:`SolveError`
    naming the residual if a solution's true residual exceeds the
    tolerance.
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
    what = f"damped Hessian of the {len(hessian_batch.ids)}-sample Hessian set"
    knobs = f"damping={damping}, l2_strength={model.l2_strength}"
    # an overflow or NaN leaves the norm non-finite, which is named below
    with np.errstate(over="ignore", invalid="ignore"):
        damped = models.dense_hessian(model, params, hessian_batch,
                                      probs=probs if shared else None)
        damped.flat[::damped.shape[0] + 1] += damping
        norm = np.linalg.norm(damped)
        if not np.isfinite(norm):
            raise SolveError(f"{what} has non-finite entries or overflows float64 ({knobs}, "
                             f"largest weight {hessian_batch.w.max()})")
        curvature = 1.0 if model.kind == "quad1d" else model.l2_strength
        if not damping + curvature * hessian_batch.w_sum > 1e-12 * norm:
            raise SolveError(f"{what} is not positive definite ({knobs}); raise either")
    return InfluenceContext(model, params, batch, damped, probs, oracle_grad_sum)
