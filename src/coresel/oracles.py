"""Slow, exact oracles that the run-path kernels are checked against.

Nothing here is entered by ``coresel run``, ``sweep`` or ``select``, and no
run-path module imports it; ``validation``, the demos and the tests do.
Each function is the plain formula, written for clarity:

* per-sample ``loss``, ``grad`` and ``sample_hvp``, and the dense
  ``(n, param_dim)`` rows ``grad_matrix`` and ``hvp_matrix``, which the
  factored kernels of :mod:`~coresel.models` (``grad_sum``,
  ``mu_factors``, ``factored_dots``) are tested against;
* the influence quantities of a context: first- and second-order
  influence, the regularizer at real keep weights and its closed forms,
  and the dense rows ``mu_terms`` of greedy's factored ``M``;
* the selection criterion of any keep mask, and exhaustive selection over
  every subset of a small pool;
* a finite-perturbation probe of second-order influence with dense
  inverses.

The exact leave-one-out refits stay in :mod:`~coresel.harness`
(``loo_retrain_delta``, ``loo_retrain_deltas``), where the benchmark calls
them.
"""

import itertools

import numpy as np

from . import models
from .influence import CriterionConfig, InfluenceContext, _check_mu
from .models import ModelSpec, Params, Sample, Samples
from .numkit import as_vector, check_real, solve_checked
from .selection import ReplayBuffer

# exhaustive selection enumerates every subset of at most this many candidates
EXHAUSTIVE_GUARD = 20
# the finite-perturbation probe inverts dense Hessians of at most this size
DENSE_ORACLE_GUARD = 200


# ---------------------------------------------------------------------------
# per-sample and dense-row model quantities
# ---------------------------------------------------------------------------

def loss(spec: ModelSpec, params: Params, sample: Sample) -> float:
    models._check_sample(spec, sample)
    if spec.kind == "quad1d":
        t = params.theta[0]
        return 0.5 * (t - sample.features[0]) ** 2
    theta = models._theta_matrix(spec, params)
    logits = (theta @ sample.features)[None, :]
    ce = -models._log_softmax(logits)[0][0, sample.label]
    l2 = 0.5 * spec.l2_strength * float(params.theta @ params.theta)
    return ce + l2


def grad(spec: ModelSpec, params: Params, sample: Sample) -> np.ndarray:
    models._check_sample(spec, sample)
    if spec.kind == "quad1d":
        return np.array([params.theta[0] - sample.features[0]])
    theta = models._theta_matrix(spec, params)
    p = models._softmax((theta @ sample.features)[None, :])[0]
    resid = p.copy()
    resid[sample.label] -= 1.0
    g = np.outer(resid, sample.features) + spec.l2_strength * theta
    return g.ravel()


def sample_hvp(spec: ModelSpec, params: Params, sample: Sample, v) -> np.ndarray:
    """Action of one sample's loss Hessian on ``v`` (exact, analytic)."""
    models._check_sample(spec, sample)
    v = as_vector(v, dim=spec.param_dim)
    if spec.kind == "quad1d":
        return v.copy()
    theta = models._theta_matrix(spec, params)
    p = models._softmax((theta @ sample.features)[None, :])[0]
    V = v.reshape(spec.num_classes, spec.dim)
    a = V @ sample.features
    row = p * (a - float(p @ a))
    out = np.outer(row, sample.features) + spec.l2_strength * V
    return out.ravel()


def grad_matrix(spec: ModelSpec, params: Params, samples: Samples) -> np.ndarray:
    """Per-sample gradients, each scaled by its row weight, stacked as rows
    of an (n, param_dim) array."""
    X, y, w, _ = models._as_batch(spec, samples)
    n = len(y)
    if spec.kind == "quad1d":
        return (w * (params.theta[0] - X[:, 0]))[:, None]
    theta = models._theta_matrix(spec, params)
    resid = models._probs(spec, params, X)
    resid[np.arange(n), y] -= 1.0
    G = resid[:, :, None] * X[:, None, :]
    G += spec.l2_strength * theta
    G *= w[:, None, None]
    return G.reshape(n, spec.param_dim)


def hvp_matrix(spec: ModelSpec, params: Params, samples: Samples, v) -> np.ndarray:
    """Rows ``w_i H_i v`` of each sample's Hessian applied to a fixed vector."""
    v = as_vector(v, dim=spec.param_dim)
    X, _, w, _ = models._as_batch(spec, samples)
    n = len(w)
    if spec.kind == "quad1d":
        return w[:, None] * v[None, :]
    P = models._probs(spec, params, X)
    V = v.reshape(spec.num_classes, spec.dim)
    out = models._hvp_class_factor(P, X, V)[:, :, None] * X[:, None, :]
    out += spec.l2_strength * V
    out *= w[:, None, None]
    return out.reshape(n, spec.param_dim)


# ---------------------------------------------------------------------------
# influence and the regularizer
# ---------------------------------------------------------------------------

def mu_terms(ctx: InfluenceContext, mu: float) -> np.ndarray:
    """Rows ``grad(z_i) - mu * H_{z_i} ihvp`` for every candidate of
    ``ctx``, at its weights, as the dense ``(n, param_dim)`` array of
    :func:`grad_matrix` and, at ``mu != 0``, :func:`hvp_matrix`: the
    oracle for the factored rows of :meth:`~coresel.influence.
    InfluenceContext.mu_factors`."""
    _check_mu(mu)
    grads = grad_matrix(ctx.model, ctx.params, ctx.batch)
    if mu == 0.0:
        return grads
    out = hvp_matrix(ctx.model, ctx.params, ctx.batch, ctx.ihvp)
    out *= mu
    return np.subtract(grads, out, out=out)


def first_order_influence(ctx: InfluenceContext, z: Sample) -> float:
    """Influence of upweighting ``z`` on the summed candidate loss.

    More negative means keeping ``z`` helps the pool more.
    """
    return float(-(ctx.ihvp @ grad(ctx.model, ctx.params, z)))


def second_order_influence(ctx: InfluenceContext, z: Sample, zp: Sample,
                           mu: float) -> float:
    """Effect of upweighting ``z`` in one round on ``zp``'s score in the next.

    ``- (grad(z) - mu * H_z ihvp) . Hinv grad(zp)``, with ``Hinv`` a
    residual-checked dense solve of the context's damped Hessian. ``mu = 0``
    is the excluded case, where ``z`` only perturbs the outer gradient sum;
    ``mu = 1`` the joint case, where ``z`` is re-optimized with the next
    round and also perturbs the Hessian.
    """
    _check_mu(mu)
    row = grad(ctx.model, ctx.params, z)
    if mu != 0.0:
        row = row - mu * sample_hvp(ctx.model, ctx.params, z, ctx.ihvp)
    return float(-(row @ solve_checked(ctx.damped_hessian, grad(ctx.model, ctx.params, zp))))


def regularizer(ctx: InfluenceContext, w, mu: float) -> float:
    """Norm of the summed discarded-sample terms; small means low interference.

    ``||sum_i (1 - w_i) (grad(z_i) - mu * H_{z_i} ihvp)||`` at keep weights
    ``w``, binary flags or any real values (the relaxation greedy's Taylor
    gradient is checked against by finite differences).
    """
    w = as_vector(w, dim=len(ctx.batch.ids))
    return float(np.linalg.norm((1.0 - w) @ mu_terms(ctx, mu)))


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
    kept_sum = mu_terms(ctx, 0.0)[_keep_masks(ctx, keep, 1) == 1.0].sum(axis=0)
    return float(np.linalg.norm((1.0 - alpha * mu) * ctx.grad_sum - kept_sum))


# ---------------------------------------------------------------------------
# the selection criterion and exhaustive selection
# ---------------------------------------------------------------------------

def criterion_value(ctx: InfluenceContext, cfg: CriterionConfig,
                    keep_mask: np.ndarray) -> float:
    """Criterion ``sum_kept(score) + nu * regularizer`` for a 0/1 keep mask."""
    w = _keep_masks(ctx, keep_mask, 1)
    return float(ctx.scores()[w == 1.0].sum()) + cfg.nu * regularizer(ctx, w, cfg.mu)


def criterion_values(ctx: InfluenceContext, cfg: CriterionConfig,
                     masks: np.ndarray) -> np.ndarray:
    """:func:`criterion_value` of every row of a ``(K, n)`` 0/1 keep matrix,
    from one product with the scores and one row-norm of the discarded sums."""
    masks = _keep_masks(ctx, masks, 2)
    regs = np.linalg.norm((1.0 - masks) @ mu_terms(ctx, cfg.mu), axis=1)
    return masks @ ctx.scores() + cfg.nu * regs


def select_exhaustive(ctx: InfluenceContext, cfg: CriterionConfig) -> ReplayBuffer:
    """Brute-force minimizer of the selection criterion over all subsets.

    Enumerates subsets of size exactly ``budget`` and evaluates them in one
    :func:`criterion_values` call; ties resolve to the lexicographically
    smallest sorted id tuple. Guarded to at most 20 candidates; at the
    guard (budget 10) the keep matrix is 30 MB and the call peaks ~90 MB
    above its caller.
    """
    ids = ctx.batch.ids.tolist()
    n = len(ids)
    if n > EXHAUSTIVE_GUARD:
        raise ValueError(f"exhaustive selection is guarded to {EXHAUSTIVE_GUARD} candidates, got {n}")

    combos = np.array(list(itertools.combinations(range(n), min(cfg.budget, n))))
    masks = np.zeros((len(combos), n))
    np.put_along_axis(masks, combos, 1.0, axis=1)
    values = criterion_values(ctx, cfg, masks)
    tied = np.flatnonzero(values == values.min())
    best = min(tied, key=lambda c: sorted(ids[i] for i in combos[c]))
    return ReplayBuffer(masks[best] == 1.0, ctx.batch.ids)


# ---------------------------------------------------------------------------
# finite-perturbation probe
# ---------------------------------------------------------------------------

def finite_eps_second_order(ctx: InfluenceContext, z: Sample, zp: Sample,
                            mu: float, eps: float) -> float:
    """Finite-perturbation probe of the second-order influence.

    Evaluates the perturbed score of ``zp`` after upweighting ``z`` by
    ``eps`` in the outer gradient sum and by ``mu * eps`` in the Hessian,
    with dense inverses throughout, and returns the difference quotient
    against the unperturbed score. At ``mu = 0`` (the excluded case) the
    quotient is exactly linear in ``eps``; otherwise the perturbed Hessian
    makes it converge at rate O(eps).
    """
    _check_mu(mu)
    check_real("eps", eps, positive=True)
    p = ctx.model.param_dim
    if p > DENSE_ORACLE_GUARD:
        raise ValueError(f"dense oracle is guarded to {DENSE_ORACLE_GUARD} parameters, got {p}")
    H = ctx.damped_hessian
    g_sum = ctx.grad_sum
    g_z = grad(ctx.model, ctx.params, z)
    g_zp = grad(ctx.model, ctx.params, zp)
    base = float(-(g_sum @ np.linalg.solve(H, g_zp)))
    H_pert = H + (mu * eps) * models.dense_hessian(ctx.model, ctx.params, [z])
    try:
        q = np.linalg.solve(H_pert, g_zp)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"perturbed Hessian is singular at eps={eps}: {exc}") from exc
    perturbed = float(-((g_sum + eps * g_z) @ q))
    return (perturbed - base) / eps
