"""Walk through every influence quantity on a fully hand-checkable example.

The model is a scalar quadratic: loss(theta, z) = (theta - z)^2 / 2, so the
optimum of a set is its mean and every per-sample curvature is 1. With the
coreset {0, 2} (optimum theta = 1, summed curvature H = 2) and the outer
pool {0, 2, 4}, all numbers below have closed forms you can verify on
paper.
"""

import numpy as np

from coresel import (
    CriterionConfig,
    FitConfig,
    ModelSpec,
    Params,
    Sample,
    build_context,
    first_order_influence,
    fit,
    gradient_matching_distance,
    loo_retrain_delta,
    regularizer,
    regularizer_taylor_grad,
    second_order_influence,
    total_interference,
)

quad = ModelSpec(kind="quad1d", dim=1)
sample = lambda i, z: Sample(id=i, task_id=0, label=0, features=[z])

coreset = [sample(0, 0.0), sample(1, 2.0)]
outer_pool = [sample(10, 0.0), sample(11, 2.0), sample(12, 4.0)]

params = fit(quad, coreset, FitConfig(method="closed_form"))
print(f"coreset optimum: theta = {params.theta[0]}")

# The context bundles the frozen selection-time state. The shared solve is
# H^{-1} times the summed outer gradient: (1-0) + (1-2) + (1-4) = -3 over
# curvature 2 gives -1.5.
ctx = build_context(quad, params, outer_pool, coreset, damping=0.0)
print(f"shared inverse-Hessian solve: {ctx.ihvp[0]} (expected -1.5)")

# First-order influence of upweighting z on the pool loss: -ihvp . grad(z).
# Negative score = sample helps the pool = worth keeping.
for z in [0.0, 1.0, 2.0]:
    score = first_order_influence(ctx, sample(20, z))
    print(f"  score(z={z}) = {score:+.1f}")

# For the quadratic the linearization is exact on this family: removing
# z=0 from the coreset and refitting moves theta 1 -> 2 and changes the
# pool loss by exactly minus the score.
delta = loo_retrain_delta(quad, coreset, outer_pool, coreset[0],
                          FitConfig(method="closed_form"))
print(f"retraining delta after removing z=0: {delta} "
      f"(equals -score = {-first_order_influence(ctx, coreset[0])})")

# Second-order influence: how upweighting z shifts the NEXT round's score
# of z'. The curvature mix mu scales the correction H_z * ihvp: mu = 0 is
# the excluded case, mu = 1 the joint case.
z, zp = sample(20, 0.0), sample(21, 3.0)
for case, mu in (("excluded", 0.0), ("joint", 1.0)):
    value = second_order_influence(ctx, z, zp, mu)
    print(f"second-order ({case:8s}, mu={mu}) of (z=0 -> z'=3): {value:+.2f}")
print(f"total interference of discarding {{z=0}} on z'=3 at mu=1: "
      f"{total_interference(ctx, [z], zp, 1.0):+.2f}")

# The regularizer is the norm of the summed discarded terms; its Taylor
# gradient is what the greedy selector adds to the scores.
w = np.array([0.0, 1.0, 1.0])  # keep weights: discard the z=0 candidate
for mu in (0.0, 1.0):
    print(f"regularizer with z=0 discarded, mu={mu}: {regularizer(ctx, w, mu)}")
tg = regularizer_taylor_grad(ctx, w, 0.0)
print(f"taylor gradient across candidates: {tg.grad_w}")
print(f"gradient-matching distance (must equal mu=0 regularizer): "
      f"{gradient_matching_distance(ctx, w)}")
