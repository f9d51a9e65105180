"""Numerically probe the two second-order influence formulas.

Upweight a sample z by a finite eps, recompute the next-round score of z'
with exact dense inverses, and form the difference quotient. When z only
perturbs the outer gradient sum (the excluded case) the quotient is exactly
linear in eps and reproduces the formula to machine precision at any eps.
When z is jointly re-optimized its Hessian contribution enters the inverse,
and the quotient converges at rate O(eps) instead -- halving eps halves the
error, which the table below makes visible.
"""

import numpy as np

from coresel import FitConfig, ModelSpec, Sample, build_context, fit
from coresel.oracles import finite_eps_second_order, second_order_influence

rng = np.random.default_rng(3)
spec = ModelSpec(kind="logistic", dim=5, num_classes=3, l2_strength=0.1)
centers = rng.normal(size=(3, 5)) * 1.5
pool = [Sample(id=i, task_id=0, label=i % 3,
               features=rng.normal(size=5) + centers[i % 3]) for i in range(30)]

params = fit(spec, pool, FitConfig(method="newton", grad_tolerance=1e-10))
ctx = build_context(spec, params, pool[:25], pool[:25], damping=0.01)
z, zp = pool[0], pool[-1]

# mu mixes the curvature correction in: 0 is the excluded case, 1 the joint.
for case, mu in (("excluded", 0.0), ("joint", 1.0)):
    exact = second_order_influence(ctx, z, zp, mu)
    print(f"\n{case} case (mu={mu}): closed-form value = {exact:+.10f}")
    print(f"  {'eps':>10s} {'quotient':>16s} {'abs error':>12s}")
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
        q = finite_eps_second_order(ctx, z, zp, mu, eps)
        print(f"  {eps:10.0e} {q:16.10f} {abs(q - exact):12.2e}")

print("\nexcluded-case errors sit at solver precision for every eps;")
print("joint-case errors shrink linearly with eps (one decade per decade)")
