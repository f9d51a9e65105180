"""Dissect one greedy selection round and benchmark it against brute force.

A pool of 12 samples is cut down to 6. The trace shows each drop decision:
the chosen sample's combined score and the regularizer value at that
moment. Brute-force enumeration of all C(12,6) = 924 subsets provides the
exact optimum, and 1000 random subsets calibrate how good greedy actually
is.
"""

import numpy as np

from coresel import CriterionConfig, FitConfig, ModelSpec, Sample, build_context, fit
from coresel.oracles import criterion_value, criterion_values, select_exhaustive
from coresel.selection import SelectorKind, select_greedy

rng = np.random.default_rng(7)
spec = ModelSpec(kind="logistic", dim=4, num_classes=2, l2_strength=0.1)
centers = rng.normal(size=(2, 4)) * 1.5
pool = [Sample(id=i, task_id=0, label=i % 2,
               features=rng.normal(size=4) + centers[i % 2]) for i in range(12)]

# fit on the first half only, as if it were the buffer from an earlier
# round; at the full pool the gradient sum would vanish and every score
# with it
params = fit(spec, pool[:6], FitConfig(method="newton", grad_tolerance=1e-10))
ctx = build_context(spec, params, pool, pool, damping=0.01)
cfg = CriterionConfig(budget=6, mu=0.5, nu=0.05)

buffer, trace = select_greedy(ctx, cfg, SelectorKind.REGULARIZED_IF)
print("greedy drop order (id, combined score, regularizer before the drop):")
for (sid, score), reg in zip(trace.drop_order, trace.reg_values):
    print(f"  dropped id {sid:2d}   score {score:+.4f}   R = {reg:.4f}")
print(f"kept ids: {sorted(buffer.ids())}")
print(f"greedy criterion value: {trace.final_criterion:.6f}")

exact = select_exhaustive(ctx, cfg)
print(f"exhaustive optimum:     {criterion_value(ctx, cfg, exact.kept):.6f} "
      f"(ids {sorted(exact.ids())})")

masks = np.zeros((1000, 12))
for m in masks:
    m[rng.choice(12, size=6, replace=False)] = 1.0
values = criterion_values(ctx, cfg, masks)
frac = (trace.final_criterion <= values).mean()
print(f"greedy beats {frac:.1%} of 1000 random subsets "
      f"(random median {np.median(values):.6f})")
