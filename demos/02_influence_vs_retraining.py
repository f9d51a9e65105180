"""How faithful are influence scores? Compare against exact retraining.

For a strictly convex logistic model, remove each training sample in turn,
refit to optimality, and measure the change in test loss. The influence
score predicts that change from one linear solve, several orders of
magnitude cheaper than the 200 refits it stands in for.
"""

import numpy as np

from coresel import FitConfig, ModelSpec, Sample, build_context, fit, loo_retrain_deltas
from coresel.models import grad_matrix

rng = np.random.default_rng(42)
dim, n = 10, 200
spec = ModelSpec(kind="logistic", dim=dim, num_classes=2, l2_strength=0.1)
centers = rng.normal(size=(2, dim))


def draw(count, id0):
    out = []
    for i in range(count):
        label = i % 2
        out.append(Sample(id=id0 + i, task_id=0, label=label,
                          features=rng.normal(size=dim) + centers[label]))
    return out


train = draw(n, 0)
test = draw(n, 1000)

cfg = FitConfig(method="newton", grad_tolerance=1e-10)
params = fit(spec, train, cfg)
print(f"fitted {n} samples, parameter dimension {spec.param_dim}")

# candidates = the outer pool whose loss we care about (the test set);
# the Hessian comes from the training set the model was fitted on
ctx = build_context(spec, params, test, train, damping=0.0)
scores = -(grad_matrix(spec, params, train) @ ctx.ihvp)

print("running exact leave-one-out retraining for all 200 samples...")
deltas = loo_retrain_deltas(spec, train, test, cfg)

corr = np.corrcoef(deltas, -scores)[0, 1]
print(f"Pearson correlation between retraining deltas and -scores: {corr:.4f}")

order_pred = np.argsort(scores)
order_true = np.argsort(-deltas)
overlap = len(set(order_pred[:20]) & set(order_true[:20]))
print(f"overlap of the 20 most valuable samples (predicted vs exact): {overlap}/20")
print("\nmost valuable (lowest score) sample ids: ", order_pred[:5].tolist())
print("most harmful (highest score) sample ids:  ", order_pred[-5:].tolist())
