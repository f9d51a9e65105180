"""Replay-buffer selectors head to head on a drifting task stream.

Five tasks of 2-D Gaussian pairs arrive with mean drift and 15% label
noise. Each selector maintains a 50-sample buffer; a 4x oversized
reservoir runs alongside as the unbiased referee, and at every selection
step Kendall's tau measures how well the method's influence ranking
agrees with the referee's. Regularizing the selection keeps the buffer
representative, which shows up as both higher rank agreement and higher
final accuracy.
"""

import numpy as np

from coresel import (
    CriterionConfig,
    ModelSpec,
    OracleConfig,
    StreamSpec,
    make_stream,
    run_continual,
)
from coresel.selection import SelectorKind

SELECTORS = [SelectorKind.REGULARIZED_IF, SelectorKind.VANILLA_IF,
             SelectorKind.IF_GRAD_MATCH, SelectorKind.RESERVOIR, SelectorKind.RING]
SEEDS = range(3)

model = ModelSpec(kind="logistic", dim=2, num_classes=10, l2_strength=0.01)
criterion = CriterionConfig(budget=50, mu=0.5, nu=1.0)

rows = {}
for kind in SELECTORS:
    taus, accs, bwts = [], [], []
    for seed in SEEDS:
        stream = make_stream(StreamSpec(
            num_tasks=5, classes_per_task=2, samples_per_class=12, dim=2,
            batch_size=12, seed=seed, mean_scale=5.0, within_std=0.8,
            drift_offsets=(0.0, 0.3, 0.6, 0.9, 1.2), label_noise=(0.15,) * 5,
            test_fraction=0.5))
        report = run_continual(stream, model, kind, criterion, OracleConfig(),
                               seed=seed, learning_rate=0.02, epochs=20,
                               reweight_constant=1.0)
        if report.mean_tau is not None:
            taus.append(report.mean_tau)
        accs.append(report.acc)
        bwts.append(report.bwt)
    rows[kind.value] = (np.mean(taus) if taus else float("nan"),
                        np.mean(accs), np.mean(bwts))

print(f"{'selector':16s} {'mean tau':>9s} {'final acc':>10s} {'bwt':>8s}")
for name, (tau, acc, bwt) in rows.items():
    print(f"{name:16s} {tau:9.3f} {acc:10.3f} {bwt:8.3f}")

print("\nhigher tau = influence estimates stay closer to the unbiased "
      "reservoir ranking as selection rounds accumulate")
