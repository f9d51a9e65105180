"""Replay-buffer update policies.

The greedy influence selector starts from the full candidate pool and
repeatedly drops the sample whose removal most improves the criterion
``sum_kept(score) + nu * regularizer``, re-linearizing the regularizer after
every drop (the influence scores and the shared inverse-Hessian solve stay
fixed for the round). Baselines cover pure influence ranking, the two
single-term regularizer ablations, the reservoir-sampling update, and a
class-balanced ring buffer; an exhaustive enumerator serves as the
small-instance oracle.
"""

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .influence import (
    CriterionConfig,
    InfluenceContext,
    SelectionWeights,
    _linearized_norm,
    regularizer,
)
from .models import Sample

EXHAUSTIVE_GUARD = 20


class SelectorKind(Enum):
    REGULARIZED_IF = "regularized_if"
    VANILLA_IF = "vanilla_if"
    IF_GRAD_MATCH = "if_grad_match"
    IF_DIVERSITY = "if_diversity"
    RESERVOIR = "reservoir"
    RING = "ring"


GREEDY_KINDS = (
    SelectorKind.REGULARIZED_IF,
    SelectorKind.VANILLA_IF,
    SelectorKind.IF_GRAD_MATCH,
    SelectorKind.IF_DIVERSITY,
)


@dataclass(frozen=True)
class ReplayBuffer:
    samples: tuple
    capacity: int

    def __post_init__(self):
        object.__setattr__(self, "samples", tuple(self.samples))
        if self.capacity < 1:
            raise ValueError("buffer capacity must be at least 1")
        if len(self.samples) > self.capacity:
            raise ValueError(f"buffer holds {len(self.samples)} samples, capacity {self.capacity}")
        ids = [s.id for s in self.samples]
        if len(set(ids)) != len(ids):
            raise ValueError("buffer contains duplicate sample ids")

    def ids(self) -> tuple:
        return tuple(s.id for s in self.samples)

    def id_set(self) -> frozenset:
        return frozenset(s.id for s in self.samples)

    def __len__(self) -> int:
        return len(self.samples)


@dataclass
class SelectionTrace:
    """Diagnostics of one greedy round: what was dropped, at what score."""

    drop_order: list = field(default_factory=list)   # (sample id, drop score)
    reg_values: list = field(default_factory=list)   # regularizer before each drop
    final_criterion: float = 0.0


def _drop_index(totals: np.ndarray, ids: np.ndarray, w: np.ndarray) -> int:
    """Row of the kept sample (``w == 1``) with the largest total; among
    equal totals (``-0.0 == 0.0``), the one with the lowest id."""
    kept_idx = np.flatnonzero(w == 1.0)
    kept_totals = totals[kept_idx]
    top = kept_idx[kept_totals == kept_totals.max()]
    return int(top[np.argmin(ids[top])])


def select_greedy(ctx: InfluenceContext, cfg: CriterionConfig,
                  kind: SelectorKind = SelectorKind.REGULARIZED_IF):
    """Greedily shrink the candidate pool to the budget.

    Every iteration drops the kept sample with the largest
    ``score + nu * reg_grad`` (ties broken toward the lowest sample id)
    until at most ``cfg.budget`` samples remain. ``vanilla_if`` uses the
    scores alone, ``if_grad_match`` evaluates the regularizer gradient at
    ``mu = 0``, and ``if_diversity`` swaps in the kept-gradient norm.
    Returns the resulting buffer plus a :class:`SelectionTrace`.
    """
    if kind not in GREEDY_KINDS:
        raise ValueError(f"{kind} is not a greedy influence selector")
    n = len(ctx.candidates)
    if n == 0:
        raise ValueError("cannot select from an empty candidate list")
    trace = SelectionTrace()
    if cfg.budget >= n:
        buffer = ReplayBuffer(ctx.candidates, cfg.budget)
        return buffer, trace

    # The term is ||a @ M|| on the discarded side (a = 1 - w, gradient
    # negated) or, for if_diversity, the kept side (a = w). vanilla_if's M
    # has no columns, so its term and gradient are +0.0 whatever the
    # (finite) nu.
    kept_side = kind is SelectorKind.IF_DIVERSITY
    if kind is SelectorKind.VANILLA_IF:
        M = np.zeros((n, 0))
    elif kept_side:
        M = ctx.grads
    else:
        M = ctx.mu_terms(0.0 if kind is SelectorKind.IF_GRAD_MATCH else cfg.mu)
    sign = 1.0 if kept_side else -1.0
    scores = ctx.scores()
    ids = np.array([s.id for s in ctx.candidates])
    w = np.ones(n)

    while int(w.sum()) > cfg.budget:
        reg_value, grad_term = _linearized_norm(ctx, w if kept_side else 1.0 - w, M, sign)
        totals = scores + cfg.nu * grad_term
        drop = _drop_index(totals, ids, w)
        trace.drop_order.append((int(ids[drop]), float(totals[drop])))
        trace.reg_values.append(reg_value)
        w[drop] = 0.0

    final_reg, _ = _linearized_norm(ctx, w if kept_side else 1.0 - w, M)
    trace.final_criterion = float(scores[w == 1.0].sum()) + cfg.nu * final_reg
    kept = [c for c, wi in zip(ctx.candidates, w) if wi == 1.0]
    return ReplayBuffer(kept, cfg.budget), trace


def criterion_value(ctx: InfluenceContext, cfg: CriterionConfig,
                    keep_mask: np.ndarray) -> float:
    """Criterion ``sum_kept(score) + nu * regularizer`` for a 0/1 keep mask."""
    w = SelectionWeights(keep_mask).w
    return float(ctx.scores()[w == 1.0].sum()) + cfg.nu * regularizer(ctx, w, cfg.mu)


def select_exhaustive(ctx: InfluenceContext, cfg: CriterionConfig) -> ReplayBuffer:
    """Brute-force minimizer of the selection criterion over all subsets.

    Enumerates subsets of size exactly ``budget``; ties resolve to the
    lexicographically smallest sorted id tuple. Guarded to at most 20
    candidates.
    """
    n = len(ctx.candidates)
    if n > EXHAUSTIVE_GUARD:
        raise ValueError(f"exhaustive selection is guarded to {EXHAUSTIVE_GUARD} candidates, got {n}")
    ids = [s.id for s in ctx.candidates]

    best = None
    for combo in itertools.combinations(range(n), min(cfg.budget, n)):
        mask = np.zeros(n)
        mask[list(combo)] = 1.0
        value = criterion_value(ctx, cfg, mask)
        key = tuple(sorted(ids[i] for i in combo))
        if best is None or value < best[0] or (value == best[0] and key < best[1]):
            best = (value, key, combo)
    kept = [ctx.candidates[i] for i in best[2]]
    return ReplayBuffer(kept, cfg.budget)


def reservoir_slots(size: int, capacity: int, incoming: int, seen_count: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Classic single-pass reservoir update, as positions into the old
    contents followed by the incoming items.

    A reservoir of ``size`` items takes ``incoming`` more. Stream item ``k``
    (1-indexed over the whole stream, ``seen_count`` items before this
    batch) fills a free slot, or enters a full reservoir with probability
    ``capacity / k`` and evicts a uniformly chosen victim. The admit and
    victim draws are pre-generated from ``rng`` in one vectorized call each
    per batch, so the per-item distribution stays classic and each seed
    gives one result; only the admitted items are visited one by one,
    in stream order, so a later admission to the same slot wins. Entry
    ``i`` of the result is the position, in ``old + incoming``, of the item
    that ends up in slot ``i``.
    """
    fill = min(incoming, capacity - size)
    slots = np.arange(size + fill)
    if incoming:
        admit = rng.random(incoming)
        victims = rng.integers(0, capacity, incoming)
        k = seen_count + 1 + np.arange(fill, incoming)
        for j in np.flatnonzero(admit[fill:] < capacity / k) + fill:
            slots[victims[j]] = size + j
    return slots


def select_ring(buffer: ReplayBuffer, incoming: Sequence[Sample],
                num_classes: int) -> ReplayBuffer:
    """Class-balanced FIFO update.

    Capacity splits into per-class quotas of ``capacity // num_classes``
    with the remainder going to the lowest class indices; within a class the
    newest sample evicts the oldest. The returned buffer lists classes in
    index order, oldest first within each class.
    """
    if num_classes < 1:
        raise ValueError("num_classes must be positive")
    base, rem = divmod(buffer.capacity, num_classes)
    quotas = [base + (1 if c < rem else 0) for c in range(num_classes)]
    queues = [[] for _ in range(num_classes)]
    for s in list(buffer.samples) + list(incoming):
        if not 0 <= s.label < num_classes:
            raise ValueError(f"sample {s.id}: label {s.label} outside [0, {num_classes})")
        queues[s.label].append(s)
    kept = []
    for c in range(num_classes):
        kept.extend(queues[c][-quotas[c]:] if quotas[c] > 0 else [])
    return ReplayBuffer(kept, buffer.capacity)
