"""Replay-buffer update policies.

The greedy influence selector starts from the full candidate pool and
repeatedly drops the sample whose removal most improves the criterion
``sum_kept(score) + nu * regularizer``, re-linearizing the regularizer after
every drop (the influence scores and the shared inverse-Hessian solve stay
fixed for the round). The regularizer ``||a @ M||`` and its gradient come
from running sums ``v = a @ M`` and ``M @ v``, so each drop costs one
matrix-vector product and a fixed handful of O(n) vector calls, with the
kept rows held in id order. Baselines cover pure influence ranking, the two
single-term regularizer ablations, the reservoir-sampling update, and a
class-balanced ring buffer; an exhaustive enumerator, scoring every subset
in one batched criterion call, serves as the small-instance oracle.
"""

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .influence import CriterionConfig, InfluenceContext, _keep_masks, regularizer

EXHAUSTIVE_GUARD = 20
# When the regularizer norm is at or below this factor times the pool size,
# its gradient direction is arbitrary; greedy takes the gradient as zero
# there, so the drop falls back to the raw influence scores.
DEGENERATE_NORM_FACTOR = 1e-12


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
    """The ids a selector kept, in candidate order."""

    kept: tuple

    def __post_init__(self):
        object.__setattr__(self, "kept", tuple(map(int, self.kept)))
        if len(set(self.kept)) != len(self.kept):
            raise ValueError("buffer contains duplicate sample ids")

    def ids(self) -> tuple:
        return self.kept

    def id_set(self) -> frozenset:
        return frozenset(self.kept)


@dataclass
class SelectionTrace:
    """Diagnostics of one greedy round: what was dropped, at what score."""

    drop_order: list = field(default_factory=list)   # (sample id, drop score)
    reg_values: list = field(default_factory=list)   # regularizer before each drop
    final_criterion: float = 0.0


def _drop_index(totals: np.ndarray, kept: np.ndarray) -> int:
    """Position in ``kept`` of the row to drop: the largest total, and among
    equal totals (``-0.0 == 0.0``) the first, which is the lowest id because
    ``kept`` holds the kept rows in id order. Raises ValueError on a NaN
    total, which ``argmax`` would otherwise pick."""
    j = int(totals[kept].argmax())
    if math.isnan(totals[kept[j]]):
        raise ValueError(f"greedy total of row {kept[j]} is NaN")
    return j


def select_greedy(ctx: InfluenceContext, cfg: CriterionConfig,
                  kind: SelectorKind = SelectorKind.REGULARIZED_IF):
    """Greedily shrink the candidate pool to the budget.

    Each of the ``n - cfg.budget`` drops removes the kept sample with the
    largest ``score + nu * reg_grad`` (ties broken toward the lowest sample
    id). ``vanilla_if`` uses the scores alone, ``if_grad_match`` evaluates
    the regularizer gradient at ``mu = 0``, and ``if_diversity`` swaps in
    the kept-gradient norm.

    The regularizer is ``||a @ M||`` and its gradient ``sign * M @ v /
    ||v||`` with ``v = a @ M``. Both ``v`` and ``M @ v`` are running sums:
    dropping row ``d`` moves ``a`` by ``+-e_d``, so ``v`` moves by
    ``+-M[d]`` and ``M @ v`` by ``+-M @ M[d]``. A drop costs that one
    matrix-vector product plus a fixed handful of O(n) calls: the totals
    are written into one preallocated buffer, and the kept rows are held
    in id order, so the drop is the first maximum among them.
    At or below ``DEGENERATE_NORM_FACTOR * n`` the gradient is zero.
    ``reg_values`` are ``||v||`` of the running ``v``; ``final_criterion``
    is computed from scratch on the kept mask. A budget that does not bind
    (``budget >= n``) gives no drops and the criterion of keeping every
    candidate. A NaN total raises ValueError.
    Returns the resulting buffer plus a :class:`SelectionTrace`.
    """
    if kind not in GREEDY_KINDS:
        raise ValueError(f"{kind} is not a greedy influence selector")
    ids = ctx.batch.ids
    n = len(ids)
    trace = SelectionTrace()

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
    # The gradient's sign folds into add or subtract, and a drop's step of
    # +-1 into the running sums' update: IEEE negation commutes with
    # rounding, so these give the bits of multiplying by +-1.
    add_grad, move = (np.add, np.subtract) if kept_side else (np.subtract, np.add)
    scores = ctx.scores()
    threshold = DEGENERATE_NORM_FACTOR * max(1, n)
    v = (np.ones(n) if kept_side else np.zeros(n)) @ M
    Mv = M @ v
    kept = np.argsort(ids, kind="stable")
    totals, column = np.empty(n), np.empty(n)

    for _ in range(n - cfg.budget):
        reg_value = math.sqrt(v @ v)   # np.linalg.norm(v)'s own formula
        if reg_value > threshold:
            np.divide(Mv, reg_value, out=totals)
            totals *= cfg.nu
            add_grad(scores, totals, out=totals)
        else:
            np.add(scores, 0.0, out=totals)
        j = _drop_index(totals, kept)
        drop = kept[j]
        kept[j:-1] = kept[j + 1:]      # shift it out in place, ids stay in order
        kept = kept[:-1]
        trace.drop_order.append((int(ids[drop]), float(totals[drop])))
        trace.reg_values.append(reg_value)
        move(v, M[drop], out=v)
        move(Mv, np.matmul(M, M[drop], out=column), out=Mv)

    w = np.zeros(n)
    w[kept] = 1.0
    final_reg = float(np.linalg.norm((w if kept_side else 1.0 - w) @ M))
    trace.final_criterion = float(scores[w == 1.0].sum()) + cfg.nu * final_reg
    return ReplayBuffer(ids[w == 1.0]), trace


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
    regs = np.linalg.norm((1.0 - masks) @ ctx.mu_terms(cfg.mu), axis=1)
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
    return ReplayBuffer([ids[i] for i in combos[best]])


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


def ring_slots(labels: np.ndarray, capacity: int, num_classes: int) -> np.ndarray:
    """Class-balanced FIFO update, as positions into the old contents
    followed by the incoming items.

    ``labels`` are the labels of old + incoming, oldest first. Capacity
    splits into per-class quotas of ``capacity // num_classes`` with the
    remainder going to the lowest class indices; within a class the newest
    item evicts the oldest. The result lists classes in index order, oldest
    first within each class.
    """
    if num_classes < 1:
        raise ValueError("num_classes must be positive")
    labels = np.asarray(labels, dtype=np.int64)
    bad = np.flatnonzero((labels < 0) | (labels >= num_classes))
    if len(bad):
        raise ValueError(f"position {bad[0]}: label {labels[bad[0]]} "
                         f"outside [0, {num_classes})")
    base, rem = divmod(capacity, num_classes)
    quotas = base + (np.arange(num_classes) < rem)
    order = np.argsort(labels, kind="stable")
    by_class = labels[order]
    # 1 for the newest item of its class, 2 for the one before, ...
    age = np.cumsum(np.bincount(labels, minlength=num_classes))[by_class] - np.arange(len(order))
    return order[age <= quotas[by_class]]
