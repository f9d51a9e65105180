"""Replay-buffer update policies.

The greedy influence selector starts from the full candidate pool and
repeatedly drops the sample whose removal most improves the criterion
``sum_kept(score) + nu * regularizer``, re-linearizing the regularizer after
every drop (the influence scores and the shared inverse-Hessian solve stay
fixed for the round). The regularizer ``||a @ M||`` and its gradient come
from running sums ``v = a @ M`` and ``M @ v``. A drop moves ``M @ v`` by a
Gram column of ``M``, built from the factored rows ``w_i (u_i (x) x_i +
c)`` of :meth:`~coresel.influence.InfluenceContext.mu_factors`: three
small matrix-vector products over ``num_classes + dim + 2`` numbers per
row, where a row of ``M`` has ``num_classes * dim``, and a fixed handful
of O(n) vector calls. Each kept row's factors, ``M @ v`` and score are
one column of a single C-contiguous block, in id order, so the drop is
the first maximum among them and the products run transposed over the
block's row slices; a dropped column is marked dead in place, and once
dead columns reach 1/``SQUEEZE_RATIO`` of those held, one copy of the
block squeezes them out, so each product spans little more than the kept
rows. The columns held are padded to a multiple of 4, where OpenBLAS
rounds a column's product alike wherever the column sits, so copies of
one sample tie exactly. Baselines cover pure influence ranking, the two
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
from .models import check_unique_ids
from .numkit import matvec_by_fours

EXHAUSTIVE_GUARD = 20
# When the regularizer norm is at or below this factor times the pool size,
# its gradient direction is arbitrary; greedy takes the gradient as zero
# there, so the drop falls back to the raw influence scores.
DEGENERATE_NORM_FACTOR = 1e-12
# Greedy's drop loop squeezes dropped rows out of the rows it holds once
# they make up 1/SQUEEZE_RATIO of them.
SQUEEZE_RATIO = 16


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
        check_unique_ids(self.kept, "buffer contains duplicate sample ids")

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
    ``+-M[d]`` and ``M @ v`` by ``+-M @ M[d]``. That column comes from the
    factors ``(U, X, a, c2)`` of ``M`` (see :meth:`~coresel.influence.
    InfluenceContext.mu_factors`) as ``(U @ U[d]) * (X @ X[d]) + (a, w) @
    (w[d], a[d] + w[d] c2)``, with ``w`` the batch weights: a drop costs
    three matrix-vector products over ``num_classes + dim + 2`` numbers per
    row, not one over ``M``'s ``num_classes * dim``, plus a fixed handful
    of O(n) calls. Greedy holds one C-contiguous ``(num_classes + dim + 6,
    columns)`` block whose rows are ``U^T``, ``X^T``, ``(a, w)^T``, ``(w,
    a + w c2)^T``, ``M @ v`` and the scores, and whose columns are the rows
    held, in id order, so the drop is the first maximum among them and
    each product is a transposed one, e.g. ``U^T[:, d] @ U^T``, over
    contiguous block rows. A dropped column stays in place with score
    ``-inf`` until dropped columns make up ``1 / SQUEEZE_RATIO`` of those
    held; then one ``take`` of the block (plus the row map and the alive
    flags) squeezes them out, so each product spans little more than the
    kept rows. The columns held are padded with dead ones to a multiple of
    4, where OpenBLAS rounds a column's product alike wherever the column
    sits (it rounds the last ``columns % 4`` of other blocks its own way),
    and the scores and the initial ``M @ v`` come from products padded the
    same way (:func:`~coresel.numkit.matvec_by_fours`), so copies of one
    sample tie exactly wherever they sit among the candidates. The totals
    can differ in their last bits from those of the product ``M @ M[d]``;
    ``v``, moved by the rows of ``M`` themselves, the norms and the
    criterion do not. At or below ``DEGENERATE_NORM_FACTOR * n`` the
    gradient is zero.
    ``reg_values`` are ``||v||`` of the running ``v``; ``final_criterion``
    is computed from scratch on the kept mask.
    ``vanilla_if`` has no regularizer, so its drops are one sort of the
    scores (see :func:`_select_by_score`). A budget that does not bind
    (``budget >= n``) gives no drops and the criterion of keeping every
    candidate. A NaN total raises ValueError naming the lowest-id NaN row.
    Returns the resulting buffer plus a :class:`SelectionTrace`.
    """
    if kind not in GREEDY_KINDS:
        raise ValueError(f"{kind} is not a greedy influence selector")
    if kind is SelectorKind.VANILLA_IF:
        return _select_by_score(ctx, cfg)
    ids = ctx.batch.ids
    n = len(ids)
    trace = SelectionTrace()

    # The term is ||a @ M|| on the discarded side (a = 1 - kept, gradient
    # negated) or, for if_diversity, the kept side (a = kept), where M is
    # the gradients themselves, the terms at mu = 0.
    kept_side = kind is SelectorKind.IF_DIVERSITY
    mu = cfg.mu if kind is SelectorKind.REGULARIZED_IF else 0.0
    M = ctx.mu_terms(mu)
    U, X, a, c2 = ctx.mu_factors(mu)
    w = ctx.batch.w
    # The gradient's sign folds into add or subtract, and a drop's step of
    # +-1 into the running sums' update: IEEE negation commutes with
    # rounding, so these give the bits of multiplying by +-1.
    add_grad, move = (np.add, np.subtract) if kept_side else (np.subtract, np.add)
    threshold = DEGENERATE_NORM_FACTOR * max(1, n)
    all_scores = ctx.scores()
    v = (np.ones(n) if kept_side else np.zeros(n)) @ M
    # Held rows, in id order: rows[i] is the context row that column i of
    # the block holds. np.resize pads them to a multiple of 4 with repeats,
    # held dead. The block's rows are U^T, X^T, the pairs (a, w), their
    # mates (w, a + w c2), M @ v and the scores, so M[i] . M[d] is
    # (U[i] . U[d]) (X[i] . X[d]) + pairs[i] . mates[d].
    rows = np.resize(np.argsort(ids, kind="stable"), n + -n % 4)
    held = np.vstack((U.T, X.T, a, w, w, a + w * c2, matvec_by_fours(M, v),
                      all_scores)).take(rows, axis=1)
    bounds = np.cumsum((U.shape[1], X.shape[1], 2, 2))
    held_U, held_X, pairs, mates, (Mv, scores) = np.split(held, bounds)
    alive = np.arange(len(rows)) < n
    scores[~alive] = -math.inf
    dead = 0
    totals, column, class_dots, feature_dots = (np.empty(len(rows)) for _ in range(4))
    drops = max(0, n - cfg.budget)
    # the trace, filled drop by drop: context rows, totals and norms
    dropped, drop_totals, reg_values = (np.empty(drops, dtype=np.intp), np.empty(drops),
                                        np.empty(drops))

    for k in range(drops):
        if SQUEEZE_RATIO * dead >= len(rows):
            # the live rows, and the first dead ones to pad to a multiple of 4
            pad = -np.count_nonzero(alive) % 4
            keep = alive.copy()
            keep[np.flatnonzero(~alive)[:pad]] = True
            at = np.flatnonzero(keep)
            held, rows, alive, dead = held.take(at, axis=1), rows[at], alive[at], 0
            held_U, held_X, pairs, mates, (Mv, scores) = np.split(held, bounds)
            totals, column, class_dots, feature_dots = (
                b[:len(rows)] for b in (totals, column, class_dots, feature_dots))
        reg_value = math.sqrt(np.dot(v, v))   # np.linalg.norm(v)'s own formula
        if reg_value > threshold:
            np.divide(Mv, reg_value, out=totals)
            totals *= cfg.nu
            add_grad(scores, totals, out=totals)
        else:
            np.add(scores, 0.0, out=totals)
        j = int(totals.argmax())
        if not alive[j]:   # a dead row's -inf tied the kept rows or made a NaN
            live = np.flatnonzero(alive)
            j = int(live[totals[live].argmax()])
        if math.isnan(totals[j]):
            raise ValueError(f"greedy total of row {rows[j]} is NaN")
        row = rows[j]
        dropped[k], drop_totals[k], reg_values[k] = row, totals[j], reg_value
        scores[j], alive[j] = -math.inf, False
        dead += 1
        move(v, M[row], out=v)
        np.dot(held_U[:, j], held_U, out=class_dots)
        np.dot(held_X[:, j], held_X, out=feature_dots)
        np.dot(mates[:, j], pairs, out=column)
        class_dots *= feature_dots
        column += class_dots
        move(Mv, column, out=Mv)

    trace.drop_order = list(zip(ids[dropped].tolist(), drop_totals.tolist()))
    trace.reg_values = reg_values.tolist()
    kept = np.zeros(n)
    kept[rows[alive]] = 1.0
    final_reg = float(np.linalg.norm((kept if kept_side else 1.0 - kept) @ M))
    trace.final_criterion = float(all_scores[kept == 1.0].sum()) + cfg.nu * final_reg
    return ReplayBuffer(ids[kept == 1.0]), trace


def _select_by_score(ctx: InfluenceContext, cfg: CriterionConfig):
    """:func:`select_greedy` for ``vanilla_if``, where every total is its
    score: the drops are the ``n - budget`` largest scores, ties toward
    the lowest id, in one sort. The trace holds what the greedy loop would
    record: totals ``score + 0.0``, regularizer values ``0.0`` and the
    kept scores' sum plus ``nu * 0.0``. A NaN score raises ValueError
    naming the lowest-id NaN row, which the loop's first drop meets."""
    ids = ctx.batch.ids
    scores = ctx.scores()
    drops = np.lexsort((ids, -scores))[:max(0, len(ids) - cfg.budget)]
    nan_rows = np.flatnonzero(np.isnan(scores))
    if drops.size and nan_rows.size:
        raise ValueError(f"greedy total of row {nan_rows[ids[nan_rows].argmin()]} is NaN")
    totals = scores + 0.0
    kept = np.ones(len(ids), dtype=bool)
    kept[drops] = False
    trace = SelectionTrace(drop_order=[(int(ids[d]), float(totals[d])) for d in drops],
                           reg_values=[0.0] * drops.size,
                           final_criterion=float(scores[kept].sum()) + cfg.nu * 0.0)
    return ReplayBuffer(ids[kept]), trace


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
