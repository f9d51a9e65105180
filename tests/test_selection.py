"""Selector tests: greedy drops, brute-force oracle, reservoir, ring."""

import itertools
import math
import os
import subprocess
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coresel import influence, models, oracles, selection
from coresel.influence import CriterionConfig, build_context
from coresel.models import FitConfig, ModelSpec, Params, Sample, fit, stack_samples
from coresel.oracles import criterion_value, criterion_values, mu_terms, select_exhaustive
from coresel.selection import (
    GREEDY_KINDS,
    ReplayBuffer,
    SelectorKind,
    reservoir_slots,
    ring_slots,
    select_greedy,
)

QUAD = ModelSpec(kind="quad1d", dim=1)


def qsample(i, z):
    return Sample(id=i, task_id=0, label=0, features=[z])


def csample(i, label, dim=1):
    return Sample(id=i, task_id=0, label=label, features=np.zeros(dim))


def parent_drop_index(totals, ids, w):
    """The drop rule before kept rows were held in id order: among the kept
    rows (``w == 1``) with the largest total, the one with the lowest id."""
    kept_idx = np.flatnonzero(w == 1.0)
    kept_totals = totals[kept_idx]
    top = kept_idx[kept_totals == kept_totals.max()]
    return int(top[np.argmin(ids[top])])


def sorted_drop_row(totals, ids, w):
    """Reference drop rule: sort the kept rows by (-total, id), take the first."""
    kept_idx = np.flatnonzero(w == 1.0)
    return int(sorted(kept_idx, key=lambda i: (-totals[i], ids[i]))[0])


def greedy_term(ctx, cfg, kind):
    """The regularizer rows greedy linearizes, built from the context's
    factors as greedy builds them, and whether they are kept-side."""
    n = len(ctx.batch.ids)
    if kind is SelectorKind.VANILLA_IF:
        return np.zeros((n, 0)), False
    mu = cfg.mu if kind is SelectorKind.REGULARIZED_IF else 0.0
    M = selection._factored_rows(*ctx.mu_factors(mu), ctx.batch.w)
    return M, kind is SelectorKind.IF_DIVERSITY


def degenerate_threshold(ctx):
    return selection.DEGENERATE_NORM_FACTOR * max(1, len(ctx.batch.ids))


def linearized_norm(ctx, a, M, sign):
    """``||a @ M||`` and its gradient in ``a`` times ``sign``,
    ``sign * M @ (a @ M) / ||a @ M||``, zero at or below greedy's
    degenerate threshold."""
    v = a @ M
    value = float(np.linalg.norm(v))
    if value <= degenerate_threshold(ctx):
        return value, np.zeros(len(a))
    return value, sign * (M @ (v / value))


def scratch_greedy(ctx, cfg, kind):
    """Reference greedy: re-linearize ``||a @ M||`` from scratch before every
    drop (two passes over ``M``), drop by :func:`sorted_drop_row`, and stop
    once ``w.sum()`` reaches the budget."""
    ids = ctx.batch.ids
    M, kept_side = greedy_term(ctx, cfg, kind)
    sign = 1.0 if kept_side else -1.0
    scores = ctx.scores()
    w = np.ones(len(ids))
    drop_order, reg_values = [], []
    while int(w.sum()) > cfg.budget:
        reg_value, grad_term = linearized_norm(ctx, w if kept_side else 1.0 - w, M, sign)
        totals = scores + cfg.nu * grad_term
        drop = sorted_drop_row(totals, ids, w)
        drop_order.append((int(ids[drop]), float(totals[drop])))
        reg_values.append(reg_value)
        w[drop] = 0.0
    final_reg = float(np.linalg.norm((w if kept_side else 1.0 - w) @ M))
    return drop_order, reg_values, float(scores[w == 1.0].sum()) + cfg.nu * final_reg


def padded_matvec(A, x):
    """``A @ x`` over the rows of ``A`` and zero rows up to a multiple of 4,
    where BLAS rounds every row's product alike."""
    return (np.vstack((A, np.zeros((-len(A) % 4, A.shape[1])))) @ x)[:len(A)]


def parent_select_greedy(ctx, cfg, kind, drop_row=parent_drop_index):
    """The greedy loop before kept rows were held in id order: a kept mask,
    out-of-place totals, running-sum updates with one product over all
    ``n`` rows, padded to a multiple of 4 so that copies of one sample tie
    wherever they sit, and ``drop_row`` (:func:`parent_drop_index` by
    default). Returns the kept ids and the trace."""
    ids = ctx.batch.ids
    n = len(ids)
    M, kept_side = greedy_term(ctx, cfg, kind)
    sign, step = (1.0, -1.0) if kept_side else (-1.0, 1.0)
    scores = ctx.scores()
    threshold = degenerate_threshold(ctx)
    w = np.ones(n)
    v = (w if kept_side else 1.0 - w) @ M
    Mv = padded_matvec(M, v)
    drop_order, reg_values = [], []

    for _ in range(n - cfg.budget):
        reg_value = float(np.linalg.norm(v))
        grad = sign * Mv / reg_value if reg_value > threshold else np.zeros(n)
        totals = scores + cfg.nu * grad
        drop = drop_row(totals, ids, w)
        drop_order.append((int(ids[drop]), float(totals[drop])))
        reg_values.append(reg_value)
        w[drop] = 0.0
        v += step * M[drop]
        Mv += step * padded_matvec(M, M[drop])

    final_reg = float(np.linalg.norm((w if kept_side else 1.0 - w) @ M))
    trace = selection.SelectionTrace(drop_order, reg_values,
                                     float(scores[w == 1.0].sum()) + cfg.nu * final_reg)
    return tuple(ids[w == 1.0].tolist()), trace


def assert_greedy_matches_parent_loop(ctx, cfg, kind, drop_row=parent_drop_index):
    """Same kept ids, drop ids, norms and criterion, to the bit (signed zeros
    included), and the same drop totals within ``1e-13 * max(1, max |total|)``:
    greedy builds each Gram column from transposed products over the
    factors of the columns it holds, padded to a multiple of 4, in another
    order of operations than the parent's product ``M @ M[d]``."""
    buffer, trace = select_greedy(ctx, cfg, kind)
    kept, oracle = parent_select_greedy(ctx, cfg, kind, drop_row)
    assert buffer.ids() == kept
    assert [i for i, _ in trace.drop_order] == [i for i, _ in oracle.drop_order]
    for got, want in ((trace.reg_values, oracle.reg_values),
                      ([trace.final_criterion], [oracle.final_criterion])):
        assert got == want
        assert np.array(got, dtype=float).tobytes() == np.array(want, dtype=float).tobytes()
    assert_totals_close(trace, oracle)


def assert_totals_close(trace, oracle):
    """The trace's drop totals within ``1e-13 * max(1, max |total|)`` of the
    oracle trace's."""
    totals = np.array([t for _, t in oracle.drop_order])
    bound = 1e-13 * max(1.0, np.abs(totals).max(initial=0.0))
    assert [t for _, t in trace.drop_order] == pytest.approx(totals.tolist(), rel=0, abs=bound)


def context_state(value):
    """A comparable copy of ``value``'s state: the bytes of every array it
    holds, nested in tuples (a Batch) or in attributes (the parameters, the
    solver), and every other attribute as it is."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, tuple):
        return tuple(context_state(v) for v in value)
    if hasattr(value, "__dict__"):
        return {key: context_state(v) for key, v in vars(value).items()}
    return value


def scratch_exhaustive(ctx, cfg):
    """Reference exhaustive pick: one ``criterion_value`` call per subset."""
    ids = ctx.batch.ids.tolist()
    n = len(ids)
    best = None
    for combo in itertools.combinations(range(n), min(cfg.budget, n)):
        mask = np.zeros(n)
        mask[list(combo)] = 1.0
        value = criterion_value(ctx, cfg, mask)
        key = tuple(sorted(ids[i] for i in combo))
        if best is None or value < best[0] or (value == best[0] and key < best[1]):
            best = (value, key)
    return best[1]


def stand_in_ctx(ids, scores, at_zero, at_mu=None):
    """A stand-in context with unit weights whose regularizer rows are
    ``at_zero`` at ``mu = 0`` (the gradients) and ``at_mu`` (default
    ``at_zero``) at any other ``mu``. Its factors are the trivial ones, the
    rows themselves with ``X = 1`` and ``C = 0``, whose Gram column is
    ``rows @ rows[d]``; greedy reads nothing else of it."""
    n = len(ids)

    def factors(mu):
        rows = at_zero if mu == 0.0 or at_mu is None else at_mu
        return rows, np.ones((n, 1)), np.zeros((rows.shape[1], 1))

    return SimpleNamespace(batch=SimpleNamespace(ids=ids, w=np.ones(n)),
                           scores=lambda: scores, mu_factors=factors)


# Directions whose norm is a power of two: with rows that are integer
# multiples of one of them, ||v|| is |c| * 2^k for an integer c, so every
# sum, norm and quotient greedy takes is exact in both loops.
EXACT_DIRECTIONS = [(1.0,), (1.0, 1.0, 1.0, 1.0), (1.0, -1.0, 1.0, -1.0), (0.0, 2.0)]


@st.composite
def exact_greedy_instances(draw):
    """A stand-in context whose regularizer rows are small-integer multiples of
    one power-of-two-norm direction and whose scores are dyadic, so both
    greedy loops compute exactly and rows tie; plus a budget, a kind and a
    dyadic ``nu``."""
    n = draw(st.integers(1, 16))
    small = st.lists(st.integers(-3, 3), min_size=n, max_size=n)

    def rows():
        return np.outer(draw(small), draw(st.sampled_from(EXACT_DIRECTIONS)))

    at_zero, at_mu = rows(), rows()
    scores = np.array(draw(small), dtype=float) / 4
    ids = 3 * np.array(draw(st.permutations(range(n)))) - 20
    ctx = stand_in_ctx(ids, scores, at_zero, at_mu)
    cfg = CriterionConfig(budget=draw(st.integers(1, n + 1)), mu=0.5,
                          nu=draw(st.sampled_from([0.0, 0.25, 1.0, 2.0])))
    return ctx, cfg, draw(st.sampled_from(GREEDY_KINDS))


# The kinds whose drops run greedy's loop; vanilla_if's are one sort.
LOOP_KINDS = tuple(k for k in GREEDY_KINDS if k is not SelectorKind.VANILLA_IF)
TIED_TOTALS = np.array([0.0, -0.0, 1.0, -1.5, np.inf, -np.inf, 5e-324, -5e-324])


def static_ctx(ids, scores):
    """A stand-in context whose regularizer rows have no columns, so every
    greedy total is its score plus 0.0."""
    return stand_in_ctx(ids, scores, np.zeros((len(ids), 0)))


@st.composite
def static_total_instances(draw):
    """A :func:`static_ctx` with scores drawn half from a few values, so
    rows tie, 0.0 and -0.0 and both infinities among them, and half from
    all non-NaN floats; ids are unique but out of row order; plus a budget
    and a greedy kind that runs the drop loop. One byte per row
    picks its source and its tied value, so all rows cost one draw:
    hypothesis's per-draw overhead, not the check, dominates this test."""
    n = draw(st.integers(1, 40))
    row_bytes = np.frombuffer(draw(st.binary(min_size=n, max_size=n)), dtype=np.uint8)
    free = (row_bytes & 1) == 1
    scores = TIED_TOTALS[(row_bytes >> 1) & 7]
    scores[free] = draw(st.lists(st.floats(allow_nan=False),
                                 min_size=int(free.sum()), max_size=int(free.sum())))
    ids = 3 * np.array(draw(st.permutations(range(n)))) - 40
    cfg = CriterionConfig(budget=draw(st.integers(1, n)))
    return static_ctx(ids, scores), cfg, draw(st.sampled_from(LOOP_KINDS))


def random_logistic_pool(rng, n, dim=4, num_classes=2, l2=0.1):
    spec = ModelSpec(kind="logistic", dim=dim, num_classes=num_classes, l2_strength=l2)
    samples = [Sample(id=i, task_id=0, label=int(rng.integers(num_classes)),
                      features=rng.normal(size=dim) + (2.0 if rng.random() < 0.2 else 0.0))
               for i in range(n)]
    return spec, samples


def random_logistic_ctx(rng, n, dim=4, num_classes=2, l2=0.1):
    """A logistic context at the pool's own Newton optimum."""
    spec, samples = random_logistic_pool(rng, n, dim, num_classes, l2)
    params = fit(spec, samples, FitConfig(method="newton", grad_tolerance=1e-10))
    return build_context(spec, params, samples, samples, damping=0.01)


def fitted_elsewhere_ctx(rng, n, dim=4, num_classes=2):
    """A logistic context over ``n`` samples, scored by a model fitted on
    ``n`` further draws, as the previous round's model would score them."""
    spec, drawn = random_logistic_pool(rng, 2 * n, dim, num_classes)
    params = fit(spec, drawn[n:], FitConfig(method="newton", grad_tolerance=1e-10))
    return build_context(spec, params, drawn[:n], drawn[:n], damping=0.01)


def off_optimum_ctx(rng, n, dim=4, ids=None, weights=None):
    """A logistic context at random parameters. At the pool's own optimum
    ``ihvp`` is ~0, so ``mu_terms(mu)`` is ``grads`` for every ``mu``; here
    ``mu`` changes the regularizer. ``ids`` default to ``range(n)``, the
    row weights to 1."""
    spec = ModelSpec(kind="logistic", dim=dim, num_classes=2, l2_strength=0.1)
    pool = [Sample(id=int(i), task_id=0, label=int(rng.integers(2)), features=rng.normal(size=dim))
            for i in (range(n) if ids is None else ids)]
    if weights is not None:
        pool = stack_samples(spec, pool).with_weights(weights)
    params = Params(rng.normal(scale=0.5, size=spec.param_dim))
    return build_context(spec, params, pool, pool, damping=0.01)


def duplicated_ctx(rng, n, dim=4, num_classes=2, scattered=False):
    """A logistic context at random parameters over ``n // 2`` samples, each
    twice under two ids in shuffled order: the copies' totals tie exactly.
    The copies sit in adjacent rows or, if ``scattered``, in random rows,
    never next to each other; a scattered pool of odd ``n`` also holds one
    sample without a copy, so that it has ``n`` rows."""
    spec = ModelSpec(kind="logistic", dim=dim, num_classes=num_classes, l2_strength=0.1)
    drawn = [(int(rng.integers(num_classes)), rng.normal(size=dim)) for _ in range(n // 2)]
    ids = rng.permutation(2 * len(drawn))
    pool = [Sample(id=int(ids[2 * i + c]), task_id=0, label=label, features=x)
            for i, (label, x) in enumerate(drawn) for c in (0, 1)]
    if scattered and n % 2:
        pool.append(Sample(id=len(pool), task_id=0, label=int(rng.integers(num_classes)),
                           features=rng.normal(size=dim)))
    if scattered:
        # the copies of sample i are pool rows 2i and 2i + 1
        order = rng.permutation(len(pool))
        while np.any(order[1:] // 2 == order[:-1] // 2):
            order = rng.permutation(len(pool))
        pool = [pool[i] for i in order]
    params = Params(rng.normal(scale=0.5, size=spec.param_dim))
    return build_context(spec, params, pool, pool, damping=0.01)


def assert_copies_tie(rng, kind, count, scattered=False):
    """:func:`assert_greedy_matches_parent_loop`, by the sorted drop rule, on
    ``count`` :func:`duplicated_ctx` pools at an odd factor width (3 classes,
    dim 5) and at the benchmark's (10 classes, dim 20), where BLAS rounds
    the last rows % 4 rows of a product its own way, each at a nu where the
    last bits of the regularizer's gradient barely count and one where they
    decide between copies. Scattered pools take each row count modulo 4 in
    turn, so a copy can sit among the last rows % 4."""
    for num_classes, dim in ((3, 5), (10, 20)):
        for i in range(count):
            n = (4 * int(rng.integers(8, 15)) + i % 4 if scattered
                 else int(rng.integers(30, 60)))
            ctx = duplicated_ctx(rng, n, dim, num_classes, scattered)
            for nu in (0.5, 50.0):
                assert_greedy_matches_parent_loop(ctx, CriterionConfig(budget=4, nu=nu), kind,
                                                  drop_row=sorted_drop_row)


def weighted_ctx(rng, n):
    """:func:`off_optimum_ctx` with random row weights in [0.5, 2]."""
    return off_optimum_ctx(rng, n, weights=rng.uniform(0.5, 2.0, size=n))


def shuffled_ids_ctx(rng, n):
    """:func:`off_optimum_ctx` with the ids a shuffled, gapped range, so id
    order is not row order."""
    return off_optimum_ctx(rng, n, ids=5 * rng.permutation(n) - 100)


@st.composite
def greedy_instances(draw):
    """A quad1d pool (values from a few levels, so scores tie), a budget that
    may exceed the pool, and a greedy kind with its criterion knobs."""
    zs = draw(st.lists(st.sampled_from([-2.0, 0.0, 1.0, 3.0]) | st.floats(-5, 5),
                       min_size=1, max_size=12))
    candidates = [qsample(3 * i + 1, z) for i, z in enumerate(zs)]
    theta = draw(st.floats(-3, 3))
    ctx = build_context(QUAD, Params([theta]), candidates, candidates, damping=0.01)
    cfg = CriterionConfig(budget=draw(st.integers(1, len(zs) + 2)),
                          mu=draw(st.floats(0, 1)), nu=draw(st.sampled_from([0.0, 0.1, 5.0])))
    return ctx, cfg, draw(st.sampled_from(GREEDY_KINDS))


class TestGreedy:
    def test_budget_not_binding_is_noop(self):
        candidates = [qsample(0, 0.0), qsample(1, 2.0)]
        ctx = build_context(QUAD, Params([1.0]), candidates, candidates, damping=0.0)
        buffer, trace = select_greedy(ctx, CriterionConfig(budget=5, nu=0.0))
        assert buffer.ids() == (0, 1)
        assert trace.drop_order == []

    def test_tie_break_drops_lowest_id(self):
        # optimum of {0,1,2} is 1, gradient sum 0, shared solve 0: all
        # scores tie at zero, so the first drop must be the lowest id
        candidates = [qsample(0, 0.0), qsample(1, 1.0), qsample(2, 2.0)]
        ctx = build_context(QUAD, Params([1.0]), candidates, candidates, damping=0.0)
        buffer, trace = select_greedy(ctx, CriterionConfig(budget=2, nu=0.0),
                                      SelectorKind.VANILLA_IF)
        assert trace.drop_order[0][0] == 0
        assert set(buffer.ids()) == {1, 2}

    def test_capacity_always_respected(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = int(rng.integers(5, 15))
            ctx = random_logistic_ctx(rng, n)
            m = int(rng.integers(1, n + 1))
            buffer, _ = select_greedy(ctx, CriterionConfig(budget=m))
            assert len(buffer.ids()) <= m

    def test_greedy_is_deterministic(self):
        rng = np.random.default_rng(42)
        ctx = random_logistic_ctx(rng, 14)
        cfg = CriterionConfig(budget=6)
        t1 = select_greedy(ctx, cfg)[1]
        t2 = select_greedy(ctx, cfg)[1]
        assert t1.drop_order == t2.drop_order

    def test_nu_zero_matches_vanilla(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            ctx = random_logistic_ctx(rng, int(rng.integers(8, 16)))
            m = len(ctx.batch.ids) // 2
            ours, _ = select_greedy(ctx, CriterionConfig(budget=m, nu=0.0),
                                    SelectorKind.REGULARIZED_IF)
            vanilla, _ = select_greedy(ctx, CriterionConfig(budget=m, nu=0.0),
                                       SelectorKind.VANILLA_IF)
            assert set(ours.ids()) == set(vanilla.ids())

    def test_mu_zero_matches_grad_match(self):
        # if_grad_match reads no mu: it is regularized_if at mu = 0
        rng = np.random.default_rng(8)
        for _ in range(10):
            ctx = off_optimum_ctx(rng, int(rng.integers(8, 16)))
            m = len(ctx.batch.ids) // 2
            ours, _ = select_greedy(ctx, CriterionConfig(budget=m, mu=0.0, nu=0.5),
                                    SelectorKind.REGULARIZED_IF)
            for mu in (0.0, 0.7):
                match, _ = select_greedy(ctx, CriterionConfig(budget=m, mu=mu, nu=0.5),
                                         SelectorKind.IF_GRAD_MATCH)
                assert set(ours.ids()) == set(match.ids())

    def test_diversity_kind_runs_and_respects_budget(self):
        rng = np.random.default_rng(9)
        ctx = random_logistic_ctx(rng, 12)
        buffer, trace = select_greedy(ctx, CriterionConfig(budget=5, nu=0.05),
                                      SelectorKind.IF_DIVERSITY)
        assert len(buffer.ids()) == 5
        assert len(trace.drop_order) == 7

    @settings(max_examples=400, deadline=None)
    @given(static_total_instances())
    def test_drop_rule_matches_sorted_oracle(self, instance):
        # with totals fixed, every drop of the loop, squeezes included, is
        # the sorted oracle's row among the rows still kept, and the row
        # the parent's max/argmin rule picks
        ctx, cfg, kind = instance
        ids, totals = ctx.batch.ids, ctx.scores() + 0.0
        w = np.ones(len(ids))
        drops = []
        while w.sum() > cfg.budget:
            row = sorted_drop_row(totals, ids, w)
            assert row == parent_drop_index(totals, ids, w)
            drops.append((int(ids[row]), float(totals[row])))
            w[row] = 0.0
        with np.errstate(invalid="ignore", over="ignore"):   # the kept sum may be inf - inf
            buffer, trace = select_greedy(ctx, cfg, kind)
        assert trace.drop_order == drops
        assert buffer.ids() == tuple(ids[w == 1.0].tolist())

    @pytest.mark.parametrize("kind", LOOP_KINDS, ids=lambda k: k.value)
    def test_a_dropped_row_is_not_dropped_again_among_infinite_totals(self, kind):
        # every kept total is -inf, and the first drop (id 0) stays held,
        # at -inf ahead of them, until a second drop makes 2 of 20 rows
        # dead and the squeeze runs: at the second drop the first maximum
        # of the held rows is a dropped row
        ids = np.array([0, 9, 4, 7, 2, 5, 8, 3, 6, 1, 10, 19, 14, 17, 12, 15, 18, 13, 16, 11])
        scores = np.full(20, -np.inf)
        scores[0] = 1.0
        buffer, trace = select_greedy(static_ctx(ids, scores), CriterionConfig(budget=1), kind)
        assert trace.drop_order == [(0, 1.0)] + [(i, -np.inf) for i in range(1, 19)]
        assert buffer.ids() == (19,)

    @pytest.mark.parametrize("kind", GREEDY_KINDS)
    def test_drop_order_matches_sorted_oracle(self, kind):
        # at the pool's optimum the scores are round-off, so totals nearly
        # tie; off it, mu changes the regularizer term; in a pool of
        # duplicated samples, totals tie exactly
        rng = np.random.default_rng(15)
        contexts = [make(rng, int(rng.integers(10, 30)))
                    for make in (random_logistic_ctx, off_optimum_ctx, shuffled_ids_ctx,
                                 duplicated_ctx)
                    for _ in range(4)]
        for ctx in contexts:
            assert_greedy_matches_parent_loop(ctx, CriterionConfig(budget=4, nu=0.5), kind,
                                              drop_row=sorted_drop_row)
        assert_copies_tie(rng, kind, 6)
        assert_copies_tie(rng, kind, 6, scattered=True)

    def test_copies_tie_under_one_blas_thread(self):
        # the benchmark pins BLAS to one thread; tier-1 runs under the default pool
        code = ("import numpy as np, test_selection as t\n"
                "for scattered in (False, True):\n"
                "    for kind in t.LOOP_KINDS:\n"
                "        t.assert_copies_tie(np.random.default_rng(26), kind, 1, scattered)\n")
        tests = Path(__file__).resolve().parent
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join((str(tests.parent / "src"), str(tests))))
        subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)

    @settings(max_examples=200, deadline=None)
    @given(exact_greedy_instances())
    def test_running_sums_match_scratch_loop_exactly(self, instance):
        ctx, cfg, kind = instance
        _, trace = select_greedy(ctx, cfg, kind)
        drop_order, reg_values, final_criterion = scratch_greedy(ctx, cfg, kind)
        assert trace.drop_order == drop_order
        assert trace.reg_values == reg_values
        assert trace.final_criterion == final_criterion

    @pytest.mark.parametrize("kind", GREEDY_KINDS, ids=lambda k: k.value)
    def test_running_sums_keep_scratch_drop_order(self, kind):
        rng = np.random.default_rng(19)
        contexts = [make(rng, int(rng.integers(10, 60)))
                    for make in (random_logistic_ctx, off_optimum_ctx) for _ in range(6)]
        for ctx in contexts:
            cfg = CriterionConfig(budget=len(ctx.batch.ids) // 4, mu=0.5, nu=1.0)
            _, trace = select_greedy(ctx, cfg, kind)
            drop_order, _, final_criterion = scratch_greedy(ctx, cfg, kind)
            assert [i for i, _ in trace.drop_order] == [i for i, _ in drop_order]
            assert trace.final_criterion == final_criterion

    def test_running_sums_give_the_exact_criterion_of_every_drop(self):
        # after dropping row i from the discarded side, ||v + M[i]||^2 is
        # ||v||^2 + 2 Mv[i] + ||M[i]||^2: the exact criterion of each
        # candidate drop in O(n), checked here against criterion_value
        rng = np.random.default_rng(20)
        contexts = [make(rng, int(rng.integers(20, 40)))
                    for make in (random_logistic_ctx, off_optimum_ctx) for _ in range(2)]
        for ctx in contexts:
            n = len(ctx.batch.ids)
            cfg = CriterionConfig(budget=n // 4, mu=0.5, nu=1.0)
            _, trace = select_greedy(ctx, cfg)
            M, scores = mu_terms(ctx, cfg.mu), ctx.scores()
            row_of = {int(i): r for r, i in enumerate(ctx.batch.ids)}
            dropped = [row_of[i] for i, _ in trace.drop_order]
            w, v, Mv = np.ones(n), np.zeros(M.shape[1]), np.zeros(n)
            for r, d in enumerate(dropped):
                if r in (0, 1, len(dropped) // 2, len(dropped) - 1):
                    for i in np.flatnonzero(w == 1.0):
                        reg = np.sqrt(v @ v + 2 * Mv[i] + M[i] @ M[i])
                        mask = w.copy()
                        mask[i] = 0.0
                        exact = scores[mask == 1.0].sum() + cfg.nu * reg
                        assert exact == pytest.approx(criterion_value(ctx, cfg, mask),
                                                      rel=1e-9)
                w[d] = 0.0
                v += M[d]
                Mv += M @ M[d]

    @pytest.mark.parametrize("kind, mu", [(SelectorKind.REGULARIZED_IF, 0.5),
                                          (SelectorKind.IF_GRAD_MATCH, 0.0)])
    def test_final_criterion_is_the_kept_mask_criterion(self, kind, mu):
        rng = np.random.default_rng(16)
        for _ in range(5):
            ctx = off_optimum_ctx(rng, int(rng.integers(8, 20)))
            cfg = CriterionConfig(budget=len(ctx.batch.ids) // 3, mu=mu, nu=0.3)
            buffer, trace = select_greedy(ctx, cfg, kind)
            # greedy's regularizer sums its factored rows, criterion_value's
            # the dense mu_terms rows: they differ by the rows' round-off
            rows = mu_terms(ctx, mu)[~buffer.kept]
            bound = cfg.nu * 1e-14 * np.linalg.norm(rows, axis=1).sum()
            assert trace.final_criterion == pytest.approx(
                criterion_value(ctx, cfg, buffer.kept), rel=0, abs=bound)

    @pytest.mark.parametrize("budget", [8, 11])
    def test_budget_not_binding_gives_the_all_kept_criterion(self, budget):
        ctx = off_optimum_ctx(np.random.default_rng(3), 8)
        cfg = CriterionConfig(budget=budget)
        buffer, trace = select_greedy(ctx, cfg)
        assert len(buffer.ids()) == 8 and trace.drop_order == []
        assert trace.final_criterion == criterion_value(ctx, cfg, np.ones(8))

    def test_diversity_gradient_matches_finite_differences(self):
        # if_diversity linearizes ||w @ grads|| on the kept side: its first
        # drop is the argmax of score + nu * d||w @ grads||/dw_i at w = 1,
        # off the optimum, where the summed gradient is not ~0
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(5):
            ctx = off_optimum_ctx(rng, 12)
            cfg = CriterionConfig(budget=11, nu=1.0)
            _, trace = select_greedy(ctx, cfg, SelectorKind.IF_DIVERSITY)
            grads = mu_terms(ctx, 0.0)
            fd = np.empty(12)
            for i in range(12):
                wp, wm = np.ones(12), np.ones(12)
                wp[i] += h
                wm[i] -= h
                fd[i] = (np.linalg.norm(wp @ grads) - np.linalg.norm(wm @ grads)) / (2 * h)
            totals = ctx.scores() + cfg.nu * fd
            first = int(np.argmax(totals))
            assert trace.drop_order[0][0] == ctx.batch.ids[first]
            assert trace.drop_order[0][1] == pytest.approx(totals[first], abs=1e-6)

    @settings(max_examples=100, deadline=None)
    @given(greedy_instances())
    def test_greedy_capacity_invariants(self, instance):
        ctx, cfg, kind = instance
        ids = ctx.batch.ids.tolist()
        n, m = len(ids), cfg.budget
        buffer, trace = select_greedy(ctx, cfg, kind)
        dropped = [i for i, _ in trace.drop_order]
        assert len(buffer.ids()) == min(m, n)
        assert all(type(i) is int for i in buffer.ids())   # JSON-able as they are
        kept = set(buffer.ids())
        assert list(buffer.ids()) == [i for i in ids if i in kept]
        assert kept <= set(ids)
        assert len(dropped) == max(n - m, 0)
        assert sorted(dropped + list(buffer.ids())) == sorted(ids)

    def test_non_greedy_kind_rejected(self):
        rng = np.random.default_rng(10)
        ctx = random_logistic_ctx(rng, 6)
        with pytest.raises(ValueError):
            select_greedy(ctx, CriterionConfig(budget=3), SelectorKind.RESERVOIR)

    def test_selection_leaves_the_context_unchanged(self):
        ctx = off_optimum_ctx(np.random.default_rng(23), 15)
        cfg = CriterionConfig(budget=5, mu=0.5, nu=1.0)
        attributes, state = dict(vars(ctx)), context_state(ctx)
        first = mu_terms(ctx, 0.5)
        oracles.regularizer(ctx, np.arange(15) % 2, 0.5)
        criterion_values(ctx, cfg, np.eye(15))
        for kind in GREEDY_KINDS:
            select_greedy(ctx, cfg, kind)
        assert vars(ctx).keys() == attributes.keys()
        assert all(vars(ctx)[key] is value for key, value in attributes.items())
        assert context_state(ctx) == state
        assert np.array_equal(mu_terms(ctx, 0.5), first)

    @pytest.mark.parametrize("kind", GREEDY_KINDS, ids=lambda k: k.value)
    def test_a_copy_in_any_row_loses_to_its_lower_id_original(self, kind):
        # a copy of the sample in row 0, under the highest id, in each row
        # in turn: the two tie in every total while both are held, so the
        # original, the lower id, is always dropped first, and at budget 1
        # one of the two is dropped; pools of each size mod 4, at an odd
        # factor width and at the benchmark's
        rng = np.random.default_rng(29)
        for num_classes, dim in ((3, 5), (10, 20)):
            spec = ModelSpec(kind="logistic", dim=dim, num_classes=num_classes, l2_strength=0.1)
            params = Params(rng.normal(scale=0.5, size=spec.param_dim))
            for n in (20, 21, 22, 23):
                drawn = [Sample(id=i, task_id=0, label=int(rng.integers(num_classes)),
                                features=rng.normal(size=dim)) for i in range(n - 1)]
                copy = replace(drawn[0], id=n - 1)
                for row in range(1, n):
                    pool = drawn[:row] + [copy] + drawn[row:]
                    ctx = build_context(spec, params, pool, pool, damping=0.01)
                    buffer, trace = select_greedy(ctx, CriterionConfig(budget=1, nu=1.0), kind)
                    order = [i for i, _ in trace.drop_order] + list(buffer.ids())
                    assert order.index(0) < order.index(n - 1)

    def test_selection_enters_no_oracle(self, oracle_entries):
        # select_pool's shape: a fitted pool of 1000 at 10 classes and dim
        # 20; the context and every greedy kind read factored rows only,
        # never the dense rows of oracles.grad_matrix or hvp_matrix
        spec, drawn = random_logistic_pool(np.random.default_rng(30), 2000, dim=20,
                                           num_classes=10)
        params = fit(spec, drawn[1000:], FitConfig(method="newton", grad_tolerance=1e-10))
        kept = []

        def select_all():
            ctx = influence.build_context(spec, params, drawn[:1000], drawn[:1000])
            for kind in GREEDY_KINDS:
                buffer, _ = select_greedy(ctx, CriterionConfig(budget=500, mu=0.5, nu=1.0),
                                          kind)
                kept.append(np.count_nonzero(buffer.kept))
        assert oracle_entries(select_all) == []
        assert kept == [500] * len(GREEDY_KINDS)

    @staticmethod
    def fitted_pools(rng):
        """(spec, params, pool) of three pools of 300, each scored by a
        model fitted on 300 further draws."""
        for _ in range(3):
            spec, drawn = random_logistic_pool(rng, 600)
            params = fit(spec, drawn[300:], FitConfig(method="newton", grad_tolerance=1e-10))
            yield spec, params, drawn[:300]

    def test_permuted_candidates_keep_the_drops(self):
        # the drops are the pool's, not its order's: a permuted order moves
        # the Hessian's and the gradients' sums, and so the scores and the
        # shared solve, by rounding only
        rng = np.random.default_rng(25)
        for spec, params, pool in self.fitted_pools(rng):
            permuted = [pool[i] for i in rng.permutation(300)]
            contexts = [build_context(spec, params, c, c, damping=0.01) for c in (pool, permuted)]
            for kind, budget in itertools.product(GREEDY_KINDS, (30, 150)):
                cfg = CriterionConfig(budget=budget, mu=0.5, nu=1.0)
                (buffer, trace), (other, oracle) = (select_greedy(c, cfg, kind) for c in contexts)
                assert set(buffer.ids()) == set(other.ids())
                assert [i for i, _ in trace.drop_order] == [i for i, _ in oracle.drop_order]
                assert_totals_close(trace, oracle)

    def test_relabelled_candidates_keep_the_drops(self):
        # ids only name the rows and break ties, so a strictly increasing
        # map of them moves no float and no pick
        def relabel(i):
            return 3 * i + 1000

        for spec, params, pool in self.fitted_pools(np.random.default_rng(25)):
            relabelled = [replace(s, id=relabel(s.id)) for s in pool]
            contexts = [build_context(spec, params, c, c, damping=0.01)
                        for c in (pool, relabelled)]
            for kind, budget in itertools.product(GREEDY_KINDS, (30, 150)):
                cfg = CriterionConfig(budget=budget, mu=0.5, nu=1.0)
                (buffer, trace), (other, mapped) = (select_greedy(c, cfg, kind) for c in contexts)
                assert other.ids() == tuple(map(relabel, buffer.ids()))
                assert mapped.drop_order == [(relabel(i), t) for i, t in trace.drop_order]
                for got, want in (([t for _, t in mapped.drop_order],
                                   [t for _, t in trace.drop_order]),
                                  (mapped.reg_values, trace.reg_values),
                                  ([mapped.final_criterion], [trace.final_criterion])):
                    assert np.array(got).tobytes() == np.array(want).tobytes()


class TestGreedyMatchesParentLoop:
    """Three factor products over the columns still held and O(1) vector
    calls per drop give the parent loop's picks, norms and criterion to the
    bit, and its drop totals to the last bits."""

    @settings(max_examples=100, deadline=None)
    @given(greedy_instances())
    def test_tied_quad_pools(self, instance):
        assert_greedy_matches_parent_loop(*instance)

    @settings(max_examples=100, deadline=None)
    @given(exact_greedy_instances())
    def test_exact_instances(self, instance):
        assert_greedy_matches_parent_loop(*instance)

    @pytest.mark.parametrize("kind", GREEDY_KINDS, ids=lambda k: k.value)
    def test_logistic_contexts_at_and_off_the_optimum(self, kind):
        # at n = 300 and 301 the drop loop squeezes its held rows dozens of
        # times; at 301 (not a multiple of 4) it pads them; row weights
        # enter the factored Gram column apart from the class factors
        rng = np.random.default_rng(23)
        for n in (10, 45, 300, 301):
            for make in (random_logistic_ctx, fitted_elsewhere_ctx, off_optimum_ctx,
                         shuffled_ids_ctx, weighted_ctx):
                ctx = make(rng, n)
                for budget in (n // 10, n // 4, n // 2):
                    cfg = CriterionConfig(budget=budget, mu=0.5, nu=1.0)
                    assert_greedy_matches_parent_loop(ctx, cfg, kind)

    def test_benchmark_scale_context(self):
        # select_pool's shape: n = 1000, 10 classes, dim 20 (p = 200),
        # scored by a model fitted on a second draw, half the pool dropped
        ctx = fitted_elsewhere_ctx(np.random.default_rng(24), 1000, dim=20, num_classes=10)
        for kind in LOOP_KINDS:
            assert_greedy_matches_parent_loop(ctx, CriterionConfig(budget=500, mu=0.5, nu=1.0),
                                              kind)

    @pytest.mark.parametrize("kind", GREEDY_KINDS, ids=lambda k: k.value)
    def test_nan_score_raises_in_both_loops(self, kind):
        scores = np.array([0.5, np.nan, -1.0, 0.25])
        rows = np.outer([1.0, 2.0, -1.0, 0.0], [1.0, 1.0])
        ctx = stand_in_ctx(np.array([7, 3, 5, 1]), scores, rows)
        cfg = CriterionConfig(budget=2, nu=0.5)
        with pytest.raises(ValueError, match="greedy total of row 1 is NaN"):
            select_greedy(ctx, cfg, kind)
        with pytest.raises(ValueError):
            parent_select_greedy(ctx, cfg, kind)

    def test_vanilla_nan_names_the_lowest_id_nan_row_once_a_drop_happens(self):
        scores = np.array([np.nan, 0.5, np.nan, -1.0])
        ctx = SimpleNamespace(batch=SimpleNamespace(ids=np.array([7, 3, 5, 1])),
                              scores=lambda: scores)
        with pytest.raises(ValueError, match="greedy total of row 2 is NaN"):
            select_greedy(ctx, CriterionConfig(budget=3), SelectorKind.VANILLA_IF)
        buffer, trace = select_greedy(ctx, CriterionConfig(budget=4), SelectorKind.VANILLA_IF)
        assert buffer.ids() == (7, 3, 5, 1) and trace.drop_order == trace.reg_values == []
        assert math.isnan(trace.final_criterion)


class TestExhaustive:
    def test_nu_zero_selects_smallest_scores(self):
        rng = np.random.default_rng(11)
        ctx = off_optimum_ctx(rng, 9)
        m = 4
        buffer = select_exhaustive(ctx, CriterionConfig(budget=m, nu=0.0))
        scores = ctx.scores()
        expected = set(ctx.batch.ids[np.argsort(scores)[:m]].tolist())
        assert set(buffer.ids()) == expected

    @pytest.mark.parametrize("nu", [0.0, 0.5])
    def test_ties_resolve_to_smallest_id_tuple(self, nu):
        # equal values: every size-2 subset has the same criterion, bit for bit
        candidates = [qsample(i, 2.0) for i in (5, 1, 3, 0)]
        ctx = build_context(QUAD, Params([1.0]), candidates, candidates, damping=0.01)
        buffer = select_exhaustive(ctx, CriterionConfig(budget=2, nu=nu))
        assert buffer.ids() == (1, 0)

    def test_full_budget_returns_everything(self):
        rng = np.random.default_rng(12)
        ctx = random_logistic_ctx(rng, 6)
        buffer = select_exhaustive(ctx, CriterionConfig(budget=6))
        assert buffer.ids() == tuple(range(6))

    def test_oracle_dominates_greedy(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            ctx = off_optimum_ctx(rng, 10)
            cfg = CriterionConfig(budget=5)
            exhaustive = select_exhaustive(ctx, cfg)
            greedy, _ = select_greedy(ctx, cfg)
            assert (criterion_value(ctx, cfg, exhaustive.kept)
                    <= criterion_value(ctx, cfg, greedy.kept) + 1e-12)

    def test_criterion_rejects_non_binary_mask(self):
        rng = np.random.default_rng(18)
        ctx = random_logistic_ctx(rng, 4)
        with pytest.raises(ValueError, match="0/1 flags"):
            criterion_value(ctx, CriterionConfig(budget=2), np.array([1.0, 0.5, 0.0, 1.0]))
        with pytest.raises(ValueError, match="0/1 flags"):
            criterion_values(ctx, CriterionConfig(budget=2), np.array([[1.0, 0.5, 0.0, 1.0]]))
        with pytest.raises(ValueError, match="2-D"):
            criterion_values(ctx, CriterionConfig(budget=2), np.array([1.0, 0.0, 0.0, 1.0]))

    @pytest.mark.parametrize("evaluate", [
        lambda ctx, m: criterion_value(ctx, CriterionConfig(budget=2), m),
        lambda ctx, m: criterion_values(ctx, CriterionConfig(budget=2), m[None, :]),
        lambda ctx, m: oracles.gradient_matching_distance(ctx, m),
        lambda ctx, m: oracles.identical_hessian_form(ctx, m, 0.5, 1.0),
    ], ids=["criterion_value", "criterion_values", "gradient_matching_distance",
            "identical_hessian_form"])
    def test_keep_mask_of_wrong_length_names_both_lengths(self, evaluate):
        ctx = random_logistic_ctx(np.random.default_rng(18), 4)
        with pytest.raises(ValueError, match="keep mask has 3 entries but the context has 4"):
            evaluate(ctx, np.array([1.0, 0.0, 1.0]))

    def test_batched_criterion_matches_per_mask(self):
        rng = np.random.default_rng(21)
        for make in (random_logistic_ctx, off_optimum_ctx):
            for _ in range(3):
                ctx = make(rng, 15)
                cfg = CriterionConfig(budget=5, mu=float(rng.random()), nu=0.7)
                masks = (rng.random((200, 15)) < rng.random((200, 1))).astype(float)
                oracle = [criterion_value(ctx, cfg, mask) for mask in masks]
                assert criterion_values(ctx, cfg, masks) == pytest.approx(oracle, rel=1e-12)

    def test_exhaustive_pick_is_the_per_mask_optimum(self):
        # the two picks may differ where subsets tie to the last bits; their
        # per-mask values may not
        rng = np.random.default_rng(22)
        for make in (random_logistic_ctx, off_optimum_ctx):
            for _ in range(4):
                ctx = make(rng, 10)
                cfg = CriterionConfig(budget=int(rng.integers(1, 11)), nu=0.5)
                pick = select_exhaustive(ctx, cfg).kept
                oracle = np.isin(ctx.batch.ids, scratch_exhaustive(ctx, cfg))
                assert criterion_value(ctx, cfg, pick) == pytest.approx(
                    criterion_value(ctx, cfg, oracle), rel=1e-12)

    def test_guard(self):
        rng = np.random.default_rng(14)
        ctx = random_logistic_ctx(rng, 21)
        with pytest.raises(ValueError, match="guard"):
            select_exhaustive(ctx, CriterionConfig(budget=5))

    def test_greedy_beats_random_subsets_usually(self, off_optimum_guard):
        """Greedy lands at or below the median criterion of 1000 random
        size-6 subsets in at least 95 of 100 seeded instances."""
        checked = off_optimum_guard(selection)
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            ctx = fitted_elsewhere_ctx(rng, 12)
            cfg = CriterionConfig(budget=6)
            greedy, _ = selection.select_greedy(ctx, cfg)
            masks = np.zeros((1001, 12))
            masks[0] = greedy.kept
            for mask in masks[1:]:
                mask[rng.choice(12, size=6, replace=False)] = 1.0
            g_value, *values = criterion_values(ctx, cfg, masks)
            if g_value <= np.median(values):
                wins += 1
        assert wins >= 95
        assert len(checked) == 100


def per_item_reservoir(size, capacity, incoming, seen_count, rng):
    """Reference reservoir update: the same two draws, then a visit of every
    incoming item, filling free slots first; positions into old + incoming."""
    slots = list(range(size))
    if incoming:
        admit = rng.random(incoming)
        victims = rng.integers(0, capacity, incoming)
    k = seen_count
    for j in range(incoming):
        k += 1
        if len(slots) < capacity:
            slots.append(size + j)
        elif admit[j] < capacity / k:
            slots[victims[j]] = size + j
    return slots


@st.composite
def reservoir_instances(draw):
    """A reservoir filled to any level up to its capacity, a stream count at
    least its size, and a batch of new items."""
    capacity = draw(st.integers(1, 30))
    size = draw(st.integers(0, capacity))
    seen_count = size + draw(st.sampled_from([0, 1, 5, 50, 10_000]) | st.integers(0, 200))
    incoming = draw(st.integers(0, 80))
    seed = draw(st.integers(0, 2**32 - 1))
    return capacity, size, seen_count, incoming, seed


class TestReservoir:
    @settings(max_examples=400, deadline=None)
    @given(reservoir_instances())
    def test_admitted_only_loop_matches_per_item_oracle(self, instance):
        capacity, size, seen_count, incoming, seed = instance
        fast = reservoir_slots(size, capacity, incoming, seen_count,
                               np.random.default_rng(seed))
        slow = per_item_reservoir(size, capacity, incoming, seen_count,
                                  np.random.default_rng(seed))
        assert fast.tolist() == slow

    def test_fills_before_evicting(self):
        rng = np.random.default_rng(1)
        assert reservoir_slots(0, 5, 3, 0, rng).tolist() == [0, 1, 2]
        assert reservoir_slots(3, 5, 2, 3, rng).tolist() == [0, 1, 2, 3, 4]

    def test_deterministic_per_seed(self):
        a = reservoir_slots(0, 10, 200, 0, np.random.default_rng(77))
        b = reservoir_slots(0, 10, 200, 0, np.random.default_rng(77))
        assert a.tolist() == b.tolist()
        c = reservoir_slots(0, 10, 200, 0, np.random.default_rng(78))
        assert a.tolist() != c.tolist()

    def test_inclusion_is_uniform(self):
        """Monte-Carlo uniformity: stream of 10000 items, capacity 100,
        2000 seeds. Every per-item inclusion frequency must fall within 5
        standard errors of capacity/n, and 99% within 3 standard errors
        (with 10000 items a 3-SE bound on every single item would be
        expected to fail by chance alone)."""
        n, m, trials = 10000, 100, 2000
        counts = np.zeros(n)
        for seed in range(trials):
            # into an empty reservoir, slot positions are stream positions
            counts[reservoir_slots(0, m, n, 0, np.random.default_rng(seed))] += 1
        p = m / n
        se = np.sqrt(p * (1 - p) / trials)
        deviation = np.abs(counts / trials - p)
        assert deviation.max() <= 5 * se
        assert (deviation <= 3 * se).mean() >= 0.99


def queue_ring(old_labels, incoming_labels, capacity, num_classes):
    """Reference ring update: one FIFO queue per class, fed the old
    contents then the incoming items; each keeps its newest ``quota``
    entries. Positions into old + incoming, classes in index order."""
    base, rem = divmod(capacity, num_classes)
    quotas = [base + (1 if c < rem else 0) for c in range(num_classes)]
    queues = [[] for _ in range(num_classes)]
    for position, label in enumerate(list(old_labels) + list(incoming_labels)):
        queues[label].append(position)
    kept = []
    for c in range(num_classes):
        kept.extend(queues[c][-quotas[c]:] if quotas[c] > 0 else [])
    return kept


@st.composite
def ring_instances(draw):
    """A ring buffer's capacity and class count, contents it could hold
    (a previous update's output), and a batch of new labels."""
    capacity = draw(st.integers(1, 12))
    num_classes = draw(st.integers(1, 6))
    label = st.integers(0, num_classes - 1)
    history = draw(st.lists(label, max_size=20))
    old = [history[i] for i in queue_ring([], history, capacity, num_classes)]
    incoming = draw(st.lists(label, max_size=15))
    return old, incoming, capacity, num_classes


def ring_ids(ids, labels, capacity, num_classes):
    """The ids a ring update keeps, for items given oldest first."""
    return [ids[i] for i in ring_slots(labels, capacity, num_classes)]


class TestRing:
    @settings(max_examples=200, deadline=None)
    @given(ring_instances())
    def test_matches_queue_oracle(self, instance):
        old, incoming, capacity, num_classes = instance
        fast = ring_slots(old + incoming, capacity, num_classes)
        assert fast.tolist() == queue_ring(old, incoming, capacity, num_classes)

    def test_keeps_newest_per_class(self):
        # capacity 4, 2 classes, 3 arrivals per class: the 2 newest per class stay
        labels = [i % 2 for i in range(6)]
        assert set(ring_ids(range(6), labels, 4, num_classes=2)) == {2, 4, 3, 5}

    def test_under_capacity_keeps_everything(self):
        labels = [i % 2 for i in range(3)]
        assert set(ring_ids(range(3), labels, 10, num_classes=2)) == {0, 1, 2}

    def test_single_class_is_plain_fifo(self):
        assert ring_ids(range(7), [0] * 7, 3, num_classes=1) == [4, 5, 6]

    def test_remainder_slots_go_to_lowest_classes(self):
        # capacity 5 over 2 classes: quotas 3 and 2
        labels = np.array([i % 2 for i in range(10)])
        kept = labels[ring_slots(labels, 5, num_classes=2)]
        assert kept.tolist() == [0, 0, 0, 1, 1]

    def test_existing_buffer_contents_age_first(self):
        start = ring_ids([0, 1], [0, 0], 2, 1)
        updated = ring_ids(start + [2], [0, 0, 0], 2, 1)
        assert updated == [1, 2]

    def test_no_classes_rejected(self):
        with pytest.raises(ValueError, match="num_classes must be positive"):
            ring_slots([], 4, num_classes=0)

    @pytest.mark.parametrize("labels", [[0, 1, 2], [0, -1]])
    def test_out_of_range_label_rejected(self, labels):
        with pytest.raises(ValueError, match=rf"position {len(labels) - 1}: label "
                                             rf"{labels[-1]} outside \[0, 2\)"):
            ring_slots(labels, 4, num_classes=2)


class TestSelectionResult:
    @pytest.mark.parametrize("kind", GREEDY_KINDS, ids=lambda kind: kind.value)
    def test_trace_is_an_immutable_record(self, kind):
        ctx = weighted_ctx(np.random.default_rng(27), 9)
        _, trace = select_greedy(ctx, CriterionConfig(budget=4, mu=0.5, nu=0.5), kind)
        assert len(trace.drop_order) == len(trace.reg_values) == 5
        with pytest.raises(FrozenInstanceError):
            trace.final_criterion = 0.0

    @pytest.mark.parametrize("select", [
        *(pytest.param(lambda ctx, cfg, kind=kind: select_greedy(ctx, cfg, kind)[0],
                       id=kind.value) for kind in GREEDY_KINDS),
        pytest.param(select_exhaustive, id="exhaustive"),
    ])
    @pytest.mark.parametrize("make", [shuffled_ids_ctx, weighted_ctx])
    def test_result_is_a_keep_mask_over_the_candidates(self, make, select):
        # ids out of row order, or rows weighted: the mask flags context
        # rows, and ids() reads the kept ids off it in candidate order
        rng = np.random.default_rng(26)
        for n, budget in ((11, 4), (7, 7), (5, 8)):
            ctx = make(rng, n)
            buffer = select(ctx, CriterionConfig(budget=budget, mu=0.5, nu=0.5))
            assert isinstance(buffer, ReplayBuffer)
            assert buffer.kept.dtype == bool and buffer.kept.shape == (n,)
            assert np.count_nonzero(buffer.kept) == min(budget, n)
            assert np.array_equal(buffer.kept, np.isin(ctx.batch.ids, buffer.ids()))
            kept = set(buffer.ids())
            assert buffer.ids() == tuple(i for i in ctx.batch.ids.tolist() if i in kept)
