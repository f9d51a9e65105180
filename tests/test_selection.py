"""Selector tests: greedy drops, brute-force oracle, reservoir, ring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coresel import influence, selection
from coresel.influence import CriterionConfig, build_context
from coresel.models import FitConfig, ModelSpec, Params, Sample, fit
from coresel.selection import (
    GREEDY_KINDS,
    ReplayBuffer,
    SelectorKind,
    criterion_value,
    reservoir_slots,
    select_exhaustive,
    select_greedy,
    select_ring,
)

QUAD = ModelSpec(kind="quad1d", dim=1)


def qsample(i, z):
    return Sample(id=i, task_id=0, label=0, features=[z])


def csample(i, label, dim=1):
    return Sample(id=i, task_id=0, label=label, features=np.zeros(dim))


def sorted_drop_index(totals, ids, w):
    """Reference drop rule: sort the kept rows by (-total, id), take the first."""
    kept_idx = np.flatnonzero(w == 1.0)
    return int(sorted(kept_idx, key=lambda i: (-totals[i], ids[i]))[0])


@st.composite
def drop_instances(draw):
    """Kept masks over totals drawn mostly from a few values, so rows tie,
    0.0 and -0.0 among them; ids are unique but out of row order."""
    n = draw(st.integers(1, 40))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    totals = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.5]) | finite,
                           min_size=n, max_size=n))
    ids = 3 * np.array(draw(st.permutations(range(n)))) - 40
    w = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=float)
    w[draw(st.integers(0, n - 1))] = 1.0
    return np.array(totals), ids, w


def random_logistic_ctx(rng, n, dim=4, num_classes=2, l2=0.1):
    spec = ModelSpec(kind="logistic", dim=dim, num_classes=num_classes, l2_strength=l2)
    samples = [Sample(id=i, task_id=0, label=int(rng.integers(num_classes)),
                      features=rng.normal(size=dim) + (2.0 if rng.random() < 0.2 else 0.0))
               for i in range(n)]
    params = fit(spec, samples, FitConfig(method="newton", grad_tolerance=1e-10))
    return build_context(spec, params, samples, samples, damping=0.01)


def off_optimum_ctx(rng, n, dim=4):
    """A logistic context at random parameters. At the pool's own optimum
    ``ihvp`` is ~0, so ``mu_terms(mu)`` is ``grads`` for every ``mu``; here
    ``mu`` changes the regularizer."""
    spec = ModelSpec(kind="logistic", dim=dim, num_classes=2, l2_strength=0.1)
    pool = [Sample(id=i, task_id=0, label=int(rng.integers(2)), features=rng.normal(size=dim))
            for i in range(n)]
    params = Params(rng.normal(scale=0.5, size=spec.param_dim))
    return build_context(spec, params, pool, pool, damping=0.01)


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
        assert buffer.id_set() == {1, 2}

    def test_capacity_always_respected(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = int(rng.integers(5, 15))
            ctx = random_logistic_ctx(rng, n)
            m = int(rng.integers(1, n + 1))
            buffer, _ = select_greedy(ctx, CriterionConfig(budget=m))
            assert len(buffer) <= m

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
            m = len(ctx.candidates) // 2
            ours, _ = select_greedy(ctx, CriterionConfig(budget=m, nu=0.0),
                                    SelectorKind.REGULARIZED_IF)
            vanilla, _ = select_greedy(ctx, CriterionConfig(budget=m, nu=0.0),
                                       SelectorKind.VANILLA_IF)
            assert ours.id_set() == vanilla.id_set()

    def test_mu_zero_matches_grad_match(self):
        # if_grad_match reads no mu: it is regularized_if at mu = 0
        rng = np.random.default_rng(8)
        for _ in range(10):
            ctx = off_optimum_ctx(rng, int(rng.integers(8, 16)))
            m = len(ctx.candidates) // 2
            ours, _ = select_greedy(ctx, CriterionConfig(budget=m, mu=0.0, nu=0.5),
                                    SelectorKind.REGULARIZED_IF)
            for mu in (0.0, 0.7):
                match, _ = select_greedy(ctx, CriterionConfig(budget=m, mu=mu, nu=0.5),
                                         SelectorKind.IF_GRAD_MATCH)
                assert ours.id_set() == match.id_set()

    def test_diversity_kind_runs_and_respects_budget(self):
        rng = np.random.default_rng(9)
        ctx = random_logistic_ctx(rng, 12)
        buffer, trace = select_greedy(ctx, CriterionConfig(budget=5, nu=0.05),
                                      SelectorKind.IF_DIVERSITY)
        assert len(buffer) == 5
        assert len(trace.drop_order) == 7

    @settings(max_examples=400, deadline=None)
    @given(drop_instances())
    def test_drop_rule_matches_sorted_oracle(self, instance):
        totals, ids, w = instance
        assert selection._drop_index(totals, ids, w) == sorted_drop_index(totals, ids, w)

    @pytest.mark.parametrize("kind", [SelectorKind.REGULARIZED_IF, SelectorKind.VANILLA_IF,
                                      SelectorKind.IF_GRAD_MATCH, SelectorKind.IF_DIVERSITY])
    def test_drop_order_matches_sorted_oracle(self, kind, monkeypatch):
        rng = np.random.default_rng(15)
        contexts = [random_logistic_ctx(rng, int(rng.integers(10, 30))) for _ in range(4)]
        cfg = CriterionConfig(budget=4, nu=0.5)
        fast = [select_greedy(ctx, cfg, kind)[1] for ctx in contexts]
        monkeypatch.setattr(selection, "_drop_index", sorted_drop_index)
        for ctx, trace in zip(contexts, fast):
            oracle = select_greedy(ctx, cfg, kind)[1]
            assert trace.drop_order == oracle.drop_order
            assert trace.final_criterion == oracle.final_criterion

    @pytest.mark.parametrize("kind, mu", [(SelectorKind.REGULARIZED_IF, 0.5),
                                          (SelectorKind.IF_GRAD_MATCH, 0.0)])
    def test_final_criterion_is_the_kept_mask_criterion(self, kind, mu):
        rng = np.random.default_rng(16)
        for _ in range(5):
            ctx = off_optimum_ctx(rng, int(rng.integers(8, 20)))
            cfg = CriterionConfig(budget=len(ctx.candidates) // 3, mu=mu, nu=0.3)
            buffer, trace = select_greedy(ctx, cfg, kind)
            kept_mask = np.array([1.0 if c.id in buffer.id_set() else 0.0
                                  for c in ctx.candidates])
            assert trace.final_criterion == criterion_value(ctx, cfg, kept_mask)

    def test_diversity_gradient_matches_finite_differences(self):
        # if_diversity linearizes ||w @ grads|| on the kept side
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(5):
            ctx = random_logistic_ctx(rng, 12)
            w = (rng.random(12) < 0.6).astype(float)
            w[0] = 1.0
            value, grad = influence._linearized_norm(ctx, w, ctx.grads, 1.0)
            assert value == np.linalg.norm(w @ ctx.grads)
            for i in range(12):
                wp, wm = w.copy(), w.copy()
                wp[i] += h
                wm[i] -= h
                fd = (np.linalg.norm(wp @ ctx.grads) - np.linalg.norm(wm @ ctx.grads)) / (2 * h)
                assert grad[i] == pytest.approx(fd, abs=1e-8)

    @settings(max_examples=100, deadline=None)
    @given(greedy_instances())
    def test_greedy_capacity_invariants(self, instance):
        ctx, cfg, kind = instance
        ids = [c.id for c in ctx.candidates]
        n, m = len(ids), cfg.budget
        buffer, trace = select_greedy(ctx, cfg, kind)
        dropped = [i for i, _ in trace.drop_order]
        assert len(buffer) == min(m, n)
        assert set(buffer.ids()) <= set(ids)
        assert len(dropped) == max(n - m, 0)
        assert sorted(dropped + list(buffer.ids())) == sorted(ids)

    def test_non_greedy_kind_rejected(self):
        rng = np.random.default_rng(10)
        ctx = random_logistic_ctx(rng, 6)
        with pytest.raises(ValueError):
            select_greedy(ctx, CriterionConfig(budget=3), SelectorKind.RESERVOIR)


class TestExhaustive:
    def test_nu_zero_selects_smallest_scores(self):
        rng = np.random.default_rng(11)
        ctx = random_logistic_ctx(rng, 9)
        m = 4
        buffer = select_exhaustive(ctx, CriterionConfig(budget=m, nu=0.0))
        scores = ctx.scores()
        expected = {ctx.candidates[i].id for i in np.argsort(scores)[:m]}
        assert buffer.id_set() == expected

    def test_full_budget_returns_everything(self):
        rng = np.random.default_rng(12)
        ctx = random_logistic_ctx(rng, 6)
        buffer = select_exhaustive(ctx, CriterionConfig(budget=6))
        assert buffer.id_set() == {s.id for s in ctx.candidates}

    def test_oracle_dominates_greedy(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            ctx = random_logistic_ctx(rng, 10)
            cfg = CriterionConfig(budget=5)
            exhaustive = select_exhaustive(ctx, cfg)
            greedy, _ = select_greedy(ctx, cfg)
            mask_e = np.array([1.0 if c.id in exhaustive.id_set() else 0.0
                               for c in ctx.candidates])
            mask_g = np.array([1.0 if c.id in greedy.id_set() else 0.0
                               for c in ctx.candidates])
            assert criterion_value(ctx, cfg, mask_e) <= criterion_value(ctx, cfg, mask_g) + 1e-12

    def test_criterion_rejects_non_binary_mask(self):
        rng = np.random.default_rng(18)
        ctx = random_logistic_ctx(rng, 4)
        with pytest.raises(ValueError, match="0/1 flags"):
            criterion_value(ctx, CriterionConfig(budget=2), np.array([1.0, 0.5, 0.0, 1.0]))

    def test_guard(self):
        rng = np.random.default_rng(14)
        ctx = random_logistic_ctx(rng, 21)
        with pytest.raises(ValueError, match="guard"):
            select_exhaustive(ctx, CriterionConfig(budget=5))

    def test_greedy_beats_random_subsets_usually(self):
        """Greedy lands at or below the median criterion of 1000 random
        size-6 subsets in at least 95 of 100 seeded instances."""
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            ctx = random_logistic_ctx(rng, 12)
            cfg = CriterionConfig(budget=6)
            greedy, _ = select_greedy(ctx, cfg)
            mask_g = np.array([1.0 if c.id in greedy.id_set() else 0.0
                               for c in ctx.candidates])
            g_value = criterion_value(ctx, cfg, mask_g)
            values = []
            for _ in range(1000):
                mask = np.zeros(12)
                mask[rng.choice(12, size=6, replace=False)] = 1.0
                values.append(criterion_value(ctx, cfg, mask))
            if g_value <= np.median(values):
                wins += 1
        assert wins >= 95


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


class TestRing:
    def test_keeps_newest_per_class(self):
        # capacity 4, 2 classes, 3 arrivals per class: the 2 newest per class stay
        incoming = [csample(i, label=i % 2) for i in range(6)]
        buffer = select_ring(ReplayBuffer((), 4), incoming, num_classes=2)
        assert buffer.id_set() == {2, 4, 3, 5}

    def test_under_capacity_keeps_everything(self):
        incoming = [csample(i, label=i % 2) for i in range(3)]
        buffer = select_ring(ReplayBuffer((), 10), incoming, num_classes=2)
        assert buffer.id_set() == {0, 1, 2}

    def test_single_class_is_plain_fifo(self):
        incoming = [csample(i, label=0) for i in range(7)]
        buffer = select_ring(ReplayBuffer((), 3), incoming, num_classes=1)
        assert buffer.ids() == (4, 5, 6)

    def test_remainder_slots_go_to_lowest_classes(self):
        # capacity 5 over 2 classes: quotas 3 and 2
        incoming = [csample(i, label=i % 2) for i in range(10)]
        buffer = select_ring(ReplayBuffer((), 5), incoming, num_classes=2)
        class0 = [s.id for s in buffer.samples if s.label == 0]
        class1 = [s.id for s in buffer.samples if s.label == 1]
        assert len(class0) == 3 and len(class1) == 2

    def test_existing_buffer_contents_age_first(self):
        start = select_ring(ReplayBuffer((), 2), [csample(0, 0), csample(1, 0)], 1)
        updated = select_ring(start, [csample(2, 0)], 1)
        assert updated.ids() == (1, 2)


class TestReplayBuffer:
    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            ReplayBuffer([qsample(0, 0.0), qsample(1, 1.0)], capacity=1)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            ReplayBuffer([qsample(0, 0.0), qsample(0, 1.0)], capacity=5)
