"""Selector tests: greedy drops, brute-force oracle, reservoir, ring."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coresel import selection
from coresel.influence import CriterionConfig, build_context
from coresel.models import FitConfig, ModelSpec, Params, Sample, fit
from coresel.selection import (
    ReplayBuffer,
    SelectorKind,
    criterion_value,
    select_exhaustive,
    select_greedy,
    select_reservoir,
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
        rng = np.random.default_rng(8)
        for _ in range(10):
            ctx = random_logistic_ctx(rng, int(rng.integers(8, 16)))
            m = len(ctx.candidates) // 2
            cfg = CriterionConfig(budget=m, mu=0.0, nu=0.05)
            ours, _ = select_greedy(ctx, cfg, SelectorKind.REGULARIZED_IF)
            match, _ = select_greedy(ctx, cfg, SelectorKind.IF_GRAD_MATCH)
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


def per_item_reservoir(buffer, incoming, seen_count, rng):
    """Reference reservoir update: the same two draws, then a visit of every
    incoming item, filling free slots first."""
    samples = list(buffer.samples)
    m = buffer.capacity
    if incoming:
        admit = rng.random(len(incoming))
        victims = rng.integers(0, m, len(incoming))
    k = seen_count
    for j, s in enumerate(incoming):
        k += 1
        if len(samples) < m:
            samples.append(s)
        elif admit[j] < m / k:
            samples[victims[j]] = s
    return ReplayBuffer(samples, m), k


@st.composite
def reservoir_instances(draw):
    """A buffer filled to any level up to its capacity, a stream count at
    least its size, and a batch of new items."""
    capacity = draw(st.integers(1, 30))
    size = draw(st.integers(0, capacity))
    seen_count = size + draw(st.sampled_from([0, 1, 5, 50, 10_000]) | st.integers(0, 200))
    incoming = draw(st.integers(0, 80))
    seed = draw(st.integers(0, 2**32 - 1))
    return capacity, size, seen_count, incoming, seed


class TestReservoir:
    def samples(self, n, id0=0):
        return [qsample(id0 + i, float(i)) for i in range(n)]

    @settings(max_examples=400, deadline=None)
    @given(reservoir_instances())
    def test_admitted_only_loop_matches_per_item_oracle(self, instance):
        capacity, size, seen_count, incoming, seed = instance
        buffer = ReplayBuffer(self.samples(size), capacity)
        batch = self.samples(incoming, id0=1000)
        fast, fast_seen = select_reservoir(buffer, batch, seen_count,
                                           np.random.default_rng(seed))
        slow, slow_seen = per_item_reservoir(buffer, batch, seen_count,
                                             np.random.default_rng(seed))
        assert fast == slow
        assert fast_seen == slow_seen

    def test_fills_before_evicting(self):
        buffer = ReplayBuffer.empty(5)
        buffer, seen = select_reservoir(buffer, self.samples(3), 0, np.random.default_rng(1))
        assert buffer.ids() == (0, 1, 2)
        assert seen == 3

    def test_deterministic_per_seed(self):
        incoming = self.samples(200)
        a, _ = select_reservoir(ReplayBuffer.empty(10), incoming, 0,
                                np.random.default_rng(77))
        b, _ = select_reservoir(ReplayBuffer.empty(10), incoming, 0,
                                np.random.default_rng(77))
        assert a.ids() == b.ids()
        c, _ = select_reservoir(ReplayBuffer.empty(10), incoming, 0,
                                np.random.default_rng(78))
        assert a.ids() != c.ids()

    def test_inclusion_is_uniform(self):
        """Monte-Carlo uniformity: stream of 10000 items, capacity 100,
        2000 seeds. Every per-item inclusion frequency must fall within 5
        standard errors of capacity/n, and 99% within 3 standard errors
        (with 10000 items a 3-SE bound on every single item would be
        expected to fail by chance alone)."""
        n, m, trials = 10000, 100, 2000
        incoming = self.samples(n)
        counts = np.zeros(n)
        for seed in range(trials):
            buffer, _ = select_reservoir(ReplayBuffer.empty(m), incoming, 0,
                                         np.random.default_rng(seed))
            for i in buffer.ids():
                counts[i] += 1
        p = m / n
        se = np.sqrt(p * (1 - p) / trials)
        deviation = np.abs(counts / trials - p)
        assert deviation.max() <= 5 * se
        assert (deviation <= 3 * se).mean() >= 0.99


class TestRing:
    def test_keeps_newest_per_class(self):
        # capacity 4, 2 classes, 3 arrivals per class: the 2 newest per class stay
        incoming = [csample(i, label=i % 2) for i in range(6)]
        buffer = select_ring(ReplayBuffer.empty(4), incoming, num_classes=2)
        assert buffer.id_set() == {2, 4, 3, 5}

    def test_under_capacity_keeps_everything(self):
        incoming = [csample(i, label=i % 2) for i in range(3)]
        buffer = select_ring(ReplayBuffer.empty(10), incoming, num_classes=2)
        assert buffer.id_set() == {0, 1, 2}

    def test_single_class_is_plain_fifo(self):
        incoming = [csample(i, label=0) for i in range(7)]
        buffer = select_ring(ReplayBuffer.empty(3), incoming, num_classes=1)
        assert buffer.ids() == (4, 5, 6)

    def test_remainder_slots_go_to_lowest_classes(self):
        # capacity 5 over 2 classes: quotas 3 and 2
        incoming = [csample(i, label=i % 2) for i in range(10)]
        buffer = select_ring(ReplayBuffer.empty(5), incoming, num_classes=2)
        class0 = [s.id for s in buffer.samples if s.label == 0]
        class1 = [s.id for s in buffer.samples if s.label == 1]
        assert len(class0) == 3 and len(class1) == 2

    def test_existing_buffer_contents_age_first(self):
        start = select_ring(ReplayBuffer.empty(2), [csample(0, 0), csample(1, 0)], 1)
        updated = select_ring(start, [csample(2, 0)], 1)
        assert updated.ids() == (1, 2)


class TestReplayBuffer:
    def test_rejects_overflow(self):
        with pytest.raises(ValueError):
            ReplayBuffer([qsample(0, 0.0), qsample(1, 1.0)], capacity=1)

    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            ReplayBuffer([qsample(0, 0.0), qsample(0, 1.0)], capacity=5)
