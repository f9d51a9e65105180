"""Influence score and regularizer tests.

The quad1d fixtures are exact: a scalar quadratic pool with optimum 1 and
curvature 2 gives a shared solve of -1.5 against the outer gradient sum -3,
so every score below has a closed form checked by hand.
"""

import numpy as np
import pytest

from coresel.influence import (
    CriterionConfig,
    build_context,
    first_order_influence,
    gradient_matching_distance,
    identical_hessian_form,
    regularizer,
    second_order_influence,
)
from coresel import models
from coresel.models import (
    FitConfig,
    ModelSpec,
    Params,
    Sample,
    dense_hessian,
    fit,
    grad_matrix,
    hvp_matrix,
    stack_samples,
)
from coresel.numkit import SolveError
from coresel.selection import select_greedy

QUAD = ModelSpec(kind="quad1d", dim=1)


def qsample(i, z):
    return Sample(id=i, task_id=0, label=0, features=[z])


QUAD_CANDIDATES = (qsample(0, 0.0), qsample(1, 2.0), qsample(2, 4.0))


@pytest.fixture
def quad_ctx():
    hessian_set = [qsample(10, 0.0), qsample(11, 2.0)]
    return build_context(QUAD, Params([1.0]), QUAD_CANDIDATES, hessian_set, damping=0.0)


def random_logistic_ctx(rng, n=15, dim=3, num_classes=2, l2=0.1, damping=0.0):
    spec = ModelSpec(kind="logistic", dim=dim, num_classes=num_classes, l2_strength=l2)
    samples = [Sample(id=i, task_id=0, label=int(rng.integers(num_classes)),
                      features=rng.normal(size=dim)) for i in range(n)]
    params = fit(spec, samples, FitConfig(method="newton", grad_tolerance=1e-12))
    ctx = build_context(spec, params, samples, samples, damping=damping)
    return spec, samples, params, ctx


def off_optimum_ctx(rng, n=12, dim=3):
    """A logistic pool and its context at random parameters. At the pool's
    own optimum ``ihvp`` is ~0, so ``mu_terms(mu)`` is ``grads`` for every
    ``mu``; here ``mu`` changes the regularizer and the second-order
    influence."""
    spec = ModelSpec(kind="logistic", dim=dim, num_classes=2, l2_strength=0.1)
    samples = [Sample(id=i, task_id=0, label=int(rng.integers(2)),
                      features=rng.normal(size=dim)) for i in range(n)]
    params = Params(rng.normal(scale=0.5, size=spec.param_dim))
    return samples, build_context(spec, params, samples, samples, damping=0.01)


class TestBuildContext:
    def test_quad_shared_solve(self, quad_ctx):
        np.testing.assert_allclose(quad_ctx.ihvp, [-1.5], atol=1e-12)

    def test_zero_gradient_sum_gives_zero_solve(self):
        candidates = [qsample(0, 0.0), qsample(1, 2.0)]
        ctx = build_context(QUAD, Params([1.0]), candidates, candidates, damping=0.0)
        np.testing.assert_allclose(ctx.ihvp, [0.0], atol=1e-15)

    def test_solve_norm_shrinks_with_damping(self):
        candidates = [qsample(0, 0.0), qsample(1, 2.0), qsample(2, 4.0)]
        hessian_set = [qsample(10, 0.0), qsample(11, 2.0)]
        norms = []
        for lam in [0.0, 0.1, 1.0, 10.0, 100.0]:
            ctx = build_context(QUAD, Params([1.0]), candidates, hessian_set, damping=lam)
            norms.append(np.linalg.norm(ctx.ihvp))
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            build_context(QUAD, Params([1.0]), [], [qsample(0, 0.0)])

    def test_model_built_operator_is_symmetric(self):
        # the factored damped set Hessian is exactly symmetric
        rng = np.random.default_rng(31)
        _, _, _, ctx = random_logistic_ctx(rng, n=12, dim=4, num_classes=3, damping=0.01)
        assert np.array_equal(ctx.damped_hessian, ctx.damped_hessian.T)

    @pytest.mark.parametrize("num_classes,damping", [(2, 0.0), (3, 0.01), (10, 1.0)])
    def test_factored_solves_match_dense_inverse(self, num_classes, damping):
        rng = np.random.default_rng(32 + num_classes)
        spec, samples, params, ctx = random_logistic_ctx(
            rng, n=40, dim=3, num_classes=num_classes, damping=damping)
        inverse = np.linalg.inv(dense_hessian(spec, params, samples)
                                + damping * np.eye(spec.param_dim))
        np.testing.assert_allclose(ctx.damped_hessian @ inverse, np.eye(spec.param_dim),
                                   atol=1e-9)
        np.testing.assert_allclose(ctx.ihvp, inverse @ ctx.grad_sum, rtol=1e-8, atol=1e-12)
        for z in samples[:5]:
            g = ctx.grad_of(z)
            np.testing.assert_allclose(ctx.solve(g), inverse @ g,
                                       rtol=1e-8, atol=1e-12)

    def test_rank_deficient_hessian_names_damping_and_l2(self):
        # no L2 and no damping, and every sample is zero in feature 1: the
        # set Hessian has exact zero rows, so it cannot be factored
        spec = ModelSpec(kind="logistic", dim=2, num_classes=2, l2_strength=0.0)
        samples = [Sample(id=i, task_id=0, label=i % 2, features=[float(i) - 1.5, 0.0])
                   for i in range(4)]
        with pytest.raises(SolveError, match=r"damping=0\.0, l2_strength=0\.0"):
            build_context(spec, Params(np.zeros(4)), samples, samples, damping=0.0)

    def test_candidates_are_stacked_once(self, monkeypatch):
        rng = np.random.default_rng(60)
        spec = ModelSpec(kind="logistic", dim=3, num_classes=3, l2_strength=0.1)
        pool = [Sample(id=i, task_id=0, label=i % 3, features=rng.normal(size=3))
                for i in range(25)]
        params = Params(rng.normal(scale=0.3, size=spec.param_dim))
        calls = []
        original = models.stack_samples
        monkeypatch.setattr(models, "stack_samples",
                            lambda spec, samples: calls.append(len(samples))
                            or original(spec, samples))
        ctx = build_context(spec, params, pool, pool)
        U = ctx.mu_terms(0.5)
        assert calls == [25]
        assert np.array_equal(U, ctx.grads - 0.5 * hvp_matrix(spec, params, pool, ctx.ihvp))
        calls.clear()
        build_context(spec, params, pool, pool[:10])
        assert calls == [25, 10]
        batch = original(spec, pool)
        build_context(spec, params, batch, batch)
        assert calls == [25, 10]

    def test_one_softmax_per_context(self, monkeypatch):
        # the candidates' softmax feeds their gradients, their Hessian and
        # mu_terms' Hessian-vector products; a separate Hessian set takes
        # one more. The shared floats are the ones each kernel computes.
        rng = np.random.default_rng(61)
        spec = ModelSpec(kind="logistic", dim=3, num_classes=3, l2_strength=0.1)
        pool = [Sample(id=i, task_id=0, label=i % 3, features=rng.normal(size=3))
                for i in range(25)]
        params = Params(rng.normal(scale=0.3, size=spec.param_dim))
        calls = []
        original = models._softmax
        monkeypatch.setattr(models, "_softmax",
                            lambda logits: calls.append(len(logits)) or original(logits))
        for hessian_set, expected in ((pool, [25]), (pool[:10], [25, 10])):
            calls.clear()
            ctx = build_context(spec, params, pool, hessian_set, damping=0.01)
            U = ctx.mu_terms(0.5)
            assert calls == expected
            H = dense_hessian(spec, params, hessian_set)
            H[np.diag_indices(spec.param_dim)] += 0.01
            assert np.array_equal(ctx.damped_hessian, H)
            assert np.array_equal(ctx.grads, grad_matrix(spec, params, pool))
            assert np.array_equal(U, ctx.grads - 0.5 * hvp_matrix(spec, params, pool, ctx.ihvp))

    def test_context_arrays_are_read_only(self):
        samples, ctx = off_optimum_ctx(np.random.default_rng(63))
        assert ctx.mu_terms(0.0) is ctx.grads
        for a in (ctx.grads, ctx.grad_sum, ctx.ihvp, ctx.mu_terms(0.0)):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        hvps = hvp_matrix(ctx.model, ctx.params, samples, ctx.ihvp)
        for mu in (0.3, 1.0, 0.3):
            assert np.array_equal(ctx.mu_terms(mu), ctx.grads - mu * hvps)

    def test_stacked_candidates_match_list_context(self):
        rng = np.random.default_rng(61)
        spec = ModelSpec(kind="logistic", dim=2, num_classes=2, l2_strength=0.1)
        pool = [Sample(id=3 * i + 1, task_id=0, label=i % 2, features=rng.normal(size=2))
                for i in range(12)]
        params = Params(rng.normal(scale=0.3, size=spec.param_dim))
        plain = build_context(spec, params, pool, pool)
        batch = stack_samples(spec, pool)
        given = build_context(spec, params, batch, batch)
        assert np.array_equal(plain.ihvp, given.ihvp)
        assert np.array_equal(plain.damped_hessian, given.damped_hessian)
        assert plain.batch.ids.tolist() == given.batch.ids.tolist() == [s.id for s in pool]

    def test_batch_weights_are_the_context_weights(self):
        # candidate i enters the gradients, the Hessian and so every score
        # with its row weight w_i
        rng = np.random.default_rng(62)
        spec = ModelSpec(kind="logistic", dim=2, num_classes=3, l2_strength=0.1)
        pool = [Sample(id=i, task_id=0, label=i % 3, features=rng.normal(size=2))
                for i in range(9)]
        w = rng.uniform(0.5, 2.0, size=9)
        params = Params(rng.normal(scale=0.3, size=spec.param_dim))
        batch = stack_samples(spec, pool).with_weights(w)
        ctx = build_context(spec, params, batch, batch, damping=0.0)
        assert ctx.batch.ids.tolist() == list(range(9))
        np.testing.assert_allclose(ctx.grads, [wi * ctx.grad_of(z) for z, wi in zip(pool, w)],
                                   rtol=1e-12, atol=1e-13)
        v = rng.normal(size=spec.param_dim)
        np.testing.assert_allclose(
            ctx.damped_hessian @ v,
            sum(wi * models.sample_hvp(spec, params, z, v) for z, wi in zip(pool, w)),
            rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(ctx.scores(),
                                   [wi * first_order_influence(ctx, z) for z, wi in zip(pool, w)],
                                   rtol=1e-12, atol=1e-13)

    def test_negative_damping_rejected(self):
        with pytest.raises(ValueError, match="damping"):
            build_context(QUAD, Params([1.0]), [qsample(0, 0.0)], [qsample(0, 0.0)],
                          damping=-0.1)

    @pytest.mark.parametrize("damping", [np.nan, np.inf])
    def test_non_finite_damping_rejected(self, damping):
        # not a SolveError about a nan residual: the damping itself is named
        pool = [qsample(0, 0.0), qsample(1, 1.0), qsample(2, 3.0)]
        with pytest.raises(ValueError, match=f"damping must be finite and nonnegative, "
                                             f"got {damping}"):
            build_context(QUAD, Params([1.0]), pool, pool, damping=damping)


class TestFirstOrder:
    def test_canonical_scores(self, quad_ctx):
        assert first_order_influence(quad_ctx, qsample(20, 0.0)) == pytest.approx(1.5)
        assert first_order_influence(quad_ctx, qsample(21, 1.0)) == pytest.approx(0.0)
        assert first_order_influence(quad_ctx, qsample(22, 2.0)) == pytest.approx(-1.5)

    def test_scores_vector_matches_per_sample(self, quad_ctx):
        expected = [first_order_influence(quad_ctx, c) for c in QUAD_CANDIDATES]
        np.testing.assert_allclose(quad_ctx.scores(), expected, atol=1e-13)

    def test_quad_loo_exactness_on_worked_family(self):
        """Finite removal matches the linearized score exactly on this
        family (the curvature terms cancel): pool {a, a+2h, a+4h}, coreset
        {a, a+2h}, remove the left sample."""
        from coresel.harness import loo_retrain_delta
        for a, h in [(0.0, 1.0), (-2.0, 0.5), (3.0, 2.0), (0.7, -1.3)]:
            coreset = [qsample(0, a), qsample(1, a + 2 * h)]
            test_set = [qsample(10, a), qsample(11, a + 2 * h), qsample(12, a + 4 * h)]
            params = fit(QUAD, coreset, FitConfig(method="closed_form"))
            ctx = build_context(QUAD, params, test_set, coreset, damping=0.0)
            score = first_order_influence(ctx, coreset[0])
            delta = loo_retrain_delta(QUAD, coreset, test_set, coreset[0],
                                      FitConfig(method="closed_form"))
            assert delta == pytest.approx(-score, abs=1e-9)

    def test_logistic_loo_correlation(self):
        """Removal deltas track the negated scores on a strictly convex
        instance (n=200, d=10, l2=0.1)."""
        from coresel.harness import loo_retrain_delta
        rng = np.random.default_rng(1234)
        spec = ModelSpec(kind="logistic", dim=10, num_classes=2, l2_strength=0.1)
        centers = rng.normal(size=(2, 10))
        def draw(n, id0):
            out = []
            for i in range(n):
                label = i % 2
                out.append(Sample(id=id0 + i, task_id=0, label=label,
                                  features=rng.normal(size=10) + centers[label]))
            return out
        train = draw(200, 0)
        test = draw(200, 1000)
        cfg = FitConfig(method="newton", grad_tolerance=1e-10)
        params = fit(spec, train, cfg)
        ctx = build_context(spec, params, test, train, damping=0.0)
        scores = -(grad_matrix(spec, params, train) @ ctx.ihvp)
        deltas = np.array([loo_retrain_delta(spec, train, test, z, cfg) for z in train])
        corr = np.corrcoef(deltas, -scores)[0, 1]
        assert corr >= 0.95


class TestSecondOrder:
    def test_canonical_cases(self, quad_ctx):
        z, zp = qsample(20, 0.0), qsample(21, 3.0)
        assert second_order_influence(quad_ctx, z, zp, 0.0) == pytest.approx(1.0)
        assert second_order_influence(quad_ctx, z, zp, 1.0) == pytest.approx(2.5)

    def test_zero_gradient_target_scores_zero(self, quad_ctx):
        z, zp = qsample(20, 0.0), qsample(21, 1.0)  # grad at zp is 0
        for mu in (0.0, 1.0):
            assert second_order_influence(quad_ctx, z, zp, mu) == pytest.approx(0.0, abs=1e-12)

    def test_same_id_samples_score_as_in_fresh_contexts(self):
        # two future samples that share an id are still different samples:
        # each is scored against its own gradient (-0.9167 for z=-5, not
        # the 0.25 of the z=2 sample scored before it)
        candidates = [qsample(0, 0.0), qsample(1, 1.0), qsample(2, 3.0)]

        def fresh():
            return build_context(QUAD, Params([0.5]), candidates, candidates, damping=0.0)

        shared = fresh()
        z = candidates[0]
        for zp in [qsample(7, 2.0), qsample(7, -5.0)]:
            for mu in (0.0, 0.5, 1.0):
                assert (second_order_influence(shared, z, zp, mu)
                        == second_order_influence(fresh(), z, zp, mu))
        assert second_order_influence(shared, z, qsample(7, -5.0), 0.0) == pytest.approx(-11 / 12)

    def test_total_interference_mixes_cases(self, quad_ctx):
        # the total interference of discarding {z} is minus its second-order
        # influence
        z, zp = qsample(20, 0.0), qsample(21, 3.0)
        assert -second_order_influence(quad_ctx, z, zp, 1.0) == pytest.approx(-2.5)
        assert -second_order_influence(quad_ctx, z, zp, 0.0) == pytest.approx(-1.0)

    @pytest.mark.parametrize("mu", [-0.1, 1.5, 5.0, np.nan])
    def test_mu_outside_unit_interval_rejected(self, quad_ctx, mu):
        from coresel.harness import finite_eps_second_order
        z, zp = qsample(20, 0.0), qsample(21, 3.0)
        calls = [lambda: second_order_influence(quad_ctx, z, zp, mu),
                 lambda: finite_eps_second_order(quad_ctx, z, zp, mu, 0.01),
                 lambda: quad_ctx.mu_terms(mu),
                 lambda: identical_hessian_form(quad_ctx, np.ones(3), mu, 0.5)]
        for call in calls:
            with pytest.raises(ValueError, match=r"mu must lie in \[0, 1\]"):
                call()

    @pytest.mark.parametrize("alpha", [-0.5, np.inf, np.nan])
    def test_identical_hessian_alpha_must_be_finite_and_nonnegative(self, quad_ctx, alpha):
        with pytest.raises(ValueError, match="alpha must be finite and nonnegative"):
            identical_hessian_form(quad_ctx, np.ones(3), 0.5, alpha)


class TestRegularizer:
    def test_canonical_values(self, quad_ctx):
        w = np.array([0.0, 1.0, 1.0])  # only z=0 discarded
        assert regularizer(quad_ctx, w, 0.0) == pytest.approx(1.0)
        assert regularizer(quad_ctx, w, 1.0) == pytest.approx(2.5)
        assert regularizer(quad_ctx, np.ones(3), 0.7) == 0.0

    def test_taylor_grad_canonical(self, quad_ctx):
        # scores (1.5, -1.5, -4.5), rows (1, -1, -3) at mu = 0: z=0 goes
        # first at a zero regularizer, then at keep weights (0, 1, 1) the
        # Taylor gradient -rows / 1 adds +1 to z=2 (id 1) and +3 to z=4
        _, trace = select_greedy(quad_ctx, CriterionConfig(budget=1, mu=0.0, nu=1.0))
        assert [i for i, _ in trace.drop_order] == [0, 1]
        assert [t for _, t in trace.drop_order] == pytest.approx([1.5, -0.5])
        assert trace.reg_values == pytest.approx([0.0, 1.0])

    def test_degenerate_weights_give_zero_grad(self, quad_ctx):
        # nothing is discarded before the first drop, so the regularizer is
        # zero and its gradient is taken as zero whatever nu
        scores = quad_ctx.scores()
        for nu in (0.5, 100.0):
            _, trace = select_greedy(quad_ctx, CriterionConfig(budget=2, mu=0.5, nu=nu))
            assert trace.reg_values == [0.0]
            assert trace.drop_order == [(0, scores[0])]

    def test_taylor_grad_matches_finite_differences(self):
        # greedy's drop total is score + nu * (the regularizer's gradient at
        # the keep weights before the drop), here with nu = 1
        rng = np.random.default_rng(77)
        for _ in range(5):
            _, ctx = off_optimum_ctx(rng)
            mu = float(rng.uniform(0, 1))
            _, trace = select_greedy(ctx, CriterionConfig(budget=1, mu=mu, nu=1.0))
            scores, keep, h = ctx.scores(), np.ones(12), 1e-6
            for sample_id, total in trace.drop_order:
                i = int(np.flatnonzero(ctx.batch.ids == sample_id)[0])
                wp, wm = keep.copy(), keep.copy()
                wp[i] += h
                wm[i] -= h
                fd = (regularizer(ctx, wp, mu) - regularizer(ctx, wm, mu)) / (2 * h)
                assert total - scores[i] == pytest.approx(fd, abs=1e-8)
                keep[i] = 0.0


class TestEquivalences:
    def test_mu_zero_equals_gradient_matching(self):
        rng = np.random.default_rng(88)
        for _ in range(5):
            _, _, _, ctx = random_logistic_ctx(rng, n=10)
            w = (rng.random(10) < 0.5).astype(float)
            assert gradient_matching_distance(ctx, w) == pytest.approx(
                regularizer(ctx, w, 0.0), abs=1e-12)

    def test_gradient_matching_canonical(self, quad_ctx):
        keep_middle = np.array([0.0, 1.0, 0.0])
        assert gradient_matching_distance(quad_ctx, keep_middle) == pytest.approx(2.0)
        assert gradient_matching_distance(quad_ctx, np.ones(3)) == 0.0
        # an all-zero mask keeps nothing: the kept sum is the zero vector
        assert gradient_matching_distance(quad_ctx, np.zeros(3)) == np.linalg.norm(
            quad_ctx.grad_sum)

    def test_identical_hessian_collapses_at_mu_zero(self, quad_ctx):
        w = np.array([0.0, 1.0, 1.0])
        assert identical_hessian_form(quad_ctx, w, 0.0, 0.5) == pytest.approx(
            gradient_matching_distance(quad_ctx, w), abs=1e-12)

    def test_identical_hessian_identity(self):
        """With equal per-sample curvatures and the context Hessian built
        over the kept set, the closed form with alpha = discarded/kept
        reproduces the regularizer."""
        rng = np.random.default_rng(99)
        for _ in range(10):
            zs = rng.normal(size=9) * 2.0
            candidates = [qsample(i, z) for i, z in enumerate(zs)]
            w = (rng.random(9) < 0.6).astype(float)
            if w.sum() == 0:
                w[0] = 1.0
            kept = [c for c, wi in zip(candidates, w) if wi == 1.0]
            theta = float(rng.normal())
            ctx = build_context(QUAD, Params([theta]), candidates, kept, damping=0.0)
            alpha = (len(candidates) - len(kept)) / len(kept)
            for mu in [0.0, 0.3, 0.7, 1.0]:
                lhs = identical_hessian_form(ctx, w, mu, alpha)
                rhs = regularizer(ctx, w, mu)
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_matching_vs_diversity_decomposition(self):
        """Squared-norm gap between the shifted and plain matching forms
        splits into a constant plus the alignment (diversity) term."""
        rng = np.random.default_rng(111)
        for _ in range(10):
            zs = rng.normal(size=8) * 2.0
            candidates = [qsample(i, z) for i, z in enumerate(zs)]
            w = (rng.random(8) < 0.5).astype(float)
            if w.sum() == 0:
                w[0] = 1.0
            kept = [c for c, wi in zip(candidates, w) if wi == 1.0]
            ctx = build_context(QUAD, Params([0.3]), candidates, kept, damping=0.0)
            alpha = (len(candidates) - len(kept)) / len(kept)
            mu = float(rng.uniform(0, 1))
            r_shifted = identical_hessian_form(ctx, w, mu, alpha)
            r_plain = gradient_matching_distance(ctx, w)
            g_all = float(ctx.grad_sum[0])
            g_kept = float(ctx.grads[w == 1.0].sum())
            constant = (-2 * alpha * mu + alpha**2 * mu**2) * g_all**2
            diversity = 2 * alpha * mu * g_all * g_kept
            assert r_shifted**2 - r_plain**2 == pytest.approx(constant + diversity, abs=1e-9)


class TestFiniteEpsOracles:
    def test_excluded_quotient_is_linear_in_eps(self):
        from coresel.harness import finite_eps_second_order
        rng = np.random.default_rng(123)
        samples, ctx = off_optimum_ctx(rng, n=14)
        z, zp = samples[0], samples[-1]
        exact = second_order_influence(ctx, z, zp, 0.0)
        joint = second_order_influence(ctx, z, zp, 1.0)
        assert abs(exact - joint) > 1e-6 * max(abs(exact), abs(joint))
        for eps in [0.5, 1e-2, 1e-5]:
            quotient = finite_eps_second_order(ctx, z, zp, 0.0, eps)
            assert quotient == pytest.approx(exact, abs=1e-9 * max(1.0, abs(exact)))

    def test_joint_quotient_converges_linearly(self):
        from coresel.harness import finite_eps_second_order
        quad_candidates = [qsample(0, 0.0), qsample(1, 2.0), qsample(2, 4.0)]
        hessian_set = [qsample(10, 0.0), qsample(11, 2.0)]
        ctx = build_context(QUAD, Params([1.0]), quad_candidates, hessian_set, damping=0.0)
        z, zp = qsample(20, 0.0), qsample(21, 3.0)
        q = finite_eps_second_order(ctx, z, zp, 1.0, 0.01)
        assert q == pytest.approx(2.5, rel=0.02)
        err1 = abs(finite_eps_second_order(ctx, z, zp, 1.0, 0.01) - 2.5)
        err2 = abs(finite_eps_second_order(ctx, z, zp, 1.0, 0.005) - 2.5)
        assert err2 == pytest.approx(err1 / 2, rel=0.1)

    @pytest.mark.parametrize("eps", [0.0, -1e-3, np.nan, np.inf])
    def test_eps_must_be_finite_and_positive(self, quad_ctx, eps):
        from coresel.harness import finite_eps_second_order
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            finite_eps_second_order(quad_ctx, qsample(20, 0.0), qsample(21, 3.0), 0.5, eps)

    def test_mixed_quotient_converges_linearly_off_optimum(self):
        from coresel.harness import finite_eps_second_order
        samples, ctx = off_optimum_ctx(np.random.default_rng(124))
        z, zp = samples[0], samples[-1]
        exact = second_order_influence(ctx, z, zp, 0.5)
        err1 = abs(finite_eps_second_order(ctx, z, zp, 0.5, 1e-3) - exact)
        err2 = abs(finite_eps_second_order(ctx, z, zp, 0.5, 5e-4) - exact)
        assert err1 < 1e-2 * abs(exact)
        assert err2 == pytest.approx(err1 / 2, rel=0.1)
