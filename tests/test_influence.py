"""Influence score and regularizer tests.

The quad1d fixtures are exact: a scalar quadratic pool with optimum 1 and
curvature 2 gives a shared solve of -1.5 against the outer gradient sum -3,
so every score below has a closed form checked by hand.
"""

import re

import numpy as np
import pytest

from coresel import models, selection
from coresel.influence import CriterionConfig, build_context
from coresel.models import (
    FitConfig,
    ModelSpec,
    Params,
    Sample,
    dense_hessian,
    fit,
    stack_samples,
)
from coresel.numkit import SolveError, solve_checked
from coresel.oracles import (
    finite_eps_second_order,
    first_order_influence,
    grad,
    grad_matrix,
    gradient_matching_distance,
    hvp_matrix,
    identical_hessian_form,
    mu_terms,
    regularizer,
    sample_hvp,
    second_order_influence,
)
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

    def test_empty_hessian_set_rejected(self):
        with pytest.raises(ValueError, match="hessian_set must be nonempty"):
            build_context(QUAD, Params([1.0]), [qsample(0, 0.0)], [])

    def test_repeated_candidate_id_rejected(self):
        candidates = [qsample(i, float(i)) for i in (0, 2, 1, 2, 4)]
        with pytest.raises(ValueError, match="candidates: sample id 2 appears at positions 1 and 3"):
            build_context(QUAD, Params([1.0]), candidates, candidates)

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
            g = grad(ctx.model, ctx.params, z)
            np.testing.assert_allclose(solve_checked(ctx.damped_hessian, g), inverse @ g,
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
        ctx.scores()
        ctx.mu_factors(0.5)
        assert calls == [25]
        calls.clear()
        build_context(spec, params, pool, pool[:10])
        assert calls == [25, 10]
        batch = original(spec, pool)
        build_context(spec, params, batch, batch)
        assert calls == [25, 10]

    def test_one_softmax_per_context(self, monkeypatch):
        # the candidates' softmax feeds their gradient sum, their scores,
        # their Hessian and their factored rows; a separate Hessian set
        # takes one more. The shared floats are the ones each kernel
        # computes.
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
            scores, factors = ctx.scores(), ctx.mu_factors(0.5)
            assert calls == expected
            H = dense_hessian(spec, params, hessian_set)
            H[np.diag_indices(spec.param_dim)] += 0.01
            assert np.array_equal(ctx.damped_hessian, H)
            for got, fresh in zip(factors, models.mu_factors(spec, params, pool, ctx.ihvp, 0.5)):
                assert np.array_equal(got, fresh)
            assert np.array_equal(
                scores, -models.grad_dots(spec, params, pool, ctx.ihvp[None])[:, 0])

    def test_context_arrays_are_read_only(self):
        samples, ctx = off_optimum_ctx(np.random.default_rng(63))
        for a in (ctx.damped_hessian, ctx.grad_sum, ctx.ihvp, ctx.probs):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        # the oracle rows, at the context's weights
        grads = grad_matrix(ctx.model, ctx.params, samples)
        hvps = hvp_matrix(ctx.model, ctx.params, samples, ctx.ihvp)
        for mu in (0.0, 0.3, 1.0, 0.3):
            assert np.array_equal(mu_terms(ctx, mu), grads - mu * hvps)

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
        np.testing.assert_allclose(mu_terms(ctx, 0.0),
                                   [wi * grad(ctx.model, ctx.params, z) for z, wi in zip(pool, w)],
                                   rtol=1e-12, atol=1e-13)
        v = rng.normal(size=spec.param_dim)
        np.testing.assert_allclose(
            ctx.damped_hessian @ v,
            sum(wi * sample_hvp(spec, params, z, v) for z, wi in zip(pool, w)),
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


def weighted_pool(rng, n, dim, num_classes, l2):
    """A logistic model and a batch of ``n`` random samples under random
    positive row weights, with random parameters."""
    spec = ModelSpec(kind="logistic", dim=dim, num_classes=num_classes, l2_strength=l2)
    pool = [Sample(id=i, task_id=0, label=int(rng.integers(num_classes)),
                   features=rng.normal(size=dim)) for i in range(n)]
    batch = stack_samples(spec, pool).with_weights(rng.uniform(0.1, 3.0, size=n))
    return spec, batch, Params(rng.normal(scale=0.5, size=spec.param_dim))


class TestDampedHessianSolve:
    """build_context reads positive definiteness from the damped Hessian's
    known floor and solves both right-hand sides of a round at once."""

    @pytest.mark.parametrize("num_classes,dim,l2,damping",
                             [(2, 3, 0.1, 0.0), (3, 4, 0.05, 0.01), (5, 2, 0.0, 0.3),
                              (4, 6, 1.0, 1e-3)])
    def test_floor_is_the_smallest_eigenvalue(self, num_classes, dim, l2, damping):
        rng = np.random.default_rng(70 + num_classes)
        spec, batch, params = weighted_pool(rng, 30, dim, num_classes, l2)
        ctx = build_context(spec, params, batch, batch, damping=damping)
        eigs = np.linalg.eigvalsh(ctx.damped_hessian)
        assert abs(eigs[0] - (damping + l2 * batch.w_sum)) <= 1e-12 * eigs[-1]

    @pytest.mark.parametrize("num_classes", [2, 3, 7])
    def test_a_shift_shared_by_all_classes_is_in_the_null_space(self, num_classes):
        rng = np.random.default_rng(80 + num_classes)
        spec, batch, params = weighted_pool(rng, 25, 4, num_classes, 0.0)
        H = dense_hessian(spec, params, batch)
        for _ in range(3):
            shift = np.tile(rng.normal(size=4), num_classes)
            assert np.linalg.norm(H @ shift) <= 1e-12 * np.linalg.norm(H) * np.linalg.norm(shift)

    @pytest.mark.parametrize("num_classes,damping", [(2, 0.0), (3, 0.01), (6, 1.0)])
    def test_each_solution_matches_a_dense_solve(self, num_classes, damping):
        rng = np.random.default_rng(90 + num_classes)
        spec, batch, params = weighted_pool(rng, 30, 3, num_classes, 0.1)
        oracle_sum = models.grad_sum(spec, params, batch.rows(np.arange(0, 30, 3)))
        ctx = build_context(spec, params, batch, batch, damping=damping,
                            oracle_grad_sum=oracle_sum)
        H = dense_hessian(spec, params, batch) + damping * np.eye(spec.param_dim)
        for got, rhs in ((ctx.ihvp, ctx.grad_sum), (ctx.oracle_ihvp, oracle_sum)):
            expected = np.linalg.solve(H, rhs)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_the_oracle_solve_leaves_the_method_solve_alone(self):
        # the oracle observes: with or without its right-hand side, the
        # candidates' solve has the same bits, and only it is read-only
        spec, batch, params = weighted_pool(np.random.default_rng(95), 40, 5, 4, 0.1)
        oracle_sum = models.grad_sum(spec, params, batch.rows(np.arange(10)))
        alone = build_context(spec, params, batch, batch)
        paired = build_context(spec, params, batch, batch, oracle_grad_sum=oracle_sum)
        assert alone.oracle_ihvp is None
        assert np.array_equal(alone.ihvp, paired.ihvp)
        with pytest.raises(ValueError, match="read-only"):
            paired.oracle_ihvp[0] = 0.0

    def test_quad_floor_at_zero_damping(self):
        # quad1d's Hessian is its weight sum alone, the one eigenvalue
        batch = stack_samples(QUAD, [qsample(i, z) for i, z in enumerate((0.5, 2.0, -1.0))])
        batch = batch.with_weights(np.array([0.5, 2.0, 1.5]))
        ctx = build_context(QUAD, Params([1.0]), batch, batch, damping=0.0,
                            oracle_grad_sum=np.array([3.0]))
        assert ctx.damped_hessian.tolist() == [[batch.w_sum]]
        np.testing.assert_allclose(ctx.ihvp, ctx.grad_sum / batch.w_sum, rtol=1e-15)
        np.testing.assert_allclose(ctx.oracle_ihvp, [3.0 / batch.w_sum], rtol=1e-15)

    def test_a_floor_within_round_off_is_rejected(self):
        # positive, but below 1e-12 of the Hessian's norm: not clear of
        # the round-off of the data Hessian's zero eigenvalues
        spec, batch, params = weighted_pool(np.random.default_rng(96), 30, 3, 3, 0.0)
        with pytest.raises(SolveError, match=r"damping=1e-15, l2_strength=0\.0"):
            build_context(spec, params, batch, batch, damping=1e-15)

    @pytest.mark.parametrize("weight,l2", [(1e308, 0.1), (1.0, 1e308)])
    def test_an_overflowing_hessian_is_named_as_such(self, weight, l2):
        # no damping or l2_strength mends an overflow, so the error names
        # the non-finite Hessian, not positive definiteness
        spec, batch, params = weighted_pool(np.random.default_rng(98), 10, 3, 3, l2)
        batch = batch.with_weights(np.full(10, weight))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                SolveError, match=r"non-finite entries .*damping=0\.01, l2_strength="
                                  + re.escape(str(l2))):
            build_context(spec, params, batch, batch)

    def test_oracle_grad_sum_of_the_wrong_dimension_rejected(self):
        spec, batch, params = weighted_pool(np.random.default_rng(97), 10, 3, 3, 0.1)
        with pytest.raises(ValueError, match="dimension mismatch"):
            build_context(spec, params, batch, batch, oracle_grad_sum=np.ones(4))


def weighted_logistic_ctx(rng, at_optimum, n=40, dim=4, num_classes=3):
    """A logistic context over ``n`` samples under random row weights, at
    the weighted pool's own optimum or at random parameters."""
    spec = ModelSpec(kind="logistic", dim=dim, num_classes=num_classes, l2_strength=0.1)
    pool = [Sample(id=i, task_id=0, label=int(rng.integers(num_classes)),
                   features=rng.normal(size=dim)) for i in range(n)]
    batch = stack_samples(spec, pool).with_weights(rng.uniform(0.5, 2.0, size=n))
    params = (fit(spec, batch, FitConfig(method="newton")) if at_optimum
              else Params(rng.normal(scale=0.5, size=spec.param_dim)))
    return build_context(spec, params, batch, batch, damping=0.01)


def weighted_quad_ctx(rng, n=20):
    pool = [qsample(i, z) for i, z in enumerate(rng.normal(size=n))]
    batch = stack_samples(QUAD, pool).with_weights(rng.uniform(0.5, 2.0, size=n))
    return build_context(QUAD, Params([0.7]), batch, batch, damping=0.01)


FACTOR_CONTEXTS = {
    "logistic_at_optimum": lambda rng: weighted_logistic_ctx(rng, True),
    "logistic_off_optimum": lambda rng: weighted_logistic_ctx(rng, False),
    "logistic_10_classes_dim_20": lambda rng: weighted_logistic_ctx(rng, False, 60, 20, 10),
    "quad1d": weighted_quad_ctx,
}


class TestMuFactors:
    """``mu_factors(mu)`` is ``mu_terms(mu)`` in the form ``w_i (u_i (x)
    x_i + c)``: the rows ``U (x) X + w C`` greedy builds from the factors
    are the rows, and the Gram columns greedy reads off the factors are
    the rows' own, both within 1e-13 of the largest entry."""

    @pytest.mark.parametrize("mu", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("make", FACTOR_CONTEXTS.values(), ids=FACTOR_CONTEXTS)
    def test_factors_rebuild_the_rows_and_their_gram_columns(self, make, mu):
        ctx = make(np.random.default_rng(64))
        M, w = mu_terms(ctx, mu), ctx.batch.w
        U, X, C = ctx.mu_factors(mu)
        np.testing.assert_allclose(selection._factored_rows(U, X, C, w), M,
                                   rtol=0, atol=1e-13 * np.abs(M).max())
        gram = M @ M.T
        atol = 1e-13 * np.abs(gram).max()
        a, c2 = np.einsum("nc,nc->n", U, X @ C.T), float((C * C).sum())
        for d in range(len(w)):
            column = (U @ U[d]) * (X @ X[d]) + a * w[d] + w * (a[d] + w[d] * c2)
            np.testing.assert_allclose(column, gram[:, d], rtol=0, atol=atol)

    def test_quad_factors_are_the_rows_themselves(self):
        ctx = weighted_quad_ctx(np.random.default_rng(65))
        U, X, C = ctx.mu_factors(0.5)
        assert np.array_equal(U, mu_terms(ctx, 0.5))
        assert np.array_equal(X, np.ones((20, 1))) and np.array_equal(C, np.zeros((1, 1)))

    def test_mu_outside_the_unit_interval_rejected(self):
        _, ctx = off_optimum_ctx(np.random.default_rng(66))
        with pytest.raises(ValueError, match="mu must lie in"):
            ctx.mu_factors(1.5)


def oracle_kernel_ctx(rng, kind, n):
    """A context of ``n`` candidates for the factored-kernel oracles: quad1d
    under row weights, or logistic off its optimum (3 classes, dim 5)
    with unit weights, row weights or ids a shuffled, gapped range."""
    if kind == "quad1d":
        return weighted_quad_ctx(rng, n)
    spec = ModelSpec(kind="logistic", dim=5, num_classes=3, l2_strength=0.1)
    ids = 5 * rng.permutation(n) - 100 if kind == "shuffled_ids" else range(n)
    pool = stack_samples(spec, [Sample(id=int(i), task_id=0, label=int(rng.integers(3)),
                                       features=rng.normal(size=5)) for i in ids])
    if kind == "weighted":
        pool = pool.with_weights(rng.uniform(0.5, 2.0, size=n))
    params = Params(rng.normal(scale=0.5, size=spec.param_dim))
    return build_context(spec, params, pool, pool, damping=0.01)


class TestFactoredKernels:
    """The scores and greedy's rows, built from factors and never from a
    gradient row, against the dense oracle rows of ``grad_matrix`` and
    ``hvp_matrix`` (``mu_terms``). A float64 dot product of ``g`` and
    ``v`` is off by at most ``param_dim * 2^-53 * ||g|| ||v||``; both sides
    are held to 1e-13 relative to the row norms, about 100x what the
    contexts here reach."""

    KINDS = ("logistic", "weighted", "shuffled_ids", "quad1d")

    @pytest.mark.parametrize("n", [40, 41, 42, 43])
    @pytest.mark.parametrize("kind", KINDS)
    def test_scores_match_the_gradient_rows(self, kind, n):
        ctx = oracle_kernel_ctx(np.random.default_rng(n), kind, n)
        grads = mu_terms(ctx, 0.0)
        bound = 1e-13 * np.linalg.norm(grads, axis=1) * np.linalg.norm(ctx.ihvp)
        assert np.all(np.abs(ctx.scores() - -(grads @ ctx.ihvp)) <= bound)

    @pytest.mark.parametrize("n", [40, 41, 42, 43])
    @pytest.mark.parametrize("kind", KINDS)
    def test_greedy_rows_match_mu_terms(self, kind, n):
        ctx = oracle_kernel_ctx(np.random.default_rng(n), kind, n)
        for mu in (0.0, 0.5, 1.0):
            rows = mu_terms(ctx, mu)
            M = selection._factored_rows(*ctx.mu_factors(mu), ctx.batch.w)
            assert np.all(np.linalg.norm(M - rows, axis=1)
                          <= 1e-13 * np.linalg.norm(rows, axis=1))

    def test_grad_dots_match_the_gradient_rows_for_several_vectors(self):
        ctx = oracle_kernel_ctx(np.random.default_rng(67), "weighted", 30)
        vs = np.random.default_rng(68).normal(size=(3, ctx.model.param_dim))
        grads = mu_terms(ctx, 0.0)
        dots = models.grad_dots(ctx.model, ctx.params, ctx.batch, vs)
        bound = 1e-13 * np.outer(np.linalg.norm(grads, axis=1), np.linalg.norm(vs, axis=1))
        assert dots.shape == (30, 3) and np.all(np.abs(dots - grads @ vs.T) <= bound)
        with pytest.raises(ValueError, match=r"\(k, 15\) array"):
            models.grad_dots(ctx.model, ctx.params, ctx.batch, vs[0])


class TestFirstOrder:
    def test_canonical_scores(self, quad_ctx):
        assert first_order_influence(quad_ctx, qsample(20, 0.0)) == pytest.approx(1.5)
        assert first_order_influence(quad_ctx, qsample(21, 1.0)) == pytest.approx(0.0)
        assert first_order_influence(quad_ctx, qsample(22, 2.0)) == pytest.approx(-1.5)

    def test_scores_vector_matches_per_sample(self, quad_ctx):
        expected = [first_order_influence(quad_ctx, c) for c in QUAD_CANDIDATES]
        np.testing.assert_allclose(quad_ctx.scores(), expected, atol=1e-13)

    @pytest.mark.parametrize("n", [4 * k + r for k in (10, 53) for r in range(4)])
    def test_a_copy_scores_as_its_original_in_the_last_row(self, n):
        """BLAS rounds the last ``n % 4`` rows of a matrix-vector product
        its own way; the scores come from each row alone, so a copy of row
        0 placed there still ties it, at the benchmark's model width, over
        several pools."""
        rng = np.random.default_rng(n)
        spec = ModelSpec(kind="logistic", dim=20, num_classes=10, l2_strength=0.1)
        for _ in range(6):
            samples = [Sample(id=i, task_id=0, label=int(rng.integers(10)),
                              features=rng.normal(size=20)) for i in range(n - 1)]
            samples.append(Sample(id=n - 1, task_id=0, label=samples[0].label,
                                  features=samples[0].features))
            params = Params(rng.normal(scale=0.5, size=spec.param_dim))
            ctx = build_context(spec, params, samples, samples, damping=0.01)
            scores = ctx.scores()
            assert scores[0] == scores[-1]

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
        z, zp = qsample(20, 0.0), qsample(21, 3.0)
        calls = [lambda: second_order_influence(quad_ctx, z, zp, mu),
                 lambda: finite_eps_second_order(quad_ctx, z, zp, mu, 0.01),
                 lambda: mu_terms(quad_ctx, mu),
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
            g_kept = float(mu_terms(ctx, 0.0)[w == 1.0].sum())
            constant = (-2 * alpha * mu + alpha**2 * mu**2) * g_all**2
            diversity = 2 * alpha * mu * g_all * g_kept
            assert r_shifted**2 - r_plain**2 == pytest.approx(constant + diversity, abs=1e-9)


class TestFiniteEpsOracles:
    def test_excluded_quotient_is_linear_in_eps(self):
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
        with pytest.raises(ValueError, match="eps must be finite and positive"):
            finite_eps_second_order(quad_ctx, qsample(20, 0.0), qsample(21, 3.0), 0.5, eps)

    def test_mixed_quotient_converges_linearly_off_optimum(self):
        samples, ctx = off_optimum_ctx(np.random.default_rng(124))
        z, zp = samples[0], samples[-1]
        exact = second_order_influence(ctx, z, zp, 0.5)
        err1 = abs(finite_eps_second_order(ctx, z, zp, 0.5, 1e-3) - exact)
        err2 = abs(finite_eps_second_order(ctx, z, zp, 0.5, 5e-4) - exact)
        assert err1 < 1e-2 * abs(exact)
        assert err2 == pytest.approx(err1 / 2, rel=0.1)
