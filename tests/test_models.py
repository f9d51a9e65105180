"""Model derivative tests: analytic formulas against finite differences."""

import numpy as np
import pytest

from coresel import models
from coresel.models import (
    Batch,
    FitConfig,
    FitError,
    ModelSpec,
    Params,
    Sample,
    accuracy,
    dense_hessian,
    fit,
    grad,
    grad_matrix,
    grad_sum,
    hvp_matrix,
    loss,
    loss_sum,
    sample_hvp,
    stack_samples,
)

QUAD = ModelSpec(kind="quad1d", dim=1)


def qsample(i, z, weight=1.0):
    return Sample(id=i, task_id=0, label=0, features=[z], weight=weight)


def set_hvp(spec, params, samples, v):
    """The set Hessian's action on ``v``, through the materialized matrix."""
    return dense_hessian(spec, params, samples) @ np.asarray(v, dtype=np.float64)


def einsum_dense_hessian(spec, params, samples):
    """Reference set Hessian: one einsum over per-sample Kronecker blocks."""
    X, _, w, _ = stack_samples(spec, samples)
    if spec.kind == "quad1d":
        return np.array([[w.sum()]])
    theta = params.theta.reshape(spec.num_classes, spec.dim)
    logits = X @ theta.T
    P = np.exp(logits - logits.max(axis=1, keepdims=True))
    P /= P.sum(axis=1, keepdims=True)
    K = -P[:, :, None] * P[:, None, :]
    idx = np.arange(spec.num_classes)
    K[:, idx, idx] += P
    H = np.einsum("n,ncd,nj,nk->cjdk", w, K, X, X).reshape(spec.param_dim, spec.param_dim)
    H += spec.l2_strength * w.sum() * np.eye(spec.param_dim)
    return H


def random_logistic_instance(rng, n=12, dim=3, num_classes=3, l2=0.1):
    spec = ModelSpec(kind="logistic", dim=dim, num_classes=num_classes, l2_strength=l2)
    samples = [
        Sample(id=i, task_id=0, label=int(rng.integers(num_classes)),
               features=rng.normal(size=dim), weight=float(rng.uniform(0.5, 2.0)))
        for i in range(n)
    ]
    params = Params(rng.normal(scale=0.5, size=spec.param_dim))
    return spec, samples, params


class TestQuadLoss:
    def test_at_optimum(self):
        assert loss(QUAD, Params([1.0]), qsample(0, 1.0)) == 0.0

    def test_half_square(self):
        assert loss(QUAD, Params([1.0]), qsample(0, 3.0)) == 2.0

    def test_grad(self):
        np.testing.assert_allclose(grad(QUAD, Params([1.0]), qsample(0, 0.0)), [1.0])
        np.testing.assert_allclose(grad(QUAD, Params([1.0]), qsample(0, 1.0)), [0.0])

    def test_hvp_is_weight_times_v(self):
        np.testing.assert_allclose(sample_hvp(QUAD, Params([7.0]), qsample(0, 2.0), [3.0]), [3.0])
        np.testing.assert_allclose(
            sample_hvp(QUAD, Params([7.0]), qsample(0, 2.0, weight=2.5), [3.0]), [7.5])
        np.testing.assert_allclose(sample_hvp(QUAD, Params([0.0]), qsample(0, 2.0), [0.0]), [0.0])


class TestLogisticValues:
    def test_loss_at_zero_params_is_log2(self):
        spec = ModelSpec(kind="logistic", dim=1, num_classes=2)
        s = Sample(id=0, task_id=0, label=1, features=[0.7])
        assert loss(spec, Params([0.0, 0.0]), s) == pytest.approx(np.log(2), abs=1e-12)

    def test_grad_at_zero_params(self):
        # residual (p - onehot) outer x at p = (1/2, 1/2)
        spec = ModelSpec(kind="logistic", dim=1, num_classes=2)
        s = Sample(id=0, task_id=0, label=0, features=[1.0])
        np.testing.assert_allclose(grad(spec, Params([0.0, 0.0]), s), [-0.5, 0.5])

    def test_hvp_along_class_difference(self):
        """Response to a class-difference probe of magnitude 2 at p = 1/2.

        The curvature eigenvalue along (1, -1) for the two-logit softmax is
        2 * p * (1 - p) = 1/2, so the response has magnitude 1; the value is
        cross-checked against finite differences of the analytic gradient.
        """
        spec = ModelSpec(kind="logistic", dim=1, num_classes=2)
        s = Sample(id=0, task_id=0, label=0, features=[1.0])
        p0 = Params([0.0, 0.0])
        v = np.array([np.sqrt(2.0), -np.sqrt(2.0)])
        response = sample_hvp(spec, p0, s, v)
        assert np.linalg.norm(response) == pytest.approx(1.0, abs=1e-12)
        h = 1e-6
        fd = (grad(spec, Params(p0.theta + h * v), s) - grad(spec, Params(p0.theta - h * v), s)) / (2 * h)
        np.testing.assert_allclose(response, fd, atol=1e-8)

    def test_label_out_of_range(self):
        spec = ModelSpec(kind="logistic", dim=1, num_classes=2)
        bad = Sample(id=0, task_id=0, label=5, features=[1.0])
        with pytest.raises(ValueError, match="label"):
            loss(spec, Params([0.0, 0.0]), bad)


class TestFiniteDifferenceOracles:
    def test_grad_matches_central_differences(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            spec, samples, params = random_logistic_instance(rng)
            s = samples[int(rng.integers(len(samples)))]
            g = grad(spec, params, s)
            h = 1e-6
            fd = np.zeros_like(g)
            for j in range(len(g)):
                e = np.zeros_like(g)
                e[j] = h
                fd[j] = (loss(spec, Params(params.theta + e), s)
                         - loss(spec, Params(params.theta - e), s)) / (2 * h)
            np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-9)

    def test_hvp_matches_grad_differences(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            spec, samples, params = random_logistic_instance(rng)
            s = samples[int(rng.integers(len(samples)))]
            v = rng.normal(size=spec.param_dim)
            hv = sample_hvp(spec, params, s, v)
            h = 1e-6
            fd = (grad(spec, Params(params.theta + h * v), s)
                  - grad(spec, Params(params.theta - h * v), s)) / (2 * h)
            np.testing.assert_allclose(hv, fd, rtol=1e-5, atol=1e-8)


class TestSetHvp:
    """The summed Hessian of a sample set applied to a vector."""

    def test_quad_counts_curvature(self):
        samples = [qsample(0, 0.0), qsample(1, 2.0)]
        np.testing.assert_allclose(set_hvp(QUAD, Params([1.0]), samples, [1.0]), [2.0])

    def test_single_sample_equals_sample_hvp(self):
        rng = np.random.default_rng(23)
        spec, samples, params = random_logistic_instance(rng, n=1)
        v = rng.normal(size=spec.param_dim)
        np.testing.assert_allclose(
            set_hvp(spec, params, samples, v),
            sample_hvp(spec, params, samples[0], v), atol=1e-12)

    def test_matches_per_sample_summation(self):
        rng = np.random.default_rng(24)
        spec, samples, params = random_logistic_instance(rng, n=20)
        v = rng.normal(size=spec.param_dim)
        total = set_hvp(spec, params, samples, v)
        manual = sum(sample_hvp(spec, params, s, v) for s in samples)
        np.testing.assert_allclose(total, manual, atol=1e-12)

    def test_weight_doubling_equals_duplication(self):
        rng = np.random.default_rng(25)
        spec, samples, params = random_logistic_instance(rng, n=5)
        v = rng.normal(size=spec.param_dim)
        import dataclasses
        doubled = [dataclasses.replace(samples[0], weight=2 * samples[0].weight)] + samples[1:]
        duplicated = [samples[0], dataclasses.replace(samples[0], id=99)] + samples[1:]
        np.testing.assert_allclose(
            set_hvp(spec, params, doubled, v),
            set_hvp(spec, params, duplicated, v), atol=1e-12)

    def test_linear_in_v_and_additive_over_disjoint_lists(self):
        rng = np.random.default_rng(26)
        spec, samples, params = random_logistic_instance(rng, n=10)
        v1, v2 = rng.normal(size=spec.param_dim), rng.normal(size=spec.param_dim)
        lhs = set_hvp(spec, params, samples, 2.0 * v1 - 0.5 * v2)
        rhs = 2.0 * set_hvp(spec, params, samples, v1) - 0.5 * set_hvp(spec, params, samples, v2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        split = set_hvp(spec, params, samples[:4], v1) + set_hvp(spec, params, samples[4:], v1)
        np.testing.assert_allclose(split, set_hvp(spec, params, samples, v1), atol=1e-12)

    def test_empty_list_raises(self):
        with pytest.raises(ValueError, match="empty"):
            set_hvp(QUAD, Params([0.0]), [], [1.0])


class TestBatchHelpers:
    def test_grad_matrix_rows_match_per_sample(self):
        rng = np.random.default_rng(27)
        spec, samples, params = random_logistic_instance(rng, n=8)
        G = grad_matrix(spec, params, samples)
        for i, s in enumerate(samples):
            np.testing.assert_allclose(G[i], grad(spec, params, s), atol=1e-13)

    def test_hvp_matrix_rows_match_per_sample(self):
        rng = np.random.default_rng(28)
        spec, samples, params = random_logistic_instance(rng, n=8)
        v = rng.normal(size=spec.param_dim)
        M = hvp_matrix(spec, params, samples, v)
        for i, s in enumerate(samples):
            np.testing.assert_allclose(M[i], sample_hvp(spec, params, s, v), atol=1e-13)

    def test_loss_sum_matches_per_sample(self):
        rng = np.random.default_rng(29)
        spec, samples, params = random_logistic_instance(rng, n=8)
        manual = sum(loss(spec, params, s) for s in samples)
        assert loss_sum(spec, params, samples) == pytest.approx(manual, rel=1e-12)

    def test_dense_hessian_matches_hvp(self):
        rng = np.random.default_rng(30)
        spec, samples, params = random_logistic_instance(rng, n=6)
        H = dense_hessian(spec, params, samples)
        np.testing.assert_allclose(H, H.T, atol=1e-12)
        for _ in range(3):
            v = rng.normal(size=spec.param_dim)
            manual = sum(sample_hvp(spec, params, s, v) for s in samples)
            np.testing.assert_allclose(H @ v, manual, atol=1e-10)


class TestDenseHessianBlockForm:
    @pytest.mark.parametrize("num_classes", [2, 3, 10])
    @pytest.mark.parametrize("l2", [0.0, 0.1])
    def test_matches_einsum_oracle(self, num_classes, l2):
        rng = np.random.default_rng(100 + num_classes)
        spec, samples, params = random_logistic_instance(
            rng, n=40, dim=4, num_classes=num_classes, l2=l2)
        assert len({s.weight for s in samples}) > 1
        H = dense_hessian(spec, params, samples)
        oracle = einsum_dense_hessian(spec, params, samples)
        np.testing.assert_allclose(H, oracle, rtol=0, atol=1e-12 * np.abs(oracle).max())

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(31)
        spec, samples, params = random_logistic_instance(rng, n=50, dim=5, num_classes=4)
        H = dense_hessian(spec, params, samples)
        assert np.array_equal(H, H.T)

    def test_quad1d_is_total_weight(self):
        samples = [qsample(0, 0.0, weight=0.5), qsample(1, 2.0, weight=2.0)]
        H = dense_hessian(QUAD, Params([1.0]), samples)
        np.testing.assert_array_equal(H, einsum_dense_hessian(QUAD, Params([1.0]), samples))
        np.testing.assert_array_equal(H, [[2.5]])


def oracle_softmax(logits):
    """Row softmax, dividing into a new array."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def oracle_grad_matrix(spec, params, batch):
    """Per-sample gradient rows, each term its own full-size array."""
    X, y, w, _ = batch
    n = len(y)
    theta = params.theta.reshape(spec.num_classes, spec.dim)
    P = oracle_softmax(X @ theta.T)
    resid = P.copy()
    resid[np.arange(n), y] -= 1.0
    G = resid[:, :, None] * X[:, None, :] + spec.l2_strength * theta[None, :, :]
    return (w[:, None, None] * G).reshape(n, spec.param_dim)


def oracle_hvp_matrix(spec, params, batch, v):
    """Per-sample Hessian-vector rows, each term its own full-size array."""
    X, _, w, _ = batch
    n = len(w)
    theta = params.theta.reshape(spec.num_classes, spec.dim)
    P = oracle_softmax(X @ theta.T)
    V = v.reshape(spec.num_classes, spec.dim)
    a = X @ V.T
    m = np.einsum("nc,nc->n", P, a)
    rows = P * (a - m[:, None])
    out = rows[:, :, None] * X[:, None, :] + spec.l2_strength * V[None, :, :]
    return (w[:, None, None] * out).reshape(n, spec.param_dim)


class TestInPlaceKernelsAreBitExact:
    """The in-place logistic kernels give the out-of-place oracles' exact bits.

    The benchmark's kept-id references freeze the SGD gradient's bits, so
    ``np.array_equal`` here, not a tolerance. The inputs are writeable, so a
    kernel that wrote into them would show.
    """

    @pytest.mark.parametrize("n", [1, 24, 212, 800])
    @pytest.mark.parametrize("num_classes", [2, 10])
    @pytest.mark.parametrize("l2", [0.0, 0.1])
    def test_match_out_of_place_oracles(self, n, num_classes, l2):
        rng = np.random.default_rng([n, num_classes])
        dim = 20
        spec = ModelSpec(kind="logistic", dim=dim, num_classes=num_classes, l2_strength=l2)
        batch = Batch(rng.normal(size=(n, dim)), rng.integers(num_classes, size=n),
                      rng.uniform(0.5, 2.0, size=n), np.arange(n))
        params = Params(rng.normal(size=spec.param_dim))
        v = rng.normal(size=spec.param_dim)
        inputs = [*batch, params.theta, v]
        before = [a.copy() for a in inputs]

        logits = batch.X @ params.theta.reshape(num_classes, dim).T
        assert np.array_equal(models._softmax(logits), oracle_softmax(logits))
        G = grad_matrix(spec, params, batch)
        assert np.array_equal(G, oracle_grad_matrix(spec, params, batch))
        g = grad_sum(spec, params, batch)
        assert np.array_equal(g, oracle_grad_matrix(spec, params, batch).sum(axis=0))
        Hv = hvp_matrix(spec, params, batch, v)
        assert np.array_equal(Hv, oracle_hvp_matrix(spec, params, batch, v))

        for a, b in zip(inputs, before):
            assert np.array_equal(a, b)
            for out in (G, g, Hv):
                assert not np.shares_memory(out, a)


def count_stacks(monkeypatch):
    """Wrap ``models.stack_samples`` so each call is counted."""
    calls = []
    original = models.stack_samples

    def counting(spec, samples):
        calls.append(len(samples))
        return original(spec, samples)

    monkeypatch.setattr(models, "stack_samples", counting)
    return calls


def quad_instance(rng, n=9):
    samples = [qsample(i, float(rng.normal()), weight=float(rng.uniform(0.5, 2.0)))
               for i in range(n)]
    return QUAD, samples, Params([0.3])


class TestBatch:
    """Every batch kernel gives the same bits on a Batch as on the list."""

    @pytest.mark.parametrize("kind", ["quad1d", "logistic"])
    def test_kernels_are_bit_identical_on_a_batch(self, kind):
        rng = np.random.default_rng(40)
        if kind == "quad1d":
            spec, samples, params = quad_instance(rng)
        else:
            spec, samples, params = random_logistic_instance(rng, n=15)
        batch = stack_samples(spec, samples)
        v = rng.normal(size=spec.param_dim)
        assert loss_sum(spec, params, batch) == loss_sum(spec, params, samples)
        for kernel in (grad_matrix, grad_sum, dense_hessian):
            assert np.array_equal(kernel(spec, params, batch), kernel(spec, params, samples))
        assert np.array_equal(hvp_matrix(spec, params, batch, v),
                              hvp_matrix(spec, params, samples, v))
        methods = ["newton"] + (["closed_form"] if kind == "quad1d" else [])
        for method in methods:
            cfg = FitConfig(method=method)
            assert np.array_equal(fit(spec, batch, cfg).theta, fit(spec, samples, cfg).theta)
        if kind == "logistic":
            assert accuracy(spec, params, batch) == accuracy(spec, params, samples)

    def test_empty_batch_behaves_like_empty_list(self):
        empty = stack_samples(QUAD, [])
        assert loss_sum(QUAD, Params([1.0]), empty) == 0.0
        assert np.array_equal(grad_sum(QUAD, Params([1.0]), empty), [0.0])
        with pytest.raises(ValueError, match="empty"):
            dense_hessian(QUAD, Params([1.0]), empty)
        with pytest.raises(ValueError, match="empty"):
            fit(QUAD, empty, FitConfig(method="closed_form"))

    def test_arrays_are_read_only(self):
        rng = np.random.default_rng(41)
        spec, samples, _ = random_logistic_instance(rng, n=6)
        batch = stack_samples(spec, samples)
        X, y, w, ids = batch
        assert isinstance(batch, Batch) and len(batch[0]) == 6
        assert ids.dtype == np.int64 and ids.tolist() == [s.id for s in samples]
        for a in (*batch, *batch.rows(np.arange(6) % 2 == 0)):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_rows_equal_stacking_the_subset(self):
        rng = np.random.default_rng(42)
        spec, samples, _ = random_logistic_instance(rng, n=10)
        mask = rng.random(10) < 0.6
        subset = stack_samples(spec, [s for s, keep in zip(samples, mask) if keep])
        for got, want in zip(stack_samples(spec, samples).rows(mask), subset):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_invalid_sample_rejected_when_stacked(self):
        spec = ModelSpec(kind="logistic", dim=1, num_classes=2)
        bad = [Sample(id=0, task_id=0, label=0, features=[1.0]),
               Sample(id=1, task_id=0, label=5, features=[1.0])]
        with pytest.raises(ValueError, match="sample 1: label 5"):
            stack_samples(spec, bad)
        with pytest.raises(ValueError, match="sample 1: label 5"):
            grad_sum(spec, Params([0.0, 0.0]), bad)

    def test_newton_fit_stacks_its_samples_once(self, monkeypatch):
        rng = np.random.default_rng(43)
        spec, samples, _ = random_logistic_instance(rng, n=30)
        batch = stack_samples(spec, samples)
        calls = count_stacks(monkeypatch)
        fit(spec, samples, FitConfig(method="newton", grad_tolerance=1e-10))
        assert calls == [30]
        fit(spec, batch, FitConfig(method="newton", grad_tolerance=1e-10))
        assert calls == [30]


class TestFit:
    def test_quad_closed_form_is_weighted_mean(self):
        params = fit(QUAD, [qsample(0, 0.0), qsample(1, 2.0)], FitConfig(method="closed_form"))
        np.testing.assert_allclose(params.theta, [1.0])
        params = fit(QUAD, [qsample(0, 5.0)], FitConfig(method="closed_form"))
        np.testing.assert_allclose(params.theta, [5.0])

    def test_newton_reaches_tolerance_on_separable_blob(self):
        rng = np.random.default_rng(31)
        spec = ModelSpec(kind="logistic", dim=2, num_classes=2, l2_strength=0.1)
        samples = []
        for i in range(40):
            label = i % 2
            center = np.array([2.0, 0.0]) if label else np.array([-2.0, 0.0])
            samples.append(Sample(id=i, task_id=0, label=label,
                                  features=rng.normal(size=2) + center))
        params = fit(spec, samples, FitConfig(method="newton", grad_tolerance=1e-10))
        assert np.linalg.norm(grad_sum(spec, params, samples)) <= 1e-10

    def test_newton_optimum_is_unique(self):
        rng = np.random.default_rng(32)
        spec, samples, _ = random_logistic_instance(rng, n=30, l2=0.2)
        cfg = FitConfig(method="newton", grad_tolerance=1e-12)
        a = fit(spec, samples, cfg)
        b = fit(spec, samples, cfg, init=Params(rng.normal(size=spec.param_dim)))
        np.testing.assert_allclose(a.theta, b.theta, atol=1e-6)

    def test_newton_non_convergence_reports_grad_norm(self):
        # separable data without regularization diverges
        spec = ModelSpec(kind="logistic", dim=1, num_classes=2, l2_strength=0.0)
        samples = [Sample(id=0, task_id=0, label=0, features=[-1.0]),
                   Sample(id=1, task_id=0, label=1, features=[1.0])]
        with pytest.raises(FitError) as err:
            fit(spec, samples, FitConfig(method="newton", grad_tolerance=1e-14, max_steps=5))
        assert err.value.grad_norm > 0

    def test_empty_fit_raises(self):
        with pytest.raises(ValueError):
            fit(QUAD, [], FitConfig(method="closed_form"))


class TestAccuracy:
    def test_counts_argmax_correct(self):
        spec = ModelSpec(kind="logistic", dim=1, num_classes=2)
        params = Params([-1.0, 1.0])  # predicts class 1 for positive x
        samples = [Sample(id=i, task_id=0, label=l, features=[x])
                   for i, (x, l) in enumerate([(1.0, 1), (2.0, 1), (-1.0, 0), (3.0, 0)])]
        assert accuracy(spec, params, samples) == 0.75

    def test_all_correct_and_all_wrong(self):
        spec = ModelSpec(kind="logistic", dim=1, num_classes=2)
        params = Params([-1.0, 1.0])
        good = [Sample(id=0, task_id=0, label=1, features=[2.0]),
                Sample(id=1, task_id=0, label=0, features=[-2.0])]
        assert accuracy(spec, params, good) == 1.0
        flipped = [Sample(id=0, task_id=0, label=0, features=[2.0]),
                   Sample(id=1, task_id=0, label=1, features=[-2.0])]
        assert accuracy(spec, params, flipped) == 0.0

    def test_quad_has_no_accuracy(self):
        with pytest.raises(ValueError):
            accuracy(QUAD, Params([0.0]), [qsample(0, 1.0)])
