"""Model derivative tests: analytic formulas against finite differences."""

import re
from dataclasses import replace

import numpy as np
import pytest

from coresel import harness, models
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
from coresel.numkit import ArgumentError

QUAD = ModelSpec(kind="quad1d", dim=1)


def qsample(i, z):
    return Sample(id=i, task_id=0, label=0, features=[z])


def weighted(spec, samples, w):
    """The samples stacked under the row weights ``w``."""
    return stack_samples(spec, samples).with_weights(np.asarray(w, dtype=np.float64))


def set_hvp(spec, params, samples, v):
    """The set Hessian's action on ``v``, through the materialized matrix."""
    return dense_hessian(spec, params, samples) @ np.asarray(v, dtype=np.float64)


def einsum_dense_hessian(spec, params, batch):
    """Reference set Hessian: one einsum over per-sample Kronecker blocks."""
    X, _, w, _ = batch
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
    """(spec, samples, w, params): random samples, a row weight in
    [0.5, 2) for each and random parameters."""
    spec = ModelSpec(kind="logistic", dim=dim, num_classes=num_classes, l2_strength=l2)
    samples, w = [], []
    for i in range(n):
        label, features = int(rng.integers(num_classes)), rng.normal(size=dim)
        samples.append(Sample(id=i, task_id=0, label=label, features=features))
        w.append(rng.uniform(0.5, 2.0))
    params = Params(rng.normal(scale=0.5, size=spec.param_dim))
    return spec, samples, np.array(w), params


class TestQuadLoss:
    def test_at_optimum(self):
        assert loss(QUAD, Params([1.0]), qsample(0, 1.0)) == 0.0

    def test_half_square(self):
        assert loss(QUAD, Params([1.0]), qsample(0, 3.0)) == 2.0

    def test_grad(self):
        np.testing.assert_allclose(grad(QUAD, Params([1.0]), qsample(0, 0.0)), [1.0])
        np.testing.assert_allclose(grad(QUAD, Params([1.0]), qsample(0, 1.0)), [0.0])

    def test_hvp_is_row_weight_times_v(self):
        np.testing.assert_allclose(sample_hvp(QUAD, Params([7.0]), qsample(0, 2.0), [3.0]), [3.0])
        np.testing.assert_allclose(
            hvp_matrix(QUAD, Params([7.0]), weighted(QUAD, [qsample(0, 2.0)], [2.5]), [3.0]),
            [[7.5]])
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
            spec, samples, _, params = random_logistic_instance(rng)
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
            spec, samples, _, params = random_logistic_instance(rng)
            s = samples[int(rng.integers(len(samples)))]
            v = rng.normal(size=spec.param_dim)
            hv = sample_hvp(spec, params, s, v)
            h = 1e-6
            fd = (grad(spec, Params(params.theta + h * v), s)
                  - grad(spec, Params(params.theta - h * v), s)) / (2 * h)
            np.testing.assert_allclose(hv, fd, rtol=1e-5, atol=1e-8)


class TestSetHvp:
    """The summed Hessian of a weighted sample set applied to a vector."""

    def test_quad_counts_curvature(self):
        samples = [qsample(0, 0.0), qsample(1, 2.0)]
        np.testing.assert_allclose(set_hvp(QUAD, Params([1.0]), samples, [1.0]), [2.0])

    def test_single_sample_equals_sample_hvp(self):
        rng = np.random.default_rng(23)
        spec, samples, w, params = random_logistic_instance(rng, n=1)
        v = rng.normal(size=spec.param_dim)
        np.testing.assert_allclose(
            set_hvp(spec, params, weighted(spec, samples, w), v),
            w[0] * sample_hvp(spec, params, samples[0], v), atol=1e-12)

    def test_matches_per_sample_summation(self):
        rng = np.random.default_rng(24)
        spec, samples, w, params = random_logistic_instance(rng, n=20)
        v = rng.normal(size=spec.param_dim)
        total = set_hvp(spec, params, weighted(spec, samples, w), v)
        manual = sum(wi * sample_hvp(spec, params, s, v) for s, wi in zip(samples, w))
        np.testing.assert_allclose(total, manual, atol=1e-12)

    def test_weight_doubling_equals_duplication(self):
        rng = np.random.default_rng(25)
        spec, samples, w, params = random_logistic_instance(rng, n=5)
        v = rng.normal(size=spec.param_dim)
        doubled = weighted(spec, samples, [2 * w[0], *w[1:]])
        duplicated = weighted(spec, [samples[0], replace(samples[0], id=99)] + samples[1:],
                              [w[0], *w])
        np.testing.assert_allclose(
            set_hvp(spec, params, doubled, v),
            set_hvp(spec, params, duplicated, v), atol=1e-12)

    def test_linear_in_v_and_additive_over_disjoint_lists(self):
        rng = np.random.default_rng(26)
        spec, samples, w, params = random_logistic_instance(rng, n=10)
        batch = weighted(spec, samples, w)
        v1, v2 = rng.normal(size=spec.param_dim), rng.normal(size=spec.param_dim)
        lhs = set_hvp(spec, params, batch, 2.0 * v1 - 0.5 * v2)
        rhs = 2.0 * set_hvp(spec, params, batch, v1) - 0.5 * set_hvp(spec, params, batch, v2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)
        split = (set_hvp(spec, params, batch.rows(slice(None, 4)), v1)
                 + set_hvp(spec, params, batch.rows(slice(4, None)), v1))
        np.testing.assert_allclose(split, set_hvp(spec, params, batch, v1), atol=1e-12)

    def test_empty_list_raises(self):
        with pytest.raises(ValueError, match="empty"):
            set_hvp(QUAD, Params([0.0]), [], [1.0])


class TestBatchHelpers:
    """Row ``i`` of a weighted batch is ``w_i`` times sample ``i``'s own term."""

    def test_grad_matrix_rows_match_per_sample(self):
        rng = np.random.default_rng(27)
        spec, samples, w, params = random_logistic_instance(rng, n=8)
        G = grad_matrix(spec, params, weighted(spec, samples, w))
        for i, s in enumerate(samples):
            np.testing.assert_allclose(G[i], w[i] * grad(spec, params, s), atol=1e-13)

    def test_hvp_matrix_rows_match_per_sample(self):
        rng = np.random.default_rng(28)
        spec, samples, w, params = random_logistic_instance(rng, n=8)
        v = rng.normal(size=spec.param_dim)
        M = hvp_matrix(spec, params, weighted(spec, samples, w), v)
        for i, s in enumerate(samples):
            np.testing.assert_allclose(M[i], w[i] * sample_hvp(spec, params, s, v), atol=1e-13)

    def test_loss_sum_matches_per_sample(self):
        rng = np.random.default_rng(29)
        spec, samples, w, params = random_logistic_instance(rng, n=8)
        manual = sum(wi * loss(spec, params, s) for s, wi in zip(samples, w))
        assert loss_sum(spec, params, weighted(spec, samples, w)) == pytest.approx(manual,
                                                                                  rel=1e-12)

    def test_dense_hessian_matches_hvp(self):
        rng = np.random.default_rng(30)
        spec, samples, w, params = random_logistic_instance(rng, n=6)
        H = dense_hessian(spec, params, weighted(spec, samples, w))
        np.testing.assert_allclose(H, H.T, atol=1e-12)
        for _ in range(3):
            v = rng.normal(size=spec.param_dim)
            manual = sum(wi * sample_hvp(spec, params, s, v) for s, wi in zip(samples, w))
            np.testing.assert_allclose(H @ v, manual, atol=1e-10)


# (dim, num_classes) of the benchmark's models: continual_scaled and
# select_pool, and loo_oracle
BENCHMARK_SHAPES = [(20, 10), (10, 2)]


class TestDenseHessianBlockForm:
    @pytest.mark.parametrize("num_classes, dim", [
        pytest.param(2, 4, id="2"), pytest.param(3, 4, id="3"), pytest.param(10, 4, id="10"),
        *(pytest.param(c, d, id=f"{c}-dim{d}") for d, c in BENCHMARK_SHAPES)])
    @pytest.mark.parametrize("l2", [0.0, 0.1])
    def test_matches_einsum_oracle(self, num_classes, dim, l2):
        rng = np.random.default_rng(100 + num_classes)
        spec, samples, w, params = random_logistic_instance(
            rng, n=40, dim=dim, num_classes=num_classes, l2=l2)
        batch = weighted(spec, samples, w)
        assert len(set(batch.w)) > 1
        H = dense_hessian(spec, params, batch)
        oracle = einsum_dense_hessian(spec, params, batch)
        np.testing.assert_allclose(H, oracle, rtol=0, atol=1e-12 * np.abs(oracle).max())

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(31)
        for dim, num_classes in [(5, 4), *BENCHMARK_SHAPES]:
            spec, samples, w, params = random_logistic_instance(
                rng, n=50, dim=dim, num_classes=num_classes)
            batch = weighted(spec, samples, w)
            assert len(set(batch.w)) > 1
            H = dense_hessian(spec, params, batch)
            assert np.array_equal(H, H.T)

    def test_quad1d_is_total_weight(self):
        batch = weighted(QUAD, [qsample(0, 0.0), qsample(1, 2.0)], [0.5, 2.0])
        H = dense_hessian(QUAD, Params([1.0]), batch)
        np.testing.assert_array_equal(H, einsum_dense_hessian(QUAD, Params([1.0]), batch))
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

    The SGD step sums ``grad_matrix`` rows, and the pinned run
    ``p200_seed126`` amplifies their last bits into a kept id, so
    ``grad_matrix`` is held to its oracle by ``np.array_equal``, as are
    ``hvp_matrix`` and every ``probs=`` variant to its own kernel.
    ``grad_sum`` is one product in another summation order than the row
    sum, so it is held to that sum within ``1e-13 * max(1, max_j sum_i
    |G_ij|)``. The inputs are writeable, so a kernel that wrote into them
    would show.
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
        logits = batch.X @ params.theta.reshape(num_classes, dim).T
        probs = oracle_softmax(logits)
        inputs = [*batch, params.theta, v, probs]
        before = [a.copy() for a in inputs]

        assert np.array_equal(models._softmax(logits), probs)
        G = grad_matrix(spec, params, batch)
        assert np.array_equal(G, oracle_grad_matrix(spec, params, batch))
        g = grad_sum(spec, params, batch)
        rows = oracle_grad_matrix(spec, params, batch)
        bound = 1e-13 * max(1.0, np.abs(rows).sum(axis=0).max())
        np.testing.assert_allclose(g, rows.sum(axis=0), rtol=0, atol=bound)
        Hv = hvp_matrix(spec, params, batch, v)
        assert np.array_equal(Hv, oracle_hvp_matrix(spec, params, batch, v))
        H = dense_hessian(spec, params, batch)
        shared = [grad_matrix(spec, params, batch, probs=probs),
                  grad_sum(spec, params, batch, probs=probs),
                  hvp_matrix(spec, params, batch, v, probs=probs),
                  dense_hessian(spec, params, batch, probs=probs)]
        for got, want in zip(shared, (G, g, Hv, H)):
            assert np.array_equal(got, want)

        for a, b in zip(inputs, before):
            assert np.array_equal(a, b)
            for out in (G, g, Hv, H, *shared):
                assert not np.shares_memory(out, a)


def count_calls(monkeypatch, name, record=lambda *args, **kwargs: None):
    """Wrap ``models.<name>`` so each call appends ``record(*args, **kwargs)``."""
    calls = []
    original = getattr(models, name)

    def counting(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(models, name, counting)
    return calls


def quad_instance(rng, n=9):
    """(QUAD, samples, w, params), as :func:`random_logistic_instance`."""
    samples, w = [], []
    for i in range(n):
        samples.append(qsample(i, float(rng.normal())))
        w.append(rng.uniform(0.5, 2.0))
    return QUAD, samples, np.array(w), Params([0.3])


class TestBatch:
    """Every batch kernel gives the same bits on a Batch as on the list."""

    @pytest.mark.parametrize("kind", ["quad1d", "logistic"])
    def test_kernels_are_bit_identical_on_a_batch(self, kind):
        rng = np.random.default_rng(40)
        if kind == "quad1d":
            spec, samples, _, params = quad_instance(rng)
        else:
            spec, samples, _, params = random_logistic_instance(rng, n=15)
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
        spec, samples, _, _ = random_logistic_instance(rng, n=6)
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
        spec, samples, _, _ = random_logistic_instance(rng, n=10)
        mask = rng.random(10) < 0.6
        subset = stack_samples(spec, [s for s, keep in zip(samples, mask) if keep])
        for got, want in zip(stack_samples(spec, samples).rows(mask), subset):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    @pytest.mark.parametrize("weight", [np.nan, np.inf, 0.0, -1.0])
    def test_weight_must_be_finite_and_positive(self, weight):
        batch = stack_samples(QUAD, [qsample(3, 0.0), qsample(4, 1.0)])
        message = f"sample 4: weight must be finite and positive, got {weight}"
        with pytest.raises(ArgumentError, match=re.escape(message)) as err:
            batch.with_weights(np.array([1.0, weight]))
        assert err.value.argument == "w"

    def test_weights_need_one_per_row(self):
        batch = stack_samples(QUAD, [qsample(3, 0.0), qsample(4, 1.0)])
        with pytest.raises(ArgumentError, match="3 weights for 2 rows"):
            batch.with_weights(np.ones(3))

    @pytest.mark.parametrize("field, value", [
        ("label", 0.5), ("label", np.nan), ("task_id", 0.5), ("task_id", np.nan), ("id", 2.5)])
    def test_integer_fields_must_hold_integers(self, field, value):
        kwargs = {"id": 4, "task_id": 0, "label": 0, field: value}
        message = f"sample {kwargs['id']}: {field} must be an integer, got {value}"
        with pytest.raises(ArgumentError, match=re.escape(message)) as err:
            Sample(features=[1.0], **kwargs)
        assert err.value.argument == field

    def test_numpy_integers_and_negative_ids_are_valid(self):
        s = Sample(id=np.int64(-3), task_id=np.int32(1), label=np.int64(2), features=[1.0])
        batch = stack_samples(ModelSpec(kind="logistic", dim=1, num_classes=3), [s])
        assert batch.ids.tolist() == [-3] and batch.y.tolist() == [2]

    @pytest.mark.parametrize("field, value", [
        ("id", 2**63), ("id", -2**63 - 1), ("id", 10**23 - 1), ("label", 2**70)])
    def test_id_and_label_must_fit_in_int64(self, field, value):
        kwargs = {"id": 4, "task_id": 0, "label": 0, field: value}
        message = f"sample {kwargs['id']}: {field} must fit in int64, got {value}"
        with pytest.raises(ArgumentError, match=re.escape(message)) as err:
            Sample(features=[1.0], **kwargs)
        assert err.value.argument == field

    def test_int64_extremes_are_valid(self):
        samples = [Sample(id=-2**63, task_id=0, label=0, features=[1.0]),
                   Sample(id=2**63 - 1, task_id=0, label=0, features=[1.0])]
        assert stack_samples(QUAD, samples).ids.tolist() == [-2**63, 2**63 - 1]

    def test_invalid_sample_rejected_when_stacked(self):
        spec = ModelSpec(kind="logistic", dim=1, num_classes=2)
        bad = [Sample(id=0, task_id=0, label=0, features=[1.0]),
               Sample(id=1, task_id=0, label=5, features=[1.0])]
        with pytest.raises(ValueError, match="sample 1: label 5"):
            stack_samples(spec, bad)
        with pytest.raises(ValueError, match="sample 1: label 5"):
            grad_sum(spec, Params([0.0, 0.0]), bad)

    def test_first_failing_sample_is_named(self):
        spec = ModelSpec(kind="logistic", dim=2, num_classes=2)
        rows = [(0, [1.0, 0.0]), (7, [1.0, 0.0]), (0, [1.0, 0.0]), (1, [1.0]), (9, [1.0])]
        samples = [Sample(id=i, task_id=0, label=label, features=x)
                   for i, (label, x) in enumerate(rows)]
        with pytest.raises(ValueError, match=re.escape("sample 1: label 7 outside [0, 2)")):
            stack_samples(spec, samples)
        with pytest.raises(ValueError, match=re.escape("sample 3: feature dim 1 != 2")):
            stack_samples(spec, samples[2:])

    def test_newton_fit_stacks_its_samples_once(self, monkeypatch):
        rng = np.random.default_rng(43)
        spec, samples, _, _ = random_logistic_instance(rng, n=30)
        batch = stack_samples(spec, samples)
        calls = count_calls(monkeypatch, "stack_samples", lambda spec, samples: len(samples))
        fit(spec, samples, FitConfig(method="newton", grad_tolerance=1e-10))
        assert calls == [30]
        fit(spec, batch, FitConfig(method="newton", grad_tolerance=1e-10))
        assert calls == [30]


class TestGradientSumsBuildNoRows:
    """Every logistic gradient sum but the SGD step's is ``grad_sum``'s one
    product, so no per-sample gradient row is built for it."""

    def test_newton_fit_and_leave_one_out_build_no_rows(self, monkeypatch):
        rng = np.random.default_rng(44)
        spec, samples, _, _ = random_logistic_instance(rng, n=40)
        cfg = FitConfig(method="newton", grad_tolerance=1e-10)
        calls = count_calls(monkeypatch, "grad_matrix")
        fit(spec, samples[:30], cfg)
        harness.loo_retrain_delta(spec, samples[:30], samples[30:], samples[3], cfg)
        assert calls == []

    def test_tau_checkpoint_recomputes_only_the_reweighted_rows(self, monkeypatch):
        rng = np.random.default_rng(45)
        spec, samples, _, params = random_logistic_instance(rng, n=20)
        train = stack_samples(spec, samples)
        # six buffer rows at weight 1, then four batch rows at weight 6 / 4
        rows = np.array([0, 2, 4, 6, 8, 10, 12, 13, 14, 15])
        ctx = harness._selection_context(spec, params, train, rows, 6, None, 0.01)
        oracle_rows = np.array([2, 6, 13, 15, 16, 17, 18, 19])
        calls = count_calls(monkeypatch, "grad_matrix",
                            lambda spec, params, samples, **kwargs: samples.ids.tolist())
        assert harness._tau_checkpoint(ctx, train, rows, oracle_rows, 2) is not None
        assert calls == [[13, 15]]


def oracle_fit_newton(spec, batch, cfg, init=None, evaluated=None):
    """Newton fit with every quantity computed anew at every iterate: the
    softmax inside both ``grad_sum`` and ``dense_hessian``, and the base
    loss. Appends the theta of each loss evaluation to ``evaluated`` if
    given, as ``("base", theta)`` or ``("trial", theta)``."""
    record = evaluated.append if evaluated is not None else lambda entry: None
    theta = init.theta.copy() if init is not None else np.zeros(spec.param_dim)
    for _ in range(models.NEWTON_MAX_STEPS):
        params = Params(theta)
        g = models.grad_sum(spec, params, batch)
        g_norm = float(np.linalg.norm(g))
        if g_norm <= cfg.grad_tolerance:
            return params
        H = models.dense_hessian(spec, params, batch)
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError as exc:
            raise FitError(f"singular Hessian during Newton fit: {exc}") from exc
        record(("base", theta))
        base = models.loss_sum(spec, params, batch)
        slack = 1e-12 * (1.0 + abs(base))
        t = 1.0
        while t > 1e-8:
            candidate = Params(theta - t * step)
            record(("trial", candidate.theta))
            if models.loss_sum(spec, candidate, batch) <= base - 1e-4 * t * float(g @ step) + slack:
                break
            t *= 0.5
        theta = theta - t * step
    params = Params(theta)
    g_norm = float(np.linalg.norm(models.grad_sum(spec, params, batch)))
    if g_norm <= cfg.grad_tolerance:
        return params
    raise FitError(f"Newton did not converge in {models.NEWTON_MAX_STEPS} steps "
                   f"(|grad| = {g_norm:.3e})")


def unreachable_fit(l2):
    """(spec, samples) of a 1-D two-class fit that no Newton fit brings below
    a tolerance of 1e-300: with ``l2 = 0`` the data are separable and the
    Hessian turns singular, with ``l2 = 0.1`` the gradient stalls at
    round-off."""
    spec = ModelSpec(kind="logistic", dim=1, num_classes=2, l2_strength=l2)
    rows = [(0, -1.0), (1, 1.0)] + ([(0, 0.3)] if l2 else [])
    return spec, [Sample(id=i, task_id=0, label=label, features=[x])
                  for i, (label, x) in enumerate(rows)]


NEWTON_CASES = ["zero", "warm", "far", "runs-out"]


def newton_case(monkeypatch, case, num_classes=3, l2=0.1):
    """(spec, batch, init) of one Newton fit case: from zero, warm-started
    near the optimum, from far off, where the line search backtracks
    (except at 10 classes with l2 = 0.1, which takes every full step), or
    from zero with the step at zero flipped uphill, so that the first
    backtracking runs out; or the quad1d fit, from far off."""
    rng = np.random.default_rng([num_classes, int(1 / l2)])
    if case == "quad1d":
        spec, samples, w, _ = quad_instance(rng, n=25)
        return spec, weighted(spec, samples, w), Params([40.0])
    spec, samples, w, _ = random_logistic_instance(rng, n=60, dim=4, num_classes=num_classes,
                                                   l2=l2)
    batch = weighted(spec, samples, w)
    init = None
    if case == "warm":
        optimum = fit(spec, batch, FitConfig(method="newton"))
        init = Params(optimum.theta + rng.normal(scale=0.05, size=spec.param_dim))
    elif case == "far":
        init = Params(rng.normal(scale=50.0, size=spec.param_dim))
    elif case == "runs-out":
        g0 = grad_sum(spec, Params(np.zeros(spec.param_dim)), batch)
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve",
                            lambda H, g: -solve(H, g) if np.array_equal(g, g0) else solve(H, g))
    return spec, batch, init


class TestFusedNewtonIsBitExact:
    """The fit shares one softmax per iterate and carries its accepted loss,
    and still returns the unfused oracle's exact bits."""

    @pytest.mark.parametrize("case", NEWTON_CASES)
    @pytest.mark.parametrize("num_classes", [2, 3, 10])
    @pytest.mark.parametrize("l2", [0.1, 1e-3])
    def test_matches_unfused_oracle(self, monkeypatch, case, num_classes, l2):
        spec, batch, init = newton_case(monkeypatch, case, num_classes, l2)
        assert len(set(batch.w)) > 1
        cfg = FitConfig(method="newton")
        got = fit(spec, batch, cfg, init=init)
        assert np.array_equal(got.theta, oracle_fit_newton(spec, batch, cfg, init).theta)

    def test_quad1d_matches_unfused_oracle(self, monkeypatch):
        spec, batch, init = newton_case(monkeypatch, "quad1d")
        cfg = FitConfig(method="newton")
        got = fit(spec, batch, cfg, init=init)
        assert np.array_equal(got.theta, oracle_fit_newton(spec, batch, cfg, init).theta)

    @pytest.mark.parametrize("l2, message", [(0.0, "singular Hessian"),
                                             (0.1, "did not converge")])
    def test_failure_message_matches_the_oracle(self, l2, message):
        spec, samples = unreachable_fit(l2)
        batch = stack_samples(spec, samples)
        cfg = FitConfig(method="newton", grad_tolerance=1e-300)
        with pytest.raises(FitError, match=message) as got:
            fit(spec, batch, cfg)
        with pytest.raises(FitError) as want:
            oracle_fit_newton(spec, batch, cfg)
        assert str(got.value) == str(want.value)


class ExpCounter:
    """``numpy`` with its ``exp`` calls counted."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, *args, **kwargs):
        self.calls += 1
        return np.exp(*args, **kwargs)


@pytest.mark.parametrize("case", ["zero", "far", "runs-out"])
def test_newton_takes_one_exp_per_iterate_or_trial_and_carries_its_softmax(monkeypatch, case):
    """One ``exp`` per loss evaluation and one per iterate that follows no
    accepted trial (the first, and the one after backtracking runs out); an
    iterate after an accepted trial reads that trial's softmax, bit for bit;
    and one loss per line-search trial plus one at each base that no
    accepted trial evaluated."""
    spec, batch, init = newton_case(monkeypatch, case)
    cfg = FitConfig(method="newton")
    evaluated = []
    oracle_fit_newton(spec, batch, cfg, init, evaluated)
    expected = []
    for role, theta in evaluated:
        if not (role == "base" and expected and np.array_equal(theta, expected[-1])):
            expected.append(theta)
    trials = sum(role == "trial" for role, _ in evaluated)
    assert (trials > len(evaluated) - trials) == (case != "zero")  # some step backtracks
    assert len(expected) == trials + (2 if case == "runs-out" else 1)

    numpy = ExpCounter()
    monkeypatch.setattr(models, "np", numpy)
    events = []  # ("loss" | "iterate", theta, softmax)
    count_calls(monkeypatch, "grad_sum", lambda spec, params, batch, probs=None:
                events.append(("iterate", params.theta, probs)))
    hessians = count_calls(monkeypatch, "dense_hessian")
    loss_and_probs = models._loss_and_probs

    def recording(spec, params, batch):
        loss, probs = loss_and_probs(spec, params, batch)
        events.append(("loss", params.theta, probs))
        return loss, probs

    monkeypatch.setattr(models, "_loss_and_probs", recording)
    fit(spec, batch, cfg, init=init)

    iterates = [i for i, (role, _, _) in enumerate(events) if role == "iterate"]
    losses = [theta for role, theta, _ in events if role == "loss"]
    assert len(iterates) == len(hessians) + 1
    assert len(losses) == len(expected)
    for got, want in zip(losses, expected):
        assert np.array_equal(got, want)
    fresh = 0
    for i in iterates:
        _, theta, probs = events[i]
        assert np.array_equal(probs, oracle_softmax(batch.X @ theta.reshape(spec.num_classes,
                                                                            spec.dim).T))
        role, trial_theta, trial_probs = events[i - 1] if i else (None, None, None)
        if role == "loss" and np.array_equal(trial_theta, theta):
            assert probs is trial_probs
        else:
            fresh += 1
    assert fresh == (2 if case == "runs-out" else 1)
    assert numpy.calls == len(losses) + fresh


class TestParams:
    def test_theta_is_read_only(self):
        params = Params([1.0, 2.0])
        with pytest.raises(ValueError, match="read-only"):
            params.theta[0] = 0.0

    def test_callers_array_stays_writable_and_is_not_shared(self):
        theta = np.array([1.0, 2.0])
        params = Params(theta)
        theta[0] = 5.0
        assert theta.flags.writeable
        assert params.theta.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_theta_rejected_at_construction(self, bad):
        with pytest.raises(ValueError, match="NaN or Inf"):
            Params([0.0, bad])

    def test_wrong_length_gets_the_dimension_message(self):
        spec = ModelSpec(kind="logistic", dim=2, num_classes=2)
        samples = [Sample(id=0, task_id=0, label=1, features=[1.0, 0.5])]
        for kernel in (loss_sum, grad_sum, dense_hessian, accuracy):
            with pytest.raises(ValueError, match=re.escape("dimension mismatch: expected 4, "
                                                           "got 3")):
                kernel(spec, Params([0.0, 0.0, 0.0]), samples)


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
        spec, samples, w, _ = random_logistic_instance(rng, n=30, l2=0.2)
        batch = weighted(spec, samples, w)
        cfg = FitConfig(method="newton", grad_tolerance=1e-12)
        a = fit(spec, batch, cfg)
        b = fit(spec, batch, cfg, init=Params(rng.normal(size=spec.param_dim)))
        np.testing.assert_allclose(a.theta, b.theta, atol=1e-6)

    def test_newton_non_convergence_reports_grad_norm(self):
        spec, samples = unreachable_fit(0.1)
        with pytest.raises(FitError, match=r"Newton did not converge in 100 steps "
                                           r"\(\|grad\| = \d\.\d{3}e[+-]\d+\)"):
            fit(spec, samples, FitConfig(method="newton", grad_tolerance=1e-300))

    @pytest.mark.parametrize("kwargs, message", [
        ({"grad_tolerance": np.nan}, "grad_tolerance must be finite and positive"),
        ({"grad_tolerance": np.inf}, "grad_tolerance must be finite and positive"),
        ({"grad_tolerance": 0.0}, "grad_tolerance must be finite and positive"),
    ])
    def test_config_rejects_bad_tolerance(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            FitConfig(method="newton", **kwargs)

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
