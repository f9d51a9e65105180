"""Convex models: batch kernels for fitting, scoring and selection.

Two model families are provided:

* ``quad1d`` -- scalar quadratic fit, loss ``0.5 * (theta - z)**2`` where
  ``z`` is the sample's single feature. Labels are ignored. Everything
  about it (optimum, Hessian, influence) has a closed form, which makes it
  the reference model for exact oracles.
* ``logistic`` -- multinomial logistic regression with cross-entropy loss
  and an L2 term attributed per sample: each sample contributes
  ``cross_entropy + l2_strength/2 * ||theta||^2`` so that sums over sample
  sets equal the regularized empirical risk of the set. With
  ``l2_strength > 0`` the set Hessian is strictly positive definite.

A sample carries no weight. Row weights live on the :class:`Batch`: the
batch helpers scale row ``i`` by ``w[i]``, which :func:`stack_samples`
sets to 1 and :meth:`Batch.with_weights` replaces with checked finite,
positive weights.

Parameters for ``logistic`` are flattened class-major: ``theta.reshape(
num_classes, dim)`` has one row per class. The exact per-sample formulas
and the dense ``(n, param_dim)`` rows ``grad_matrix`` and ``hvp_matrix``
are the oracles of :mod:`~coresel.oracles`; the batch kernels here agree
with them to float64 round-off.

``grad_sum`` builds no rows: for ``logistic`` it is the one product
``((P - onehot) * w)^T X`` plus ``l2_strength * sum(w) * theta``, which
agrees with the row sum of ``grad_matrix`` to float64 round-off but not
bit for bit. The SGD step of :func:`~coresel.harness.run_continual` is the
one gradient sum that does not use it, because the pinned scaled run
``p200_seed126`` (see ``tests/test_pinned_runs.py``) amplifies the last
bits of that gradient into a different kept id. Its private helper
``_sgd_step`` repeats ``grad_matrix``'s arithmetic on plain arrays and
sums the rows, with no ``Batch`` or ``Params`` per step.

A Newton fit takes one ``exp`` per point it evaluates: the start, each
line-search trial and the point where backtracking runs out each get one
call that returns the loss and the softmax together. An iterate reads
its point's loss and softmax from that call and hands the softmax to
both ``grad_sum`` and ``dense_hessian`` (their ``probs`` keyword). The
constants those kernels read (the row index, ``sqrt(w)``, ``sqrt(w) X``
and ``sum(w)``) are kept on the :class:`Batch`, so the fit computes them
once for all its iterates. An influence context likewise shares one
softmax of its candidates among ``grad_sum``, ``grad_dots``,
``mu_factors`` and, when they are its Hessian set, ``dense_hessian``.
Both reuse the very floats the kernels would have computed themselves, so
the results are bit-identical to computing everything anew.

A softmax takes each row's max from a class-major copy of the logits,
because numpy's reduction along a short last axis is 2.5-4.5x slower
at a few hundred rows and more (10-class rows, or 2-class ones). A
max involves no rounding, so the shift keeps its bits, up to the sign of
a zero max where +0.0 and -0.0 tie; such a row has two ``exp`` of 1, so
no output bit depends on that sign. The row sum stays along the class
axis: from 9 classes up numpy adds a row in pairwise blocks, and a
class-major sum would add it in another order.

:func:`mu_factors` gives the rows of ``grad_matrix - mu * hvp_matrix`` in
factored form, ``w_i (u_i (x) x_i + c)``: each logistic gradient and
Hessian-vector row is a class residual times the sample's features, plus
the L2 term shared by all rows (the per-example factorization of
Goodfellow, arXiv 1510.01799). The dot product of two rows then reads
``num_classes + dim + 2`` numbers per row instead of ``param_dim``.
:func:`grad_dots` dots every gradient row with given vectors in the same
form, one product over the features and a sum over the classes, so a
selection round (its scores, greedy's rows and the tau checkpoint) builds
no ``(n, param_dim)`` gradient or Hessian-vector array. quad1d's one-column
rows ``w * (theta - x)`` are built in place.

Every batch helper takes a :class:`Batch` or a sample list.
:func:`stack_samples` is the one place a sample set is validated against
the model, by array comparisons over the whole set, and stacked into a
``Batch`` of read-only arrays, sample ids included; a helper given a
sequence stacks it on entry. Callers that visit one set many times (a
Newton fit, a leave-one-out refit, an influence context) stack it once
and pass the ``Batch``; the array math is the same either way, so the
results are bit-identical. :class:`Params` likewise holds a checked,
read-only copy of its vector, so the kernels check only its length.
"""

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .numkit import ArgumentError, as_vector, check_int, check_real

MODEL_KINDS = ("quad1d", "logistic")
# sample ids and labels are stacked into int64 arrays
_INT64 = np.iinfo(np.int64)
FIT_METHODS = ("closed_form", "newton")
# Newton steps a fit takes before it gives up with a FitError
NEWTON_MAX_STEPS = 100


class FitError(RuntimeError):
    """Optimizer failed to reach the requested gradient tolerance."""


@dataclass(frozen=True, eq=False)
class Sample:
    """One training point: features, class label and task of origin."""

    id: int
    task_id: int
    label: int
    features: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "features", as_vector(self.features))
        try:
            check_int("id", self.id)
            check_int("task_id", self.task_id, 0)
            check_int("label", self.label, 0)
            for name in ("id", "label"):
                value = operator.index(getattr(self, name))
                if not _INT64.min <= value <= _INT64.max:
                    raise ArgumentError(name, f"{name} must fit in int64, got {value}")
        except ArgumentError as exc:
            raise ArgumentError(exc.argument, f"sample {self.id}: {exc}") from None


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    dim: int = 1
    num_classes: int = 2
    l2_strength: float = 0.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ArgumentError(
                "kind", f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        check_int("dim", self.dim, 1)
        if self.kind == "quad1d" and self.dim != 1:
            raise ArgumentError("dim", "quad1d requires dim=1")
        check_int("num_classes", self.num_classes, 1)
        check_real("l2_strength", self.l2_strength)

    @property
    def param_dim(self) -> int:
        return 1 if self.kind == "quad1d" else self.num_classes * self.dim


@dataclass(frozen=True)
class Params:
    """Model parameters: a finite 1-D float64 vector, checked and copied
    once, and read-only from then on."""

    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", _read_only(as_vector(self.theta).copy()))


@dataclass(frozen=True)
class FitConfig:
    method: str = "newton"
    grad_tolerance: float = 1e-10

    def __post_init__(self):
        if self.method not in FIT_METHODS:
            raise ArgumentError(
                "method", f"unknown fit method {self.method!r}; expected one of {FIT_METHODS}")
        check_real("grad_tolerance", self.grad_tolerance, positive=True)


def _check_sample(spec: ModelSpec, sample: Sample):
    if sample.features.shape[0] != spec.dim:
        raise ValueError(f"sample {sample.id}: feature dim {sample.features.shape[0]} != {spec.dim}")
    if spec.kind == "logistic" and not 0 <= sample.label < spec.num_classes:
        raise ValueError(f"sample {sample.id}: label {sample.label} outside [0, {spec.num_classes})")


class _BatchArrays(NamedTuple):
    X: np.ndarray
    y: np.ndarray
    w: np.ndarray
    ids: np.ndarray


class Batch(_BatchArrays):
    """A validated sample set as read-only arrays: features ``X`` (n, dim),
    labels ``y``, row weights ``w`` and sample ids ``ids``. Build one with
    :func:`stack_samples`, which sets every weight to 1, and reweight it with
    :meth:`with_weights`; every quantity computed from a Batch reads its
    ``w``.

    It also keeps the constants of its rows that the summed kernels read:
    the row ``index``, ``root_w`` (``sqrt(w)`` as a column), ``root_w_X``
    (``root_w * X``) and ``w_sum``, each computed on first use. A batch
    whose kernels never read them pays nothing for them, and one from
    :meth:`rows` or :meth:`with_weights` computes its own. The constants
    hold only while the arrays keep their values, so the arrays must stay
    read-only."""

    def rows(self, index) -> "Batch":
        """The sub-batch selected by an index or boolean mask, in row order."""
        return Batch(*(_read_only(a[index]) for a in self))

    def with_weights(self, w: np.ndarray) -> "Batch":
        """The same rows under the weights ``w``: one finite, positive
        weight per row."""
        w = np.asarray(w, dtype=np.float64)
        if w.shape != self.ids.shape:
            raise ArgumentError("w", f"{w.size} weights for {self.ids.size} rows")
        bad = np.flatnonzero(~(np.isfinite(w) & (w > 0)))
        if bad.size:
            i = bad[0]
            raise ArgumentError(
                "w", f"sample {self.ids[i]}: weight must be finite and positive, got {w[i]}")
        return Batch(self.X, self.y, _read_only(w), self.ids)

    @cached_property
    def index(self) -> np.ndarray:
        return _read_only(np.arange(len(self.y)))

    @cached_property
    def root_w(self) -> np.ndarray:
        return _read_only(np.sqrt(self.w)[:, None])

    @cached_property
    def root_w_X(self) -> np.ndarray:
        return _read_only(self.root_w * self.X)

    @cached_property
    def w_sum(self) -> np.float64:
        return self.w.sum()


Samples = Union[Batch, Sequence[Sample]]


def check_unique_ids(ids, what: str) -> None:
    """Raise ValueError if a sample id repeats in ``ids``, naming ``what``,
    the first id met a second time and the positions of both copies."""
    ids = np.asarray(ids)
    order = np.argsort(ids, kind="stable")
    ranked = ids[order]
    pairs = np.flatnonzero(ranked[1:] == ranked[:-1])
    if pairs.size:
        k = pairs[order[pairs + 1].argmin()]
        raise ValueError(f"{what}: sample id {ranked[k]} appears at positions "
                         f"{order[k]} and {order[k + 1]}")


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def stack_samples(spec: ModelSpec, samples: Sequence[Sample]) -> Batch:
    """Validate every sample against ``spec`` and stack the set into a Batch.

    The whole set is checked by array comparisons; a failing set raises
    :func:`_check_sample`'s error for its first failing sample."""
    n = len(samples)
    features = [s.features for s in samples]
    # a Sample's id and label fit in int64, so these conversions cannot fail
    y = np.fromiter([s.label for s in samples], np.int64, n)
    ids = np.fromiter([s.id for s in samples], np.int64, n)
    bad = np.fromiter(map(len, features), np.int64, n) != spec.dim
    if spec.kind == "logistic":
        bad |= (y < 0) | (y >= spec.num_classes)
    if bad.any():
        _check_sample(spec, samples[int(bad.argmax())])
    # equal-length 1-D float64 rows, which one concatenate copies to the
    # same bits as np.stack or np.array at a fraction of their cost
    X = np.concatenate(features).reshape(n, spec.dim) if n else np.zeros((0, spec.dim))
    return Batch(_read_only(X), _read_only(y), _read_only(np.ones(n)), _read_only(ids))


def _as_batch(spec: ModelSpec, samples: Samples) -> Batch:
    return samples if isinstance(samples, Batch) else stack_samples(spec, samples)


def _row_max(logits: np.ndarray) -> np.ndarray:
    """Each row's max as a column, reduced over a class-major copy (see the
    module docstring for why its bits are safe)."""
    return np.ascontiguousarray(logits.T).max(axis=0)[:, None]


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - _row_max(logits)
    e = np.exp(shifted)
    e /= e.sum(axis=1, keepdims=True)
    return e


def _log_softmax(logits: np.ndarray):
    """``(log_softmax, softmax)`` of each row, from one ``exp`` and one row
    sum; each has the bits of computing it on its own."""
    shifted = logits - _row_max(logits)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    e /= total
    return shifted - np.log(total), e


def _theta_matrix(spec: ModelSpec, params: Params) -> np.ndarray:
    """The class-major matrix view of ``params``, whose vector its
    constructor already checked; only the length is left to check."""
    theta = params.theta
    if theta.shape[0] != spec.param_dim:
        raise ValueError(f"dimension mismatch: expected {spec.param_dim}, got {theta.shape[0]}")
    return theta.reshape(spec.num_classes, spec.dim)


# ---------------------------------------------------------------------------
# vectorized batch helpers
# ---------------------------------------------------------------------------

def loss_sum(spec: ModelSpec, params: Params, samples: Samples) -> float:
    return _loss_and_probs(spec, params, samples)[0]


def _loss_and_probs(spec: ModelSpec, params: Params, samples: Samples):
    """:func:`loss_sum` and the softmax at ``params`` it was computed from
    (None for quad1d)."""
    batch = _as_batch(spec, samples)
    X, y, w, _ = batch
    if spec.kind == "quad1d":
        return float(0.5 * (w * (params.theta[0] - X[:, 0]) ** 2).sum()), None
    theta = _theta_matrix(spec, params)
    logp, probs = _log_softmax(X @ theta.T)
    ce = -logp[batch.index, y]
    l2 = 0.5 * spec.l2_strength * float(params.theta @ params.theta)
    return float((w * (ce + l2)).sum()), probs


def _probs(spec: ModelSpec, params: Params, X: np.ndarray) -> np.ndarray:
    """Class probabilities of each row of ``X`` under ``params``."""
    return _softmax(X @ _theta_matrix(spec, params).T)


def _sgd_step(spec: ModelSpec, theta: np.ndarray, X: np.ndarray, y: np.ndarray,
              learning_rate: float) -> np.ndarray:
    """``theta - learning_rate * grad_matrix(...).sum(axis=0)`` for logistic
    rows ``X, y`` of weight 1, bit for bit, on a plain theta array.

    It repeats :func:`~coresel.oracles.grad_matrix`'s float operations in their order,
    less the weight multiply, which is exact at weight 1. The result is
    checked finite as :class:`Params` would check it.
    """
    n = len(y)
    Theta = theta.reshape(spec.num_classes, spec.dim)
    resid = _softmax(X @ Theta.T)
    resid[np.arange(n), y] -= 1.0
    G = resid[:, :, None] * X[:, None, :]
    G += spec.l2_strength * Theta
    theta = theta - learning_rate * G.reshape(n, spec.param_dim).sum(axis=0)
    if not np.isfinite(theta).all():
        raise ValueError("vector contains NaN or Inf entries")
    return theta


def grad_sum(spec: ModelSpec, params: Params, samples: Samples, *,
             probs: Optional[np.ndarray] = None) -> np.ndarray:
    """Summed gradient; ``probs``, if given, must be the softmax at these
    ``params``, the class probabilities ``softmax(X @ theta.T)`` of the
    samples; it is read, never written, and spares recomputing them.
    quad1d has no softmax.

    For ``logistic`` this is one product, ``((P - onehot) * w)^T X + l2 *
    sum(w) * theta`` flattened class-major, which builds no per-sample row;
    it agrees with the row sum of :func:`~coresel.oracles.grad_matrix` to
    float64 round-off, not bit for bit. quad1d sums its one-column rows
    ``w * (theta - x)``.
    """
    batch = _as_batch(spec, samples)
    X, y, w, _ = batch
    if spec.kind == "quad1d":
        return (w[:, None] * (params.theta - X)).sum(axis=0)
    theta = _theta_matrix(spec, params)
    resid = _softmax(X @ theta.T) if probs is None else probs.copy()
    resid[batch.index, y] -= 1.0
    resid *= w[:, None]
    g = resid.T @ X
    g += (spec.l2_strength * batch.w_sum) * theta
    return g.ravel()


def _hvp_class_factor(P: np.ndarray, X: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Each row's class factor ``P * (V x - P . V x)`` of its logistic
    Hessian-vector product, whose row is that factor times ``x``."""
    Vx = X @ V.T
    return P * (Vx - np.einsum("nc,nc->n", P, Vx)[:, None])


def grad_dots(spec: ModelSpec, params: Params, samples: Samples, vs, *,
              probs: Optional[np.ndarray] = None) -> np.ndarray:
    """``grad_matrix(...) @ vs.T``: each sample's gradient dotted with each
    row of the ``(k, param_dim)`` array ``vs``, as an ``(n, k)`` array,
    with no gradient row built.

    For ``logistic``, entry ``(i, j)`` is ``w_i ((r_i * (V_j x_i)).sum() +
    l2_strength * theta . v_j)`` with ``r_i = P_i - onehot(y_i)`` and
    ``V_j`` the class-major ``vs[j]``; for ``quad1d`` it is ``w_i (theta -
    x_i) v_j``. A row's entries come from that row alone (one product over
    its features, element-wise operations and a sum over its classes), and
    OpenBLAS rounds a row of a matrix-matrix product alike wherever the
    row sits (unlike the last ``n % 4`` rows of a matrix-vector product),
    so two equal rows get equal entries wherever they sit. They agree with
    ``grad_matrix(...) @ vs.T`` to float64 round-off, not bit for bit.
    ``probs`` as in :func:`grad_sum`, the softmax at these ``params``,
    only read.
    """
    vs = np.asarray(vs, dtype=np.float64)
    if vs.ndim != 2 or vs.shape[1] != spec.param_dim:
        raise ValueError(f"expected a (k, {spec.param_dim}) array of vectors, "
                         f"got shape {vs.shape}")
    batch = _as_batch(spec, samples)
    X, y, w, _ = batch
    if spec.kind == "quad1d":
        return (w * (params.theta[0] - X[:, 0]))[:, None] * vs[:, 0]
    theta = _theta_matrix(spec, params)
    n, k, C = len(y), len(vs), spec.num_classes
    resid = _softmax(X @ theta.T) if probs is None else probs.copy()
    resid[batch.index, y] -= 1.0
    VX = (X @ vs.reshape(k * C, spec.dim).T).reshape(n, k, C)
    VX *= resid[:, None, :]
    out = VX.sum(axis=2)
    out += spec.l2_strength * (vs @ params.theta)
    out *= w[:, None]
    return out


def mu_factors(spec: ModelSpec, params: Params, samples: Samples, v, mu: float, *,
               probs: Optional[np.ndarray] = None):
    """The rows ``grad_matrix - mu * hvp_matrix(v)`` in factored form.

    Every such row is ``w_i (u_i (x) x_i + c)``: a class factor ``u_i``
    times the features ``x_i``, plus one shared ``c``. For ``logistic``,
    ``u_i = (P_i - onehot(y_i)) - mu * P_i * (V x_i - P_i . V x_i)`` and
    ``c = l2_strength * (theta - mu * V)``, with ``V = v`` class-major;
    ``quad1d``'s row is its own factor, with ``x_i = 1`` and ``c = 0``.
    Returns ``(U, X, C)``: ``U[i] = w_i u_i``, the features and the
    class-major ``c``, so row ``i`` is ``U[i] (x) X[i] + w_i C`` flattened,
    and the dot product of two rows reads ``num_classes + dim + 2``
    numbers per row where the row has ``param_dim``. ``probs`` as in
    :func:`grad_sum`, only read.
    """
    v = as_vector(v, dim=spec.param_dim)
    batch = _as_batch(spec, samples)
    X, y, w, _ = batch
    n = len(w)
    if spec.kind == "quad1d":
        rows = w[:, None] * (params.theta - X)
        if mu != 0.0:
            rows = rows - mu * (w[:, None] * v)
        return rows, np.ones((n, 1)), np.zeros((1, 1))
    theta = _theta_matrix(spec, params)
    V = v.reshape(spec.num_classes, spec.dim)
    P = _probs(spec, params, X) if probs is None else probs
    U = P.copy()
    if mu != 0.0:
        U -= mu * _hvp_class_factor(P, X, V)
    U[np.arange(n), y] -= 1.0
    U *= w[:, None]
    return U, X, spec.l2_strength * (theta - mu * V)


def dense_hessian(spec: ModelSpec, params: Params, samples: Samples, *,
                  probs: Optional[np.ndarray] = None) -> np.ndarray:
    """Materialized summed Hessian; used by Newton steps and influence contexts.

    For ``logistic`` the set Hessian ``sum_n w_n (diag(P_n) - P_n P_n^T)
    (x) x_n x_n^T`` is built in block form from two products of the
    square-root-weighted rows ``Z = sqrt(w) P (x) X``. The ``-P P^T`` part
    is the Gram matrix ``Z^T Z``, which numpy evaluates as a symmetric
    rank-k update, so it is exactly symmetric. The ``diag(P)`` part's
    diagonal class blocks ``sum_n w_n P_nc x_n x_n^T`` all come from one
    ``(p, n) @ (n, dim)`` product ``Z^T (sqrt(w) X)``, reshaped to
    ``(num_classes, dim, dim)``; that is no Gram matrix, so each block is
    symmetrized as ``(B + B^T) / 2`` and the result stays exactly
    symmetric. The L2 term goes on the diagonal. ``probs`` as in
    :func:`grad_sum`, the softmax at these ``params``, only read.
    """
    batch = _as_batch(spec, samples)
    X = batch.X
    n = len(X)
    if n == 0:
        raise ValueError("set Hessian is undefined for an empty sample list")
    if spec.kind == "quad1d":
        return np.array([[batch.w_sum]])
    C, d, p = spec.num_classes, spec.dim, spec.param_dim
    P = _probs(spec, params, X) if probs is None else probs
    # the products of a broadcast multiply (a zero product may lose its
    # sign, which no sum below can see), in about half its time
    Z = np.einsum("nc,nd->ncd", batch.root_w * P, X).reshape(n, p)
    H = Z.T @ Z
    np.negative(H, out=H)
    B = (Z.T @ batch.root_w_X).reshape(C, d, d)
    B += B.transpose(0, 2, 1)
    B *= 0.5
    # the diagonal class blocks of H, as a writeable (C, d, d) view
    blocks = np.einsum("cjck->cjk", H.reshape(C, d, C, d))
    blocks += B
    H.flat[::p + 1] += spec.l2_strength * batch.w_sum
    return H


# ---------------------------------------------------------------------------
# fitting and evaluation
# ---------------------------------------------------------------------------

def fit(spec: ModelSpec, samples: Samples, cfg: FitConfig,
        init: Optional[Params] = None) -> Params:
    """Fit parameters on ``samples`` to optimality.

    ``closed_form`` (quad1d only) is exact; ``newton`` drives the summed
    gradient below ``grad_tolerance`` within ``NEWTON_MAX_STEPS`` steps.
    """
    batch = _as_batch(spec, samples)
    if len(batch.y) == 0:
        raise ValueError("cannot fit on an empty sample list")
    if cfg.method == "closed_form":
        if spec.kind != "quad1d":
            raise ValueError("closed_form fitting is only defined for quad1d")
        z, w = batch.X[:, 0], batch.w
        return Params(np.array([float((w * z).sum() / w.sum())]))
    return _fit_newton(spec, batch, cfg, init)


def _fit_newton(spec: ModelSpec, batch: Batch, cfg: FitConfig, init) -> Params:
    params = init if init is not None else Params(np.zeros(spec.param_dim))
    # the loss and softmax at params, from the one evaluation of that point
    base, probs = _loss_and_probs(spec, params, batch)
    for _ in range(NEWTON_MAX_STEPS):
        g = grad_sum(spec, params, batch, probs=probs)
        g_norm = float(np.linalg.norm(g))
        if g_norm <= cfg.grad_tolerance:
            return params
        H = dense_hessian(spec, params, batch, probs=probs)
        try:
            step = np.linalg.solve(H, g)
        except np.linalg.LinAlgError as exc:
            raise FitError(f"singular Hessian during Newton fit: {exc}") from exc
        # backtracking keeps the iteration safe far from the optimum; the
        # slack admits the full Newton step once the decrease is below
        # float roundoff of the loss value
        slack = 1e-12 * (1.0 + abs(base))
        t = 1.0
        while t > 1e-8:
            trial = Params(params.theta - t * step)
            loss, trial_probs = _loss_and_probs(spec, trial, batch)
            if loss <= base - 1e-4 * t * float(g @ step) + slack:
                params, base, probs = trial, loss, trial_probs
                break
            t *= 0.5
        else:
            params = Params(params.theta - t * step)
            base, probs = _loss_and_probs(spec, params, batch)
    g_norm = float(np.linalg.norm(grad_sum(spec, params, batch, probs=probs)))
    if g_norm <= cfg.grad_tolerance:
        return params
    raise FitError(f"Newton did not converge in {NEWTON_MAX_STEPS} steps "
                   f"(|grad| = {g_norm:.3e})")


def accuracy(spec: ModelSpec, params: Params, samples: Samples) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class."""
    if spec.kind != "logistic":
        raise ValueError("accuracy is only defined for classification models")
    X, y, _, _ = _as_batch(spec, samples)
    if len(y) == 0:
        raise ValueError("accuracy over an empty sample list is undefined")
    theta = _theta_matrix(spec, params)
    pred = np.argmax(X @ theta.T, axis=1)
    return float((pred == y).mean())
