"""Convex models with per-sample losses, gradients and Hessian-vector products.

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
num_classes, dim)`` has one row per class. Per-sample operations are exact
analytic formulas; batch helpers (``grad_matrix``, ``dense_hessian``, ...)
are vectorized equivalents that agree with per-sample summation to float64
roundoff and exist because the leave-one-out oracles need thousands of
refits and every selection round needs one set Hessian.

``grad_sum`` is the sequential row sum of ``grad_matrix``, bit for bit, and
the logistic kernels build their per-sample rows in place with the same
float operations, in the same order, as the plain out-of-place formulas.
A different summation order (say ``(w * R).T @ X``) is just as accurate
but moves round-off bits of the SGD gradient, and the benchmark's kept-id
references freeze those bits: one near-tie run flips a kept id under it.

A Newton iterate computes the softmax at its parameters once and hands it
to both ``grad_sum`` and ``dense_hessian`` (their ``probs`` keyword), and
it takes its base loss from the line-search trial it accepted; only the
first iterate, and one after backtracking runs out, evaluates it afresh.
An influence context likewise shares one softmax of its candidates among
``grad_matrix``, ``hvp_matrix`` and, when they are its Hessian set,
``dense_hessian``. Both reuse the very floats the kernels would have
computed themselves, so the results are bit-identical to computing
everything anew.

Every batch helper takes either a sample sequence or a :class:`Batch`.
:func:`stack_samples` is the one place a sample set is validated against
the model and stacked into a ``Batch`` of read-only arrays, sample ids
included; a helper given a sequence stacks it on entry. Callers that visit
one set many times (a Newton fit, a leave-one-out refit, an influence
context) stack it once and pass the ``Batch``; the array math is the same
either way, so the results are bit-identical.
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np

from .numkit import ArgumentError, as_vector, check_int, check_real

MODEL_KINDS = ("quad1d", "logistic")
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
    theta: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "theta", as_vector(self.theta))


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


class Batch(NamedTuple):
    """A validated sample set as read-only arrays: features ``X`` (n, dim),
    labels ``y``, row weights ``w`` and sample ids ``ids``. Build one with
    :func:`stack_samples`, which sets every weight to 1, and reweight it with
    :meth:`with_weights`; every quantity computed from a Batch reads its
    ``w``."""

    X: np.ndarray
    y: np.ndarray
    w: np.ndarray
    ids: np.ndarray

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


Samples = Union[Batch, Sequence[Sample]]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def stack_samples(spec: ModelSpec, samples: Sequence[Sample]) -> Batch:
    """Validate every sample against ``spec`` and stack the set into a Batch."""
    for s in samples:
        _check_sample(spec, s)
    # the checks above leave equal-length 1-D float64 rows, which np.array
    # copies to the same bits as np.stack at a fraction of the cost
    X = np.array([s.features for s in samples]) if samples else np.zeros((0, spec.dim))
    y = np.array([s.label for s in samples], dtype=np.int64)
    w = np.ones(len(samples))
    ids = np.array([s.id for s in samples], dtype=np.int64)
    return Batch(_read_only(X), _read_only(y), _read_only(w), _read_only(ids))


def _as_batch(spec: ModelSpec, samples: Samples) -> Batch:
    return samples if isinstance(samples, Batch) else stack_samples(spec, samples)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    e /= e.sum(axis=1, keepdims=True)
    return e


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _theta_matrix(spec: ModelSpec, params: Params) -> np.ndarray:
    theta = as_vector(params.theta, dim=spec.param_dim)
    return theta.reshape(spec.num_classes, spec.dim)


# ---------------------------------------------------------------------------
# per-sample operations (the contract surface)
# ---------------------------------------------------------------------------

def loss(spec: ModelSpec, params: Params, sample: Sample) -> float:
    _check_sample(spec, sample)
    if spec.kind == "quad1d":
        t = params.theta[0]
        return 0.5 * (t - sample.features[0]) ** 2
    theta = _theta_matrix(spec, params)
    logits = (theta @ sample.features)[None, :]
    ce = -_log_softmax(logits)[0, sample.label]
    l2 = 0.5 * spec.l2_strength * float(params.theta @ params.theta)
    return ce + l2


def grad(spec: ModelSpec, params: Params, sample: Sample) -> np.ndarray:
    _check_sample(spec, sample)
    if spec.kind == "quad1d":
        return np.array([params.theta[0] - sample.features[0]])
    theta = _theta_matrix(spec, params)
    p = _softmax((theta @ sample.features)[None, :])[0]
    resid = p.copy()
    resid[sample.label] -= 1.0
    g = np.outer(resid, sample.features) + spec.l2_strength * theta
    return g.ravel()


def sample_hvp(spec: ModelSpec, params: Params, sample: Sample, v) -> np.ndarray:
    """Action of one sample's loss Hessian on ``v`` (exact, analytic)."""
    _check_sample(spec, sample)
    v = as_vector(v, dim=spec.param_dim)
    if spec.kind == "quad1d":
        return v.copy()
    theta = _theta_matrix(spec, params)
    p = _softmax((theta @ sample.features)[None, :])[0]
    V = v.reshape(spec.num_classes, spec.dim)
    a = V @ sample.features
    row = p * (a - float(p @ a))
    out = np.outer(row, sample.features) + spec.l2_strength * V
    return out.ravel()


# ---------------------------------------------------------------------------
# vectorized batch helpers
# ---------------------------------------------------------------------------

def loss_sum(spec: ModelSpec, params: Params, samples: Samples) -> float:
    X, y, w, _ = _as_batch(spec, samples)
    n = len(y)
    if n == 0:
        return 0.0
    if spec.kind == "quad1d":
        return float(0.5 * (w * (params.theta[0] - X[:, 0]) ** 2).sum())
    theta = _theta_matrix(spec, params)
    logp = _log_softmax(X @ theta.T)
    ce = -logp[np.arange(n), y]
    l2 = 0.5 * spec.l2_strength * float(params.theta @ params.theta)
    return float((w * (ce + l2)).sum())


def _probs(spec: ModelSpec, params: Params, X: np.ndarray) -> np.ndarray:
    """Class probabilities of each row of ``X`` under ``params``."""
    return _softmax(X @ _theta_matrix(spec, params).T)


def grad_matrix(spec: ModelSpec, params: Params, samples: Samples, *,
                probs: Optional[np.ndarray] = None) -> np.ndarray:
    """Per-sample gradients stacked as rows of an (n, param_dim) array.

    ``probs``, if given, must be the softmax at these ``params``, the class
    probabilities ``softmax(X @ theta.T)`` of the samples; it is read,
    never written, and spares recomputing them. quad1d ignores it.
    """
    X, y, w, _ = _as_batch(spec, samples)
    n = len(y)
    if spec.kind == "quad1d":
        return (w * (params.theta[0] - X[:, 0]))[:, None]
    theta = _theta_matrix(spec, params)
    resid = _softmax(X @ theta.T) if probs is None else probs.copy()
    resid[np.arange(n), y] -= 1.0
    G = resid[:, :, None] * X[:, None, :]
    G += spec.l2_strength * theta
    G *= w[:, None, None]
    return G.reshape(n, spec.param_dim)


def grad_sum(spec: ModelSpec, params: Params, samples: Samples, *,
             probs: Optional[np.ndarray] = None) -> np.ndarray:
    """Summed gradient; ``probs`` as in :func:`grad_matrix`, the softmax at
    these ``params``."""
    batch = _as_batch(spec, samples)
    if len(batch.y) == 0:
        return np.zeros(spec.param_dim)
    return grad_matrix(spec, params, batch, probs=probs).sum(axis=0)


def hvp_matrix(spec: ModelSpec, params: Params, samples: Samples, v, *,
               probs: Optional[np.ndarray] = None) -> np.ndarray:
    """Rows ``H_i v`` of each sample's Hessian applied to a fixed vector;
    ``probs`` as in :func:`dense_hessian`, the softmax at these ``params``,
    only read."""
    v = as_vector(v, dim=spec.param_dim)
    X, _, w, _ = _as_batch(spec, samples)
    n = len(w)
    if spec.kind == "quad1d":
        return w[:, None] * v[None, :]
    P = _probs(spec, params, X) if probs is None else probs
    V = v.reshape(spec.num_classes, spec.dim)
    a = X @ V.T
    m = np.einsum("nc,nc->n", P, a)
    rows = P * (a - m[:, None])
    out = rows[:, :, None] * X[:, None, :]
    out += spec.l2_strength * V
    out *= w[:, None, None]
    return out.reshape(n, spec.param_dim)


def dense_hessian(spec: ModelSpec, params: Params, samples: Samples, *,
                  probs: Optional[np.ndarray] = None) -> np.ndarray:
    """Materialized summed Hessian; used by Newton steps and influence contexts.

    For ``logistic`` the set Hessian ``sum_n w_n (diag(P_n) - P_n P_n^T)
    (x) x_n x_n^T`` is built in block form: one ``(n, p)`` product for the
    ``-P P^T`` part, one ``(n, dim)`` product per diagonal class block for
    the ``diag(P)`` part, and the L2 term on the diagonal. Both products
    are Gram matrices ``Z^T Z`` of square-root-weighted rows, which numpy
    evaluates as symmetric rank-k updates, so the result is exactly
    symmetric. ``probs``, if given, must be the softmax at these ``params``,
    as in :func:`grad_matrix`; it is read, never written.
    """
    X, _, w, _ = _as_batch(spec, samples)
    n = len(w)
    if n == 0:
        raise ValueError("set Hessian is undefined for an empty sample list")
    if spec.kind == "quad1d":
        return np.array([[w.sum()]])
    d, p = spec.dim, spec.param_dim
    P = _probs(spec, params, X) if probs is None else probs
    Z = ((np.sqrt(w)[:, None] * P)[:, :, None] * X[:, None, :]).reshape(n, p)
    H = -(Z.T @ Z)
    for c in range(spec.num_classes):
        Xc = np.sqrt(w * P[:, c])[:, None] * X
        H[c * d:(c + 1) * d, c * d:(c + 1) * d] += Xc.T @ Xc
    H[np.diag_indices(p)] += spec.l2_strength * w.sum()
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
    theta = init.theta.copy() if init is not None else np.zeros(spec.param_dim)
    base = None  # loss at theta, once a line search has evaluated it
    for _ in range(NEWTON_MAX_STEPS):
        params = Params(theta)
        probs = None if spec.kind == "quad1d" else _probs(spec, params, batch.X)
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
        if base is None:
            base = loss_sum(spec, params, batch)
        slack = 1e-12 * (1.0 + abs(base))
        t = 1.0
        while t > 1e-8:
            trial = loss_sum(spec, Params(theta - t * step), batch)
            if trial <= base - 1e-4 * t * float(g @ step) + slack:
                break
            t *= 0.5
        else:
            trial = None  # backtracking ran out: the loss at the new theta is unknown
        theta = theta - t * step
        base = trial
    params = Params(theta)
    g_norm = float(np.linalg.norm(grad_sum(spec, params, batch)))
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
